"""Property check at engine scale: the deadlock cut-off transfers.

Run it as ``python tests/properties.py``.  It imports the package from
``src/`` and the generators of ``tests/conftest.py`` (so it needs pytest and
Hypothesis installed), and pytest does not collect it (its test files are
``test_*.py``).

For 1,000 seeded random threads over a, b and c, of at most 5 acquire and
release pairs, at capacities 1..4, the family deadlock verdict at the
cut-off M (the capacity sum of the resources the thread uses) must agree
with a direct search of ``T ^ (M + 1)``: "no" exactly when that instance
has a deadlock.  The script exits 1 at the first disagreement, printing the
thread and its capacities, and 0 otherwise.  A verdict that is
inconclusive, or an instance past the default search bound, is counted and
skipped; the summary line gives the counts.
"""
from __future__ import annotations

import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import random_thread  # noqa: E402
from pvguard import (  # noqa: E402
    CapacityMap,
    Program,
    SearchLimitExceeded,
    family_deadlock_verdict,
)
from pvguard.deadlock import _deadlock_states  # noqa: E402
from pvguard.geometry import DEFAULT_MAX_STATES  # noqa: E402

THREADS = 1000
SEED = 16


def main() -> int:
    rng = random.Random(SEED)
    started = time.perf_counter()
    verdicts: dict[str, int] = {}
    for k in range(THREADS):
        caps = CapacityMap(tuple((r, rng.randint(1, 4)) for r in "abc"))
        thread = random_thread(rng, ["a", "b", "c"], 5)
        verdict = family_deadlock_verdict(thread, caps)
        verdicts[verdict.verdict] = verdicts.get(verdict.verdict, 0) + 1
        if verdict.verdict == "inconclusive":
            continue
        beyond = Program.power(thread, verdict.cutoff + 1, caps)
        try:
            deadlocked = bool(_deadlock_states(beyond, DEFAULT_MAX_STATES))
        except SearchLimitExceeded:
            verdicts["past the bound at M + 1"] = verdicts.get("past the bound at M + 1", 0) + 1
            continue
        if deadlocked != (verdict.verdict == "no"):
            print(
                f"thread {k}: {thread} at {dict(caps.items())}: the family verdict at "
                f"M = {verdict.cutoff} is {verdict.verdict!r}, but T ^ {verdict.cutoff + 1} "
                f"{'has' if deadlocked else 'has no'} deadlock"
            )
            return 1
    counts = ", ".join(f"{v} {n}" for v, n in sorted(verdicts.items()))
    elapsed = time.perf_counter() - started
    print(f"properties: cut-off transfer holds on {THREADS} threads ({counts}), {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
