"""Seeded inputs of the three benchmark workloads.

Every seeded input is drawn from a pool stored in ``pools.json`` (made once
by ``make_pools.py``), so that the answer the seed commit gave for it can be
kept in ``reference.json``.  The seed picks which pool entries a run uses and
the order of the calls; the same seed always yields the same calls.
"""
from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = ("family_verdicts", "class_count", "cli_corpus")

# Instance-set sizes.  The pools hold more entries than a run draws.
DEADLOCK_CAPSUMS = range(2, 9)
SERIAL_WITNESS_CAPS = ((2, 2), (3, 2), (2, 2, 2))
PAIR_RECTANGLES = (12, 13, 14, 15)  # one capacity-1 thread per rectangle count
FACTORIAL_COPIES = (4, 5, 6)
# Eight larger capacity-2 programs, the same for every seed: the ten calls
# beyond the latency tail are the two heaviest instances and six of these,
# so the tail lies inside a fixed group of equal-cost calls rather than on
# the slowest excursion of a seed's pick.
CAP2_PROGRAMS = 32
CLI_SOURCES = 300
CLI_COMMANDS = (
    ("check",),
    ("deadlocks",),
    ("deadlocks", "--potential"),
    ("lcp",),
    ("classes",),
    ("family", "deadlock", "--thread", "T1"),
    ("family", "serializability", "--thread", "T1"),
)


def import_pvguard():
    """Import pvguard from ``src/`` of the checkout the benchmark sits in."""
    src = ROOT / "src"
    if not (src / "pvguard" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pvguard sources under {src}")
    sys.path.insert(0, str(src))
    import pvguard
    import pvguard.cli  # noqa: F401  (loads every layer)

    if Path(pvguard.__file__).resolve().parent != src / "pvguard":
        raise SystemExit(f"perfbench: imported pvguard from {pvguard.__file__}")
    return pvguard


def load_json(name: str):
    with open(BENCH_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def capacity_split(total: int, k: int) -> list[int]:
    """Capacities of ``k`` resources summing to ``total``, as even as
    possible, larger first (8 over 3 resources gives 3, 3, 2)."""
    out = [total // k] * k
    for i in range(total % k):
        out[i] += 1
    return out


def ladder_caps(pv, total: int):
    """Capacity map of the deadlock rung at a capacity sum: two resources at
    sum 2, otherwise three."""
    k = 2 if total == 2 else 3
    return pv.CapacityMap(tuple(zip("abc", capacity_split(total, k))))


@dataclass
class Call:
    """One analysis call: a library function or one ``pvguard`` command.

    ``module`` and ``func`` are looked up when the call runs, so that the
    traced run goes through the span wrappers.  ``key`` names the reference
    answer; ``check`` holds what the oracles need.
    """

    key: str
    module: str = ""
    func: str = ""
    args: tuple = ()
    argv: tuple = ()
    stdin: bytes = b""
    check: Optional[dict] = None

    @property
    def is_cli(self) -> bool:
        return bool(self.argv)


@dataclass
class Inputs:
    calls: list[Call]
    size: str
    # canonical text of every input; equal seeds must give equal bytes
    fingerprint: str


def _caps_text(caps) -> str:
    return "".join(f"{r}{caps[r]}" for r in caps.names)


def _thread_caps(pv, text: str, cap: int):
    t = pv.Thread.from_text(text)
    return t, pv.CapacityMap(tuple((r, cap) for r in sorted(t.resources_used)))


def family_verdicts(pv, pools: dict, seed: Optional[int]) -> list[Call]:
    """``seed`` None gives every pool entry (for the reference answers)."""
    rng = random.Random(seed)
    calls: list[Call] = []
    for total in DEADLOCK_CAPSUMS:
        caps = ladder_caps(pv, total)
        plan = pv.deadsharp_witness(caps)
        program = pv.Program.power(plan.thread, plan.instance_n, caps)
        check = {"kind": "deadsharp", "plan": plan, "program": program}
        tag = _caps_text(caps)
        calls.append(Call(f"fd/{tag}", "deadlock", "find_deadlocks", (program,), check=check))
        calls.append(
            Call(f"fdv/{tag}", "deadlock", "family_deadlock_verdict",
                 (plan.thread, caps), check=check)
        )
    for values in SERIAL_WITNESS_CAPS:
        caps = pv.CapacityMap(tuple(zip("abc", values)))
        plan = pv.sharpserializable_witness(caps)
        calls.append(
            Call(f"fsv/{_caps_text(caps)}", "serializability",
                 "family_serializability_verdict", (plan.thread, caps),
                 check={"kind": "sharpserializable", "plan": plan})
        )
    for rects in PAIR_RECTANGLES:
        bucket = pools["pair_threads"][str(rects)]
        chosen = bucket if seed is None else [rng.choice(bucket)]
        for text in chosen:
            thread, caps = _thread_caps(pv, text, 1)
            calls.append(
                Call(f"fsv/k1/{text}", "serializability",
                     "family_serializability_verdict", (thread, caps),
                     check={"kind": "pair", "rectangles": rects})
            )
    return calls


def class_count(pv, pools: dict, seed: Optional[int]) -> list[Call]:
    rng = random.Random(seed)
    calls: list[Call] = []
    pv_thread = pv.Thread.from_text("Pa Va")
    caps1 = pv.CapacityMap((("a", 1),))
    for n in FACTORIAL_COPIES:
        program = pv.Program.power(pv_thread, n, caps1)
        calls.append(
            Call(f"classes/PaVa^{n}", "serializability", "dihomotopy_classes",
                 (program,), check={"kind": "factorial", "n": n, "program": program})
        )
    pool = pools["cap2_threads"]
    chosen = pool if seed is None else rng.sample(pool, CAP2_PROGRAMS)
    for text in chosen + pools["cap2_large_threads"]:
        thread, caps = _thread_caps(pv, text, 2)
        program = pv.Program.power(thread, 3, caps)
        calls.append(
            Call(f"classes/cap2^3/{text}", "serializability", "dihomotopy_classes",
                 (program,), check={"kind": "classes", "program": program})
        )
    return calls


def cli_corpus(pv, pools: dict, seed: Optional[int]) -> list[Call]:
    rng = random.Random(seed)
    pool = pools["cli_sources"]
    chosen = pool if seed is None else rng.sample(pool, CLI_SOURCES)
    calls: list[Call] = []
    for text in chosen:
        raw = text.encode("utf-8")
        # parse once here so that set-up pays for validating every source
        pv.parse_source(text)
        digest = sha256(raw)
        for i, cmd in enumerate(CLI_COMMANDS):
            argv = (cmd[0], "-", *cmd[1:], "--json")
            calls.append(
                Call(f"cli/{digest}/{i}", argv=argv, stdin=raw,
                     check={"kind": "cli", "source": text, "command": cmd})
            )
    return calls


BUILDERS: dict[str, Callable] = {
    "family_verdicts": family_verdicts,
    "class_count": class_count,
    "cli_corpus": cli_corpus,
}

SIZES = {
    "family_verdicts": "21 calls: find_deadlocks + family deadlock at capacity sums 2..8, "
    "family serializability on 3 choice-point witnesses and 4 capacity-1 threads (R=12..15)",
    "class_count": f"{len(FACTORIAL_COPIES) + CAP2_PROGRAMS + 8} calls: "
    f"dihomotopy_classes on Pa Va ^ 4..6 and {CAP2_PROGRAMS} seeded + 8 fixed "
    "capacity-2 programs of 3 copies (threads of 6 and 8 acquire/release pairs)",
    "cli_corpus": f"{CLI_SOURCES * len(CLI_COMMANDS)} calls: {len(CLI_COMMANDS)} commands "
    f"on {CLI_SOURCES} sources",
}


def build(pv, workload: str, seed: Optional[int], pools: Optional[dict] = None) -> Inputs:
    """The workload's calls, in the seed's order."""
    if pools is None:
        pools = load_json("pools.json")
    calls = BUILDERS[workload](pv, pools, seed)
    if seed is not None:
        random.Random(seed ^ 0x5EED).shuffle(calls)
    fingerprint = sha256(
        "\n".join(repr((c.key, c.argv, c.stdin)) for c in calls).encode("utf-8")
    )
    return Inputs(calls, SIZES[workload], fingerprint)


def expected(reference: dict, call: Call) -> tuple[Optional[int], str]:
    """The reference exit code (None for library calls) and output digest."""
    if call.is_cli:
        _, source, index = call.key.split("/")
        code, digest = reference["cli"][source][int(index)].split(":")
        return int(code), digest
    return None, reference["lib"][call.key]
