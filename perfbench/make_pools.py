"""Make the benchmark's input pools and reference answers.

    python3 perfbench/make_pools.py pools [KIND ...]  # rewrite pools.json
    python3 perfbench/make_pools.py reference         # rewrite reference.json

``pools`` draws random threads and sources from fixed seeds and keeps the
ones whose cost sits in a narrow band, so that runs with different seeds do
comparable work; KIND is pair_threads, cap2_threads, cap2_large_threads or
cli_sources (default all).  Some filters are timings, which depend on the machine; the pools are
made once and committed.  ``reference`` records, for every call any
seed can draw, the digest of its output and the CLI exit code, as the code
under ``src/`` gives them.  Run it only on a commit whose answers are trusted.
"""
from __future__ import annotations

import json
import random
import statistics
import sys
import time

import oracle
from harness import Runner, digest_of
from workloads import (
    BENCH_DIR,
    CLI_COMMANDS,
    Call,
    PAIR_RECTANGLES,
    WORKLOADS,
    build,
    import_pvguard,
    load_json,
)

PAIR_POOL = 6
CAP2_POOL = 120
CAP2_LARGE_POOL = 8
CLI_POOL = 500
CLI_CALL_LIMIT_S = 0.012


def random_actions(rng: random.Random, resources: str, pairs: int) -> str:
    """A valid action sequence of ``pairs`` acquire/release pairs: a thread
    holds each resource at most once at a time and releases all of it."""
    out: list[str] = []
    held: list[str] = []
    remaining = 2 * pairs
    while remaining:
        free = [r for r in resources if r not in held]
        if held and (len(held) >= remaining or not free or rng.random() < 0.5):
            out.append("V" + held.pop(rng.randrange(len(held))))
        else:
            r = rng.choice(free)
            held.append(r)
            out.append("P" + r)
        remaining -= 1
    return " ".join(out)


def _timed(fn, *args):
    started = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - started


def _narrow(timed: list[tuple[float, str]], keep: int) -> list[str]:
    """The ``keep`` entries whose cost is closest to the median."""
    mid = statistics.median(t for t, _ in timed)
    return sorted(text for _, text in sorted(timed, key=lambda e: abs(e[0] - mid))[:keep])


def pair_pool(pv) -> dict[str, list[str]]:
    """Capacity-1 threads whose two-copy program is serializable, per
    forbidden-rectangle count R (the sum of squared hold counts)."""
    rng = random.Random(1807)
    found: dict[int, list[tuple[float, str]]] = {r: [] for r in PAIR_RECTANGLES}
    want = 2 * PAIR_POOL
    while any(len(v) < want for v in found.values()):
        text = random_actions(rng, "abcd"[: rng.choice((3, 4))], rng.randint(6, 7))
        thread = pv.Thread.from_text(text)
        rects = sum(len(h) ** 2 for h in thread.hold_intervals.values())
        if rects not in found or len(found[rects]) >= want:
            continue
        caps = pv.CapacityMap(tuple((r, 1) for r in sorted(thread.resources_used)))
        if not pv.dihomotopy_classes(pv.Program.power(thread, 2, caps)).serializable:
            continue
        ok, dt = _timed(pv.kappa1_pair_serializable, thread, caps)
        assert ok, text
        found[rects].append((dt, text))
        print(f"pair R={rects} {dt:.2f}s {text}", file=sys.stderr)
    return {str(r): _narrow(v, PAIR_POOL) for r, v in found.items()}


def cap2_pool(pv, pairs: int, keep: int, draw: int, seed: int, timed: bool = False) -> list[str]:
    """Threads of ``pairs`` acquire/release pairs over three capacity-2
    resources whose 3-copy program has one execution class: the ``keep`` of
    ``draw`` such threads whose class DP work is nearest the median.  That
    work is measured by the number of reachable states or, with ``timed``,
    by the best of three timings."""
    rng = random.Random(seed)
    sized = []
    while len(sized) < draw:
        text = random_actions(rng, "abc", pairs)
        thread = pv.Thread.from_text(text)
        if len(thread.resources_used) < 3:
            continue
        caps = {r: 2 for r in thread.resources_used}
        program = pv.Program.power(thread, 3, pv.CapacityMap(tuple(sorted(caps.items()))))
        if pv.dihomotopy_classes(program).class_count != 1:
            continue
        if timed:
            cost = min(_timed(pv.dihomotopy_classes, program)[1] for _ in range(3))
        else:
            cost = len(oracle.reachable(oracle.Model([text] * 3, caps)))
        sized.append((cost, text))
    return _narrow(sized, keep)


def random_source(rng: random.Random) -> str:
    resources = "abc"[: rng.choice((2, 3))]
    lines = [f"resource {r} cap {rng.randint(1, 3)}" for r in resources]
    names = [f"T{i + 1}" for i in range(rng.choice((2, 3)))]
    for name in names:
        lines.append(f"thread {name} = {random_actions(rng, resources, rng.randint(1, 3))}")
    lines.append(f"program main = {' | '.join(names)}")
    return "\n".join(lines) + "\n"


def cli_pool(pv) -> list[str]:
    """Small sources on which no single command takes long."""
    rng = random.Random(3144)
    runner = Runner()
    kept: list[str] = []
    seen = set()
    while len(kept) < CLI_POOL:
        text = random_source(rng)
        if text in seen:
            continue
        seen.add(text)
        slow = False
        for cmd in CLI_COMMANDS:
            call = Call("probe", argv=(cmd[0], "-", *cmd[1:], "--json"), stdin=text.encode())
            runs = [runner.run(call) for _ in range(3)]
            assert all(err is None for *_, err in runs), (text, cmd)
            slow = slow or min(dt for dt, *_ in runs) > CLI_CALL_LIMIT_S
        if not slow:
            kept.append(text)
    return kept


def make_pools(pv, kinds: list[str]) -> dict:
    """Rebuild the named pools, keeping the others as they are."""
    makers = {
        "pair_threads": pair_pool,
        "cap2_threads": lambda pv: cap2_pool(pv, 6, CAP2_POOL, 3 * CAP2_POOL, 2018),
        "cap2_large_threads": lambda pv: cap2_pool(
            pv, 8, CAP2_LARGE_POOL, 160, 2019, timed=True
        ),
        "cli_sources": cli_pool,
    }
    pools = load_json("pools.json") if (BENCH_DIR / "pools.json").exists() else {}
    for kind in kinds or makers:
        pools[kind] = makers[kind](pv)
    return pools


def make_reference(pv) -> dict:
    """Per library call its output digest; per CLI source, one
    ``"<exit code>:<stdout sha256>"`` entry for each command."""
    runner = Runner()
    pools = load_json("pools.json")
    lib: dict[str, str] = {}
    cli: dict[str, list[str]] = {}
    for workload in WORKLOADS:
        for call in build(pv, workload, None, pools).calls:
            _, code, out, err = runner.run(call)
            if err is not None:
                raise SystemExit(f"{call.key} raised {err!r}")
            if call.is_cli:
                _, source, index = call.key.split("/")
                cli.setdefault(source, [""] * len(CLI_COMMANDS))[int(index)] = (
                    f"{code}:{digest_of(call, out)}"
                )
            else:
                lib[call.key] = digest_of(call, out)
    return {"lib": lib, "cli": cli}


def main(argv: list[str]) -> int:
    if not argv or argv[0] not in ("pools", "reference"):
        print(__doc__, file=sys.stderr)
        return 2
    pv = import_pvguard()
    if argv[0] == "pools":
        name, data = "pools.json", make_pools(pv, argv[1:])
    else:
        name, data = "reference.json", make_reference(pv)
    with open(BENCH_DIR / name, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
