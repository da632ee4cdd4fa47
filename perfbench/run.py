"""pvguard benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (family_verdicts, class_count or cli_corpus) as a closed
loop: one client in this process, one call at a time, no extra threads.  The
run makes whole passes over the workload's instance set; the number of
passes depends only on --seconds, never on how fast the code is, so the
latency percentiles always cover the same calls.  With --trace 0 the last
line of stdout holds the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a traced run plus the tracing overhead.  Outputs are
checked against the reference answers after the timed calls.
See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time

import oracle
from harness import Runner, SpeedProbe, digest_of, tail
from tracing import PER_LAYER, Tracer
from workloads import (
    BENCH_DIR,
    WORKLOADS,
    build,
    expected,
    import_pvguard,
    ladder_caps,
    load_json,
)

# Seconds one pass over the instance set takes on the code the benchmark was
# defined on; a run makes round(--seconds / this) passes, and at least
# MIN_PASSES.  family_verdicts needs three passes so that the ten calls
# beyond its latency tail are the three heaviest instances and one more,
# not a seed-dependent pair test.
PASS_SECONDS = {"family_verdicts": 16.5, "class_count": 9.5, "cli_corpus": 7.5}
MIN_PASSES = {"family_verdicts": 3, "class_count": 2, "cli_corpus": 2}
SETUP_PROBES = 5
LADDER = range(3, 17)
LADDER_BUDGET_S = 4.0
# calls whose per-layer breakdown the traced run prints
BASELINE_CALLS = {
    "fd/a3b3c2": "find_deadlocks, (3,3,2) deadlock witness, n=8",
    "fsv/a2b2c2": "family serializability, (2,2,2) choice-point witness",
    "classes/PaVa^6": "dihomotopy_classes(Pa Va ^ 6)",
}

END_TO_END = {
    "verdicts_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mib": "MiB",
    "family_max_capsum": "count",
    "setup_s": "s",
}


class _OverBudget(Exception):
    pass


def _alarm(signum, frame):
    raise _OverBudget()


def family_max_capsum(pv) -> tuple[int, bool]:
    """Largest capacity sum of the 3-resource deadlock-witness ladder up to
    which every rung gets a definite, correct verdict within the per-rung
    budget; and whether every definite verdict was correct."""
    best = LADDER.start - 1
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for total in LADDER:
            caps = ladder_caps(pv, total)
            plan = pv.deadsharp_witness(caps)
            started = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, LADDER_BUDGET_S)
            try:
                verdict = pv.family_deadlock_verdict(plan.thread, caps)
            except _OverBudget:
                break
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            if time.perf_counter() - started > LADDER_BUDGET_S:
                break
            if verdict.verdict not in ("yes", "no"):
                break
            if verdict.verdict != "no" or plan.expected_state not in verdict.witnesses:
                return best, False
            best = total
    finally:
        signal.signal(signal.SIGALRM, previous)
    return best, True


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


class Tally:
    """Latencies and outcome counts of the timed calls."""

    def __init__(self):
        self.latencies: list[float] = []  # scaled to the reference speed
        self.raw: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def verdicts_per_s(self) -> float:
        return len(self.latencies) / math.fsum(self.latencies)


def run_passes(runner, inputs, reference, passes, tally, first_outputs, tracer=None):
    """Run the passes under the speed probe, then scale each call's wall
    time by the machine speed measured while it ran."""
    windows: list[tuple[float, float]] = []
    with SpeedProbe() as probe:
        runner.probe = probe
        for p in range(passes):
            for i, call in enumerate(inputs.calls):
                if tracer is not None:
                    tracer.call_id = p * len(inputs.calls) + i
                started = time.perf_counter()
                seconds, code, out, err = runner.run(call)
                windows.append((started, time.perf_counter()))
                tally.attempted += 1
                tally.raw.append(seconds)
                want_code, want_digest = expected(reference, call)
                if err is not None or code != want_code:
                    tally.failed += 1
                    continue
                if digest_of(call, out) != want_digest:
                    tally.wrong += 1
                if i not in first_outputs:
                    first_outputs[i] = out
    runner.probe = None
    tally.latencies = [
        raw * probe.factor(*window) for raw, window in zip(tally.raw, windows)
    ]


def check_outputs(inputs, first_outputs, passes) -> int:
    """Calls whose instance fails a construction or oracle check."""
    wrong = 0
    for i, call in enumerate(inputs.calls):
        if i in first_outputs and oracle.check_call(call, first_outputs[i]) is False:
            print(f"oracle disagrees: {call.key} {call.argv}", file=sys.stderr)
            wrong += passes
    return wrong


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                    help="one workload, or all three in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for w in WORKLOADS
        ]
        return max(codes)

    pv = import_pvguard()
    reference = load_json("reference.json")
    setup_s = setup_seconds(args.workload, args.seed) if not args.trace else None
    inputs = build(pv, args.workload, args.seed)
    # the traced run makes one untraced and one traced pass: its figures are
    # diagnostic, and the end-to-end metrics come from untraced runs
    passes = 1 if args.trace else max(
        MIN_PASSES[args.workload], round(args.seconds / PASS_SECONDS[args.workload])
    )
    runner = Runner()
    print(f"workload {args.workload}, seed {args.seed}: {inputs.size}; "
          f"{passes} pass(es), closed loop, 1 client")

    first_outputs: dict[int, object] = {}
    plain = Tally()
    run_passes(runner, inputs, reference, passes, plain, first_outputs)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tallies = [plain]
    traced = None
    if args.trace:
        tracer = Tracer()
        traced = Tally()
        tracer.install()
        try:
            run_passes(runner, inputs, reference, passes, traced, {}, tracer)
        finally:
            tracer.uninstall()
        tallies.append(traced)
        spans_path = BENCH_DIR / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"{len(tracer.spans)} spans written to {spans_path.relative_to(BENCH_DIR.parent)}")

    wrong_checks = check_outputs(inputs, first_outputs, passes)
    capsum, ladder_ok = family_max_capsum(pv)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    wrong = sum(t.wrong for t in tallies) + wrong_checks * len(tallies) + (not ladder_ok)
    vps = plain.verdicts_per_s()
    tail_s, tail_pct = tail(plain.latencies)
    print(f"unscaled verdicts_per_s {len(plain.raw) / math.fsum(plain.raw):.4f}, "
          f"unscaled latency_p50_ms {statistics.median(plain.raw) * 1000.0:.4f}")
    print(f"wrong_outputs {wrong} count")
    print(f"failed_share {failed / attempted:.6f} ratio ({failed} of {attempted})")
    print(f"latency tail is p{tail_pct:.1f} of {len(plain.latencies)} calls")

    if args.trace:
        metrics = tracer.layer_metrics(passes, math.fsum(traced.latencies) / math.fsum(traced.raw))
        vps_traced = traced.verdicts_per_s()
        metrics["trace.overhead_vps"] = vps_traced - vps
        print(f"verdicts_per_s untraced {vps:.4f}, traced {vps_traced:.4f} 1/s")
        print(f"family_max_capsum {capsum} count")
        for key, label in BASELINE_CALLS.items():
            ids = [i for i, c in enumerate(inputs.calls) if c.key == key]
            if ids:
                row = tracer.call_breakdown(ids[0])
                cells = ", ".join(f"{k} {v:.4g}" for k, v in sorted(row.items()))
                print(f"baseline {label}: {cells}")
        units = PER_LAYER
    else:
        metrics = {
            "verdicts_per_s": vps,
            "latency_p50_ms": statistics.median(plain.latencies) * 1000.0,
            "latency_tail_ms": tail_s * 1000.0,
            "peak_rss_mib": peak_rss_mib,
            "family_max_capsum": capsum,
            "setup_s": setup_s,
        }
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    result = {
        "correct": wrong == 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
