"""Self-check of the benchmark.

    python3 perfbench/selfcheck.py [WORKLOAD ...]

Checks that
  * the same seed yields byte-identical inputs, in this process and in a
    fresh one, and another seed yields other inputs;
  * every count metric repeats exactly across two traced runs, and
    family_max_capsum across those and the untraced run;
  * the metric names a run prints are exactly those of BENCHMARK.json;
  * without the sources under src/ the benchmark fails without a result.
Takes several minutes: it makes one untraced and two traced runs per workload.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

from tracing import PER_LAYER
from workloads import BENCH_DIR, ROOT, WORKLOADS, build, import_pvguard

COUNTS = [name for name, unit in PER_LAYER.items() if unit == "count"]
SEED = 7


def run(workload: str, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    if done.returncode != 0:
        raise SystemExit(f"run failed: {done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(workloads: list[str]) -> int:
    pv = import_pvguard()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    problems = []
    if per_layer != list(PER_LAYER):
        problems.append("per-layer metrics of tracing.py differ from BENCHMARK.json")

    for workload in workloads:
        first = build(pv, workload, SEED).fingerprint
        fresh = subprocess.run(
            [sys.executable, "-c",
             "from workloads import build, import_pvguard; "
             f"print(build(import_pvguard(), {workload!r}, {SEED}).fingerprint)"],
            cwd=BENCH_DIR, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not first == build(pv, workload, SEED).fingerprint == fresh:
            problems.append(f"{workload}: seed {SEED} gave different inputs")
        if build(pv, workload, SEED + 1).fingerprint == first:
            problems.append(f"{workload}: seeds {SEED} and {SEED + 1} gave equal inputs")

        plain = result_of(run(workload, 0))
        if list(plain["metrics"]) != end_to_end:
            problems.append(f"{workload}: end-to-end names {list(plain['metrics'])}")
        traced_out = [run(workload, 1) for _ in range(2)]
        traced = [result_of(done) for done in traced_out]
        traced_out = [done.stdout for done in traced_out]
        for res in traced:
            if list(res["metrics"]) != per_layer:
                problems.append(f"{workload}: per-layer names {list(res['metrics'])}")
        for name in COUNTS:
            a, b = (res["metrics"][name]["value"] for res in traced)
            if a != b:
                problems.append(f"{workload}: {name} gave {a} then {b}")
        capsums = {plain["metrics"]["family_max_capsum"]["value"]} | {
            int(line.split()[1]) for out in traced_out for line in out.splitlines()
            if line.startswith("family_max_capsum ")
        }
        if len(capsums) != 1:
            problems.append(f"{workload}: family_max_capsum gave {sorted(capsums)}")
        if not all(res["correct"] for res in [plain, *traced]):
            problems.append(f"{workload}: outputs differ from the reference")
        print(f"{workload}: family_max_capsum {plain['metrics']['family_max_capsum']['value']}, "
              + ", ".join(f"{n} {traced[0]['metrics'][n]['value']}" for n in COUNTS))

    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run(WORKLOADS[0], 0, cwd=bare)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        problems.append("the benchmark ran without pvguard sources")
    shutil.rmtree(bare)

    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(WORKLOADS)))
