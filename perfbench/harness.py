"""Running calls, fingerprinting their outputs, and the timing statistics."""
from __future__ import annotations

import bisect
import io
import json
import signal
import statistics
import sys
import time
from collections import deque

from workloads import Call, sha256


def canonical(result) -> dict:
    """The user-visible content of a library result: verdicts, witnesses,
    class counts and representatives.  Search counters are left out; the
    traced run reports them as per-layer metrics."""
    kind = type(result).__name__
    if kind == "DeadlockReport":
        return {
            "deadlocks": [
                [list(d.state), [list(s) for s in d.witness.states]]
                for d in result.deadlocks
            ],
            "potential_deadlocks": [list(s) for s in result.potential_deadlocks],
        }
    if kind == "FamilyVerdict":
        return {
            "property": result.property_name,
            "verdict": result.verdict,
            "cutoff": result.cutoff,
            "rule": result.rule,
            "detail": result.detail,
            "witnesses": [list(s) for s in result.witnesses],
            "manifests_at_n": result.manifests_at_n,
            "choice_points": [
                [list(cp.state), cp.resource, list(cp.contenders), cp.reachable]
                for cp in result.choice_points
            ],
        }
    if kind == "ClassReport":
        return {
            "class_count": result.class_count,
            "serial_classes_covered": result.serial_classes_covered,
            "serializable": result.serializable,
            "representatives": [list(r.steps()) for r in result.representatives],
        }
    raise TypeError(f"no canonical form for {kind}")


def digest_of(call: Call, output) -> str:
    if call.is_cli:
        return sha256(output.encode("utf-8"))
    return sha256(json.dumps(canonical(output), sort_keys=True).encode("utf-8"))


# Seconds one probe takes on an idle machine of the kind the benchmark was
# defined on; reported times are scaled to this speed.
PROBE_REF_S = 0.0001
PROBE_INTERVAL_S = 0.003
PROBE_MIN_SAMPLES = 3


def probe_once() -> float:
    """A fixed piece of interpreter work, a breadth-first search over the
    4 x 4 x 4 grid with tuple states and a dict, the kind of work pvguard's
    engines do (its slowdown under contention tracks theirs far better than
    plain arithmetic does).  Returns the seconds it took."""
    started = time.perf_counter()
    start = (0, 0, 0)
    seen = {start: start}
    queue = deque((start,))
    while queue:
        state = queue.popleft()
        for c in range(3):
            if state[c] < 3:
                nxt = state[:c] + (state[c] + 1,) + state[c + 1:]
                if nxt not in seen:
                    seen[nxt] = state
                    queue.append(nxt)
    return time.perf_counter() - started


class SpeedProbe:
    """Samples the machine's speed every 3 ms while active.

    The host is shared: other tenants slow this process down by tens of
    per cent, changing within tens of milliseconds.  The probe runs from a
    timer signal in this thread (no extra thread), so it samples the speed
    the timed calls see while they run.  ``seconds`` counts the time spent
    in probes so that it can be taken out of the calls' wall time.
    """

    def __init__(self):
        self.ends: list[float] = []
        self.samples: list[float] = []
        self.seconds = 0.0
        self._typical: "float | None" = None

    def _tick(self, signum, frame):
        took = probe_once()
        self.ends.append(time.perf_counter())
        self.samples.append(took)
        self.seconds += took

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, start: float, end: float) -> float:
        """Reference probe time over the mean probe time in the interval:
        the probes that ran in it, widened to the nearest ones until there
        are at least three."""
        ends = self.ends
        if not ends:
            return 1.0
        if self._typical is None:
            self._typical = statistics.median(self.samples)
        lo, hi = bisect.bisect_left(ends, start), bisect.bisect_right(ends, end)
        while hi - lo < min(PROBE_MIN_SAMPLES, len(ends)):
            if lo > 0 and (hi == len(ends) or start - ends[lo - 1] < ends[hi] - end):
                lo -= 1
            else:
                hi += 1
        # leave out probes cut by a context switch
        kept = [t for t in self.samples[lo:hi] if t <= 4.0 * self._typical]
        return PROBE_REF_S / statistics.fmean(kept or [self._typical])


class Runner:
    """Closed-loop client: one call at a time, each timed on its own.
    pvguard must be imported first."""

    def __init__(self):
        self.probe: "SpeedProbe | None" = None
        self.modules = {
            name: sys.modules[f"pvguard.{name}"]
            for name in ("deadlock", "serializability", "cli")
        }

    def run(self, call: Call):
        """Returns (seconds, exit code or None, output, error); the seconds
        leave out any speed probes that ran during the call."""
        if self.probe is None:
            return self._run(call)
        before = self.probe.seconds
        seconds, code, out, err = self._run(call)
        return seconds - (self.probe.seconds - before), code, out, err

    def _run(self, call: Call):
        if call.is_cli:
            return self._run_cli(call)
        fn = getattr(self.modules[call.module], call.func)
        started = time.perf_counter()
        try:
            out = fn(*call.args)
        except Exception as exc:  # a raising call counts as failed
            return time.perf_counter() - started, None, None, exc
        return time.perf_counter() - started, None, out, None

    def _run_cli(self, call: Call):
        stdin = io.TextIOWrapper(io.BytesIO(call.stdin), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin, sys.stdout, sys.stderr
        main = self.modules["cli"].main
        sys.stdin, sys.stdout, sys.stderr = stdin, out, err
        started = time.perf_counter()
        try:
            code = main(list(call.argv))
        except (Exception, SystemExit) as exc:
            elapsed = time.perf_counter() - started
            sys.stdin, sys.stdout, sys.stderr = saved
            return elapsed, None, None, exc
        elapsed = time.perf_counter() - started
        sys.stdin, sys.stdout, sys.stderr = saved
        return elapsed, code, out.getvalue(), None


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten calls beyond it: the
    eleventh largest sample, and its percentile.  With ten samples or fewer
    the maximum is returned as the 100th percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n
