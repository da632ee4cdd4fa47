"""Brute-force oracles, written without pvguard's engines.

Deadlocks come from a plain breadth-first search of the whole grid, with no
candidate sieve and no symmetry folding; potential deadlocks and choice
points from a sweep over every grid state; execution classes from
enumerating every complete path and merging across admissible squares.
Each oracle declines (returns None) when its instance is too large.
"""
from __future__ import annotations

import itertools
import json
import math
from collections import Counter, deque
from typing import Optional

GRID_LIMIT = 4_000
PATH_LIMIT = 1_000


class Model:
    """Threads given as action mnemonics (``"Pa Pb Vb Va"``) under capacities.

    Position 0 is the start, position p in 1..L stands at action p, L+1 is
    the end.  A resource acquired at action i and released at action j is
    held at positions strictly between i and j, and on the edges leaving
    positions i..j-1.
    """

    def __init__(self, threads: list[str], caps: dict[str, int]):
        self.names = sorted(caps)
        self.kappa = [caps[r] for r in self.names]
        self.actions = [t.split() for t in threads]
        self.tops = tuple(len(a) + 1 for a in self.actions)
        self.n = len(threads)
        index = {r: k for k, r in enumerate(self.names)}
        # per thread and position, the indices of the resources held
        self.point: list[list[list[int]]] = []
        self.seg: list[list[list[int]]] = []
        for acts in self.actions:
            top = len(acts) + 1
            point: list[list[int]] = [[] for _ in range(top + 1)]
            seg: list[list[int]] = [[] for _ in range(top)]
            opened: dict[str, int] = {}
            for pos, act in enumerate(acts, start=1):
                if act[0] == "P":
                    opened[act[1:]] = pos
                    continue
                start = opened.pop(act[1:])
                for p in range(start + 1, pos):
                    point[p].append(index[act[1:]])
                for p in range(start, pos):
                    seg[p].append(index[act[1:]])
            self.point.append(point)
            self.seg.append(seg)

    @property
    def grid(self) -> int:
        return math.prod(t + 1 for t in self.tops)

    def states(self):
        return itertools.product(*(range(t + 1) for t in self.tops))

    def use(self, state) -> list[int]:
        totals = [0] * len(self.kappa)
        for c, x in enumerate(state):
            for r in self.point[c][x]:
                totals[r] += 1
        return totals

    def _fits(self, state, moving=()) -> bool:
        totals = [0] * len(self.kappa)
        for c, x in enumerate(state):
            for r in (self.seg[c][x] if c in moving else self.point[c][x]):
                totals[r] += 1
        return all(t <= k for t, k in zip(totals, self.kappa))

    def admissible(self, state) -> bool:
        return self._fits(state)

    def steppable(self, state) -> list[int]:
        if not self._fits(state):
            return []
        return [
            c for c in range(self.n)
            if state[c] < self.tops[c] and self._fits(state, (c,))
        ]

    def square(self, state, i: int, j: int) -> bool:
        return self._fits(state, (i, j))

    def requested(self, state, c: int) -> Optional[int]:
        """The resource index coordinate ``c`` waits for, if it stands at a P."""
        x = state[c]
        if 1 <= x < self.tops[c] and self.actions[c][x - 1][0] == "P":
            return self.names.index(self.actions[c][x - 1][1:])
        return None

    def path_count(self) -> int:
        """Number of complete executions, by counting over the grid."""
        count = {(0,) * self.n: 1}
        for state in self.states():  # lexicographic order visits sources first
            k = count.get(state)
            if not k:
                continue
            for c in self.steppable(state):
                nxt = state[:c] + (state[c] + 1,) + state[c + 1:]
                count[nxt] = count.get(nxt, 0) + k
        return count.get(self.tops, 0)


def reachable(m: Model) -> Optional[set]:
    if m.grid > GRID_LIMIT:
        return None
    start = (0,) * m.n
    seen = {start}
    queue = deque((start,))
    while queue:
        state = queue.popleft()
        for c in m.steppable(state):
            nxt = state[:c] + (state[c] + 1,) + state[c + 1:]
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def deadlocks(m: Model) -> Optional[list]:
    seen = reachable(m)
    if seen is None:
        return None
    return sorted(s for s in seen if s != m.tops and not m.steppable(s))


def potential_deadlocks(m: Model) -> Optional[list]:
    if m.grid > GRID_LIMIT:
        return None
    out = []
    for state in m.states():
        if state == m.tops:
            continue
        use = m.use(state)
        if all(
            x == m.tops[c]
            or ((r := m.requested(state, c)) is not None and use[r] == m.kappa[r])
            for c, x in enumerate(state)
        ):
            out.append(state)
    return out


def choice_points(m: Model) -> Optional[list]:
    """(state, reachable) for every admissible state where at least two
    threads can step and admissible squares do not connect them all."""
    seen = reachable(m)
    if seen is None:
        return None
    out = []
    for state in m.states():
        if not m.admissible(state):
            continue
        can = m.steppable(state)
        if len(can) < 2:
            continue
        comp = {can[0]}
        grew = True
        while grew:
            grew = False
            for c in can:
                if c not in comp and any(m.square(state, c, d) for d in comp):
                    comp.add(c)
                    grew = True
        if len(comp) < len(can):
            out.append((state, state in seen))
    return out


def classes(m: Model) -> Optional[dict]:
    """Class count, serial classes, and least representatives."""
    if m.grid > GRID_LIMIT or m.path_count() > PATH_LIMIT:
        return None
    paths: list[tuple] = []
    start = (0,) * m.n

    def walk(state, steps):
        if state == m.tops:
            paths.append(tuple(steps))
            return
        for c in m.steppable(state):
            steps.append(c)
            walk(state[:c] + (state[c] + 1,) + state[c + 1:], steps)
            steps.pop()

    walk(start, [])
    index = {p: k for k, p in enumerate(paths)}
    parent = list(range(len(paths)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for k, p in enumerate(paths):
        state = list(start)
        for t in range(len(p) - 1):
            i, j = p[t], p[t + 1]
            if i != j and m.square(tuple(state), i, j):
                other = index[p[:t] + (j, i) + p[t + 2:]]
                parent[find(k)] = find(other)
            state[i] += 1
    least: dict[int, tuple] = {}
    for p in paths:  # enumerated in ascending order, so the first is least
        least.setdefault(find(index[p]), p)
    serial = set()
    for p in paths:
        runs = [(c, len(list(g))) for c, g in itertools.groupby(p)]
        if len(runs) == m.n and all(ln == m.tops[c] for c, ln in runs):
            serial.add(find(index[p]))
    return {
        "class_count": len(least),
        "serial_classes_covered": len(serial),
        "representatives": sorted(least.values()),
    }


# ---------------------------------------------------------------------------
# checks of concrete outputs


def parse_source(text: str) -> tuple[dict[str, int], dict[str, str], list[str]]:
    """Capacities, threads and the program's thread list of a generated source."""
    caps: dict[str, int] = {}
    threads: dict[str, str] = {}
    program: list[str] = []
    for line in text.splitlines():
        words = line.split()
        if words[0] == "resource":
            caps[words[1]] = int(words[3])
        elif words[0] == "thread":
            threads[words[1]] = " ".join(words[3:])
        elif words[0] == "program":
            program = [threads[w] for w in words[3:] if w != "|"]
    return caps, threads, program


def _family(text: str, copies: int, caps: dict[str, int]) -> Model:
    used = {a[1:] for a in text.split()}
    return Model([text] * copies, {r: caps[r] for r in used})


def family_deadlock(text: str, caps: dict[str, int]) -> Optional[tuple[str, list]]:
    """Verdict and witnesses of "every number of copies is deadlock-free"."""
    acquired = Counter(a[1:] for a in text.split() if a[0] == "P")
    if all(v <= 1 for v in acquired.values()):
        return "yes", []
    used = {a[1:] for a in text.split()}
    found = deadlocks(_family(text, sum(caps[r] for r in used), caps))
    if found is None:
        return None
    return ("no" if found else "yes"), found


def family_serializability(text: str, caps: dict[str, int]) -> Optional[str]:
    used = {a[1:] for a in text.split()}
    values = {caps[r] for r in used}
    if values == {1}:
        got = classes(_family(text, 2, caps))
        if got is None:
            return None
        return "yes" if got["class_count"] == got["serial_classes_covered"] else "no"
    if min(values) >= 2:
        got = choice_points(_family(text, sum(caps[r] for r in used) + 1, caps))
        if got is None:
            return None
        return "inconclusive" if got else "yes"
    return "inconclusive"


def _states(items) -> list[tuple]:
    return [tuple(e["position"] for e in item) for item in items]


def check_cli(source: str, command: tuple, stdout: str) -> Optional[bool]:
    """True or False when an oracle decides the command's --json output;
    None when the instance is too large for it."""
    caps, threads, program = parse_source(source)
    result = json.loads(stdout)["result"]
    m = Model(program, caps)
    name = command[0]
    if name == "check":
        return result["valid"] and [t["actions"] for t in result["threads"]] == [
            t.split() for t in threads.values()
        ]
    if command == ("deadlocks",):
        want = deadlocks(m)
        return None if want is None else _states(
            d["state"] for d in result["deadlocks"]) == want
    if command == ("deadlocks", "--potential"):
        want = potential_deadlocks(m)
        return None if want is None else _states(result["potential_deadlocks"]) == want
    if name == "lcp":
        want = choice_points(m)
        if want is None:
            return None
        got = [(tuple(e["position"] for e in cp["state"]), cp["reachable"])
               for cp in result["choice_points"]]
        return got == want
    if name == "classes":
        want = classes(m)
        if want is None:
            return None
        reps = [tuple(c - 1 for c in r) for r in result["representatives"]]
        return (
            result["class_count"] == want["class_count"]
            and result["serial_classes_covered"] == want["serial_classes_covered"]
            and reps == want["representatives"]
        )
    thread = threads[command[command.index("--thread") + 1]]
    if command[1] == "deadlock":
        want = family_deadlock(thread, caps)
        if want is None:
            return None
        return result["verdict"] == want[0] and _states(result["witnesses"]) == want[1]
    want = family_serializability(thread, caps)
    return None if want is None else result["verdict"] == want


def _padded(plan) -> tuple:
    """The plan's expected state, with the copies the cut-off instance adds
    parked at their end."""
    top = plan.thread.length + 1
    return tuple(plan.expected_state) + (top,) * (plan.cutoff - plan.instance_n)


def check_call(call, output) -> Optional[bool]:
    """Construction answers and oracles for one call's output; None when
    neither applies to the instance."""
    info = call.check or {}
    kind = info.get("kind")
    if kind == "cli":
        return check_cli(info["source"], info["command"], output)
    if kind == "deadsharp":
        plan = info["plan"]
        if type(output).__name__ == "FamilyVerdict":
            ok = output.verdict == "no" and plan.expected_state in output.witnesses
            found = list(output.witnesses)
        else:
            found = [d.state for d in output.deadlocks]
            ok = plan.expected_state in found
        thread = str(plan.thread)
        caps = {r: plan.caps[r] for r in plan.caps.names}
        want = deadlocks(Model([thread] * plan.instance_n, caps))
        return ok and (want is None or sorted(found) == want)
    if kind == "sharpserializable":
        reachable_states = {cp.state for cp in output.choice_points if cp.reachable}
        return output.verdict == "inconclusive" and _padded(info["plan"]) in reachable_states
    if kind == "pair":
        return output.verdict == "yes" and output.rule == "pairwise-serializability"
    if kind in ("factorial", "classes"):
        program = info["program"]
        ok = True
        if kind == "factorial":
            count = math.factorial(info["n"])
            ok = (output.class_count == count == output.serial_classes_covered
                  and output.serializable)
        caps = {r: program.caps[r] for r in program.caps.names}
        want = classes(Model([str(t) for t in program.threads], caps))
        if want is None:
            return ok if kind == "factorial" else None
        reps = [tuple(r.steps()) for r in output.representatives]
        return ok and (
            output.class_count == want["class_count"]
            and output.serial_classes_covered == want["serial_classes_covered"]
            and reps == want["representatives"]
        )
    return None
