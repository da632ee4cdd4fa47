"""Shared helpers: seeded generators and independent brute-force oracles.

The oracles here deliberately avoid the library's optimized search paths
(candidate sieves, symmetry quotients, level dynamic programming) so that
agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import collections
import dataclasses
import faulthandler
import functools
import itertools
import operator
import os
import random
import re
import sys
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st

from pvguard import (
    CapacityMap,
    ChoicePoint,
    ClassReport,
    FamilyVerdict,
    ForbiddenRectangle,
    LatticePath,
    Program,
    PvError,
    ReachabilityIndex,
    SearchLimitExceeded,
    State,
    Thread,
    deadlock_cutoff,
    family_deadlock_verdict,
    enumerate_dipaths,
    find_deadlocks,
    forbidden_rectangles,
    local_choice_points,
    path_from_steps,
    program_deadlock_verdict,
    single_access,
    state_admissible,
    successors,
)
from pvguard import deadsharp_witness, report
from pvguard.core import (
    ACQUIRE,
    RELEASE,
    Action,
    ActionSyntaxError,
    InvalidThreadError,
    ParseError,
    _MAX_THREADS,
    _NAME_RE,
)
from pvguard.deadlock import (
    _deadlock_orbits,
    _deadlock_states,
    _scatter_state,
)
from pvguard.geometry import DEFAULT_MAX_STATES, guard_grid
from pvguard.parser import (
    _DECLARATION_RE,
    _RESOURCE_RE,
    SourceModel,
    _number,
    _parse_resource_line,
)
from pvguard.serializability import _classes


# Generation and shrinking, without the explain phase: on a failing
# property it may replay the failure for longer than the per-test timeout
# below, which then ends the run before pytest lists the failures.
settings.register_profile("pvguard", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("pvguard")

_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    """Keep a copy of the terminal's stderr, taken while no test captures
    output: the timeout's traceback goes there, because output captured
    from a test is lost when the timeout exits the process."""
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def _per_test_timeout(request):
    """End the run with exit status 1 and every thread's traceback once a
    test has run for 300 s (the slowest takes about 11 s on a 2-core
    machine), so a defect that loops forever fails the suite instead of
    hanging it."""
    faulthandler.dump_traceback_later(300, exit=True, file=request.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()


def make_caps(**caps: int) -> CapacityMap:
    return CapacityMap(tuple(sorted(caps.items())))


def thread(text: str) -> Thread:
    return Thread.from_text(text)


def random_valid_actions(rng: random.Random, resources: list[str], length: int) -> list[str]:
    """A uniform-ish valid action sequence: holds stay in {0,1}, all released."""
    if length % 2:
        length += 1
    out: list[str] = []
    held: list[str] = []
    remaining = length
    while remaining:
        free = [r for r in resources if r not in held]
        must_close = len(held) >= remaining
        if held and (must_close or not free or rng.random() < 0.5):
            r = held.pop(rng.randrange(len(held)))
            out.append(f"V{r}")
        else:
            r = rng.choice(free)
            held.append(r)
            out.append(f"P{r}")
        remaining -= 1
    return out


def random_thread(rng: random.Random, resources: list[str], max_pairs: int) -> Thread:
    length = 2 * rng.randint(1, max_pairs)
    return Thread.from_text(" ".join(random_valid_actions(rng, resources, length)))


def random_program(
    rng: random.Random,
    resources: list[str],
    caps: CapacityMap,
    n_threads: int,
    max_pairs: int,
    identical: bool = False,
) -> Program:
    if identical:
        t = random_thread(rng, resources, max_pairs)
        return Program.power(t, n_threads, caps)
    threads = tuple(random_thread(rng, resources, max_pairs) for _ in range(n_threads))
    return Program(threads, caps)


def two_group_program(
    rng: random.Random,
    resources: list[str],
    caps: CapacityMap,
    copies: tuple[int, int],
    max_pairs: int,
) -> Program:
    """``T ^ a | U ^ b`` for two distinct random threads, with the copies
    shuffled into a random thread order, so both identity groups are
    non-trivial and interleaved."""
    t = random_thread(rng, resources, max_pairs)
    u = random_thread(rng, resources, max_pairs)
    while u == t:
        u = random_thread(rng, resources, max_pairs)
    threads = [t] * copies[0] + [u] * copies[1]
    rng.shuffle(threads)
    return Program(tuple(threads), caps)



# ---------------------------------------------------------------------------
# sources: fuzzed source text, and the parser as a token walker (the
# parser's earlier form: per-token offsets, each action checked against the
# declared resources, and look-ahead matches for ``^``)

FUZZ_CHARS = "0123456789\u00b2^|#= \x0b\nPVabT\u00e9\u00df\u03bb\u0416"


def program_source(program: Program) -> str:
    """A source declaring ``program`` as ``main``, one term per distinct
    thread."""
    names: dict = {}
    for t in program.threads:
        names.setdefault(t, f"T{len(names)}")
    counts = collections.Counter(program.threads)
    return "\n".join(
        [f"resource {r} cap {program.caps[r]}" for r in program.caps.names]
        + [f"thread {nm} = {t}" for t, nm in names.items()]
        + ["program main = " + " | ".join(f"{names[t]} ^ {k}" for t, k in counts.items())]
    ) + "\n"


@st.composite
def mutated_sources(draw) -> str:
    """A witness source or a random program's source with a few characters
    inserted, replaced or deleted; copy counts stay at a few digits."""
    kappa = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    caps = make_caps(**dict(zip("abc", kappa)))
    if draw(st.booleans()):
        text = report.witness_source(deadsharp_witness(caps))
    else:
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        n = rng.randint(1, 4)
        text = program_source(random_program(rng, list(caps.names), caps, n, 3, rng.random() < 0.5))
    chars = list(text)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(chars)))
        edit = draw(st.sampled_from(("insert", "replace", "delete")))
        if edit == "insert":
            chars.insert(at, draw(st.sampled_from(FUZZ_CHARS)))
        elif at < len(chars):
            chars[at : at + 1] = [draw(st.sampled_from(FUZZ_CHARS))] if edit == "replace" else []
    return "".join(chars)


_TOKEN_RE = re.compile(r"\S+")
_PROGRAM_TOKEN_RE = re.compile(rf"\s*({_NAME_RE.pattern}|\^|\||\d+)")


def _walk_actions(text: str, built: dict[str, Action]) -> Iterator[tuple[Action, int]]:
    """Each action of an action string with the offset of its first token."""
    tokens = _TOKEN_RE.finditer(text)
    for m in tokens:
        tok, at = m.group(), m.start()
        if tok[0] not in (ACQUIRE, RELEASE):
            raise ActionSyntaxError(f"action token must start with P or V: {tok!r}", at)
        if len(tok) == 1:
            res = next(tokens, None)
            if res is None:
                raise ActionSyntaxError(f"dangling {tok!r} without a resource name", at)
            tok += res.group()
        action = built.get(tok)
        if action is None:
            action = built[tok] = Action(tok[0], tok[1:])
        yield action, at


def _walk_thread_actions(
    body: str, caps: CapacityMap, lineno: int, offset: int, built: dict[str, Action]
) -> tuple[list[Action], list[int]]:
    actions: list[Action] = []
    columns: list[int] = []
    try:
        for action, at in _walk_actions(body, built):
            col = offset + at + 1
            if action.resource not in caps:
                raise ParseError(f"unknown resource {action.resource!r}", lineno, col)
            actions.append(action)
            columns.append(col)
    except ActionSyntaxError as exc:
        raise ParseError(str(exc), lineno, offset + exc.offset + 1) from None
    if not actions:
        raise ParseError("thread needs at least one action after '='", lineno, offset + 1)
    return actions, columns


def _walk_program_expr(
    body: str, threads_by_name: dict[str, Thread], lineno: int, offset: int
) -> tuple[Thread, ...]:
    pos = 0
    threads: list[Thread] = []
    expect_name = True
    while True:
        m = _PROGRAM_TOKEN_RE.match(body, pos)
        if not m:
            if body[pos:].strip():
                raise ParseError(
                    f"unexpected text {body[pos:].strip()!r} in program expression",
                    lineno,
                    offset + pos + 1,
                )
            break
        tok = m.group(1)
        col = offset + m.start(1) + 1
        pos = m.end()
        if expect_name:
            if not _NAME_RE.fullmatch(tok):
                raise ParseError(f"expected a thread name, got {tok!r}", lineno, col)
            if tok not in threads_by_name:
                raise ParseError(f"unknown thread name {tok!r}", lineno, col)
            current = threads_by_name[tok]
            m2 = _PROGRAM_TOKEN_RE.match(body, pos)
            count = 1
            if m2 and m2.group(1) == "^":
                pos = m2.end()
                m3 = _PROGRAM_TOKEN_RE.match(body, pos)
                if not m3 or not m3.group(1).isdecimal():
                    raise ParseError("expected an integer after '^'", lineno, offset + pos + 1)
                col = offset + m3.start(1) + 1
                count = _number(m3.group(1), lineno, col)
                if count < 1:
                    raise ParseError("copy count must be >= 1", lineno, col)
                pos = m3.end()
            if len(threads) + count > _MAX_THREADS:
                raise ParseError(f"a program has at most {_MAX_THREADS} threads", lineno, col)
            threads.extend([current] * count)
            expect_name = False
        else:
            if tok != "|":
                raise ParseError(f"expected '|' between threads, got {tok!r}", lineno, col)
            expect_name = True
    if expect_name or not threads:
        raise ParseError("program expression ended early", lineno, offset + pos + 1)
    return tuple(threads)


def token_walk_parse_source(text: str) -> SourceModel:
    """``parse_source`` as a token walker; resource lines are read by the
    parser's ``_parse_resource_line``."""
    entries: list[tuple[str, int]] = []
    declared: set[str] = set()
    declarations: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0]
        if not line or line.isspace():
            continue
        m = _RESOURCE_RE.match(line)
        if not m:
            declarations.append((lineno, line))
            continue
        name, cap = _parse_resource_line(line[m.end() :], lineno, m.end())
        if name in declared:
            raise ParseError(f"duplicate resource declaration {name!r}", lineno, 1)
        declared.add(name)
        entries.append((name, cap))
    model = SourceModel(caps=CapacityMap(tuple(entries)))
    built: dict[str, Action] = {}
    for lineno, line in declarations:
        m = _DECLARATION_RE.match(line)
        if not m:
            word = line.split()[0]
            raise ParseError(f"unknown declaration {word!r}", lineno, line.index(word) + 1)
        keyword, name = m.group(1), m.group(2)
        body, offset = line[m.end() :], m.end()
        if keyword == "thread":
            if name in model.threads:
                raise ParseError(f"duplicate thread name {name!r}", lineno, 1)
            actions, columns = _walk_thread_actions(body, model.caps, lineno, offset, built)
            try:
                model.threads[name] = Thread(tuple(actions))
            except InvalidThreadError as exc:
                first = exc.violations[0]
                col = columns[first.position - 1] if first.position <= len(actions) else offset + 1
                raise ParseError(f"invalid thread {name!r}: {first}", lineno, col) from None
        else:
            if name in model.programs:
                raise ParseError(f"duplicate program name {name!r}", lineno, 1)
            threads = _walk_program_expr(body, model.threads, lineno, offset)
            model.programs[name] = Program(threads, model.caps)
    return model

# ---------------------------------------------------------------------------
# definitions from the hold intervals: point use, segment use and rectangle
# membership


def point_use(thread: Thread, position: int) -> frozenset[str]:
    """Resources held while standing at an integer position: p holds r iff
    i < p < j for a hold interval (i, j) of r.  The count is 0 at both
    endpoints of a hold interval: a resource is requested but not yet held
    at its P action, and released at its V."""
    if not 0 <= position <= thread.top:
        raise ValueError(f"position {position} out of range 0..{thread.top}")
    return frozenset(
        res
        for res, spans in thread.hold_intervals.items()
        if any(i < position < j for i, j in spans)
    )


def silent_steps(program: Program) -> list[list[bool]]:
    """Per thread and position, whether the step out of it is silent: it
    requests nothing (it leaves ⊥ or a release) and keeps the point use, by
    :func:`point_use`.  ⊤ has no step."""
    return [
        [
            (x == 0 or t.action_at(x).kind == RELEASE) and point_use(t, x) == point_use(t, x + 1)
            for x in range(t.top)
        ] + [False]
        for t in program.threads
    ]


def segment_use(thread: Thread, position: int) -> frozenset[str]:
    """Resources held while traversing the edge position -> position+1: the
    edge p -> p+1 holds r iff i <= p < j for a hold interval (i, j) of r, so
    the edge out of a P action holds its resource and the edge out of the
    matching V does not."""
    if not 0 <= position <= thread.length:
        raise ValueError(f"segment start {position} out of range 0..{thread.length}")
    return frozenset(
        res
        for res, spans in thread.hold_intervals.items()
        if any(i <= position < j for i, j in spans)
    )


def rectangle_contains(rect: ForbiddenRectangle, state: State) -> bool:
    """The box is open: each leg coordinate lies strictly inside its interval."""
    return all(a < state[c] < b for c, (a, b) in rect.legs)


def leg_coords(rect: ForbiddenRectangle) -> tuple[int, ...]:
    return tuple(c for c, _ in rect.legs)


# ---------------------------------------------------------------------------
# per-state tests: the one-state forms of the library's sweeps and tables


def edge_admissible(program: Program, state: State, coord: int) -> bool:
    """May coordinate ``coord`` advance one step from ``state``?"""
    return any(c == coord for c, _ in successors(program, state))


def square_admissible(program: Program, state: State, i: int, j: int) -> bool:
    """May coordinates ``i`` and ``j`` advance together across the unit square
    based at ``state``?  The state must be admissible and both must step, and
    the square is blocked iff both acquire one resource with fewer than two
    free slots: the square rule of ``Program._steps``, read for one pair."""
    totals, steps, _ = program._steps(state)
    if i not in steps or j not in steps or any(t > k for t, k in zip(totals, program.kappa)):
        return False
    r = program._request_idx[i][state[i]]
    return r is None or r != program._request_idx[j][state[j]] or totals[r] + 2 <= program.kappa[r]


def _requests(program: Program, state: State) -> Optional[list[Optional[int]]]:
    """Requested resource index per coordinate (None at ⊤), or None if some
    unfinished thread is not at an acquire."""
    program.check_state(state)
    requests = [program._request_idx[i][x] for i, x in enumerate(state)]
    if any(r is None and x != top for r, x, top in zip(requests, state, program.tops)):
        return None
    return requests


def is_potential_deadlock(program: Program, state: State) -> bool:
    """Check the potential-deadlock conditions at one state: it is not ⊤,
    every unfinished thread stands at an acquire, and every requested
    resource is at full point-use capacity."""
    requests = _requests(program, state)
    if requests is None or state == program.top:
        return False
    totals = program.use_totals(state)
    return all(totals[r] == program.kappa[r] for r in requests if r is not None)


def is_local_choice_point(
    program: Program, state: State
) -> Optional[tuple[str, tuple[int, ...]]]:
    """Combinatorial test: returns (contended resource, contender
    coordinates) or None.

    Conditions: the state is admissible; every unfinished thread stands at
    an acquire; exactly one requested resource sits one below capacity with
    at least two requesters; every other requested resource is full.
    """
    requests = _requests(program, state)
    if requests is None:
        return None
    kappa = program.kappa
    totals = program.use_totals(state)
    if any(t > k for t, k in zip(totals, kappa)):
        return None
    short = {r for r in requests if r is not None and totals[r] != kappa[r]}
    if len(short) != 1:
        return None
    (r,) = short
    contenders = tuple(i for i, q in enumerate(requests) if q == r)
    if totals[r] != kappa[r] - 1 or len(contenders) < 2:
        return None
    return program.resource_names[r], contenders


def lcp_to_potential_deadlock(program: Program, cp: ChoicePoint) -> State:
    """Prepend a coordinate of a thread holding the contended resource;
    the result is a potential deadlock of the program extended by a copy of
    that thread in front: the paper's remark that the obstructions may be
    found by a deadlock algorithm one copy up.

    Requires every used capacity >= 2 (with capacity 1 nobody holds the
    contended resource at a choice point).  The smallest holder index is
    tried first; the result is checked before returning.
    """
    if any(program.caps[r] < 2 for t in program.threads for r in t.resources_used):
        raise ValueError("construction needs every used κ >= 2")
    for k, pos in enumerate(cp.state):
        if cp.resource in point_use(program.threads[k], pos):
            if is_potential_deadlock(_copy_in_front(program, k), (pos,) + cp.state):
                return (pos,) + cp.state
    raise PvError(f"no holder of {cp.resource} at {cp.state} yields a potential deadlock")


@functools.lru_cache(maxsize=64)
def _copy_in_front(program: Program, k: int) -> Program:
    """``program`` with a copy of thread ``k`` prepended; cached, as a new
    program derives its per-thread tables again."""
    return Program((program.threads[k],) + program.threads, program.caps)


def serial_path(program: Program, order: tuple[int, ...]) -> LatticePath:
    """The serial execution running the threads in the given order.

    Serial executions are always admissible: only one thread is ever
    between its start and end, and alone it never exceeds any capacity.
    """
    if sorted(order) != list(range(program.n)):
        raise ValueError(f"order {order} is not a permutation of the threads")
    steps: list[int] = []
    for c in order:
        steps += [c] * program.tops[c]
    return path_from_steps(program.bottom, steps)


def connectivity_serializable(
    program: Program, limit: int = DEFAULT_MAX_STATES
) -> bool:
    """For programs with every used capacity >= 2, serializability is
    equivalent to all executions forming a single class: all serial
    executions are already equivalent to each other in that regime."""
    for t in program.threads:
        for r in t.resources_used:
            if program.caps[r] < 2:
                raise ValueError(
                    f"connectivity criterion needs κ >= 2, got κ({r})=1"
                )
    return _classes(program, limit)[0] == 1


def naive_deadlock_states(program: Program, max_states: int = 10**7) -> set[State]:
    """Reachable admissible states with no admissible outgoing edge, except top."""
    out = set()
    for state in reachable_states(program, max_states):
        if state == program.top:
            continue
        if not successors(program, state):
            out.add(state)
    return out


def quotient_deadlock_empty(program: Program, max_states: int = 10**7) -> bool:
    """Exhaustive stuck-state search over the thread-symmetry quotient.

    Visits every reachable state up to permutation of identical threads and
    checks for a non-top state without admissible steps. Being stuck is
    permutation invariant, so this is equivalent to the plain full search.
    """
    top = program.top
    return not any(
        s != top and not successors(program, s)
        for s in index_parents(ReachabilityIndex(program, max_states))
    )


def naive_potential_deadlocks(program: Program) -> set[State]:
    """Direct sweep of the full grid against the blocked-everywhere condition.

    A state qualifies when every coordinate is either finished or sits at an
    acquire whose resource is held by exactly its capacity, and at least one
    coordinate is unfinished. Admissibility and reachability are NOT
    required; unrequested resources may even be over capacity.
    """
    out = set()
    for state in itertools.product(*(range(t + 1) for t in program.tops)):
        if state == program.top:
            continue
        requested: dict[str, int] = {}
        ok = True
        for c, p in enumerate(state):
            if p == program.tops[c]:
                continue
            act = program.threads[c].action_at(p)
            if act is None or act.kind != "P":
                ok = False
                break
            requested[act.resource] = 0
        if not ok or not requested:
            continue
        for r in requested:
            requested[r] = sum(
                r in point_use(t, state[c]) for c, t in enumerate(program.threads)
            )
        if all(requested[r] == program.caps[r] for r in requested):
            out.add(state)
    return out


def naive_count_dipaths(program: Program) -> int:
    """Recursive count of admissible monotone lattice paths bottom to top."""
    tops = program.tops

    @functools.lru_cache(maxsize=None)
    def count(state: State) -> int:
        if state == tops:
            return 1
        total = 0
        for c in range(program.n):
            if state[c] < tops[c] and edge_admissible(program, state, c):
                nxt = state[:c] + (state[c] + 1,) + state[c + 1 :]
                if state_admissible(program, nxt):
                    total += count(nxt)
        return total

    if not state_admissible(program, program.bottom):
        return 0
    return count(program.bottom)


# ---------------------------------------------------------------------------
# plain searches


def reachable(
    program: Program, target: State, max_states: int = 10**7
) -> Optional[LatticePath]:
    """Breadth-first search from bottom; a witness path to ``target`` or None.

    Successors are expanded in ascending coordinate order from a FIFO queue,
    so ties resolve toward low coordinates.
    """
    program.check_state(target)
    guard_grid(program, max_states)
    start = program.bottom
    parents: dict[State, Optional[State]] = {start: None}
    queue: deque[State] = deque((start,))
    while queue:
        state = queue.popleft()
        if state == target:
            chain = [state]
            while parents[chain[-1]] is not None:
                chain.append(parents[chain[-1]])
            return LatticePath(tuple(reversed(chain)))
        for _, nxt in successors(program, state):
            if nxt not in parents:
                parents[nxt] = state
                queue.append(nxt)
    return None


def reachable_states(program: Program, max_states: int = 10**7) -> set[State]:
    """The full forward closure of bottom, with no symmetry folding."""
    guard_grid(program, max_states)
    seen = {program.bottom}
    queue: deque[State] = deque((program.bottom,))
    while queue:
        for _, nxt in successors(program, queue.popleft()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def identity_groups(program: Program) -> list[list[int]]:
    """The coordinates of each group of identical threads, ascending."""
    groups: dict[Thread, list[int]] = {}
    for i, t in enumerate(program.threads):
        groups.setdefault(t, []).append(i)
    return list(groups.values())


def sort_groups(program: Program, state: State) -> State:
    """The orbit representative of a state: the coordinates of each group of
    identical threads sorted ascending."""
    out = list(state)
    for g in identity_groups(program):
        for i, v in zip(g, sorted(out[i] for i in g)):
            out[i] = v
    return tuple(out)


def orbit_members(program: Program, orbits) -> list[State]:
    """The concrete states of ``orbits`` by brute force: every permutation
    of each identity group's values (``itertools.permutations``), across
    groups, deduplicated and sorted."""
    groups = identity_groups(program)
    states = set()
    for orbit in orbits:
        per_group = [itertools.permutations([orbit[i] for i in g]) for g in groups]
        for combo in itertools.product(*per_group):
            out = list(orbit)
            for g, values in zip(groups, combo):
                for i, v in zip(g, values):
                    out[i] = v
            states.add(tuple(out))
    return sorted(states)


def index_parents(index: ReachabilityIndex) -> dict[State, tuple[State, int]]:
    """The orbits ``index`` stored, in discovery order, each mapped to its
    parent and the coordinate its step is taken by (⊥ maps to (⊥, -1)),
    read off ``index._links`` once the search has finished (reading
    ``visited`` finishes it, since it runs on demand): each code names its
    parent's code and a step entry (group, x, y), whose step is taken by the
    parent's first copy of the group at x.  Each orbit is its parent with
    that step applied, group sorted, and the code it is stored under must be
    the sum of its coordinates' group rows (``index._rows``) at their
    positions, so each stored code is checked against the rows rather than
    decoded."""
    index.visited
    program = index.program
    entries = index._entries
    orbits = {}
    parents = {}
    for code, link in index._links.items():
        if link < 0:
            orbits[code] = program.bottom
            parents[program.bottom] = (program.bottom, -1)
            continue
        prev, i = divmod(link, len(entries))
        parent = orbits[prev]
        g, x, y = entries[i]
        coord = next(c for c in g if parent[c] == x)
        orbit = sort_groups(program, parent[:coord] + (y,) + parent[coord + 1 :])
        assert sum(index._rows[c][x] for c, x in enumerate(orbit)) == code, (orbit, code)
        orbits[code] = orbit
        parents[orbit] = (parent, coord)
    return parents


def sorted_orbit_parents(program: Program) -> dict[State, tuple[State, int]]:
    """The symmetry-folded search by sorting every successor: breadth-first
    from bottom, successors in ascending coordinate order, each mapped to its
    orbit representative.  Maps every reached representative, in discovery
    order, to (representative it was first reached from, coordinate moved)."""
    start = program.bottom
    parents: dict[State, tuple[State, int]] = {start: (start, -1)}
    queue: deque[State] = deque((start,))
    while queue:
        state = queue.popleft()
        for coord, nxt in successors(program, state):
            key = sort_groups(program, nxt)
            if key not in parents:
                parents[key] = (state, coord)
                queue.append(key)
    return parents


def release_first_parents(program: Program, ceiling: State) -> dict[State, tuple[State, int]]:
    """``sorted_orbit_parents`` kept at or below ``ceiling`` and reduced: a
    coordinate that steps keeps stepping through the releases after it, to
    the next acquire or ⊤, and while some group has a coordinate at ⊥ whose
    step stays at or below the ceiling, only the first such group's ⊥ steps
    are taken."""
    start = program.bottom
    threads = program.threads
    groups = identity_groups(program)
    parents: dict[State, tuple[State, int]] = {start: (start, -1)}
    queue: deque[State] = deque((start,))
    while queue:
        state = queue.popleft()
        moves = []
        for coord, nxt in successors(program, state):
            t = threads[coord]
            while nxt[coord] < t.top and t.action_at(nxt[coord]).kind == RELEASE:
                nxt = dict(successors(program, nxt))[coord]
            key = sort_groups(program, nxt)
            if all(map(operator.le, key, ceiling)):
                moves.append((coord, key))
        at_bottom = [[c for c, _ in moves if c in g and state[c] == 0] for g in groups]
        first = next((cs for cs in at_bottom if cs), None)
        for coord, key in moves:
            if first and coord not in first:
                continue
            if key not in parents:
                parents[key] = (state, coord)
                queue.append(key)
    return parents


def full_search_choice_points(program: Program) -> list[ChoicePoint]:
    """``local_choice_points`` with every reachable flag read from a search
    of the whole folded space."""
    index = ReachabilityIndex(program)
    return [
        dataclasses.replace(cp, reachable=index.is_reachable(cp.state))
        for cp in local_choice_points(program)
    ]


def full_search_deadlock_witnesses(
    thread: Thread, caps: CapacityMap
) -> tuple[State, ...]:
    """The deadlocks of a family's cut-off instance (the capacity sum of the
    used resources), found by ``find_deadlocks``, which searches the whole
    folded space."""
    cutoff = caps.restrict(thread.resources_used).total()
    report = find_deadlocks(Program.power(thread, cutoff, caps))
    return tuple(d.state for d in report.deadlocks)


def concrete_family_deadlock_verdict(
    thread: Thread, caps: CapacityMap, max_states: int = DEFAULT_MAX_STATES
) -> FamilyVerdict:
    """``family_deadlock_verdict`` by its earlier concrete route: the deadlock
    orbits expanded into the sorted tuple of their states, by brute force
    (``orbit_members``).  The witness-path cap that route also had is left
    out."""
    cutoff = deadlock_cutoff(caps.restrict(thread.resources_used))
    if single_access(thread):
        return family_deadlock_verdict(thread, caps, max_states)  # searches nothing
    program = Program.power(thread, cutoff, caps)
    try:
        _, orbits, _ = _deadlock_orbits(program, max_states, bounded=True)
    except SearchLimitExceeded as exc:
        return FamilyVerdict(
            "deadlock-freedom", "inconclusive", cutoff, "search-limit",
            f"cut-off instance too large: {exc}", program=program,
        )
    witnesses = tuple(orbit_members(program, orbits))
    if witnesses:
        return FamilyVerdict(
            "deadlock-freedom", "no", cutoff, "deadlock-cutoff",
            f"{len(witnesses)} deadlock(s) in the {cutoff}-copy instance",
            witnesses=witnesses, manifests_at_n=cutoff, program=program,
        )
    return FamilyVerdict(
        "deadlock-freedom", "yes", cutoff, "deadlock-cutoff",
        f"the {cutoff}-copy instance is deadlock-free, which settles every copy count",
        program=program,
    )


# ---------------------------------------------------------------------------
# path validation in three passes


def validate_three_pass(path: LatticePath, program: Program) -> None:
    """``LatticePath.validate`` by three passes over the path: every state
    (range, then admissibility), then every step, then every edge."""
    for state in path.states:
        program.check_state(state)
        totals = program.use_totals(state)
        if any(t > cap for t, cap in zip(totals, program.kappa)):
            raise PvError(f"path visits inadmissible state {state}")
    for state, coord in zip(path.states, path.steps()):
        if not edge_admissible(program, state, coord):
            raise PvError(f"path takes inadmissible edge {state} along {coord + 1}")


# ---------------------------------------------------------------------------
# schedules: the capacity-1 pair test by enumeration


@dataclass(frozen=True)
class ExtendedRectangle:
    """A forbidden rectangle widened for scheduling: the kept leg stays an
    open interval while every other leg is extended down to position 0."""

    resource: str
    kept: tuple[int, tuple[int, int]]
    lowered: tuple[tuple[int, int], ...]  # (coord, upper bound b), interval [0, b)

    def contains_state(self, state: State) -> bool:
        c, (a, b) = self.kept
        return a < state[c] < b and all(state[k] < b2 for k, b2 in self.lowered)

    def meets_edge(self, state: State, coord: int) -> bool:
        c, (a, b) = self.kept
        kept_ok = a <= state[c] < b if c == coord else a < state[c] < b
        # [0, b2) meets the closed unit segment iff its start is below b2
        return kept_ok and all(state[k] < b2 for k, b2 in self.lowered)


def extended_rectangle(rect: ForbiddenRectangle, s: int) -> ExtendedRectangle:
    """Extend every leg of the rectangle down to 0 except the chosen one."""
    if s not in leg_coords(rect):
        raise ValueError(f"coordinate {s} is not a leg of {rect}")
    kept = next(leg for leg in rect.legs if leg[0] == s)
    lowered = tuple((c, b) for c, (_, b) in rect.legs if c != s)
    return ExtendedRectangle(rect.resource, kept, lowered)


@dataclass(frozen=True)
class Schedule:
    """One choice of passing order per forbidden rectangle.

    For each rectangle, the chosen leg is the coordinate meant to cross the
    contended span last; the other legs' spans are extended down to 0.  A
    path obeys the schedule when it avoids every extended rectangle.
    """

    choices: tuple[tuple[ForbiddenRectangle, int], ...]

    def extensions(self) -> tuple[ExtendedRectangle, ...]:
        return tuple(extended_rectangle(r, c) for r, c in self.choices)


def schedules(program: Program) -> list[Schedule]:
    """All schedules of the program, in deterministic order."""
    rects = forbidden_rectangles(program)
    return [
        Schedule(tuple(zip(rects, combo)))
        for combo in itertools.product(*[leg_coords(r) for r in rects])
    ]


def path_obeys(path: LatticePath, schedule: Schedule) -> bool:
    """True iff no state or traversed edge of the path meets an extended
    rectangle of the schedule."""
    for ext in schedule.extensions():
        if any(ext.contains_state(s) for s in path.states):
            return False
        if any(ext.meets_edge(s, c) for s, c in zip(path.states, path.steps())):
            return False
    return True


def path_schedule(program: Program, path: LatticePath) -> Optional[Schedule]:
    """The schedule a complete path induces: per rectangle, the leg whose
    contended span is crossed last.  None when the path does not obey the
    induced schedule (never for capacity-1 programs)."""
    choices = []
    for rect in forbidden_rectangles(program):
        legs = dict(rect.legs)
        last = None
        for state, coord in zip(path.states, path.steps()):
            if coord in legs and legs[coord][0] <= state[coord] < legs[coord][1]:
                last = coord
        if last is None:
            return None
        choices.append((rect, last))
    sch = Schedule(tuple(choices))
    return sch if path_obeys(path, sch) else None


def schedule_feasible(
    program: Program, schedule: Schedule, max_states: int = 10**7
) -> Optional[LatticePath]:
    """A complete execution obeying the schedule, or None: breadth-first
    search over admissible states and edges that avoid every extended
    rectangle."""
    guard_grid(program, max_states)
    exts = schedule.extensions()
    start = program.bottom
    if any(e.contains_state(start) for e in exts):
        return None
    parents: dict[State, Optional[State]] = {start: None}
    queue: deque[State] = deque((start,))
    while queue:
        state = queue.popleft()
        if state == program.top:
            chain = [state]
            while parents[chain[-1]] is not None:
                chain.append(parents[chain[-1]])
            return LatticePath(tuple(reversed(chain)))
        for coord, nxt in successors(program, state):
            if nxt in parents or any(
                e.meets_edge(state, coord) or e.contains_state(nxt) for e in exts
            ):
                continue
            parents[nxt] = state
            queue.append(nxt)
    return None


def schedule_pair_serializable(thread: Thread, caps: CapacityMap) -> bool:
    """The capacity-1 two-copy test by schedule enumeration: serializable iff
    no mixed schedule (two copies each passing some rectangle last) is
    feasible.  Exponential in the number of forbidden rectangles."""
    program = Program.power(thread, 2, caps)
    return not any(
        len({c for _, c in s.choices}) > 1 and schedule_feasible(program, s)
        for s in schedules(program)
    )


# ---------------------------------------------------------------------------
# execution classes and choice points by definition


def dihomotopy_classes_by_enumeration(
    program: Program, limit: int = 2 * 10**5
) -> ClassReport:
    """Enumerate every complete execution and union across single admissible
    square swaps.  Only for small instances."""
    seqs = [path.steps() for path in enumerate_dipaths(program, limit)]
    index = {seq: k for k, seq in enumerate(seqs)}
    parent = list(range(len(seqs)))

    def find(k: int) -> int:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for k, seq in enumerate(seqs):
        state = list(program.bottom)
        for t in range(len(seq) - 1):
            i, j = seq[t], seq[t + 1]
            if i != j and square_admissible(program, tuple(state), i, j):
                swapped = seq[:t] + (j, i) + seq[t + 2 :]
                parent[find(k)] = find(index[swapped])
            state[seq[t]] += 1
    # seqs are in lexicographic order, so a class's first member is its least
    least: dict[int, tuple[int, ...]] = {}
    for k, seq in enumerate(seqs):
        least.setdefault(find(k), seq)
    serial_roots = set()
    for k, seq in enumerate(seqs):
        runs = [(c, len(tuple(g))) for c, g in itertools.groupby(seq)]
        if len(runs) == program.n and all(ln == program.tops[c] for c, ln in runs):
            serial_roots.add(find(k))
    reps = sorted(least.values())
    return ClassReport(
        class_count=len(reps),
        representatives=tuple(path_from_steps(program.bottom, r) for r in reps),
        serial_classes_covered=len(serial_roots),
        serializable=len(reps) == len(serial_roots),
    )


# The class DP as it stood before per-state tables: a union-find over
# (class, coordinate) pairs carrying each set's least step tuple, a
# square_admissible test per pair of successors, and every level's transition
# table kept to trace the n! serial orders at the end.  The differential
# tests compare the package's dihomotopy_classes with it.


class _Unions:
    """Union-find keeping the lexicographically least payload per root."""

    def __init__(self):
        self.parent: dict[int, int] = {}
        self.least: dict[int, tuple] = {}

    def add(self, x: int, payload: tuple) -> None:
        if x in self.parent:
            if payload < self.least[self.find(x)]:
                self.least[self.find(x)] = payload
        else:
            self.parent[x] = x
            self.least[x] = payload

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.least[rb] < self.least[ra]:
            self.least[ra] = self.least[rb]


def level_dp_classes(
    program: Program, limit: int = DEFAULT_MAX_STATES
) -> ClassReport:
    """Equivalence classes of complete executions under square swaps.

    Classes are built level by level over the number of steps taken: a
    length-m prefix class is a pair (length-(m-1) class, next coordinate),
    and two pairs merge when they arise from one admissible square on top
    of a common shorter prefix.  Any single swap inside a path either lies
    within the shorter prefix (already merged) or is such a square, so the
    final classes are exactly the swap-equivalence classes, and the least
    representative of a class extends the least representative of one of
    its prefix classes.

    Raises the search limit signal when the number of (class, coordinate)
    pairs at some level exceeds ``limit``.
    """
    guard_grid(program, limit)
    n = program.n
    total_steps = sum(program.tops)

    # per level: ends[class_id] = end state, reps[class_id] = least steps,
    # trans[(class_id, coord)] = class id at the next level
    ends: list[State] = [program.bottom]
    reps: list[tuple[int, ...]] = [()]
    all_trans: list[dict[tuple[int, int], int]] = []
    prev_trans: dict[tuple[int, int], int] = {}
    prev_ends: list[State] = []

    for level in range(1, total_steps + 1):
        pairs: list[tuple[int, int]] = []
        pair_id: dict[tuple[int, int], int] = {}
        uf = _Unions()
        for cid, end in enumerate(ends):
            for coord, _ in successors(program, end):
                key = (cid, coord)
                pair_id[key] = len(pairs)
                pairs.append(key)
                uf.add(pair_id[key], reps[cid] + (coord,))
        if len(pairs) > limit:
            raise SearchLimitExceeded(limit, "execution class pairs")
        # merge across admissible squares rooted two levels down
        for did, dend in enumerate(prev_ends):
            outs = [c for c in range(n) if (did, c) in prev_trans]
            for i, j in itertools.combinations(outs, 2):
                if not square_admissible(program, dend, i, j):
                    continue
                ci = prev_trans[(did, i)]
                cj = prev_trans[(did, j)]
                uf.union(pair_id[(ci, j)], pair_id[(cj, i)])
        roots = sorted({uf.find(p) for p in range(len(pairs))}, key=lambda r: uf.least[r])
        root_to_cid = {r: k for k, r in enumerate(roots)}
        new_ends: list[State] = []
        new_reps: list[tuple[int, ...]] = []
        for r in roots:
            cid, coord = pairs[r]
            state = list(ends[cid])
            state[coord] += 1
            new_ends.append(tuple(state))
            new_reps.append(uf.least[r])
        trans = {
            pairs[p]: root_to_cid[uf.find(p)] for p in range(len(pairs))
        }
        all_trans.append(trans)
        prev_ends, prev_trans = ends, trans
        ends, reps = new_ends, new_reps

    assert all(e == program.top for e in ends)
    class_count = len(ends)
    representatives = tuple(
        path_from_steps(program.bottom, steps) for steps in reps
    )

    serial_ids = set()
    for order in itertools.permutations(range(program.n)):
        cid = 0
        ok = True
        for level, c in enumerate(
            coord for c0 in order for coord in [c0] * program.tops[c0]
        ):
            nxt = all_trans[level].get((cid, c))
            if nxt is None:
                ok = False
                break
            cid = nxt
        if ok:
            serial_ids.add(cid)
    covered = len(serial_ids)
    return ClassReport(
        class_count=class_count,
        representatives=representatives,
        serial_classes_covered=covered,
        serializable=class_count == covered,
    )


def lcp_definition_check(program: Program, state: State) -> bool:
    """Direct branching test at one admissible state: at least two threads
    can step, and the graph on steppable threads with edges given by
    admissible squares is disconnected."""
    if not state_admissible(program, state):
        raise ValueError(f"state {state} is not admissible")
    steppable = [c for c, _ in successors(program, state)]
    if len(steppable) < 2:
        return False
    adj: dict[int, set[int]] = {c: set() for c in steppable}
    for i, j in itertools.combinations(steppable, 2):
        if square_admissible(program, state, i, j):
            adj[i].add(j)
            adj[j].add(i)
    seen = {steppable[0]}
    stack = [steppable[0]]
    while stack:
        for nb in adj[stack.pop()] - seen:
            seen.add(nb)
            stack.append(nb)
    return len(seen) != len(steppable)


def combination_deadlock_verdict(
    program: Program, max_states: int = DEFAULT_MAX_STATES
) -> FamilyVerdict:
    """``program_deadlock_verdict`` by its earlier sub-program loop: every
    cut-off-size index tuple in lexicographic order, skipping a tuple whose
    multiset of threads (by text) was already searched."""
    used: set[str] = set()
    for t in program.threads:
        used |= t.resources_used
    cutoff = deadlock_cutoff(program.caps.restrict(used))
    if program.n <= cutoff:
        return program_deadlock_verdict(program, max_states)
    seen: set[tuple] = set()
    for indices in itertools.combinations(range(program.n), cutoff):
        key = tuple(sorted(str(program.threads[i]) for i in indices))
        if key in seen:
            continue
        seen.add(key)
        sub = Program(tuple(program.threads[i] for i in indices), program.caps)
        found = _deadlock_states(sub, max_states)
        if found:
            return FamilyVerdict(
                "deadlock-freedom",
                "no",
                cutoff,
                "subprogram-cutoff",
                f"deadlock in the sub-program at threads "
                f"{tuple(i + 1 for i in indices)}, finished copies padded",
                witnesses=tuple(_scatter_state(s, indices, program) for s in found),
                manifests_at_n=program.n,
            )
    return FamilyVerdict(
        "deadlock-freedom",
        "yes",
        cutoff,
        "subprogram-cutoff",
        f"all distinct {cutoff}-thread sub-programs are deadlock-free",
    )
