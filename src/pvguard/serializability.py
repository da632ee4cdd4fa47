"""Execution classification and serializability verdicts.

Two complete executions are equivalent when one can be turned into the
other by repeatedly swapping two adjacent steps of different threads across
an admissible square.  A program is serializable when every execution is
equivalent to a serial one (threads run to completion one after another).

Two decision routes are implemented:
  - capacity-1 pairs: the class count of two copies;
  - all capacities >= 2: absence of local choice points at the cut-off size.
"""
from __future__ import annotations

import collections
import itertools
import operator
from array import array
from dataclasses import dataclass
from math import comb
from typing import Optional, Sequence

from .core import (
    CapacityMap,
    Program,
    SearchLimitExceeded,
    State,
    Thread,
    _bound,
    _check_declared,
)
from .deadlock import (
    FamilyVerdict,
    OrbitView,
    ReachabilityIndex,
    WitnessPlan,
    _admissible,
    _guard_members,
    _hit_orbits,
    deadsharp_witness,
)
from .geometry import (
    DEFAULT_MAX_STATES,
    LatticePath,
    guard_grid,
    path_from_steps,
)


# ---------------------------------------------------------------------------
# serial executions


def serial_order(path: LatticePath) -> Optional[tuple[int, ...]]:
    """The completion order of a serial path, or None.

    Serial means the path starts at ⊥ and its steps fall into n runs, one
    per thread, each running its thread from 0 to its end.  A thread's
    first run then ends at its end, so no thread can run twice.
    """
    if any(path.start):
        return None
    end = path.end
    runs = [(c, len(list(run))) for c, run in itertools.groupby(path.steps())]
    if len(runs) != len(end) or any(k != end[c] for c, k in runs):
        return None
    return tuple(c for c, _ in runs)


def is_serial(path: LatticePath) -> bool:
    """True iff the path runs the threads one after another to completion."""
    return serial_order(path) is not None


# ---------------------------------------------------------------------------
# dihomotopy classes


@dataclass(frozen=True)
class ClassReport:
    class_count: int
    representatives: tuple[LatticePath, ...]
    serial_classes_covered: int
    serializable: bool


def dihomotopy_classes(
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

    A silent step (⊥ to the first acquire, a release to an acquire, the last
    release to ⊤) requests nothing and keeps the point use, so it is never
    blocked and forms an admissible square with every step beside it: a
    path's class is fixed by the class of its other steps.  So the DP runs
    on run ends, where every thread has taken its pending silent steps, with
    one level per non-silent step.  A least representative is the least
    run-end one with the silent steps put back greedily: at each step the
    least thread whose next step is silent, or the run-end path's next
    thread once it stands at its run end.  That map keeps the path order.

    Each level numbers its classes in lexicographic order of their least
    representatives, and the pair (class k, coordinate c) has index
    ``k * n + c``, so a pair's index sorts like that representative followed
    by the coordinate: unions keeping the smaller root keep each set's least
    representative at its root, and a class needs only its root's index as
    its back pointer.  A level holds classes × threads slots, and one shared
    -1 marks the roots.  Each level keys its end states by mixed-radix codes.
    Steps and squares are tabled once per local configuration (per thread
    what its next action requests, or ⊤, and the point-use totals), not once
    per end state, and a new table starts from its parent's carried totals;
    serial executions advance as a frontier of (class, thread running its
    block) pairs.

    Raises the search limit signal when the (class, step) pairs of some
    level of the DP over all states exceed ``limit`` (a run-end level may
    hold classes of several such levels, so it may hold more pairs), and
    before the representatives are built when their states, the class count
    times the path length, exceed it.
    """
    count, covered, links = _classes(program, limit)
    n = program.n
    _bound(limit, count * (sum(program.tops) + 1), "representative path states")
    silent = program._silent_idx
    first = sum(1 << c for c in range(n) if silent[c][0])
    representatives = []
    for k in range(count):
        contracted = [n]  # n: no thread left to step, every silent step goes
        for link in reversed(links):
            k, c = divmod(link[k], n)
            contracted.append(c)
        # put the silent steps back: before the contracted path's next step
        # d, every pending silent step of a thread up to d, least first; a
        # silent step ends a run, so its thread is then at its run end
        pos, pending, steps = [0] * n, first, []
        for d in reversed(contracted):
            while low := pending & ((2 << d) - 1):
                c = (low & -low).bit_length() - 1
                pos[c] += 1
                pending ^= 1 << c
                steps.append(c)
            if d < n:
                pos[d] += 1
                pending |= silent[d][pos[d]] << d
                steps.append(d)
        representatives.append(path_from_steps(program.bottom, steps))
    return ClassReport(
        class_count=count,
        representatives=tuple(representatives),
        serial_classes_covered=covered,
        serializable=count == covered,
    )


def _full_pairs(full: list[int], tabs: list[tuple], silent: tuple[tuple[bool, ...], ...]) -> None:
    """Add to ``full[m]`` the (class, step) pairs of level m of the DP over
    all states that the classes ``tabs`` of one run-end level stand for.

    A class at run end r stands for one class at each state of the box of
    r's runs: each coordinate at its run end or, where a silent step leads
    there, one before it, from where it takes that step.  With k coordinates
    that can be set back, e of them and E in all stepping at r, setting back
    j of them gives C(k, j) states on level sum(r) - j with
    E C(k, j) + (k - e) C(k - 1, j - 1) steps in all."""
    many = collections.Counter(tab[1] for tab in tabs)
    for state, key, _, (_, steps, _) in {tab[1]: tab for tab in tabs}.values():
        lifts = [silent[c][x - 1] for c, x in enumerate(state)]  # x > 0: ⊥ is no run end
        k = sum(lifts)
        e = sum(lifts[c] for c in steps)
        m = sum(state)
        full[m] += many[key] * len(steps)
        for j in range(1, k + 1):
            full[m - j] += many[key] * (len(steps) * comb(k, j) + (k - e) * comb(k - 1, j - 1))


def _classes(program: Program, limit: int) -> tuple[int, int, list[array]]:
    """The class DP of :func:`dihomotopy_classes` over run ends: the class
    count, the serial classes, and per level (one per non-silent step) each
    class's back pointer, its root's pair index.

    A step moves thread c from run end x to the run end of x + 1, which has
    the point of x + 1; on a run-end state every step ``Program._steps``
    lists is non-silent.

    A step table depends only on the end state's local configuration: per
    coordinate, the resource its next action requests, or a release, or ⊤,
    plus the point-use totals.  The tables (totals, steps, squares) are kept
    by configuration for this call only, so ``Program._steps`` runs once per
    configuration reached.  A configuration's key is a mixed-radix integer,
    so a step moves it by a delta tabled per coordinate and position: the
    digit of coordinate c, of weight ``radix ** c``, is 0 at ⊥ or a release,
    1 at ⊤ and 2 + r at an acquire of resource r; above them one digit of
    radix n + 1 per resource holds its total (no thread holds a resource
    twice).

    A class stands for at most n steps at each of at most 2 ** n states, so
    while the classes so far times n times 2 ** n stay within ``limit`` no
    level of the DP over all states exceeds it; past that, every class is
    counted exactly by :func:`_full_pairs`."""
    guard_grid(program, limit)
    n = program.n
    tops = program.tops
    point = program._point_idx
    request = program._request_idx
    silent = program._silent_idx
    # end states as mixed-radix codes, the last coordinate least significant
    weight = tuple(
        itertools.accumulate((t + 1 for t in tops[:0:-1]), operator.mul, initial=1)
    )[::-1]
    # per coordinate and run end x below ⊤, a step's (code move, run end
    # reached, configuration key move)
    radix = len(program.resource_names) + 2
    held = [radix**n * (n + 1) ** r for r in range(radix - 2)]
    moves, start, at = [], [], 0
    for c, (points, requests, quiet) in enumerate(zip(point, request, silent)):
        digits = [0 if r is None else r + 2 for r in requests[:-1]] + [1]  # ⊤ apart
        keys = [d * radix**c + sum(held[r] for r in p) for d, p in zip(digits, points)]
        end = [x + q for x, q in enumerate(quiet)]  # a silent step ends a run
        moves.append(
            [(weight[c] * (y - x), y, keys[y] - keys[x]) for x, y in enumerate(end[1:])]
        )
        start.append(end[0])
        at += keys[end[0]]
    bottom = tuple(start)
    code = sum(map(operator.mul, bottom, weight))
    # per class: its end state's table (state, code, configuration key,
    # (totals, steps, squares)); reached states are admissible, as
    # Program._steps needs
    configs = {at: program._steps(bottom, True)}
    tabs = [(bottom, code, at, configs[at])]
    prev_tabs, cls = [], []  # two levels down: tables; one down: pair -> class * n
    links = []
    serial = {(0, -1)}  # (class * n, thread running its block)
    levels = sum(quiet.count(False) - 1 for quiet in silent)
    full = [0] * (sum(tops) + 1)  # the uncontracted DP's pairs per level
    most = 2**n  # states a run-end state stands for, at most
    total, unseen = 0, []  # the classes so far; levels not counted exactly
    for depth in range(levels + 1):
        total += len(tabs)
        unseen.append(tabs)
        if total * n > limit // most:  # the cheap bound may not hold: count
            for level in unseen:
                _full_pairs(full, level, silent)
            unseen.clear()
            if max(full) > limit:
                raise SearchLimitExceeded(limit, "execution class pairs")
        if depth == levels:
            break
        # merge across admissible squares rooted two levels down; -1 marks a
        # root, a find halves its path, a union keeps the smaller root
        parent = [-1] * (len(tabs) * n)
        for base, tab in zip(range(0, len(cls), n), prev_tabs):
            for i, j in tab[3][2]:
                x = cls[base + i] + j
                y = cls[base + j] + i
                while (p := parent[x]) >= 0 and (q := parent[p]) >= 0:
                    parent[x] = x = q
                x = p if p >= 0 else x
                while (p := parent[y]) >= 0 and (q := parent[p]) >= 0:
                    parent[y] = y = q
                y = p if p >= 0 else y
                if x < y:
                    parent[y] = x
                elif y < x:
                    parent[x] = y
        # number the roots in index order, writing class * n into each used
        # slot; parent[p] < p is numbered first
        level: dict[int, tuple] = {}  # the next level's tables by code
        new_tabs, link, k = [], array("q"), 0
        for base, (state, code, at, (totals, steps, _)) in zip(
            range(0, len(parent), n), tabs
        ):
            for c in steps:
                p = base + c
                if (q := parent[p]) >= 0:
                    parent[p] = parent[q]
                    continue
                parent[p] = k
                k += n
                x = state[c]
                move = moves[c][x]
                key = code + move[0]
                tab = level.get(key)
                if tab is None:
                    _, y, shift = move
                    nxt = state[:c] + (y,) + state[c + 1 :]
                    to = at + shift
                    table = configs.get(to)
                    if table is None:
                        moved = totals[:]  # the stepping thread's point use moves
                        for r in point[c][x]:
                            moved[r] -= 1
                        for r in point[c][y]:
                            moved[r] += 1
                        configs[to] = table = program._steps(nxt, True, moved)
                    level[key] = tab = (nxt, key, to, table)
                new_tabs.append(tab)
                link.append(p)
        # mid-block only t steps; between blocks the rest are at their first
        # run end or ⊤
        serial = {
            (parent[base + c], c)
            for base, t in serial
            for c in ((t,) if t >= 0 and tabs[base // n][0][t] < tops[t] else range(n))
            if parent[base + c] >= 0
        }
        prev_tabs, cls, tabs = tabs, parent, new_tabs
        links.append(link)

    assert all(tab[0] == program.top for tab in tabs)
    return len(tabs), len({k for k, _ in serial}), links


def kappa1_pair_serializable(
    thread: Thread, caps: CapacityMap, max_states: int = DEFAULT_MAX_STATES
) -> bool:
    """Two copies of a capacity-1 thread are serializable iff every execution
    class of the pair contains a serial execution.

    This is the paper's two-copy test.  At capacity 1 a schedule picks, for
    each forbidden rectangle, the copy that passes it last; every execution
    obeys exactly one schedule, and two executions are swap-equivalent iff
    they obey the same one, so classes map one-to-one to feasible schedules.
    The serial executions realise exactly the two uniform schedules (one copy
    last everywhere), so the pair is serializable iff no mixed schedule is
    feasible, which is what the class count decides.  ``max_states`` bounds
    the class DP's grid and the (class, step) pairs per level of the DP over
    all states, as in :func:`dihomotopy_classes`, although the DP runs on
    run ends, where one level may hold classes of several of those levels;
    no representatives are built.  An undeclared resource raises
    :class:`InvalidThreadError`, as in :class:`Program`.
    """
    used = thread.resources_used
    if not used:
        raise ValueError("thread uses no resources; the pair test needs contention")
    pair = Program.power(thread, 2, caps)
    for r in used:
        if caps[r] != 1:
            raise ValueError(f"pair test requires capacity 1, got κ({r})={caps[r]}")
    count, covered, _ = _classes(pair, max_states)
    return count == covered


# ---------------------------------------------------------------------------
# local choice points


@dataclass(frozen=True)
class ChoicePoint:
    """A state where the last free slot of a resource must be handed to one
    of several requesting threads, and the outcomes cannot be deformed into
    each other."""

    state: State
    resource: str
    contenders: tuple[int, ...]
    reachable: bool


def _one_short(kappa: Sequence[int], totals: list[int], asks: list[int]) -> Optional[int]:
    """The choice-point leaf: the contended resource index, or None.

    Every resource is within capacity; exactly one requested resource is one
    holder short with at least two requesters; every other requested
    resource is full.
    """
    if not _admissible(kappa, totals, asks):
        return None
    short = [r for r, ask in enumerate(asks) if ask and totals[r] != kappa[r]]
    if len(short) == 1 and totals[short[0]] == kappa[short[0]] - 1 and asks[short[0]] >= 2:
        return short[0]
    return None


# what the members of a choice-point orbit share: the contended resource, its
# index, the program's request table and the reachable flag
_OrbitRecord = tuple[str, int, tuple[tuple[Optional[int], ...], ...], bool]


def _choice_point_orbits(program: Program, max_states: int) -> OrbitView:
    """The choice points of ``program`` as an :class:`OrbitView` of
    :class:`ChoicePoint` records: the orbits from the acquire-state sweep
    shared with potential deadlocks (``deadlock._hit_orbits``), each mapped
    to the size the sweep counted and its record.  Permuting identical
    copies keeps a choice point one, with the same resource and
    reachability, so the leaf is read once per orbit, and the flags come
    from one forward search up to the ceiling of the orbits.
    Bounded by the symmetry-folded state count, and by the concrete choice
    points before the search."""
    hits = _hit_orbits(program, _one_short, 1, max_states)
    _guard_members(hits, max_states)
    index = ReachabilityIndex(program, max_states, targets=hits) if hits else None
    request = program._request_idx
    names = program.resource_names
    records = {
        o: (size, (names[r], r, request, index.is_reachable(o))) for o, (size, r) in hits.items()
    }
    return OrbitView(program._groups, records, _choice_point, operator.attrgetter("state"))


def _choice_point(state: State, record: _OrbitRecord) -> ChoicePoint:
    """The choice point at ``state`` of an orbit's record: its contenders
    are the coordinates that stand at a position requesting the resource."""
    resource, r, request, reachable = record
    asked = map(operator.getitem, request, state)
    return ChoicePoint(state, resource, tuple(c for c, q in enumerate(asked) if q == r), reachable)


def local_choice_points(
    program: Program, max_states: int = DEFAULT_MAX_STATES
) -> list[ChoicePoint]:
    """All local choice points, in state order: the view of
    ``_choice_point_orbits`` expanded, each built from its orbit's record.
    Both the sweep and the search are bounded by the symmetry-folded state
    count, the sweep also by its number of choice points."""
    view = _choice_point_orbits(program, max_states)
    return list(iter(view))  # no length hint: the guard summed the orbit sizes


def lcp_cutoff(caps: CapacityMap) -> int:
    """Copy count at which absence of local choice points settles the whole
    family: the capacity sum plus one."""
    return caps.total() + 1


def sharpserializable_witness(caps: CapacityMap) -> WitnessPlan:
    """A thread (all capacities >= 2, resources in declaration order) whose
    choice-point cut-off is nearly tight: two copies below the cut-off the
    program has a reachable local choice point at a predictable state, and
    with one fewer copy it has none.

    The thread is the tight deadlock chain of :func:`deadsharp_witness` with
    one extra acquire/release of the first resource appended, and the state
    is that chain's deadlock with one copy fewer at the second acquire of the
    first resource, which leaves the last resource one holder short.  That is
    the chain's deadlock at one less capacity of the last resource, whose
    plan also bounds the instance by the thread bound of a program.
    """
    names = caps.names
    for r in names:
        if caps[r] < 2:
            raise ValueError(f"the construction needs κ >= 2, got κ({r})={caps[r]}")
    last = names[-1]
    chain = deadsharp_witness(CapacityMap(caps.items()[:-1] + ((last, caps[last] - 1),)))
    return WitnessPlan(
        kind="choice-point",
        thread=Thread.from_text(f"{chain.thread} P{names[0]} V{names[0]}"),
        caps=caps,
        cutoff=lcp_cutoff(caps),
        instance_n=chain.instance_n,
        expected_state=chain.expected_state,
        expected_resource=last,
    )


# ---------------------------------------------------------------------------
# family verdicts


def family_serializability_verdict(
    thread: Thread, caps: CapacityMap, max_states: int = DEFAULT_MAX_STATES
) -> FamilyVerdict:
    """Is every parallel composition of copies of ``thread`` serializable?

    Routing by the capacities of the used resources: all 1 — the class
    count of two copies decides (yes and no are both conclusive); all >= 2 — a
    choice-point-free cut-off instance certifies yes, otherwise the
    obstruction is reported but is not conclusive for no; mixed — no
    extrapolation from small instances is sound, so the verdict is left
    inconclusive with per-size analysis suggested.  The choice points are
    decided per orbit (``_choice_point_orbits``) and never expanded:
    ``choice_points`` is an :class:`OrbitView` of :class:`ChoicePoint`
    records.  A cut-off past the thread bound of a program is inconclusive
    ("search-limit"), with no instance built.  Raises
    :class:`InvalidThreadError` on an undeclared resource.
    """
    _check_declared(thread, caps)
    if not thread.resources_used:
        return FamilyVerdict(
            "serializability",
            "yes",
            1,
            "trivial-thread",
            "the thread touches no resources, so all interleavings are "
            "equivalent to a serial run",
        )
    values = {caps[r] for r in thread.resources_used}
    if values == {1}:
        try:
            ok = kappa1_pair_serializable(thread, caps, max_states)
        except SearchLimitExceeded as exc:
            return FamilyVerdict(
                "serializability", "inconclusive", 2, "search-limit", str(exc)
            )
        if ok:
            return FamilyVerdict(
                "serializability",
                "yes",
                2,
                "pairwise-serializability",
                "only the two serial schedules of the pair are feasible, "
                "which settles every copy count at capacity 1",
            )
        return FamilyVerdict(
            "serializability",
            "no",
            2,
            "pairwise-serializability",
            "a non-serial schedule of the pair is feasible",
            manifests_at_n=2,
        )
    cutoff = lcp_cutoff(caps.restrict(thread.resources_used))
    if all(v >= 2 for v in values):
        program = None  # past the thread bound no instance is built
        try:
            program = Program.power(thread, cutoff, caps)
            cps = _choice_point_orbits(program, max_states)
        except SearchLimitExceeded as exc:
            return FamilyVerdict(
                "serializability", "inconclusive", cutoff, "search-limit", str(exc),
                program=program,
            )
        if not cps:
            return FamilyVerdict(
                "serializability",
                "yes",
                cutoff,
                "choice-point-cutoff",
                f"no local choice points among {cutoff} copies, hence none "
                "at any copy count",
                program=program,
            )
        return FamilyVerdict(
            "serializability",
            "inconclusive",
            cutoff,
            "choice-point-cutoff",
            f"{cps._len} local choice point(s) among {cutoff} copies; the "
            "obstruction does not prove non-serializability",
            choice_points=cps,
            program=program,
        )
    return FamilyVerdict(
        "serializability",
        "inconclusive",
        cutoff,
        "mixed-capacities",
        "mixed capacities admit families that are serializable at one copy "
        "count and not at the next, so no finite instance settles all of "
        "them; analyze fixed sizes with the class count instead",
    )
