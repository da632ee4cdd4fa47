"""Deadlock detection and family verdicts.

A deadlock is a reachable state other than ⊤ in which every unfinished
thread stands at an acquire action whose resource is at full capacity.  A
potential deadlock satisfies the same local conditions but is not required
to be reachable, or even admissible.

Family verdicts decide "n copies of T are deadlock-free for every n" by
checking a single cut-off instance whose size is the sum of the capacities
of the resources the thread uses.
"""
from __future__ import annotations

import bisect
import heapq
import itertools
import operator
from collections import deque
from collections.abc import Collection, KeysView, Mapping, Sequence
from dataclasses import dataclass, field
from math import comb
from typing import Callable, Iterable, Iterator, Optional

from .core import (
    CapacityMap,
    Program,
    PvError,
    SearchLimitExceeded,
    State,
    Thread,
    _MAX_THREADS,
    _bound,
    _cached_property,
    _check_declared,
    single_access,
)
from .geometry import (
    DEFAULT_MAX_STATES,
    LatticePath,
    guard_orbits,
    successors,
)


class ReachabilityIndex:
    """Forward reachability of a program, folded by thread symmetry.

    Coordinates running identical threads are interchangeable, so the search
    runs over states with each identity group sorted ascending: one state per
    orbit, i.e. a multiset of positions per group, which the search keeps as
    the group's count vector over positions (the counter abstraction: German
    and Sistla, "Reasoning about systems with many processes", JACM 1992).
    Each reached orbit is keyed by a code of its count vectors and stores its
    parent and the step that reached it, which a witness chain replays from
    ⊥.  Membership queries and witness paths for arbitrary concrete states
    are recovered by permuting within groups; the transition relation is
    invariant under such permutations, so the folding is exact.

    Without ``targets`` the search covers the whole folded space and decides
    every state.  ``targets``, the states the caller will query, select the
    reduced search of the verdict routes: it stays at or below the
    componentwise maximum of their group-sorted forms, the *ceiling* (a
    monotone path to a state never leaves the states below it), and takes
    each release together with the acquire before it (see ``_search``), so
    it decides only the states at or below the ceiling where every
    coordinate stands at an acquire or at ⊤.  A query about any other state,
    or a malformed one, raises :class:`ValueError`.
    """

    def __init__(
        self,
        program: Program,
        max_states: int = DEFAULT_MAX_STATES,
        *,
        targets: Optional[Iterable[State]] = None,
    ):
        guard_orbits(program, max_states)
        self.program = program
        self._groups = program._groups
        if targets is None:
            self.ceiling = program.tops
        else:
            orbits = []
            for state in targets:
                program.check_state(state)
                orbits.append(_canon(self._groups, state))
            self.ceiling = tuple(map(max, zip(program.bottom, *orbits)))
        self._reduced = targets is not None
        self._rows: dict[int, list[int]] = {}  # per coordinate: the code of one copy, by position
        self._entries: list = []  # per count-vector index: its step (group, x, y); None at ⊤
        # per reached code, in discovery order: parent code * len(entries)
        # + the entry of its step (-1 for ⊥)
        self._links: dict[int, int] = {}
        self._search()

    def _search(self) -> None:
        """Breadth-first search over orbits, each identity group keyed by its
        count vector: how many of its copies stand at each position.

        The copies of a group are ranked by position, rank r standing at
        coordinate ``g[r]`` of the group ``g``, so an orbit's group-sorted
        state is read off the counts, and its code is the sum of its copies'
        group rows (``_row``) at their positions.  The copies at one position
        form a run; a step moves one copy of a run from x to the step's end
        y, which raises the run's last coordinate and moves the code by
        ``row[y] - row[x]``, whichever copy moves.  A state's new successors
        are stored in ascending order of their runs' first coordinates, the
        coordinate a step in ascending order reaches the orbit by first, each
        with its parent and its step's entry (group, x, y), which moves the
        group's first copy at x.  The runs come in that order group by group;
        where groups interleave, the new successors are sorted.  Distinct
        runs reach distinct orbits, so which successors are new does not
        depend on the order the runs are tried in.  Reached states are
        admissible (⊥ is, and an admissible edge ends in one), so a step is
        blocked exactly when the resource it acquires is full.  A successor
        is kept only at or below the ceiling (⊤ without targets): the ceiling
        ascends within a group, so a run steps iff its last copy's ceiling is
        at least y.  Every parent of a state below the ceiling is below it
        too, so the ceiling cuts no path to such a state.

        Each queued state carries its free slots, per resource its capacity
        less its point-use total, packed into one int with a field per
        resource; a step adds the change from x to y, and is blocked when the
        field of the resource it acquires is 0.

        Without targets y = x + 1.  With targets a step out of an acquire
        goes on through the releases after it to the next acquire or ⊤, and
        while some group has a copy at ⊥ that may step, only the first such
        group's ⊥ run steps.  A release or ⊥ step is always enabled, disables
        no step, commutes with every step and is taken on every path to a
        state where every coordinate stands at an acquire or at ⊤; taking it
        at once only lowers point-use totals on the way, so each such state
        at or below the ceiling stays reachable (persistent sets: Godefroid,
        LNCS 1032, 1996), and no stored state has a coordinate at a release.
        """
        program = self.program
        kappa = program.kappa
        reduced = self._reduced
        shift = list(itertools.accumulate((k.bit_length() for k in kappa), initial=0))
        field = [1 << s for s in shift]
        # the count vector holds every group's counts over positions 0..⊤ in
        # a row; per group, the indices of its positions below ⊤; per such
        # index: the group's coordinates, the code move, the field a step
        # there must find above 0 (0 when it requests nothing), the step's
        # change to the free slots, the first rank whose ceiling lies at or
        # above the step's end y, and y - x
        weight = 1  # of the next group's first digit
        counts: list[int] = []
        blocks = []
        table: list = []
        entries = self._entries
        for g in self._groups:
            top = program.tops[g[0]]
            held = program._point_idx[g[0]]
            request = program._request_idx[g[0]]
            lows = [self.ceiling[c] for c in g]
            row, weight = _row(len(g), lows[-1], top, weight)
            self._rows.update(dict.fromkeys(g, row))
            blocks.append(range(len(counts), len(counts) + top))
            counts += [len(g)] + [0] * top
            ends = list(range(1, top + 1))
            for x in range(top - 2, -1, -1):
                if reduced and request[x + 1] is None:  # on through a release
                    ends[x] = ends[x + 1]
            for x, (r, y) in enumerate(zip(request, ends)):
                gate = 0 if r is None else field[r + 1] - field[r]  # r's field, all ones
                change = sum(field[r] for r in held[x]) - sum(field[r] for r in held[y])
                table.append((g, row[y] - row[x], gate, change, bisect.bisect_left(lows, y), y - x))
                entries.append((g, x, y))
            table.append(None)  # ⊤ never steps
            entries.append(None)
        order = [c for g in self._groups for c in g]
        merge = order != sorted(order)  # groups interleave
        bottoms = [block.start for block in blocks] if reduced else []
        links = self._links
        links[0] = -1
        width = len(entries)
        free = sum(k << s for k, s in zip(kappa, shift))
        queue: deque[tuple[list[int], int, int]] = deque(((counts, 0, free),))
        while queue:
            counts, code, free = queue.popleft()
            scan = blocks
            for b in bottoms:
                if counts[b] > table[b][4]:  # the ⊥ run steps
                    scan = (range(b, b + 1),)
                    break
            # the new successors: (first coordinate of the run, code, index,
            # change to the free slots, distance stepped)
            fresh = []
            for block in scan:
                lo = 0
                for i in block:
                    if counts[i]:
                        hi = lo + counts[i]
                        g, move, gate, change, above, jump = table[i]
                        if hi > above and (not gate or free & gate):
                            key = code + move
                            if key not in links:
                                fresh.append((g[lo], key, i, change, jump))
                        lo = hi
            if merge:
                fresh.sort()
            for f, key, i, change, jump in fresh:
                links[key] = code * width + i
                moved = counts[:]
                moved[i] -= 1
                moved[i + jump] += 1
                queue.append((moved, key, free + change))

    @property
    def visited(self) -> int:
        return len(self._links)

    def _code(self, state: State) -> int:
        """The code of the orbit of ``state``, the sum of its coordinates'
        rows at their positions, which no permutation within a group changes;
        raises unless it is a state of the program at or below the ceiling
        and, with targets, every coordinate stands at an acquire or at ⊤: the
        states the search decides."""
        self.program.check_state(state)
        if any(map(operator.gt, _canon(self._groups, state), self.ceiling)):
            raise ValueError(f"state {state} lies outside the search ceiling {self.ceiling}")
        tops, request = self.program.tops, self.program._request_idx
        if self._reduced and any(x != t and r[x] is None for x, t, r in zip(state, tops, request)):
            raise ValueError(
                f"state {state} has a coordinate at neither an acquire nor ⊤, "
                "which the reduced search does not decide"
            )
        return sum(self._rows[c][x] for c, x in enumerate(state))

    def is_reachable(self, state: State) -> bool:
        return self._code(state) in self._links

    def witness(self, state: State) -> Optional[LatticePath]:
        """A concrete admissible path ⊥ -> ``state``, or None."""
        code = self._code(state)
        if code not in self._links:
            return None
        return self._onto(self._chain(code), state)

    def _onto(self, chain: Sequence[State], state: State) -> LatticePath:
        """``chain``, a path ⊥ -> some state of the orbit of ``state``, with
        its coordinates permuted so that it ends at ``state``: each identity
        group's coordinates, in ascending order of their values in ``state``
        and in the chain's end, ties in index order, are paired in turn.  A
        group-sorted end's order is the group itself, so an orbit's chain and
        that chain permuted onto the orbit map onto a state alike."""
        source = list(range(len(state)))  # coordinate of the end feeding each one
        for g in self._groups:
            for i, j in zip(sorted(g, key=state.__getitem__), sorted(g, key=chain[-1].__getitem__)):
                source[i] = j
        if len(source) == 1:  # itemgetter of one item returns it bare
            return LatticePath(tuple(chain))
        return LatticePath(tuple(map(operator.itemgetter(*source), chain)))

    def _chain(self, code: int) -> list[State]:
        """A concrete admissible path ⊥ -> some state of the orbit coded
        ``code``: the step entries stored with its ancestors, replayed from ⊥,
        each moving the first copy of its group standing at its x as unit
        steps up to its y."""
        entries = self._entries
        steps = []
        while code:
            code, i = divmod(self._links[code], len(entries))
            steps.append(entries[i])
        q = list(self.program.bottom)
        concrete = [tuple(q)]
        for g, x, y in reversed(steps):
            d = next(i for i in g if q[i] == x)
            for q[d] in range(x + 1, y + 1):
                concrete.append(tuple(q))
        return concrete


def _row(n: int, c: int, top: int, weight: int) -> tuple[list[int], int]:
    """The code of one of a group's ``n`` copies at each position 0..``top``
    from digit ``weight`` on, and the next group's first weight.  The copies
    sum to the shorter of two injective codes of a count vector over 0..c:
    its counts at 1..c, digits of radix n + 1, or its power sums of degree
    k = 1..n, digits of radix n * c**k + 1 (Newton's identities invert them)."""
    last = weight * (n + 1) ** c
    sums = [weight]  # the power sums' weights, while they stay the shorter
    while len(sums) <= n and sums[-1] < last:
        sums.append(sums[-1] * (n * c ** len(sums) + 1))
    if sums[-1] < last:
        return [sum(w * p**k for k, w in enumerate(sums[:-1], 1)) for p in range(top + 1)], sums[-1]
    return [0, *itertools.accumulate([n + 1] * (top - 1), operator.mul, initial=weight)], last


def _canon(groups: Sequence[Sequence[int]], state: State) -> State:
    """The orbit of ``state``: each identity group's values sorted ascending."""
    out = list(state)
    for g in groups:
        for i, v in zip(g, sorted(out[i] for i in g)):
            out[i] = v
    return tuple(out)


def _distinct_permutations(groups: Sequence[Sequence[int]], orbit: State) -> Iterator[State]:
    """The states of ``orbit``, permuting values within identity groups, in
    lexicographic order.  Each step takes the last coordinate that has a
    larger value of its own group to its right, reverses every group's
    values to the right of it, which are non-increasing there, and swaps it
    with the least larger value of its group there."""
    n = len(orbit)
    a = list(orbit)
    nxt = list(range(n))  # the next coordinate of the same group, itself if last
    for g in groups:
        for p, q in zip(g, g[1:]):
            nxt[p] = q
    flips: dict[int, list[tuple[int, int]]] = {}  # per coordinate that steps
    while True:
        yield tuple(a)
        i = n - 1
        while i >= 0 and a[i] >= a[nxt[i]]:
            i -= 1
        if i < 0:
            return
        if i not in flips:  # the swaps that reverse every group's values right of i
            tails = [[q for q in g if q > i] for g in groups]
            flips[i] = [(q, r) for t in tails for q, r in zip(t, t[::-1]) if q < r]
        for q, r in flips[i]:
            a[q], a[r] = a[r], a[q]
        j = nxt[i]
        while a[j] <= a[i]:  # ascending now, so the least larger value comes first
            j = nxt[j]
        a[i], a[j] = a[j], a[i]


def _hit_orbits(
    program: Program,
    leaf: Callable[[Sequence[int], list[int], list[int]], object],
    short: int,
    max_states: int,
) -> dict[State, tuple[int, object]]:
    """The candidate sweep shared by potential deadlocks and local choice
    points, over orbits: the group-sorted states other than ⊤ whose
    coordinates each stand at an acquire or at ⊤ and on which
    ``leaf(kappa, totals, asks)`` is not None, each mapped to its size and
    that value, in ascending order of their positions group by group.
    ``leaf`` takes only states whose requested resources are each within
    capacity and at most ``short`` below it.  Bounded by the
    symmetry-folded state count (``guard_orbits``).

    An orbit is a count vector per identity group over the acquire
    positions of its thread, ⊤ taking the copies left over, since it holds
    and requests nothing.  A stack holds the count of each slot (group,
    position) so far, group by group, largest first; the point-use totals
    and the requesters per resource (``asks``) move by whole counts.  No
    copy holds a resource at an acquire of it, and totals and requests only
    grow as later slots fill, so the walk takes only counts that can still
    end in a hit: a slot whose resource is over capacity gets no copies, a
    slot holding a requested resource at most its free room, and a count
    ends its branch when a requested resource that its slot holds or
    requests stays more than ``short`` below capacity even with every copy
    that a later slot holding it could still take.  Each slot's later
    holders are tabled in one backward pass over the slots, and a node
    checks only its slot's resources.  The group-sorted state is built
    only at a hit, and with it the orbit's size, its concrete states: slot
    by slot, the ways to choose the slot's copies among its group's copies
    not yet placed.  No other code computes an orbit's size; every bound
    and ``len`` reads it.
    """
    guard_orbits(program, max_states)
    kappa = program.kappa
    groups = program._groups
    slots = [  # per acquire position of a group's thread: group, position, request, holds
        (k, p, r, program._point_idx[g[0]][p])
        for k, g in enumerate(groups)
        for p, r in enumerate(program._request_idx[g[0]])
        if r is not None
    ]
    # per slot, for the resource it requests and each it holds: the total
    # that resource needs once the slot is filled, less what later groups'
    # copies may still add, and whether a later slot of the group holds it
    needs: list[tuple[tuple[int, int, bool], ...]] = []
    later = [0] * len(kappa)  # per resource, the copies of later groups that may hold it
    own: set[int] = set()  # the resources held by later slots of the group
    group = None
    for k, _, r, held in reversed(slots):
        if k != group:  # the group passed becomes a later group
            for s in own:
                later[s] += len(groups[group])
            own, group = set(), k
        needs.append(tuple((s, kappa[s] - short - later[s], s in own) for s in (r, *held)))
        own.update(held)
    needs.reverse()
    left = [len(g) for g in groups]  # per group, the copies at ⊤
    totals, asks = [0] * len(kappa), [0] * len(kappa)
    counts: list[int] = []  # the stack: per slot so far, its copies
    hits: dict[State, tuple[int, object]] = {}
    dead = False  # whether no hit lies below the count on top of the stack
    while True:
        if not dead and len(counts) < len(slots):  # the next slot takes all it may
            k, _, r, held = slots[len(counts)]
            c = left[k] if totals[r] <= kappa[r] else 0
            for s in held:
                if asks[s] and kappa[s] - totals[s] < c:
                    c = kappa[s] - totals[s]
            counts.append(c)
            left[k] -= c
            asks[r] += c
            for s in held:
                totals[s] += c
        else:
            # ⊤, which requests nothing, is never one
            if not dead and any(asks) and (value := leaf(kappa, totals, asks)) is not None:
                state = list(program.tops)
                ranks = [iter(g) for g in groups]  # each group's coordinates, lowest first
                unplaced = [len(g) for g in groups]
                size = 1
                for (k, p, _, _), c in zip(slots, counts):
                    size *= comb(unplaced[k], c)
                    unplaced[k] -= c
                    for i in itertools.islice(ranks[k], c):
                        state[i] = p
                hits[tuple(state)] = size, value
            while counts and not counts[-1]:
                counts.pop()
            if not counts:
                return hits
            k, _, r, held = slots[len(counts) - 1]  # one copy of the last slot to ⊤
            counts[-1] -= 1
            left[k] += 1
            asks[r] -= 1
            for s in held:
                totals[s] -= 1
        dead = False  # a requested resource that even the copies left cannot fill
        for s, need, own_later in needs[len(counts) - 1]:
            if asks[s] and totals[s] + (left[k] if own_later else 0) < need:
                dead = True
                break


def _same_state(state: State, payload: object) -> State:
    return state


class OrbitView(Collection):
    """One record per concrete state of some orbits of a program, in
    ascending state order, without expanding them.

    ``groups`` are the program's identity groups (``Program._groups``);
    ``orbits`` maps each orbit (each group's values ascending) to its size,
    as the sweep (``_hit_orbits``) counted it, and a payload, and
    ``record(state, payload)`` builds a member's record, by default the
    state itself.  ``key`` reads a record's state, and is None when the
    records are states.

    ``len`` sums the given orbit sizes on first use, so it raises
    :class:`OverflowError` past ``sys.maxsize`` records; a view is true iff
    it holds an orbit.  ``in`` sorts a record's state within groups, looks
    it up among the orbits and compares the one record it stands for.
    Iteration merges each orbit's distinct permutations, which come out
    sorted, so the first record costs one permutation per orbit.  ``==``
    and ``hash`` behave as on the sorted tuple the view stands for.
    ``hash``, and ``==`` against anything but a view with the same groups,
    orbits, payloads and ``record``, build every record on each call.
    """

    def __init__(
        self,
        groups: Sequence[Sequence[int]],
        orbits: Mapping[State, tuple[int, object]],
        record: Callable[[State, object], object] = _same_state,
        key: Optional[Callable[[object], State]] = None,
    ):
        self._groups = groups
        self._orbits = dict(orbits)
        self._record = record
        self._key = key

    @_cached_property
    def _len(self) -> int:
        return sum(size for size, _ in self._orbits.values())

    @property
    def orbits(self) -> KeysView[State]:
        return self._orbits.keys()

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return bool(self._orbits)

    def __contains__(self, item: object) -> bool:
        try:
            state = item if self._key is None else self._key(item)
            if not isinstance(state, tuple) or len(state) != sum(map(len, self._groups)):
                return False
            orbit = _canon(self._groups, state)
            return orbit in self._orbits and self._record(state, self._orbits[orbit][1]) == item
        except (AttributeError, TypeError):  # no state, or unorderable values
            return False

    def __iter__(self) -> Iterator:
        groups = self._groups
        members = [
            map(self._record, _distinct_permutations(groups, orbit), itertools.repeat(payload))
            for orbit, (_, payload) in self._orbits.items()
        ]
        return heapq.merge(*members, key=self._key)

    def __eq__(self, other: object) -> bool:
        if (
            isinstance(other, OrbitView)
            and other._record is self._record
            and other._groups == self._groups
            and other._orbits == self._orbits
        ):
            return True
        if isinstance(other, (tuple, OrbitView)):
            size = other._len if isinstance(other, OrbitView) else len(other)
            return size == self._len and all(map(operator.eq, self, other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"OrbitView({self._len} records in {len(self._orbits)} orbits)"


def _guard_paths(
    orbits: OrbitView | Mapping[State, tuple[int, object]], max_states: int
) -> None:
    """Raise :class:`SearchLimitExceeded` when the witness paths to the
    concrete states of ``orbits``, a view or a map of each orbit to its
    size and a payload, hold more than ``max_states`` states; a path to a
    state has its coordinate sum plus one states."""
    if isinstance(orbits, OrbitView):
        orbits = orbits._orbits
    size = sum(count * (sum(orbit) + 1) for orbit, (count, _) in orbits.items())
    _bound(max_states, size, "witness-path states")


def _guard_members(orbits: Mapping[State, tuple[int, object]], max_states: int) -> None:
    """Raise :class:`SearchLimitExceeded`, before anything is expanded, when
    the candidate ``orbits``, each mapped to its size and a payload, stand
    for more than ``max_states`` concrete states."""
    _bound(max_states, sum(count for count, _ in orbits.values()), "concrete candidate states")


def _admissible(kappa: Sequence[int], totals: list[int], asks: list[int]) -> bool:
    """The potential-deadlock leaf: whether every resource is within
    capacity.  The sweep hands it only states whose requested resources are
    all full, which are the potential deadlocks."""
    return all(map(operator.le, totals, kappa))


def potential_deadlocks(
    program: Program, max_states: int = DEFAULT_MAX_STATES
) -> list[State]:
    """States (other than ⊤) where every unfinished thread stands at an
    acquire whose resource is at full point-use capacity.

    Reachability and admissibility are not required: a potential deadlock may
    lie inside the forbidden region.  Candidates come from the shared
    acquire-state sweep (``_hit_orbits``), expanded by an :class:`OrbitView`.
    Results are sorted.  Raises :class:`SearchLimitExceeded` when the
    symmetry-folded state space, or the number of results, exceeds
    ``max_states``.
    """
    hits = _hit_orbits(program, _admissible, 0, max_states)
    _guard_members(hits, max_states)
    # ``iter``: no length hint, since the guard has just summed the orbit sizes
    return list(iter(OrbitView(program._groups, hits)))


@dataclass(frozen=True)
class Deadlock:
    state: State
    witness: LatticePath


@dataclass(frozen=True)
class SearchStats:
    threads: int
    grid_states: int
    candidates: int
    visited: int
    max_states: int


@dataclass(frozen=True)
class DeadlockReport:
    deadlocks: tuple[Deadlock, ...]
    potential_deadlocks: tuple[State, ...]
    stats: SearchStats


def find_deadlocks(
    program: Program, max_states: int = DEFAULT_MAX_STATES
) -> DeadlockReport:
    """All deadlocks of the program, each with a validated witness path.

    The deadlocks are decided once per orbit (``_deadlock_orbits``), then
    the candidate orbits are expanded once, through an :class:`OrbitView`
    whose records pair each state with its orbit's validated path (None off
    the deadlock orbits).  Each deadlock's witness path is that path,
    permuted onto it (``ReachabilityIndex._onto``), and is validated.  The
    search covers the whole folded space, so ``stats.visited`` counts every
    reachable orbit.
    """
    candidates, paths, index = _deadlock_orbits(program, max_states, bounded=False)
    records = {orbit: (size, paths.get(orbit)) for orbit, (size, _) in candidates.items()}
    view = OrbitView(program._groups, records, lambda *pair: pair, operator.itemgetter(0))
    members = tuple(iter(view))  # no length hint: the guards summed the sizes
    deadlocks: list[Deadlock] = []
    for state, path in members:
        if path is not None:
            witness = index._onto(path.states, state)
            assert witness.end == state
            witness.validate(program)
            deadlocks.append(Deadlock(state, witness))
    stats = SearchStats(
        threads=program.n,
        grid_states=program.grid_states(),
        candidates=len(members),
        visited=index.visited if index is not None else 0,
        max_states=max_states,
    )
    return DeadlockReport(tuple(deadlocks), tuple(state for state, _ in members), stats)


def _deadlock_orbits(
    program: Program, max_states: int, bounded: bool
) -> tuple[dict[State, tuple[int, object]], dict[State, LatticePath], Optional[ReachabilityIndex]]:
    """The potential-deadlock orbits, each mapped to its size and whether it
    is admissible (``_hit_orbits``), the deadlock orbits among them, each
    mapped to its validated witness path, and the reachability index (None
    without candidates).  Permuting identical copies leaves the program
    unchanged, so being admissible, reachable and without successors are
    orbit properties, decided once per orbit.

    Bounded by the symmetry-folded state count, then, before the search, by
    the concrete candidates and, without ``bounded``, by the states of the
    witness paths to the admissible candidates, both summed from the sizes
    the sweep counted.
    With ``bounded`` the caller builds no witness paths, and the index takes
    the admissible orbits as its targets: same deadlocks, fewer orbits
    visited.
    """
    hits = _hit_orbits(program, _admissible, 0, max_states)
    admissible = {hit: entry for hit, entry in hits.items() if entry[1]}
    if not bounded:
        _guard_paths(admissible, max_states)
    _guard_members(hits, max_states)
    targets = admissible if bounded else None
    index = ReachabilityIndex(program, max_states, targets=targets) if hits else None
    deadlocks: dict[State, LatticePath] = {}
    for hit in admissible:
        witness = index.witness(hit)
        if witness is None:
            continue
        witness.validate(program)
        if successors(program, hit):
            raise PvError(f"claimed deadlock {hit} has successors")
        deadlocks[hit] = witness
    return hits, deadlocks, index


def _deadlock_states(program: Program, max_states: int) -> OrbitView:
    """The deadlocks of the program, as a sorted :class:`OrbitView` over
    their orbits, without witness paths: the search stops at the ceiling of
    the candidates."""
    hits, orbits, _ = _deadlock_orbits(program, max_states, bounded=True)
    return OrbitView(program._groups, {orbit: hits[orbit] for orbit in orbits})


def _scatter_state(
    sub_state: State, indices: Sequence[int], program: Program
) -> State:
    """Place a sub-program state at the given thread indices of ``program``,
    parking every other coordinate at its ⊤."""
    out = list(program.tops)
    for value, i in zip(sub_state, indices):
        out[i] = value
    return tuple(out)


def deadlock_cutoff(caps: CapacityMap) -> int:
    """Copies of a thread needed so that deadlock-freedom at this size settles
    the whole family: the sum of the capacities."""
    return caps.total()


@dataclass(frozen=True)
class FamilyVerdict:
    """Outcome of a for-all-n check.

    ``witnesses`` carries deadlock states (verdict "no"), sorted.
    ``choice_points`` carries local choice points (serializability
    "inconclusive"), sorted by state.  The family verdicts keep both as a
    lazy :class:`OrbitView`, over the deadlock orbits and the choice-point
    orbits: ``len`` builds no state, ``in`` at most one, ``==`` none
    between two views over the same orbits and records, the first item
    (``next(iter(...))``) one per orbit, and iteration and ``hash`` every
    one.  Their states are states of ``program``, the instance the verdict
    searched; verdicts that search none, and the pair test, leave it None.
    """

    property_name: str  # "deadlock-freedom" | "serializability"
    verdict: str  # "yes" | "no" | "inconclusive"
    cutoff: int
    rule: str
    detail: str
    witnesses: Collection[State] = ()
    manifests_at_n: Optional[int] = None
    choice_points: Collection = ()
    program: Optional[Program] = field(default=None, compare=False, repr=False)


def family_deadlock_verdict(
    thread: Thread, caps: CapacityMap, max_states: int = DEFAULT_MAX_STATES
) -> FamilyVerdict:
    """Is every parallel composition of copies of ``thread`` deadlock-free?

    The cut-off size is the capacity sum of the resources the thread uses;
    a deadlock among more copies than that restricts to one among at most
    that many, and extra finished copies never unblock anything.  The
    deadlocks are decided per orbit and never expanded: ``witnesses`` is an
    :class:`OrbitView`, so neither its states nor their witness paths are
    counted against ``max_states``.  A cut-off past the thread bound of a
    program is inconclusive ("search-limit"), with no instance built.
    Raises :class:`InvalidThreadError` on an undeclared resource.
    """
    _check_declared(thread, caps)
    cutoff = deadlock_cutoff(caps.restrict(thread.resources_used))
    if single_access(thread):
        return FamilyVerdict(
            "deadlock-freedom",
            "yes",
            cutoff,
            "single-access",
            "every resource is acquired at most once, so no copy count can "
            "close a waiting cycle",
        )
    program = None  # past the thread bound no instance is built
    try:
        program = Program.power(thread, cutoff, caps)
        witnesses = _deadlock_states(program, max_states)
    except SearchLimitExceeded as exc:
        return FamilyVerdict(
            "deadlock-freedom",
            "inconclusive",
            cutoff,
            "search-limit",
            f"cut-off instance too large: {exc}",
            program=program,
        )
    if witnesses:
        return FamilyVerdict(
            "deadlock-freedom",
            "no",
            cutoff,
            "deadlock-cutoff",
            f"{witnesses._len} deadlock(s) in the {cutoff}-copy instance",
            witnesses=witnesses,
            manifests_at_n=cutoff,
            program=program,
        )
    return FamilyVerdict(
        "deadlock-freedom",
        "yes",
        cutoff,
        "deadlock-cutoff",
        f"the {cutoff}-copy instance is deadlock-free, which settles every "
        "copy count",
        program=program,
    )


def program_deadlock_verdict(
    program: Program, max_states: int = DEFAULT_MAX_STATES
) -> FamilyVerdict:
    """Deadlock-freedom of one fixed program.

    Small programs, and those that use no resource, are searched directly.
    Larger ones reduce to their sub-programs of cut-off size: any deadlock
    restricts to the threads not yet finished, and at most capacity-sum many
    threads can block each other.
    A sub-program is a choice of how many threads to take from each group of
    identical ones (``Program._groups``), taken at the group's first indices
    (``_subprogram_indices``).  Raises :class:`SearchLimitExceeded` before
    any search when there are more than ``max_states`` sub-programs.
    """
    used = set().union(*(program.threads[g[0]].resources_used for g in program._groups))
    cutoff = deadlock_cutoff(program.caps.restrict(used))
    if program.n <= cutoff or not cutoff:
        witnesses = tuple(iter(_deadlock_states(program, max_states)))  # no length hint
        if witnesses:
            return FamilyVerdict(
                "deadlock-freedom",
                "no",
                cutoff,
                "direct-search",
                f"{len(witnesses)} deadlock(s) found",
                witnesses=witnesses,
                manifests_at_n=program.n,
                program=program,
            )
        return FamilyVerdict(
            "deadlock-freedom", "yes", cutoff, "direct-search", "no deadlocks", program=program
        )
    _bound(max_states, _subprogram_count(program._groups, cutoff), "sub-programs")
    for indices in _subprogram_indices(program._groups, cutoff):
        sub = Program(tuple(program.threads[i] for i in indices), program.caps)
        found = _deadlock_states(sub, max_states)
        if found:
            witnesses = tuple(_scatter_state(s, indices, program) for s in found)
            return FamilyVerdict(
                "deadlock-freedom",
                "no",
                cutoff,
                "subprogram-cutoff",
                f"deadlock in the sub-program at threads "
                f"{tuple(i + 1 for i in indices)}, finished copies padded",
                witnesses=witnesses,
                manifests_at_n=program.n,
                program=program,
            )
    return FamilyVerdict(
        "deadlock-freedom",
        "yes",
        cutoff,
        "subprogram-cutoff",
        f"all distinct {cutoff}-thread sub-programs are deadlock-free",
        program=program,
    )


def _subprogram_indices(groups: Sequence[Sequence[int]], size: int) -> Iterator[tuple[int, ...]]:
    """One index tuple per vector of per-group counts summing to ``size``,
    taking each group's first indices, in lexicographic order.  An index is
    taken only after its group's earlier ones; the picks are kept on a list,
    and the last is taken back once the groups still open cannot fill it."""
    place = {i: (k, r) for k, g in enumerate(groups) for r, i in enumerate(g)}
    taken = [0] * len(groups)
    picked: list[int] = []
    i = 0  # the next index to try
    while True:
        need = size - len(picked)
        if not need:
            yield tuple(picked)
        elif sum(len(g) - t for g, t in zip(groups, taken) if t < len(g) and g[t] >= i) >= need:
            k, r = place[i]
            if r == taken[k]:
                taken[k] += 1
                picked.append(i)
            i += 1
            continue
        if not picked:
            return
        i = picked.pop()
        taken[place[i][0]] -= 1
        i += 1


def _subprogram_count(groups: Sequence[Sequence[int]], size: int) -> int:
    """Vectors of per-group counts summing to ``size``: the coefficient of
    x^size in the product over groups of 1 + x + ... + x^|g|."""
    coeffs = [1] + [0] * size
    for g in groups:
        coeffs = [sum(coeffs[max(0, m - len(g)) : m + 1]) for m in range(size + 1)]
    return coeffs[size]


@dataclass(frozen=True)
class WitnessPlan:
    """A generated thread together with the finding it is expected to show."""

    kind: str  # "deadlock" | "choice-point"
    thread: Thread
    caps: CapacityMap
    cutoff: int
    instance_n: int
    expected_state: State
    expected_resource: Optional[str] = None


def _chain_actions(names: Sequence[str]) -> list[str]:
    """The tight deadlock chain over resources r1..rk (k >= 2):
    P r1, then P ri V r(i-1) for i = 2..k, then P r1 V rk V r1."""
    k = len(names)
    if k < 2:
        raise ValueError("the construction needs at least two resources")
    actions = [f"P{names[0]}"]
    for i in range(1, k):
        actions += [f"P{names[i]}", f"V{names[i - 1]}"]
    return actions + [f"P{names[0]}", f"V{names[k - 1]}", f"V{names[0]}"]


def deadsharp_witness(caps: CapacityMap) -> WitnessPlan:
    """A thread over the given resources (declaration order, k >= 2) whose
    capacity-sum cut-off is tight: the M-copy instance deadlocks at a
    predictable state while every smaller instance is deadlock-free.

    The thread chains the resources so each copy can stop holding one
    resource while requesting the next, and the second acquisition of the
    first resource closes the cycle.  Raises :class:`ValueError`, before
    building anything, when M passes the thread bound of a program.
    """
    names = caps.names
    k = len(names)
    thread = Thread.from_text(" ".join(_chain_actions(names)))
    cutoff = caps.total()
    if cutoff > _MAX_THREADS:
        raise ValueError(f"the witness needs {cutoff} threads; a program has at most {_MAX_THREADS}")
    # Block vector: κ(r_k) copies stand at the second P of r_1 (position 2k),
    # then κ(r_{i-1}) copies stand at position 2i-2 for i = 2..k.
    blocks: list[int] = []
    blocks += [2 * k] * caps[names[k - 1]]
    for i in range(2, k + 1):
        blocks += [2 * i - 2] * caps[names[i - 2]]
    return WitnessPlan(
        kind="deadlock",
        thread=thread,
        caps=caps,
        cutoff=cutoff,
        instance_n=cutoff,
        expected_state=tuple(blocks),
    )
