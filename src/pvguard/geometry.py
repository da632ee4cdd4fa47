"""Discrete execution geometry of a PV program.

A state of an n-thread program is an integer vector x with coordinate i in
0..l_i+1.  Executions are monotone lattice paths from ⊥ = (0,…,0) to
⊤ = (l_1+1,…,l_n+1) stepping one coordinate by +1 at a time.  A step is
allowed only while every resource stays within capacity, counting segment
use for the moving coordinate and point use for the others.  The blocked
part of the grid decomposes into open forbidden rectangles, one per way of
over-subscribing a single resource.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .core import Program, PvError, SearchLimitExceeded, State, _bound

DEFAULT_MAX_STATES = 10**8


@dataclass(frozen=True)
class ForbiddenRectangle:
    """Open box of states where one resource is over capacity.

    ``legs`` maps capacity+1 distinct coordinates to one hold interval each;
    the box is open in the leg coordinates and unconstrained in the rest.
    """

    resource: str
    legs: tuple[tuple[int, tuple[int, int]], ...]


@dataclass(frozen=True)
class LatticePath:
    """A monotone path of states; each step raises one coordinate by 1."""

    states: tuple[State, ...]

    def __post_init__(self) -> None:
        if not self.states:
            raise ValueError("a path needs at least one state")

    def __len__(self) -> int:
        return len(self.states)

    @property
    def start(self) -> State:
        return self.states[0]

    @property
    def end(self) -> State:
        return self.states[-1]

    def steps(self) -> tuple[int, ...]:
        """The coordinate moved at each step; raises :class:`ValueError`
        unless every state is a tuple of ints, all of one length, and each
        step raises exactly one coordinate, by 1.  Three C-level scans type
        the states, so 1.0, True or a list is no lattice point."""
        states = self.states
        n = len(states[0]) if isinstance(states[0], tuple) else -1
        coords = itertools.chain.from_iterable(states)
        if (
            operator.countOf(map(isinstance, states, itertools.repeat(tuple)), True) != len(states)
            or operator.countOf(map(len, states), n) != len(states)
            or operator.countOf(map(type, coords), int) != n * len(states)
        ):
            raise ValueError("not a unit lattice step")
        out = []
        for prev, nxt in zip(states, states[1:]):
            diff = list(map(operator.sub, nxt, prev))
            if diff.count(0) != n - 1 or 1 not in diff:
                raise ValueError("not a unit lattice step")
            out.append(diff.index(1))
        return tuple(out)

    def validate(self, program: Program) -> None:
        """Raise unless every state is admissible and every step edge-admissible.

        One pass over :meth:`steps` keeps the point-use totals of the current
        state.  A unit step changes one coordinate, so only its new value is
        range-checked and only its two point-use entries move the totals.  A
        bad state raises at once; the first bad edge raises after the pass.
        When :meth:`steps` raises, on a malformed state or a non-unit step,
        every state is checked with :func:`state_admissible` before its error
        is raised.  So faults are reported as by checking all states, then
        all steps, then all edges."""
        states = self.states
        kappa = program.kappa
        tops = program.tops
        point = program._point_idx
        request = program._request_idx
        try:
            steps = self.steps()
        except ValueError:
            _check_states(program, states)
            raise
        prev = states[0]
        program.check_state(prev)
        totals = program.use_totals(prev)
        if any(t > cap for t, cap in zip(totals, kappa)):
            raise PvError(f"path visits inadmissible state {prev}")
        bad_edge: Optional[tuple[State, int]] = None
        for c, nxt in zip(steps, states[1:]):
            x = prev[c]
            if x >= tops[c]:
                program.check_state(nxt)  # raises: coordinate c is past ⊤
            if bad_edge is None:  # the edge rule of ``Program._steps``, inlined
                r = request[c][x]
                if r is not None and totals[r] >= kappa[r]:
                    bad_edge = (prev, c)
            for r in point[c][x]:
                totals[r] -= 1
            for r in point[c][x + 1]:
                totals[r] += 1
                if totals[r] > kappa[r]:
                    raise PvError(f"path visits inadmissible state {nxt}")
            prev = nxt
        if bad_edge is not None:
            state, coord = bad_edge
            raise PvError(f"path takes inadmissible edge {state} along {coord + 1}")


def path_from_steps(start: State, steps: Iterable[int]) -> LatticePath:
    states = [start]
    cur = list(start)
    for c in steps:
        cur[c] += 1
        states.append(tuple(cur))
    return LatticePath(tuple(states))


def forbidden_rectangles(program: Program) -> list[ForbiddenRectangle]:
    """All open rectangles of over-capacity states, per resource.

    For a resource of capacity k, pick k+1 distinct coordinates and one hold
    interval of that resource in each; the union of these boxes is exactly
    the inadmissible part of the grid.
    """
    out: list[ForbiddenRectangle] = []
    for res in program.resource_names:
        cap = program.caps[res]
        holders = [
            (i, t.hold_intervals.get(res, ()))
            for i, t in enumerate(program.threads)
            if t.hold_intervals.get(res)
        ]
        if len(holders) < cap + 1:
            continue
        for chosen in itertools.combinations(holders, cap + 1):
            coords = [c for c, _ in chosen]
            for spans in itertools.product(*(s for _, s in chosen)):
                legs = tuple(zip(coords, spans))
                out.append(ForbiddenRectangle(res, legs))
    return out


def state_admissible(program: Program, state: State) -> bool:
    """Every resource's point use stays within capacity."""
    program.check_state(state)
    totals = program.use_totals(state)
    return all(tot <= cap for tot, cap in zip(totals, program.kappa))


def _check_states(program: Program, states: Iterable[State]) -> None:
    """Raise at the first of ``states`` that is malformed or inadmissible."""
    for state in states:
        if not state_admissible(program, state):
            raise PvError(f"path visits inadmissible state {state}")


def successors(program: Program, state: State) -> list[tuple[int, State]]:
    """Admissible one-step moves from ``state`` in ascending coordinate order."""
    program.check_state(state)
    totals, steps, _ = program._steps(state)
    if any(tot > cap for tot, cap in zip(totals, program.kappa)):
        return []
    return [(c, state[:c] + (state[c] + 1,) + state[c + 1 :]) for c in steps]


def guard_grid(program: Program, max_states: int) -> None:
    _bound(max_states, program.grid_states(), "grid states")


def guard_orbits(program: Program, max_states: int) -> None:
    """Bound of the symmetry-folded engines: the grid states up to permuting
    identical threads (:meth:`Program.orbit_states`)."""
    _bound(max_states, program.orbit_states(), "symmetry-folded states")


def enumerate_dipaths(
    program: Program, limit: int = DEFAULT_MAX_STATES
) -> Iterator[LatticePath]:
    """Yield every complete execution (⊥ to ⊤) in lexicographic step order,
    lazily: one stack holds an iterator of :func:`successors` per state on
    the path so far, so the first path comes without walking the rest.

    Raises :class:`SearchLimitExceeded` as soon as more than ``limit`` paths
    would be produced.
    """
    top = program.top
    count = 0
    trail: list[State] = [program.bottom]
    stack = [iter(successors(program, program.bottom))]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            trail.pop()
        elif step[1] == top:
            count += 1
            if count > limit:
                raise SearchLimitExceeded(limit, "enumerated paths")
            yield LatticePath((*trail, top))
        else:
            trail.append(step[1])
            stack.append(iter(successors(program, step[1])))
