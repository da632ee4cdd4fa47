"""Core model for PV programs.

A PV thread is a finite sequence of P (acquire) and V (release) actions on
named resources with fixed capacities.  A program runs several threads in
parallel.  This module owns the data types plus the resource-use bookkeeping
(hold intervals, index tables) that every analysis builds on.  Point use is the
``Program._point_idx`` table, segment use the step rule of ``Program._steps``;
their definitions from the hold intervals are test oracles.

Positions in a thread of length l are integers 0..l+1: position 0 is the
start (printed as ``⊥``), positions 1..l sit on the actions, and l+1 is the
finished state (printed as ``⊤``).
"""
from __future__ import annotations

import re
from bisect import insort
from dataclasses import dataclass
from math import comb, log10
from typing import Callable, Container, Iterable, Iterator, Optional, Sequence

ACQUIRE = "P"
RELEASE = "V"

BOTTOM_LABEL = "⊥"  # ⊥
TOP_LABEL = "⊤"  # ⊤

_NAME_RE = re.compile(r"[A-Za-z_]\w*")  # resource, thread and program names
_MAX_THREADS = 10_000  # threads of one program: no input can ask for unbounded memory


class _cached_property:
    """``functools.cached_property`` without the lock that Python 3.10 and
    3.11 take on every first read: the first read runs the getter and stores
    its value in the instance ``__dict__``, where later reads find it first."""

    def __init__(self, func: Callable):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class PvError(Exception):
    """Base error for this package."""


class ParseError(PvError):
    """Source text rejected; carries a 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.reason = message


class InvalidThreadError(PvError):
    """An action sequence is not a valid thread."""

    def __init__(self, violations: Sequence["Violation"]):
        super().__init__("; ".join(str(v) for v in violations))
        self.violations = tuple(violations)


class SearchLimitExceeded(PvError):
    """A search or enumeration would exceed the configured bound."""

    def __init__(self, limit: int, what: str = "grid states"):
        super().__init__(f"instance exceeds the configured bound of {limit} {what}")
        self.limit = limit
        self.what = what


def _count_text(count: int) -> str:
    try:  # past the interpreter's limit on int-to-str digits, the magnitude
        return str(count)
    except ValueError:
        return f"about 10^{log10(count):.0f}"


def _decimal(text: str) -> int:
    """The value of the decimal digits ``text``; past the interpreter's limit
    on the digits of an int read from a string, a ValueError that counts them."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"number {text[:8]}... has {len(text)} digits") from None


def _bound(limit: int, count: int, what: str) -> None:
    """Raise :class:`SearchLimitExceeded` when ``count`` of ``what`` exceeds
    ``limit``; the one check, and message, of every counted cap."""
    if count > limit:
        raise SearchLimitExceeded(limit, f"{what} ({_count_text(count)} needed)")


@dataclass(frozen=True)
class Action:
    kind: str  # ACQUIRE or RELEASE
    resource: str

    def __post_init__(self) -> None:
        if self.kind not in (ACQUIRE, RELEASE):
            raise ValueError(f"action kind must be P or V, got {self.kind!r}")
        if not self.resource:
            raise ValueError("action resource name must be nonempty")

    @property
    def mnemonic(self) -> str:
        return self.kind + self.resource

    def __str__(self) -> str:
        return self.mnemonic


@dataclass(frozen=True)
class Violation:
    """One way an action sequence breaks the per-thread use discipline."""

    resource: str
    position: int  # 1-based action index; l+1 for end-of-thread violations
    kind: str  # "use-out-of-range" | "held-at-end" | "unknown-resource"
    value: int  # offending use count (or 0 for unknown-resource)

    def __str__(self) -> str:
        if self.kind == "held-at-end":
            return f"resource {self.resource!r} still held at end (position {self.position})"
        if self.kind == "unknown-resource":
            return f"unknown resource {self.resource!r} at position {self.position}"
        return (
            f"resource {self.resource!r} use count {self.value} "
            f"at position {self.position} is outside 0..1"
        )


@dataclass(frozen=True)
class CapacityMap:
    """Immutable resource -> capacity table; order of declaration preserved."""

    entries: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        seen = set()
        for name, cap in self.entries:
            if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
                raise ValueError(f"resource name {name!r} must match {_NAME_RE.pattern}")
            if name in seen:
                raise ValueError(f"duplicate resource {name!r}")
            if type(cap) is not int or cap < 1:
                raise ValueError(f"capacity of {name!r} must be an integer >= 1")
            seen.add(name)

    @_cached_property
    def _table(self) -> dict[str, int]:
        return dict(self.entries)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.entries)

    def __getitem__(self, name: str) -> int:
        return self._table[name]

    def __contains__(self, name: str) -> bool:
        return name in self._table

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.entries)

    def items(self) -> tuple[tuple[str, int], ...]:
        return self.entries

    def total(self) -> int:
        return sum(cap for _, cap in self.entries)

    def restrict(self, names: Iterable[str]) -> "CapacityMap":
        keep = set(names)
        return CapacityMap(tuple((n, c) for n, c in self.entries if n in keep))


class ActionSyntaxError(ValueError):
    """A malformed action string; ``offset`` is where the bad token starts."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


_TOKEN_RE = re.compile(r"\S+")


def _scan_actions(
    text: str, built: dict[str, Action], known: Optional[Container[str]] = None
) -> list[Action]:
    """The actions of a whitespace-separated action string.  Both the fused
    form ``Pa`` and the spaced form ``P a`` are accepted.  ``built`` maps
    each action's mnemonic to the action, so a caller that scans several
    strings builds, and checks, each distinct action once.  A malformed
    token, or with ``known`` a resource outside it, raises
    :class:`ActionSyntaxError` at the first word of its action."""
    actions: list[Action] = []
    words = iter(text.split())
    try:
        for word in words:
            action = built.get(word)
            if action is None:
                if word[0] not in (ACQUIRE, RELEASE):
                    raise ValueError(f"action token must start with P or V: {word!r}")
                if len(word) == 1:
                    resource = next(words, None)
                    if resource is None:
                        raise ValueError(f"dangling {word!r} without a resource name")
                    word += resource
                    action = built.get(word)
            if action is None:
                if known is not None and word[1:] not in known:
                    raise ValueError(f"unknown resource {word[1:]!r}")
                action = built[word] = Action(word[0], word[1:])
            actions.append(action)
    except ValueError as exc:  # located on the error path alone
        raise ActionSyntaxError(str(exc), _action_offset(text, len(actions))) from None
    return actions


def _action_offset(text: str, k: int) -> int:
    """The offset of the first word of action ``k`` (0-based) of an action
    string whose earlier actions are well formed: a lone ``P`` or ``V`` takes
    the next word as its resource.  Past the last action, 0 (the string's
    start).  Only an error is located this way."""
    words = _TOKEN_RE.finditer(text)
    for m in words:
        if k == 0:
            return m.start()
        k -= 1
        if len(m.group()) == 1:
            next(words, None)
    return 0


def parse_actions(text: str) -> tuple[Action, ...]:
    """Parse an action string such as ``"Pa Pb Vb Va"`` or ``"P a V a"``."""
    return tuple(_scan_actions(text, {}))


def thread_violations(
    actions: Sequence[Action], caps: Optional[CapacityMap] = None
) -> list[Violation]:
    """Check the use discipline: every prefix keeps each resource's own use
    count in {0, 1} and every resource is released by the end.

    Returns all violations in position order (empty list means valid).  When
    ``caps`` is given, actions on undeclared resources are reported too.
    """
    out: list[Violation] = []
    use: dict[str, int] = {}
    known = None if caps is None else caps._table
    for pos, act in enumerate(actions, start=1):
        res = act.resource
        if known is not None and res not in known:
            out.append(Violation(res, pos, "unknown-resource", 0))
            continue
        count = use[res] = use.get(res, 0) + (1 if act.kind == ACQUIRE else -1)
        if count not in (0, 1):
            out.append(Violation(res, pos, "use-out-of-range", count))
    end = len(actions) + 1
    for res in sorted(use):
        if use[res] != 0:
            out.append(Violation(res, end, "held-at-end", use[res]))
    return out


@dataclass(frozen=True)
class Thread:
    """A valid PV thread.  Every constructor checks the use discipline
    (:func:`thread_violations`) and raises :class:`InvalidThreadError`."""

    actions: tuple[Action, ...]

    def __post_init__(self) -> None:
        bad = thread_violations(self.actions)
        if bad:
            raise InvalidThreadError(bad)

    @classmethod
    def from_actions(cls, actions: Iterable[Action]) -> "Thread":
        return cls(tuple(actions))

    @classmethod
    def from_text(cls, text: str) -> "Thread":
        return cls.from_actions(parse_actions(text))

    @property
    def length(self) -> int:
        return len(self.actions)

    @property
    def top(self) -> int:
        """Position index of the finished state (length + 1)."""
        return len(self.actions) + 1

    @_cached_property
    def hold_intervals(self) -> dict[str, tuple[tuple[int, int], ...]]:
        """Per resource, the (acquire, release) position pairs, in order."""
        opened: dict[str, int] = {}
        spans: dict[str, list[tuple[int, int]]] = {}
        for pos, act in enumerate(self.actions, start=1):
            if act.kind == ACQUIRE:
                opened[act.resource] = pos
            else:
                spans.setdefault(act.resource, []).append((opened.pop(act.resource), pos))
        return {res: tuple(pairs) for res, pairs in spans.items()}

    @_cached_property
    def resources_used(self) -> frozenset[str]:
        return frozenset(a.resource for a in self.actions)

    def action_at(self, position: int) -> Optional[Action]:
        if 1 <= position <= self.length:
            return self.actions[position - 1]
        return None

    def __str__(self) -> str:
        return " ".join(a.mnemonic for a in self.actions)


def _check_declared(thread: Thread, caps: CapacityMap) -> None:
    """Raise :class:`InvalidThreadError` if ``thread`` uses an undeclared resource."""
    if not thread.resources_used <= caps._table.keys():
        raise InvalidThreadError(thread_violations(thread.actions, caps))


def single_access(thread: Thread) -> bool:
    """True iff every resource is acquired at most once in the thread.

    Programs built from any number of copies of such a thread can never
    deadlock, so family checks may skip the search entirely.
    """
    return all(len(spans) <= 1 for spans in thread.hold_intervals.values())


State = tuple[int, ...]


@dataclass(frozen=True)
class Program:
    """A parallel composition of threads under one capacity map."""

    threads: tuple[Thread, ...]
    caps: CapacityMap

    def __post_init__(self) -> None:
        if not self.threads:
            raise ValueError("a program needs at least one thread")
        for g in self._groups:
            _check_declared(self.threads[g[0]], self.caps)

    @classmethod
    def power(cls, thread: Thread, n: int, caps: CapacityMap) -> "Program":
        """``n`` copies of ``thread``; raises :class:`SearchLimitExceeded`
        past ``_MAX_THREADS`` copies, before any is built."""
        if type(n) is not int:  # bool too: True would read as 1
            raise ValueError(f"thread copy count {n!r} is not an integer")
        if n < 1:
            raise ValueError("thread copy count must be >= 1")
        _bound(_MAX_THREADS, n, "threads")
        return cls((thread,) * n, caps)

    @property
    def n(self) -> int:
        return len(self.threads)

    @_cached_property
    def tops(self) -> tuple[int, ...]:
        return tuple(t.top for t in self.threads)

    @property
    def bottom(self) -> State:
        return (0,) * self.n

    @property
    def top(self) -> State:
        return self.tops

    def grid_states(self) -> int:
        size = 1
        for t in self.tops:
            size *= t + 1
        return size

    @_cached_property
    def _groups(self) -> tuple[tuple[int, ...], ...]:
        """Coordinates running identical threads, in ascending order, one
        group per distinct thread in order of first appearance.  Copies of
        one object are grouped by identity, so only distinct objects compare
        their actions."""
        groups: dict[tuple[Action, ...], list[int]] = {}
        by_object: dict[int, list[int]] = {}
        for i, t in enumerate(self.threads):
            if (g := by_object.get(id(t))) is None:
                g = by_object[id(t)] = groups.setdefault(t.actions, [])
            g.append(i)
        return tuple(tuple(g) for g in groups.values())

    def orbit_states(self) -> int:
        """Grid states up to permuting the coordinates of identical threads:
        per group of g copies with top position m, the C(m + g, g)
        non-decreasing value sequences.  Equals :meth:`grid_states` when the
        threads are pairwise distinct."""
        size = 1
        for g in self._groups:
            size *= comb(self.tops[g[0]] + len(g), len(g))
        return size

    @_cached_property
    def resource_names(self) -> tuple[str, ...]:
        return self.caps.names

    @_cached_property
    def kappa(self) -> tuple[int, ...]:
        return tuple(self.caps[name] for name in self.resource_names)

    @_cached_property
    def _index_tables(self) -> tuple[tuple, tuple]:
        """``_point_idx`` and ``_request_idx``, built in one sweep over the
        actions of each identity group's thread and shared by its copies."""
        ri = {name: i for i, name in enumerate(self.resource_names)}
        point, request = [None] * self.n, [None] * self.n
        for g in self._groups:
            held: list[int] = []
            points: list[tuple[int, ...]] = [()]
            requests: list[Optional[int]] = [None]
            for act in self.threads[g[0]].actions:
                r = ri[act.resource]
                if act.kind == ACQUIRE:  # requested, not yet held, at its P
                    points.append(tuple(held))
                    requests.append(r)
                    insort(held, r)
                else:  # released at its V
                    held.remove(r)
                    points.append(tuple(held))
                    requests.append(None)
            tables = (*points, ()), (*requests, None)
            for i in g:
                point[i], request[i] = tables
        return tuple(point), tuple(request)

    @_cached_property
    def _point_idx(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per thread, per position: indices of the resources held there, ascending."""
        return self._index_tables[0]

    @_cached_property
    def _request_idx(self) -> tuple[tuple[Optional[int], ...], ...]:
        """Per thread, per position: index of the resource the acquire there
        requests, or None (⊥, ⊤ and releases).  The segment out of a position
        holds what the point holds plus this resource."""
        return self._index_tables[1]

    def check_state(self, state: State) -> None:
        if not isinstance(state, tuple):
            raise ValueError(f"state of type {type(state).__name__} is not a tuple")
        if len(state) != self.n:
            raise ValueError(f"state has {len(state)} coordinates, program has {self.n}")
        for i, (x, top) in enumerate(zip(state, self.tops)):
            if type(x) is not int:  # bool too: True would read as 1
                raise ValueError(f"coordinate {i + 1} value {x!r} is not an integer")
            if not 0 <= x <= top:
                raise ValueError(f"coordinate {i + 1} value {x} out of range 0..{top}")

    def use_totals(self, state: State) -> list[int]:
        """Point-use count per resource index, summed over all threads."""
        totals = [0] * len(self.resource_names)
        point = self._point_idx
        for i, x in enumerate(state):
            for r in point[i][x]:
                totals[r] += 1
        return totals

    def _steps(
        self, state: State, squares: bool = False, totals: Optional[list[int]] = None
    ) -> tuple[list[int], list[int], Optional[list[tuple[int, int]]]]:
        """The step table of an admissible ``state``: its point-use totals
        (``totals`` if given, else counted), the coordinates that may step
        (ascending), and, with ``squares`` (else None), the admissible squares
        as coordinate pairs (i, j), i < j.  A step holds its point's resources
        plus the one it acquires, so it is blocked iff that is full, and a
        square iff both acquire one resource with fewer than two free slots."""
        kappa = self.kappa
        tops = self.tops
        request = self._request_idx
        if totals is None:
            totals = self.use_totals(state)
        steps, asks = [], []
        for c, x in enumerate(state):
            if x < tops[c]:
                r = request[c][x]
                if r is None or totals[r] < kappa[r]:
                    steps.append(c)
                    asks.append(r)
        if not squares:
            return totals, steps, None
        table = []
        for b, rb in enumerate(asks):
            for a in range(b):
                if rb is None or asks[a] != rb or totals[rb] + 2 <= kappa[rb]:
                    table.append((steps[a], steps[b]))
        return totals, steps, table
