"""Parser for the PV source language.

The language is line oriented, UTF-8, with ``#`` comments:

    resource <name> cap <int>          # capacity >= 1, decimal digits
    thread <Name> = <tok> <tok> ...    # tok = P<name> | V<name>; "P a" also ok
    program <Name> = <T>(^<k>)? ( '|' <T>(^<k>)? )*    # at most 10,000 threads

Resource declarations may appear anywhere in the file; threads and programs
must be declared before they are referenced.  Errors carry 1-based line and
column positions.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from .core import (
    Action,
    ActionSyntaxError,
    CapacityMap,
    InvalidThreadError,
    ParseError,
    Program,
    Thread,
    _MAX_THREADS,
    _NAME_RE,
    _action_offset,
    _decimal,
    _scan_actions,
)

_NAME = _NAME_RE.pattern
# one group per token kind, numbered as the kinds below, and a catch-all
# that stops the scan at text no token starts
_PROGRAM_TOKEN_RE = re.compile(rf"\s*(?:({_NAME})|(\^)|(\|)|(\d+)|(?=\S))")
_THREAD, _CARET, _BAR, _COUNT = 1, 2, 3, 4
_NAMED = 0  # a thread name read, its copy count not yet
_RESOURCE_RE = re.compile(r"\s*resource\b")
_RESOURCE_BODY_RE = re.compile(rf"\s*({_NAME})\s+cap\s+(\S+)\s*$")
_DECLARATION_RE = re.compile(rf"\s*(thread|program)\s+({_NAME})\s*=\s*")


@dataclass
class SourceModel:
    """Everything declared in one source file."""

    caps: CapacityMap
    threads: dict[str, Thread] = field(default_factory=dict)
    programs: dict[str, Program] = field(default_factory=dict)


def _parse_resource_line(body: str, lineno: int, offset: int) -> tuple[str, int]:
    m = _RESOURCE_BODY_RE.match(body)
    if not m:
        raise ParseError("expected 'resource <name> cap <int>'", lineno, offset + 1)
    name, cap_text = m.group(1), m.group(2)
    col = offset + m.start(2) + 1
    cap = _number(cap_text, lineno, col) if cap_text.isdecimal() else 0
    if cap < 1:
        raise ParseError(
            f"capacity of {name!r} must be an integer >= 1, got {cap_text!r}", lineno, col
        )
    return name, cap


def _number(text: str, lineno: int, col: int) -> int:
    """The value of the decimal digits ``text``, its error located."""
    try:
        return _decimal(text)
    except ValueError as exc:
        raise ParseError(str(exc), lineno, col) from None


def _parse_thread_actions(
    body: str, caps: CapacityMap, lineno: int, offset: int, built: dict[str, Action]
) -> list[Action]:
    """The actions of a thread body; ``built`` holds the actions the source
    has built so far, each checked against the declared resources once
    (``_scan_actions``)."""
    try:
        actions = _scan_actions(body, built, caps._table)
    except ActionSyntaxError as exc:
        raise ParseError(str(exc), lineno, offset + exc.offset + 1) from None
    if not actions:
        raise ParseError("thread needs at least one action after '='", lineno, offset + 1)
    return actions


def _add_copies(threads: list[Thread], thread: Thread, count: int, lineno: int, col: int) -> None:
    """Append ``count`` copies of ``thread``, checking the thread bound first."""
    if len(threads) + count > _MAX_THREADS:
        raise ParseError(f"a program has at most {_MAX_THREADS} threads", lineno, col)
    threads.extend([thread] * count)


def _parse_program_expr(
    body: str, model: SourceModel, lineno: int, offset: int
) -> tuple[Thread, ...]:
    """The threads of a program expression, read in one pass over its
    tokens; ``expect`` is the token kind the reader waits for: a thread
    name, ``^`` or ``|`` after a name (``_NAMED``), a count, or ``|``."""
    threads: list[Thread] = []
    expect = _THREAD
    for m in _PROGRAM_TOKEN_RE.finditer(body):
        kind = m.lastindex  # None: text no token starts, a catch-all match
        if expect == _NAMED:
            if kind == _CARET:
                expect = _COUNT
                continue
            _add_copies(threads, named, 1, lineno, named_col)
            expect = _BAR
        if expect == _COUNT:
            if kind != _COUNT:
                raise ParseError("expected an integer after '^'", lineno, offset + m.start() + 1)
            col = offset + m.start(kind) + 1
            count = _number(m.group(kind), lineno, col)
            if count < 1:
                raise ParseError("copy count must be >= 1", lineno, col)
            _add_copies(threads, named, count, lineno, col)
            expect = _BAR
            continue
        if kind is None:
            raise ParseError(
                f"unexpected text {body[m.start() :].strip()!r} in program expression",
                lineno,
                offset + m.start() + 1,
            )
        tok, col = m.group(kind), offset + m.start(kind) + 1
        if expect == _BAR:
            if kind != _BAR:
                raise ParseError(f"expected '|' between threads, got {tok!r}", lineno, col)
            expect = _THREAD
        elif kind != _THREAD:
            raise ParseError(f"expected a thread name, got {tok!r}", lineno, col)
        elif tok not in model.threads:
            raise ParseError(f"unknown thread name {tok!r}", lineno, col)
        else:
            named, named_col = model.threads[tok], col
            expect = _NAMED
    if expect == _NAMED:
        _add_copies(threads, named, 1, lineno, named_col)
    elif expect != _BAR:  # located just past the last token
        end = offset + len(body.rstrip()) + 1
        if expect == _COUNT:
            raise ParseError("expected an integer after '^'", lineno, end)
        raise ParseError("program expression ended early", lineno, end)
    return tuple(threads)


def parse_source(text: str) -> SourceModel:
    """Parse a complete source file into capacities, threads and programs."""
    # Resources first: capacities are immutable per file and threads may be
    # declared above the resource block in hand-written files.  The same pass
    # strips comments and keeps the other nonblank lines for the second.
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
    caps = CapacityMap(tuple(entries))

    model = SourceModel(caps=caps)
    built: dict[str, Action] = {}  # each distinct action of this source, built once
    for lineno, line in declarations:
        m = _DECLARATION_RE.match(line)
        if not m:
            word = line.split()[0]
            raise ParseError(f"unknown declaration {word!r}", lineno, line.index(word) + 1)
        keyword, name = m.group(1), m.group(2)
        body = line[m.end() :]
        offset = m.end()
        if keyword == "thread":
            if name in model.threads:
                raise ParseError(f"duplicate thread name {name!r}", lineno, 1)
            actions = _parse_thread_actions(body, caps, lineno, offset, built)
            try:
                model.threads[name] = Thread(tuple(actions))
            except InvalidThreadError as exc:  # unknown resources raised above
                first = exc.violations[0]
                col = offset + _action_offset(body, first.position - 1) + 1
                raise ParseError(f"invalid thread {name!r}: {first}", lineno, col) from None
        else:
            if name in model.programs:
                raise ParseError(f"duplicate program name {name!r}", lineno, 1)
            threads = _parse_program_expr(body, model, lineno, offset)
            model.programs[name] = Program(threads, caps)
    return model
