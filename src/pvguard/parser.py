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
    _decimal,
    _scan_actions,
)

_NAME = _NAME_RE.pattern
_PROGRAM_TOKEN_RE = re.compile(rf"\s*({_NAME}|\^|\||\d+)")
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
) -> tuple[list[Action], list[int]]:
    """The actions of a thread body plus the column of each; ``built`` holds
    the actions the source has built so far (``_scan_actions``)."""
    actions: list[Action] = []
    columns: list[int] = []
    try:
        for action, at in _scan_actions(body, built):
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


def _parse_program_expr(
    body: str, model: SourceModel, lineno: int, offset: int
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
            if tok not in model.threads:
                raise ParseError(f"unknown thread name {tok!r}", lineno, col)
            current = model.threads[tok]
            # optional ^<count>
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
            actions, columns = _parse_thread_actions(body, caps, lineno, offset, built)
            try:
                model.threads[name] = Thread(tuple(actions))
            except InvalidThreadError as exc:  # unknown resources raised above
                first = exc.violations[0]
                col = columns[first.position - 1] if first.position <= len(actions) else offset + 1
                raise ParseError(f"invalid thread {name!r}: {first}", lineno, col) from None
        else:
            if name in model.programs:
                raise ParseError(f"duplicate program name {name!r}", lineno, 1)
            threads = _parse_program_expr(body, model, lineno, offset)
            model.programs[name] = Program(threads, caps)
    return model
