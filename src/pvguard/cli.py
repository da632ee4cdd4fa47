"""Command line front end.

Exit codes: 0 clean, 1 property violated, 2 input error, 3 search bound
exceeded, 4 inconclusive.  Machine output (--json) goes to stdout and is
byte-identical across reruns; progress and timing go to stderr.
"""
from __future__ import annotations

import argparse
import functools
import os
import re
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from typing import Optional, Sequence

from . import __version__
from .core import (
    CapacityMap,
    InvalidThreadError,
    ParseError,
    Program,
    PvError,
    SearchLimitExceeded,
    _NAME_RE,
    _count_text,
    _decimal,
)
from .deadlock import (
    _guard_paths,
    deadsharp_witness,
    family_deadlock_verdict,
    find_deadlocks,
    potential_deadlocks,
)
from .geometry import DEFAULT_MAX_STATES
from .parser import SourceModel, parse_source
from .serializability import (
    dihomotopy_classes,
    family_serializability_verdict,
    local_choice_points,
    sharpserializable_witness,
)
from . import report

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_OVERFLOW = 3
EXIT_INCONCLUSIVE = 4


def _read_source(path: str) -> bytes:
    if path == "-":
        if sys.stdin is None:  # `<&-` with the interpreter started directly
            raise OSError("standard input is not open")
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _load(path: str) -> tuple[bytes, SourceModel]:
    raw = _read_source(path)
    return raw, parse_source(raw.decode("utf-8-sig"))


def _pick(defs: dict, kind: str, name: Optional[str], none_hint: str, several_hint: str):
    """The definition named ``name``, else the only one, as (name, definition)."""
    if name is not None:
        if name not in defs:
            known = ", ".join(sorted(defs)) or "none"
            raise ValueError(f"no {kind} named {name!r} (defined: {known})")
        return name, defs[name]
    if len(defs) == 1:
        return next(iter(defs.items()))
    if not defs:
        raise ValueError(f"source defines no {kind}{none_hint}")
    known = ", ".join(sorted(defs))
    raise ValueError(f"several {kind}s defined ({known}); pick one{several_hint}")


def _load_program(args) -> tuple[bytes, str, Program]:
    """The source and the program a program command analyzes."""
    raw, model = _load(args.file)
    hint = "; add a 'program NAME = ...' line"
    name, program = _pick(model.programs, "program", args.program, hint, "")
    return raw, name, program


def _emit(args, command: str, source: bytes, result, text) -> None:
    """Print one rendering: ``result`` (the JSON result) and ``text`` (the
    text lines) are zero-argument callables, and only the printed one runs.
    A reader that closed stdout (``pvguard ... | head``) ends the printing
    quietly, and the command keeps its exit code."""
    if args.json:
        pieces = (report.dumps(report.envelope(command, source, result(), __version__)),)
    else:
        pieces = (f"{line}\n" for line in text())
    _write(sys.stdout, pieces, BrokenPipeError)


def _note(line: str) -> None:
    """Print one line to stderr.  A stderr that fails (a reader that closed
    it) drops the line, and the command keeps its exit code."""
    _write(sys.stderr, (f"{line}\n",), OSError)


def _write(stream, pieces, dropped) -> None:
    """Write ``pieces`` to ``stream`` and flush it.  A failure of type
    ``dropped`` drops the rest and points the stream at ``os.devnull``, so
    that later writes and the flush at interpreter exit have nowhere to fail;
    any other failure (a full disk) is the caller's."""
    try:
        for piece in pieces:
            stream.write(piece)
        stream.flush()
    except dropped:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def _cmd_check(args) -> int:
    raw, model = _load(args.file)

    def result():
        return {
            "valid": True,
            "resources": {r: model.caps[r] for r in model.caps.names},
            "threads": [
                {"name": nm, "actions": [a.mnemonic for a in t.actions], "length": t.length}
                for nm, t in model.threads.items()
            ],
            "programs": [{"name": nm, "threads": p.n} for nm, p in model.programs.items()],
        }

    def text():
        yield (
            f"ok: {len(model.caps)} resource(s), {len(model.threads)} thread(s), "
            f"{len(model.programs)} program(s)"
        )
        for r in model.caps.names:
            yield f"  resource {r} cap {model.caps[r]}"
        for nm, t in model.threads.items():
            yield f"  thread {nm}: {t} ({t.length} actions)"
        for nm, p in model.programs.items():
            yield f"  program {nm}: {p.n} thread(s), {_count_text(p.grid_states())} grid states"

    _emit(args, "check", raw, result, text)
    return EXIT_OK


def _cmd_deadlocks(args) -> int:
    raw, name, program = _load_program(args)
    if args.potential:
        hits = potential_deadlocks(program, args.max_states)

        def potential_result():
            return {
                "program": name,
                "potential_deadlocks": [report.state_json(program, s) for s in hits],
                "count": len(hits),
            }

        def potential_text():
            yield f"program {name}: {len(hits)} potential deadlock(s)"
            yield from (f"  {report.state_text(program, s)}" for s in hits)

        _emit(args, f"deadlocks --potential {name}", raw, potential_result, potential_text)
        return EXIT_VIOLATION if hits else EXIT_OK
    rep = find_deadlocks(program, args.max_states)

    def result():
        return {"program": name, **report.deadlock_report_json(program, rep)}

    def text():
        yield (
            f"program {name}: {len(rep.deadlocks)} deadlock(s), "
            f"{rep.stats.candidates} candidate(s), {rep.stats.visited} state(s) visited"
        )
        for d in rep.deadlocks:
            yield f"  deadlock {report.state_text(program, d.state)}"
            yield f"    via {report.path_text(program, d.witness)}"
        if program.n == 2:
            yield ""
            yield report.render_grid(
                program,
                marked=[d.state for d in rep.deadlocks],
                path=rep.deadlocks[0].witness if rep.deadlocks else None,
            )

    _emit(args, f"deadlocks {name}", raw, result, text)
    return EXIT_VIOLATION if rep.deadlocks else EXIT_OK


def _cmd_family(args) -> int:
    raw, model = _load(args.file)
    name, thread = _pick(model.threads, "thread", args.thread, "", " with --thread")
    if args.property == "deadlock":
        verdict = family_deadlock_verdict(thread, model.caps, args.max_states)
        shown = verdict.witnesses
    else:
        verdict = family_serializability_verdict(thread, model.caps, args.max_states)
        shown = verdict.choice_points
    if shown:
        # the verdict expands no state; the printed ones stay bounded as the
        # witness paths to them would be in `deadlocks` on the same instance
        _guard_paths(shown, args.max_states)

    def result():
        return {
            "thread": name,
            **report.family_verdict_json(verdict),
        }

    def text():
        yield (
            f"thread {name}, {verdict.property_name} for all copy counts: "
            f"{verdict.verdict}"
        )
        yield f"  rule: {verdict.rule} (cut-off {verdict.cutoff})"
        yield f"  {verdict.detail}"
        if verdict.manifests_at_n is not None:
            yield f"  manifests at n={verdict.manifests_at_n}"
        for w in verdict.witnesses:
            yield f"  witness {report.state_text(verdict.program, w)}"
        for cp in verdict.choice_points:
            yield (
                f"  choice point {report.state_text(verdict.program, cp.state)} "
                f"on {cp.resource}, contenders {[c + 1 for c in cp.contenders]}"
            )

    _emit(args, f"family {args.property} {name}", raw, result, text)
    return {"yes": EXIT_OK, "no": EXIT_VIOLATION}.get(verdict.verdict, EXIT_INCONCLUSIVE)


def _cmd_classes(args) -> int:
    raw, name, program = _load_program(args)
    rep = dihomotopy_classes(program, args.max_states)

    def result():
        return {"program": name, **report.class_report_json(program, rep)}

    def text():
        yield (
            f"program {name}: {rep.class_count} execution class(es), "
            f"{rep.serial_classes_covered} containing a serial execution"
        )
        yield f"  serializable: {'yes' if rep.serializable else 'no'}"
        for i, r in enumerate(rep.representatives, 1):
            steps = " ".join(str(c + 1) for c in r.steps())
            yield f"  class {i}: thread steps {steps}"

    _emit(args, f"classes {name}", raw, result, text)
    return EXIT_OK if rep.serializable else EXIT_VIOLATION


def _cmd_lcp(args) -> int:
    raw, name, program = _load_program(args)
    cps = local_choice_points(program, args.max_states)

    def result():
        return {
            "program": name,
            "choice_points": [report.choice_point_json(program, cp) for cp in cps],
            "count": len(cps),
        }

    def text():
        yield f"program {name}: {len(cps)} local choice point(s)"
        for cp in cps:
            yield (
                f"  {report.state_text(program, cp.state)} on {cp.resource}, "
                f"contenders {[c + 1 for c in cp.contenders]}, "
                f"{'reachable' if cp.reachable else 'unreachable'}"
            )

    _emit(args, f"lcp {name}", raw, result, text)
    return EXIT_VIOLATION if cps else EXIT_OK


_CAP_TOKEN = re.compile(rf"^({_NAME_RE.pattern}):(\d+)$")


def _parse_caps(tokens: Sequence[str]) -> CapacityMap:
    entries = []
    for tok in tokens:
        m = _CAP_TOKEN.match(tok)
        if m is None:
            raise ValueError(f"capacity {tok!r} not of the form name:count")
        entries.append((m.group(1), _decimal(m.group(2))))
    return CapacityMap(tuple(entries))


def _cmd_witness(args) -> int:
    caps = _parse_caps(args.capacities)
    if args.kind == "deadlock":
        plan = deadsharp_witness(caps)
    else:
        plan = sharpserializable_witness(caps)
    source = report.witness_source(plan)
    caps_str = ",".join(f"{r}:{caps[r]}" for r in caps.names)
    _emit(
        args,
        f"witness {args.kind} {caps_str}",
        source.encode("utf-8"),
        lambda: report.witness_plan_json(plan),
        lambda: [source.rstrip("\n")],
    )
    return EXIT_OK


def _default_max_states() -> int:
    raw = os.environ.get("PVGUARD_MAX_STATES")
    if raw is None:
        return DEFAULT_MAX_STATES
    try:
        return _positive_int(raw)
    except argparse.ArgumentTypeError as exc:
        shown = f"={raw!r}" if len(raw) <= 32 else f": {exc}"  # a long one, bounded
        _note(f"pvguard: ignoring invalid PVGUARD_MAX_STATES{shown}")
        return DEFAULT_MAX_STATES


def _positive_int(text: str) -> int:
    """argparse type of the search bounds: an integer of at least 1.  An
    error names a value of more than 32 characters by its first eight and
    its length, in ``_decimal``'s digit count where the value is a number."""
    try:
        value = _decimal(text) if text.isdecimal() else int(text)
    except ValueError as exc:
        shown = repr(text) if len(text) <= 32 else f"{text[:8]!r}... has {len(text)} characters"
        why = str(exc) if text.isdecimal() else f"invalid int value: {shown}"
        raise argparse.ArgumentTypeError(why) from None
    if value < 1:
        shown = str(value)
        if len(shown) > 32:
            shown = f"number {shown[:8]}... has {len(shown) - 1} digits"
        raise argparse.ArgumentTypeError(f"must be at least 1, got {shown}")
    return value


class _Parser(argparse.ArgumentParser):
    """An argument parser that keeps the actions its ``add_argument`` calls
    return (in ``declared``), from which ``_reader`` makes a reader table."""

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        vars(self).setdefault("declared", []).append(action)
        return action


def _reader(word: str, parser: _Parser) -> tuple:
    """The reader table of command ``word``, from its parser's declared
    actions: its positionals in order, its options by spelling, and the
    namespace of a call that gives no option.  Help (default ``SUPPRESS``)
    is left out, so ``-h`` is left to argparse."""
    declared = [a for a in parser.declared if a.default != argparse.SUPPRESS]
    options = {spelling: a for a in declared for spelling in a.option_strings}
    namespace = {a.dest: a.default for a in declared}
    namespace.update(func=parser.get_default("func"), command=word)
    return [a for a in declared if not a.option_strings], options, namespace


def _value(action: argparse.Action, word: str):
    """``word`` as ``action``'s value: through its ``type``, then checked
    against its ``choices``; raises where argparse's own check fails."""
    value = action.type(word) if action.type else word
    if action.choices is not None and value not in action.choices:
        raise ValueError(word)
    return value


def _read(reader: tuple, words: Sequence[str]) -> Optional[argparse.Namespace]:
    """The namespace argparse gives a command's ``words``, read from its
    reader table without an argparse pass; None, printing nothing, when the
    table does not decide every word.  It decides a call whose positionals
    (nargs None, ``?``, or a last ``+``) all come before its options, whose
    options are each spelled exactly and given at most once, whose store
    options' values do not start with ``-`` and pass their ``type`` and
    ``choices``, and which leaves no word over.  Every other call (help,
    abbreviations, ``--opt=value``, ``--``, errors) is argparse's to answer."""
    positionals, options, namespace = reader
    values, free, given = dict(namespace), [], set()
    words = iter(words)
    try:
        for word in words:
            action = options.get(word)
            if action is None:
                if word[:1] == "-" and word != "-" or given:
                    return None  # an option not spelled exactly, or a positional after one
                free.append(word)
            elif action.dest in given:
                return None
            else:
                given.add(action.dest)
                if action.nargs == 0:
                    values[action.dest] = action.const
                    continue
                value = next(words, "-")  # a missing value reads as an option word
                if value[:1] == "-":
                    return None
                values[action.dest] = _value(action, value)
        for action in positionals:
            if not free:
                if action.nargs != "?":
                    return None
            elif action.nargs == "+":
                values[action.dest], free = [_value(action, w) for w in free], []
            else:
                values[action.dest] = _value(action, free.pop(0))
        if free:
            return None
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    return argparse.Namespace(**values)


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, tuple]]:
    """The argument parser and the reader table of each command by command
    word, built on first use and shared by later calls."""
    top = _Parser(
        prog="pvguard",
        description="Static deadlock and serializability analysis for PV "
        "(semaphore) programs.",
    )
    top.add_argument("--version", action="version", version=f"pvguard {__version__}")
    sub = top.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def common(p):
        p.add_argument("file", help="PV source file, or - for stdin")
        p.add_argument("--json", action="store_true", help="machine output")
        p.add_argument(
            "--max-states",
            type=_positive_int,
            default=None,
            help=f"search bound (default {DEFAULT_MAX_STATES:,}; also via "
            "PVGUARD_MAX_STATES)",
        )

    p = sub.add_parser("check", help="parse and validate a source file")
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("deadlocks", help="find deadlocks of a program")
    common(p)
    p.add_argument("program", nargs="?", help="program name (default: the only one)")
    p.add_argument(
        "--potential",
        action="store_true",
        help="list potential deadlocks (no reachability search)",
    )
    p.set_defaults(func=_cmd_deadlocks)

    p = sub.add_parser("family", help="verdict for every number of thread copies")
    common(p)
    p.add_argument("property", choices=["deadlock", "serializability"])
    p.add_argument("--thread", help="thread name (default: the only one)")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("classes", help="execution classes up to square swaps")
    common(p)
    p.add_argument("program", nargs="?", help="program name (default: the only one)")
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("lcp", help="find local choice points of a program")
    common(p)
    p.add_argument("program", nargs="?", help="program name (default: the only one)")
    p.set_defaults(func=_cmd_lcp)

    p = sub.add_parser("witness", help="generate a cut-off tightness witness")
    p.add_argument("kind", choices=["deadlock", "lcp"])
    p.add_argument(
        "capacities",
        nargs="+",
        metavar="NAME:CAP",
        help="resources in order, e.g. a:1 b:1",
    )
    p.add_argument("--json", action="store_true", help="machine output")
    p.set_defaults(func=_cmd_witness)

    return top, {word: _reader(word, p) for word, p in sub.choices.items()}


def main(argv: Optional[Sequence[str]] = None) -> int:
    if None in (sys.stdout, sys.stderr):
        # a stream that was never open (`>&-`, `2>&-`) is a sink for this
        # call, so nothing meant for it (the rendering, the `pvguard:` lines,
        # argparse's usage, help and version text) lands on the other one
        with open(os.devnull, "w", encoding="utf-8") as sink:
            with redirect_stdout(sys.stdout or sink), redirect_stderr(sys.stderr or sink):
                return _main(argv)
    return _main(argv)


def _main(argv: Optional[Sequence[str]]) -> int:
    top, readers = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # a call its command's reader table decides runs no argparse pass; any
    # other call goes to the top parser alone, so usage lines, errors and
    # exit codes stay argparse's
    reader = readers.get(argv[0]) if argv else None
    args = _read(reader, argv[1:]) if reader else None
    if args is None:
        args = top.parse_args(argv)
    # the parser is shared by every call, so the environment is read here
    if getattr(args, "max_states", 0) is None:
        args.max_states = _default_max_states()
    started = time.perf_counter()
    try:
        return args.func(args)
    except SearchLimitExceeded as exc:
        _note(f"pvguard: {exc}")
        return EXIT_OVERFLOW
    except (ParseError, InvalidThreadError) as exc:
        _note(f"pvguard: {getattr(args, 'file', '')}: {exc}")
        return EXIT_INPUT
    except (OSError, ValueError, PvError) as exc:
        _note(f"pvguard: {exc}")
        return EXIT_INPUT
    finally:
        elapsed = (time.perf_counter() - started) * 1000.0
        _note(f"pvguard: {args.command} finished in {elapsed:.1f} ms")


if __name__ == "__main__":
    sys.exit(main())
