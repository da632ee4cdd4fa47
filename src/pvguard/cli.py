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
    quietly, and the command keeps its exit code: stdout is pointed at
    ``os.devnull``, so the flush at interpreter exit has nowhere to fail."""
    try:
        if args.json:
            env = report.envelope(command, source, result(), __version__)
            sys.stdout.write(report.dumps(env))
        else:
            for line in text():
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
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
        print(f"pvguard: ignoring invalid PVGUARD_MAX_STATES{shown}", file=sys.stderr)
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


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and its command parsers by command word, built on
    first use and shared by later calls."""
    top = argparse.ArgumentParser(
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

    for word, p in sub.choices.items():
        p.set_defaults(command=word)
    return top, sub.choices


def main(argv: Optional[Sequence[str]] = None) -> int:
    top, commands = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # one parse: a command word goes straight to its own parser; anything
    # else, and any words that parser leaves over, to the top parser, so
    # usage lines, errors and exit codes stay the top parser's
    command = commands.get(argv[0]) if argv else None
    args, rest = command.parse_known_args(argv[1:]) if command else (None, None)
    if command is None or rest:
        args = top.parse_args(argv)
    # the parser is shared by every call, so the environment is read here
    if getattr(args, "max_states", 0) is None:
        args.max_states = _default_max_states()
    started = time.perf_counter()
    try:
        return args.func(args)
    except SearchLimitExceeded as exc:
        print(f"pvguard: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except (ParseError, InvalidThreadError) as exc:
        print(f"pvguard: {getattr(args, 'file', '')}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, ValueError, PvError) as exc:
        print(f"pvguard: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        elapsed = (time.perf_counter() - started) * 1000.0
        print(f"pvguard: {args.command} finished in {elapsed:.1f} ms", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
