"""Deterministic report rendering.

All machine output is JSON with sorted keys; states are arrays of
{thread, position, action} objects with 1-based thread numbers.  Nothing
time- or environment-dependent goes to stdout: identical input and command
must produce byte-identical payloads.
"""
from __future__ import annotations

import hashlib
import json
from typing import Optional, Sequence

from .core import BOTTOM_LABEL, TOP_LABEL, Program, State, Thread
from .deadlock import DeadlockReport, FamilyVerdict, WitnessPlan
from .geometry import LatticePath, state_admissible
from .serializability import ChoicePoint, ClassReport

TOOL = "pvguard"


def _position_action(thread: Thread, position: int) -> str:
    if position == 0:
        return BOTTOM_LABEL
    if position == thread.top:
        return TOP_LABEL
    act = thread.action_at(position)
    assert act is not None
    return act.mnemonic


def state_json(program: Program, state: State) -> list[dict]:
    return [
        {
            "thread": i + 1,
            "position": pos,
            "action": _position_action(program.threads[i], pos),
        }
        for i, pos in enumerate(state)
    ]


def path_json(program: Program, path: LatticePath) -> list[list[dict]]:
    return [state_json(program, s) for s in path.states]


def state_text(program: Program, state: State) -> str:
    inner = ", ".join(str(p) for p in state)
    labels = " ".join(
        f"{i + 1}:{_position_action(program.threads[i], p)}"
        for i, p in enumerate(state)
    )
    return f"({inner})  [{labels}]"


def path_text(program: Program, path: LatticePath) -> str:
    return " -> ".join("(" + ",".join(str(p) for p in s) + ")" for s in path.states)


def deadlock_report_json(program: Program, report: DeadlockReport) -> dict:
    return {
        "deadlocks": [
            {
                "state": state_json(program, d.state),
                "witness": path_json(program, d.witness),
            }
            for d in report.deadlocks
        ],
        "potential_deadlocks": [
            state_json(program, s) for s in report.potential_deadlocks
        ],
        "stats": {
            "threads": report.stats.threads,
            "grid_states": report.stats.grid_states,
            "candidates": report.stats.candidates,
            "visited": report.stats.visited,
            "max_states": report.stats.max_states,
        },
    }


def choice_point_json(program: Program, cp: ChoicePoint) -> dict:
    return {
        "state": state_json(program, cp.state),
        "resource": cp.resource,
        "contenders": [c + 1 for c in cp.contenders],
        "reachable": cp.reachable,
    }


def class_report_json(program: Program, report: ClassReport) -> dict:
    return {
        "class_count": report.class_count,
        "serial_classes_covered": report.serial_classes_covered,
        "serializable": report.serializable,
        "representatives": [
            [c + 1 for c in rep.steps()] for rep in report.representatives
        ],
    }


def family_verdict_json(verdict: FamilyVerdict) -> dict:
    return {
        "property": verdict.property_name,
        "verdict": verdict.verdict,
        "cutoff": verdict.cutoff,
        "rule": verdict.rule,
        "detail": verdict.detail,
        "manifests_at_n": verdict.manifests_at_n,
        "witnesses": [state_json(verdict.program, w) for w in verdict.witnesses],
        "choice_points": [choice_point_json(verdict.program, cp) for cp in verdict.choice_points],
    }


def witness_plan_json(plan: WitnessPlan) -> dict:
    return {
        "kind": plan.kind,
        "capacities": {r: plan.caps[r] for r in plan.caps.names},
        "thread": [a.mnemonic for a in plan.thread.actions],
        "cutoff": plan.cutoff,
        "instance_n": plan.instance_n,
        "expected_state": list(plan.expected_state),
        "expected_resource": plan.expected_resource,
        "source": witness_source(plan),
    }


def witness_source(plan: WitnessPlan) -> str:
    """A loadable source whose `main` program exhibits the expected finding."""
    lines = [f"# generated {plan.kind} witness, analyze program main"]
    for r in plan.caps.names:
        lines.append(f"resource {r} cap {plan.caps[r]}")
    lines.append(f"thread T = {' '.join(a.mnemonic for a in plan.thread.actions)}")
    lines.append(f"program main = T^{plan.instance_n}")
    expected = "(" + ",".join(str(p) for p in plan.expected_state) + ")"
    lines.append(f"# expected: {plan.kind} at {expected}")
    return "\n".join(lines) + "\n"


def envelope(command: str, source: bytes, result: dict, version: str) -> dict:
    return {
        "tool": TOOL,
        "version": version,
        "command": command,
        "source_digest": hashlib.sha256(source).hexdigest(),
        "result": result,
    }


_encode_str = json.encoder.encode_basestring  # the C encoder when available
_INFINITY = float("inf")


def dumps(obj) -> str:
    """The bytes of ``json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=False)`` plus a newline, without the pure-Python encoder
    that ``indent`` selects in :mod:`json`: the pieces go into one list,
    joined once.  Raises :class:`TypeError` on a value JSON cannot carry and
    on a dict key that is not a string."""
    pieces: list[str] = []
    if isinstance(obj, (list, tuple, dict)):
        _encode(obj, "\n", pieces.append)
    else:
        pieces.append(_scalar(obj))
    pieces.append("\n")
    return "".join(pieces)


def _scalar(value) -> str:
    """JSON text of a value that is not a list, tuple or dict, as
    :mod:`json` writes it (subclasses of int and float print as the base)."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        try:
            return int.__repr__(value)
        except ValueError:  # past the int-to-str digit limit, which decimal does not apply
            from decimal import Decimal
            return str(Decimal(int(value)))
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INFINITY:
            return "Infinity"
        if value == -_INFINITY:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _encode(obj, newline: str, add) -> None:
    """Append the pieces of the list, tuple or dict ``obj`` through ``add``;
    ``newline`` is the line break plus the indent of the line ``obj`` opens
    on.  One loop writes the items of both, a dict's each after its key.
    Strings and ints, the bulk of a report, are written inline; other
    scalars go through :func:`_scalar`, containers recurse."""
    keyed = isinstance(obj, dict)
    items, brackets = (sorted(obj.items()), "{}") if keyed else (obj, "[]")
    if not items:
        add(brackets)
        return
    inner = newline + "  "
    comma = "," + inner
    sep = brackets[0] + inner
    for value in items:
        add(sep)
        sep = comma
        if keyed:
            key, value = value
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            add(_encode_str(key))
            add(": ")
        if type(value) is str:
            add(_encode_str(value))
        elif type(value) is int:
            try:
                add(int.__repr__(value))
            except ValueError:  # past the int-to-str digit limit
                add(_scalar(value))
        elif isinstance(value, (list, tuple, dict)):
            _encode(value, inner, add)
        else:
            add(_scalar(value))
    add(newline + brackets[1])


_GRID_PICTURE_STATES = 10_000  # the most states a grid picture draws


def render_grid(
    program: Program,
    marked: Sequence[State] = (),
    path: Optional[LatticePath] = None,
) -> str:
    """ASCII picture of a 2-thread program: thread 1 along x, thread 2 along
    y.  `#` inadmissible state, `X` marked state, `*` path state, `.` other.
    Display only; the open forbidden boxes are drawn via the states they
    exclude, so capacity-1 single-step holds may not show as blocks.  A
    grid of more than ``_GRID_PICTURE_STATES`` states is not drawn: one line
    names its size instead."""
    if program.n != 2:
        raise ValueError("grid rendering needs exactly 2 threads")
    top1, top2 = program.tops
    if (top1 + 1) * (top2 + 1) > _GRID_PICTURE_STATES:
        return (
            f"grid of {top1 + 1} x {top2 + 1} states not drawn: "
            f"a picture shows at most {_GRID_PICTURE_STATES}"
        )
    marked_set = set(marked)
    on_path = set(path.states) if path is not None else set()
    rows = []
    for y in range(top2, -1, -1):
        cells = []
        for x in range(top1 + 1):
            s = (x, y)
            if s in marked_set:
                cells.append("X")
            elif not state_admissible(program, s):
                cells.append("#")
            elif s in on_path:
                cells.append("*")
            else:
                cells.append(".")
        rows.append(f"{y:>3} " + " ".join(cells))
    xs = " ".join(str(x % 10) for x in range(top1 + 1))
    rows.append("    " + xs)
    legend = "X marked  # forbidden  * witness path  (thread 1 ->, thread 2 ^)"
    return "\n".join(rows + [legend])
