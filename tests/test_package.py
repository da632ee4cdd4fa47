"""Package surface: the public names, the shipped demos, and the one search."""

import ast
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pvguard
from pvguard import DEFAULT_MAX_STATES, Program, ReachabilityIndex, deadsharp_witness
from pvguard import deadlock, geometry, serializability

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pvguard"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Reference oracles kept in tests/conftest.py, deleted functions, and a
# helper made private; none of them belongs to the library surface.
NOT_EXPORTED = {
    "ExtendedRectangle",
    "Schedule",
    "concat_threads",
    "connectivity_serializable",
    "deadlock_candidates",
    "dihomotopy_classes_by_enumeration",
    "edge_admissible",
    "extended_rectangle",
    "is_local_choice_point",
    "is_potential_deadlock",
    "lcp_definition_check",
    "lcp_to_potential_deadlock",
    "leg_coords",
    "level_dp_classes",
    "path_obeys",
    "path_schedule",
    "point_use",
    "potential_deadlock_certificate",
    "reachable",
    "reachable_states",
    "rectangle_contains",
    "scatter_state",
    "schedule_feasible",
    "schedules",
    "segment_use",
    "serial_orders",
    "serial_path",
    "square_admissible",
}


def test_all_names_resolve():
    assert len(pvguard.__all__) == len(set(pvguard.__all__))
    for name in pvguard.__all__:
        assert hasattr(pvguard, name), name


def test_oracles_are_not_exported():
    assert NOT_EXPORTED.isdisjoint(pvguard.__all__)
    for name in NOT_EXPORTED:
        assert not hasattr(pvguard, name), name


def loaded_names(tree: ast.AST, attributes_only: bool = False) -> set[str]:
    """The names a module reads: attribute names, and bare names unless
    ``attributes_only``."""
    kinds = ast.Attribute if attributes_only else (ast.Name, ast.Attribute)
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, kinds) and isinstance(node.ctx, ast.Load)
    }


def exported_members(tree: ast.AST) -> set[tuple[str, str]]:
    """(class, member) for each non-dunder function or property defined in
    the body of an exported class."""
    return {
        (cls.name, fn.name)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name in pvguard.__all__
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (fn.name.startswith("__") and fn.name.endswith("__"))
    }


def test_every_export_has_a_user():
    # every public name is read by the package beyond its own definition and
    # __init__, or by a demo; every member of an exported class is read as an
    # attribute there (a bare name is no read of a member: demo 02 has a
    # local ``label``), so members only tests read live in tests/conftest.py
    used, attributes, members = set(), set(), set()
    for path in [*PACKAGE.glob("*.py"), *DEMOS]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name != "__init__.py":
            used |= loaded_names(tree)
        attributes |= loaded_names(tree, attributes_only=True)
        members |= exported_members(tree)
    assert sorted(set(pvguard.__all__) - used) == []
    assert sorted(f"{c}.{m}" for c, m in members if m not in attributes) == []


def test_demos_are_present():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def takes_front(node) -> bool:
    """``q.popleft()`` or ``q.pop(0)``."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    if node.func.attr == "popleft":
        return True
    return node.func.attr == "pop" and [ast.dump(a) for a in node.args] == [
        ast.dump(ast.Constant(0))
    ]


def test_one_breadth_first_search():
    # a breadth-first search is a loop that takes states off a queue's front;
    # ReachabilityIndex._search is the only one, the ceiling included
    loops = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(node.name, node) for node in tree.body if isinstance(node, ast.ClassDef)]
        scopes.append(("", tree))
        for prefix, scope in scopes:
            for fn in scope.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = f"{prefix}.{fn.name}" if prefix else fn.name
                for loop in ast.walk(fn):
                    if isinstance(loop, ast.While) and any(
                        takes_front(call) for call in ast.walk(loop)
                    ):
                        loops.append(f"{path.stem}.{name}")
    assert loops == ["deadlock.ReachabilityIndex._search"]


def test_one_counted_cap_check():
    # a cap message that says how many were needed is built in core._bound,
    # the one comparison of a counted cap; the caps that print no count
    # (grid states, enumerated paths, execution class pairs) raise directly
    builders = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(fn):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == "SearchLimitExceeded"
                    and any(
                        isinstance(text, ast.Constant) and "needed" in str(text.value)
                        for arg in call.args for text in ast.walk(arg)
                    )
                ):
                    builders.add(f"{path.stem}.{fn.name}")
    assert sorted(builders) == ["core._bound"]


def calls_itself(fn) -> bool:
    """Does ``fn`` call its own name, bare or, in a method, through
    ``self`` or ``cls``?"""
    for call in ast.walk(fn):
        if isinstance(call, ast.Call):
            f = call.func
            if isinstance(f, ast.Name) and f.id == fn.name:
                return True
            if (
                isinstance(f, ast.Attribute)
                and f.attr == fn.name
                and isinstance(f.value, ast.Name)
                and f.value.id in ("self", "cls")
            ):
                return True
    return False


def test_no_function_calls_itself():
    # the candidate sweep, the sub-program enumerator and the path walker
    # keep their choices on explicit stacks, so no thread count ends in a
    # RecursionError; report._encode recurses once per level of nesting of
    # a report, which pvguard's own report shapes fix
    recursive = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and calls_itself(fn):
                recursive.append(f"{path.stem}.{fn.name}")
    assert recursive == ["report._encode"]


def test_folded_engines_skip_per_state_checks(monkeypatch):
    # the search and both sieves build group-sorted states themselves: no
    # state re-check, no successor list, no re-sorting of successors
    caps = pvguard.CapacityMap((("a", 3), ("b", 3), ("c", 2)))
    program = Program.power(deadsharp_witness(caps).thread, 8, caps)

    def forbidden(*args, **kwargs):
        raise AssertionError("called from a folded engine")

    monkeypatch.setattr(Program, "check_state", forbidden)
    # the group sort behind the index's state queries and the view's ``in``
    monkeypatch.setattr(deadlock, "_canon", forbidden)
    for module in (geometry, deadlock, serializability):
        # raising=False: serializability does not import it
        monkeypatch.setattr(module, "successors", forbidden, raising=False)
    assert ReachabilityIndex(program).visited == 13408
    assert len(pvguard.potential_deadlocks(program)) == 560
    # ReachabilityIndex checks and sorts its targets, so the choice-point
    # sweep is read without the flag search
    hits = deadlock._hit_orbits(program, serializability._one_short, 1, DEFAULT_MAX_STATES)
    view = deadlock.OrbitView(program._groups, hits)
    assert len(tuple(view)) == len(view) == 8960


def test_class_dp_reads_per_state_tables(monkeypatch):
    # the class DP tables steps and squares once per local configuration
    # and follows serial executions as a frontier: no state re-check,
    # successor list or serial-order enumeration, and no union-find of
    # payloads
    def forbidden(*args, **kwargs):
        raise AssertionError("called from the class DP")

    monkeypatch.setattr(Program, "check_state", forbidden)
    for module in (geometry, serializability):
        monkeypatch.setattr(module, "successors", forbidden, raising=False)
    monkeypatch.setattr(itertools, "permutations", forbidden)
    assert not hasattr(serializability, "_Unions")
    pv = pvguard.Thread.from_text("Pa Va")
    report = pvguard.dihomotopy_classes(
        Program.power(pv, 4, pvguard.CapacityMap((("a", 1),)))
    )
    assert (report.class_count, report.serial_classes_covered) == (24, 24)
    wit = pvguard.Thread.from_text("Pa Pb Va Pa Vb Va Pa Va")
    caps = pvguard.CapacityMap((("a", 2), ("b", 2)))
    report = pvguard.dihomotopy_classes(Program.power(wit, 3, caps))
    assert (report.class_count, report.serial_classes_covered) == (1, 1)
