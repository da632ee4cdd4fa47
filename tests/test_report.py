"""``report.dumps`` against the standard library encoder it replaces, and the
grid picture's thread count and size limit."""
import decimal
import json
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvguard import (
    CapacityMap,
    Program,
    Thread,
    deadsharp_witness,
    dihomotopy_classes,
    family_deadlock_verdict,
    family_serializability_verdict,
    find_deadlocks,
    local_choice_points,
    report,
    sharpserializable_witness,
)


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


# quotes, backslashes, control characters, DEL, non-ASCII, astral and the
# line separators that JavaScript treats as line breaks
TRICKY = '"\\/\b\f\n\r\t\x00\x01\x1f\x7f é☃\u2028\u2029\U0001f600'
EDGE_FLOATS = [0.0, -0.0, 1e16, 1e-7, 1.5, -2.25, 1e308, 5e-324,
               math.nan, math.inf, -math.inf]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**63, -(2**63) - 1, 10**40, -(10**40)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(EDGE_FLOATS),
    st.text(),
    st.text(alphabet=st.sampled_from(TRICKY)),
)
keys = st.one_of(st.text(max_size=4), st.text(alphabet=st.sampled_from(TRICKY), max_size=4))
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(keys, inner, max_size=5),
    ),
    max_leaves=40,
)


@given(values)
@settings(max_examples=400)
def test_dumps_matches_json(value):
    assert report.dumps(value) == reference(value)


def unlimited_reference(obj) -> str:
    """``reference`` with the interpreter's int-to-str digit limit lifted:
    ``dumps`` writes every digit of an int past it."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Python 3.10: no limit
        return reference(obj)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return reference(obj)
    finally:
        sys.set_int_max_str_digits(limit)


BIG = 10**5000  # past the default digit limit of 4,300
NON_STR_KEY = {1: "int key"}  # json writes the key as a string; dumps refuses it


@pytest.mark.parametrize("value", [
    *EDGE_FLOATS, True, False, None, 0, -1, 2**100, -(2**100), "", TRICKY,
    [], (), {}, [[]], {"": {}}, [(), [()], {"a": []}],
    {"b": 1, "a": [1.0, "x", None], "é": {"z": True, "y": (2, -0.0)}},
    pytest.param(BIG, id="10**5000"), pytest.param(-BIG, id="-10**5000"), NON_STR_KEY,
], ids=repr)
def test_dumps_matches_json_on_edge_values(value):
    # one loop writes a dict's values and a list's items: each value goes
    # alone, first and later in a dict, and first and later in a list
    for obj in (value, {"a": value, "b": value}, [value, value]):
        if value is NON_STR_KEY:
            with pytest.raises(TypeError, match="keys must be str, not int"):
                report.dumps(obj)
        else:
            assert report.dumps(obj) == unlimited_reference(obj)


class Tagged(int):
    pass


class Ratio(float):
    pass


class Name(str):
    pass


def test_dumps_writes_subclasses_as_their_base():
    value = {Name("k"): [Tagged(3), Ratio(0.5), Name("v")], "l": [True, Tagged(-7)]}
    assert report.dumps(value) == reference(value)


def matches_or_type_error(value) -> None:
    """``dumps`` either gives ``json``'s bytes or raises TypeError."""
    try:
        got = report.dumps(value)
    except TypeError:
        return
    assert got == reference(value)


odd_keys = st.one_of(st.integers(), st.floats(), st.booleans(), st.none(),
                     st.tuples(st.integers()), st.text(max_size=3))
odd_values = st.one_of(scalars, st.sampled_from(
    [object(), {1, 2}, frozenset(), b"raw", 1j, decimal.Decimal("1.5"), range(3)]))


@given(st.recursive(
    odd_values,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(odd_keys, inner, max_size=4)),
    max_leaves=12,
))
@settings(max_examples=300)
def test_dumps_matches_json_or_raises_type_error(value):
    matches_or_type_error(value)


@pytest.mark.parametrize("value", [
    {1: "int key"}, {None: 0}, {1.5: 0}, {True: 0}, {(1,): 0}, {"a": 0, 1: 0},
], ids=repr)
def test_dumps_non_string_keys(value):
    matches_or_type_error(value)


@pytest.mark.parametrize("value", [
    # repr(object()) holds a memory address; fixed ids keep the case names stable
    pytest.param(object(), id="object()"), pytest.param([object()], id="[object()]"),
    {"a": {1, 2}}, b"raw", {"a": [decimal.Decimal("1")]},
], ids=repr)
def test_dumps_unknown_types_raise_type_error(value):
    with pytest.raises(TypeError):
        reference(value)
    with pytest.raises(TypeError):
        report.dumps(value)


K = CapacityMap((("a", 1), ("b", 1), ("c", 1)))
RING = Thread.from_text("Pa Pb Va Pc Vb Pa Vc Va")
K22 = CapacityMap((("a", 2), ("b", 2)))
WIT = Thread.from_text("Pa Pb Va Pa Vb Va Pa Va")


SHAPES = ["deadlocks", "deadlocks-mixed", "lcp", "classes", "family-deadlock",
          "family-serializability", "witness-deadlock", "witness-lcp", "path", "state"]


@pytest.fixture(scope="module")
def envelopes():
    """Every ``report.*_json`` result on small programs, each in an envelope."""
    ring = Program.power(RING, 3, K)
    wit = Program.power(WIT, 3, K22)
    mixed = Program((RING, Thread.from_text("Pc Pb Vb Vc"), RING), K)
    deadlocks = find_deadlocks(ring)
    assert deadlocks.deadlocks
    choice_points = local_choice_points(wit)
    assert choice_points
    results = {
        "deadlocks": report.deadlock_report_json(ring, deadlocks),
        "deadlocks-mixed": report.deadlock_report_json(mixed, find_deadlocks(mixed)),
        "lcp": [report.choice_point_json(wit, cp) for cp in choice_points],
        "classes": report.class_report_json(ring, dihomotopy_classes(ring)),
        "family-deadlock": report.family_verdict_json(family_deadlock_verdict(RING, K)),
        "family-serializability": report.family_verdict_json(
            family_serializability_verdict(WIT, K22)),
        "witness-deadlock": report.witness_plan_json(deadsharp_witness(K22)),
        "witness-lcp": report.witness_plan_json(sharpserializable_witness(K22)),
        "path": report.path_json(ring, deadlocks.deadlocks[0].witness),
        "state": report.state_json(ring, ring.top),
    }
    assert sorted(results) == sorted(SHAPES)
    return {name: report.envelope(name, b"source", result, "0")
            for name, result in results.items()}


@pytest.mark.parametrize("shape", SHAPES)
def test_dumps_matches_json_on_every_report_shape(envelopes, shape):
    assert report.dumps(envelopes[shape]) == reference(envelopes[shape])


def test_render_grid_needs_two_threads():
    three = Program.power(Thread.from_text("Pa Va"), 3, CapacityMap((("a", 1),)))
    with pytest.raises(ValueError, match="^grid rendering needs exactly 2 threads$"):
        report.render_grid(three)


def test_render_grid_draws_up_to_its_size_limit():
    # k pairs make a thread of 2k + 2 positions: 100 x 100 states are drawn,
    # 102 x 102 only named
    caps = CapacityMap((("a", 1),))
    for k, drawn in ((49, True), (50, False)):
        t = Thread.from_text(" ".join(["Pa Va"] * k))
        grid = report.render_grid(Program((t, t), caps))
        assert ("X marked" in grid) is drawn
        assert grid.count("\n") == (2 * k + 3 if drawn else 0)
    assert grid == "grid of 102 x 102 states not drawn: a picture shows at most 10000"
