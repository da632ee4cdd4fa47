import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvguard import (
    Action,
    CapacityMap,
    InvalidThreadError,
    LatticePath,
    Program,
    ReachabilityIndex,
    SearchLimitExceeded,
    Thread,
    family_deadlock_verdict,
    family_serializability_verdict,
    kappa1_pair_serializable,
    parse_actions,
    parse_source,
    single_access,
    state_admissible,
    successors,
    thread_violations,
)
from pvguard import core, deadlock

from conftest import identity_groups, make_caps, point_use, random_valid_actions, segment_use


def test_parse_actions_forms():
    fused = parse_actions("Pa Pb Vb Va")
    spaced = parse_actions("P a  P b V b\tV a")
    assert fused == spaced
    assert fused[0] == Action("P", "a")
    assert fused[2].mnemonic == "Vb"


def test_action_and_program_reject_malformed_parts():
    with pytest.raises(ValueError, match="^action kind must be P or V, got 'X'$"):
        Action("X", "a")
    with pytest.raises(ValueError, match="^action resource name must be nonempty$"):
        Action("P", "")
    with pytest.raises(ValueError, match="^a program needs at least one thread$"):
        Program((), make_caps(a=1))


def test_parse_actions_rejects_garbage():
    with pytest.raises(ValueError):
        parse_actions("Qa")
    with pytest.raises(ValueError):
        parse_actions("P")


def test_thread_roundtrip_text():
    t = Thread.from_text("Pa Pb Vb Va")
    assert str(t) == "Pa Pb Vb Va"
    assert t.length == 4
    assert t.top == 5


def test_thread_validity_examples():
    assert thread_violations(parse_actions("Pa Pb Vb Va")) == []
    # double acquire: use count hits 2 at position 2
    v = thread_violations(parse_actions("Pa Pa Va Va"))
    assert len(v) == 1 and v[0].resource == "a" and v[0].position == 2
    assert v[0].value == 2
    # release without acquire drops the count below zero at position 1
    v = thread_violations(parse_actions("Va Pa"))
    assert v and v[0].position == 1 and v[0].value == -1
    # held at the end
    v = thread_violations(parse_actions("Pa"))
    assert v and v[0].kind == "held-at-end"


def test_thread_from_text_raises_on_invalid():
    with pytest.raises(InvalidThreadError) as e:
        Thread.from_text("Pa Pa Va Va")
    assert "position 2" in str(e.value)


def test_unknown_resource_rejected_under_caps():
    v = thread_violations(parse_actions("Pa Va"), make_caps(b=1))
    assert v and v[0].kind == "unknown-resource"


def test_hold_intervals_fig_thread():
    t = Thread.from_text("Pa Pb Va Pc Vb Pa Vc Va")
    assert t.hold_intervals["a"] == ((1, 3), (6, 8))
    assert t.hold_intervals["b"] == ((2, 5),)
    assert t.hold_intervals["c"] == ((4, 7),)


def test_point_and_segment_use():
    t = Thread.from_text("Pa Pb Vb Va")
    # a held strictly between acquire 1 and release 4; b's open span (2,3)
    # contains no integer position at all, it is only held on the move
    assert [sorted(point_use(t, p)) for p in range(6)] == [
        [],
        [],
        ["a"],
        ["a"],
        [],
        [],
    ]
    # on the move, the acquire position already counts
    assert [sorted(segment_use(t, p)) for p in range(5)] == [
        [],
        ["a"],
        ["a", "b"],
        ["a"],
        [],
    ]


def test_point_use_empty_at_ends():
    t = Thread.from_text("Pa Va")
    assert point_use(t, 0) == frozenset()
    assert point_use(t, t.top) == frozenset()
    with pytest.raises(ValueError, match="out of range"):
        point_use(t, t.top + 1)
    assert segment_use(t, 0) == frozenset()
    with pytest.raises(ValueError, match="out of range"):
        segment_use(t, t.top)


def test_action_at_positions():
    t = Thread.from_text("Pa Pb Vb Va")
    assert t.action_at(0) is None
    assert t.action_at(1).mnemonic == "Pa"
    assert t.action_at(4).mnemonic == "Va"
    assert t.action_at(5) is None


def test_capacity_map_basics():
    caps = CapacityMap((("a", 2), ("b", 1)))
    assert caps["a"] == 2 and caps["b"] == 1
    assert caps.names == ("a", "b")
    assert caps.total() == 3
    assert "a" in caps and "z" not in caps
    assert caps.restrict(["b"]).items() == (("b", 1),)


def test_capacity_map_rejects_bad_entries():
    # a zero, a duplicate, and anything a source file cannot declare: a bool
    # is an int, but no source declares one, and names follow the parser's
    # pattern
    for entries in [
        (("a", 0),),
        (("a", 1), ("a", 2)),
        (("", 1),),
        (("a", True), ("b", 1)),
        (("a", 1.0),),
        (("1a", 1),),
        (("a-b", 1),),
        (("a b", 1),),
        ((1, 1),),
    ]:
        with pytest.raises(ValueError):
            CapacityMap(entries)


@pytest.mark.parametrize(
    "route, text, entries",
    [
        (family_deadlock_verdict, "Pa Va Pb Vb", (("c", 1),)),  # single access
        (family_deadlock_verdict, "Pa Pb Vb Va Pa Va", (("a", 1),)),
        (family_serializability_verdict, "Pa Pb Vb Va Pa Va", (("a", 1),)),
        (family_serializability_verdict, "Pa Pb Vb Va Pc Vc", (("a", 1), ("b", 2))),
        (family_serializability_verdict, "Pb Vb", (("a", 2),)),
        (kappa1_pair_serializable, "Pa Pb Vb Va Pa Va", (("a", 1),)),
    ],
    ids=["deadlock-single-access", "deadlock", "serializability-unit",
         "serializability-mixed", "serializability-none-declared", "pair-test"],
)
def test_family_routes_refuse_undeclared_resources_as_program_does(route, text, entries):
    thread, caps = Thread.from_text(text), CapacityMap(entries)
    with pytest.raises(InvalidThreadError) as built:
        Program((thread,), caps)
    with pytest.raises(InvalidThreadError) as routed:
        route(thread, caps)
    assert routed.value.violations == built.value.violations


def test_program_shape():
    t = Thread.from_text("Pa Pb Vb Va")
    p = Program.power(t, 2, make_caps(a=1, b=1))
    assert p.n == 2
    assert p.bottom == (0, 0)
    assert p.top == p.tops == (5, 5)
    assert p.grid_states() == 36
    assert p.resource_names == ("a", "b")


def test_program_rejects_unknown_resource():
    t = Thread.from_text("Pa Va")
    with pytest.raises(InvalidThreadError):
        Program.power(t, 2, make_caps(b=1))


def test_power_bounds_the_copy_count():
    # the parser's thread bound: 10,000 copies are built, one more is
    # refused before the tuple of copies is; the family verdicts read that as
    # a cut-off instance too large to search, and build none
    t = Thread.from_text("Pa Pb Va Pa Vb Va")
    assert Program.power(t, 10_000, make_caps(a=1, b=1)).n == 10_000
    with pytest.raises(SearchLimitExceeded, match=r"10000 threads \(10001 needed\)"):
        Program.power(t, 10_001, make_caps(a=1, b=1))
    caps = make_caps(a=5_000, b=5_001)
    for route in (family_deadlock_verdict, family_serializability_verdict):
        v = route(t, caps)
        assert (v.verdict, v.rule, v.program) == ("inconclusive", "search-limit", None)
        assert v.detail.endswith("10000 threads (%d needed)" % v.cutoff)


@pytest.mark.parametrize("n", [True, 2.0])
def test_power_takes_an_integer_copy_count(n):
    # the rule of check_state and CapacityMap: True would build one thread,
    # and 2.0 failed inside the tuple product
    t = Thread.from_text("Pa Va")
    with pytest.raises(ValueError, match=f"^thread copy count {n!r} is not an integer$"):
        Program.power(t, n, make_caps(a=1))
    with pytest.raises(ValueError, match="^thread copy count must be >= 1$"):
        Program.power(t, 0, make_caps(a=1))


def test_check_state_bounds():
    t = Thread.from_text("Pa Va")
    p = Program.power(t, 2, make_caps(a=1))
    with pytest.raises(Exception):
        p.check_state((0, 4))
    with pytest.raises(Exception):
        p.check_state((0,))


def _state_calls(p):
    # every public function that takes a state
    return (
        p.check_state,
        lambda s: state_admissible(p, s),
        lambda s: successors(p, s),
        lambda s: ReachabilityIndex(p).is_reachable(s),
        lambda s: ReachabilityIndex(p).witness(s),
        lambda s: ReachabilityIndex(p, targets=[s]),
        # after a first state that is fine: a unit step does not tell 1.0
        # or True from 1, nor 0.0 or False from 0
        lambda s: LatticePath((p.bottom, s)).validate(p),
    )


@pytest.mark.parametrize("value", [1.0, 1.5, True, False, "1", None])
@pytest.mark.parametrize("coordinate", [0, 1])
def test_non_integer_coordinates_are_value_errors(value, coordinate):
    # each call names the bad coordinate; a bool would silently read as 0 or
    # 1, a float as the int it equals
    p = Program.power(Thread.from_text("Pa Va"), 2, make_caps(a=1))
    state = [0, 0]
    state[coordinate] = value
    state = tuple(state)
    message = f"coordinate {coordinate + 1} value {value!r} is not an integer"
    for call in _state_calls(p):
        with pytest.raises(ValueError) as e:
            call(state)
        assert str(e.value) == message


@pytest.mark.parametrize("state", [[1, 0], 5, "10", None], ids=["list", "int", "str", "None"])
def test_non_tuple_states_are_value_errors(state):
    # a list of two ints would pass every coordinate check; an int or None
    # has no length
    p = Program.power(Thread.from_text("Pa Va"), 2, make_caps(a=1))
    message = f"state of type {type(state).__name__} is not a tuple"
    for call in _state_calls(p):
        with pytest.raises(ValueError) as e:
            call(state)
        assert str(e.value) == message


def test_use_totals():
    t = Thread.from_text("Pa Pb Vb Va")
    p = Program.power(t, 2, make_caps(a=1, b=1))
    assert p.use_totals((2, 2)) == [2, 0]
    assert p.use_totals((3, 3)) == [2, 0]
    assert p.use_totals((0, 0)) == [0, 0]


def test_single_access():
    assert single_access(Thread.from_text("Pa Pb Vb Va"))
    assert not single_access(Thread.from_text("Pa Va Pa Va"))
    assert not single_access(Thread.from_text("Pa Pb Va Pc Vb Pa Vc Va"))
    assert single_access(Thread.from_actions(()))


def test_concat_threads():
    # sequential composition is the concatenation of the action tuples
    t1 = Thread.from_text("Pa Pb Vb Va")
    t2 = Thread.from_text("Pb Pa Va Vb")
    cat = Thread.from_actions(t1.actions + t2.actions)
    assert str(cat) == "Pa Pb Vb Va Pb Pa Va Vb"
    assert cat.length == 8


def test_concat_rejects_overlap_only_when_invalid():
    # concatenation of valid threads is always valid: holds are closed
    t = Thread.from_text("Pa Va")
    assert str(Thread.from_actions(t.actions * 3)) == "Pa Va Pa Va Pa Va"
    # a prefix with an open hold is not a thread, and neither is its repeat
    with pytest.raises(InvalidThreadError):
        Thread.from_actions(parse_actions("Pa") * 2)


@pytest.mark.parametrize("actions", [(Action("P", "a"),), (Action("V", "a"),)],
                         ids=["never-released", "released-unheld"])
def test_thread_checks_its_use_discipline_when_built(actions):
    # built unchecked, the first got the family verdict "yes" (rule
    # single-access), and find_deadlocks on two copies of the second ended
    # in a bare ValueError from the program's index tables
    with pytest.raises(InvalidThreadError) as built:
        Thread(actions)
    assert list(built.value.violations) == thread_violations(actions)


# -- property tests ----------------------------------------------------------

resource_names = st.sampled_from(["a", "b", "c"])


@st.composite
def valid_action_texts(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n_res = draw(st.integers(1, 3))
    length = 2 * draw(st.integers(1, 5))
    return " ".join(random_valid_actions(rng, ["a", "b", "c"][:n_res], length))


@given(valid_action_texts())
@settings(max_examples=120)
def test_generated_threads_are_valid(text):
    assert thread_violations(parse_actions(text)) == []


@given(valid_action_texts())
@settings(max_examples=120)
def test_segment_use_matches_running_recursion(text):
    """The on-the-move holds equal the held-after-acquire running set."""
    t = Thread.from_text(text)
    held: set[str] = set()
    for p in range(t.top):
        act = t.action_at(p)
        if act is not None and act.kind == "P":
            held.add(act.resource)
        if act is not None and act.kind == "V":
            held.discard(act.resource)
        assert segment_use(t, p) == frozenset(held)


@given(valid_action_texts())
@settings(max_examples=120)
def test_point_use_within_segment_use(text):
    t = Thread.from_text(text)
    for p in range(t.top):
        assert point_use(t, p) <= segment_use(t, p)
        assert point_use(t, p + 1) <= segment_use(t, p)


@given(valid_action_texts())
@settings(max_examples=60)
def test_hold_intervals_partition_actions(text):
    """Every action index appears in exactly one hold interval endpoint."""
    t = Thread.from_text(text)
    endpoints = sorted(
        k for spans in t.hold_intervals.values() for i, j in spans for k in (i, j)
    )
    assert endpoints == list(range(1, t.length + 1))


@st.composite
def mixed_programs(draw):
    """Programs over one to three distinct threads: repeated copies,
    interleaved groups (``T1 | T2 | T1``), an equal thread built twice,
    resources declared but unused, declared in a shuffled order."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    names = ["a", "b", "c", "d"]
    distinct = [
        " ".join(random_valid_actions(rng, names[: rng.randint(1, 3)], 2 * rng.randint(1, 5)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    built = [Thread.from_text(text) for text in distinct]
    picks = draw(st.lists(st.integers(0, len(built) - 1), min_size=1, max_size=6))
    threads = tuple(
        Thread.from_text(distinct[k]) if draw(st.booleans()) else built[k] for k in picks
    )
    rng.shuffle(names)
    return Program(threads, CapacityMap(tuple((r, rng.randint(1, 3)) for r in names)))


def tables_by_oracle(program, t):
    """The point and request tables of ``t`` from the point-use oracle and
    :meth:`Thread.action_at`, with resources as indices into ``program``."""
    index = {r: i for i, r in enumerate(program.caps.names)}
    positions = range(t.top + 1)
    point = tuple(tuple(sorted(index[r] for r in point_use(t, p))) for p in positions)
    request = tuple(
        index[act.resource] if act is not None and act.kind == "P" else None
        for act in map(t.action_at, positions)
    )
    return point, request


def assert_groups_and_tables(program):
    groups = program._groups
    assert groups == tuple(map(tuple, identity_groups(program)))
    assert len(program._point_idx) == len(program._request_idx) == program.n
    for g in groups:
        for i in g:
            expected = tables_by_oracle(program, program.threads[i])
            assert (program._point_idx[i], program._request_idx[i]) == expected
            # every coordinate of a group shares its group's tables
            assert program._point_idx[i] is program._point_idx[g[0]]
            assert program._request_idx[i] is program._request_idx[g[0]]


def test_groups_and_tables_of_equal_distinct_threads():
    # the parser builds one object per declared thread, so equal threads
    # declared under two names are distinct objects, grouped as one
    m = parse_source(
        "resource a cap 1\nresource b cap 2\n"
        "thread T = Pa Va\nthread U = Pa Va\nthread W = Pb Pa Va Vb\n"
        "program main = T ^ 2 | W | U | T | W ^ 2 | U\n"
    )
    program = m.programs["main"]
    assert m.threads["T"] is not m.threads["U"] and m.threads["T"] == m.threads["U"]
    assert program._groups == ((0, 1, 3, 4, 7), (2, 5, 6))
    assert_groups_and_tables(program)


def test_index_tables_match_point_use_and_action_at():
    # one shared object, equal but distinct objects, interleaved groups
    seen = set()

    @given(mixed_programs())
    @settings(max_examples=150, derandomize=True)
    def check(program):
        assert_groups_and_tables(program)
        for g in program._groups:
            objects = {id(program.threads[i]) for i in g}
            if len(objects) < len(g):
                seen.add("shared object")
            if len(objects) > 1:
                seen.add("equal distinct objects")
        if any(b[0] < a[-1] for a, b in zip(program._groups, program._groups[1:])):
            seen.add("interleaved")

    check()
    assert seen == {"shared object", "equal distinct objects", "interleaved"}


def test_power_hashes_each_action_once_and_checks_one_thread(monkeypatch):
    # 10,000 copies of one object: the groups hash that object's actions
    # once, the tables are built once, and its resources are checked once
    t = Thread.from_text("Pa Pb Va Pc Vb Pa Vc Va")
    hashes = []
    action_hash = Action.__hash__
    monkeypatch.setattr(Action, "__hash__", lambda a: hashes.append(a) or action_hash(a))
    checked = []
    check_declared = core._check_declared
    monkeypatch.setattr(
        core, "_check_declared", lambda t, caps: checked.append(t) or check_declared(t, caps)
    )
    program = Program.power(t, 10_000, make_caps(a=2, b=1, c=1))
    assert program._groups == (tuple(range(10_000)),)
    assert len(program._point_idx) == len(program._request_idx) == 10_000
    assert len(hashes) <= len(t.actions)
    assert checked == [t]


def test_each_cached_property_runs_once_per_instance(monkeypatch):
    # every cached property of the package's classes: its getter runs on the
    # first read alone, and the value lands in the instance ``__dict__``
    caps = make_caps(a=1, b=1)
    program = Program.power(Thread.from_text("Pa Pb Vb Va"), 2, caps)
    instances = {
        CapacityMap: caps,
        Thread: program.threads[0],
        Program: program,
        deadlock.OrbitView: deadlock.OrbitView(program._groups, {(1, 1): (1, None)}),
    }
    cached = sorted(
        (cls.__name__, name, cls)
        for module in (core, deadlock)
        for cls in vars(module).values()
        if isinstance(cls, type)
        for name, attr in vars(cls).items()
        if isinstance(attr, core._cached_property)
    )
    assert {cls for _, _, cls in cached} == instances.keys()
    for _, name, cls in cached:
        getter, runs = vars(cls)[name].func, []
        monkeypatch.setattr(vars(cls)[name], "func",
                            lambda obj, getter=getter, runs=runs: runs.append(obj) or getter(obj))
        obj = instances[cls]
        vars(obj).pop(name, None)  # read while the instance was built
        value = getattr(obj, name)
        assert getattr(obj, name) is value and vars(obj)[name] is value
        assert runs == [obj], name
