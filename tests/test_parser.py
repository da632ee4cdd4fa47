import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pvguard import (
    CapacityMap,
    ParseError,
    Program,
    deadsharp_witness,
    parse_actions,
    parse_source,
    report,
    sharpserializable_witness,
)
from pvguard import core

from conftest import mutated_sources, token_walk_parse_source

GOOD = """\
# two crossing lock orders
resource a cap 1
resource b cap 1

thread T1 = Pa Pb Vb Va
thread T2 = Pb Pa Va Vb   # reversed order

program main = T1 | T2
program tower = T1 ^ 3
program mixed = T1 | T2^2
"""


def test_parse_good_source():
    m = parse_source(GOOD)
    assert sorted(m.threads) == ["T1", "T2"]
    assert sorted(m.programs) == ["main", "mixed", "tower"]
    assert m.caps.items() == (("a", 1), ("b", 1))
    assert m.programs["main"].n == 2
    assert m.programs["tower"].n == 3
    mixed = m.programs["mixed"]
    assert mixed.n == 3
    assert str(mixed.threads[0]) == "Pa Pb Vb Va"
    assert str(mixed.threads[1]) == str(mixed.threads[2]) == "Pb Pa Va Vb"


def test_parse_spaced_actions_and_blank_lines():
    m = parse_source(
        "resource a cap 2\n\nthread T = P a V a\nprogram main = T^2\n"
    )
    assert str(m.threads["T"]) == "Pa Va"
    assert m.caps["a"] == 2


def err(src: str) -> ParseError:
    with pytest.raises(ParseError) as e:
        parse_source(src)
    return e.value


def test_each_distinct_action_is_built_once_per_source(monkeypatch):
    # a source's threads share one action per mnemonic, fused or spaced,
    # so the dataclass's checks run at most twice per resource; a second
    # parse builds its own actions, so nothing is kept between calls
    # the declared-resource check runs once per distinct action too, on the
    # declared names, not through ``CapacityMap`` once per action
    built, asked = [], []
    post_init = core.Action.__post_init__
    monkeypatch.setattr(core.Action, "__post_init__",
                        lambda action: built.append(action) or post_init(action))
    contains = core.CapacityMap.__contains__
    monkeypatch.setattr(core.CapacityMap, "__contains__",
                        lambda caps, name: asked.append(name) or contains(caps, name))
    first = parse_source(GOOD + "thread T3 = P a V a P b V b\n")
    assert sorted(map(str, built)) == ["Pa", "Pb", "Va", "Vb"]
    assert asked == []
    t1, t2, t3 = (first.threads[name].actions for name in ("T1", "T2", "T3"))
    assert t1[0] is t2[1] is t3[0] and t1[3] is t2[2] is t3[1]
    second = parse_source(GOOD)
    assert len(built) == 8
    assert second.threads == {name: first.threads[name] for name in ("T1", "T2")}
    assert second.threads["T1"].actions[0] is not t1[0]
    # a program groups its copies of one thread, and no other thread with them
    third = parse_source(GOOD + "thread T3 = P a V a P b V b\nprogram p3 = T3 ^ 2 | T1 | T3\n")
    assert len(built) == 12
    assert third.programs["p3"]._groups == ((0, 1, 3), (2,))


def test_invalid_thread_position_reported():
    e = err("resource a cap 1\nthread T = Pa Pa Va Va\nprogram m = T^2\n")
    assert e.line == 2
    assert "position 2" in str(e)
    assert "use count 2" in str(e)


def test_zero_capacity_rejected():
    e = err("resource a cap 0\n")
    assert e.line == 1
    assert "must be an integer >= 1" in str(e)


def test_capacity_takes_decimal_digits_only():
    # ``isdigit`` is true for superscripts, which ``int`` refuses
    e = err("resource a cap \u00b2\n")
    assert str(e) == "line 1, column 16: capacity of 'a' must be an integer >= 1, got '\u00b2'"
    # any decimal digits are a capacity, as they are for ``int``
    assert parse_source("resource a cap \u0663\n").caps["a"] == 3


def test_numbers_past_the_int_digit_limit_are_located():
    digits = "9" * 5000
    e = err(f"resource a cap {digits}\n")
    assert (e.line, e.column) == (1, 16) and "has 5000 digits" in e.reason
    e = err(f"resource a cap 1\nthread T = Pa Va\nprogram m = T ^ {digits}\n")
    assert (e.line, e.column) == (3, 17) and "has 5000 digits" in e.reason


POWER = "resource a cap 1\nthread T = Pa Va\nprogram m = "


@pytest.mark.parametrize(
    "expr,column",
    [
        ("T ^ 10001", 17),
        ("T ^ 99999", 17),
        ("T ^ 9999 | T | T", 28),
        ("T | T ^ 9999 | T", 28),
        ("T ^ 5000 | T ^ 5001", 28),
    ],
)
def test_program_thread_bound(expr, column):
    # the bound is checked before a term's copies are built
    e = err(POWER + expr + "\n")
    assert (e.line, e.column) == (3, column)
    assert e.reason == "a program has at most 10000 threads"


def test_program_at_the_thread_bound_parses():
    assert parse_source(POWER + "T ^ 9999 | T\n").programs["m"].n == 10000


def test_unknown_resource_in_thread():
    e = err("thread T = Pa Va\n")
    assert "unknown resource 'a'" in str(e)


def test_bad_action_token_position():
    e = err("resource a cap 1\nthread T = Pa Qa Va\n")
    assert e.line == 2
    assert "Qa" in str(e)


def test_unknown_thread_in_program():
    e = err("resource a cap 1\nthread T = Pa Va\nprogram m = T | U\n")
    assert e.line == 3
    assert "unknown thread name 'U'" in str(e)


def test_duplicate_resource():
    e = err("resource a cap 1\nresource a cap 2\n")
    assert (e.line, e.column) == (2, 1)


def test_duplicate_thread_and_program():
    e = err("resource a cap 1\nthread T = Pa Va\nthread T = Pa Va\n")
    assert e.line == 3
    e = err(
        "resource a cap 1\nthread T = Pa Va\n"
        "program m = T^2\nprogram m = T^3\n"
    )
    assert e.line == 4


def test_held_at_end_reported():
    e = err("resource a cap 1\nthread T = Pa\nprogram m = T^1\n")
    assert "still held at end" in str(e)


def test_unparseable_line():
    e = err("resource a cap 1\nbogus line here\n")
    assert e.line == 2


def test_bad_power_suffix():
    e = err("resource a cap 1\nthread T = Pa Va\nprogram m = T^0\n")
    assert e.line == 3
    e = err("resource a cap 1\nthread T = Pa Va\nprogram m = T^x\n")
    assert e.line == 3


@pytest.mark.parametrize(
    "expr, message",
    [
        ("T | T ;", "line 3, column 21: unexpected text ';' in program expression"),
        ("T | ^ 2", "line 3, column 20: expected a thread name, got '^'"),
    ],
)
def test_program_expression_errors_are_located(expr, message):
    assert str(err(f"resource a cap 1\nthread T = Pa Va\nprogram main = {expr}\n")) == message


def test_empty_program_expression():
    e = err("resource a cap 1\nthread T = Pa Va\nprogram m =\n")
    assert e.line == 3


def test_empty_source_has_no_models():
    m = parse_source("# nothing but comments\n")
    assert not m.threads and not m.programs and len(m.caps) == 0


def test_parse_error_str_format():
    e = err("resource a cap 0\n")
    assert str(e).startswith(f"line {e.line}, column {e.column}: ")


ACTION_ERRORS = [
    # (thread line, column, reason); "thread T = " is 11 characters
    ("thread T = Pa Qa Va", 15, "action token must start with P or V: 'Qa'"),
    ("thread T = Pa Va x", 18, "action token must start with P or V: 'x'"),
    ("thread T = pa Va", 12, "action token must start with P or V: 'pa'"),
    ("thread T = P a Q a", 16, "action token must start with P or V: 'Q'"),
    ("thread T =\tPa\tQa", 15, "action token must start with P or V: 'Qa'"),
    ("  thread T = Pa Va ?", 20, "action token must start with P or V: '?'"),
    ("thread T = Pa Va P", 18, "dangling 'P' without a resource name"),
    ("thread T = P a  V", 17, "dangling 'V' without a resource name"),
    ("thread T = Pa Va V  # comment", 18, "dangling 'V' without a resource name"),
    ("thread T = Pa Pz Va", 15, "unknown resource 'z'"),
    ("thread T = P a P z V z", 16, "unknown resource 'z'"),
    ("thread T = Pz Q", 12, "unknown resource 'z'"),
    ("thread T =   # nothing", 14, "thread needs at least one action after '='"),
    ("thread T =", 11, "thread needs at least one action after '='"),
    (
        "thread T = P a P a V a V a",
        16,
        "invalid thread 'T': resource 'a' use count 2 at position 2 is outside 0..1",
    ),
]


@pytest.mark.parametrize("line,column,reason", ACTION_ERRORS)
def test_action_token_errors(line, column, reason):
    # every action error of a thread line, fused and spaced, mid-line and at
    # the end: the message and the column of the offending token
    e = err(f"resource a cap 1\n{line}\n")
    assert (e.line, e.column, e.reason) == (2, column, reason)
    assert str(e) == f"line 2, column {column}: {reason}"
    if "must start with" in reason or "dangling" in reason:
        # the library parser reports the same message
        body = line.split("=", 1)[1].split("#")[0]
        with pytest.raises(ValueError) as exc:
            parse_actions(body)
        assert str(exc.value) == reason


@given(
    st.lists(
        st.tuples(
            st.one_of(st.from_regex(r"[A-Za-z_]\w*", fullmatch=True), st.text(max_size=3)),
            st.one_of(st.integers(-1, 3), st.booleans()),
        ),
        min_size=2,
        max_size=3,
    )
)
@example([("a", True), ("b", 1)])
@example([("1a", 1), ("b", 1)])
@example([("a-b", 1), ("b", 1)])
@settings(max_examples=150, deadline=None)
def test_witness_sources_of_every_capacity_map_parse_back(entries):
    """Whatever ``CapacityMap`` accepts, a source file can declare: the
    witness sources built from it parse back to the same capacities and
    the same ``main`` program."""
    try:
        caps = CapacityMap(tuple(entries))
    except ValueError:
        return
    plans = [deadsharp_witness(caps)]
    if all(cap >= 2 for _, cap in caps.items()):
        plans.append(sharpserializable_witness(caps))
    for plan in plans:
        model = parse_source(report.witness_source(plan))
        assert model.caps == caps
        assert model.programs["main"] == Program.power(plan.thread, plan.instance_n, caps)


def _located(text: str, parse) -> tuple:
    """``parse(text)``'s model, or its ``ParseError``'s reason and place."""
    try:
        return ("model", parse(text))
    except ParseError as exc:
        return ("error", exc.reason, exc.line, exc.column)


HEADER = "resource a cap 1\nresource b cap 2\nthread T = Pa Va\nthread U = P b V b\n"


@given(
    st.one_of(
        mutated_sources(),
        st.text(),
        st.builds(
            f"{HEADER}thread X = {{}}\nprogram m = {{}}\n".format,
            st.text(alphabet="PVabz \t", max_size=10),
            st.text(alphabet="TUX^|012 $\t", max_size=10),
        ),
    )
)
@example(POWER + "T ^ $\n")
@example(POWER + "T ^ $ 2\n")
@example(POWER + "T ^\n")
@example("resource a cap 1\nthread T = Pa Va P\n")
@example("resource a cap 1\nthread T = P a V a\nthread U = P a V a P z V z\n")
@example("resource a cap 1\nthread T = P a V a V a\n")
@example(POWER + "T ^ " + "9" * 5000 + "\n")
@example(POWER + "T ^ 10001\n")
@example(POWER + " | ".join(["T"] * 10001) + "\n")
@settings(max_examples=600, deadline=None, derandomize=True)
def test_parser_matches_the_token_walker(text):
    # the one-pass parser against its earlier form (conftest): equal models
    # (capacities, each thread's actions, each program's threads), or equal
    # errors with equal lines and columns
    assert _located(text, parse_source) == _located(text, token_walk_parse_source)
