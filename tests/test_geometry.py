import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvguard import (
    CapacityMap,
    ForbiddenRectangle,
    LatticePath,
    Program,
    PvError,
    ReachabilityIndex,
    SearchLimitExceeded,
    Thread,
    enumerate_dipaths,
    forbidden_rectangles,
    path_from_steps,
    state_admissible,
    successors,
)
from pvguard import geometry

from conftest import (
    edge_admissible,
    extended_rectangle,
    leg_coords,
    make_caps,
    naive_count_dipaths,
    point_use,
    random_program,
    reachable,
    reachable_states,
    rectangle_contains,
    segment_use,
    square_admissible,
    validate_three_pass,
)

T1 = Thread.from_text("Pa Pb Vb Va")
T2 = Thread.from_text("Pb Pa Va Vb")
EX3 = Program((T1, T2), make_caps(a=1, b=1))
PV = Thread.from_text("Pa Va")


def test_forbidden_rectangles_crossing_locks():
    rects = forbidden_rectangles(EX3)
    assert rects == [
        ForbiddenRectangle("a", ((0, (1, 4)), (1, (2, 3)))),
        ForbiddenRectangle("b", ((0, (2, 3)), (1, (1, 4)))),
    ]


def test_forbidden_rectangles_same_order_pair():
    rects = forbidden_rectangles(Program.power(T1, 2, make_caps(a=1, b=1)))
    assert len(rects) == 2
    assert {r.resource for r in rects} == {"a", "b"}


def test_rectangle_counts_scale_with_capacity():
    # one unit semaphore, two users: a single obstruction
    assert len(forbidden_rectangles(Program.power(PV, 2, make_caps(a=1)))) == 1
    # capacity two removes it entirely
    assert forbidden_rectangles(Program.power(PV, 2, make_caps(a=2))) == []
    # three users of a two-slot semaphore: every coordinate triple clashes
    assert len(forbidden_rectangles(Program.power(PV, 3, make_caps(a=2)))) == 1


def test_rectangle_membership():
    rect = forbidden_rectangles(Program.power(PV, 2, make_caps(a=1)))[0]
    assert rect.legs == ((0, (1, 2)), (1, (1, 2)))
    # the open box (1,2)x(1,2) holds no integer state at all
    assert not any(
        rectangle_contains(rect, (x, y)) for x in range(4) for y in range(4)
    )
    # nor, with leg 1 kept open, the unit edge from (1, 1) along leg 0:
    # leg 1 only touches 1
    assert extended_rectangle(rect, 1).meets_edge((1, 1), 0) is False
    assert leg_coords(rect) == (0, 1)


def test_state_admissibility_fig_square():
    p = Program.power(T1, 2, make_caps(a=1, b=1))
    bad = {(x, y) for x in range(6) for y in range(6)
           if not state_admissible(p, (x, y))}
    assert bad == {(2, 2), (2, 3), (3, 2), (3, 3)}


def test_edge_admissibility_blocks_second_acquire():
    p = Program.power(T1, 2, make_caps(a=1, b=1))
    # moving coordinate 0 across Pa while coordinate 1 holds a
    assert not edge_admissible(p, (1, 2), 0)
    # stepping up to the acquire position is fine, the hold starts on the move
    assert edge_admissible(p, (0, 2), 0)
    assert edge_admissible(p, (0, 0), 0)
    # edges out of inadmissible states are never admissible
    assert not edge_admissible(p, (2, 2), 0)


def test_square_admissibility_unit_semaphore():
    p = Program.power(PV, 2, make_caps(a=1))
    # both threads on the move across PaVa at once needs capacity 2
    assert not square_admissible(p, (1, 1), 0, 1)
    assert square_admissible(p, (0, 0), 0, 1)
    p2 = Program.power(PV, 2, make_caps(a=2))
    assert square_admissible(p2, (1, 1), 0, 1)


def test_square_admissibility_triple():
    p = Program.power(PV, 3, make_caps(a=2))
    # two movers saturate the semaphore while the third stands clear
    assert square_admissible(p, (1, 1, 0), 0, 1)
    # a third holder cannot exist at an integer point here, so no stricter
    # pair is blocked; the rectangle only bites in three dimensions at once
    assert not any(
        not square_admissible(p, s, i, j)
        for s in itertools.product(range(3), repeat=3)
        for i, j in itertools.combinations(range(3), 2)
        if all(s[c] + (c in (i, j)) <= 3 for c in range(3))
    )


def test_successors_order_and_blocking():
    succ = successors(EX3, (0, 0))
    assert succ == [(0, (1, 0)), (1, (0, 1))]
    assert successors(EX3, (2, 2)) == []
    assert successors(EX3, EX3.top) == []


def test_reachable_lex_least_witness():
    path = reachable(EX3, (2, 2))
    assert path.states == ((0, 0), (1, 0), (2, 0), (2, 1), (2, 2))
    path.validate(EX3)


def test_reachable_none_for_blocked_state():
    p = Program.power(T1, 2, make_caps(a=1, b=1))
    assert reachable(p, (2, 2)) is None
    assert reachable(p, p.top) is not None


def test_reachable_states_counts():
    p = Program.power(PV, 2, make_caps(a=1))
    states = reachable_states(p)
    assert (1, 1) in states  # boundary contact is allowed
    assert len(states) == 16
    # all 16 grid states admissible, all reachable
    assert states == {
        s for s in itertools.product(range(4), repeat=2) if state_admissible(p, s)
    }


def test_lattice_path_validate_rejects_jumps():
    with pytest.raises(Exception):
        LatticePath(((0, 0), (1, 1))).validate(EX3)
    with pytest.raises(Exception):
        LatticePath(((0, 0), (0, 1), (0, 0))).validate(EX3)


def test_lattice_path_validate_messages():
    # states are checked first, in path order, then the steps, then the edges
    with pytest.raises(ValueError, match=r"^coordinate 1 value 9 out of range 0\.\.5$"):
        LatticePath(((0, 0), (9, 0))).validate(EX3)
    over = ((0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (2, 3))
    with pytest.raises(PvError, match=r"^path visits inadmissible state \(2, 2\)$"):
        LatticePath(over).validate(Program.power(T1, 2, make_caps(a=1, b=1)))
    with pytest.raises(ValueError, match="^not a unit lattice step$"):
        LatticePath(((0, 0), (1, 1))).validate(EX3)
    # a path without states has no start or end, so none can be built
    with pytest.raises(ValueError, match="^a path needs at least one state$"):
        LatticePath(())
    prog = Program((Thread.from_text("Pa Pb Vb Va"), Thread.from_text("Pa Va")),
                   make_caps(a=1, b=1))
    edge = ((0, 0), (1, 0), (2, 0), (2, 1), (2, 2))
    assert all(state_admissible(prog, s) for s in edge)
    with pytest.raises(PvError, match=r"^path takes inadmissible edge \(2, 1\) along 2$"):
        LatticePath(edge).validate(prog)


def nested_hold_thread(rng: random.Random, resources: list[str]) -> Thread:
    """A thread whose holds nest: each block acquires a resource not held
    around it, runs zero or more inner blocks, and releases it."""

    def blocks(free: list[str], depth: int) -> list[str]:
        out: list[str] = []
        for _ in range(rng.randint(1, 2)):
            if not free:
                break
            r = rng.choice(free)
            inner = [x for x in free if x != r]
            body = blocks(inner, depth - 1) if depth and rng.random() < 0.6 else []
            out += [f"P{r}", *body, f"V{r}"]
        return out

    return Thread.from_text(" ".join(blocks(resources, 2)))


def outcome(fn) -> tuple[str, str]:
    try:
        fn()
    except (ValueError, PvError) as exc:
        return type(exc).__name__, str(exc)
    return "ok", ""


def mutate(rng: random.Random, program: Program, states: list, how: str) -> list:
    """One fault at a random state: a coordinate bumped by one, dropped or
    added, the state deleted, a value out of range, or, past the first
    state, a value of another type that equals it."""
    states = list(states)
    k = rng.randrange(len(states))
    if how == "type":
        k = rng.randrange(1, len(states)) if len(states) > 1 else 0
    s = list(states[k])
    c = rng.randrange(len(s))
    if how == "bump":
        s[c] += 1
    elif how == "drop":
        del s[c]
    elif how == "add":
        s.insert(c, rng.randint(0, 1))
    elif how == "delete":
        del states[k]
        return states
    elif how == "range":
        s[c] = rng.choice([-1, program.tops[c] + 1])
    elif how == "type":  # 1.0 == 1 and True == 1
        s[c] = rng.choice([float(s[c]), bool(s[c])]) if s[c] in (0, 1) else float(s[c])
    states[k] = tuple(s)
    return states


def test_validate_matches_three_pass_oracle():
    # random walks through nested-hold programs, mostly over admissible
    # states, so that inadmissible edges show up next to inadmissible states
    seen: Counter = Counter()

    @given(
        st.integers(0, 2**32 - 1),
        # half the paths are left as walked
        st.sampled_from(["none"] * 6 + ["bump", "drop", "add", "delete", "range", "type"]),
    )
    @settings(max_examples=600, deadline=None, derandomize=True)
    def check(seed, how):
        rng = random.Random(seed)
        resources = ["a", "b", "c"][: rng.randint(1, 3)]
        caps = CapacityMap(tuple((r, rng.randint(1, 2)) for r in resources))
        program = Program(
            tuple(nested_hold_thread(rng, resources) for _ in range(rng.randint(2, 3))),
            caps,
        )
        admissible = rng.choice([0.5, 0.9, 1.0])  # odds of an admissible step
        state = program.bottom
        states = [state]
        for _ in range(rng.randint(0, sum(program.tops))):
            moves = [c for c in range(program.n) if state[c] < program.tops[c]]
            done = [c for c in range(program.n) if state[c] == program.tops[c]]
            if done and (not moves or rng.random() < 0.05):
                # a unit step past ⊤ ends the walk
                c = rng.choice(done)
                states.append(state[:c] + (state[c] + 1,) + state[c + 1 :])
                break
            nexts = [state[:c] + (state[c] + 1,) + state[c + 1 :] for c in moves]
            fine = [s for s in nexts if state_admissible(program, s)]
            state = rng.choice(fine if fine and rng.random() < admissible else nexts)
            states.append(state)
        if how != "none":
            states = mutate(rng, program, states, how)
        # a deleted state may empty the walk, which the constructor refuses
        got = outcome(lambda: LatticePath(tuple(states)).validate(program))
        assert got == outcome(lambda: validate_three_pass(LatticePath(tuple(states)), program))
        seen[got[1].split(" (")[0] if got[0] == "PvError" else got[0]] += 1
        seen["not an integer"] += got[1].endswith("is not an integer")

    check()
    # both capacity faults occur, so agreement on them is not vacuous
    assert seen["path visits inadmissible state"] >= 10
    assert seen["path takes inadmissible edge"] >= 10
    assert seen["ValueError"] >= 10 and seen["ok"] >= 10
    assert seen["not an integer"] >= 10


def test_path_from_steps():
    p = path_from_steps((0, 0), (0, 0, 1, 1))
    assert p.end == (2, 2)
    assert p.steps() == (0, 0, 1, 1)


def test_enumerate_dipaths_frozen_counts():
    assert sum(1 for _ in enumerate_dipaths(EX3)) == 84
    assert sum(1 for _ in enumerate_dipaths(
        Program.power(PV, 2, make_caps(a=1)))) == 20
    assert sum(1 for _ in enumerate_dipaths(
        Program.power(PV, 2, make_caps(a=2)))) == 20


def test_enumerate_dipaths_limit_and_laziness(monkeypatch):
    # EX3 has 84 paths: a bound of k yields exactly k of them, then raises
    everything = list(enumerate_dipaths(EX3))
    for k in (0, 1, 5, 83):
        paths = enumerate_dipaths(EX3, limit=k)
        assert list(itertools.islice(paths, k)) == everything[:k]
        with pytest.raises(SearchLimitExceeded, match="enumerated paths"):
            next(paths)
    assert list(enumerate_dipaths(EX3, limit=84)) == everything
    # the first path asks for the successors of its own states only
    calls = []
    monkeypatch.setattr(geometry, "successors",
                        lambda prog, state: calls.append(state) or successors(prog, state))
    first = next(enumerate_dipaths(EX3))
    assert first == everything[0]
    assert calls == list(first.states[:-1])


def test_enumerate_dipaths_lex_order_and_validity():
    paths = list(enumerate_dipaths(EX3))
    seqs = [p.steps() for p in paths]
    assert seqs == sorted(seqs)
    for p in paths[:10]:
        p.validate(EX3)
        assert p.start == EX3.bottom and p.end == EX3.top


def test_enumerate_matches_recursive_count():
    rng = random.Random(11)
    for _ in range(25):
        caps = CapacityMap((("a", rng.randint(1, 2)), ("b", rng.randint(1, 2))))
        prog = random_program(rng, ["a", "b"], caps, 2, 3,
                              identical=rng.random() < 0.6)
        assert naive_count_dipaths(prog) == sum(
            1 for _ in enumerate_dipaths(prog))


def test_admissible_iff_outside_every_rectangle():
    rng = random.Random(12)
    for _ in range(25):
        caps = CapacityMap((("a", rng.randint(1, 2)), ("b", rng.randint(1, 2))))
        prog = random_program(rng, ["a", "b"], caps, rng.randint(2, 3), 2)
        rects = forbidden_rectangles(prog)
        for state in itertools.product(*(range(t + 1) for t in prog.tops)):
            inside = any(rectangle_contains(r, state) for r in rects)
            assert inside != state_admissible(prog, state)


def test_edge_admissible_implies_endpoints():
    rng = random.Random(13)
    for _ in range(20):
        caps = CapacityMap((("a", rng.randint(1, 2)), ("b", rng.randint(1, 2))))
        prog = random_program(rng, ["a", "b"], caps, 2, 3)
        for state in itertools.product(*(range(t + 1) for t in prog.tops)):
            for c in range(prog.n):
                if state[c] >= prog.tops[c]:
                    continue
                if edge_admissible(prog, state, c):
                    nxt = state[:c] + (state[c] + 1,) + state[c + 1:]
                    assert state_admissible(prog, state)
                    assert state_admissible(prog, nxt)


def test_square_admissible_implies_all_faces():
    rng = random.Random(14)
    for _ in range(20):
        caps = CapacityMap((("a", rng.randint(1, 2)), ("b", rng.randint(1, 2))))
        prog = random_program(rng, ["a", "b"], caps, 2, 3)
        for state in itertools.product(*(range(t) for t in prog.tops)):
            if square_admissible(prog, state, 0, 1):
                right = (state[0] + 1, state[1])
                up = (state[0], state[1] + 1)
                assert edge_admissible(prog, state, 0)
                assert edge_admissible(prog, state, 1)
                assert edge_admissible(prog, right, 1)
                assert edge_admissible(prog, up, 0)


def test_edge_and_square_rules_match_segment_use():
    # the definitions: a cell is admissible when every resource's use, summed
    # over coordinates, stays within capacity; moving coordinates count the
    # resources of the segment they traverse, the others those of their point.
    # Up to capacity 3 and four threads, a square can fail on a resource that
    # another thread already holds
    rng = random.Random(15)
    shared = 0
    for _ in range(30):
        caps = CapacityMap((("a", rng.randint(1, 3)), ("b", rng.randint(1, 3))))
        prog = random_program(rng, ["a", "b"], caps, rng.randint(2, 4), 2)

        def use(state, moving):
            out = {r: 0 for r in caps.names}
            for c, (t, x) in enumerate(zip(prog.threads, state)):
                for r in segment_use(t, x) if c in moving else point_use(t, x):
                    out[r] += 1
            return out

        def fits(state, moving):
            out = use(state, moving)
            return all(out[r] <= caps[r] for r in caps.names)

        for state in itertools.product(*(range(t + 1) for t in prog.tops)):
            open_ = [c for c in range(prog.n) if state[c] < prog.tops[c]]
            # the library's rules: successors, and the square table of
            # Program._steps, which is defined on admissible states
            steps = [c for c, _ in successors(prog, state)]
            assert steps == [c for c in open_ if fits(state, ()) and fits(state, (c,))]
            squares = None
            if fits(state, ()):
                _, table_steps, table = prog._steps(state, squares=True)
                assert table_steps == steps
                squares = set(table)
                assert len(squares) == len(table)
            for i, j in itertools.combinations(open_, 2):
                square = fits(state, ()) and fits(state, (i, j))
                assert square_admissible(prog, state, i, j) == square
                if squares is not None:
                    assert ((i, j) in squares) == square
                if not square and fits(state, (i,)) and fits(state, (j,)):
                    held, moved = use(state, ()), use(state, (i, j))
                    shared += any(moved[r] > caps[r] and held[r] for r in caps.names)
    assert shared >= 20, shared


def test_extended_rectangle_shape():
    rect = ForbiddenRectangle("a", ((0, (1, 4)), (1, (2, 3))))
    ext = extended_rectangle(rect, 0)
    assert ext.resource == "a"
    assert ext.kept == (0, (1, 4))
    assert ext.lowered == ((1, 3),)
    ext = extended_rectangle(rect, 1)
    assert ext.kept == (1, (2, 3))
    assert ext.lowered == ((0, 4),)


def test_search_limit_guard():
    big = Program.power(Thread.from_text("Pa Va " * 6), 4, make_caps(a=1))
    with pytest.raises(SearchLimitExceeded) as e:
        ReachabilityIndex(big, max_states=100)
    assert e.value.limit == 100
    assert "configured bound" in str(e.value)
