import collections
import gc
import hashlib
import itertools
import json
import math
import operator
import random
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvguard import (
    CapacityMap,
    Program,
    PvError,
    ReachabilityIndex,
    SearchLimitExceeded,
    Thread,
    deadlock_cutoff,
    deadsharp_witness,
    family_deadlock_verdict,
    family_serializability_verdict,
    find_deadlocks,
    local_choice_points,
    potential_deadlocks,
    program_deadlock_verdict,
    sharpserializable_witness,
    single_access,
    state_admissible,
    successors,
)

from pvguard import cli, deadlock, serializability
from pvguard.deadlock import _deadlock_orbits, _deadlock_states, _scatter_state
from pvguard.geometry import LatticePath

from conftest import (
    combination_deadlock_verdict,
    concrete_family_deadlock_verdict,
    full_search_choice_points,
    full_search_deadlock_witnesses,
    identity_groups,
    index_parents,
    is_local_choice_point,
    is_potential_deadlock,
    make_caps,
    naive_deadlock_states,
    naive_potential_deadlocks,
    orbit_members,
    random_program,
    random_thread,
    reachable_states,
    release_first_parents,
    sort_groups,
    sorted_orbit_parents,
    two_group_program,
)

T1 = Thread.from_text("Pa Pb Vb Va")
T2 = Thread.from_text("Pb Pa Va Vb")
FIG = Thread.from_text("Pa Pb Va Pc Vb Pa Vc Va")
K11 = make_caps(a=1, b=1)
KABC = make_caps(a=1, b=1, c=1)
EX3 = Program((T1, T2), K11)


def test_crossing_locks_deadlock():
    report = find_deadlocks(EX3)
    assert [d.state for d in report.deadlocks] == [(2, 2)]
    assert report.potential_deadlocks == ((2, 2),)
    d = report.deadlocks[0]
    assert d.witness.states == ((0, 0), (1, 0), (2, 0), (2, 1), (2, 2))
    d.witness.validate(EX3)
    assert successors(EX3, d.state) == []


def test_same_order_pair_is_clean():
    report = find_deadlocks(Program.power(T1, 2, K11))
    assert report.deadlocks == ()
    assert report.potential_deadlocks == ()


def test_search_stats_populated():
    report = find_deadlocks(EX3)
    s = report.stats
    assert s.threads == 2
    assert s.grid_states == 36
    assert s.candidates == 1
    assert 0 < s.visited <= s.grid_states


def test_three_philosophers_style_thread():
    assert find_deadlocks(Program.power(FIG, 2, KABC)).deadlocks == ()
    prog = Program.power(FIG, 3, KABC)
    report = find_deadlocks(prog)
    states = sorted(d.state for d in report.deadlocks)
    assert states == [
        (2, 4, 6), (2, 6, 4), (4, 2, 6), (4, 6, 2), (6, 2, 4), (6, 4, 2),
    ]
    for d in report.deadlocks:
        d.witness.validate(prog)
        assert d.witness.end == d.state
        assert successors(prog, d.state) == []


def test_potential_deadlock_point_checks():
    assert potential_deadlocks(EX3) == [(2, 2)]
    assert is_potential_deadlock(EX3, (2, 2))
    assert not is_potential_deadlock(EX3, (0, 0))
    assert not is_potential_deadlock(EX3, EX3.top)
    # a coordinate parked at a release is never blocked
    assert not is_potential_deadlock(EX3, (3, 2))


def test_potential_deadlock_allows_unrequested_overflow():
    # four-way circular wait; c is doubly held but nobody asks for it, so
    # the state counts as a potential deadlock despite being inadmissible
    prog = Program(
        (
            Thread.from_text("Pc Pb Vb Vc"),
            Thread.from_text("Pb Pa Va Vb"),
            Thread.from_text("Pa Pb Vb Va"),
            Thread.from_text("Pc Pa Va Vc"),
        ),
        make_caps(a=1, b=1, c=1),
    )
    state = (2, 2, 2, 2)
    assert is_potential_deadlock(prog, state)
    assert not state_admissible(prog, state)
    assert state in potential_deadlocks(prog)
    assert state not in {d.state for d in find_deadlocks(prog).deadlocks}
    # the sweep's leaf flags it, so the search never targets it
    assert deadlock._hit_orbits(prog, deadlock._admissible, 0, 10**8)[state] == (1, False)


def test_potential_matches_naive_sweep():
    rng = random.Random(21)
    for _ in range(40):
        caps = CapacityMap((("a", rng.randint(1, 3)), ("b", rng.randint(1, 3))))
        prog = random_program(rng, ["a", "b"], caps, rng.randint(2, 4), 2,
                              identical=rng.random() < 0.5)
        assert set(potential_deadlocks(prog)) == naive_potential_deadlocks(prog)
    # two non-trivial identity groups, interleaved in thread order; most
    # draws have no potential deadlock, so draw until twelve have some
    rng = random.Random(26)
    hits = 0
    for _ in range(300):
        caps = CapacityMap((("a", rng.randint(1, 3)), ("b", rng.randint(1, 3))))
        prog = two_group_program(rng, ["a", "b"], caps, (rng.randint(2, 3), 2), 2)
        got = potential_deadlocks(prog)
        assert got == sorted(naive_potential_deadlocks(prog))
        hits += bool(got)
        if hits == 12:
            break
    assert hits == 12


def test_sweep_sizes_match_orbit_members():
    # the size the sweep counts for each hit, a product of binomials of its
    # counts, against its orbit's members by brute force, on mixed programs:
    # two interleaved identity groups and a lone thread, both leaves
    rng = random.Random(29)
    checked = collections.Counter()
    for _ in range(400):
        caps = CapacityMap((("a", rng.randint(1, 2)), ("b", rng.randint(1, 3))))
        pair = two_group_program(rng, ["a", "b"], caps, (rng.randint(2, 4), rng.randint(2, 3)), 2)
        threads = [*pair.threads, random_thread(rng, ["a", "b"], 2)]
        rng.shuffle(threads)
        prog = Program(tuple(threads), caps)
        for leaf, short in ((deadlock._admissible, 0), (serializability._one_short, 1)):
            for orbit, (size, _) in deadlock._hit_orbits(prog, leaf, short, 10**8).items():
                assert size == len(orbit_members(prog, [orbit])), (prog, orbit)
                # a group split over two acquires is where the counts multiply
                split = any(len({orbit[i] for i in g} - {prog.tops[g[0]]}) > 1
                            for g in prog._groups)
                checked[leaf.__name__, split] += 1
    assert min(checked.values()) >= 20 and len(checked) == 4, checked


@st.composite
def sweep_programs(draw):
    """Mixed programs for the sweep: two or three identity groups,
    interleaved in thread order, plus a lone thread, five threads at most;
    one to three resources of capacity 1-3.  A thread is random, or on two
    or more resources a deadlock chain (``deadsharp_witness``) over a
    shuffled resource order, so that some programs have potential
    deadlocks."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    resources = ["a", "b", "c"][: draw(st.integers(1, 3))]
    caps = CapacityMap(tuple((r, draw(st.integers(1, 3))) for r in resources))
    copies = [draw(st.integers(2, 3))]
    for _ in range(draw(st.integers(1, 2))):
        if sum(copies) < 4:
            copies.append(draw(st.integers(1, 4 - sum(copies))))
    threads = []
    for n in copies + [1]:
        if len(resources) > 1 and rng.random() < 0.6:
            order = rng.sample(resources, rng.randint(2, len(resources)))
            t = Thread.from_text(" ".join(deadlock._chain_actions(order)))
        else:
            t = random_thread(rng, resources, 2)
        threads += [t] * n
    rng.shuffle(threads)
    return Program(tuple(threads), caps)


def brute_force_hits(prog):
    """The hits of the candidate sweep for both leaves by brute force: every
    grid state whose identity groups are sorted and that passes the
    single-state oracle, in ascending order of its values group by group,
    each with its orbit's size from its members and its leaf value (whether
    it is admissible, or the contended resource's index).  Potential
    deadlocks first, then choice points."""
    groups = identity_groups(prog)
    order = [i for g in groups for i in g]
    stops = [acquires_and_top(t) for t in prog.threads]
    deadlocks, choice_points = [], []
    for state in itertools.product(*(range(t + 1) for t in prog.tops)):
        # both oracles need every coordinate at an acquire or at ⊤
        if not all(map(operator.contains, stops, state)) or sort_groups(prog, state) != state:
            continue
        size = len(orbit_members(prog, [state]))
        if is_potential_deadlock(prog, state):
            deadlocks.append((state, (size, state_admissible(prog, state))))
        if (found := is_local_choice_point(prog, state)) is not None:
            choice_points.append((state, (size, prog.resource_names.index(found[0]))))
    for hits in (deadlocks, choice_points):
        hits.sort(key=lambda hit: [hit[0][i] for i in order])
    return deadlocks, choice_points


def within_bounds(leaf, short):
    """``leaf``, checking first that every requested resource is within
    capacity and at most ``short`` below it."""
    def checked(kappa, totals, asks):
        assert all(cap - short <= t <= cap for t, cap, ask in zip(totals, kappa, asks) if ask)
        return leaf(kappa, totals, asks)
    return checked


def test_sweep_matches_brute_force_over_the_grid():
    # the walk skips only count vectors that cannot end in a hit, so it
    # keeps every hit, its order, its size and its leaf value; and it
    # hands its leaf only vectors within the bounds it walks by
    seen = collections.Counter()

    @given(sweep_programs())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def check(prog):
        leaves = ((deadlock._admissible, 0), (serializability._one_short, 1))
        for (leaf, short), expected in zip(leaves, brute_force_hits(prog)):
            hits = deadlock._hit_orbits(prog, within_bounds(leaf, short), short, 10**8)
            got = list(hits.items())
            assert got == expected
            seen[leaf.__name__] += bool(got)
            seen["several orbits"] += len(got) > 1

    check()
    # about a fifth of the draws have potential deadlocks, two thirds
    # choice points
    assert min(seen.values()) >= 10, seen


def test_potential_deadlocks_respect_the_bound():
    caps = make_caps(a=4, b=4, c=2)
    plan = deadsharp_witness(caps)
    prog = Program.power(plan.thread, 10, caps)
    folded = prog.orbit_states()
    assert folded == 92378 < prog.grid_states()
    with pytest.raises(SearchLimitExceeded) as e:
        potential_deadlocks(prog, max_states=folded - 1)
    assert e.value.limit == folded - 1
    assert f"symmetry-folded states ({folded} needed)" in str(e.value)
    hits = potential_deadlocks(prog, max_states=folded)
    assert len(hits) == 3150
    assert plan.expected_state in hits


def test_potential_deadlocks_bound_counts_concrete_states():
    # the (7,7,6) chain at its cut-off: 10,015,005 orbits fit the default
    # bound, the 133,024,320 concrete potential deadlocks they stand for do
    # not, and the sweep stops before expanding them
    caps = make_caps(a=7, b=7, c=6)
    prog = Program.power(deadsharp_witness(caps).thread, 20, caps)
    assert prog.orbit_states() == 10015005
    with pytest.raises(SearchLimitExceeded) as e:
        potential_deadlocks(prog)
    assert "concrete candidate states (133024320 needed)" in str(e.value)
    # the bound is exact: the (2,2) chain at 8 copies folds to 6,435 states
    # and has 6,720 potential deadlocks
    caps = make_caps(a=2, b=2)
    prog = Program.power(deadsharp_witness(caps).thread, 8, caps)
    assert prog.orbit_states() == 6435
    with pytest.raises(SearchLimitExceeded, match=r"concrete candidate states \(6720 needed\)"):
        potential_deadlocks(prog, max_states=6719)
    assert len(potential_deadlocks(prog, max_states=6720)) == 6720


def test_find_deadlocks_bounds_witness_paths():
    # 1680 deadlocks whose witness paths hold 62,160 states in all, more
    # than the 48,620 orbits of the search
    caps = make_caps(a=3, b=3, c=3)
    prog = Program.power(deadsharp_witness(caps).thread, 9, caps)
    assert prog.orbit_states() == 48620
    with pytest.raises(SearchLimitExceeded) as e:
        find_deadlocks(prog, max_states=62159)
    assert "witness-path states (62160 needed)" in str(e.value)
    report = find_deadlocks(prog, max_states=62160)
    assert len(report.deadlocks) == 1680
    assert sum(len(d.witness.states) for d in report.deadlocks) == 62160


def test_family_deadlock_bound_stops_before_the_search():
    # the (7,7,6) chain at its cut-off: the 10,015,005 orbits fit the default
    # bound, the 133,024,320 concrete candidates do not; the family verdict
    # counts no witness paths, so this is the only cap left between them
    caps = make_caps(a=7, b=7, c=6)
    plan = deadsharp_witness(caps)
    assert Program.power(plan.thread, plan.cutoff, caps).orbit_states() <= 10**8
    v = family_deadlock_verdict(plan.thread, caps)
    assert (v.verdict, v.rule, v.cutoff) == ("inconclusive", "search-limit", plan.cutoff)
    assert "concrete candidate states (133024320 needed)" in v.detail


@pytest.mark.parametrize(
    "entries, max_states, witnesses",
    [
        # ladder rung 16 at the default bound: 2,018,016 witnesses, whose
        # paths (127,135,008 states) would trip the bound
        ((6, 5, 5), 10**8, 2018016),
        # orbits and candidates fit at C(25, 9) = 2,042,975; the witness
        # paths (102,582,480 states) do not
        ((6, 6, 4), 2042975, 1681680),
    ],
    ids=["rung16", "664-at-orbit-count"],
)
def test_family_deadlock_verdict_expands_no_state(monkeypatch, entries, max_states, witnesses):
    def fail(*args):
        raise AssertionError("a concrete state was expanded")

    monkeypatch.setattr(deadlock, "_distinct_permutations", fail)
    caps = make_caps(a=entries[0], b=entries[1], c=entries[2])
    plan = deadsharp_witness(caps)
    v = family_deadlock_verdict(plan.thread, caps, max_states)
    assert (v.verdict, v.rule, v.manifests_at_n) == ("no", "deadlock-cutoff", plan.cutoff)
    assert len(v.witnesses) == witnesses
    assert v.detail == f"{witnesses} deadlock(s) in the 16-copy instance"
    assert plan.expected_state in v.witnesses
    assert plan.expected_state[::-1] in v.witnesses
    assert plan.expected_state[1:] not in v.witnesses


def test_family_witness_view_first_record_draws_one_permutation_per_orbit(monkeypatch):
    # ladder rung 16: 2,018,016 witnesses in one orbit; the first record is
    # the orbit itself, and iteration has drawn one permutation of it
    drawn = collections.Counter()
    permutations = deadlock._distinct_permutations

    def counted(groups, orbit):
        for state in permutations(groups, orbit):
            drawn[orbit] += 1
            yield state

    monkeypatch.setattr(deadlock, "_distinct_permutations", counted)
    caps = make_caps(a=6, b=5, c=5)
    plan = deadsharp_witness(caps)
    w = family_deadlock_verdict(plan.thread, caps).witnesses
    assert len(w) == 2018016
    assert next(iter(w)) == min(w.orbits)
    assert dict(drawn) == dict.fromkeys(w.orbits, 1)


def test_orbit_view_past_sys_maxsize():
    # one orbit of 25 distinct values stands for 25! records (past what
    # ``orbit_members`` can list): len() raises, but truth and == do not
    groups = (tuple(range(25)),)
    v = deadlock.OrbitView(groups, {tuple(range(25)): (math.factorial(25), None)})
    assert v and not deadlock.OrbitView(groups, {})
    assert v != deadlock.OrbitView(groups, {tuple(range(1, 26)): (math.factorial(25), None)})
    with pytest.raises(OverflowError):
        len(v)


def test_orbit_view_matches_brute_force_on_interleaved_groups():
    # two interleaved identity groups: the view against every permutation
    # within each group (itertools.permutations), deduplicated and sorted
    rng = random.Random(41)
    caps = make_caps(a=1, b=1)
    for _ in range(60):
        copies = (rng.randint(2, 3), rng.randint(1, 3))
        prog = two_group_program(rng, ["a", "b"], caps, copies, 2)
        assert len(prog._groups) == 2
        orbits = {
            sort_groups(prog, tuple(rng.randint(0, t) for t in prog.tops))
            for _ in range(rng.randint(1, 4))
        }
        sizes = {orbit: (len(orbit_members(prog, [orbit])), None) for orbit in orbits}
        view = deadlock.OrbitView(prog._groups, sizes)
        expected = tuple(orbit_members(prog, orbits))
        size = len(expected)
        assert tuple(view) == expected and len(view) == size
        assert view == expected and expected == view and view != expected[:-1]
        members = set(expected)
        others = [tuple(rng.randint(0, t) for t in prog.tops) for _ in range(20)]
        others += [expected[0][:-1], expected[0] + (0,), ()]
        for state in others:
            assert (state in view) == (state in members)


@st.composite
def family_threads(draw):
    """A thread and capacities for a family verdict: a deadlock-ladder rung
    of capacity sum 2..8 (one deadlock orbit), two chained or random parts
    (often several deadlock orbits), or a random thread (mostly
    deadlock-free)."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["rung", "parts", "random"]))
    if kind == "rung":
        total = draw(st.integers(2, 8))
        k = 2 if total == 2 else 3
        caps = CapacityMap(tuple(zip("abc", (total // k + (i < total % k) for i in range(k)))))
        return kind, deadsharp_witness(caps).thread, caps
    resources = ["a", "b", "c"][: draw(st.integers(2, 3))]
    caps = CapacityMap(tuple((r, draw(st.integers(1, 2))) for r in resources))
    if kind == "random":
        return kind, random_thread(rng, resources, 4), caps
    parts = []
    for _ in range(2):
        order = rng.sample(resources, rng.randint(2, len(resources)))
        if rng.random() < 0.5:
            parts.append(deadsharp_witness(CapacityMap(tuple((r, caps[r]) for r in order))).thread)
        else:
            parts.append(random_thread(rng, resources, 2))
    return kind, Thread.from_actions(parts[0].actions + parts[1].actions), caps


def test_family_witness_view_matches_concrete_route():
    seen = collections.Counter()

    @given(family_threads(), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def check(drawn, seed):
        kind, thread, caps = drawn
        v = family_deadlock_verdict(thread, caps)
        oracle = concrete_family_deadlock_verdict(thread, caps)
        assert (v.verdict, v.rule, v.detail, v.manifests_at_n) == (
            oracle.verdict, oracle.rule, oracle.detail, oracle.manifests_at_n)
        expected = oracle.witnesses
        w = v.witnesses
        assert len(w) == len(expected) and bool(w) == bool(expected)
        assert w == expected and expected == w and v == oracle
        seen[kind, v.verdict] += 1
        if not expected:
            return
        seen["several orbits"] += len(w.orbits) > 1
        assert tuple(w) == expected  # merged, before anything is materialised
        assert w != expected[:-1] and w != expected + expected[:1] and w != list(expected)
        assert w != expected[:-1] + ((-1,) * len(expected[0]),)
        rng = random.Random(seed)
        assert list(w) == list(expected) and hash(w) == hash(expected)
        members = set(expected)
        assert all(state in w for state in rng.sample(expected, min(len(expected), 50)))
        n, tops = len(expected[0]), v.program.tops
        for _ in range(50):
            # grid states, some past ⊤ or below ⊥
            state = tuple(rng.randint(-1, t + 1) for t in tops)
            assert (state in w) == (state in members)
        state = expected[0]
        for other in (state[:-1], state + (0,), (), list(state), None, "x", n,
                      ((1, "a") * n)[:n], ([0],) * n, tuple(float(x) for x in state)):
            assert (other in w) == (other in expected)

    check()
    assert seen["several orbits"] >= 10, seen
    assert all(seen[kind, "no"] >= 10 for kind in ("rung", "parts")), seen
    assert seen["random", "yes"] + seen["parts", "yes"] >= 10, seen


def test_orbit_states_counts_multisets():
    # distinct threads: nothing folds
    rng = random.Random(27)
    for _ in range(20):
        caps = CapacityMap((("a", 1), ("b", 1)))
        prog = random_program(rng, ["a", "b"], caps, rng.randint(1, 4), 3)
        if len(set(prog.threads)) == prog.n:
            assert prog.orbit_states() == prog.grid_states()
    # identical copies: one state per sorted tuple, per group
    for prog in (Program.power(FIG, 3, KABC), Program((T1, T2, T1, T2, T1), K11)):
        grid = itertools.product(*(range(t + 1) for t in prog.tops))
        assert prog.orbit_states() == len({sort_groups(prog, s) for s in grid})


def test_find_deadlocks_matches_naive_search():
    rng = random.Random(22)
    for _ in range(40):
        caps = CapacityMap((("a", rng.randint(1, 2)), ("b", rng.randint(1, 2))))
        prog = random_program(rng, ["a", "b"], caps, rng.randint(2, 3), 3,
                              identical=rng.random() < 0.5)
        got = {d.state for d in find_deadlocks(prog).deadlocks}
        assert got == naive_deadlock_states(prog)


def test_witnesses_always_validate():
    # deadlock-chain threads at their cut-off (T ^ n), mixed and two-group
    # programs of nested lock orders, and one thread: each witness is its
    # orbit's chain permuted onto the deadlock, the per-state query's path
    rng = random.Random(23)
    found = collections.Counter()

    def pooled(index, state):
        # the orbit's chain mapped onto ``state`` by pairing equal values
        # within each identity group in index order, one state at a time
        chain = index._chain(index._code(state))
        source = list(range(len(state)))
        for g in index._groups:
            pool = collections.defaultdict(collections.deque)
            for i in g:
                pool[chain[-1][i]].append(i)
            for i in g:
                source[i] = pool[state[i]].popleft()
        return tuple(tuple(st[j] for j in source) for st in chain)

    def nested(resources):
        order = rng.sample(resources, len(resources))
        return Thread.from_text(" ".join([f"P{r}" for r in order] + [f"V{r}" for r in order[::-1]]))

    for k in range(60):
        resources = ["a", "b", "c"][: rng.randint(2, 3)]
        caps = CapacityMap(tuple((r, rng.randint(1, 2)) for r in resources))
        kind = ("power", "mixed", "two-groups", "one-thread")[k % 4]
        if kind == "power":
            prog = Program.power(deadsharp_witness(caps).thread, caps.total(), caps)
        elif kind == "mixed":
            prog = Program(tuple(nested(resources) for _ in range(rng.randint(2, 4))), caps)
        elif kind == "two-groups":
            threads = [nested(resources)] * 2 + [nested(resources)] * rng.randint(1, 2)
            rng.shuffle(threads)
            prog = Program(tuple(threads), caps)
        else:
            prog = random_program(rng, resources, caps, 1, 3)
        index = ReachabilityIndex(prog)
        top = index.witness(prog.top)
        top.validate(prog)
        assert (top.start, top.end) == (prog.bottom, prog.top)
        for d in find_deadlocks(prog).deadlocks:
            d.witness.validate(prog)
            assert d.witness.start == prog.bottom
            assert d.witness.end == d.state
            assert d.witness == index.witness(d.state)
            assert d.witness.states == pooled(index, d.state)
            found[kind] += 1
    assert all(found[kind] >= 20 for kind in ("power", "mixed", "two-groups")), found


def _chain_thread(*names):
    return Thread.from_text(" ".join(deadlock._chain_actions(names)))


# per program: the deadlock count, and the sha256 of
# repr([(state, witness.states), ...]) over find_deadlocks' report; witness
# paths are output, so a change of these digests is a change of output
WITNESS_DIGESTS = {
    "ladder": (560, "f16cded41585bc4c9465e18d8c1facba9e7356e0d8fd0bfa55cd9eaa6ad68b12"),
    "two-groups": (324, "5a32bb9990def26c669ebea460eaa198912bfa190245b0b00db8335a45aa7254"),
    "mixed": (87, "b103fd8fa3283bd6ba6062f6f844d75ef08b53dc7facb798e3fe5be6a0a5702d"),
}


@pytest.mark.parametrize("name", WITNESS_DIGESTS)
def test_witness_paths_match_recorded_digests(name):
    # the witness bytes are output: which copy a replayed step moves and how
    # tied copies are paired onto a state both change them.  Each path is
    # also the per-state query's, which pairs the state's ties with the
    # chain's directly, where the report's pairs them with its orbit path's
    if name == "ladder":
        caps = make_caps(a=3, b=3, c=2)
        program = Program.power(deadsharp_witness(caps).thread, 8, caps)
    elif name == "two-groups":  # T U T U T U
        program = Program((_chain_thread("a", "b"), _chain_thread("b", "a")) * 3,
                          make_caps(a=2, b=2))
    else:  # three copies of one thread and two lone ones
        t = _chain_thread("a", "b", "c")
        lone = (_chain_thread("c", "b"), Thread.from_text("Pb Pc Vc Pa Va Vb"))
        program = Program((t, lone[0], t, lone[1], t), make_caps(a=1, b=2, c=1))
    count, digest = WITNESS_DIGESTS[name]
    report = find_deadlocks(program)
    pairs = [(d.state, d.witness.states) for d in report.deadlocks]
    assert len(pairs) == count
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == digest
    index = ReachabilityIndex(program)
    assert all(index.witness(d.state) == d.witness for d in report.deadlocks)


def test_reachability_index_agrees_with_plain_search():
    rng = random.Random(24)
    for _ in range(25):
        caps = CapacityMap((("a", rng.randint(1, 2)), ("b", rng.randint(1, 2))))
        t = random_thread(rng, ["a", "b"], 3)
        prog = Program.power(t, 3, caps)
        idx = ReachabilityIndex(prog)
        plain = reachable_states(prog)
        for s in plain:
            assert idx.is_reachable(s)
        # quotient never claims an unreachable state
        import itertools
        for s in itertools.product(*(range(x + 1) for x in prog.tops)):
            if idx.is_reachable(s):
                assert s in plain


@st.composite
def folding_programs(draw):
    """Random programs of three kinds: mixed threads, ``T ^ n``, and two
    interleaved groups ``T ^ a | U ^ b``."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    resources = ["a", "b", "c"][: draw(st.integers(1, 3))]
    caps = CapacityMap(tuple((r, draw(st.integers(1, 3))) for r in resources))
    kind = draw(st.sampled_from(["mixed", "power", "two-groups"]))
    if kind == "two-groups":
        return two_group_program(rng, resources, caps, (2, draw(st.integers(2, 3))), 2)
    return random_program(rng, resources, caps, draw(st.integers(2, 4)), 3,
                          identical=kind == "power")


@given(folding_programs())
@settings(max_examples=120, deadline=None)
def test_orbit_search_matches_sorting_oracle(prog):
    # same orbit representatives in the same discovery order, each with the
    # same parent position, so witness paths are unchanged
    index = ReachabilityIndex(prog)
    assert list(index_parents(index).items()) == list(sorted_orbit_parents(prog).items())
    assert index.visited == len({sort_groups(prog, s) for s in reachable_states(prog)})


def acquires_and_top(t):
    """The positions of a thread's acquires, and ⊤."""
    return {p for p, act in enumerate(t.actions, start=1) if act.kind == "P"} | {t.top}


@given(folding_programs(), st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_reduced_search_matches_full_search(prog, seed):
    rng = random.Random(seed)
    full = ReachabilityIndex(prog)
    grid = list(itertools.product(*(range(t + 1) for t in prog.tops)))
    reached = list(index_parents(full))
    # reachable orbits, and any grid states, some unreachable or unsorted
    targets = rng.sample(reached, min(len(reached), rng.randint(0, 2)))
    targets += rng.sample(grid, rng.randint(0, 2))
    reduced = ReachabilityIndex(prog, targets=targets)
    ceiling = tuple(map(max, zip(prog.bottom, *(sort_groups(prog, t) for t in targets))))
    assert reduced.ceiling == ceiling
    stops = [acquires_and_top(t) for t in prog.threads]
    for state in grid:
        if all(map(operator.le, sort_groups(prog, state), ceiling)) and all(
            map(operator.contains, stops, state)
        ):
            # at or below the ceiling, every coordinate at an acquire or ⊤
            reachable = full.is_reachable(state)
            assert reduced.is_reachable(state) == reachable
            path = reduced.witness(state)
            assert (path is None) == (not reachable)
            if path is not None:
                path.validate(prog)
                assert (path.start, path.end) == (prog.bottom, state)
        else:
            with pytest.raises(ValueError):
                reduced.is_reachable(state)
            with pytest.raises(ValueError):
                reduced.witness(state)


@given(folding_programs(), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_search_on_demand_matches_a_finished_search(prog, targeted, seed):
    # queries in any order, with visited read at any point or never, give
    # the answers, witness paths and stored parents of a finished search
    rng = random.Random(seed)
    grid = list(itertools.product(*(range(t + 1) for t in prog.tops)))
    targets = rng.sample(grid, rng.randint(1, 3)) if targeted else None
    finished = ReachabilityIndex(prog, targets=targets)
    parents = index_parents(finished)
    stops = [acquires_and_top(t) for t in prog.threads]
    decided = [
        s for s in grid
        if not targeted
        or (
            all(map(operator.le, sort_groups(prog, s), finished.ceiling))
            and all(map(operator.contains, stops, s))
        )
    ]
    rng.shuffle(decided)
    read_at = rng.choice([None, *range(len(decided) + 1)])
    lazy = ReachabilityIndex(prog, targets=targets)
    for i, state in enumerate(decided + [None]):
        if i == read_at:
            assert lazy.visited == finished.visited
        if state is None:
            break
        if rng.random() < 0.5:
            assert lazy.is_reachable(state) == finished.is_reachable(state)
        else:
            assert lazy.witness(state) == finished.witness(state)
    assert list(index_parents(lazy).items()) == list(parents.items())


@st.composite
def long_run_programs(draw):
    """``T ^ 5``–``T ^ 6`` of a one- or two-pair thread, whose copies stand
    in long runs of equal positions, and three distinct threads in an
    interleaved thread order such as ``T U T V U T``."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    power = draw(st.booleans())
    # two resources give more than three distinct threads of up to two pairs
    resources = ["a", "b", "c"][: draw(st.integers(1 if power else 2, 3))]
    caps = CapacityMap(tuple((r, draw(st.integers(1, 3))) for r in resources))
    if power:
        thread = random_thread(rng, resources, draw(st.integers(1, 2)))
        return Program.power(thread, draw(st.integers(5, 6)), caps)
    threads: list[Thread] = []
    while len(threads) < 3:
        t = random_thread(rng, resources, 2)
        if t not in threads:
            threads.append(t)
    order = draw(st.sampled_from(["010210", "012012", "0120", "10201", "021120"]))
    return Program(tuple(threads[int(k)] for k in order), caps)


@given(long_run_programs(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_search_order_on_long_runs_and_three_groups(prog, seed):
    # runs of up to six equal positions, and the runs of three groups
    # merged by their first coordinates: same orbits, order and parents
    full = ReachabilityIndex(prog)
    assert list(index_parents(full).items()) == list(sorted_orbit_parents(prog).items())
    # targets the reduced search decides: every coordinate at an acquire or ⊤
    stops = [acquires_and_top(t) for t in prog.threads]
    decided = [s for s in index_parents(full) if all(map(operator.contains, stops, s))]
    rng = random.Random(seed)
    targets = rng.sample(decided, min(len(decided), rng.randint(1, 3)))
    reduced = ReachabilityIndex(prog, targets=targets)
    expected = release_first_parents(prog, reduced.ceiling)
    assert list(index_parents(reduced).items()) == list(expected.items())


def test_queries_refuse_malformed_states():
    # a state of the wrong length or out of range is no state of the program
    index = ReachabilityIndex(EX3)
    for state in ((0, 0, 7), (0,), (-1, 0)):
        with pytest.raises(ValueError):
            index.is_reachable(state)
        with pytest.raises(ValueError):
            index.witness(state)


@st.composite
def deadlock_prone_programs(draw):
    """Folding programs on 2-3 resources of capacity 1-2 with up to four
    acquire/release pairs per thread; the cut-off instance of a
    deadlock-chain thread (``deadsharp_witness``), which deadlocks; that of
    two such chains run one after the other, the second over a shuffled
    resource order; or, at capacity 2, copies of a choice-point thread
    (``sharpserializable_witness``) at and one above the size where its
    choice point is reachable."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    resources = ["a", "b", "c"][: draw(st.integers(2, 3))]
    caps = CapacityMap(tuple((r, draw(st.integers(1, 2))) for r in resources))
    kind = draw(st.sampled_from(["mixed", "power", "two-groups", "chain", "chains", "lcp"]))
    if kind == "chain":
        chain = deadsharp_witness(caps).thread
        return Program.power(chain, caps.total(), caps)
    if kind == "chains":
        order = rng.sample(resources, len(resources))
        chains = Thread.from_text(
            " ".join(deadlock._chain_actions(resources) + deadlock._chain_actions(order))
        )
        return Program.power(chains, caps.total(), caps)
    if kind == "lcp":
        caps = CapacityMap(tuple((r, 2) for r in resources))
        plan = sharpserializable_witness(caps)
        return Program.power(plan.thread, plan.instance_n + draw(st.integers(0, 1)), caps)
    if kind == "two-groups":
        return two_group_program(rng, resources, caps, (2, draw(st.integers(1, 2))), 3)
    return random_program(rng, resources, caps, draw(st.integers(2, 4)), 4,
                          identical=kind == "power")


def test_bounded_engines_match_full_search_oracles():
    seen = {"reachable choice points": 0, "deadlocks": 0, "family no": 0, "family yes": 0}

    @given(st.one_of(folding_programs(), deadlock_prone_programs()))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def check(prog):
        cps = local_choice_points(prog)
        assert cps == full_search_choice_points(prog)
        # the bounded body decides the same candidate and deadlock orbits,
        # and visits no more orbits than the full search
        hits, paths, index = _deadlock_orbits(prog, 10**8, bounded=True)
        full_hits, full_paths, full_index = _deadlock_orbits(prog, 10**8, bounded=False)
        assert (hits, list(paths)) == (full_hits, list(full_paths))
        # each deadlock orbit comes with its path, validated, ending at it
        for orbit in paths:
            assert paths[orbit].end == full_paths[orbit].end == orbit
        if index is not None:
            assert index.visited <= full_index.visited
            # the release-first search: same orbits, order and parents
            expected = release_first_parents(prog, index.ceiling)
            assert list(index_parents(index).items()) == list(expected.items())
        full = find_deadlocks(prog)
        assert _deadlock_states(prog, 10**8) == tuple(d.state for d in full.deadlocks)
        thread = prog.threads[0]
        verdict = family_deadlock_verdict(thread, prog.caps)
        witnesses = full_search_deadlock_witnesses(thread, prog.caps)
        assert verdict.verdict == ("no" if witnesses else "yes")
        assert verdict.witnesses == witnesses
        seen["reachable choice points"] += any(cp.reachable for cp in cps)
        seen["deadlocks"] += bool(full.deadlocks)
        seen["family " + verdict.verdict] += 1

    check()
    assert all(count >= 10 for count in seen.values()), seen


@given(st.one_of(folding_programs(), deadlock_prone_programs()), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_reduced_search_stores_only_what_it_decides(prog, seed):
    # a step out of an acquire goes on through the releases after it, so
    # every stored orbit stands at ⊥, an acquire or ⊤ in each coordinate
    rng = random.Random(seed)
    stops = [sorted(acquires_and_top(t)) for t in prog.threads]
    targets = [tuple(map(rng.choice, stops)) for _ in range(rng.randint(1, 3))]
    index = ReachabilityIndex(prog, targets=targets)
    stops = [set(s) | {0} for s in stops]
    for orbit in index_parents(index):
        assert all(map(operator.contains, stops, orbit)), orbit


def test_bounded_choice_points_keep_unreachable_flags():
    # unreachable admissible choice points are rare in random programs; this
    # one was found by search, and (1, 1, 6, 6) is one of them
    prog = Program(
        tuple(map(Thread.from_text, ["Pa Va Pb Vb", "Pc Pb Vc Vb",
                                     "Pa Pc Pb Va Vc Pa Va Vb",
                                     "Pa Va Pa Pb Vb Pc Va Vc"])),
        KABC,
    )
    cps = local_choice_points(prog)
    assert cps == full_search_choice_points(prog)
    flags = {cp.state: cp.reachable for cp in cps}
    assert flags[(1, 1, 6, 6)] is False
    assert True in flags.values()


def test_full_search_visits_every_reachable_orbit():
    # deadlocks --json prints stats.visited, so find_deadlocks keeps the
    # whole folded space while the family verdict stops at its ceiling
    caps = make_caps(a=3, b=3, c=2)
    plan = deadsharp_witness(caps)
    program = Program.power(plan.thread, 8, caps)
    report = find_deadlocks(program)
    assert report.stats.visited == ReachabilityIndex(program).visited == 13408
    # the verdict routes' search, reduced below the ceiling of their
    # targets, stores far fewer orbits
    reduced = ReachabilityIndex(program, targets=[plan.expected_state])
    assert reduced.visited == 56
    assert _deadlock_orbits(program, 10**8, bounded=True)[2].visited == 56
    verdict = family_deadlock_verdict(plan.thread, caps)
    assert verdict.witnesses == full_search_deadlock_witnesses(plan.thread, caps)
    assert verdict.witnesses == tuple(d.state for d in report.deadlocks)


def test_find_deadlocks_stops_at_its_last_deadlock(monkeypatch):
    # the one deadlock orbit of the (3,3,2) witness at 8 copies is stored
    # 4,187th of 13,408; reading stats finishes the search, and the report
    # then keeps the counts, not the search
    built = []

    class Spy(ReachabilityIndex):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(deadlock, "ReachabilityIndex", Spy)
    caps = make_caps(a=3, b=3, c=2)
    program = Program.power(deadsharp_witness(caps).thread, 8, caps)
    report = find_deadlocks(program)
    (index,) = built
    assert len(index._links) == 4187
    assert len(report.deadlocks) == 560
    assert report.stats.visited == len(index._links) == 13408
    ref = weakref.ref(index)
    del index, built[:]
    gc.collect()
    assert ref() is None
    fresh = find_deadlocks(program)
    assert repr(fresh) == repr(report) and fresh == report


def ladder_caps(total):
    """Three resources whose capacities sum to ``total``, as even as
    possible, larger first (24 gives 8, 8, 8)."""
    return make_caps(**{r: total // 3 + (i < total % 3) for i, r in enumerate("abc")})


@pytest.mark.parametrize("total, stored", [(8, 56), (16, 268), (24, 753)])
def test_release_first_search_stored_orbits(total, stored):
    # the full search below the ceiling stores 1,000, 22,638 and 188,325;
    # the reduced one stores no orbit with a copy at a release
    caps = ladder_caps(total)
    plan = deadsharp_witness(caps)
    program = Program.power(plan.thread, total, caps)
    _, paths, index = _deadlock_orbits(program, 10**18, bounded=True)
    assert index.visited == stored
    assert list(paths) == [sort_groups(program, plan.expected_state)]


@pytest.mark.parametrize("total, stored", [(64, 11196), (128, 83376)])
def test_release_first_search_to_the_ladder_deadlock(total, stored):
    caps = ladder_caps(total)
    plan = deadsharp_witness(caps)
    program = Program.power(plan.thread, total, caps)
    index = ReachabilityIndex(program, 10**18, targets=[plan.expected_state])
    assert index.visited == stored
    path = index.witness(plan.expected_state)
    path.validate(program)
    assert (path.start, path.end) == (program.bottom, plan.expected_state)


def test_stored_codes_grow_with_the_count_vectors():
    # a large group's code holds its counts at positions 1..⊤ as digits of
    # radix len(g) + 1, so its bit length follows the positions and the
    # group sizes' bit lengths, not the number of copies: 35 bits here,
    # where a mixed-radix code over the 64 coordinates took 143
    caps = ladder_caps(64)
    program = Program.power(deadsharp_witness(caps).thread, 64, caps)
    hits = deadlock._hit_orbits(program, deadlock._admissible, 0, 10**18)
    index = ReachabilityIndex(program, 10**18, targets=[h for h, (_, ok) in hits.items() if ok])
    bound = sum(program.tops[g[0]] * (len(g) + 1).bit_length() for g in program._groups)
    index.visited  # the search runs on demand: this stores every code
    assert max(index._links).bit_length() <= bound


@pytest.mark.parametrize("copies", ["distinct", "same"])
def test_stored_codes_of_long_threads_with_few_copies(copies):
    # a group of one or two copies codes its power sums, where digits per
    # position would take a bit or more each (over 200 bits here): one
    # copy's code is its position times its weight, so distinct threads
    # code as the mixed radix of their positions, and two copies of a
    # thread as p + p**2 summed, each a digit of its own
    pairs = " ".join(["Pa Va"] * 50)
    t = Thread.from_text(pairs + " Pb Pc Vc Vb Pc Pb Vb Vc")
    u = Thread.from_text(pairs + " Pc Pb Vb Vc") if copies == "distinct" else t
    program = Program((t, u), CapacityMap((("a", 1), ("b", 1), ("c", 1))))
    index = ReachabilityIndex(program)
    assert [len(g) for g in program._groups] == ([1, 1] if copies == "distinct" else [2])
    index.visited  # the search runs on demand: this stores every code
    if copies == "distinct":
        assert max(index._links) < (t.top + 1) * (u.top + 1)
    else:
        assert max(index._links) < (2 * t.top + 1) * (2 * t.top**2 + 1)
    assert find_deadlocks(program).deadlocks


def test_family_deadlock_verdict_at_capacity_sum_32():
    caps = ladder_caps(32)
    assert caps.total() == 32 and [caps[r] for r in "abc"] == [11, 11, 10]
    plan = deadsharp_witness(caps)
    verdict = family_deadlock_verdict(plan.thread, caps, max_states=10**18)
    assert verdict.verdict == "no"
    assert plan.expected_state in verdict.witnesses


@pytest.mark.parametrize("total", [64, 128])
def test_sweep_at_ladder_sum(total):
    # the deadlock sweep on the ladder witness at its cut-off finds exactly
    # the plan's orbit; it walks only the count vectors that can still fill
    # every requested resource, so it ends well under a second
    caps = ladder_caps(total)
    plan = deadsharp_witness(caps)
    program = Program.power(plan.thread, total, caps)
    started = time.process_time()
    hits = deadlock._hit_orbits(program, deadlock._admissible, 0, 10**18)
    assert time.process_time() - started < 1
    size = math.factorial(total) // math.prod(math.factorial(caps[r]) for r in caps)
    assert hits == {tuple(sorted(plan.expected_state)): (size, True)}


def test_choice_point_sweep_on_the_444_witness():
    # the choice-point sweep on the (4,4,4) witness at the cut-off of the
    # family route holds the plan's orbit, padded with copies at ⊤, with
    # the contended resource
    caps = make_caps(a=4, b=4, c=4)
    plan = sharpserializable_witness(caps)
    n = serializability.lcp_cutoff(caps)
    program = Program.power(plan.thread, n, caps)
    started = time.process_time()
    hits = deadlock._hit_orbits(program, serializability._one_short, 1, 10**18)
    assert time.process_time() - started < 1
    orbit = tuple(sorted(plan.expected_state)) + (plan.thread.top,) * (n - plan.instance_n)
    size = math.factorial(n)
    for count in collections.Counter(orbit).values():
        size //= math.factorial(count)
    assert hits[orbit] == (size, program.resource_names.index(plan.expected_resource))


def release_first_index():
    """The (3,3,2) chain at n=8 searched release-first up to the ceiling of
    its deadlock, with a state that stands at ⊥ or a release in some
    coordinate and is reachable."""
    caps = make_caps(a=3, b=3, c=2)
    plan = deadsharp_witness(caps)
    program = Program.power(plan.thread, 8, caps)
    index = ReachabilityIndex(program, targets=[plan.expected_state])
    # positions 0 (⊥) and 3 (Va) request nothing
    free = (0, 0, 0, 0, 0, 2, 3, 4)
    assert ReachabilityIndex(program).is_reachable(free)
    return index, plan, free


def test_release_first_index_refuses_free_states_in_is_reachable():
    index, plan, free = release_first_index()
    assert index.is_reachable(plan.expected_state)
    for state in (free, index.program.bottom, (0,) * 7 + (3,)):
        with pytest.raises(ValueError, match="neither an acquire nor ⊤"):
            index.is_reachable(state)


def test_release_first_index_refuses_free_states_in_witness():
    index, plan, free = release_first_index()
    index.witness(plan.expected_state).validate(index.program)
    for state in (free, index.program.bottom, (0,) * 7 + (3,)):
        with pytest.raises(ValueError, match="neither an acquire nor ⊤"):
            index.witness(state)


def test_deadlocks_are_decided_once_per_orbit(monkeypatch):
    # the (3,3,2) chain at n=8 has 560 deadlocks, all in one orbit: one sweep
    # per call, and the verdicts validate one witness chain, not 560 paths
    caps = make_caps(a=3, b=3, c=2)
    plan = deadsharp_witness(caps)
    program = Program.power(plan.thread, 8, caps)
    sweeps, validations = [], []
    sweep, validate = deadlock._hit_orbits, LatticePath.validate
    monkeypatch.setattr(deadlock, "_hit_orbits",
                        lambda *args: sweeps.append(1) or sweep(*args))
    monkeypatch.setattr(LatticePath, "validate",
                        lambda path, prog: validations.append(1) or validate(path, prog))
    expansions, chains, queries = [], [], []
    permutations, chain = deadlock._distinct_permutations, ReachabilityIndex._chain
    witness = ReachabilityIndex.witness
    monkeypatch.setattr(deadlock, "_distinct_permutations",
                        lambda *args: expansions.append(1) or permutations(*args))
    monkeypatch.setattr(ReachabilityIndex, "_chain",
                        lambda index, code: chains.append(code) or chain(index, code))
    monkeypatch.setattr(ReachabilityIndex, "witness",
                        lambda index, state: queries.append(state) or witness(index, state))
    # one expansion of the candidate orbits, one witness query and one chain
    # for the one deadlock orbit, and every reported witness validated
    assert len(find_deadlocks(program).deadlocks) == 560
    assert (len(sweeps), len(expansions), len(queries), len(chains)) == (1, 1, 1, 1)
    assert len(validations) >= 560
    sweeps.clear()
    validations.clear()
    assert len(family_deadlock_verdict(plan.thread, caps).witnesses) == 560
    assert (len(sweeps), len(validations)) == (1, 1)
    validations.clear()
    assert len(program_deadlock_verdict(program).witnesses) == 560
    assert len(validations) == 1


def test_orbit_sizes_are_counted_once(monkeypatch, capsys, tmp_path):
    # each candidate orbit's size is computed once, in the sweep, from its
    # counts (``comb``); every guard, ``len``, the family details and the
    # print bound of ``pvguard family`` read that size.  The sweep is
    # wrapped to report each size twice over, so a reader that recounted an
    # orbit would show its true size, and no ``comb`` may run once the sweep
    # has returned
    mixed = Program((T1, T1, T2, T2), K11)
    # two copies are within the cut-off, so the verdict searches directly
    pair = Program.power(Thread.from_text("Pa Pb Vb Va Pb Pa Va Vb"), 2, K11)
    admissible = sum(state_admissible(mixed, s) for s in potential_deadlocks(mixed))
    computed, swept, guarded = [], [], []
    comb, sweep = deadlock.comb, deadlock._hit_orbits
    monkeypatch.setattr(deadlock, "comb", lambda *args: computed.append(1) or comb(*args))

    def doubled(*args):
        hits = sweep(*args)
        swept.append(len(computed))
        return {orbit: (2 * size, value) for orbit, (size, value) in hits.items()}

    monkeypatch.setattr(deadlock, "_hit_orbits", doubled)
    monkeypatch.setattr(serializability, "_hit_orbits", doubled)
    for module, name in [(deadlock, "_guard_members"), (deadlock, "_guard_paths"),
                         (serializability, "_guard_members"), (cli, "_guard_paths")]:
        guard = getattr(module, name)
        monkeypatch.setattr(module, name, lambda orbits, bound, guard=guard, name=name:
                            guarded.append((name, len(orbits) if isinstance(
                                orbits, deadlock.OrbitView) else
                                sum(s for s, _ in orbits.values())))
                            or guard(orbits, bound))
    chain_caps = make_caps(a=3, b=3, c=2)
    chain = deadsharp_witness(chain_caps).thread
    lcp_caps = make_caps(a=2, b=2)
    lcp = sharpserializable_witness(lcp_caps).thread
    source = tmp_path / "chain.pv"
    source.write_text(f"resource a cap 3\nresource b cap 3\nresource c cap 2\nthread T = {chain}\n")

    def family_deadlock():
        v = family_deadlock_verdict(chain, chain_caps)
        assert v.detail.startswith(f"{len(v.witnesses)} deadlock(s)")
        return v.witnesses

    def family_serializability():
        v = family_serializability_verdict(lcp, lcp_caps)
        assert v.detail.startswith(f"{len(v.choice_points)} local choice point(s)")
        return v.choice_points

    def family_command():
        assert cli.main(["family", str(source), "deadlock", "--json"]) == 1
        return json.loads(capsys.readouterr().out)["result"]["witnesses"]

    # per route: the states it lists, and per guard the sizes it summed,
    # which are the sweep's, twice over
    for route, found, guards in [
        (lambda: potential_deadlocks(mixed), 16, [("_guard_members", 32)]),
        (lambda: local_choice_points(mixed), 26, [("_guard_members", 52)]),
        (lambda: find_deadlocks(mixed).deadlocks, 16,
         [("_guard_paths", 2 * admissible), ("_guard_members", 32)]),
        (lambda: program_deadlock_verdict(pair).witnesses, 2, [("_guard_members", 4)]),
        (family_deadlock, 560, [("_guard_members", 2 * 560)]),
        (family_serializability, 540, [("_guard_members", 2 * 540)]),
        (family_command, 560, [("_guard_members", 2 * 560), ("_guard_paths", 2 * 560)]),
    ]:
        computed.clear()
        swept.clear()
        guarded.clear()
        listed = route()
        assert len(tuple(listed)) == found
        if isinstance(listed, deadlock.OrbitView):
            assert len(listed) == 2 * found
        assert guarded == guards
        assert len(swept) == 1 and 0 < swept[0] == len(computed)


def test_reachability_index_witness_targets_exact_state():
    prog = Program.power(FIG, 3, KABC)
    idx = ReachabilityIndex(prog)
    for target in [(2, 4, 6), (6, 2, 4), (4, 6, 2)]:
        path = idx.witness(target)
        assert path.end == target
        path.validate(prog)


def test_pad_and_scatter():
    prog = Program.power(T1, 4, K11)
    assert _scatter_state((2, 3), (1, 3), prog) == (5, 2, 5, 3)


def test_deadlock_cutoff_totals():
    assert deadlock_cutoff(K11) == 2
    assert deadlock_cutoff(make_caps(a=2, b=3)) == 5
    assert deadlock_cutoff(make_caps(a=1)) == 1


def test_family_verdict_deadlocking_thread():
    v = family_deadlock_verdict(FIG, KABC)
    assert v.property_name == "deadlock-freedom"
    assert v.verdict == "no"
    assert v.cutoff == 3
    assert v.rule == "deadlock-cutoff"
    assert v.manifests_at_n == 3
    assert (6, 2, 4) in v.witnesses


def test_family_verdict_single_access_shortcut():
    v = family_deadlock_verdict(T1, K11)
    assert v.verdict == "yes"
    assert v.rule == "single-access"
    assert single_access(T1)


def test_family_verdict_search_route_clean():
    t = Thread.from_text("Pa Va Pa Va")
    v = family_deadlock_verdict(t, make_caps(a=1))
    assert v.verdict == "yes"
    assert v.rule == "deadlock-cutoff"
    assert v.cutoff == 1
    # cutoff uses only the resources the thread touches
    v = family_deadlock_verdict(t, make_caps(a=1, b=9))
    assert v.cutoff == 1


def test_family_verdict_limit_becomes_inconclusive():
    v = family_deadlock_verdict(FIG, KABC, max_states=5)
    assert v.verdict == "inconclusive"
    assert v.rule == "search-limit"


def test_program_verdict_direct_when_small():
    v = program_deadlock_verdict(EX3)
    assert v.verdict == "no"
    assert v.rule == "direct-search"
    assert v.manifests_at_n == 2
    assert v.witnesses == ((2, 2),)


def test_program_verdict_subprogram_route():
    # three distinct threads, M = 2, so pairs decide the whole program
    t3 = Thread.from_text("Pa Va")
    prog = Program((T1, T2, t3), K11)
    v = program_deadlock_verdict(prog)
    assert v.rule == "subprogram-cutoff"
    assert v.verdict == "no"
    # the deadlocked pair is scattered back into the full coordinates
    assert v.witnesses == ((2, 2, 3),)
    state = v.witnesses[0]
    assert successors(prog, state) == []
    assert is_potential_deadlock(prog, state)


def test_program_verdict_subprogram_clean():
    t3 = Thread.from_text("Pa Va")
    prog = Program((T1, T1, t3), K11)
    v = program_deadlock_verdict(prog)
    assert v.rule == "subprogram-cutoff"
    assert v.verdict == "yes"


@pytest.mark.parametrize(
    "picks,verdict,rule",
    [
        ("EE", "yes", "direct-search"),
        ("EEEEE", "yes", "direct-search"),
        ("TEE", "yes", "subprogram-cutoff"),
        ("ETE", "yes", "subprogram-cutoff"),
        ("TTEE", "yes", "subprogram-cutoff"),
        ("TUEE", "no", "subprogram-cutoff"),
        ("ETUE", "no", "subprogram-cutoff"),
    ],
)
def test_program_verdict_with_resource_free_threads_matches_find_deadlocks(picks, verdict, rule):
    # the empty thread uses no resource: a program of empty threads has
    # cut-off 0 and no sub-program of that size, so it is searched directly;
    # mixed with threads that use resources it takes the sub-program route
    threads = {"E": Thread.from_actions([]), "T": T1, "U": T2}
    prog = Program(tuple(threads[c] for c in picks), K11)
    v = program_deadlock_verdict(prog)
    assert (v.verdict, v.rule) == (verdict, rule)
    deadlocks = {d.state for d in find_deadlocks(prog).deadlocks}
    assert (verdict == "no") == bool(deadlocks)
    assert set(v.witnesses) <= deadlocks


def count_vectors(program, total):
    """Per-group counts, each at most its group's size, summing to ``total``."""
    sizes = [len(g) for g in program._groups]
    return sum(sum(c) == total for c in itertools.product(*(range(k + 1) for k in sizes)))


@pytest.mark.parametrize(
    "copies,caps",
    [((3, 2, 2), dict(a=1, b=1)), ((3, 2, 2), dict(a=2, b=1)), ((10, 10, 10), dict(a=5, b=5))],
    ids=["3+2+2,M=2", "3+2+2,M=3", "10+10+10,M=10"],
)
def test_program_verdict_searches_one_subprogram_per_count_vector(monkeypatch, copies, caps):
    # deadlock-free (b is taken only after a, or alone), so every sub-program
    # is searched: one per vector of per-group counts summing to M, where
    # index tuples would be C(n, M), 30,045,015 for the last case
    threads = [Thread.from_text(t) for t in ("Pa Va", "Pb Vb", "Pa Pb Vb Va")]
    order = [t for t, k in zip(threads, copies) for _ in range(k)]
    random.Random(7).shuffle(order)
    prog = Program(tuple(order), make_caps(**caps))
    calls = []
    search = deadlock._deadlock_states
    monkeypatch.setattr(deadlock, "_deadlock_states",
                        lambda sub, limit: calls.append(sub.n) or search(sub, limit))
    v = program_deadlock_verdict(prog)
    m = sum(caps.values())
    assert (v.verdict, v.rule) == ("yes", "subprogram-cutoff")
    assert calls == [m] * count_vectors(prog, m)
    assert len(calls) == {2: 6, 3: 8, 10: 66}[m]


def test_subprogram_indices_are_the_sorted_count_vectors():
    # random interleavings of groups: the enumeration is lazy, so its order
    # is checked against sorting every count vector's first indices, and the
    # count the bound reads against the enumeration
    rng = random.Random(45)
    for _ in range(200):
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 5))]
        labels = [k for k, size in enumerate(sizes) for _ in range(size)]
        rng.shuffle(labels)
        groups = [tuple(i for i, k in enumerate(labels) if k == g) for g in range(len(sizes))]
        size = rng.randint(1, len(labels))
        expected = sorted(
            tuple(sorted(i for g, k in zip(groups, counts) for i in g[:k]))
            for counts in itertools.product(*(range(len(g) + 1) for g in groups))
            if sum(counts) == size
        )
        assert list(deadlock._subprogram_indices(groups, size)) == expected
        assert deadlock._subprogram_count(groups, size) == len(expected)


def test_program_verdict_bounds_the_subprogram_count(monkeypatch):
    # 30 distinct threads over ten capacity-1 resources (M = 10) have
    # C(30, 10) = 30,045,015 sub-programs: refused before any search, where
    # listing them alone takes minutes
    names = "abcdefghij"
    pairs = list(itertools.combinations(names, 2))[:30]
    prog = Program(tuple(Thread.from_text(f"P{x} P{y} V{y} V{x}") for x, y in pairs),
                   make_caps(**{r: 1 for r in names}))
    calls = []
    monkeypatch.setattr(deadlock, "_deadlock_states", lambda sub, limit: calls.append(sub) or ())
    with pytest.raises(SearchLimitExceeded, match=r"1000 sub-programs \(30045015 needed\)"):
        program_deadlock_verdict(prog, max_states=1000)
    assert calls == []
    # the bound is exact: 66 count vectors for 10 + 10 + 10 copies at M = 10
    threads = [Thread.from_text(t) for t in ("Pa Va", "Pb Vb", "Pa Pb Vb Va")]
    prog = Program(tuple(t for t in threads for _ in range(10)), make_caps(a=5, b=5))
    with pytest.raises(SearchLimitExceeded, match=r"sub-programs \(66 needed\)"):
        program_deadlock_verdict(prog, max_states=65)
    assert calls == []
    assert program_deadlock_verdict(prog, max_states=66).verdict == "yes"
    assert len(calls) == 66


def test_program_verdict_past_the_recursion_limit():
    # 1,500 copies at a:1000: the one sub-program of 1,000 copies folds to
    # C(1003, 3) = 167,668,501 states; the recursive sub-program enumerator
    # and sweep ended in a RecursionError at both bounds
    prog = Program.power(Thread.from_text("Pa Va"), 1500, make_caps(a=1000))
    with pytest.raises(SearchLimitExceeded, match=r"folded states \(167668501 needed\)"):
        program_deadlock_verdict(prog)
    v = program_deadlock_verdict(prog, max_states=10**9)
    assert (v.verdict, v.rule) == ("yes", "subprogram-cutoff")


def test_program_verdict_matches_combination_loop():
    # random programs of two or three groups of identical threads against the
    # loop over all index tuples: the same first deadlocked sub-program, so
    # the same witnesses and detail
    rng = random.Random(44)
    seen = collections.Counter()
    for _ in range(150):
        caps = make_caps(a=rng.randint(1, 2), b=rng.randint(1, 2))
        pool = [random_thread(rng, ["a", "b"], 3) for _ in range(rng.randint(2, 3))]
        threads = tuple(rng.choice(pool) for _ in range(rng.randint(3, 6)))
        prog = Program(threads, caps)
        v = program_deadlock_verdict(prog)
        assert v == combination_deadlock_verdict(prog)
        assert v.program is prog
        seen[v.rule, v.verdict] += 1
    assert min(seen["subprogram-cutoff", x] for x in ("yes", "no")) >= 10, seen


def test_program_verdict_matches_naive_search():
    seen = collections.Counter()

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["mixed", "two-groups"]),
           st.integers(2, 4), st.integers(1, 2))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def check(seed, kind, n, cap_b):
        rng = random.Random(seed)
        caps = make_caps(a=1, b=cap_b)
        if kind == "two-groups":
            prog = two_group_program(rng, ["a", "b"], caps, (2, max(n - 2, 1)), 4)
        else:
            prog = random_program(rng, ["a", "b"], caps, n, 4)
        naive = naive_deadlock_states(prog)
        v = program_deadlock_verdict(prog)
        if v.rule == "direct-search":
            # n at most the cut-off: the program itself is searched
            assert v.witnesses == tuple(sorted(naive))
        else:
            # larger programs: a deadlocked sub-program, padded with
            # finished copies, is a deadlock of the whole program
            assert v.rule == "subprogram-cutoff"
            assert (v.verdict == "no") == bool(naive)
            assert set(v.witnesses) <= naive
        seen[v.rule, v.verdict] += 1

    check()
    routes = [(r, v) for r in ("direct-search", "subprogram-cutoff") for v in ("no", "yes")]
    assert all(seen[key] >= 5 for key in routes), seen


def test_deadsharp_witness_pair():
    plan = deadsharp_witness(K11)
    assert plan.kind == "deadlock"
    assert str(plan.thread) == "Pa Pb Va Pa Vb Va"
    assert plan.cutoff == 2
    assert plan.instance_n == 2
    assert plan.expected_state == (4, 2)
    prog = Program.power(plan.thread, 2, K11)
    # the mirror image deadlocks too; the plan points at one of the pair
    assert sorted(d.state for d in find_deadlocks(prog).deadlocks) == [
        (2, 4), (4, 2),
    ]
    assert find_deadlocks(Program.power(plan.thread, 1, K11)).deadlocks == ()


def test_deadsharp_witness_block_vectors():
    cases = {
        (("a", 2), ("b", 1)): (4, 2, 2),
        (("a", 1), ("b", 2)): (4, 4, 2),
        (("a", 2), ("b", 2)): (4, 4, 2, 2),
        (("a", 1), ("b", 1), ("c", 1)): (6, 2, 4),
        (("a", 1), ("b", 2), ("c", 1)): (6, 2, 4, 4),
    }
    for entries, expected in cases.items():
        plan = deadsharp_witness(CapacityMap(entries))
        assert plan.expected_state == expected
        assert plan.cutoff == sum(c for _, c in entries)


def test_deadsharp_chain_thread_matches_ring_style():
    plan = deadsharp_witness(KABC)
    assert str(plan.thread) == str(FIG)


def test_deadsharp_witness_hits_sharply():
    # the promised deadlock appears at the cutoff and nowhere below
    for entries in [
        (("a", 1), ("b", 1)),
        (("a", 2), ("b", 1)),
        (("a", 1), ("b", 2)),
        (("a", 1), ("b", 1), ("c", 1)),
    ]:
        caps = CapacityMap(entries)
        plan = deadsharp_witness(caps)
        m = plan.cutoff
        prog = Program.power(plan.thread, m, caps)
        states = {d.state for d in find_deadlocks(prog).deadlocks}
        assert plan.expected_state in states
        for n in range(1, m):
            assert find_deadlocks(
                Program.power(plan.thread, n, caps)).deadlocks == ()


def test_deadsharp_rejects_single_resource():
    with pytest.raises(ValueError):
        deadsharp_witness(make_caps(a=1))


def test_single_access_never_deadlocks():
    # spot check of the shortcut on random single-access threads
    rng = random.Random(25)
    made = 0
    while made < 10:
        t = random_thread(rng, ["a", "b", "c"], 3)
        if not single_access(t):
            continue
        made += 1
        caps = make_caps(a=1, b=1, c=1)
        caps = caps.restrict(t.resources_used) if t.resources_used else caps
        m = max(deadlock_cutoff(caps), 1)
        for n in range(1, min(m, 3) + 1):
            prog = Program.power(t, n, make_caps(a=1, b=1, c=1))
            assert find_deadlocks(prog).deadlocks == ()


def test_find_deadlocks_respects_limit():
    big = Program.power(Thread.from_text("Pa Va " * 5), 5, make_caps(a=1))
    with pytest.raises(SearchLimitExceeded):
        find_deadlocks(big, max_states=10)
