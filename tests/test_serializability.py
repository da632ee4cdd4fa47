import collections
import dataclasses
import itertools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvguard import (
    CapacityMap,
    ChoicePoint,
    LatticePath,
    Program,
    PvError,
    SearchLimitExceeded,
    Thread,
    deadsharp_witness,
    dihomotopy_classes,
    enumerate_dipaths,
    family_serializability_verdict,
    is_serial,
    kappa1_pair_serializable,
    lcp_cutoff,
    local_choice_points,
    potential_deadlocks,
    serial_order,
    sharpserializable_witness,
    state_admissible,
)

from pvguard import deadlock, serializability

import conftest
from conftest import (
    connectivity_serializable,
    dihomotopy_classes_by_enumeration,
    full_search_choice_points,
    is_local_choice_point,
    is_potential_deadlock,
    lcp_definition_check,
    lcp_to_potential_deadlock,
    level_dp_classes,
    make_caps,
    naive_count_dipaths,
    path_obeys,
    path_schedule,
    random_program,
    random_thread,
    reachable,
    schedule_feasible,
    schedule_pair_serializable,
    schedules,
    serial_path,
    two_group_program,
)

T1 = Thread.from_text("Pa Pb Vb Va")
T2 = Thread.from_text("Pb Pa Va Vb")
PV = Thread.from_text("Pa Va")
WIT = Thread.from_text("Pa Pb Va Pa Vb Va Pa Va")
FIG = Thread.from_text("Pa Pb Va Pc Vb Pa Vc Va")
K11 = make_caps(a=1, b=1)
K22 = make_caps(a=2, b=2)
KABC = make_caps(a=1, b=1, c=1)
EX3 = Program((T1, T2), K11)


# -- serial executions -------------------------------------------------------

def test_serial_order_detection():
    p = serial_path(EX3, (0, 1))
    assert p.steps() == (0, 0, 0, 0, 0, 1, 1, 1, 1, 1)
    assert is_serial(p)
    assert serial_order(p) == (0, 1)
    assert serial_order(serial_path(EX3, (1, 0))) == (1, 0)


def test_interleaved_path_is_not_serial():
    from pvguard import path_from_steps

    p = path_from_steps((0, 0), (0, 1, 0, 1, 0, 1, 0, 1, 0, 1))
    assert not is_serial(p)
    assert serial_order(p) is None


def test_steps_refuse_states_of_different_lengths():
    # a step between states of different lengths is no unit step, even where
    # their common coordinates differ in one unit
    with pytest.raises(ValueError, match="not a unit lattice step"):
        LatticePath(((0, 0), (1, 0, 7), (2, 0))).steps()
    with pytest.raises(ValueError, match="not a unit lattice step"):
        is_serial(LatticePath(((0, 0), (1, 0), (2, 0, 9), (2, 1), (2, 2))))
    for bad in (((0, 0), (1, 0), (1, 0)), ((0, 0), (2, 0)), ((0, 0), (1, 1)), ((1, 0), (0, 0))):
        with pytest.raises(ValueError, match="not a unit lattice step"):
            LatticePath(bad).steps()
    # a state that is not a tuple of ints is no lattice point: 1.0 and True
    # compare equal to 1, and a list subtracts like a tuple
    for bad in (
        ((0, 0), (1, 0, None)),  # as many int coordinates as two pairs
        ((0, 0), 5),
        ((0, 0), (1, "a")),
        ((0, 0), [1, 0]),
        ((0, 0), (1.0, 0)),
        ((0, 0), (True, 0)),
    ):
        with pytest.raises(ValueError, match="^not a unit lattice step$"):
            LatticePath(bad).steps()
    assert LatticePath(((0, 0), (1, 0), (1, 1))).steps() == (0, 1)
    point = collections.namedtuple("point", "x y")  # a tuple, as check_state takes it
    assert LatticePath((point(0, 0), point(0, 1))).steps() == (1,)


def test_serial_order_needs_a_start_at_bottom_and_every_thread_run():
    from pvguard import path_from_steps

    # each thread runs once from its start to its end, but not from ⊥
    assert serial_order(LatticePath(((1, 0), (2, 0), (3, 0), (3, 1), (3, 2), (3, 3)))) is None
    # thread 2 never moves, so the path is no serial run of both threads
    assert serial_order(LatticePath(((0, 0), (1, 0), (2, 0), (3, 0)))) is None
    # runs of one step each reach the ends 1, 1 and 5 of a path from a
    # start below ⊥; only the start says it is not serial
    assert serial_order(path_from_steps((-1, 0, 5), (0, 1, 0))) is None


def test_serial_paths_always_valid():
    rng = random.Random(31)
    for _ in range(20):
        caps = CapacityMap((("a", rng.randint(1, 2)), ("b", rng.randint(1, 2))))
        threads = tuple(random_thread(rng, ["a", "b"], 3) for _ in range(3))
        prog = Program(threads, caps)
        for order in itertools.permutations(range(prog.n)):
            sp = serial_path(prog, order)
            sp.validate(prog)
            assert serial_order(sp) == order


def test_single_thread_is_serial():
    prog = Program.power(PV, 1, make_caps(a=1))
    (only,) = enumerate_dipaths(prog)
    assert is_serial(only)


# -- schedules ----------------------------------------------------------------

def test_schedule_count_two_rectangles():
    scheds = schedules(EX3)
    assert len(scheds) == 4
    for s in scheds:
        assert {r.resource for r, _ in s.choices} == {"a", "b"}


def test_uniform_schedules_feasible_mixed_not():
    outcomes = {}
    for s in schedules(EX3):
        key = tuple(sorted((r.resource, kept) for r, kept in s.choices))
        outcomes[key] = schedule_feasible(EX3, s)
    assert outcomes[(("a", 0), ("b", 0))] is not None
    assert outcomes[(("a", 1), ("b", 1))] is not None
    assert outcomes[(("a", 0), ("b", 1))] is None
    assert outcomes[(("a", 1), ("b", 0))] is None


def test_feasible_witness_obeys_its_schedule():
    for s in schedules(EX3):
        path = schedule_feasible(EX3, s)
        if path is not None:
            path.validate(EX3)
            assert path_obeys(path, s)


def test_every_path_obeys_exactly_one_schedule():
    allsch = schedules(EX3)
    for path in enumerate_dipaths(EX3):
        obeyed = [s for s in allsch if path_obeys(path, s)]
        assert len(obeyed) == 1
        assert path_schedule(EX3, path).choices == obeyed[0].choices


def test_every_path_obeys_exactly_one_schedule_random():
    rng = random.Random(32)
    for _ in range(15):
        prog = Program(
            (random_thread(rng, ["a", "b"], 3), random_thread(rng, ["a", "b"], 3)),
            K11,
        )
        allsch = schedules(prog)
        for path in itertools.islice(enumerate_dipaths(prog), 200):
            assert sum(path_obeys(path, s) for s in allsch) == 1


def test_serial_path_keeps_last_crossing_thread():
    # thread 1 runs first, so thread 2 crosses every rectangle later and
    # its leg is the one kept by the schedule of that execution
    sch = path_schedule(EX3, serial_path(EX3, (0, 1)))
    assert sorted((r.resource, kept) for r, kept in sch.choices) == [
        ("a", 1), ("b", 1),
    ]
    sch = path_schedule(EX3, serial_path(EX3, (1, 0)))
    assert sorted((r.resource, kept) for r, kept in sch.choices) == [
        ("a", 0), ("b", 0),
    ]


def test_schedule_paths_split_evenly_here():
    import collections

    counts = collections.Counter()
    for path in enumerate_dipaths(EX3):
        s = path_schedule(EX3, path)
        counts[tuple(sorted((r.resource, k) for r, k in s.choices))] += 1
    assert counts == {
        (("a", 0), ("b", 0)): 42,
        (("a", 1), ("b", 1)): 42,
    }


# -- execution classes --------------------------------------------------------

def test_unit_semaphore_classes_factorial():
    for n, expected in ((2, 2), (3, 6), (4, 24)):
        cr = dihomotopy_classes(Program.power(PV, n, make_caps(a=1)))
        assert cr.class_count == expected
        assert cr.serial_classes_covered == expected
        assert cr.serializable


def test_capacity_two_collapses_to_one_class():
    cr = dihomotopy_classes(Program.power(PV, 2, make_caps(a=2)))
    assert cr.class_count == 1
    assert cr.serializable
    assert cr.representatives[0].steps() == (0, 0, 0, 1, 1, 1)


def test_crossing_locks_two_classes():
    cr = dihomotopy_classes(EX3)
    assert cr.class_count == 2
    assert cr.serial_classes_covered == 2
    assert [p.steps() for p in cr.representatives] == [
        (0, 0, 0, 0, 0, 1, 1, 1, 1, 1),
        (0, 1, 1, 1, 0, 1, 0, 0, 0, 1),
    ]


def test_sequential_composition_breaks_serializability():
    cat = Thread.from_actions(T1.actions + T2.actions)
    cr = dihomotopy_classes(Program.power(cat, 2, K11))
    assert cr.class_count == 6
    assert cr.serial_classes_covered == 2
    assert not cr.serializable


def test_ring_pair_not_serializable():
    cr = dihomotopy_classes(Program.power(FIG, 2, KABC))
    assert cr.class_count == 4
    assert cr.serial_classes_covered == 2
    assert not cr.serializable


def test_class_representatives_are_lex_least():
    cr = dihomotopy_classes(EX3)
    enumerated = list(enumerate_dipaths(EX3))
    for rep in cr.representatives:
        assert rep.steps() in [p.steps() for p in enumerated]
    assert cr.representatives[0].steps() == min(p.steps() for p in enumerated)


def test_classes_match_enumeration_oracle():
    rng = random.Random(33)
    compared = 0
    while compared < 25:
        caps = CapacityMap((("a", rng.randint(1, 2)), ("b", rng.randint(1, 2))))
        n = rng.randint(2, 3)
        if rng.random() < 0.5:
            prog = Program.power(random_thread(rng, ["a", "b"], 2), n, caps)
        else:
            prog = Program(
                tuple(random_thread(rng, ["a", "b"], 2) for _ in range(n)), caps
            )
        if naive_count_dipaths(prog) > 100_000:
            continue
        compared += 1
        dp = dihomotopy_classes(prog)
        en = dihomotopy_classes_by_enumeration(prog)
        assert dp.class_count == en.class_count
        assert dp.serial_classes_covered == en.serial_classes_covered
        assert dp.serializable == en.serializable
        assert [p.steps() for p in dp.representatives] == [
            p.steps() for p in en.representatives
        ]


def class_outcome(classes, program, limit):
    """The whole report, or the message of the bound that stopped it."""
    try:
        return classes(program, limit)
    except SearchLimitExceeded as exc:
        return str(exc)


def capped_outcome(program, limit):
    """The oracle's outcome, or the message of the representative bound
    where the oracle's classes times the path length exceed ``limit``."""
    expected = class_outcome(level_dp_classes, program, limit)
    if not isinstance(expected, str):
        size = expected.class_count * (sum(program.tops) + 1)
        if size > limit:
            return (
                f"instance exceeds the configured bound of {limit} "
                f"representative path states ({size} needed)"
            )
    return expected


def test_classes_match_level_dp_oracle():
    # powers, mixed programs and empty threads against the DP with a
    # union-find of least step tuples and n! traced serial orders; a limit
    # the oracle overflows must give the same message, and a report whose
    # representatives would exceed it the representative bound's
    rng = random.Random(36)
    empty = Thread.from_text("")
    kinds = dict.fromkeys(["power", "mixed", "empty", "grid", "pairs", "paths"], 0)
    for _ in range(300):
        resources = ["a", "b", "c"][: rng.randint(1, 3)]
        caps = CapacityMap(tuple((r, rng.randint(1, 3)) for r in resources))
        n = rng.randint(1, 4)
        if rng.random() < 0.4:
            threads = (random_thread(rng, resources, 3 if n <= 3 else 2),) * n
        else:
            threads = tuple(
                empty if rng.random() < 0.15 else random_thread(rng, resources, 2)
                for _ in range(n)
            )
        prog = Program(threads, caps)
        assert prog.grid_states() <= 20_000
        limit = rng.choice([50, 500, 10**8])
        expected = capped_outcome(prog, limit)
        assert class_outcome(dihomotopy_classes, prog, limit) == expected
        if empty in threads:
            kinds["empty"] += 1
        else:
            kinds["power" if n > 1 and len(set(threads)) == 1 else "mixed"] += 1
        if isinstance(expected, str) and expected.endswith("class pairs"):
            kinds["pairs"] += 1
        elif isinstance(expected, str):
            kinds["paths" if "representative" in expected else "grid"] += 1
    # the pair bound trips only where many classes share few states; the
    # boundary tests below pin both bounds exactly
    assert min(kinds["pairs"], kinds["paths"]) >= 1, kinds
    assert min(kinds[k] for k in ("power", "mixed", "empty", "grid")) >= 20, kinds
    # Pa Va ^ 5: 10,431 prefix classes, and 15,631 of its 36,480 square
    # merges find their pairs already joined (renumbering, one-hop finds);
    # EX3: the deadlock class at (1, 1) has no step, so both of its slots on
    # the next level stay unused; the three-thread program: finds that halve
    # their path, which neither reaches; the four-thread program: 23 finds
    # from a square's second pair that halve their path, which none of the
    # others runs, and a pair wrongly cut from its class there would stay
    # cut up to the last level (81 classes, not 80)
    threes = ("Pb Pa Va Pa Va Vb", "Pa Va", "Pb Pa Vb Va")
    fours = ("Pb Pa Vb Va", "Pb Pa Vb Va Pa Va", "Pa Pb Vb Va", "Pb Pa Vb Pb Vb Va")
    for prog in (
        Program.power(PV, 5, make_caps(a=1)),
        EX3,
        Program(tuple(map(Thread.from_text, threes)), make_caps(a=2, b=1)),
        Program(tuple(map(Thread.from_text, fours)), make_caps(a=2, b=1)),
    ):
        assert dihomotopy_classes(prog) == level_dp_classes(prog)


def test_class_dp_carries_exact_totals(monkeypatch):
    # every table after ⊥ is built from totals the DP moved along one step
    # from the parent's configuration; they must be the end state's own
    # totals.  Tables are built once per configuration of a run-end state,
    # so the programs are three or four distinct threads of up to three
    # acquire/release pairs over three resources, where few configurations
    # repeat and the tables still cover 2,000 end states
    steps = Program._steps
    carried = []

    def checked(self, state, squares=False, totals=None):
        if totals is not None:
            assert totals == self.use_totals(state)
            carried.append(state)
        return steps(self, state, squares, totals)

    monkeypatch.setattr(Program, "_steps", checked)
    rng = random.Random(16)
    for _ in range(40):
        caps = CapacityMap(tuple((r, rng.randint(1, 2)) for r in "abc"))
        prog = random_program(rng, ["a", "b", "c"], caps, rng.randint(3, 4), 3)
        dihomotopy_classes(prog)
    assert len(carried) >= 2_000, len(carried)


def test_class_tables_live_for_one_call(monkeypatch):
    # the tables are kept by local configuration for one call: Pa Va ^ 5
    # has 1,024 end states, but the DP runs on run ends, where each thread
    # stands at its acquire or at ⊤ (nothing is held at a point), so it
    # builds 2 ** 5 tables; a second call on the same program builds every
    # table again, so no table is cached on the program or in the module
    steps = Program._steps
    built = []

    def counted(self, *args):
        built.append(args[0])
        return steps(self, *args)

    monkeypatch.setattr(Program, "_steps", counted)
    program = Program.power(PV, 5, make_caps(a=1))
    first = dihomotopy_classes(program)
    calls = len(built)
    assert calls == 2**5
    assert dihomotopy_classes(program) == first
    assert len(built) == 2 * calls


def test_classes_match_level_dp_oracle_on_powers():
    # powers T ^ 3 and T ^ 4, where local configurations repeat across end
    # states and share one step table, some with an empty thread among the
    # copies, against the DP that tables every end state; whole reports, or
    # the message of the bound that stops both
    rng = random.Random(37)
    empty = Thread.from_text("")
    kinds = collections.Counter()
    for _ in range(80):
        resources = ["a", "b", "c"][: rng.randint(2, 3)]
        caps = CapacityMap(tuple((r, rng.randint(1, 3)) for r in resources))
        n = rng.randint(3, 4)
        threads = [random_thread(rng, resources, 3 if n == 3 else 2)] * n
        if rng.random() < 0.3:
            threads.insert(rng.randint(0, n), empty)
        prog = Program(tuple(threads), caps)
        assert prog.grid_states() <= 20_000
        limit = rng.choice([50, 500, 10**8])
        expected = capped_outcome(prog, limit)
        assert class_outcome(dihomotopy_classes, prog, limit) == expected
        kinds.update({f"κ={k}" for _, k in caps.entries})
        kinds["empty"] += empty in threads
        kinds["bound" if isinstance(expected, str) else "report"] += 1
    assert min(kinds[k] for k in ("κ=1", "κ=2", "κ=3", "empty", "bound")) >= 10, kinds
    assert kinds["report"] >= 30, kinds


def largest_level_pairs(program):
    """The least limit the oracle passes, found by bisection: the largest
    level's (class, coordinate) pair count, unless the grid is larger."""
    lo, hi = 1, program.grid_states()
    while isinstance(class_outcome(level_dp_classes, program, hi), str):
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if isinstance(class_outcome(level_dp_classes, program, mid), str):
            lo = mid + 1
        else:
            hi = mid
    return lo


@pytest.mark.parametrize(
    "program",
    [
        Program.power(PV, 4, make_caps(a=1)),
        Program.power(Thread.from_text("Pa Va Pa Va"), 3, make_caps(a=1)),
        Program((PV, PV, Thread.from_text(""), PV, PV), make_caps(a=1)),
    ],
    ids=["PaVa^4", "PaVaPaVa^3", "PaVa^4+empty"],
)
def test_class_pair_bound_is_exact(program):
    # the largest level's pair count passes and one less raises, so the
    # bound trips on that level's count however early it is checked; past
    # the levels, the representatives are bounded on their own
    limit = largest_level_pairs(program)
    assert limit > program.grid_states()
    assert class_outcome(dihomotopy_classes, program, limit) == capped_outcome(program, limit)
    with pytest.raises(SearchLimitExceeded) as exc:
        dihomotopy_classes(program, limit - 1)
    assert str(exc.value) == (
        f"instance exceeds the configured bound of {limit - 1} execution class pairs"
    )


@pytest.mark.parametrize(
    "program",
    [
        Program((Thread.from_text("Pa Pb Vb Va"), Thread.from_text("Pb Pa Va Vb")), K11),
        Program.power(PV, 3, make_caps(a=3)),
    ],
    ids=["PaPbVbVa|PbPaVaVb", "PaVa^3@3"],
)
def test_class_grid_bound_is_exact(monkeypatch, program):
    # the largest level holds fewer pairs than the grid has states, so the
    # grid cap binds: one below the grid raises, counting the grid, and the
    # grid itself answers
    grid = program.grid_states()
    with monkeypatch.context() as m:
        for module in (serializability, conftest):
            m.setattr(module, "guard_grid", lambda program, limit: None)
        assert largest_level_pairs(program) < grid
    with pytest.raises(SearchLimitExceeded) as exc:
        dihomotopy_classes(program, grid - 1)
    assert str(exc.value) == (
        f"instance exceeds the configured bound of {grid - 1} grid states ({grid} needed)"
    )
    assert dihomotopy_classes(program, grid) == level_dp_classes(program)


def test_class_pair_bound_is_exact_over_run_ends(monkeypatch):
    # the DP runs on run ends but bounds the pairs of the DP over all
    # states, per level: T ^ 3 and three random threads at κ ∈ {1, 2},
    # each program with a release before a release (V → V, a step that is
    # not silent) besides the silent steps from ⊥ and from releases, at
    # every limit from three below to three above the oracle's largest
    # level, and at 10^8.  The grid guard is off on both sides, so the
    # pair bound binds below the grid size too.  Near the largest level the
    # cheap bound (classes times n times 2 ** n) cannot rule the limit out,
    # so every class is counted exactly, and at 10^8 it can, so none is
    for module in (serializability, conftest):
        monkeypatch.setattr(module, "guard_grid", lambda program, limit: None)
    counted = []
    full_pairs = serializability._full_pairs

    def counting(*args):
        counted.append(args)
        return full_pairs(*args)

    monkeypatch.setattr(serializability, "_full_pairs", counting)

    def nested(thread):
        return any(a.kind == b.kind == "V" for a, b in itertools.pairwise(thread.actions))

    rng = random.Random(38)
    routes = collections.Counter()
    programs = 0
    while programs < 24:
        caps = CapacityMap((("a", rng.randint(1, 2)), ("b", rng.randint(1, 2))))
        if programs % 2:
            prog = Program.power(random_thread(rng, ["a", "b"], 3), 3, caps)
        else:
            prog = Program(tuple(random_thread(rng, ["a", "b"], 3) for _ in range(3)), caps)
        if not any(map(nested, prog.threads)):
            continue
        programs += 1
        most = largest_level_pairs(prog)
        for limit in (*range(most - 3, most + 4), 10**8):
            counted.clear()
            outcome = class_outcome(dihomotopy_classes, prog, limit)
            assert outcome == capped_outcome(prog, limit), (prog, limit)
            stopped = isinstance(outcome, str) and outcome.endswith("class pairs")
            assert stopped == (limit < most)
            routes["exact" if counted else "cheap", stopped] += 1
    assert routes["cheap", False] == 24, routes
    assert min(routes["exact", True], routes["exact", False]) >= 24 * 3, routes


def test_class_representative_bound_is_exact():
    # 90 classes of 16-state paths: the levels pass 720 pairs, the 1,440
    # representative states are counted before any is built
    program = Program.power(Thread.from_text("Pa Va Pa Va"), 3, make_caps(a=1))
    assert largest_level_pairs(program) == 720
    with pytest.raises(SearchLimitExceeded) as exc:
        dihomotopy_classes(program, 1439)
    assert str(exc.value) == (
        "instance exceeds the configured bound of 1439 representative path "
        "states (1440 needed)"
    )
    report = dihomotopy_classes(program, 1440)
    assert report == level_dp_classes(program)
    assert report.class_count == 90
    # the pair test builds no representatives: its 20 classes of 15-state
    # paths would exceed its bound of 64, the grid
    pair = Thread.from_text("Pa Va Pa Va Pa Va")
    assert not kappa1_pair_serializable(pair, make_caps(a=1), 64)


def test_classes_count_equals_feasible_schedules_for_unit_pairs():
    rng = random.Random(34)
    for _ in range(20):
        prog = Program(
            (random_thread(rng, ["a", "b"], 3), random_thread(rng, ["a", "b"], 3)),
            K11,
        )
        feasible = [s for s in schedules(prog) if schedule_feasible(prog, s)]
        cr = dihomotopy_classes(prog)
        assert cr.class_count == len(feasible)
        # distinct classes answer to distinct schedules
        keys = {
            tuple(sorted((r.resource, k) for r, k in
                         path_schedule(prog, rep).choices))
            for rep in cr.representatives
        }
        assert len(keys) == cr.class_count


def test_serial_runs_merge_when_capacities_at_least_two():
    rng = random.Random(35)
    for _ in range(12):
        caps = CapacityMap((("a", rng.randint(2, 3)), ("b", rng.randint(2, 3))))
        n = rng.randint(2, 3)
        prog = Program(
            tuple(random_thread(rng, ["a", "b"], 2) for _ in range(n)), caps
        )
        cr = dihomotopy_classes(prog)
        assert cr.serial_classes_covered == 1


def test_classes_limit_guard():
    prog = Program.power(PV, 2, make_caps(a=1))
    with pytest.raises(SearchLimitExceeded):
        dihomotopy_classes(prog, limit=1)


def test_connectivity_serializable():
    assert connectivity_serializable(Program.power(PV, 2, make_caps(a=2)))
    assert connectivity_serializable(Program.power(WIT, 3, K22))
    with pytest.raises(ValueError):
        connectivity_serializable(EX3)


# -- pairwise test for unit capacities ---------------------------------------

def test_pair_serializability_examples():
    assert kappa1_pair_serializable(PV, make_caps(a=1))
    assert kappa1_pair_serializable(T1, K11)
    assert not kappa1_pair_serializable(FIG, KABC)
    assert not kappa1_pair_serializable(Thread.from_actions(T1.actions + T2.actions), K11)


def test_pair_serializability_rejects_wrong_shapes():
    with pytest.raises(ValueError):
        kappa1_pair_serializable(PV, make_caps(a=2))
    with pytest.raises(ValueError):
        kappa1_pair_serializable(Thread.from_actions(()), make_caps(a=1))


def test_pair_test_matches_pair_classes():
    rng = random.Random(36)
    for _ in range(30):
        t = random_thread(rng, ["a", "b"], 3)
        caps = K11.restrict(t.resources_used)
        assert kappa1_pair_serializable(t, caps) == schedule_pair_serializable(t, caps)


@st.composite
def unit_capacity_threads(draw):
    resources = ["a", "b", "c"][: draw(st.integers(2, 3))]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_thread(rng, resources, draw(st.integers(1, 3)))


@given(unit_capacity_threads())
@settings(max_examples=100, deadline=None)
def test_pair_test_matches_schedule_oracle(t):
    caps = KABC.restrict(t.resources_used)
    assert kappa1_pair_serializable(t, caps) == schedule_pair_serializable(t, caps)


def test_pair_test_respects_the_bound():
    caps = make_caps(a=1)
    grid = Program.power(PV, 2, caps).grid_states()
    assert grid == 16
    with pytest.raises(SearchLimitExceeded):
        kappa1_pair_serializable(PV, caps, max_states=grid - 1)
    assert kappa1_pair_serializable(PV, caps, max_states=grid)


# -- local choice points ------------------------------------------------------

def test_witness_cube_choice_points():
    prog = Program.power(WIT, 3, K22)
    cps = local_choice_points(prog)
    table = [(c.state, c.resource, c.contenders, c.reachable) for c in cps]
    assert table == [
        ((2, 2, 4), "b", (0, 1), True),
        ((2, 4, 2), "b", (0, 2), True),
        ((2, 4, 4), "a", (1, 2), True),
        ((4, 2, 2), "b", (1, 2), True),
        ((4, 2, 4), "a", (0, 2), True),
        ((4, 4, 2), "a", (0, 1), True),
    ]


def test_witness_smaller_powers_are_clean():
    for n in (1, 2):
        assert local_choice_points(Program.power(WIT, n, K22)) == []


def test_no_choice_points_for_single_user_patterns():
    prog = Program.power(Thread.from_text("Pa Va Pa Va"), 3, make_caps(a=2))
    assert local_choice_points(prog) == []
    # threads that never share a resource cannot contend
    prog = Program(
        (Thread.from_text("Pa Va"), Thread.from_text("Pb Vb")), K22
    )
    assert local_choice_points(prog) == []


def test_is_local_choice_point_details():
    prog = Program.power(WIT, 3, K22)
    got = is_local_choice_point(prog, (4, 2, 2))
    assert got == ("b", (1, 2))
    assert is_local_choice_point(prog, (0, 0, 0)) is None
    assert is_local_choice_point(prog, prog.top) is None
    # a deadlock is not a choice point: no resource is short by exactly one
    assert is_local_choice_point(EX3, (2, 2)) is None


def test_choice_points_are_reachable_and_admissible_here():
    prog = Program.power(WIT, 3, K22)
    for cp in local_choice_points(prog):
        assert state_admissible(prog, cp.state)
        assert reachable(prog, cp.state) is not None


def test_choice_point_flags_match_a_reachability_oracle():
    # crossing lock orders: where each thread holds its first lock and
    # requests d, the state is admissible, but every way into it passes a
    # state where both threads hold a or both hold b
    caps = make_caps(a=1, b=1, d=1)
    prog = Program(
        (Thread.from_text("Pa Pb Vb Pd Vd Va"), Thread.from_text("Pb Pa Va Pd Vd Vb")), caps
    )
    cps = local_choice_points(prog)
    assert [(c.state, c.resource, c.reachable) for c in cps] == [
        ((1, 2), "a", True), ((2, 1), "b", True), ((4, 4), "d", False)
    ]
    assert [c.reachable for c in cps] == [reachable(prog, c.state) is not None for c in cps]


def test_definition_check_agrees_with_combinatorial_test():
    rng = random.Random(37)
    for _ in range(12):
        caps = CapacityMap((("a", rng.randint(1, 3)), ("b", rng.randint(1, 3))))
        n = rng.randint(2, 3)
        prog = Program.power(random_thread(rng, ["a", "b"], 2), n, caps)
        for state in itertools.product(*(range(t + 1) for t in prog.tops)):
            if not state_admissible(prog, state):
                continue
            combinatorial = is_local_choice_point(prog, state) is not None
            assert combinatorial == lcp_definition_check(prog, state)


def test_choice_points_match_naive_sweep():
    # the sieve against a full-grid sweep of the single-state test, and on
    # identical copies also against the direct definition check
    rng = random.Random(38)
    hits = 0
    for k in range(60):
        caps = CapacityMap((("a", rng.randint(1, 3)), ("b", rng.randint(1, 3))))
        n = rng.randint(2, 4)
        power = k % 2 == 1
        if power:
            prog = Program.power(random_thread(rng, ["a", "b"], 2), n, caps)
        else:
            prog = random_program(rng, ["a", "b"], caps, n, 2)
        got = [
            (c.state, c.resource, c.contenders)
            for c in local_choice_points(prog)
        ]
        grid = list(itertools.product(*(range(t + 1) for t in prog.tops)))
        swept = [
            (state,) + hit
            for state in grid
            if (hit := is_local_choice_point(prog, state)) is not None
        ]
        assert got == swept
        if power:
            defined = [
                state
                for state in grid
                if state_admissible(prog, state) and lcp_definition_check(prog, state)
            ]
            assert [c[0] for c in got] == defined
        hits += bool(got)
    assert hits >= 10
    # two non-trivial identity groups, interleaved in thread order: the
    # contenders of each concrete state come from the per-group expansion
    rng = random.Random(39)
    hits = 0
    for _ in range(30):
        caps = CapacityMap((("a", rng.randint(1, 3)), ("b", rng.randint(1, 3))))
        prog = two_group_program(rng, ["a", "b"], caps, (rng.randint(2, 3), 2), 2)
        got = [
            (c.state, c.resource, c.contenders)
            for c in local_choice_points(prog)
        ]
        swept = [
            (state,) + hit
            for state in itertools.product(*(range(t + 1) for t in prog.tops))
            if (hit := is_local_choice_point(prog, state)) is not None
        ]
        assert got == swept
        hits += bool(got)
    assert hits >= 10


def test_choice_points_respect_the_bound():
    plan = sharpserializable_witness(K22)
    prog = Program.power(plan.thread, plan.instance_n, K22)
    folded = prog.orbit_states()
    with pytest.raises(SearchLimitExceeded):
        local_choice_points(prog, folded - 1)
    cps = local_choice_points(prog, folded)
    assert plan.expected_state in [c.state for c in cps if c.reachable]


def test_choice_points_bound_counts_concrete_states():
    # the (6,6,4) deadlock chain at 16 copies: 2,042,975 orbits, but
    # 53,813,760 concrete choice points; the sweep stops before expanding
    caps = make_caps(a=6, b=6, c=4)
    prog = Program.power(deadsharp_witness(caps).thread, 16, caps)
    folded = prog.orbit_states()
    assert folded == 2042975
    with pytest.raises(SearchLimitExceeded) as e:
        local_choice_points(prog, folded)
    assert "concrete candidate states (53813760 needed)" in str(e.value)
    v = family_serializability_verdict(deadsharp_witness(caps).thread, caps)
    assert (v.verdict, v.rule) == ("inconclusive", "search-limit")
    assert "concrete candidate states" in v.detail


def test_choice_points_bound_is_exact_on_a_listable_instance():
    # the (2,2) deadlock chain at 8 copies: 6,435 folded states, 10,752
    # concrete choice points, so the sweep and the search fit either bound
    prog = Program.power(deadsharp_witness(K22).thread, 8, K22)
    assert prog.orbit_states() == 6435
    with pytest.raises(SearchLimitExceeded) as e:
        local_choice_points(prog, 10751)
    assert "concrete candidate states (10752 needed)" in str(e.value)
    assert len(local_choice_points(prog, 10752)) == 10752


def test_definition_check_rejects_forbidden_states():
    prog = Program.power(T1, 2, K11)
    with pytest.raises(ValueError):
        lcp_definition_check(prog, (2, 2))


def test_lcp_cutoff_values():
    assert lcp_cutoff(K22) == 5
    assert lcp_cutoff(K11) == 3
    assert lcp_cutoff(make_caps(a=2)) == 3


# -- from choice points to potential deadlocks --------------------------------

def test_choice_point_maps_to_potential_deadlock():
    prog = Program.power(WIT, 3, K22)
    cp = next(c for c in local_choice_points(prog) if c.state == (4, 2, 2))
    bigger = lcp_to_potential_deadlock(prog, cp)
    assert bigger == (4, 4, 2, 2)
    prog4 = Program.power(WIT, 4, K22)
    assert is_potential_deadlock(prog4, bigger)


def test_all_witness_choice_points_map():
    prog = Program.power(WIT, 3, K22)
    prog4 = Program.power(WIT, 4, K22)
    for cp in local_choice_points(prog):
        assert is_potential_deadlock(prog4, lcp_to_potential_deadlock(prog, cp))


def test_mapping_requires_capacity_two():
    prog = Program.power(FIG, 3, KABC)
    from pvguard import ChoicePoint

    fake = ChoicePoint((1, 1, 1), "a", (0, 1), None)
    with pytest.raises(ValueError):
        lcp_to_potential_deadlock(prog, fake)


# -- witness generators --------------------------------------------------------

def test_sharpserializable_witness_shape():
    plan = sharpserializable_witness(K22)
    assert plan.kind == "choice-point"
    assert str(plan.thread) == "Pa Pb Va Pa Vb Va Pa Va"
    assert plan.cutoff == 5
    assert plan.instance_n == 3
    assert plan.expected_state == (4, 2, 2)
    assert plan.expected_resource == "b"


def test_sharpserializable_witness_delivers():
    for entries in [(("a", 2), ("b", 2)), (("a", 2), ("b", 3))]:
        caps = CapacityMap(entries)
        plan = sharpserializable_witness(caps)
        prog = Program.power(plan.thread, plan.instance_n, caps)
        cps = local_choice_points(prog)
        match = [c for c in cps if c.state == plan.expected_state]
        assert match and match[0].resource == plan.expected_resource
        assert match[0].reachable
        for n in range(1, plan.instance_n):
            assert local_choice_points(Program.power(plan.thread, n, caps)) == []


def test_sharpserializable_rejects_unit_capacity():
    with pytest.raises(ValueError):
        sharpserializable_witness(K11)
    with pytest.raises(ValueError):
        sharpserializable_witness(make_caps(a=2))


# -- family verdicts -----------------------------------------------------------

def test_family_trivial_thread():
    v = family_serializability_verdict(Thread.from_actions(()), K22)
    assert (v.verdict, v.rule, v.cutoff) == ("yes", "trivial-thread", 1)


def test_family_unit_capacities_yes():
    v = family_serializability_verdict(T1, K11)
    assert (v.verdict, v.rule, v.cutoff) == ("yes", "pairwise-serializability", 2)
    assert v.property_name == "serializability"


def test_family_unit_capacities_no():
    v = family_serializability_verdict(FIG, KABC)
    assert (v.verdict, v.rule, v.cutoff) == ("no", "pairwise-serializability", 2)
    assert v.manifests_at_n == 2


def test_family_wide_capacities_yes():
    v = family_serializability_verdict(Thread.from_text("Pa Va Pb Vb"), K22)
    assert (v.verdict, v.rule, v.cutoff) == ("yes", "choice-point-cutoff", 5)
    assert v.choice_points == ()


def test_family_wide_capacities_inconclusive():
    v = family_serializability_verdict(WIT, K22)
    assert (v.verdict, v.rule, v.cutoff) == (
        "inconclusive", "choice-point-cutoff", 5,
    )
    states = [c.state for c in v.choice_points]
    assert len(states) == 540
    assert (4, 2, 2, 9, 9) in states


@st.composite
def wide_capacity_threads(draw):
    """A thread and capacities with every used κ >= 2: a choice-point
    witness chain (always has choice points), a chain followed by a random
    part, or, as often as both, a random thread (mostly without)."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["sharp", "chain+random", "random", "random"]))
    a, b = draw(st.sampled_from([(2, 2), (2, 3), (3, 2)]))
    caps = make_caps(a=a, b=b)
    if kind == "random":
        return kind, random_thread(rng, ["a", "b"], 4), caps
    order = draw(st.permutations(["a", "b"]))
    thread = sharpserializable_witness(CapacityMap(tuple((r, caps[r]) for r in order))).thread
    if kind == "chain+random":
        thread = Thread.from_actions(thread.actions + random_thread(rng, ["a", "b"], 1).actions)
    return kind, thread, caps


def test_family_choice_point_view_matches_concrete_routes():
    seen = collections.Counter()

    @given(wide_capacity_threads(), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def check(drawn, seed):
        kind, thread, caps = drawn
        v = family_serializability_verdict(thread, caps)
        assert v.rule == "choice-point-cutoff"
        expected = tuple(local_choice_points(v.program))
        full = tuple(full_search_choice_points(v.program))
        assert expected == full
        view = v.choice_points
        assert view == expected and expected == view
        assert len(view) == len(expected) and bool(view) == bool(expected)
        assert v.verdict == ("inconclusive" if expected else "yes")
        seen[kind, v.verdict] += 1
        if not expected:
            return
        assert v.detail.startswith(f"{len(expected)} local choice point(s) among ")
        seen["several orbits"] += len(view.orbits) > 1
        listed = tuple(view)
        assert listed == expected
        assert [cp.reachable for cp in listed] == [cp.reachable for cp in full]
        rng = random.Random(seed)
        assert view != expected[:-1] and view != list(expected)
        records = serializability._choice_point_orbits(v.program, 10**8)._orbits
        by_state = operator.attrgetter("state")
        groups = v.program._groups
        assert view == deadlock.OrbitView(groups, records, serializability._choice_point, by_state)
        flipped = {
            o: (size, (res, r, request, not reach))
            for o, (size, (res, r, request, reach)) in records.items()
        }
        assert view != deadlock.OrbitView(groups, flipped, serializability._choice_point, by_state)
        for cp in rng.sample(expected, min(len(expected), 30)):
            assert cp in view
            flipped = dataclasses.replace(cp, reachable=not cp.reachable)
            fewer = dataclasses.replace(cp, contenders=cp.contenders[1:])
            other = dataclasses.replace(cp, resource="b" if cp.resource == "a" else "a")
            for item in (flipped, fewer, other, cp.state, None):
                assert item not in view
        tops = v.program.tops
        members = set(expected)
        for _ in range(30):
            state = tuple(rng.randint(0, t) for t in tops)
            hit = is_local_choice_point(v.program, state)
            if hit is not None:
                cp = ChoicePoint(state, hit[0], hit[1], True)
                assert (cp in view) == (cp in members)

    check()
    with_choice_points = sum(c for key, c in seen.items() if key[1:] == ("inconclusive",))
    assert with_choice_points >= 10, seen
    assert seen["several orbits"] >= 10, seen
    assert seen["random", "yes"] >= 5, seen


def test_family_choice_points_expand_no_state(monkeypatch):
    # the (3,3,2) choice-point witness: 18 orbits, 181,440 choice points
    def fail(*args):
        raise AssertionError("a concrete state was expanded")

    monkeypatch.setattr(deadlock, "_distinct_permutations", fail)
    caps = make_caps(a=3, b=3, c=2)
    plan = sharpserializable_witness(caps)
    v = family_serializability_verdict(plan.thread, caps)
    assert (v.verdict, v.rule, v.cutoff) == ("inconclusive", "choice-point-cutoff", 9)
    assert len(v.choice_points) == 181440 and len(v.choice_points.orbits) == 18
    assert v.detail == (
        "181440 local choice point(s) among 9 copies; the obstruction does not "
        "prove non-serializability"
    )
    top = plan.thread.length + 1
    state = plan.expected_state + (top,) * (plan.cutoff - plan.instance_n)
    resource, contenders = is_local_choice_point(v.program, state)
    assert resource == plan.expected_resource
    assert ChoicePoint(state, resource, contenders, True) in v.choice_points
    assert ChoicePoint(state, resource, contenders, False) not in v.choice_points


def test_choice_point_flags_come_from_the_release_first_search(monkeypatch):
    # the (3,3,2) witness at 9 copies: the flag search stores 294 orbits,
    # where the full search below the same ceiling stores 16,820 and the
    # whole folded space holds 101,388
    built = []

    class Spy(deadlock.ReachabilityIndex):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(serializability, "ReachabilityIndex", Spy)
    caps = make_caps(a=3, b=3, c=2)
    program = Program.power(sharpserializable_witness(caps).thread, lcp_cutoff(caps), caps)
    records = serializability._choice_point_orbits(program, 10**8)._orbits
    (index,) = built
    assert index.visited == 294
    full = deadlock.ReachabilityIndex(program)
    assert full.visited == 101388
    flags = [reachable for _, (_, _, _, reachable) in records.values()]
    assert flags == list(map(full.is_reachable, records)) and any(flags)


def test_family_mixed_capacities_inconclusive():
    v = family_serializability_verdict(
        Thread.from_text("Pa Va Pb Vb"), make_caps(a=2, b=1)
    )
    assert (v.verdict, v.rule, v.cutoff) == ("inconclusive", "mixed-capacities", 4)


def test_family_search_limit():
    v = family_serializability_verdict(WIT, K22, max_states=10)
    assert (v.verdict, v.rule) == ("inconclusive", "search-limit")


def test_family_unit_capacities_search_limit():
    v = family_serializability_verdict(PV, make_caps(a=1), max_states=1)
    assert (v.verdict, v.rule, v.cutoff) == ("inconclusive", "search-limit", 2)
    # the pair's grid cap refuses it, counting the pair's 16 grid states
    assert v.detail == "instance exceeds the configured bound of 1 grid states (16 needed)"


# -- choice points one copy up ---------------------------------------------------

def test_certificate_implies_no_choice_points():
    # the paper's remark that the obstructions may be found by a deadlock
    # algorithm one copy up: every choice point among Σκ+1 copies lifts to a
    # potential deadlock among Σκ+2, so none there certifies none at Σκ+1
    rng = random.Random(38)
    clean = lifted = 0
    for k in range(21):
        if k % 3 == 2:  # a choice-point chain, then a random part
            caps = K22
            chain = sharpserializable_witness(CapacityMap(tuple((r, 2) for r in rng.sample("ab", 2))))
            tail = random_thread(rng, ["a", "b"], 1)
            t = Thread.from_actions(chain.thread.actions + tail.actions)
        else:
            caps = make_caps(a=rng.randint(2, 3), b=rng.randint(2, 3))
            t = random_thread(rng, ["a", "b"], 3)
        caps = caps.restrict(t.resources_used)
        m = lcp_cutoff(caps)
        prog = Program.power(t, m, caps)
        above = set(potential_deadlocks(Program.power(t, m + 1, caps)))
        cps = local_choice_points(prog)
        for cp in cps:
            assert lcp_to_potential_deadlock(prog, cp) in above
        clean += not above
        lifted += bool(cps)
    assert clean >= 8 and lifted >= 5, (clean, lifted)
