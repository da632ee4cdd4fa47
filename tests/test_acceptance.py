"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured evidence when it succeeds.

Budgets are wall-clock seconds and generously above the measured times on a
development container; they exist to catch complexity regressions, not
scheduler noise.
"""

import itertools
import json
import random
import time

import pytest

from pvguard import (
    CapacityMap,
    Program,
    Thread,
    deadsharp_witness,
    dihomotopy_classes,
    family_deadlock_verdict,
    find_deadlocks,
    kappa1_pair_serializable,
    local_choice_points,
    program_deadlock_verdict,
    sharpserializable_witness,
    state_admissible,
)
from pvguard.cli import main

from conftest import (
    is_local_choice_point,
    is_potential_deadlock,
    lcp_definition_check,
    lcp_to_potential_deadlock,
    make_caps,
    naive_deadlock_states,
    quotient_deadlock_empty,
    random_program,
    random_thread,
)

EX3 = """\
resource a cap 1
resource b cap 1
thread T1 = Pa Pb Vb Va
thread T2 = Pb Pa Va Vb
thread CAT = Pa Pb Vb Va Pb Pa Va Vb
program crossing = T1 | T2
program sequenced = CAT^2
"""

RING = """\
resource a cap 1
resource b cap 1
resource c cap 1
thread T = Pa Pb Va Pc Vb Pa Vc Va
program pair = T^2
program triple = T^3
"""

WIT22 = """\
resource a cap 2
resource b cap 2
thread W = Pa Pb Va Pa Vb Va Pa Va
program triple = W^3
"""


def _states(doc_deadlocks):
    return sorted(
        tuple(c["position"] for c in d["state"]) for d in doc_deadlocks
    )


def run_json(capsys, *argv):
    code = main([*argv, "--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def report(num, text):
    print(f"criterion {num:2d} PASS - {text}")


def test_criterion_01_crossing_locks_reproduction(capsys, tmp_path):
    started = time.perf_counter()
    f = tmp_path / "ex.pv"
    f.write_text(EX3)
    code, doc = run_json(capsys, "deadlocks", str(f), "crossing")
    assert code == 1
    assert _states(doc["result"]["deadlocks"]) == [(2, 2)]
    code, doc = run_json(capsys, "deadlocks", str(f), "sequenced")
    assert code == 1
    assert _states(doc["result"]["deadlocks"]) == [(2, 6), (6, 2)]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"crossing {{(2,2)}} and sequenced {{(2,6),(6,2)}} in {elapsed:.2f}s")


def test_criterion_02_ring_thread_and_family_cutoff(capsys, tmp_path):
    started = time.perf_counter()
    f = tmp_path / "ring.pv"
    f.write_text(RING)
    code, doc = run_json(capsys, "deadlocks", str(f), "pair")
    assert code == 0
    assert doc["result"]["deadlocks"] == []
    code, doc = run_json(capsys, "deadlocks", str(f), "triple")
    assert code == 1
    assert _states(doc["result"]["deadlocks"]) == sorted(
        set(itertools.permutations((6, 2, 4)))
    )
    code, doc = run_json(capsys, "family", str(f), "deadlock")
    assert code == 1
    assert doc["result"]["verdict"] == "no"
    assert doc["result"]["cutoff"] == 3
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(2, f"pair clean, triple = perms of (6,2,4), family no at 3, {elapsed:.2f}s")


def test_criterion_03_deadlock_cutoff_sharpness():
    # every capacity map over two to four resources with capacity sum at
    # most 12: the chain deadlocks at M = Σκ copies, at the predicted state,
    # and not at M - 1; where Σκ <= 4 the naive oracle agrees at every copy
    # count up to M
    started = time.perf_counter()
    capmaps = [
        CapacityMap(tuple(zip("abcd", kappa)))
        for k in (2, 3, 4)
        for kappa in itertools.product(range(1, 12), repeat=k)
        if sum(kappa) <= 12
    ]
    assert len(capmaps) == 781
    naive = 0
    for caps in capmaps:
        plan = deadsharp_witness(caps)
        m = plan.cutoff
        assert m == caps.total()
        verdict = family_deadlock_verdict(plan.thread, caps)
        assert (verdict.verdict, verdict.manifests_at_n) == ("no", m)
        assert plan.expected_state in verdict.witnesses
        below = program_deadlock_verdict(Program.power(plan.thread, m - 1, caps))
        assert below.verdict == "yes"
        if m <= 4:
            assert naive_deadlock_states(verdict.program) == set(verdict.witnesses)
            for n in range(1, m):
                assert naive_deadlock_states(
                    Program.power(plan.thread, n, caps)) == set()
            naive += 1
    assert naive == 11
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(3, f"781 capacity maps sharp at their cut-off, {naive} of them "
              f"against the naive oracle, {elapsed:.2f}s")


def test_criterion_04_factorial_classes():
    started = time.perf_counter()
    pv = Thread.from_text("Pa Va")
    for n in (2, 3, 4):
        cr = dihomotopy_classes(Program.power(pv, n, make_caps(a=1)))
        expected = 1
        for k in range(2, n + 1):
            expected *= k
        assert cr.class_count == expected
        assert cr.serializable
        # serial runs land in pairwise distinct classes
        assert cr.serial_classes_covered == expected
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(4, f"2!,3!,4! classes with distinct serial runs, {elapsed:.2f}s")


def test_criterion_05_pair_test_vs_triple_brute_force():
    started = time.perf_counter()
    rng = random.Random(501)
    agreements = 0
    for _ in range(200):
        t = random_thread(rng, ["a", "b", "c"], 3)
        caps = make_caps(a=1, b=1, c=1).restrict(t.resources_used)
        pair = kappa1_pair_serializable(t, caps)
        brute = dihomotopy_classes(Program.power(t, 3, caps)).serializable
        assert pair == brute
        agreements += 1
    elapsed = time.perf_counter() - started
    assert agreements == 200
    assert elapsed < 300.0
    report(5, f"200/200 pair test vs triple classes, {elapsed:.2f}s")


def test_criterion_06_deadlock_cutoff_property():
    started = time.perf_counter()
    rng = random.Random(601)
    agreements = 0
    for _ in range(200):
        caps_all = CapacityMap(
            (("a", rng.randint(1, 2)), ("b", rng.randint(1, 2)))
        )
        t = random_thread(rng, ["a", "b"], 4)
        caps = caps_all.restrict(t.resources_used)
        m = caps.total()
        empty_at_cutoff = quotient_deadlock_empty(Program.power(t, m, caps_all))
        for n in range(1, m + 3):
            empty_at_n = quotient_deadlock_empty(Program.power(t, n, caps_all))
            if n <= m:
                # below the cut-off emptiness may only improve
                assert empty_at_n or not empty_at_cutoff
            else:
                assert empty_at_n == empty_at_cutoff
        agreements += 1
    elapsed = time.perf_counter() - started
    assert agreements == 200
    assert elapsed < 600.0
    report(6, f"200/200 cut-off emptiness transfers to n <= M+2, {elapsed:.2f}s")


def test_criterion_07_choice_point_characterization():
    rng = random.Random(701)
    programs = 0
    states_checked = 0
    while programs < 100:
        n = rng.choice([2, 2, 3, 3, 4])
        caps = CapacityMap(
            tuple((r, rng.randint(1, 3)) for r in ("a", "b", "c")[: rng.randint(1, 3)])
        )
        prog = random_program(
            rng, list(caps.names), caps, n,
            3 if n == 2 else 2,
            identical=rng.random() < 0.5,
        )
        if prog.grid_states() > 10**5:
            continue
        programs += 1
        for state in itertools.product(*(range(t + 1) for t in prog.tops)):
            if not state_admissible(prog, state):
                continue
            states_checked += 1
            combinatorial = is_local_choice_point(prog, state) is not None
            assert combinatorial == lcp_definition_check(prog, state)
    assert programs == 100
    report(7, f"100 programs, {states_checked} admissible states agree")


def test_criterion_08_choice_points_embed_as_potential_deadlocks():
    # the embedding prepends a copy holding the contended resource, which
    # needs every used capacity to be at least two
    mapped = 0
    literal_seen = False
    for entries in [(("a", 2), ("b", 2)), (("a", 2), ("b", 3))]:
        caps = CapacityMap(entries)
        plan = sharpserializable_witness(caps)
        prog = Program.power(plan.thread, plan.instance_n, caps)
        bigger = Program.power(plan.thread, plan.instance_n + 1, caps)
        cps = local_choice_points(prog)
        assert cps
        for cp in cps:
            target = lcp_to_potential_deadlock(prog, cp)
            assert is_potential_deadlock(bigger, target)
            mapped += 1
            if cp.state == (4, 2, 2) and caps["b"] == 2:
                assert target == (4, 4, 2, 2)
                literal_seen = True
    assert literal_seen
    rng = random.Random(801)
    programs = 0
    while programs < 30:
        caps = CapacityMap((("a", rng.randint(2, 3)), ("b", rng.randint(2, 3))))
        t = random_thread(rng, ["a", "b"], 3)
        n = rng.randint(3, 4)
        prog = Program.power(t, n, caps)
        programs += 1
        bigger = Program.power(t, n + 1, caps)
        for cp in local_choice_points(prog):
            target = lcp_to_potential_deadlock(prog, cp)
            assert is_potential_deadlock(bigger, target)
            mapped += 1
    report(8, f"{mapped} choice points embedded, (4,2,2) -> (4,4,2,2)")


def test_criterion_09_no_choice_points_means_one_class():
    rng = random.Random(901)
    accepted = 0
    attempts = 0
    while accepted < 50:
        attempts += 1
        assert attempts < 2000
        t = random_thread(rng, ["a", "b"], 3)
        caps = make_caps(a=2, b=2).restrict(t.resources_used)
        cutoff = caps.total() + 1
        if local_choice_points(Program.power(t, cutoff, caps)):
            continue
        accepted += 1
        for n in (2, 3):
            cr = dihomotopy_classes(Program.power(t, n, caps))
            assert cr.class_count == 1
    report(9, "50 clean capacity-two threads all single-class up to 3 copies")


def test_criterion_10_byte_identical_reruns(capsys, tmp_path):
    ex = tmp_path / "ex.pv"
    ex.write_text(EX3)
    ring = tmp_path / "ring.pv"
    ring.write_text(RING)
    wit = tmp_path / "wit.pv"
    wit.write_text(WIT22)
    invocations = [
        ("check", str(ex)),
        ("deadlocks", str(ex), "crossing"),
        ("deadlocks", str(ring), "triple"),
        ("deadlocks", str(ring), "triple", "--potential"),
        ("family", str(ring), "deadlock"),
        ("family", str(wit), "serializability"),
        ("classes", str(ex), "crossing"),
        ("classes", str(wit)),
        ("lcp", str(wit)),
        ("witness", "deadlock", "a:1", "b:1", "c:1"),
        ("witness", "lcp", "a:2", "b:2"),
    ]
    for argv in invocations:
        outputs = set()
        codes = set()
        for _ in range(10):
            code = main([*argv, "--json"])
            outputs.add(capsys.readouterr().out.encode())
            codes.add(code)
        assert len(outputs) == 1, argv
        assert len(codes) == 1
        json.loads(next(iter(outputs)))
    report(10, f"{len(invocations)} command lines, 10 reruns each, identical bytes")
