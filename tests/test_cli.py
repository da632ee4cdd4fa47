import argparse
import codecs
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import mutated_sources
from pvguard import ParseError, Program, cli, deadlock, parse_source, report
from pvguard.cli import main

EX3 = """\
resource a cap 1
resource b cap 1
thread T1 = Pa Pb Vb Va
thread T2 = Pb Pa Va Vb
program main = T1 | T2
"""

SAME = """\
resource a cap 1
resource b cap 1
thread T = Pa Pb Vb Va
program main = T^2
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


@pytest.fixture
def ex3(tmp_path):
    f = tmp_path / "ex3.pv"
    f.write_text(EX3)
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_check_ok(capsys, ex3):
    code, out, err = run(capsys, "check", ex3)
    assert code == 0
    assert "2 thread(s)" in out
    assert "main" in out


def test_check_json_envelope(capsys, ex3):
    code, doc, _ = run_json(capsys, "check", ex3)
    assert code == 0
    assert doc["tool"] == "pvguard"
    assert doc["command"] == "check"
    assert len(doc["source_digest"]) == 64
    assert doc["result"]["valid"] is True
    assert doc["result"]["programs"] == [{"name": "main", "threads": 2}]
    assert doc["result"]["resources"] == {"a": 1, "b": 1}
    names = [t["name"] for t in doc["result"]["threads"]]
    assert names == ["T1", "T2"]


def test_check_accepts_a_utf8_byte_order_mark(capsys, ex3, tmp_path):
    raw = codecs.BOM_UTF8 + EX3.encode()
    bom = tmp_path / "bom.pv"
    bom.write_bytes(raw)
    code, doc, _ = run_json(capsys, "check", str(bom))
    assert code == 0
    assert doc["result"] == run_json(capsys, "check", ex3)[1]["result"]
    # the digest is of the bytes as read, mark included
    assert doc["source_digest"] == hashlib.sha256(raw).hexdigest()


def test_parse_error_cites_position(capsys, tmp_path):
    f = tmp_path / "bad.pv"
    f.write_text("resource a cap 1\nthread T = Pa Pa Va Va\nprogram m = T^2\n")
    code, out, err = run(capsys, "check", str(f))
    assert code == 2
    assert out == ""
    assert "bad.pv" in err
    assert "line 2" in err
    assert "position 2" in err


def test_missing_file(capsys):
    code, out, err = run(capsys, "check", "/nonexistent/x.pv")
    assert code == 2
    assert "pvguard:" in err


def test_superscript_capacity_is_a_located_input_error(capsys, tmp_path):
    f = tmp_path / "sup.pv"
    f.write_text("resource a cap \u00b2\n", encoding="utf-8")
    code, out, err = run(capsys, "deadlocks", str(f))
    assert (code, out) == (2, "")
    assert f"pvguard: {f}: line 1, column 16: capacity of 'a' must be an integer >= 1" in err


def _address_space_1gib():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _run_in_1gib(*argv):
    """``python -m pvguard.cli *argv`` in a child under a 1 GiB address-space
    limit, where an input that asks for unbounded memory fails safely."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "pvguard.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60, preexec_fn=_address_space_1gib,
    )


def test_huge_copy_count_is_refused_before_allocating(tmp_path):
    # without the thread bound the parser's list of copies raises
    # MemoryError, a traceback and exit 1
    f = tmp_path / "huge.pv"
    f.write_text("resource a cap 1\nthread T = Pa Va\nprogram main = T ^ 1000000000\n")
    done = _run_in_1gib("deadlocks", str(f))
    assert done.returncode == 2, done.stderr
    assert "line 3, column 20: a program has at most 10000 threads" in done.stderr


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (("family", "{}", "deadlock"), 4, "10000 threads (2000000000 needed)"),
        (("family", "{}", "serializability"), 4, "10000 threads (2000000001 needed)"),
        (("witness", "deadlock", "a:1000000000", "b:1"), 2,
         "the witness needs 1000000001 threads; a program has at most 10000"),
    ],
    ids=["family-deadlock", "family-serializability", "witness-deadlock"],
)
def test_capacity_sums_past_the_thread_bound_build_no_instance(tmp_path, argv, code, message):
    # without the bound the cut-off instance of 2e9 copies (or the witness's
    # 1e9-coordinate state) raises MemoryError, a traceback and exit 1
    f = tmp_path / "wide.pv"
    f.write_text("resource a cap 1000000000\nresource b cap 1000000000\n"
                 "thread T = Pa Pb Va Pa Vb Va\n")
    done = _run_in_1gib(*(arg.format(f) for arg in argv))
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    assert message in done.stdout + done.stderr


def test_check_states_a_grid_past_the_digit_limit_as_its_magnitude(capsys, tmp_path):
    # 4 ** 7000 has 4,215 digits and prints in full; 4 ** 7200 has 4,335, past
    # the interpreter's default limit of 4,300 for ``str`` of an int
    f = tmp_path / "big.pv"
    f.write_text("resource a cap 1\nthread T = Pa Va\n"
                 "program small = T ^ 7000\nprogram large = T ^ 7200\n")
    code, out, _ = run(capsys, "check", str(f))
    assert code == 0
    lines = out.splitlines()
    assert lines[-2] == f"  program small: 7000 thread(s), {4 ** 7000} grid states"
    assert lines[-1] == "  program large: 7200 thread(s), about 10^4335 grid states"


@pytest.mark.parametrize(
    "argv, code, stdout, stderr",
    [
        (("deadlocks", "{}", "--potential"), 0, "program main: 0 potential deadlock(s)\n", ""),
        (("deadlocks", "{}"), 0,
         "program main: 0 deadlock(s), 0 candidate(s), 0 state(s) visited\n", ""),
        (("lcp", "{}"), 3, "", "concrete candidate states ("),
    ],
    ids=["potential", "deadlocks", "lcp"],
)
def test_two_thousand_copies_end_without_a_traceback(tmp_path, argv, code, stdout, stderr):
    # past about 990 threads the candidate sweep recursed past the
    # interpreter's limit: a RecursionError, a traceback and exit 1, the
    # code of a violation, once the bound let the sweep run
    f = tmp_path / "many.pv"
    f.write_text("resource a cap 1\nthread T = Pa Va\nprogram main = T ^ 2000\n")
    done = _run_in_1gib(*(arg.format(f) for arg in argv), "--max-states", "10000000000")
    assert (done.returncode, done.stdout) == (code, stdout), done.stderr
    assert "Traceback" not in done.stderr
    assert stderr in done.stderr


@pytest.fixture(scope="module")
def distinct_7200(tmp_path_factory):
    """7,200 distinct one-resource threads: 4 ** 7200 folded states, whose
    4,335 digits pass the interpreter's int-to-str limit of 4,300."""
    lines = [f"resource r{i} cap 1" for i in range(7200)]
    lines += [f"thread T{i} = Pr{i} Vr{i}" for i in range(7200)]
    lines.append("program main = " + " | ".join(f"T{i}" for i in range(7200)))
    f = tmp_path_factory.mktemp("wide") / "distinct.pv"
    f.write_text("\n".join(lines) + "\n")
    return str(f)


@pytest.mark.parametrize(
    "argv", [("deadlocks", "{}"), ("deadlocks", "{}", "--potential"), ("lcp", "{}")],
    ids=["deadlocks", "potential", "lcp"],
)
def test_bound_message_states_a_count_past_the_digit_limit(distinct_7200, argv):
    # the count went through ``str``: exit 2 with "Exceeds the limit (4300
    # digits) for integer string conversion" instead of the bound's exit 3
    done = _run_in_1gib(*(arg.format(distinct_7200) for arg in argv))
    assert (done.returncode, done.stdout) == (3, ""), done.stderr
    assert (
        "pvguard: instance exceeds the configured bound of 100000000 "
        "symmetry-folded states (about 10^4335 needed)\n"
    ) in done.stderr


def test_json_carries_a_grid_count_past_the_digit_limit(tmp_path):
    # stats.grid_states is 4 ** 10000, 6,021 digits: the encoder's ``repr``
    # raised ValueError, exit 2; the exact integer is written instead
    f = tmp_path / "wide.pv"
    f.write_text("resource a cap 1\nthread T = Pa Va\nprogram main = T ^ 10000\n")
    done = _run_in_1gib("deadlocks", str(f), "--json", "--max-states", "1000000000000")
    assert done.returncode == 0, done.stderr
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit to lift")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # only to read the number back here
    try:
        stats = json.loads(done.stdout)["result"]["stats"]
    finally:
        sys.set_int_max_str_digits(limit)
    assert stats["grid_states"] == 4 ** 10000
    assert stats["threads"] == 10000


def test_deadlocks_text_report_and_grid(capsys, ex3):
    code, out, err = run(capsys, "deadlocks", ex3)
    assert code == 1
    assert "1 deadlock(s)" in out
    assert "deadlock (2, 2)  [1:Pb 2:Pa]" in out
    assert "via (0,0) -> (1,0) -> (2,0) -> (2,1) -> (2,2)" in out
    # two-thread programs come with the ascii grid
    assert "X marked" in out
    assert "thread 1 ->" in out


def test_deadlocks_text_names_a_grid_too_large_to_draw(capsys, tmp_path):
    # the picture of a two-thread grid has a size limit; past it one line
    # names the grid's size, and the text call costs about what --json does
    f = tmp_path / "wide.pv"
    f.write_text("resource a cap 1\nthread T = " + " ".join(["Pa Va"] * 1000) + "\nprogram main = T | T\n")
    started = time.process_time()
    code, out, _ = run(capsys, "deadlocks", str(f))
    assert time.process_time() - started < 3  # the picture took about 7 s
    assert code == 0
    assert out.splitlines()[-1] == "grid of 2002 x 2002 states not drawn: a picture shows at most 10000"


def test_deadlocks_json_payload(capsys, ex3):
    code, doc, _ = run_json(capsys, "deadlocks", ex3)
    assert code == 1
    dl = doc["result"]["deadlocks"]
    assert len(dl) == 1
    assert dl[0]["state"] == [
        {"thread": 1, "position": 2, "action": "Pb"},
        {"thread": 2, "position": 2, "action": "Pa"},
    ]
    assert len(dl[0]["witness"]) == 5
    assert doc["result"]["stats"]["grid_states"] == 36


def test_deadlocks_clean_exit_zero(capsys, tmp_path):
    f = tmp_path / "same.pv"
    f.write_text(SAME)
    code, doc, _ = run_json(capsys, "deadlocks", str(f))
    assert code == 0
    assert doc["result"]["deadlocks"] == []


def test_deadlocks_potential_mode(capsys, ex3):
    code, doc, _ = run_json(capsys, "deadlocks", ex3, "--potential")
    assert code == 1
    assert doc["result"]["potential_deadlocks"] == [
        [
            {"thread": 1, "position": 2, "action": "Pb"},
            {"thread": 2, "position": 2, "action": "Pa"},
        ]
    ]
    assert "deadlocks" not in doc["result"]


def test_deadlocks_program_choice(capsys, tmp_path):
    f = tmp_path / "ring.pv"
    f.write_text(RING)
    code, _, _ = run(capsys, "deadlocks", str(f), "pair")
    assert code == 0
    code, doc, _ = run_json(capsys, "deadlocks", str(f), "triple")
    assert code == 1
    assert len(doc["result"]["deadlocks"]) == 6
    # no default when several programs exist
    code, out, err = run(capsys, "deadlocks", str(f))
    assert code == 2
    assert "program" in err


def test_family_deadlock_no(capsys, tmp_path):
    f = tmp_path / "ring.pv"
    f.write_text(RING)
    code, doc, _ = run_json(capsys, "family", str(f), "deadlock")
    assert code == 1
    r = doc["result"]
    assert r["verdict"] == "no"
    assert r["rule"] == "deadlock-cutoff"
    assert r["cutoff"] == 3
    assert r["manifests_at_n"] == 3
    assert len(r["witnesses"]) == 6


def test_family_serializability_yes(capsys, ex3):
    code, doc, _ = run_json(
        capsys, "family", ex3, "serializability", "--thread", "T1"
    )
    assert code == 0
    r = doc["result"]
    assert r["verdict"] == "yes"
    assert r["rule"] == "pairwise-serializability"
    assert r["thread"] == "T1"


def test_family_inconclusive_exit_four(capsys, tmp_path):
    f = tmp_path / "wit.pv"
    f.write_text(WIT22)
    code, doc, _ = run_json(capsys, "family", str(f), "serializability")
    assert code == 4
    r = doc["result"]
    assert r["verdict"] == "inconclusive"
    assert r["rule"] == "choice-point-cutoff"
    assert len(r["choice_points"]) == 540


def test_family_needs_thread_name_when_ambiguous(capsys, ex3):
    code, out, err = run(capsys, "family", ex3, "deadlock")
    assert code == 2
    assert "thread" in err


OK = "resource a cap 1\nthread T = Pa Va\nprogram main = T ^ 2\n"


@pytest.mark.parametrize(
    "source, argv, message",
    [
        (OK, ("deadlocks", "nosuch"), "pvguard: no program named 'nosuch' (defined: main)"),
        (
            "resource a cap 1\nthread T = Pa Va\n",
            ("deadlocks",),
            "pvguard: source defines no program; add a 'program NAME = ...' line",
        ),
        (OK, ("family", "deadlock", "--thread", "U"), "pvguard: no thread named 'U' (defined: T)"),
    ],
    ids=["unknown-program", "no-program", "unknown-thread"],
)
def test_names_the_source_does_not_define_are_input_errors(capsys, tmp_path, source, argv, message):
    f = tmp_path / "ok.pv"
    f.write_text(source)
    command, *rest = argv
    code, out, err = run(capsys, command, str(f), *rest)
    assert code == 2
    assert out == ""
    assert err.splitlines()[0] == message


def test_classes_serializable(capsys, tmp_path):
    f = tmp_path / "pv3.pv"
    f.write_text("resource a cap 1\nthread T = Pa Va\nprogram m = T^3\n")
    code, doc, _ = run_json(capsys, "classes", str(f))
    assert code == 0
    r = doc["result"]
    assert r["class_count"] == 6
    assert r["serial_classes_covered"] == 6
    assert r["serializable"] is True
    assert r["representatives"][0] == [1, 1, 1, 2, 2, 2, 3, 3, 3]


def test_classes_not_serializable(capsys, tmp_path):
    f = tmp_path / "cat.pv"
    f.write_text(
        "resource a cap 1\nresource b cap 1\n"
        "thread C = Pa Pb Vb Va Pb Pa Va Vb\nprogram m = C^2\n"
    )
    code, doc, _ = run_json(capsys, "classes", str(f))
    assert code == 1
    assert doc["result"]["class_count"] == 6
    assert doc["result"]["serializable"] is False


def test_classes_limit_overflow(capsys, tmp_path):
    f = tmp_path / "pv3.pv"
    f.write_text("resource a cap 1\nthread T = Pa Va\nprogram m = T^3\n")
    code, out, err = run(capsys, "classes", str(f), "--max-states", "2")
    assert code == 3
    assert "bound" in err


def test_classes_bounds_the_representatives(capsys, tmp_path):
    # 216 grid states and at most 720 pairs per level, but 90 classes of
    # 16-state representatives: 1,000 refuses, 1,440 answers
    f = tmp_path / "twice.pv"
    f.write_text("resource a cap 1\nthread T = Pa Va Pa Va\nprogram m = T^3\n")
    code, out, err = run(capsys, "classes", str(f), "--max-states", "1000")
    assert (code, out) == (3, "")
    assert err.splitlines()[0] == (
        "pvguard: instance exceeds the configured bound of 1000 representative "
        "path states (1440 needed)"
    )
    code, doc, _ = run_json(capsys, "classes", str(f), "--max-states", "1440")
    assert code == 1
    assert doc["result"]["class_count"] == 90
    assert len(doc["result"]["representatives"]) == 90


def test_lcp_reports_choice_points(capsys, tmp_path):
    f = tmp_path / "wit.pv"
    f.write_text(WIT22)
    code, doc, _ = run_json(capsys, "lcp", str(f))
    assert code == 1
    cps = doc["result"]["choice_points"]
    assert len(cps) == 6
    first = cps[0]
    assert first["resource"] == "b"
    assert first["contenders"] == [1, 2]
    assert first["reachable"] is True
    assert first["state"] == [
        {"thread": 1, "position": 2, "action": "Pb"},
        {"thread": 2, "position": 2, "action": "Pb"},
        {"thread": 3, "position": 4, "action": "Pa"},
    ]


def test_lcp_clean_exit_zero(capsys, tmp_path):
    f = tmp_path / "calm.pv"
    f.write_text("resource a cap 2\nthread T = Pa Va\nprogram m = T^2\n")
    code, doc, _ = run_json(capsys, "lcp", str(f))
    assert code == 0
    assert doc["result"]["choice_points"] == []


def test_witness_deadlock_closed_loop(capsys, tmp_path):
    code, out, err = run(capsys, "witness", "deadlock", "a:1", "b:1")
    assert code == 0
    src = tmp_path / "w.pv"
    src.write_text(out)
    code, doc, _ = run_json(capsys, "deadlocks", str(src))
    assert code == 1
    states = [
        tuple(c["position"] for c in d["state"])
        for d in doc["result"]["deadlocks"]
    ]
    assert (4, 2) in states


def test_witness_lcp_closed_loop(capsys, tmp_path):
    code, out, err = run(capsys, "witness", "lcp", "a:2", "b:2")
    assert code == 0
    assert "choice-point at (4,2,2)" in out
    src = tmp_path / "w.pv"
    src.write_text(out)
    code, doc, _ = run_json(capsys, "lcp", str(src))
    assert code == 1
    states = [
        tuple(c["position"] for c in cp["state"])
        for cp in doc["result"]["choice_points"]
    ]
    assert (4, 2, 2) in states


def capacity_maps(low: int) -> list[tuple[int, ...]]:
    """Every capacity map over 2-3 resources with values >= ``low`` and a
    total of at most 6."""
    return [
        caps
        for k in (2, 3)
        for caps in itertools.product(range(low, 7), repeat=k)
        if sum(caps) <= 6
    ]


def generated_witness(capsys, tmp_path, kind, caps):
    """The generated source of a witness and its expected state."""
    args = [f"{r}:{c}" for r, c in zip("abc", caps)]
    code, doc, _ = run_json(capsys, "witness", kind, *args)
    assert code == 0
    src = tmp_path / f"{kind}.pv"
    src.write_text(doc["result"]["source"])
    return str(src), tuple(doc["result"]["expected_state"])


def positions(state):
    return tuple(c["position"] for c in state)


@pytest.mark.parametrize("caps", capacity_maps(1), ids=str)
def test_deadlock_witness_closes_the_loop(capsys, tmp_path, caps):
    src, expected = generated_witness(capsys, tmp_path, "deadlock", caps)
    code, doc, _ = run_json(capsys, "deadlocks", src)
    assert code == 1
    assert expected in [positions(d["state"]) for d in doc["result"]["deadlocks"]]
    code, doc, _ = run_json(capsys, "family", src, "deadlock")
    assert code == 1
    assert doc["result"]["verdict"] == "no"
    assert expected in [positions(w) for w in doc["result"]["witnesses"]]


@pytest.mark.parametrize("caps", capacity_maps(2), ids=str)
def test_choice_point_witness_closes_the_loop(capsys, tmp_path, caps):
    src, expected = generated_witness(capsys, tmp_path, "lcp", caps)
    code, doc, _ = run_json(capsys, "lcp", src)
    assert code == 1
    reachable = [
        positions(cp["state"]) for cp in doc["result"]["choice_points"] if cp["reachable"]
    ]
    assert expected in reachable


def test_family_output_builds_one_program_per_copy_count(capsys, tmp_path, monkeypatch):
    src, _ = generated_witness(capsys, tmp_path, "lcp", (2, 2, 2))
    built = []
    post_init = Program.__post_init__

    def counting(self):
        built.append(self.n)
        post_init(self)

    monkeypatch.setattr(Program, "__post_init__", counting)
    code, doc, _ = run_json(capsys, "family", src, "serializability")
    assert code == 4
    cps = doc["result"]["choice_points"]
    assert len(cps) == 17010
    # the parsed 5-copy program and the 7-copy verdict instance, which the
    # JSON rendering of 17,010 choice points reads from the verdict
    assert sorted(built) == [5, 7]


def test_family_deadlock_print_bound_is_exact(capsys, tmp_path):
    # the (3,3,3) ladder instance: 48,620 orbits, 1,680 witnesses whose
    # paths hold 62,160 states.  At that bound the output is the one printed
    # before the verdict stopped counting paths (digests of those bytes);
    # one below, printing is refused
    src, _ = generated_witness(capsys, tmp_path, "deadlock", (3, 3, 3))
    digests = {
        (): "ac2aa733b0b78ddfd374bebb36f3f0b20208bbc944f1cff466e10b29214a0ac2",
        ("--json",): "b695bd8278cac6690c7c835afb324c7ab1229dbc4ffcb1290ddaf9d517954e43",
    }
    for flags, digest in digests.items():
        code, out, _ = run(capsys, "family", src, "deadlock", "--max-states", "62160", *flags)
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        code, out, err = run(capsys, "family", src, "deadlock", "--max-states", "62159", *flags)
        assert (code, out) == (3, "")
        assert err.startswith(
            "pvguard: instance exceeds the configured bound of 62159 "
            "witness-path states (62160 needed)\n"
        )


def test_family_deadlock_refuses_to_print_rung_16(capsys, tmp_path, monkeypatch):
    # 2,018,016 witnesses at the default bound: the verdict is "no", and the
    # refusal comes before any state is expanded
    src, _ = generated_witness(capsys, tmp_path, "deadlock", (6, 5, 5))

    def fail(*args):
        raise AssertionError("a concrete state was expanded")

    monkeypatch.setattr(deadlock, "_distinct_permutations", fail)
    for flags in ((), ("--json",)):
        code, out, err = run(capsys, "family", src, "deadlock", *flags)
        assert (code, out) == (3, "")
        assert "witness-path states (127135008 needed)" in err


def test_family_serializability_print_bound_is_exact(capsys, tmp_path):
    # the (2,2) choice-point witness: 540 choice points whose witness paths
    # would hold 11,520 states.  At that bound the output is the one printed
    # before choice points were bounded (digests of those bytes); one below,
    # printing is refused
    src, _ = generated_witness(capsys, tmp_path, "lcp", (2, 2))
    digests = {
        (): "6fc9657f3a5d575e4e70ca7b977135a0e8eb53d5c7056e4ac7065f82ddbd9e34",
        ("--json",): "44827c0b9fa185b21cc6ce141c2995db7568525f53d0375af0400ebb9e8c9cb8",
    }
    for flags, digest in digests.items():
        argv = ("family", src, "serializability", "--max-states")
        code, out, _ = run(capsys, *argv, "11520", *flags)
        assert code == 4
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        code, out, err = run(capsys, *argv, "11519", *flags)
        assert (code, out) == (3, "")
        assert "witness-path states (11520 needed)" in err


def test_family_serializability_refuses_to_print_444(capsys, tmp_path, monkeypatch):
    # 24,324,300 choice points in 18 orbits at the default bound, whose
    # witness paths would hold 1,435,133,700 states: the refusal comes before
    # any state is expanded
    src, _ = generated_witness(capsys, tmp_path, "lcp", (4, 4, 4))

    def fail(*args):
        raise AssertionError("a concrete state was expanded")

    monkeypatch.setattr(deadlock, "_distinct_permutations", fail)
    for flags in ((), ("--json",)):
        code, out, err = run(capsys, "family", src, "serializability", *flags)
        assert (code, out) == (3, "")
        assert "witness-path states (1435133700 needed)" in err


@pytest.mark.parametrize(
    "kind, largest, past",
    [("deadlock", ("a:5000", "b:5000"), ("a:5001", "b:5000")),
     ("lcp", ("a:5001", "b:5000"), ("a:5001", "b:5001"))],
)
def test_witness_at_the_thread_bound_parses_back(capsys, tmp_path, kind, largest, past):
    # the largest witness instances have 10,000 threads, and `check` reads
    # their source back; one more thread is refused
    code, out, _ = run(capsys, "witness", kind, *largest)
    assert code == 0 and "program main = T^10000" in out
    f = tmp_path / "w.pv"
    f.write_text(out)
    code, out, _ = run(capsys, "check", str(f))
    assert code == 0 and "program main: 10000 thread(s)" in out
    code, out, err = run(capsys, "witness", kind, *past)
    assert (code, out) == (2, "")
    assert "the witness needs 10001 threads; a program has at most 10000" in err


def test_witness_json_mode(capsys):
    code, doc, _ = run_json(capsys, "witness", "deadlock", "a:1", "b:1", "c:1")
    assert code == 0
    r = doc["result"]
    assert r["thread"] == ["Pa", "Pb", "Va", "Pc", "Vb", "Pa", "Vc", "Va"]
    assert r["cutoff"] == 3
    assert r["expected_state"] == [6, 2, 4]


def test_witness_rejects_bad_requests(capsys):
    code, out, err = run(capsys, "witness", "deadlock", "a:1")
    assert code == 2
    code, out, err = run(capsys, "witness", "lcp", "a:2", "b:1")
    assert code == 2
    code, out, err = run(capsys, "witness", "deadlock", "a=1", "b=1")
    assert code == 2


def test_stdin_input(capsys, monkeypatch):
    import io
    import sys

    monkeypatch.setattr(
        sys, "stdin", io.TextIOWrapper(io.BytesIO(EX3.encode()), encoding="utf-8")
    )
    code, doc, _ = run_json(capsys, "deadlocks", "-")
    assert code == 1


def test_max_states_flag_overflow(capsys, ex3):
    code, out, err = run(capsys, "deadlocks", ex3, "--max-states", "3")
    assert code == 3


def test_potential_mode_honours_max_states(capsys, ex3):
    code, out, err = run(capsys, "deadlocks", ex3, "--potential", "--max-states", "3")
    assert code == 3
    assert out == ""
    assert "configured bound of 3 symmetry-folded states" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("deadlocks", "--max-states", "-5"),
        ("lcp", "--max-states", "0"),
        ("classes", "--max-states", "0"),
        ("classes", "--max-states", "-1"),
    ],
)
def test_bounds_below_one_are_usage_errors(capsys, ex3, argv):
    command, *flags = argv
    with pytest.raises(SystemExit) as e:
        main([command, ex3, *flags])
    assert e.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


def test_classes_has_no_second_bound(capsys, ex3):
    # --max-states is the one bound of classes
    with pytest.raises(SystemExit) as e:
        main(["classes", ex3, "--limit", "2"])
    assert e.value.code == 2
    assert "--limit" in capsys.readouterr().err


def test_family_unit_capacities_bound_is_inconclusive(capsys, ex3):
    code, doc, _ = run_json(
        capsys, "family", ex3, "serializability", "--thread", "T1",
        "--max-states", "1",
    )
    assert code == 4
    assert doc["result"]["verdict"] == "inconclusive"
    assert doc["result"]["rule"] == "search-limit"


def test_max_states_env(capsys, ex3, monkeypatch):
    monkeypatch.setenv("PVGUARD_MAX_STATES", "3")
    code, out, err = run(capsys, "deadlocks", ex3)
    assert code == 3
    monkeypatch.setenv("PVGUARD_MAX_STATES", "not-a-number")
    code, out, err = run(capsys, "deadlocks", ex3)
    assert code == 1
    assert err.count("ignoring invalid PVGUARD_MAX_STATES='not-a-number'") == 1
    # only calls that use the bound read it
    for argv, expected in (
        (("deadlocks", ex3, "--max-states", "3"), 3),
        (("witness", "deadlock", "a:1", "b:1"), 0),
    ):
        code, out, err = run(capsys, *argv)
        assert code == expected
        assert "PVGUARD_MAX_STATES" not in err


@pytest.mark.parametrize(
    "value, shown",
    [
        ("1" * 5000, ": number 11111111... has 5000 digits"),
        ("0" * 50, ": must be at least 1, got 0"),
        ("x" * 5000, ": invalid int value: 'xxxxxxxx'... has 5000 characters"),
        ("-" + "1" * 5000, ": invalid int value: '-1111111'... has 5001 characters"),
        ("-" + "1" * 4000, ": must be at least 1, got number -1111111... has 4000 digits"),
    ],
    ids=["past-the-digit-limit", "zeros", "letters", "negative", "negative-number"],
)
def test_max_states_echo_is_bounded(capsys, ex3, monkeypatch, value, shown):
    # an invalid value is named by its first characters and its length, in
    # the digit-count wording of the parser where it is a number: ignored
    # with one line when it comes from the environment, refused as a flag
    monkeypatch.setenv("PVGUARD_MAX_STATES", value)
    code, _, err = run(capsys, "deadlocks", ex3)
    assert code == 1
    assert err.splitlines()[0] == "pvguard: ignoring invalid PVGUARD_MAX_STATES" + shown
    monkeypatch.delenv("PVGUARD_MAX_STATES")
    code, out, err = call(capsys, ("deadlocks", ex3, "--max-states=" + value))
    assert (code, out) == (2, "")
    assert err[-1] == "pvguard deadlocks: error: argument --max-states" + shown


def test_timing_goes_to_stderr_not_stdout(capsys, ex3):
    code, out, err = run_json(capsys, "deadlocks", ex3)[0], None, None
    code, out, err = run(capsys, "deadlocks", ex3, "--json")
    assert "finished in" in err
    assert "finished in" not in out
    json.loads(out)


def test_byte_identical_reruns(capsys, ex3, tmp_path):
    f = tmp_path / "wit.pv"
    f.write_text(WIT22)
    for argv in (
        ("deadlocks", ex3, "--json"),
        ("classes", ex3, "--json"),
        ("lcp", str(f), "--json"),
        ("family", str(f), "serializability", "--json"),
    ):
        outs = set()
        for _ in range(3):
            _, out, _ = run(capsys, *argv)
            outs.add(out)
        assert len(outs) == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    out = capsys.readouterr().out
    assert "pvguard" in out


def call(capsys, argv):
    """Exit code, stdout and stderr of one call, usage errors included, with
    the timing line dropped."""
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    err = [ln for ln in captured.err.splitlines() if " finished in " not in ln]
    return code, captured.out, err


@pytest.fixture
def corpus(tmp_path, ex3):
    """One call per command on small sources; ``ex3`` is a 2-thread program
    that deadlocks, so the text rendering draws the grid."""
    ring = tmp_path / "ring.pv"
    ring.write_text(RING)
    wit = tmp_path / "wit.pv"
    wit.write_text(WIT22)
    return [
        ("check", ex3),
        ("deadlocks", ex3),
        ("deadlocks", ex3, "--potential"),
        ("family", str(ring), "deadlock"),
        ("family", str(wit), "serializability"),
        ("classes", ex3),
        ("lcp", str(wit)),
        ("witness", "lcp", "a:2", "b:2"),
    ]


def test_parser_is_built_once_per_process(capsys, corpus, monkeypatch):
    call(capsys, corpus[0])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    codes = [call(capsys, argv)[0] for argv in corpus]
    assert codes == [0, 1, 1, 1, 4, 0, 1, 0]
    assert built == []


def test_calls_share_no_state(capsys, ex3):
    sequence = [
        ("deadlocks", ex3, "--max-states", "3"),
        ("deadlocks", ex3),
        ("deadlocks", ex3, "--max-states", "0"),
        ("witness", "deadlock", "a:1", "b:1"),
        ("classes", ex3),
        ("deadlocks", ex3),
    ]
    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(call(capsys, argv))
    cli._parser.cache_clear()
    shared = [call(capsys, argv) for argv in sequence]
    assert [r[0] for r in fresh] == [3, 1, 2, 0, 0, 1]
    assert shared == fresh


# argv, exit code, the first line of stdout and a line or part of a line of
# stderr ("" when empty, the timing line dropped), recorded when every call
# went through the top parser; ``ex3.pv`` holds EX3
ARGV_SHAPES = [
    ((), 2, "", "pvguard: error: the following arguments are required: COMMAND"),
    (("-h",), 0, "usage: pvguard [-h] [--version] COMMAND ...", ""),
    (("--version",), 0, "pvguard 0.1.0", ""),
    (("--", "check", "ex3.pv"), 2, "", "argument COMMAND: invalid choice: '--'"),
    (("--json", "check", "ex3.pv"), 2, "", "pvguard: error: unrecognized arguments: --json"),
    (("chec", "ex3.pv"), 2, "", "argument COMMAND: invalid choice: 'chec'"),
    (("nonsense",), 2, "", "argument COMMAND: invalid choice: 'nonsense'"),
    (("check",), 2, "", "pvguard check: error: the following arguments are required: file"),
    (("check", "-h"), 0, "usage: pvguard check [-h] [--json] [--max-states MAX_STATES] file", ""),
    (("check", "ex3.pv"), 0, "ok: 2 resource(s), 2 thread(s), 1 program(s)", ""),
    (("check", "ex3.pv", "-h"), 0,
     "usage: pvguard check [-h] [--json] [--max-states MAX_STATES] file", ""),
    (("check", "ex3.pv", "--version"), 2, "", "pvguard: error: unrecognized arguments: --version"),
    (("check", "ex3.pv", "extra"), 2, "", "pvguard: error: unrecognized arguments: extra"),
    (("check", "ex3.pv", "--js"), 0, "{", ""),
    (("check", "--", "ex3.pv"), 0, "ok: 2 resource(s), 2 thread(s), 1 program(s)", ""),
    (("classes", "ex3.pv", "--limit", "2"), 2, "",
     "pvguard: error: unrecognized arguments: --limit 2"),
    (("classes", "ex3.pv", "--max", "1"), 3, "",
     "pvguard: instance exceeds the configured bound of 1 grid states"),
    (("deadlocks", "ex3.pv", "main", "more"), 2, "", "pvguard: error: unrecognized arguments: more"),
    (("deadlocks", "ex3.pv", "--pot"), 1, "program main: 1 potential deadlock(s)", ""),
    (("deadlocks", "ex3.pv", "--max-states", "0"), 2, "",
     "pvguard deadlocks: error: argument --max-states: must be at least 1, got 0"),
    (("deadlocks", "ex3.pv", "--max-states", "many"), 2, "",
     "pvguard deadlocks: error: argument --max-states: invalid int value: 'many'"),
    (("deadlocks", "ex3.pv", "nosuch"), 2, "", "pvguard: no program named 'nosuch' (defined: main)"),
    (("family", "ex3.pv", "nonsense"), 2, "", "argument property: invalid choice: 'nonsense'"),
    (("family", "ex3.pv"), 2, "",
     "pvguard family: error: the following arguments are required: property"),
    (("family", "ex3.pv", "deadlock", "--thread", "T1"), 0,
     "thread T1, deadlock-freedom for all copy counts: yes", ""),
    (("lcp", "ex3.pv", "--json"), 1, "{", ""),
    (("lcp", "ex3.pv", "-x"), 2, "", "pvguard: error: unrecognized arguments: -x"),
    (("witness", "deadlock"), 2, "",
     "pvguard witness: error: the following arguments are required: NAME:CAP"),
    (("witness", "lcp", "a:2", "b:2", "--json"), 0, "{", ""),
    (("witness", "deadlock", "a:1", "b:1", "--max-states", "3"), 2, "",
     "pvguard: error: unrecognized arguments: --max-states 3"),
]


@pytest.mark.parametrize(
    "argv, code, out, err", ARGV_SHAPES, ids=[" ".join(row[0]) or "none" for row in ARGV_SHAPES]
)
def test_each_argv_shape_keeps_its_exit_code_and_output(
    capsys, tmp_path, monkeypatch, argv, code, out, err
):
    # a call its command's reader table decides runs no argparse pass; every
    # shape must answer as the top parser alone (no reader tables) answers
    # it, byte for byte
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal's width
    (tmp_path / "ex3.pv").write_text(EX3)
    got = call(capsys, argv)
    top, _ = cli._parser()
    monkeypatch.setattr(cli, "_parser", lambda: (top, {}))
    assert got == call(capsys, argv)
    assert got[0] == code
    assert got[1].partition("\n")[0] == out
    if err:
        assert err in "\n".join(got[2])
    else:
        assert got[2] == []


def test_a_well_formed_corpus_call_runs_no_parse_known_args(capsys, corpus, monkeypatch):
    parses = []
    parse = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        parses.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    for argv in [*corpus, *([*a, "--json"] for a in corpus), [*corpus[1], "--max-states", "9"]]:
        parses.clear()
        call(capsys, argv)
        assert parses == [], argv
    # a call the reader does not decide (an abbreviation) is the top parser's
    call(capsys, [*corpus[0], "--js"])
    assert parses == ["pvguard", "pvguard check"]


# words a random call is drawn from: files, names, choices and capacities,
# every option spelled exactly, abbreviated and as --opt=value, help,
# negative numbers, an unknown option, the top parser's --version, "--" and
# the empty word; a draw may repeat a word and put options first
READER_VOCABULARY = (
    "ex3.pv", "-", "main", "T1", "deadlock", "serializability", "lcp", "nonsense",
    "a:1", "b:2", "3", "0", "", "--json", "--max-states", "--potential", "--thread",
    "--js", "--max", "--pot", "--max-states=3", "--thread=T1", "--", "-h", "-1", "-x",
    "--version",
)


def test_reader_gives_argparse_namespace_or_leaves_the_call():
    # the reader table either returns exactly the namespace argparse gives
    # the call (the top parser hands the words to the command's parser), with
    # no word left over, or returns None, so main asks argparse
    top, readers = cli._parser()
    rng = random.Random(11)
    commands = sorted(readers)
    taken = dict.fromkeys(commands, 0)
    for _ in range(60000):
        word = rng.choice(commands)
        words = [rng.choice(READER_VOCABULARY) for _ in range(rng.randrange(7))]
        if rng.random() < 0.5:  # positionals first, the shape the reader decides
            words.sort(key=lambda w: w[:1] == "-" and w != "-")
        got = cli._read(readers[word], words)
        if got is None:
            continue
        taken[word] += 1
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                expected = top.parse_known_args([word, *words])
            except SystemExit:
                expected = None
        assert expected == (got, []), (word, words)
    assert all(count >= 50 for count in taken.values()), taken


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (("witness", "deadlock", "a:" + "1" * 5000, "b:1"), "pvguard: "),
        (("deadlocks", "ex3.pv", "--max-states", "1" * 5000),
         "pvguard deadlocks: error: argument --max-states: "),
    ],
    ids=["capacity", "max-states"],
)
def test_numbers_past_the_digit_limit_count_their_digits(capsys, tmp_path, monkeypatch, argv, prefix):
    # int() past the interpreter's 4,300-digit limit raised "Exceeds the limit
    # (4300 digits) for integer string conversion", which the capacity printed
    # and --max-states reported as "invalid int value" with every digit echoed
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ex3.pv").write_text(EX3)
    code, out, err = call(capsys, argv)
    assert (code, out) == (2, "")
    assert err[-1] == prefix + "number 11111111... has 5000 digits"
    assert len("\n".join(err)) < 500


def _raising(*args, **kwargs):
    raise AssertionError("rendering of the format not printed")


@pytest.mark.parametrize(
    "flags, unused",
    [
        (("--json",), ("state_text", "path_text", "render_grid")),
        ((), ("state_json", "path_json", "envelope", "dumps")),
    ],
    ids=["json", "text"],
)
def test_only_the_printed_format_is_rendered(capsys, corpus, monkeypatch, flags, unused):
    expected = [call(capsys, [*argv, *flags]) for argv in corpus]
    for name in unused:
        monkeypatch.setattr(report, name, _raising)
    assert [call(capsys, [*argv, *flags]) for argv in corpus] == expected


# Runs each call in-process and prints the exit codes and stdouts as JSON.
_HASH_SEED_SCRIPT = """
import contextlib, io, json, sys
from pvguard.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def test_json_bytes_do_not_depend_on_the_hash_seed(capsys, tmp_path):
    # sets and dicts of strings iterate in hash order, which the seed changes
    # from process to process; the reruns above share one process and seed
    argvs = []
    for text, program, thread in ((EX3, "main", "T1"), (RING, "triple", "T"),
                                  (WIT22, "triple", "W")):
        f = tmp_path / f"{program}-{thread}.pv"
        f.write_text(text)
        for cmd in (("check",), ("deadlocks", program), ("deadlocks", program, "--potential"),
                    ("lcp", program), ("classes", program),
                    ("family", "deadlock", "--thread", thread),
                    ("family", "serializability", "--thread", thread)):
            argvs.append([cmd[0], str(f), *cmd[1:], "--json"])
    src = str(Path(cli.__file__).resolve().parents[1])
    runs = []
    for seed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", _HASH_SEED_SCRIPT, json.dumps(argvs)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout))
    # and this process, under whatever seed it has
    runs.append([list(call(capsys, argv)[:2]) for argv in argvs])
    assert all(code != 2 and out for code, out in runs[0])
    assert runs[1] == runs[0] and runs[2] == runs[0] and runs[3] == runs[0]


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
@pytest.mark.parametrize(
    "command, expected", [(("deadlock",), 1), (("serializability",), 4)],
    ids=["deadlock", "serializability"],
)
def test_closed_stdout_ends_quietly(capsys, tmp_path, flags, command, expected):
    # `pvguard family FILE deadlock | head -1`, with the reader gone before
    # pvguard writes: the run keeps the analysis's exit code, not the input
    # error's 2, and neither the CLI nor the interpreter's exit flush reports
    # the broken pipe
    code, source, _ = call(capsys, ["witness", "deadlock", "a:2", "b:2", "c:1"])
    assert code == 0
    f = tmp_path / "w221.pv"
    f.write_text(source)
    src = str(Path(cli.__file__).resolve().parents[1])
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pvguard.cli", "family", str(f), *command, *flags],
            env=dict(os.environ, PYTHONPATH=src), stdout=write,
            stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write)
    assert done.returncode == expected, done.stderr
    assert "Broken pipe" not in done.stderr
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr
    assert " finished in " in done.stderr


@pytest.mark.parametrize(
    "words, expected",
    [(("family", "F", "deadlock"), 1), (("family", "F", "deadlock", "--json"), 1),
     (("check", "F", "-h"), 0), (("--version",), 0)],
    ids=["text", "json", "help", "version"],
)
def test_never_open_stdout_ends_quietly(capsys, tmp_path, words, expected):
    # `>&-` with the interpreter started directly, so sys.stdout is None: the
    # rendering raised AttributeError (a traceback and exit 1), and argparse
    # wrote its help and version text to stderr instead
    code, source, _ = call(capsys, ["witness", "deadlock", "a:2", "b:2", "c:1"])
    assert code == 0
    f = tmp_path / "w221.pv"
    f.write_text(source)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    command = [sys.executable, "-m", "pvguard.cli", *(str(f) if w == "F" else w for w in words)]
    plain = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
    assert plain.returncode == expected, plain.stderr
    done = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *command], env=env,
                          stderr=subprocess.PIPE, text=True, timeout=60)
    assert done.returncode == expected, done.stderr
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr
    if expected == 0:
        assert done.stderr == ""
    else:
        assert " finished in " in done.stderr


def test_never_open_stdin_is_an_input_error(capsys, monkeypatch):
    # `<&-` with the interpreter started directly, so sys.stdin is None:
    # reading the source raised AttributeError (a traceback and exit 1)
    monkeypatch.setattr(sys, "stdin", None)
    assert main(["check", "-"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("pvguard: standard input is not open\n"), err
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    command = [sys.executable, "-m", "pvguard.cli", "check", "-"]
    done = subprocess.run(["sh", "-c", 'exec "$@" <&-', "sh", *command], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("pvguard: standard input is not open\n"), done.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
def test_full_stdout_is_reported_with_exit_2(tmp_path, flags):
    # only a reader gone drops stdout quietly: a write that fails otherwise
    # (a full disk) is reported, and the run exits 2
    f = tmp_path / "ex3.pv"
    f.write_text(EX3)
    src = str(Path(cli.__file__).resolve().parents[1])
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "pvguard.cli", "deadlocks", str(f), *flags],
            env=dict(os.environ, PYTHONPATH=src), stdout=full,
            stderr=subprocess.PIPE, text=True, timeout=60,
        )
    assert done.returncode == 2, done.stderr
    assert "pvguard: [Errno 28]" in done.stderr


@pytest.mark.parametrize("stderr", ["reader-gone", "closed"])
def test_closed_stderr_keeps_the_exit_code(tmp_path, stderr):
    # stderr a pipe whose reader has gone, or never open (`2>&-`): the timing
    # and `pvguard: ...` lines raised OSError, so every run exited 1, and with
    # `2>&-` (sys.stderr None) print wrote the timing line, and argparse a
    # usage error's usage line, to stdout
    same, ex3, zero = tmp_path / "same.pv", tmp_path / "ex3.pv", tmp_path / "zero.pv"
    same.write_text(SAME)
    ex3.write_text(EX3)
    zero.write_text("resource a cap 0\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for argv, code in (
        (("family", same, "deadlock"), 0),
        (("deadlocks", same, "--json"), 0),
        (("deadlocks", ex3, "--json"), 1),
        (("check", zero), 2),
        (("classes", same, "--max-states", "1"), 3),
        (("nonsense",), 2),
        (("check",), 2),
        (("check", same, "--max-states", "0"), 2),
    ):
        command = [sys.executable, "-m", "pvguard.cli", *map(str, argv)]
        plain = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
        assert plain.returncode == code, plain.stderr
        assert code != 2 or plain.stdout == "", argv
        if stderr == "closed":
            done = subprocess.run(["sh", "-c", 'exec "$@" 2>&-', "sh", *command], env=env,
                                  stdout=subprocess.PIPE, text=True, timeout=60)
        else:
            read, write = os.pipe()
            os.close(read)
            try:
                done = subprocess.run(command, env=env, stdout=subprocess.PIPE, stderr=write,
                                      text=True, timeout=60)
            finally:
                os.close(write)
        assert (done.returncode, done.stdout) == (code, plain.stdout), argv


# -- fuzzed sources: every fault is a located input error ---------------------

def test_every_source_fault_is_a_located_input_error(capsys, monkeypatch):
    @given(st.one_of(mutated_sources(), st.text()))
    @example("resource a cap \u00b2\n")
    @settings(max_examples=600, deadline=None, derandomize=True)
    def check(text):
        try:
            parse_source(text)
        except ParseError:
            pass
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
        code = main(["check", "-"])
        err = capsys.readouterr().err
        assert code == 0 or (code == 2 and re.search(r"line \d+, column \d+: ", err)), err

    check()
