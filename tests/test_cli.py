import json
import os
import shlex
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from qrook import cli, forked, tensor
from qrook.cli import _emit, _join_signed_values, main, parse_q, parse_u_list
from qrook.errors import DegenerateContent, InvalidArgument, PoleAtPoint
from qrook.qfield import Q, as_ratfunc
from qrook.seminormal import cyclotomic_module
from qrook.shapes import index_set_A, parse_multipartition


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_u_list():
    assert parse_u_list("0,1") == (as_ratfunc(0), as_ratfunc(1))
    assert parse_u_list("1, 2*q^2") == (as_ratfunc(1), 2 * Q * Q)
    assert parse_u_list("3/2") == (as_ratfunc("3/2"),)


def test_parse_q():
    assert parse_q("symbolic") is None
    assert parse_q("1") == 1
    assert parse_q(" -3 / 7 ") == Fraction(-3, 7)
    for spec in ["pi", "q", "q/q", "0.5", "1e3", "1_0", "1/0"]:
        with pytest.raises(InvalidArgument):
            parse_q(spec)


def test_tableaux_multi(capsys):
    code, out = run(capsys, "tableaux", "--multi", "[[1],[1]]")
    assert code == 0
    assert len(json.loads(out)) == 2


def test_tableaux_skew(capsys):
    code, out = run(capsys, "tableaux", "--skew", "[2,1]/[1]")
    assert code == 0
    assert len(json.loads(out)) == 2


def test_tableaux_empty(capsys):
    code, out = run(capsys, "tableaux", "--multi", "[[],[]]")
    assert code == 0
    assert len(json.loads(out)) == 1


@pytest.mark.parametrize(
    "argv,entries",
    [
        (["tableaux", "--multi", "[[1200]]"], 1200),
        (["tableaux", "--skew", "[1200]/[1]"], 1199),
    ],
)
def test_tableaux_of_a_long_row(capsys, argv, entries):
    # more boxes than Python's recursion limit
    code, out = run(capsys, *argv)
    assert code == 0
    (tableau,) = json.loads(out)
    assert [e["entry"] for e in tableau["entries"]] == list(range(1, entries + 1))


def test_verify_rook_symbolic(capsys):
    code, out = run(capsys, "verify", "--family", "rook", "--k", "3")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_aalg(capsys):
    code, out = run(
        capsys, "verify", "--family", "aAlg", "--k", "2", "--u", "1,2"
    )
    assert code == 0


def test_verify_rook_at_q1(capsys):
    code, out = run(capsys, "verify", "--family", "rook", "--k", "2", "--q", "1")
    assert code == 0


@pytest.mark.parametrize("q", ["1", "3"])
def test_verify_rook_specialised(capsys, q):
    # q = 1 runs on the 0/1 monoid matrices, any other q on the
    # specialised seminormal modules
    code, out = run(capsys, "verify", "--family", "rook", "--k", "4", "--q", q)
    assert code == 0
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--family", "rook", "--k", "3", "--u", "5,7"],
        ["semisimple", "--family", "rook", "--k", "3", "--u", "5,7"],
    ],
)
def test_rook_rejects_u(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --u does not apply to the rook family\n"


@pytest.mark.parametrize(
    "family,u", [("Ak", "1,3"), ("Bprime", "2,5")]
)
def test_fixed_u_families_reject_u(capsys, family, u):
    # both suites are written for u = (0, 1); any other --u would make
    # correct modules fail the suite
    assert main(["verify", "--family", family, "--k", "3", "--u", u]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --u does not apply to the {family} family\n"


def test_schurweyl_has_no_q_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["schurweyl", "--m", "1,1", "--k", "2", "--u", "0,1", "--q", "1"])
    assert exc.value.code == 2


def test_bratteli_json_counts(capsys):
    code, out = run(capsys, "bratteli", "--family", "A", "--levels", "3")
    assert code == 0
    data = json.loads(out)
    assert [len(level) for level in data["levels"]] == [1, 2, 4, 7]


def test_bratteli_dot_deterministic(capsys):
    _, out1 = run(capsys, "bratteli", "--family", "B", "--levels", "3", "--format", "dot")
    _, out2 = run(capsys, "bratteli", "--family", "B", "--levels", "3", "--format", "dot")
    assert out1 == out2
    assert out1.startswith("digraph")


def test_dims(capsys):
    code, out = run(capsys, "dims", "--rook", "4")
    assert code == 0
    data = json.loads(out)
    assert data["agree"] is True
    assert data["dimensions"]["4"]["formula"] == 209


def test_schurweyl(capsys):
    code, out = run(capsys, "schurweyl", "--m", "1,2", "--k", "2", "--u", "0,1")
    assert code == 0
    data = json.loads(out)
    assert data["rook_identity"] is True
    assert data["centralizer"] == {
        "agree": True,
        "dimension": 7,
        "predicted": 7,
    }


# at these u the relation suites pass but the word span is smaller than
# the semisimple prediction; the printed verdict must say so too
@pytest.mark.parametrize("u,k", [("1,1", "2"), ("1,q^2", "3")])
def test_schurweyl_passed_matches_exit_code(capsys, u, k):
    code, out = run(capsys, "schurweyl", "--m", "1,1", "--k", k, "--u", u)
    data = json.loads(out)
    assert data["cyclotomic"]["passed"] is True
    assert data["centralizer"]["agree"] is False
    assert data["passed"] is False
    assert code == 1


_STRINGS = st.one_of(
    st.text(),
    st.sampled_from(["", '"', "\\", '"\\"', "\x00\x1f\n\t", "\x7f", "\u00e9", "\u2028", "\U0001f600"]),
)
_JSON = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(-(10**40), 10**40),
        _STRINGS,
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(_STRINGS, max_size=5),
        st.dictionaries(_STRINGS, inner, max_size=5),
    ),
    max_leaves=25,
)


@given(_JSON)
@example([])
@example({})
@example({"a": [], "b": {}, "c": [[]], "d": [{}]})
@example(["0", "q", "(1)/(q)"])
@example([["0"], ["1", "-1"], [], [0, "x"]])
@example(["0", 'a"b'])
@example(["\u00e9", "0"])
@example([" "])
@example(["0", 1])
@example([["0"], [1]])
@example([{}, "x"])
def test_emit_equals_json_dumps(payload):
    assert _emit(payload) == json.dumps(payload, indent=2, sort_keys=True)


def _emit_counts(x, counts):
    """Add to counts the rows (non-empty lists of str), their entries, the
    dict keys and the other strings of the payload x."""
    if isinstance(x, dict):
        counts["keys"] += len(x)
        for v in x.values():
            _emit_counts(v, counts)
    elif isinstance(x, list) and x and all(type(v) is str for v in x):
        counts["rows"] += 1
        counts["entries"] += len(x)
    elif isinstance(x, list):
        for v in x:
            _emit_counts(v, counts)
    elif isinstance(x, str):
        counts["strings"] += 1
    return counts


def test_emit_encodes_a_string_row_once(monkeypatch):
    # a matrix row whose entries need no escaping costs one _encode_str
    # call, the escape check of the joined row, not one call per entry
    payload = cyclotomic_module(parse_multipartition("[[1],[3,2,1]]"), parse_u_list("0,1")).to_json()
    calls = []
    encode = cli._encode_str
    monkeypatch.setattr(cli, "_encode_str", lambda s: calls.append(s) or encode(s))
    assert _emit(payload) == json.dumps(payload, indent=2, sort_keys=True)
    counts = _emit_counts(payload, Counter())
    assert counts["entries"] > 150_000
    assert len(calls) == counts["rows"] + counts["keys"] + counts["strings"]


@pytest.mark.parametrize("payload", [1.5, (1, 2), {1: "a"}, {"a": [0.5]}, [b"x"], {"a": {None: 1}}])
def test_emit_rejects_other_types(payload):
    with pytest.raises(TypeError):
        _emit(payload)


def test_semisimple(capsys):
    code, out = run(
        capsys, "semisimple", "--family", "aAlg", "--k", "2", "--u", "1,q^2"
    )
    assert code == 0
    assert json.loads(out)["semisimple"] is False
    code, out = run(
        capsys, "semisimple", "--family", "rook", "--k", "6", "--q", "1"
    )
    assert json.loads(out)["semisimple"] is True


def test_rep_export(capsys):
    code, out = run(capsys, "rep", "--multi", "[[2],[1]]", "--u", "2,3")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 3
    assert "T1" in data["matrices"] and "X3" in data["matrices"]


def test_rep_shifted(capsys):
    code, out = run(capsys, "rep", "--k", "4", "--d", "2", "--u1", "1")
    assert code == 0
    assert json.loads(out)["dimension"] == 5


def test_determinism(capsys):
    _, out1 = run(capsys, "rep", "--multi", "[[1],[1]]", "--u", "0,1")
    _, out2 = run(capsys, "rep", "--multi", "[[1],[1]]", "--u", "0,1")
    assert out1 == out2


def test_error_exit_code(capsys):
    code = main(["rep", "--multi", "[[1],[1]]"])
    assert code == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--multi", "[[1],[1]]", "--u", "0,1", "--k", "7"], "--k does not apply to --multi"),
        (["--multi", "[[1],[1]]", "--u", "0,1", "--u1", "5", "--d", "3"], "--d does not apply to --multi"),
        (["--skew", "[2,1]/[1]", "--k", "2", "--u", "1,3"], "--u does not apply to --skew"),
        (["--skew", "[2,1]/[1]", "--k", "2", "--d", "1"], "--d does not apply to --skew"),
        (["--k", "3", "--d", "1", "--u1", "1", "--u", "4,5"], "--u does not apply to the shifted module"),
        (["--skew", "[2,1]/[1]"], "--skew requires --k"),
        (["--k", "3", "--u1", "1"], "the shifted module requires --d"),
    ],
)
def test_rep_rejects_options_its_module_does_not_read(capsys, argv, message):
    # an option the module kind does not read must not be ignored
    code = main(["rep", *argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


def _readme_commands():
    """The `qrook ...` lines of the sh block under "## Command line" in
    README.md, as argument lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("qrook ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_line_examples_run(capsys, argv):
    assert main(argv) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--family", "rook", "--k", "3", "--q", "0"],  # q = 0
        ["semisimple", "--family", "cyclo", "--k", "2"],  # missing --u
        ["tableaux", "--multi", "[[2],[1]"],  # malformed JSON
        ["verify", "--family", "cyclo", "--k", "2", "--u", "1,1"],  # DegenerateContent
        ["verify", "--family", "aAlg", "--k", "3", "--u", "1,4", "--q", "2"],  # PoleAtPoint
        ["tableaux", "--skew", "[2,1]/1"],  # inner shape is not a list
        ["rep", "--skew", "2,1/1", "--k", "2"],  # malformed JSON
        ["schurweyl", "--m", "a", "--k", "2", "--u", "0,1"],  # graded dimension not an int
        ["tableaux", "--multi", "[[1.5]]"],  # part not an int
        ["semisimple", "--family", "cyclo", "--k", "2", "--u", "1/0"],  # zero denominator
        ["tableaux", "--multi="],  # empty spec
        ["schurweyl", "--m=--", "--k", "1", "--u", "0,1"],  # argparse gives a list
        ["semisimple", "--family", "cyclo", "--k", "-1", "--u", "1,2"],  # size <= 0
        ["semisimple", "--family", "aAlg", "--k", "0", "--u", "1,2"],
        ["semisimple", "--family", "rook", "--k", "0"],
        ["dims", "--rook", "-1"],
        ["dims", "--rook", "0"],
        ["tableaux", "--multi", "{}"],  # a JSON object is not a list
        ["tableaux", "--multi", "[[1],{}]"],
        ["tableaux", "--skew", "{}"],
        ["tableaux", "--skew", "[2,1]/{}"],
        ["rep", "--multi", "[[1],{}]", "--u", "0,1"],
        ["tableaux", "--multi", "[[" + "1" * 5000 + "]]"],  # int too long for json
        ["tableaux", "--skew", "[" * 100000],  # nested too deep for json
    ],
)
def test_bad_input_exits_2_with_one_line_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


# q = 0 is refused by one rule before anything is specialised, also at
# k = 1, where the rook and cyclo suites hold no q^-1 and would pass
Q_ZERO = [
    ["verify", "--family", "rook", "--k", "1", "--q", "0"],
    ["verify", "--family", "cyclo", "--k", "1", "--u", "2,3", "--q", "0"],
    ["verify", "--family", "rook", "--k", "3", "--q", "0"],
    ["verify", "--family", "cyclo", "--k", "3", "--u", "2,3", "--q", "0"],
    ["verify", "--family", "Ak", "--k", "3", "--q", "0"],
    ["verify", "--family", "aAlg", "--k", "3", "--u", "1,4", "--q", "0"],
    ["verify", "--family", "Bprime", "--k", "3", "--q", "0"],
    ["semisimple", "--family", "rook", "--k", "1", "--q", "0"],
    ["semisimple", "--family", "cyclo", "--k", "2", "--u", "2,3", "--q", "0"],
]


@pytest.mark.parametrize("argv", Q_ZERO, ids=" ".join)
def test_q_zero_exits_2(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "error: q must be nonzero\n")


# each with the start of its error: a stray sign must not be dropped,
# which would check the values left and exit 0, "q^-1" must not be split
# into "q^" and "-1", a value or an integer option must not be read by a
# looser grammar (blanks joining digits, int() and Fraction() reading
# "1_0" as 10 and a digit outside ASCII as a digit), and q^e with a huge e
# must exit 2 before its coefficient tuple is built
MALFORMED_VALUES = [
    (["verify", "--family", "aAlg", "--k", "3", "--u", "1,3+"], "stray sign in polynomial "),
    (["verify", "--family", "aAlg", "--k", "3", "--u", "1--2,3"], "stray sign in polynomial "),
    (["verify", "--family", "cyclo", "--k", "2", "--u", "+,1"], "stray sign in polynomial "),
    (["semisimple", "--family", "cyclo", "--k", "2", "--u", "1,q+-"], "stray sign in polynomial "),
    (["schurweyl", "--m", "1,1", "--k", "2", "--u", "0,1++q"], "stray sign in polynomial "),
    (["verify", "--family", "aAlg", "--k", "3", "--u", "0,q^-1"], "negative exponent in "),
    (["rep", "--k", "3", "--d", "1", "--u1", "q^-2"], "negative exponent in "),
    (["verify", "--family", "aAlg", "--k", "3", "--u", "1 2,3"], "cannot parse '1 2'"),
    (["verify", "--family", "rook", "--k", "2", "--q", "1_0"], "cannot parse '1_0'"),
    (["schurweyl", "--m", "1_1", "--k", "1", "--u", "0"], "bad graded dimensions "),
    (["schurweyl", "--m", "\u0661", "--k", "1", "--u", "0"], "bad graded dimensions "),
    (["dims", "--rook", "1_1"], "bad integer '1_1' for --rook"),
    (["verify", "--family", "rook", "--k", "\u0663"], "bad integer '\u0663' for --k"),
    (["bratteli", "--family", "A", "--levels", "2.0"], "bad integer '2.0' for --levels"),
    (["rep", "--k", "3", "--d", "1_0", "--u1", "1"], "bad integer '1_0' for --d"),
    (
        ["verify", "--family", "aAlg", "--k", "2", "--u", "q^99999999999999,1"],
        "exponent too large in 'q^99999999999999'",
    ),
]


@pytest.mark.parametrize(
    "argv,message", MALFORMED_VALUES, ids=[" ".join(argv) for argv, _ in MALFORMED_VALUES]
)
def test_malformed_value_exits_2_and_names_the_fault(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: " + message)
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "spaced",
    [
        ["verify", "--family", "aAlg", "--k", "2", "--u", "-1,3"],
        ["verify", "--family", "aAlg", "--k", "2", "--u", "1,3", "--q", "-3/7"],
        ["semisimple", "--family", "aAlg", "--k", "2", "--u", "1,3", "--q", "-1/2"],
        ["semisimple", "--family", "cyclo", "--k", "2", "--u", "-1/2,-q"],
        ["rep", "--k", "3", "--d", "1", "--u1", "-1/2"],
        ["verify", "--family", "rook", "--k", "2", "--q", "-1"],
        ["verify", "--family", "aAlg", "--k", "2", "--u", "1,1", "--q", "-1/2"],  # exits 2
    ],
)
def test_signed_values_spaced_and_joined_agree(capsys, spaced):
    # argparse alone reads "-1,3" or "-1/2" after an option as an option name
    joined = spaced[:-2] + [f"{spaced[-2]}={spaced[-1]}"]
    results = []
    for argv in (spaced, joined):
        code = main(argv)
        results.append((code, *capsys.readouterr()))
    assert results[0] == results[1]


def test_join_signed_values_leaves_option_names():
    argv = ["verify", "--u", "--q", "-1", "--k", "-2", "--q", "-h"]
    assert _join_signed_values(argv) == ["verify", "--u", "--q=-1", "--k", "-2", "--q", "-h"]


def test_verify_aalg_specialised_passes(capsys):
    code, out = run(capsys, "verify", "--family", "aAlg", "--k", "3", "--q", "2")
    assert code == 0
    assert json.loads(out)["passed"] is True


def _main_in_process(capsys, argv):
    """(exit code, stdout, stderr) of main(argv) in this process, an
    argparse rejection included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _main_alone(argv):
    """(exit code, stdout, stderr) of argv run by a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qrook.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_cli_starts_without_dataclasses_or_inspect():
    """Importing the CLI and building its parser loads neither module;
    together they were about half of qrook's import time.  A fresh
    interpreter, since pytest itself imports both."""
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import qrook.cli; "
        "qrook.cli.build_parser(); "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", script, SRC], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize(
    "sequence",
    [
        [
            ["verify", "--family", "aAlg", "--k", "3", "--u", "1,3", "--q", "1/2"],
            ["verify", "--family", "aAlg", "--k", "3", "--u", "1,3"],
        ],
        [["dims", "--rook", "1_1"], ["dims", "--rook", "3"]],
        [
            ["schurweyl", "--m", "1,1", "--k", "2", "--u", "0,1", "--q", "1"],
            ["schurweyl", "--m", "1,1", "--k", "2", "--u", "0,1"],
        ],
    ],
    ids=["q-then-symbolic", "exit-2-then-good", "argparse-exit-then-good"],
)
def test_reused_parser_leaks_no_state(monkeypatch, capsys, sequence):
    # main() reuses one parser per process; each call in the sequence
    # must give what it gives run alone.  COLUMNS fixes the width that
    # argparse wraps its usage message to, here and in the child.
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.build_parser() is cli.build_parser()
    in_one_process = [_main_in_process(capsys, argv) for argv in sequence]
    assert in_one_process == [_main_alone(argv) for argv in sequence]
    assert in_one_process[-1][0] == 0


def test_closed_stdout_is_not_a_traceback():
    # the reader closes the pipe before qrook writes, as `| head` can
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qrook.cli", "dims", "--rook", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


# -- modules checked in forked workers ------------------------------------


def assert_no_children():
    """Every child this process forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_with_cpus(monkeypatch, capsys, cpus, argv):
    """(exit code, stdout, stderr) of main(argv) with cpus CPUs counted."""
    monkeypatch.setattr(forked, "_cpu_count", lambda: cpus)
    code = main(argv)
    captured = capsys.readouterr()
    assert_no_children()
    return code, captured.out, captured.err


def count_forks(monkeypatch):
    """A list that gets one entry per os.fork this process makes."""
    forks = []
    fork = os.fork

    def counting():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return forks


def record_splits(monkeypatch):
    """A list that gets each split forked._map_forked makes."""
    splits = []
    split = forked._split

    def recording(costs, workers):
        splits.append(split(costs, workers))
        return splits[-1]

    monkeypatch.setattr(forked, "_split", recording)
    return splits


SPLIT_CASES = [
    ["verify", "--family", family, "--k", k, *u, *q]
    for family, k, u in [
        ("rook", "4", []),
        ("Ak", "4", []),
        ("cyclo", "3", ["--u", "1,3"]),
        ("aAlg", "4", ["--u", "1,3"]),
        ("Bprime", "4", []),
    ]
    for q in ([], ["--q", "2"], ["--q=-1/2"])
]


@pytest.mark.parametrize("argv", SPLIT_CASES, ids=[" ".join(a) for a in SPLIT_CASES])
def test_split_equals_serial(monkeypatch, capsys, argv):
    forks = count_forks(monkeypatch)
    serial = run_with_cpus(monkeypatch, capsys, 1, argv)
    assert forks == []
    modules = len(index_set_A(int(argv[4])))
    for cpus in (2, 3):
        del forks[:]
        assert run_with_cpus(monkeypatch, capsys, cpus, argv) == serial
        assert len(forks) == min(cpus, modules) - 1


# schurweyl runs its relation suites (check 0) beside its span (check 1)
SCHURWEYL_SPLIT_CASES = [
    (["schurweyl", "--m", "1,1", "--k", "4", "--u", "0,1"], 0),
    (["schurweyl", "--m", "1,2", "--k", "3", "--u", "0,1"], 0),
    (["schurweyl", "--m", "1,1", "--k", "3", "--u", "1,1"], 1),  # the span is too small
    (["schurweyl", "--m", "1,1", "--k", "3", "--u", "0"], 2),  # raised before either check
]


@pytest.mark.parametrize(
    "argv,code", SCHURWEYL_SPLIT_CASES, ids=[" ".join(a) for a, _ in SCHURWEYL_SPLIT_CASES]
)
def test_schurweyl_split_equals_serial(monkeypatch, capsys, argv, code):
    forks = count_forks(monkeypatch)
    serial = run_with_cpus(monkeypatch, capsys, 1, argv)
    assert serial[0] == code
    assert forks == []
    for cpus in (2, 3):
        del forks[:]
        assert run_with_cpus(monkeypatch, capsys, cpus, argv) == serial
        assert len(forks) == (0 if code == 2 else min(cpus, 2) - 1)


@pytest.mark.parametrize("span_fails", [False, True])
def test_schurweyl_suite_error_is_the_serial_error(monkeypatch, capsys, span_fails):
    # the suites run in the child: their error wins over the span's, which
    # the serial code would never reach
    def failing(name):
        def raising(*args):
            raise InvalidArgument(f"{name} failed")

        return raising

    monkeypatch.setattr(tensor, "relations_cyclotomic", failing("suite"))
    if span_fails:
        monkeypatch.setattr(tensor, "algebra_dimension", failing("span"))
    argv = ["schurweyl", "--m", "1,1", "--k", "3", "--u", "0,1"]
    forks = count_forks(monkeypatch)
    expected = (2, "", "error: suite failed\n")
    assert run_with_cpus(monkeypatch, capsys, 1, argv) == expected
    assert run_with_cpus(monkeypatch, capsys, 2, argv) == expected
    assert len(forks) == 1


@pytest.mark.parametrize(
    "argv",
    [["verify", "--family", "rook", "--k", "4"], ["schurweyl", "--m", "1,1", "--k", "4", "--u", "0,1"]],
    ids=" ".join,
)
def test_parent_runs_only_its_own_share(monkeypatch, capsys, argv):
    # a child whose outcome could not be read would have its share rerun
    # here: the output would not change, but the split would gain nothing
    parent = os.getpid()
    splits = record_splits(monkeypatch)
    ran = []
    run_share = forked._run_share

    def recording(check, share):
        if os.getpid() == parent:
            ran.append(share)
        return run_share(check, share)

    monkeypatch.setattr(forked, "_run_share", recording)
    code, _, err = run_with_cpus(monkeypatch, capsys, 2, argv)
    assert (code, err) == (0, "")
    assert len(splits) == 1 and len(splits[0]) == 2
    assert ran == [splits[0][0]]
    if argv[0] == "schurweyl":
        assert splits[0] == [[1], [0]]  # the span in this process


def test_workers_never_exceed_modules(monkeypatch, capsys):
    monkeypatch.setattr(forked, "_cpu_count", lambda: 64)
    assert [forked._worker_count(n) for n in range(5)] == [1, 1, 2, 3, 4]
    forks = count_forks(monkeypatch)
    serial = run_with_cpus(monkeypatch, capsys, 1, ["verify", "--family", "rook", "--k", "1"])
    assert run_with_cpus(monkeypatch, capsys, 64, ["verify", "--family", "rook", "--k", "1"]) == serial
    assert len(forks) == len(index_set_A(1)) - 1


def test_one_worker_without_fork_or_beside_a_thread(monkeypatch, capsys):
    monkeypatch.setattr(forked, "_cpu_count", lambda: 4)
    assert forked._worker_count(10) == 4
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert forked._worker_count(10) == 1
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    argv = ["verify", "--family", "rook", "--k", "3"]
    with_fork = run_with_cpus(monkeypatch, capsys, 4, argv)
    monkeypatch.delattr(os, "fork")
    assert forked._worker_count(10) == 1
    assert run_with_cpus(monkeypatch, capsys, 4, argv) == with_fork


def test_split_is_largest_first_to_least_loaded():
    assert forked._split([5, 1, 4, 2, 2], 1) == [[0, 1, 2, 3, 4]]
    # 5 -> share 0, 4 -> 1, 2 (index 3) -> 1, 2 (index 4) -> 0, 1 -> 1
    assert forked._split([5, 1, 4, 2, 2], 2) == [[0, 4], [1, 2, 3]]
    assert forked._split([1, 1], 3) == [[0], [1], []]


# aAlg --k 4 --u 1,q^2 fails first at shape ((3,), (1,)), then at
# ((2,), (2,)), ((2,), (1, 1)), ((1,), (2, 1)) and ((1,), (1, 1, 1))
FIRST_DEGENERATE = DegenerateContent("equal contents for adjacent entries 2,3 in shape ((3,), (1,))")


# the parent's share is the one module of parent_shape, and the child has
# all the others; the error must be that of the first failing module
@pytest.mark.parametrize(
    "k,u,q,parent_shape,expected",
    [
        ("4", "1,q^2", "symbolic", ((1,), (1, 1, 1)), FIRST_DEGENERATE),  # fails later
        ("4", "1,q^2", "symbolic", ((), (4,)), FIRST_DEGENERATE),  # passes
        ("4", "1,q^2", "symbolic", ((3,), (1,)), FIRST_DEGENERATE),  # the first failure
        ("3", "1,4", "2", ((1,), (1, 1)), PoleAtPoint("denominator vanishes at q=2")),
    ],
)
def test_child_error_is_the_serial_error(monkeypatch, capsys, k, u, q, parent_shape, expected):
    argv = ["verify", "--family", "aAlg", "--k", k, "--u", u, "--q", q]
    serial = run_with_cpus(monkeypatch, capsys, 1, argv)
    assert serial == (2, "", f"error: {expected}\n")
    monkeypatch.setattr(cli, "_module_cost", lambda shape: 100 if shape == parent_shape else 1)
    splits = record_splits(monkeypatch)
    assert run_with_cpus(monkeypatch, capsys, 2, argv) == serial
    assert splits[0][0] == [index_set_A(int(k)).index(parent_shape)]
    with pytest.raises(type(expected)) as exc:
        cli._verify_family("aAlg", int(k), parse_u_list(u), parse_q(q))
    assert str(exc.value) == str(expected)
    assert_no_children()


def test_child_exception_is_reraised_and_child_never_returns(monkeypatch):
    monkeypatch.setattr(forked, "_cpu_count", lambda: 2)
    parent = os.getpid()
    statuses = []
    waitpid = os.waitpid

    def recording(pid, options):
        reaped = waitpid(pid, options)
        statuses.append(os.waitstatus_to_exitcode(reaped[1]))
        return reaped

    def check(i):
        if i == 1:
            raise RuntimeError(f"module {i} raised in {'parent' if os.getpid() == parent else 'child'}")
        return i

    monkeypatch.setattr(os, "waitpid", recording)
    try:
        with pytest.raises(RuntimeError) as exc:
            forked._map_forked(check, [1, 1, 1])
    finally:
        if os.getpid() != parent:  # a child got back here: end it, and fail below
            os._exit(17)
    assert str(exc.value) == "module 1 raised in child"
    assert statuses == [0]
    monkeypatch.undo()
    assert_no_children()


def test_smallest_failing_index_wins(monkeypatch):
    monkeypatch.setattr(forked, "_cpu_count", lambda: 3)

    def check(i):
        if i:
            raise ValueError(f"module {i}")
        return i

    # shares [0, 3], [1, 4] and [2, 5] fail at 3, 1 and 2
    assert forked._split([1] * 6, 3) == [[0, 3], [1, 4], [2, 5]]
    with pytest.raises(ValueError, match="^module 1$"):
        forked._map_forked(check, [1] * 6)
    assert_no_children()


def test_lost_child_share_runs_in_parent(monkeypatch):
    monkeypatch.setattr(forked, "_cpu_count", lambda: 3)
    parent = os.getpid()

    class Local(Exception):
        """Not picklable: pickle finds no class by this qualified name."""

    def check(i):
        if os.getpid() != parent and i == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        if i == 2:
            raise Local(f"module {i} in {'parent' if os.getpid() == parent else 'child'}")
        return i * i

    assert forked._map_forked(check, [3, 2]) == [0, 1]
    assert_no_children()
    with pytest.raises(Local) as exc:
        forked._map_forked(check, [3, 2, 1, 1])
    assert str(exc.value) == "module 2 in parent"
    assert_no_children()


def test_interrupted_parent_kills_and_reaps_children(monkeypatch):
    monkeypatch.setattr(forked, "_cpu_count", lambda: 2)
    parent = os.getpid()

    class Interrupt(BaseException):
        pass

    def check(i):
        if os.getpid() == parent:
            raise Interrupt
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(Interrupt):
        forked._map_forked(check, [1, 1])
    assert time.monotonic() - start < 30
    assert_no_children()
