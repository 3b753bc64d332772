import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from qrook.cli import _emit, _join_signed_values, main, parse_q, parse_u_list
from qrook.errors import InvalidArgument
from qrook.qfield import Q, as_ratfunc


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
    with pytest.raises(InvalidArgument):
        parse_q("pi")


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
def test_emit_equals_json_dumps(payload):
    assert _emit(payload) == json.dumps(payload, indent=2, sort_keys=True)


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
    "argv",
    [
        ["verify", "--family", "rook", "--k", "3", "--q", "0"],  # DivisionByZero
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
    ],
)
def test_bad_input_exits_2_with_one_line_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
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
