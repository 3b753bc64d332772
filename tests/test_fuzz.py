"""Fuzzing of the CLI error contract: the argument parsers return or raise
InvalidArgument, and ``main()`` returns 0, 1 or 2 with no exception
escaping, whatever text the arguments hold.

Inputs are kept small so that every example runs in milliseconds: digit
runs are cut to a few digits (a q-exponent or a row length is the size of
a dense tuple or of a tableau enumeration), and generated shapes have few,
short rows.
"""

import contextlib
import io
import json
import re

from hypothesis import given, settings, strategies as st

from qrook.cli import main, parse_q, parse_u_list
from qrook.errors import InvalidArgument
from qrook.qfield import RatFunc
from qrook.shapes import parse_multipartition, parse_skew


def _short_digits(max_run):
    return lambda s: re.sub(r"\d{%d,}" % (max_run + 1), lambda m: m.group()[:max_run], s)


# text in the alphabet of exact values and of shape specs, plus noise; the
# parsers only read it, so it may hold exponents up to 999
_text = st.text(alphabet="0123456789q^*+-/(), []{}\".eax", max_size=14).map(_short_digits(3))
# values the commands compute with: one digit per number, because symbolic
# work with a u of degree 999 takes 10-20 s (verify --k 2)
_value = st.one_of(
    st.text(alphabet="0123456789q^*+-/(), []{}\".eax", max_size=12).map(_short_digits(1)),
    # well-formed lists, so that the commands also run past their parsers
    st.lists(
        st.sampled_from(["0", "1", "-1", "2", "1/2", "q", "q^2", "-q^2", "3*q^4", "q-1", "(q)/(q+1)"]),
        min_size=1,
        max_size=3,
    ).map(",".join),
)
_small_text = st.text(alphabet="0123q^*+-/(), []{}\".ax", max_size=10).map(_short_digits(1))

# shape specs that parse to small shapes, or fail on the type or order of a part
_part = st.one_of(st.integers(-1, 3), st.sampled_from([1.5, "a", None, True, [1]]))
_row_list = st.lists(_part, max_size=3)


def _boxes(spec):
    """Upper bound on the boxes of a generated shape."""
    if isinstance(spec, list):
        return sum(map(_boxes, spec))
    return spec if type(spec) is int and spec > 0 else 0


_shape_json = st.one_of(
    _row_list.map(json.dumps),
    st.tuples(_row_list, _row_list).map(lambda p: f"{json.dumps(p[0])}/{json.dumps(p[1])}"),
    # a multipartition of up to 6 boxes has at most 720 tableaux
    st.lists(_row_list, max_size=3).filter(lambda mp: _boxes(mp) <= 6).map(json.dumps),
    _small_text,
)

_PARSERS = [parse_u_list, parse_multipartition, parse_skew, parse_q, RatFunc.from_string]


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(_PARSERS), st.one_of(_text, _shape_json))
def test_parsers_return_or_raise_invalid_argument(parse, text):
    try:
        parse(text)
    except InvalidArgument:
        pass


# fuzzed values are passed as --opt=value, because argparse reads a
# separate value that starts with "-" as an option
_ARGV = st.one_of(
    st.builds(
        lambda fam, k, u, q: ["semisimple", "--family", fam, "--k", k, f"--u={u}", f"--q={q}"],
        st.sampled_from(["cyclo", "aAlg"]),
        st.sampled_from(["-1", "0", "1", "2"]),
        _value,
        st.one_of(st.just("symbolic"), _value),
    ),
    st.builds(lambda s: ["tableaux", f"--skew={s}"], _shape_json),
    st.builds(lambda s: ["tableaux", f"--multi={s}"], _shape_json),
    st.builds(lambda s, k: ["rep", f"--skew={s}", "--k", k], _shape_json, st.sampled_from(["0", "2", "3"])),
    st.builds(lambda s, u: ["rep", f"--multi={s}", f"--u={u}"], _shape_json, _value),
    st.builds(
        lambda fam, k, u, q: ["verify", "--family", fam, "--k", k, f"--u={u}", f"--q={q}"],
        st.sampled_from(["cyclo", "aAlg"]),
        st.sampled_from(["-1", "0", "1", "2"]),
        _value,
        st.one_of(st.sampled_from(["symbolic", "0", "1", "-1", "2", "1/2"]), _small_text),
    ),
    st.builds(
        lambda m: ["schurweyl", f"--m={m}", "--k", "1", "--u", "0,1"],
        st.one_of(st.sampled_from(["1", "2", "1,1", "1,2"]), _small_text),
    ),
    st.builds(lambda k: ["dims", "--rook", k], st.sampled_from(["-1", "0", "3"])),
)


_SIZE_FLAG = {"semisimple": "--k", "verify": "--k", "dims": "--rook"}


def _size(argv):
    """The size semisimple, verify and dims are asked for (1 for other
    commands): a size <= 0 is a degenerate parameter, exit 2."""
    flag = _SIZE_FLAG.get(argv[0])
    return int(argv[argv.index(flag) + 1]) if flag else 1


@settings(deadline=None, max_examples=300)
@given(_ARGV)
def test_main_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if _size(argv) <= 0:
        assert code == 2
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
