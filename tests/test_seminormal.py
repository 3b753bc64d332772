import re

import pytest
from hypothesis import given, strategies as st

from qrook.errors import DegenerateContent, InvalidArgument
from qrook.linalg import Mat
from qrook.presentations import relations_cyclotomic, verify
from qrook.qfield import Q, QINV, RatFunc, as_ratfunc, quantum_factorial
from qrook.seminormal import (
    calibrated_skew_module,
    cyclotomic_module,
    restrict,
    shifted_skew_module,
)
from qrook.shapes import SkewShape, count_standard_tableaux, index_set_H

U23 = (as_ratfunc(2), as_ratfunc(3))


def test_skew_one_box():
    rep = calibrated_skew_module(SkewShape((1,), ()), 1)
    assert rep.matrices["X1"].to_dense() == [[RatFunc((1,))]]


def test_skew_row_and_column():
    row = calibrated_skew_module(SkewShape((2,), ()), 2)
    assert row.matrices["T1"].to_dense() == [[Q]]
    col = calibrated_skew_module(SkewShape((1, 1), ()), 2)
    assert col.matrices["T1"].to_dense() == [[-QINV]]


def test_cyclotomic_one_box_and_row():
    rep = cyclotomic_module(((1,), ()), U23)
    assert rep.matrices["X1"].to_dense() == [[as_ratfunc(2)]]
    rep = cyclotomic_module(((2,), ()), U23)
    assert rep.matrices["T1"].to_dense() == [[Q]]


def test_cyclotomic_two_singletons():
    rep = cyclotomic_module(((1,), (1,)), (as_ratfunc(0), as_ratfunc(1)))
    x1 = rep.matrices["X1"]
    x2 = rep.matrices["X2"]
    diag = lambda m: [m.get(i, i) for i in range(rep.dimension)]
    assert diag(x1) == [as_ratfunc(0), as_ratfunc(1)]
    assert diag(x2) == [as_ratfunc(1), as_ratfunc(0)]


def test_hecke_quadratic_on_every_generator():
    for shape in index_set_H(3, 2):
        rep = cyclotomic_module(shape, U23)
        eye = Mat.identity(rep.dimension)
        for name, t in rep.matrices.items():
            if not name.startswith("T"):
                continue
            assert ((t - eye.scale(Q)) @ (t + eye.scale(QINV))).is_zero()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_cyclotomic_suite_passes(k):
    for shape in index_set_H(k, 2):
        rep = cyclotomic_module(shape, U23)
        assert verify(rep.matrices, relations_cyclotomic(k, U23))["passed"]


def test_degenerate_content_raises():
    with pytest.raises(DegenerateContent):
        cyclotomic_module(((1,), (1,)), (as_ratfunc(1), as_ratfunc(1)))


def test_shifted_skew_dimensions():
    assert shifted_skew_module(2, 1, as_ratfunc(1)).dimension == 1
    assert shifted_skew_module(3, 1, as_ratfunc(1)).dimension == 2
    assert shifted_skew_module(4, 2, as_ratfunc(1)).dimension == 5


def test_shifted_skew_preconditions():
    with pytest.raises(InvalidArgument):
        shifted_skew_module(3, 3, as_ratfunc(1))
    with pytest.raises(InvalidArgument):
        shifted_skew_module(3, 1, as_ratfunc(0))


@pytest.mark.parametrize(
    "shape, u, bad",
    [
        (((0, 1),), [1], "(0, 1)"),
        (((2,), (0,)), [1, 2], "(0,)"),  # not read as the empty partition
        (((1, 2),), [1], "(1, 2)"),
    ],
)
def test_cyclotomic_module_names_a_part_that_is_not_a_partition(shape, u, bad):
    with pytest.raises(InvalidArgument, match=f"^not a partition: {re.escape(bad)}$"):
        cyclotomic_module(shape, u)


def test_restrict_examples():
    rep = cyclotomic_module(((1,), (1,)), U23)
    blocks = restrict(rep)
    assert [s for s, _ in blocks] == [((1,), ()), ((), (1,))]
    assert all(len(idx) == 1 for _, idx in blocks)

    rep = cyclotomic_module(((), (2, 1)), U23)
    assert [s for s, _ in restrict(rep)] == [((), (2,)), ((), (1, 1))]

    rep = cyclotomic_module(((2,), ()), U23)
    assert [s for s, _ in restrict(rep)] == [((1,), ())]


def test_restrict_blocks_closed_and_canonical():
    k = 3
    for shape in index_set_H(k, 2):
        rep = cyclotomic_module(shape, U23)
        names = [f"X{i}" for i in range(1, k)] + [
            f"T{i}" for i in range(1, k - 1)
        ]
        for smaller, indices in restrict(rep):
            inside = set(indices)
            sub = cyclotomic_module(smaller, U23)
            for name in names:
                big = rep.matrices[name]
                # closure: no entries leaving the block
                for i, row in big.rows.items():
                    for j, v in row.items():
                        if (i in inside) != (j in inside):
                            assert v.is_zero()
                assert big.submatrix(indices) == sub.matrices[name]


@pytest.mark.parametrize("k,r", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_dimension_sum(k, r):
    total = sum(
        count_standard_tableaux(s) ** 2 for s in index_set_H(k, r)
    )
    assert total == r**k * __import__("math").factorial(k)


def test_factorial_guard_is_symbolically_fine():
    assert not quantum_factorial(4).is_zero()


_ENTRIES = st.sampled_from([as_ratfunc(0), as_ratfunc(1), as_ratfunc(-3), Q, -QINV, Q - QINV, (Q + 1).inv()])


@st.composite
def _sparse_matrices(draw):
    n = draw(st.integers(0, 6))
    flat = draw(st.lists(st.one_of(st.just(as_ratfunc(0)), _ENTRIES), min_size=n * n, max_size=n * n))
    return Mat.from_dense([flat[i * n:(i + 1) * n] for i in range(n)])


@given(_sparse_matrices())
def test_to_json_renders_every_dense_entry(m):
    assert m.to_json() == [[str(v) for v in row] for row in m.to_dense()]
