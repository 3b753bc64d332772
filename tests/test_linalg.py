"""The Mat invariant: no zero entry and no empty row is ever stored.

``Mat.__eq__`` compares rows dicts, and ``verify`` decides that a relation
holds by comparing its two sides with ``==``; a stored zero would make
equal matrices compare unequal.  Every operation is checked on operands
whose entries cancel, and every generator the library builds is checked
as built."""

import pytest
from hypothesis import given, settings, strategies as st

from qrook.linalg import Mat, hecke_inverse
from qrook.presentations import projector_matrices
from qrook.qfield import Q, QINV, RF_ZERO, as_ratfunc
from qrook.seminormal import cyclotomic_module
from qrook.shapes import index_set_A
from qrook.tensor import GradedBasis, phiP

U01 = (as_ratfunc(0), as_ratfunc(1))
U13 = (as_ratfunc(1), as_ratfunc(3))

# closed under negation, so that drawn entries cancel (x and -x); 1/(q + 1)
# is not a Laurent polynomial, q - q^-1 vanishes at q = 1
_POOL = [as_ratfunc(1), Q, Q - QINV, as_ratfunc(2), (Q + 1).inv()]
POOL = [RF_ZERO] + _POOL + [-x for x in _POOL]
_ENTRY = st.sampled_from(POOL)


def malformed(m: Mat) -> list:
    """Every stored zero entry and empty row of m."""
    out = []
    for i, row in m.rows.items():
        if not row:
            out.append(f"empty row {i}")
        out += [f"zero at ({i}, {j})" for j, v in row.items() if v.is_zero()]
    return out


def test_detector_sees_zero_entries_and_empty_rows():
    m = Mat.identity(3)
    m.rows[1] = {}
    m.rows[2][0] = RF_ZERO
    assert malformed(m) == ["empty row 1", "zero at (2, 0)"]
    assert malformed(Mat.identity(3)) == malformed(Mat(0)) == []


def _dense(draw, n):
    return [draw(st.lists(_ENTRY, min_size=n, max_size=n)) for _ in range(n)]


@st.composite
def _operands(draw):
    """Two n x n dense matrices, n <= 4, the second one drawn on its own,
    the negation of the first, the first with some entries negated, or
    (n >= 2) the adjugate of the first's leading 2 x 2 block padded with
    zeros, whose product with the first cancels in both off-diagonal
    entries of that block."""
    n = draw(st.integers(0, 4))
    a = _dense(draw, n)
    kind = draw(st.sampled_from(["drawn", "negated", "partly negated", "adjugate"]))
    if kind == "negated":
        b = [[-x for x in row] for row in a]
    elif kind == "partly negated":
        b = [[-x if draw(st.booleans()) else draw(_ENTRY) for x in row] for row in a]
    elif kind == "adjugate" and n >= 2:
        b = [[RF_ZERO] * n for _ in range(n)]
        b[0][0], b[0][1], b[1][0], b[1][1] = a[1][1], -a[0][1], -a[1][0], a[0][0]
    else:
        b = _dense(draw, n)
    return n, a, b


@settings(deadline=None, max_examples=200)
@given(_operands(), st.data())
def test_operations_store_no_zero(case, data):
    n, a_dense, b_dense = case
    a, b = Mat.from_dense(a_dense), Mat.from_dense(b_dense)
    c = data.draw(_ENTRY)
    results = {
        "from_dense": a,
        "@": a @ b,
        "+": a + b,
        "-": a - b,
        "a - a": a - a,
        "neg": -a,
        "transpose": a.transpose(),
        "scale": a.scale(c),
        "add_scalar": a.add_scalar(c),
        "diagonal": Mat.diagonal(b_dense[0] if n else []),
        "specialize": a.specialize(1),
    }
    # add_scalar by minus a diagonal entry empties that entry
    for i in range(n):
        results[f"add_scalar -a[{i}][{i}]"] = a.add_scalar(-a.get(i, i))
    if n:
        indices = data.draw(st.lists(st.integers(0, n - 1), unique=True))
        results["submatrix"] = a.submatrix(indices)
        # set: zero out an entry, then overwrite one with a drawn value
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        m = a.copy()
        m.set(i, j, 0)
        results["set 0"] = m.copy()
        m.set(j, i, c)
        results["set"] = m
        # emptying a whole row through set
        m = a.copy()
        for col in range(n):
            m.set(0, col, RF_ZERO)
        results["set row 0"] = m
    assert {name: malformed(m) for name, m in results.items() if malformed(m)} == {}
    assert a.transpose().to_dense() == [list(col) for col in zip(*a.to_dense())]
    # == is exactly equality of the dense matrices
    assert (a == b) == (a_dense == b_dense)
    assert ((a - b).is_zero()) == (a == b)


@given(_operands())
def test_to_json_renders_every_dense_entry(case):
    # a @ b repeats entry values, which to_json renders once each
    n, a_dense, b_dense = case
    for m in (Mat.from_dense(a_dense), Mat.from_dense(a_dense) @ Mat.from_dense(b_dense)):
        assert m.to_json() == [[str(v) for v in row] for row in m.to_dense()]


def _cyclotomic(u):
    return [cyclotomic_module(shape, u).matrices for shape in index_set_A(3)]


BUILDERS = {
    "cyclotomic_module": _cyclotomic,
    "projector_matrices": lambda u: [projector_matrices(m, 3) for m in _cyclotomic(u)],
    "phiP": lambda u: [phiP(3, GradedBasis(m), u) for m in ((1, 1), (1, 2))],
}


@pytest.mark.parametrize("u", [U01, U13], ids=["u=0,1", "u=1,3"])
@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_generators_store_no_zero(builder, u):
    # every generator as built, and the Hecke inverse of every T
    found = {}
    for s, gens in enumerate(BUILDERS[builder](u)):
        for g, m in gens.items():
            found[s, g] = malformed(m)
            if g.startswith("T"):
                found[s, f"{g}^-1"] = malformed(hecke_inverse(m))
    assert {g: w for g, w in found.items() if w} == {}
