"""Word-span saturation: the ring path over Z[q, q^-1] against the Q(q)
path, which stays the oracle of record."""

from hypothesis import given, settings, strategies as st

from qrook import linalg
from qrook.linalg import LaurentSpan, Mat, RowSpan, rational_span_dimension, span_dimension
from qrook.presentations import algebra_dimension
from qrook.qfield import Q, QINV, RF_ZERO, RatFunc, as_ratfunc
from qrook.rook import regular_dimension
from qrook.seminormal import cyclotomic_module
from qrook.tensor import GradedBasis, centralizer_dimension, phiP, predicted_centralizer_dimension

U01 = (as_ratfunc(0), as_ratfunc(1))
U13 = (as_ratfunc(1), as_ratfunc(3))

# units, a non-unit constant, a non-unit Laurent polynomial, and an entry
# whose denominator is not a power of q
POOL = [
    RF_ZERO,
    as_ratfunc(1),
    as_ratfunc(-1),
    Q,
    -Q,
    Q - QINV,
    as_ratfunc(2),
    Q + 1,
    (Q + 1).inv(),
]


# at least half the entries are zero: dense generators with non-unit
# entries make the Q(q) oracle itself take seconds (degree growth in its
# pivots).  The draws mix all three routes: the ring path to the end, a
# restart at a non-unit pivot, and non-Laurent entries.
_ENTRY = st.one_of(st.just(RF_ZERO), st.sampled_from(POOL))


@st.composite
def _generators(draw):
    n = draw(st.integers(1, 3))
    count = draw(st.integers(1, 2))
    entries = st.lists(_ENTRY, min_size=n * n, max_size=n * n)
    gens = []
    for _ in range(count):
        flat = draw(entries)
        gens.append(Mat.from_dense([flat[i * n:(i + 1) * n] for i in range(n)]))
    return gens, n


@settings(deadline=None, max_examples=100)
@given(_generators())
def test_span_dimension_matches_rational_path(case):
    gens, n = case
    assert span_dimension(gens, n) == rational_span_dimension(gens, n)


def _as_ratfunc_vector(vec):
    """A LaurentSpan vector {exponent: {index: int}} as {index: RatFunc}."""
    out = {}
    for e, s in vec.items():
        for j, c in s.items():
            out[j] = out.get(j, RF_ZERO) + c * RatFunc.q_power(e)
    return out


def _spans(monkeypatch, generators, n):
    """Run span_dimension and the Q(q) path; return the spans each
    saturated and the number of RowSpan.reduce calls each made."""
    spans, calls = [], []
    saturate, reduce = linalg._saturate, RowSpan.reduce

    def recording_saturate(span, *args):
        spans.append(span)
        return saturate(span, *args)

    def counting_reduce(self, vec):
        calls.append(type(self))
        return reduce(self, vec)

    monkeypatch.setattr(linalg, "_saturate", recording_saturate)
    monkeypatch.setattr(RowSpan, "reduce", counting_reduce)
    dims = (span_dimension(generators, n), rational_span_dimension(generators, n))
    return dims, spans, calls


def test_ring_path_repeats_the_rational_elimination(monkeypatch):
    asg = phiP(4, GradedBasis((1, 1)), U01)
    gens = [asg[name] for name in sorted(asg)]
    dims, spans, calls = _spans(monkeypatch, gens, gens[0].n)
    assert dims == (70, 70)
    ring, rational = spans
    assert type(ring) is LaurentSpan and type(rational) is RowSpan
    assert calls.count(LaurentSpan) == calls.count(RowSpan) > 70
    # the same pivots, holding the same vectors entry for entry
    assert ring.pivots.keys() == rational.pivots.keys()
    for lead, vec in rational.pivots.items():
        assert _as_ratfunc_vector(ring.pivots[lead]) == vec


def test_ring_path_runs_without_the_rational_path(monkeypatch):
    def fail(*args):
        raise RuntimeError("the Q(q) path ran")

    monkeypatch.setattr(linalg, "rational_span_dimension", fail)
    assert algebra_dimension(phiP(4, GradedBasis((1, 1)), U01)) == 70


def test_restart_on_a_non_unit_pivot(monkeypatch):
    # u = (1, 3) puts 1 - q^2 at the lead of an early pivot
    asg = phiP(4, GradedBasis((1, 1)), U13)
    gens = [asg[name] for name in sorted(asg)]
    dims, spans, _ = _spans(monkeypatch, gens, gens[0].n)
    assert [type(s) for s in spans] == [LaurentSpan, RowSpan, RowSpan]
    assert dims == (70, 70)
    monkeypatch.undo()
    assert centralizer_dimension(4, GradedBasis((1, 1)), (1, 3)) == 70
    assert predicted_centralizer_dimension(4, GradedBasis((1, 1))) == 70


def test_non_laurent_entries_take_the_rational_path(monkeypatch):
    rep = cyclotomic_module(((1,), (1, 1)), U13)
    gens = [rep.matrices[name] for name in sorted(rep.matrices)]
    assert any(
        v.laurent() is None for g in gens for row in g.rows.values() for v in row.values()
    )
    dims, spans, _ = _spans(monkeypatch, gens, rep.dimension)
    assert [type(s) for s in spans] == [RowSpan, RowSpan]
    assert dims == (9, 9)  # an irreducible module of dimension 3


def test_laurent_conversion():
    assert (Q - QINV).laurent() == {1: 1, -1: -1}
    assert as_ratfunc(0).laurent() == {}
    assert (3 * Q * Q).laurent() == {2: 3}
    assert (Q + 1).inv().laurent() is None
    assert as_ratfunc("1/2").laurent() is None


def test_regular_dimension_4():
    assert regular_dimension(4) == 209
