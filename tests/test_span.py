"""Word-span saturation over Q(q): the flat product against Mat @, the
words _saturate leaves out against a saturation that forms every
product, its suffix links against the tuple rule they replaced, and the
orbit of a vector against the word span."""

import pytest
from hypothesis import given, settings, strategies as st

from qrook import linalg
from qrook.linalg import Mat, RowSpan, span_dimension
from qrook.presentations import algebra_dimension
from qrook.qfield import Q, QINV, RF_ONE, RF_ZERO, as_ratfunc
from qrook.rook import (
    PartialInjection,
    enumerate_rook,
    left_regular_assignment,
    regular_dimension,
    rook_cardinality,
)
from qrook.tensor import GradedBasis, phiP, predicted_centralizer_dimension, verify_phiP

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
# entries make the saturation take seconds (degree growth in its pivots).
# The draws mix pivot leads that are units +-q^a, non-unit Laurent
# polynomials and entries whose denominator is not a power of q.
_ENTRY = st.one_of(st.just(RF_ZERO), st.sampled_from(POOL))


def _hecke_block(n, i, j):
    """A Hecke generator of size n: [[0, 1], [1, q - q^-1]] on coordinates
    i < j and q elsewhere on the diagonal, so T^2 = (q - q^-1) T + 1."""
    t = Mat.diagonal([Q] * n)
    t.set(i, i, RF_ZERO)
    t.set(i, j, as_ratfunc(1))
    t.set(j, i, as_ratfunc(1))
    t.set(j, j, Q - QINV)
    return t


@st.composite
def _small_generators(draw):
    """1 to 3 generators of size at most 3.  Besides dense draws and Hecke
    blocks, a generator may be diagonal (diagonals commute with each
    other) or g @ g + c g for an earlier generator g (which commutes with
    g), so that two-letter words reduce to zero."""
    n = draw(st.integers(0, 3))
    count = draw(st.integers(1, 3))
    entries = st.lists(_ENTRY, min_size=n * n, max_size=n * n)
    gens = []
    for _ in range(count):
        kind = draw(st.sampled_from(["dense", "hecke", "diagonal", "polynomial"]))
        if kind == "hecke" and n >= 2:
            i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
            gens.append(_hecke_block(n, i, j))
        elif kind == "diagonal":
            gens.append(Mat.diagonal(draw(st.lists(_ENTRY, min_size=n, max_size=n))))
        elif kind == "polynomial" and gens:
            g = draw(st.sampled_from(gens))
            gens.append(g @ g + g.scale(draw(st.sampled_from(POOL))))
        else:
            flat = draw(entries)
            gens.append(Mat.from_dense([flat[i * n:(i + 1) * n] for i in range(n)]))
    return gens, n


@st.composite
def _commuting_hecke_generators(draw):
    """2 or 3 block-diagonal Hecke generators of size 4 to 6 that commute:
    all share one split of the coordinates into blocks of size 1 and 2,
    and each is, on every 2-block, [[0, 1], [1, q - q^-1]] or an
    eigenvalue q or -q^-1 times the identity, and one of those eigenvalues
    on every 1-block, so T^2 = (q - q^-1) T + 1.  At size 3 or less a word
    span fills up after a few products whatever is skipped; these spans
    are large enough that leaving out a product that is not in the span
    changes the pivots."""
    n = draw(st.integers(4, 6))
    blocks, i = [], 0
    while i < n:
        size = draw(st.integers(1, min(2, n - i)))
        blocks.append(range(i, i + size))
        i += size
    gens = []
    for _ in range(draw(st.integers(2, 3))):
        t = Mat(n)
        for block in blocks:
            kind = draw(st.sampled_from(["hecke", "q", "-q^-1"] if len(block) == 2 else ["q", "-q^-1"]))
            if kind == "hecke":
                i, j = block
                t.set(i, j, as_ratfunc(1))
                t.set(j, i, as_ratfunc(1))
                t.set(j, j, Q - QINV)
            else:
                for i in block:
                    t.set(i, i, Q if kind == "q" else -QINV)
        gens.append(t)
    return gens, n


@st.composite
def _tensor_space_generators(draw):
    """The phiP generators of R_k on (C^1 + C^1)^k or (C^1 + C^2)^k,
    k = 2 or 3, in a drawn order, at u = (0, 1) or (1, 3), where an
    early pivot lead is 1 - q^2.  At k = 3 their word spans have standard
    words of length 3 and more that end in a pair whose reverse reduced
    to zero (X1 T2 = T2 X1), so a rule that leaves out a word without a
    dependent suffix changes the pivots."""
    asg = phiP(draw(st.integers(2, 3)), GradedBasis(draw(st.sampled_from([(1, 1), (1, 2)]))),
               draw(st.sampled_from([U01, U13])))
    gens = draw(st.permutations(list(asg.values())))
    return gens, gens[0].n


@st.composite
def _with_a_dependent_letter(draw, generators):
    """A draw of generators with a zero matrix, the identity or a copy of
    one of them put in at a drawn place, so that a one-letter word
    reduces to zero and every word ending in it is left out."""
    gens, n = draw(generators)
    extra = draw(st.sampled_from(["zero", "identity", "repeat"]))
    g = Mat(n) if extra == "zero" else Mat.identity(n) if extra == "identity" else draw(st.sampled_from(gens))
    gens.insert(draw(st.integers(0, len(gens))), g)
    return gens, n


@st.composite
def _products_to_form(draw):
    """A generator g of size n from _small_generators or
    _tensor_space_generators, a flat vector of n x n entries, none zero,
    and the positions (i, j) where (vec as a matrix) @ g must cancel.  A
    row of the vector either holds up to three drawn entries or is made
    to cancel: for a column j of g with nonzero entries at rows k1 and
    k2, it holds g[k2][j] at k1 and -g[k1][j] at k2, so its entry in
    column j is g[k2][j] g[k1][j] - g[k1][j] g[k2][j] = 0."""
    gens, n = draw(st.one_of(_small_generators(), _tensor_space_generators()))
    g = draw(st.sampled_from(gens))
    columns = [(j, sorted(col)) for j, col in g.transpose().rows.items() if len(col) >= 2]
    vec, cancelled = {}, []
    for i in draw(st.lists(st.integers(0, n - 1), unique=True, max_size=3)) if n else []:
        if columns and draw(st.booleans()):
            j, ks = draw(st.sampled_from(columns))
            k1, k2 = draw(st.lists(st.sampled_from(ks), min_size=2, max_size=2, unique=True))
            vec[i * n + k1], vec[i * n + k2] = g.get(k2, j), -g.get(k1, j)
            cancelled.append(i * n + j)
        else:
            for k in draw(st.lists(st.integers(0, n - 1), unique=True, max_size=3)):
                v = draw(st.sampled_from(POOL))
                if not v.is_zero():
                    vec[i * n + k] = v
    return vec, g, n, cancelled


def _matmul_product(vec, g, n):
    """The flattened (vec as an n x n matrix) @ g, through a Mat and @."""
    rows = {}
    for idx, v in vec.items():
        rows.setdefault(idx // n, {})[idx % n] = v
    prod = Mat(n, rows) @ g
    return {i * n + j: v for i, r in prod.rows.items() for j, v in r.items()}


@settings(deadline=None, max_examples=200)
@given(_products_to_form())
def test_flat_product_is_the_matrix_product(case):
    vec, g, n, cancelled = case
    out = linalg._rational_product(vec, g, n)
    assert out == _matmul_product(vec, g, n)
    # a stored zero would be RowSpan's lead min(vec), a false pivot
    assert not any(v.is_zero() for v in out.values())
    assert not any(idx in out for idx in cancelled)


def _plain_saturate(span, identity, generators, product, n):
    """The breadth-first saturation of _saturate without its rule: every
    basis vector times every generator, each product formed.  Returns the
    words whose product reduced to zero, in the order met."""
    basis, words, dependent = [span.insert(identity)], [()], []
    i = 0
    while i < len(basis):
        for t, g in enumerate(generators):
            vec = span.insert(product(basis[i], g, n))
            word = words[i] + (t,)
            if vec:
                basis.append(vec)
                words.append(word)
            else:
                dependent.append(word)
        i += 1
    return dependent


def _plain_span_dimension(span, *args):
    """_plain_saturate with _saturate's signature and result."""
    _plain_saturate(span, *args)
    return len(span)


def _tuple_rule_saturate(span, start, generators, product, n):
    """_saturate with its rule kept on tuples, as before suffix links: each
    basis vector's word, the set of words whose product reduced to zero,
    and a candidate left out when one of its proper suffixes is in it."""
    basis, words, dependent = [span.insert(start)], [()], set()
    i = 0
    while i < len(basis):
        w = words[i]
        for t, g in enumerate(generators):
            if any(w[j:] + (t,) in dependent for j in range(1, len(w) + 1)):
                continue
            vec = span.insert(product(basis[i], g, n))
            if vec:
                basis.append(vec)
                words.append(w + (t,))
            else:
                dependent.add(w + (t,))
        i += 1
    return len(span)


def _path(gens, n):
    """(span, start, generators, product) for the word span of gens."""
    return RowSpan(), {i * (n + 1): RF_ONE for i in range(n)}, gens, linalg._rational_product


def _formed_products(gens, n, saturate):
    """The products saturate forms, in order, as (vector, generator
    index)."""
    span, start, generators, product = _path(gens, n)
    formed = []

    def recording(vec, letter, n):
        t, g = letter
        formed.append((vec, t))
        return product(vec, g, n)

    saturate(span, start, list(enumerate(generators)), recording, n)
    return formed


def _saturated_pivots(gens, n, saturate):
    """The pivots saturate finds."""
    span, *args = _path(gens, n)
    saturate(span, *args, n)
    return span.pivots


def _check_span_paths(gens, n):
    assert span_dimension(gens, n) == _plain_span_dimension(*_path(gens, n), n)
    # the words left out change no pivot
    assert _saturated_pivots(gens, n, linalg._saturate) == _saturated_pivots(gens, n, _plain_saturate)


@settings(deadline=None, max_examples=100)
@given(_small_generators())
def test_span_dimension_matches_rational_path(case):
    _check_span_paths(*case)


@settings(deadline=None, max_examples=100)
@given(_commuting_hecke_generators())
def test_commuting_hecke_spans_match_rational_path(case):
    _check_span_paths(*case)


@settings(deadline=None, max_examples=100)
@given(st.one_of(
    _with_a_dependent_letter(_small_generators()),
    _with_a_dependent_letter(_commuting_hecke_generators()),
    _with_a_dependent_letter(_tensor_space_generators()),
))
def test_saturate_keeps_the_pivots_of_the_plain_saturation(case):
    _check_span_paths(*case)


@settings(deadline=None, max_examples=100)
@given(st.one_of(
    _with_a_dependent_letter(_small_generators()),
    _with_a_dependent_letter(_commuting_hecke_generators()),
    _with_a_dependent_letter(_tensor_space_generators()),
))
def test_suffix_links_form_the_products_of_the_tuple_rule(case):
    gens, n = case
    assert _formed_products(gens, n, linalg._saturate) == _formed_products(gens, n, _tuple_rule_saturate)


def _spans(monkeypatch, generators, n):
    """Run span_dimension; return its dimension, the spans it saturated
    and, for each RowSpan.reduce call, the span it reduced in."""
    spans, calls = [], []
    saturate, reduce = linalg._saturate, RowSpan.reduce

    def recording_saturate(span, *args):
        spans.append(span)
        return saturate(span, *args)

    def counting_reduce(self, vec):
        calls.append(self)
        return reduce(self, vec)

    monkeypatch.setattr(linalg, "_saturate", recording_saturate)
    monkeypatch.setattr(RowSpan, "reduce", counting_reduce)
    return span_dimension(generators, n), spans, calls


def test_restart_on_a_non_unit_pivot(monkeypatch):
    # u = (1, 3) puts 1 - q^2 at the lead of an early pivot, which the one
    # Q(q) path normalises like any other lead
    asg = phiP(4, GradedBasis((1, 1)), U13)
    gens = [asg[name] for name in sorted(asg)]
    dim, spans, _ = _spans(monkeypatch, gens, gens[0].n)
    assert [type(s) for s in spans] == [RowSpan]
    assert dim == 70
    monkeypatch.undo()
    assert verify_phiP(4, GradedBasis((1, 1)), (1, 3))["centralizer"]["dimension"] == 70
    assert predicted_centralizer_dimension(4, GradedBasis((1, 1))) == 70


# ring: every pivot lead is a unit +-q^a; restart: an early lead is 1 - q^2
@pytest.mark.parametrize("u", [U01, U13], ids=["ring", "restart"])
def test_skip_keeps_the_pivots(monkeypatch, u):
    asg = phiP(4, GradedBasis((1, 1)), u)
    gens = [asg[name] for name in sorted(asg)]
    dim, spans, calls = _spans(monkeypatch, gens, gens[0].n)
    monkeypatch.undo()
    monkeypatch.setattr(linalg, "_saturate", _plain_span_dimension)
    dim_all, spans_all, calls_all = _spans(monkeypatch, gens, gens[0].n)
    assert dim == dim_all == 70
    assert [s.pivots for s in spans] == [s.pivots for s in spans_all]
    # RowSpan.reduce calls with the words left out and with every product
    # formed
    assert (len(calls), len(calls_all)) == (88, 281)


def test_two_letter_dependent_words():
    # the products a saturation that forms every product finds in the span
    asg = phiP(4, GradedBasis((1, 1)), U01)
    names = sorted(asg)
    assert names == ["T1", "T2", "T3", "X1"]
    n = asg["T1"].n
    identity = {i * (n + 1): RF_ONE for i in range(n)}
    dependent = _plain_saturate(RowSpan(), identity, [asg[name] for name in names],
                                linalg._rational_product, n)
    pairs = {tuple(names[t] for t in word) for word in dependent if len(word) == 2}
    squares = {(name, name) for name in names}
    # every generator is quadratic; T1 T3 = T3 T1 and X1 commutes with T2
    # and T3, so the later of each commuting pair is dependent; T1 T2,
    # T2 T3 and X1 T1 do not commute
    assert pairs == squares | {("T3", "T1"), ("X1", "T2"), ("X1", "T3")}


def test_skip_needs_a_quadratic_generator():
    # 1, q, q^2 are distinct, so g^2 is not in the span of 1 and g
    g = Mat.diagonal([1, Q, Q * Q])
    assert span_dimension([g], 3) == 3
    assert _saturated_pivots([g], 3, linalg._saturate) == _saturated_pivots([g], 3, _plain_saturate)


def _quadratic(g):
    """Whether the saturation finds g g, or g itself, in the span of
    smaller words, i.e. g^2 = alpha g + beta for some scalars."""
    identity = {i * (g.n + 1): RF_ONE for i in range(g.n)}
    dependent = _plain_saturate(RowSpan(), identity, [g], linalg._rational_product, g.n)
    return (0,) in dependent or (0, 0) in dependent


def test_square_reduces_to_zero_iff_quadratic():
    asg = phiP(3, GradedBasis((1, 1)), U13)
    accepted = [
        asg["T1"],
        asg["T2"],
        asg["X1"],
        phiP(3, GradedBasis((1, 1)), U01)["X1"],  # diagonal, an idempotent
        Mat.diagonal([1, 3, 3]),  # (g - 1)(g - 3) = 0
        _hecke_block(3, 0, 2),
        Mat.identity(3).scale(Q + 1),  # these three: g itself reduces to zero
        Mat(3),
        Mat(0),
    ]
    assert all(_quadratic(g) for g in accepted)
    # every 2 x 2 matrix is quadratic (Cayley-Hamilton), so these have size 3
    rejected = [
        Mat.diagonal([1, Q, Q * Q]),
        Mat.from_dense([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),  # nilpotent of order 3
        Mat.from_dense([[0, 1, 0], [0, 0, 1], [1, 0, 0]]),  # a 3-cycle, g^3 = 1
    ]
    assert not any(_quadratic(g) for g in rejected)
    # a quadratic g spans 1 and g; the words left out keep every pivot
    assert [span_dimension([g], g.n) for g in accepted + rejected] == [2] * 6 + [1, 1, 0] + [3] * 3
    for g in accepted + rejected:
        assert _saturated_pivots([g], g.n, linalg._saturate) == _saturated_pivots([g], g.n, _plain_saturate)


def test_zero_size_span():
    assert span_dimension([Mat(0)], 0) == span_dimension([Mat(0)], 0, {}) == 0
    assert algebra_dimension({"T": Mat(0)}) == 0


def _products_formed(monkeypatch, run):
    """run() and the number of products it formed."""
    calls = []
    product = linalg._rational_product

    def counting(*args):
        calls.append(None)
        return product(*args)

    monkeypatch.setattr(linalg, "_rational_product", counting)
    result = run()
    monkeypatch.undo()
    return result, len(calls)


def test_products_formed_at_k6(monkeypatch):
    # schurweyl --m 1,1 --k 6 --u 0,1: 5,544 products with every one formed
    asg = phiP(6, GradedBasis((1, 1)), U01)
    assert _products_formed(monkeypatch, lambda: algebra_dimension(asg)) == (924, 988)


def test_centralizer_dimension_at_k7(monkeypatch):
    # 10,641 products with only the two-letter rules
    asg = phiP(7, GradedBasis((1, 1)), U01)
    assert _products_formed(monkeypatch, lambda: algebra_dimension(asg)) == (3432, 3558)
    assert predicted_centralizer_dimension(7, GradedBasis((1, 1))) == 3432


def _regular_dimensions(monkeypatch, k):
    """regular_dimension(k), the orbit of the identity element, and the
    n x n word span of the left-regular matrices, the oracle, each with
    the products it formed."""
    orbit = _products_formed(monkeypatch, lambda: regular_dimension(k))
    square = _products_formed(monkeypatch, lambda: algebra_dimension(left_regular_assignment(k)))
    return orbit, square


@pytest.mark.parametrize("k", [1, 2, 3])
def test_regular_dimension_orbit_matches_the_matrix_span(monkeypatch, k):
    orbit, square = _regular_dimensions(monkeypatch, k)
    assert orbit == square
    assert orbit[0] == rook_cardinality(k)


def test_regular_dimension_4(monkeypatch):
    assert _regular_dimensions(monkeypatch, 4) == ((209, 288), (209, 288))


def test_regular_dimension_5():
    assert regular_dimension(5) == rook_cardinality(5) == 1546


def test_orbit_paths_agree():
    # the orbit of the identity element, the same orbit with every product
    # formed, the orbit of a multiple of it that is not a Laurent
    # polynomial, and the identity element given with a zero entry
    asg = left_regular_assignment(3)
    gens = [asg[name] for name in sorted(asg)]
    n = gens[0].n
    e = enumerate_rook(3).index(PartialInjection.identity(3))
    transposes = [g.transpose() for g in gens]
    plain = _plain_span_dimension(RowSpan(), {e: RF_ONE}, transposes, linalg._rational_product, n)
    assert span_dimension(gens, n, {e: RF_ONE}) == plain == 34
    assert span_dimension(gens, n, {e: (Q + 1).inv()}) == 34
    assert span_dimension(gens, n, {e: RF_ONE, (e + 1) % n: RF_ZERO}) == 34


def test_orbit_rule_needs_an_injective_vector():
    # a e1 = e1, a e2 = e3 and b e1 = e2, so the orbit of e1 spans C^3;
    # but a e1 reduces to zero, so the rule leaves out a b e1 = e3.  It
    # is unsound here because (a - 1) e1 = 0: a -> a e1 is not injective.
    a = Mat.from_dense([[1, 0, 0], [0, 0, 0], [0, 1, 0]])
    b = Mat.from_dense([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    e1 = {0: RF_ONE}
    plain = RowSpan()
    _plain_saturate(plain, e1, [a.transpose(), b.transpose()], linalg._rational_product, 3)
    assert len(plain) == 3
    assert span_dimension([a, b], 3, e1) == 2
