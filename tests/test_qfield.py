import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from qrook import qfield
from qrook.errors import DivisionByZero, InvalidArgument, PoleAtPoint
from qrook.qfield import (
    Q,
    QINV,
    RF_ONE,
    RF_ZERO,
    RatFunc,
    _poly_gcd_prs,
    _poly_gcd_shifted,
    as_ratfunc,
    poly_add,
    poly_divexact,
    poly_eval,
    poly_mul,
    poly_primitive,
    poly_shift,
    poly_trim,
    quantum_factorial,
    quantum_integer,
    specialize,
)


def test_add_q_and_q_inverse():
    out = Q + QINV
    assert out == RatFunc((1, 0, 1), (0, 1))
    assert str(out) == "(q^2+1)/(q)"


def test_mul_qdiff_by_q():
    assert (Q - QINV) * Q == RatFunc((-1, 0, 1))
    assert str((Q - QINV) * Q) == "q^2-1"


def test_inv_swaps_and_renormalizes():
    a = RatFunc((1, 0, 1), (0, 1))  # (q^2+1)/q
    assert a.inv() == RatFunc((0, 1), (1, 0, 1))
    assert str(a.inv()) == "(q)/(q^2+1)"


def test_inv_zero_raises():
    with pytest.raises(DivisionByZero):
        RF_ZERO.inv()


def test_quantum_integers():
    assert quantum_integer(1) == RF_ONE
    assert quantum_integer(2) == RatFunc((1, 0, 1))
    assert quantum_integer(3) == RatFunc((1, 0, 1, 0, 1))
    with pytest.raises(InvalidArgument):
        quantum_integer(0)


def test_quantum_factorial():
    assert quantum_factorial(0) == RF_ONE
    assert quantum_factorial(2) == RatFunc((1, 0, 1))
    assert quantum_factorial(3) == RatFunc((1, 0, 2, 0, 2, 0, 1))


def test_specialize_values():
    assert specialize(quantum_factorial(2), Fraction(1)) == 2
    assert specialize(Q - QINV, Fraction(1)) == 0
    with pytest.raises(PoleAtPoint):
        specialize(RatFunc((1,), (-1, 1)), Fraction(1))  # 1/(q-1) at q=1
    with pytest.raises(PoleAtPoint):
        specialize(RatFunc((1,), (-1, 2)), Fraction(1, 2))  # 1/(2q-1) at q=1/2
    assert specialize(RatFunc((1,), (-1, 2)), Fraction(-3, 2)) == Fraction(-1, 4)


def _poly_eval_fraction_horner(a, x):
    """The reference: Horner's rule with a Fraction accumulator."""
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


@given(
    st.lists(st.integers(-(10**12), 10**12), max_size=9).map(tuple),
    st.one_of(st.integers(-30, 30), st.fractions(max_denominator=60)),
)
@example((), Fraction(3, 4))
@example((5, 0, -2), 0)
@example((0, 0, 1), Fraction(-7, 3))
@example((1, 2, 0), Fraction(1, 2))  # a zero leading coefficient
def test_poly_eval_matches_fraction_horner(a, x):
    x = Fraction(x)
    got = poly_eval(a, x)
    assert type(got) is Fraction
    assert got == _poly_eval_fraction_horner(a, x)


def test_string_round_trip():
    for s in ["q^2-1", "(q^2+1)/(q)", "-q", "3", "(q^4-2*q^2+1)/(q^3)"]:
        assert str(RatFunc.from_string(s)) == s


def test_coercions():
    assert as_ratfunc(5) == RatFunc((5,))
    assert as_ratfunc(Fraction(3, 2)) == RatFunc((3,), (2,))
    assert as_ratfunc("2*q^2") == Q * Q * 2
    with pytest.raises(InvalidArgument):
        as_ratfunc(1.5)


def test_gcd_cancellation():
    # (q^3+q)/(q^2+1) reduces to q
    assert RatFunc((0, 1, 0, 1), (1, 0, 1)) == Q


_polys = st.lists(st.integers(-4, 4), min_size=1, max_size=4).map(tuple)


def _ratfuncs():
    return st.builds(
        lambda n, d: RatFunc(n, d),
        _polys,
        _polys.filter(lambda p: any(p)),
    )


@given(_ratfuncs(), _ratfuncs())
def test_add_commutes_bitwise(a, b):
    x, y = a + b, b + a
    assert x.num == y.num and x.den == y.den


@given(_ratfuncs(), _ratfuncs(), _ratfuncs())
def test_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(_ratfuncs().filter(lambda a: not a.is_zero()))
def test_inverse_law(a):
    assert a * a.inv() == RF_ONE
    assert a + (-a) == RF_ZERO


@given(_ratfuncs(), _ratfuncs(), st.integers(2, 7))
def test_specialize_is_homomorphism(a, b, q0):
    q0 = Fraction(q0)
    try:
        va, vb = specialize(a, q0), specialize(b, q0)
    except PoleAtPoint:
        return
    assert specialize(a + b, q0) == va + vb
    assert specialize(a * b, q0) == va * vb


@pytest.mark.parametrize("k", range(9))
def test_quantum_factorial_nonzero(k):
    assert not quantum_factorial(k).is_zero()


@given(_ratfuncs())
def test_round_trip_random(a):
    assert RatFunc.from_string(str(a)) == a


def test_poly_shift_rejects_inexact_division():
    assert poly_shift((0, 0, 3), -2) == (3,)
    with pytest.raises(InvalidArgument):
        poly_shift((1, 0, 3), -1)


def test_poly_divexact():
    assert poly_divexact((-1, 0, 1), (1, 1)) == (-1, 1)  # (q^2-1)/(q+1)
    assert poly_divexact((), (1, 1)) == ()
    with pytest.raises(InvalidArgument):
        poly_divexact((1, 0, 1), (1, 1))  # remainder 2
    with pytest.raises(InvalidArgument):
        poly_divexact((1, 1), (2,))  # exact over Q, quotient not integral
    with pytest.raises(InvalidArgument):
        poly_divexact((1,), (1, 1))  # divisor of higher degree
    with pytest.raises(DivisionByZero):
        poly_divexact((1, 1), ())


# A prime far larger than any coefficient the other strategies draw:
# leading coefficients that are multiples of it make the pseudo-remainder
# sequence carry large integers.
BIG_PRIME = (1 << 61) - 1


@pytest.mark.parametrize("lead", [1, BIG_PRIME, -2 * BIG_PRIME])
def test_gcd_with_leading_coefficient_divisible_by_prime(lead):
    g = (1, 1)
    a = poly_mul(g, (1, 0, lead))
    b = poly_mul(g, (5, 1))
    assert _poly_gcd_shifted(a, b, 0) == (g, (1, 0, lead), (5, 1))
    assert _poly_gcd_shifted(poly_shift(a, 2), poly_shift(b, 1), 1) == (
        (0, 1, 1),
        (0, 1, 0, lead),
        (5, 1),
    )
    assert _poly_gcd_shifted((1, 0, lead), (5, 1), 0) == ((1,), (1, 0, lead), (5, 1))


_LEADS = st.one_of(
    st.integers(-4, 4).filter(bool),
    st.sampled_from([BIG_PRIME, -BIG_PRIME, 3 * BIG_PRIME]),
)


@st.composite
def _nonzero_polys(draw, max_size=4):
    low = draw(st.lists(st.integers(-4, 4), max_size=max_size - 1))
    return tuple(low) + (draw(_LEADS),)


_SCALES = st.sampled_from([1, 1, 2, -3, 6, BIG_PRIME])


@st.composite
def _planted(draw):
    """(g, x, y): x = s·g·a·q^i and y = t·g·b·q^j from _nonzero_polys, so
    x and y share the factor g and need not be primitive."""
    g, a, b = draw(_nonzero_polys()), draw(_nonzero_polys()), draw(_nonzero_polys())
    i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    s, t = draw(_SCALES), draw(_SCALES)
    x = poly_shift(tuple(s * c for c in poly_mul(g, a)), i)
    y = poly_shift(tuple(t * c for c in poly_mul(g, b)), j)
    return g, x, y


def _strip(a):
    """The primitive part of a with its factor q^valuation removed."""
    return poly_primitive(poly_shift(a, -qfield.poly_valuation(a)))


@settings(deadline=None)
@given(_planted(), st.data())
def test_gcd_matches_prs_on_planted_factors(planted, data):
    """The heuristic gcd and its quotients agree with the primitive
    pseudo-remainder sequence, for every v up to either valuation."""
    g, x, y = planted
    v = data.draw(st.integers(0, min(map(qfield.poly_valuation, (x, y)))))
    prs = _poly_gcd_prs(_strip(x), _strip(y))
    expected = poly_shift(prs, v)
    assert _poly_gcd_shifted(x, y, v) == (
        expected,
        poly_divexact(x, expected),
        poly_divexact(y, expected),
    )
    assert poly_divexact(prs, _strip(g))  # the planted factor divides it


def test_gcd_tries_a_larger_point_when_a_candidate_does_not_divide(monkeypatch):
    """At the first point xi = 2·6 + 29 = 41, gcd(x(41), y(41)) = 19·43 has
    the digits 20q - 3, which do not divide x; xi = 112 finds q + 2."""
    rejected = []
    real = qfield._poly_quotient
    monkeypatch.setattr(
        qfield, "_poly_quotient", lambda a, b: real(a, b) or rejected.append(b)
    )
    x, y = (-6, -1, 1), (2, 7, 5, 1)  # (q - 3)(q + 2), (q + 2)(q^2 + 3q + 1)
    assert qfield._poly_gcd_heu(x, y) == ((2, 1), (-3, 1), (1, 3, 1))
    assert rejected == [(-3, 20)]


@settings(deadline=None)
@given(_planted())
def test_prs_fallback_gives_the_same_canonical_form(planted):
    """With the heuristic made to fail, the PRS fallback yields the same
    canonical form."""
    _, x, y = planted
    r = RatFunc(x, y)
    with pytest.MonkeyPatch.context() as mp:
        consulted = []
        mp.setattr(qfield, "_poly_gcd_heu", lambda a, b: consulted.append(1))
        fallback = RatFunc(x, y)
        by_prs = qfield._poly_gcd_shifted(x, y, 0)
    assert (fallback.num, fallback.den) == (r.num, r.den)
    assert by_prs == _poly_gcd_shifted(x, y, 0)
    # a constant stripped part has gcd 1 without either algorithm
    assert consulted or min(len(_strip(x)), len(_strip(y))) == 1


def test_arithmetic_calls_the_gcd_through_the_module_global(monkeypatch):
    """perfbench's tracer counts gcds by replacing qfield._poly_gcd_shifted."""
    calls = []
    real = qfield._poly_gcd_shifted

    def counting(a, b, v):
        calls.append((a, b, v))
        return real(a, b, v)

    monkeypatch.setattr(qfield, "_poly_gcd_shifted", counting)
    _empty_tables()
    inverse = 1 / (Q + 1)  # a constant numerator needs no gcd
    assert not calls
    assert inverse + Q * inverse == RF_ONE  # q/(q + 1), then the sum
    assert calls == [((0, 1), (1, 1), 0), ((1, 2, 1), (1, 2, 1), 0)]


@settings(deadline=None)
@given(_planted())
def test_gcd_matches_sympy(planted):
    """The gcd (with v the lower valuation, so q^v is its q-part) is the
    primitive part of sympy.gcd, and its quotients multiply back."""
    sympy = pytest.importorskip("sympy")
    _, x, y = planted
    q = sympy.Symbol("q")
    expected = sympy.Poly(
        sympy.gcd(sympy.Poly(x[::-1], q), sympy.Poly(y[::-1], q)), q
    ).all_coeffs()[::-1]
    v = min(map(qfield.poly_valuation, (x, y)))
    g, qx, qy = _poly_gcd_shifted(x, y, v)
    assert g == poly_primitive(tuple(int(c) for c in expected))
    assert poly_mul(g, qx) == x and poly_mul(g, qy) == y


def _sympy_canonical(sympy, num, den):
    """sympy.cancel of num/den, scaled to RatFunc's convention: integer,
    jointly content-free, denominator with positive leading coefficient."""
    q = sympy.Symbol("q")

    def expr(c):
        return sum(x * q**i for i, x in enumerate(c))

    n, d = sympy.fraction(sympy.cancel(expr(num) / expr(den)))
    nc = sympy.Poly(n, q).all_coeffs()[::-1]
    dc = sympy.Poly(d, q).all_coeffs()[::-1]
    scale = sympy.ilcm(*[sympy.Rational(x).q for x in nc + dc])
    nc = [int(x * scale) for x in nc]
    dc = [int(x * scale) for x in dc]
    c = sympy.igcd(*(nc + dc))
    if dc[-1] < 0:
        c = -c
    return poly_trim(x // c for x in nc), poly_trim(x // c for x in dc)


@settings(deadline=None)
@given(_nonzero_polys(), _nonzero_polys(), _nonzero_polys(), st.integers(0, 2))
def test_canonical_form_matches_sympy(g, a, b, shift):
    """RatFunc(g*a, g*b) agrees with sympy.cancel, including inputs whose
    leading coefficients are multiples of a large prime."""
    sympy = pytest.importorskip("sympy")
    num = poly_shift(poly_mul(g, a), shift)
    den = poly_mul(g, b)
    r = RatFunc(num, den)
    assert (r.num, r.den) == _sympy_canonical(sympy, num, den)


@settings(deadline=None)
@given(
    _nonzero_polys(),
    st.integers(0, 40),
    _nonzero_polys(),
    st.integers(0, 40),
    st.sampled_from([1, 1, 2, -3]),
)
def test_q_power_denominators_match_sympy(n1, e1, n2, e2, c):
    """Sums and products of elements whose denominators are powers of q
    (times a coefficient c) agree with sympy.cancel."""
    sympy = pytest.importorskip("sympy")
    d1 = poly_shift((1,), e1)
    d2 = poly_shift((c,), e2)
    a, b = RatFunc(n1, d1), RatFunc(n2, d2)
    product = (poly_mul(n1, n2), poly_mul(d1, d2))
    total = (poly_add(poly_mul(n1, d2), poly_mul(n2, d1)), poly_mul(d1, d2))
    for r, (num, den) in ((a * b, product), (a + b, total), (b + a, total)):
        assert (r.num, r.den) == _sympy_canonical(sympy, num, den)


def test_q_power_fast_path_exact_cases():
    big = RatFunc((1,), poly_shift((1,), 1000))  # q^-1000
    assert big * RatFunc.q_power(1000) == RF_ONE
    assert (big + big).num == (2,) and (big + big).den == poly_shift((1,), 1000)
    assert RatFunc((0, 3), (0, 0, 1)) + RatFunc((0, -3), (0, 0, 1)) == RF_ZERO
    # (1 + q^2)/q + (q - 1) = (2q^2 - q + 1)/q
    assert QINV * (1 + Q * Q) + (Q - 1) == RatFunc((1, -1, 2), (0, 1))


@pytest.mark.parametrize("n", [0, 1, -1, 2, 10**30])
def test_integer_constants_hash_like_ints(n):
    r = RatFunc.from_int(n)
    assert r == n and hash(r) == hash(n)
    assert n in {r} and r in {n}


# -- the memo tables of + and * -------------------------------------------


def _empty_tables():
    qfield._SUMS.clear()
    qfield._PRODUCTS.clear()


def _fresh(op, a, b):
    """op(a, b) computed with both memo tables emptied first."""
    _empty_tables()
    return op(a, b)


_dens = st.one_of(
    _polys.filter(any),
    st.integers(0, 4).map(lambda e: poly_shift((1,), e)),  # q^e
    st.tuples(st.sampled_from([2, -3]), st.integers(0, 3)).map(
        lambda ce: poly_shift((ce[0],), ce[1])  # c*q^e, not monic
    ),
)


@settings(deadline=None)
@given(st.lists(_polys, min_size=2, max_size=2), st.lists(_dens, min_size=2, max_size=2))
def test_memo_agrees_with_emptied_tables(nums, dens):
    """Sums and products among operands that share numerators or
    denominators equal the values computed with the tables emptied first,
    both when first stored and when looked up again."""
    operands = [RatFunc(n, d) for n in nums for d in dens]
    pairs = [(a, b) for a in operands for b in operands]
    for op in (operator.add, operator.mul):
        stored = [op(a, b) for a, b in pairs]
        looked_up = [op(a, b) for a, b in pairs]
        for (a, b), x, y in zip(pairs, stored, looked_up):
            z = _fresh(op, a, b)
            assert (x.num, x.den) == (y.num, y.den) == (z.num, z.den)


def _gcd_degree_over_q(a, b):
    """Degree of gcd(a, b) over the rationals, for nonzero a and b, by
    Euclid's algorithm on Fraction coefficients."""
    a, b = [Fraction(x) for x in a], [Fraction(x) for x in b]
    while b:
        r = a[:]
        while len(r) >= len(b):
            c, s = r[-1] / b[-1], len(r) - len(b)
            for i, y in enumerate(b):
                r[s + i] -= c * y
            while r and not r[-1]:
                r.pop()
        a, b = b, r
    return len(a) - 1


@settings(deadline=None)
@given(st.lists(st.tuples(_polys, _dens), min_size=2, max_size=2))
def test_sums_and_products_are_canonical(operands):
    """a + b and a * b, for denominators q^e, c*q^e and general ones, are
    canonical by an oracle that does not use qfield's gcd: the value is
    right, the denominator's lead is positive, the joint content is 1,
    numerator and denominator share no factor q and are coprime over Q."""
    (n1, d1), (n2, d2) = operands
    a, b = RatFunc(n1, d1), RatFunc(n2, d2)
    product = (poly_mul(a.num, b.num), poly_mul(a.den, b.den))
    total = (
        poly_add(poly_mul(a.num, b.den), poly_mul(b.num, a.den)),
        poly_mul(a.den, b.den),
    )
    for op, (num, den) in ((operator.add, total), (operator.mul, product)):
        r = _fresh(op, a, b)
        assert poly_mul(r.num, den) == poly_mul(num, r.den)
        assert r.den and r.den[-1] > 0
        assert gcd(*r.num, *r.den) == 1
        if not r.num:
            assert r.den == (1,)
            continue
        assert r.num[0] or r.den[0]
        assert _gcd_degree_over_q(r.num, r.den) == 0


@pytest.mark.parametrize(
    "op,table", [(operator.add, "_SUMS"), (operator.mul, "_PRODUCTS")]
)
def test_repeated_operation_returns_the_stored_canonical_result(op, table):
    a = RatFunc((1, 2), (3, 0, 1))
    b = RatFunc((0, 1), (1, 1))
    first = _fresh(op, a, b)
    assert len(getattr(qfield, table)) == 1
    again = op(a, b)
    assert again is first
    canonical = RatFunc(again.num, again.den)
    assert (canonical.num, canonical.den) == (again.num, again.den)


def test_tables_stay_within_their_bound(monkeypatch):
    monkeypatch.setattr(qfield, "MEMO_LIMIT", 8)
    x = RatFunc((1, 1), (2, 0, 1))
    for i in range(1, 60):
        c = RatFunc((i, 1), (1, 0, i))
        assert x * c == RatFunc.__mul__.__wrapped__(x, c)
        assert x + c == RatFunc.__add__.__wrapped__(x, c)
        assert 0 < len(qfield._PRODUCTS) <= 8 and 0 < len(qfield._SUMS) <= 8


def test_non_ratfunc_operands_bypass_the_tables():
    rf = RatFunc((1, 1), (0, 2, 1))  # (q + 1)/(q^2 + 2q)
    _empty_tables()
    assert rf * 3 == RatFunc((3, 3), (0, 2, 1))
    assert 3 + rf == RatFunc((1, 7, 3), (0, 2, 1))
    assert rf + Fraction(1, 2) == RatFunc((2, 4, 1), (0, 4, 2))
    assert not qfield._SUMS and not qfield._PRODUCTS
