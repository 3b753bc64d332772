"""Exact arithmetic in Q(q).

Polynomials in q with integer coefficients are stored as dense tuples
``(c0, c1, ...)`` with no trailing zeros; the zero polynomial is ``()``.
A :class:`RatFunc` is a canonical fraction of two such polynomials:
coprime over the rationals, jointly content-free, denominator with
positive leading coefficient.  Equality of field elements is equality of
representations.  Negative powers of q live in the fraction field
(q^-1 is stored as 1/q).

Canonicalisation uses integer arithmetic only.  After common powers of
q are cancelled, the heuristic gcd evaluates numerator and denominator
at one large integer, reads a candidate gcd off the digits of the
integer gcd, and keeps it only if it divides both exactly; those exact
divisions give the reduced parts.  The primitive pseudo-remainder
sequence is the fallback (a denominator c·q^e needs no gcd).
``+`` and ``*`` have one path each: (n1·d2 + n2·d1)/(d1·d2) and
(n1·n2)/(d1·d2), canonicalised.  A rational number is a constant
RatFunc: a point q0 is one, and so is a value specialised there.  A
``fractions.Fraction`` is read by its ``numerator`` and ``denominator``
(``RatFunc.from_fraction``, ``as_ratfunc``); this module never imports
``fractions``.

Every RatFunc is hash-consed (Filliatre & Conchon, "Type-safe modular
hash-consing", 2006): construction canonicalises (num, den) and returns
the one object that ``_INTERN`` holds for that pair, making a new object
only for a value not seen before.  Each object carries a serial number
``sid`` from one counter, so serials are never reused (unlike ``id()``).
``==`` tests identity first and then compares values; ``hash`` is the
value's hash, so an integer constant hashes like the int it equals.

Sums and products of two RatFuncs are memoised: ``+`` looks its operands
up in ``_SUMS`` and ``*`` in ``_PRODUCTS``, keyed on the serial pair
``(a.sid, b.sid)``.  Seminormal matrices are built from a few box
contents, so a relation suite repeats the same few field operations tens
of thousands of times.  A hit is exact: every RatFunc is canonical and
immutable (it has ``__slots__`` and only ``__new__`` assigns ``num``,
``den`` and ``sid``), and a serial names one object, so equal keys mean
the same operands and the stored result is the value the operation would
compute again.  ``linalg`` probes the two tables itself before it calls an
operator: ``Mat.__matmul__``, ``Mat.__add__`` and ``Mat.scale``, and in
word-span saturation ``RowSpan._subtract``, ``RowSpan._normalise`` and
``_rational_product``.  It imports them by name, so they are only ever
cleared in place, never rebound; tests/test_hygiene.py checks that
statically for all four tables.
Each table, ``_INTERN`` included, is emptied once it holds
``MEMO_LIMIT`` entries, which bounds its memory; ``_store`` is the one
place that stores into a table, and applies that rule.  Emptying a memo table
empties ``_INTERN`` too, which would otherwise keep alive every result
the memo table let go of.  After ``_INTERN`` is emptied one value can
have two objects: that costs memo misses, never a wrong answer, because
the two have distinct serials and equal values.  Operands that are not
RatFuncs (ints, Fractions, strings) bypass the tables.

Specialisation is memoised the same way: ``x.at(q0)``, the one
specialisation, returns the constant RatFunc x(q0) from ``_AT``, keyed on
the serial pair ``(x.sid, q0.sid)``.  A miss evaluates numerator and
denominator by integer Horner (``poly_eval``) at q0 = n/b and builds one
canonical constant.  ``Mat.specialize`` and
``presentations.lincomb_specialize`` both go through it, so each distinct
value is specialised once per process.  ``_AT`` is bounded by
``MEMO_LIMIT`` and emptied with ``_INTERN`` by the same rule; a pole is
raised before anything is stored.
"""

from __future__ import annotations

import functools
import itertools
import re
from math import gcd

from .errors import DivisionByZero, InvalidArgument, PoleAtPoint

IntPoly = tuple  # dense coefficient tuple, index = exponent

P_ZERO: IntPoly = ()
P_ONE: IntPoly = (1,)


def poly_trim(c):
    if isinstance(c, tuple) and (not c or c[-1]):
        return c
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return poly_trim(out)


def poly_neg(a):
    return tuple(-x for x in a)


def poly_mul(a, b):
    if not a or not b:
        return P_ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return tuple(out) if out[-1] else poly_trim(out)


def poly_content(a):
    return gcd(*a)


def poly_valuation(a):
    """Index of the lowest nonzero coefficient (0 for the zero poly)."""
    for i, x in enumerate(a):
        if x:
            return i
    return 0


def poly_shift(a, e):
    """Multiply by q^e (e >= 0) or divide exactly by q^-e."""
    if not a:
        return P_ZERO
    if e >= 0:
        return (0,) * e + a
    if any(a[:-e]):
        raise InvalidArgument(f"polynomial is not divisible by q^{-e}")
    return a[-e:]


def poly_eval(a, n: int, b: int) -> int:
    """b^d·a(n/b) for d = deg a, by Horner's rule in integers: the sum of
    a_i n^i b^(d-i), so a(n/b) itself is this over b^d (0 for a = 0)."""
    acc, scale = 0, 1  # scale = b^i after i coefficients
    for c in reversed(a):
        acc = acc * n + c * scale
        scale *= b
    return acc


def _poly_quotient(a, b):
    """a / b for nonzero a and b by integer long division, or None unless
    b divides a with an integral quotient (stops at the first remainder)."""
    db = len(b) - 1
    n = len(a) - db
    if n <= 0:
        return None
    lb = b[-1]
    r = list(a)
    out = [0] * n
    for k in range(n - 1, -1, -1):
        c, m = divmod(r[k + db], lb)
        if m:
            return None
        if c:
            out[k] = c
            for i in range(db):
                r[k + i] -= c * b[i]
    return None if any(r[:db]) else tuple(out)


def poly_divexact(a, b):
    """Exact division of integer polynomials by integer long division.

    Raises InvalidArgument unless b divides a with an integral quotient."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    out = _poly_quotient(a, b) if a else P_ZERO
    if out is None:
        raise InvalidArgument("division is not exact over the integers")
    return out


def poly_primitive(a):
    """Primitive part with positive leading coefficient."""
    if not a:
        return P_ZERO
    c = poly_content(a)
    if a[-1] < 0:
        c = -c
    elif c == 1:
        return a
    return tuple(x // c for x in a)


def _poly_prem(a, b):
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a mod b, over Z."""
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    while len(r) > db:
        c = r.pop()
        r = [x * lb for x in r]
        s = len(r) - db
        for i in range(db):
            r[s + i] -= c * b[i]
        while r and not r[-1]:
            r.pop()
    return tuple(r)


def _poly_gcd_prs(a, b):
    """Primitive gcd of two nonzero primitive polynomials by the
    primitive pseudo-remainder sequence (Brown & Traub 1971)."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, poly_primitive(_poly_prem(a, b))
    return a


def _poly_gcd_heu(a, b):
    """(g, a/g, b/g) with g the primitive gcd of two polynomials of
    positive degree, by the heuristic gcd GCDHEU (Char, Geddes & Gonnet
    1989), or None when every evaluation point tried fails.

    Let m be the smaller of the largest absolute coefficients of a and b,
    and xi >= 2m + 2.  By Cauchy's bound a common root z has |z| < 1 + m,
    so a common factor E of positive degree has |E(xi)| > xi - 1 - m >=
    xi/2.  With c the common content of a and b, c·g(xi) divides
    gamma = gcd(a(xi), b(xi)), so gamma/c <= xi/2 proves g = 1.
    Otherwise let G have the symmetric xi-adic digits of gamma/c (each in
    (-xi/2, xi/2]) as coefficients, and h = G/cont(G).  If h divides a
    and b, then g = h·E and g(xi) divides G(xi) = cont(G)·h(xi), so E(xi)
    divides cont(G) <= xi/2: E is a unit and h = g.  The long divisions
    that check this give a/g and b/g.
    """
    # any xi >= 2m + 2 is sound; 2m + 29 (SymPy's start) needs fewer retries
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    c = gcd(*a, *b)
    for _ in range(6):  # six points, as GCDHEU tries
        ea = eb = 0
        for x in reversed(a):
            ea = ea * xi + x
        for x in reversed(b):
            eb = eb * xi + x
        gamma = gcd(ea, eb) // c
        if 2 * gamma <= xi:
            return P_ONE, a, b
        digits, half = [], (xi - 1) // 2
        while gamma:
            gamma, d = divmod(gamma + half, xi)
            digits.append(d - half)
        h = poly_primitive(tuple(digits))
        qa = _poly_quotient(a, h)
        qb = qa and _poly_quotient(b, h)
        if qb:
            return h, qa, qb
        xi = xi * 73794 // 27011  # GCDHEU's step, about 2.73 times larger
    return None


def _poly_gcd_shifted(a, b, v):
    """(g·q^v, a/(g·q^v), b/(g·q^v)) for two nonzero polynomials, where g
    is the primitive gcd (positive leading coefficient) of their
    q-valuation-stripped parts; v is at most either valuation.

    Integer arithmetic only: the gcd comes from the heuristic gcd, with
    the primitive pseudo-remainder sequence as the fallback when it fails.
    """
    va, vb = poly_valuation(a), poly_valuation(b)
    a, b = a[va:], b[vb:]
    found = (P_ONE, a, b) if len(a) == 1 or len(b) == 1 else _poly_gcd_heu(a, b)
    if found is None:
        g = _poly_gcd_prs(poly_primitive(a), poly_primitive(b))
        found = g, _poly_quotient(a, g), _poly_quotient(b, g)
    g, qa, qb = found
    return poly_shift(g, v), poly_shift(qa, va - v), poly_shift(qb, vb - v)


# an integer (ASCII digits) or any other single character that is not blank
_TOKEN_RE = re.compile(r"(\d+)|(\S)", re.ASCII)


def poly_to_string(a) -> str:
    """a in the grammar of ``RatFunc.from_string``, highest power first."""
    out = ""
    for e in range(len(a) - 1, -1, -1):
        c = a[e]
        if c:
            var = "" if e == 0 else "*q" if e == 1 else f"*q^{e}"
            body = var[1:] if var and abs(c) == 1 else f"{abs(c)}{var}"
            out += ("-" if c < 0 else "+" if out else "") + body
    return out or "0"


# A memo table or the intern table is emptied once it holds this many entries.
MEMO_LIMIT = 1 << 16
_SUMS: dict = {}
_PRODUCTS: dict = {}
_INTERN: dict = {}  # (num, den) -> the RatFunc of that canonical form
_AT: dict = {}  # (sid, q0.sid) -> the constant self(q0)
_SERIALS = itertools.count()

# the largest e that q^e may have in RatFunc.from_string: the value is a
# dense tuple of e + 1 coefficients, built before anything else checks it
MAX_EXPONENT = 10_000


def _store(table, key, value):
    """table[key] = value, returning value; a table that holds
    ``MEMO_LIMIT`` entries is emptied first, and ``_INTERN`` with it."""
    if len(table) >= MEMO_LIMIT:
        table.clear()
        _INTERN.clear()
    table[key] = value
    return value


def _memoised(table):
    """Memoise a binary RatFunc operation in ``table`` when both operands
    are RatFuncs (see the module docstring for why a hit is exact)."""

    def decorate(op):
        @functools.wraps(op)
        def wrapped(self, other):
            if not isinstance(other, RatFunc):
                return op(self, other)
            key = (self.sid, other.sid)
            out = table.get(key)
            if out is None:
                out = _store(table, key, op(self, other))
            return out

        return wrapped

    return decorate


class RatFunc:
    """A canonical element of the field Q(q)."""

    __slots__ = ("num", "den", "sid")

    def __new__(cls, num, den=P_ONE, _canonical=False):
        if not _canonical:
            num, den = _canonicalize(num, den)
        key = (num, den)
        self = _INTERN.get(key)
        if self is None:
            self = _store(_INTERN, key, object.__new__(cls))
            self.num = num
            self.den = den
            self.sid = next(_SERIALS)
        return self

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, which re-interns
        return RatFunc, (self.num, self.den)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "RatFunc":
        return RatFunc((n,) if n else P_ZERO, P_ONE, _canonical=True)

    @staticmethod
    def from_fraction(x) -> "RatFunc":
        """The constant n/d for an x with integer ``numerator`` n and
        ``denominator`` d, such as a Fraction (an int is n/1)."""
        n, d = getattr(x, "numerator", None), getattr(x, "denominator", None)
        if not (isinstance(n, int) and isinstance(d, int)):
            raise InvalidArgument(f"cannot coerce {x!r} to a rational function")
        return RatFunc((n,), (d,))

    @staticmethod
    def q_power(e: int) -> "RatFunc":
        if e >= 0:
            return RatFunc((0,) * e + (1,), P_ONE, _canonical=True)
        return RatFunc(P_ONE, (0,) * (-e) + (1,), _canonical=True)

    @staticmethod
    def from_string(s: str) -> "RatFunc":
        """The value of s in this grammar; whitespace may stand only between tokens:

            value   := operand ['/' operand]
            operand := '(' poly ')' | poly
            poly    := ['+' | '-'] term {('+' | '-') term}
            term    := int ['*'] 'q' ['^' int] | int | 'q' ['^' int]
            int     := ASCII digits

        An exponent above MAX_EXPONENT (10,000) is rejected before any
        coefficient tuple is built.
        """
        try:
            toks = [int(d) if d else c for d, c in _TOKEN_RE.findall(s)][::-1]
        except ValueError:  # more digits than int() converts
            raise InvalidArgument(f"integer too long in {s!r}") from None

        def take(tok):
            """Pop the next token if it is tok (any integer for int)."""
            if toks and (toks[-1] == tok or tok is int and type(toks[-1]) is int):
                return toks.pop()
            return None

        def fail(message=None):
            where = repr(toks[-1]) if toks else "end"
            raise InvalidArgument(message or f"cannot parse {s!r}: unexpected {where}")

        def term(sign):
            c, e = take(int), 0
            if c is None or take("*") or toks[-1:] == ["q"]:
                if not take("q"):
                    fail(f"stray sign in polynomial {s!r}" if c is None and sign else None)
                e = take(int) if take("^") else 1
                if e is None and toks[-1:] == ["-"]:
                    fail(f"negative exponent in {s!r}: write q^-e as 1/q^e")
                if e is None:
                    fail()
                if e > MAX_EXPONENT:
                    fail(f"exponent too large in {s!r}: q^e needs e <= {MAX_EXPONENT}")
            c = 1 if c is None else c
            return (0,) * e + (-c if sign == "-" else c,)

        def operand():
            paren = take("(")
            out = poly_trim(term(take("+") or take("-")))
            while sign := take("+") or take("-"):
                out = poly_add(out, term(sign))
            if paren and not take(")"):
                fail()
            return out

        num = operand()
        den = operand() if take("/") else P_ONE
        if toks:
            fail()
        if not den:
            raise InvalidArgument(f"zero denominator in {s!r}")
        return RatFunc(num, den)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self.num == P_ZERO

    # -- field operations ----------------------------------------------

    @_memoised(_SUMS)
    def __add__(self, other):
        if not isinstance(other, RatFunc):
            other = as_ratfunc(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        num = poly_add(poly_mul(self.num, other.den), poly_mul(other.num, self.den))
        return RatFunc(num, poly_mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(poly_neg(self.num), self.den, _canonical=True)

    def __sub__(self, other):
        return self + (-as_ratfunc(other))

    def __rsub__(self, other):
        return as_ratfunc(other) + (-self)

    @_memoised(_PRODUCTS)
    def __mul__(self, other):
        if not isinstance(other, RatFunc):
            other = as_ratfunc(other)
        if not self.num or not other.num:
            return RF_ZERO
        return RatFunc(poly_mul(self.num, other.num), poly_mul(self.den, other.den))

    __rmul__ = __mul__

    def inv(self) -> "RatFunc":
        if self.is_zero():
            raise DivisionByZero("cannot invert zero")
        num, den = self.den, self.num
        if den[-1] < 0:
            num, den = poly_neg(num), poly_neg(den)
        return RatFunc(num, den, _canonical=True)

    def __truediv__(self, other):
        return self * as_ratfunc(other).inv()

    def __rtruediv__(self, other):
        return as_ratfunc(other) * self.inv()

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        out = RF_ONE
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- misc ------------------------------------------------------------

    def at(self, q0) -> "RatFunc":
        """self(q0) as a constant RatFunc, for a constant q0 of any type
        as_ratfunc reads, memoised in ``_AT``; a pole raises PoleAtPoint
        and stores nothing."""
        q0 = as_ratfunc(q0)
        key = (self.sid, q0.sid)
        out = _AT.get(key)
        if out is None:
            if len(q0.num) > 1 or len(q0.den) > 1:
                raise InvalidArgument(f"cannot specialise at q={q0}: it is not a constant")
            n, b = q0.num[0] if q0.num else 0, q0.den[0]
            num, den = poly_eval(self.num, n, b), poly_eval(self.den, n, b)
            if not den:
                raise PoleAtPoint(f"denominator vanishes at q={n if b == 1 else f'{n}/{b}'}")
            # num/den = b^(deg num - deg den) · self(q0)
            e = len(self.den) - len(self.num)
            if e >= 0:
                num *= b**e
            else:
                den *= b**-e
            out = _store(_AT, key, RatFunc((num,), (den,)))
        return out

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, int):
            other = RatFunc.from_int(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # equal to hash(n) for the integer constant n, since it == n
        if self.den == P_ONE and len(self.num) < 2:
            return hash(self.num[0] if self.num else 0)
        return hash((self.num, self.den))

    def __str__(self):
        if self.den == P_ONE:
            return poly_to_string(self.num)
        return f"({poly_to_string(self.num)})/({poly_to_string(self.den)})"

    __repr__ = __str__


def _canonicalize(num, den):
    num = poly_trim(num)
    den = poly_trim(den)
    if den == P_ZERO:
        raise DivisionByZero("zero denominator")
    if num == P_ZERO:
        return P_ZERO, P_ONE
    # cancel common powers of q
    v = min(poly_valuation(num), poly_valuation(den))
    if v:
        num = poly_shift(num, -v)
        den = poly_shift(den, -v)
    # a denominator c·q^e needs no gcd: only a common power of q can cancel
    if len(den) > 1 and len(num) > 1 and any(den[:-1]):
        _, num, den = _poly_gcd_shifted(num, den, 0)
    cn = abs(poly_content(num))
    cd = abs(poly_content(den))
    c = gcd(cn, cd)
    if c > 1:
        num = tuple(x // c for x in num)
        den = tuple(x // c for x in den)
    if den[-1] < 0:
        num = poly_neg(num)
        den = poly_neg(den)
    return num, den


def as_ratfunc(x) -> RatFunc:
    """Coerce ints, strings and Fractions to RatFunc; a float raises."""
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, int):
        return RatFunc.from_int(x)
    if isinstance(x, str):
        return RatFunc.from_string(x)
    return RatFunc.from_fraction(x)


RF_ZERO = RatFunc(P_ZERO, P_ONE, _canonical=True)
RF_ONE = RatFunc(P_ONE, P_ONE, _canonical=True)
Q = RatFunc.q_power(1)
QINV = RatFunc.q_power(-1)


def quantum_integer(i: int) -> RatFunc:
    """1 + q^2 + ... + q^(2(i-1))."""
    if i < 1:
        raise InvalidArgument("quantum integer needs i >= 1")
    coeffs = [0] * (2 * (i - 1) + 1)
    for j in range(i):
        coeffs[2 * j] = 1
    return RatFunc(poly_trim(coeffs), P_ONE, _canonical=True)


def quantum_factorial(k: int) -> RatFunc:
    """[1][2]...[k]; the empty product for k = 0."""
    if k < 0:
        raise InvalidArgument("quantum factorial needs k >= 0")
    out = RF_ONE
    for i in range(1, k + 1):
        out = out * quantum_integer(i)
    return out
