"""Presentations as data: relation suites, generator-change maps, a
matrix verifier, and a word-span dimension oracle.

A word is a tuple of generator names (``"T1"``, ``"X1"``, ``"P2"``); a
linear combination maps words to coefficients in Q(q).  A relation
asserts lhs = rhs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import InvalidArgument
from .linalg import Mat, span_dimension
from .qfield import (
    Q,
    QINV,
    RF_ONE,
    RF_ZERO,
    as_ratfunc,
    quantum_factorial,
)

Word = tuple
LinComb = dict  # Word -> RatFunc

QDIFF = Q - QINV


def _accumulate(out: LinComb, terms) -> LinComb:
    """Add each (word, coefficient) pair of terms into out, dropping a
    word whose coefficient becomes zero."""
    for w, c in terms:
        cur = out.get(w, RF_ZERO) + c
        if cur.is_zero():
            out.pop(w, None)
        else:
            out[w] = cur
    return out


def lc(*terms) -> LinComb:
    """Build a linear combination from (coefficient, word) pairs."""
    return _accumulate({}, ((word, as_ratfunc(c)) for c, word in terms))


def lc_gen(name: str) -> LinComb:
    return {(name,): RF_ONE}


def lc_scalar(c) -> LinComb:
    c = as_ratfunc(c)
    return {} if c.is_zero() else {(): c}


def lc_add(a: LinComb, b: LinComb) -> LinComb:
    return _accumulate(dict(a), b.items())


def lc_scale(a: LinComb, c) -> LinComb:
    c = as_ratfunc(c)
    if c.is_zero():
        return {}
    return {w: c * v for w, v in a.items()}


def lc_sub(a: LinComb, b: LinComb) -> LinComb:
    return lc_add(a, lc_scale(b, -1))


def lc_mul(a: LinComb, b: LinComb) -> LinComb:
    return _accumulate(
        {}, ((wa + wb, ca * cb) for wa, ca in a.items() for wb, cb in b.items())
    )


def lc_prod(factors) -> LinComb:
    out = lc_scalar(1)
    for f in factors:
        out = lc_mul(out, f)
    return out


class Relation:
    """A named relation lhs = rhs between two linear combinations."""

    __slots__ = ("name", "lhs", "rhs")

    def __init__(self, name: str, lhs: LinComb, rhs: LinComb):
        self.name = name
        self.lhs = lhs
        self.rhs = rhs

    def __repr__(self):
        return f"Relation(name={self.name!r}, lhs={self.lhs!r}, rhs={self.rhs!r})"


def _quadratic(t: str) -> Relation:
    """The quadratic relation of the generator t: t t = (q - q^-1) t + 1."""
    return Relation(f"A1:{t}", lc((1, (t, t))), lc((QDIFF, (t,)), (1, ())))


def _braid(i: int) -> Relation:
    a, b = f"T{i}", f"T{i + 1}"
    return Relation(f"A2:T{i}T{i + 1}", lc((1, (a, b, a))), lc((1, (b, a, b))))


def _commute(tag: str, a: str, b: str) -> Relation:
    """The relation "tag:ab", a b = b a."""
    return Relation(f"{tag}:{a}{b}", lc((1, (a, b))), lc((1, (b, a))))


def _distant(i: int, j: int) -> Relation:
    return _commute("A3", f"T{i}", f"T{j}")


def _braid_suite(k: int):
    rels = [_quadratic(f"T{i}") for i in range(1, k)]
    rels += [_braid(i) for i in range(1, k - 1)]
    rels += [
        _distant(i, j)
        for i in range(1, k)
        for j in range(i + 2, k)
    ]
    return rels


def relations_rook(k: int):
    """The P/T presentation of the deformed rook monoid algebra.

    R5 is P_{i+1} = q P_i T_i^-1 P_i, written in the generators as
    q P_i (T_i - (q - q^-1)) P_i: the suite holds A1:T_i, by which
    T_i - (q - q^-1) is the inverse of T_i.  P_i P_i is left as it is,
    not reduced to P_i by R1, so a P_i that breaks R1 also shows in R5."""
    if k < 1:
        raise InvalidArgument("k must be >= 1")
    rels = _braid_suite(k)
    for i in range(1, k + 1):
        p = f"P{i}"
        rels.append(Relation(f"R1:P{i}", lc((1, (p, p))), lc((1, (p,)))))
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            rels.append(_commute("R2", f"P{i}", f"P{j}"))
    for i in range(1, k + 1):
        for j in range(i + 1, k):
            rels.append(_commute("R3", f"P{i}", f"T{j}"))
    for j in range(1, k):
        for i in range(j + 1, k + 1):
            rels.append(
                Relation(
                    f"R4:P{i}T{j}",
                    lc((1, (f"P{i}", f"T{j}"))),
                    lc((Q, (f"P{i}",))),
                )
            )
            rels.append(
                Relation(
                    f"R4:T{j}P{i}",
                    lc((1, (f"T{j}", f"P{i}"))),
                    lc((Q, (f"P{i}",))),
                )
            )
    for i in range(1, k):
        p, t_inv = lc_gen(f"P{i}"), lc((1, (f"T{i}",)), (-QDIFF, ()))
        rels.append(
            Relation(f"R5:P{i + 1}", lc_gen(f"P{i + 1}"), lc_scale(lc_prod([p, t_inv, p]), Q))
        )
    return rels


X2_WORD = ("T1", "X1", "T1")


def _x1_t1_braid(name: str) -> Relation:
    """X1 T1 X1 T1 = T1 X1 T1 X1."""
    return Relation(
        name, lc((1, ("X1", "T1", "X1", "T1"))), lc((1, ("T1", "X1", "T1", "X1")))
    )


def _x1_polynomial(u) -> LinComb:
    """The product of the factors X1 - u_i, in the order of u."""
    return lc_prod([lc((1, ("X1",)), (-ui, ())) for ui in u])


def relations_Ak_presentation(k: int):
    """The X1/T presentation of the same algebra."""
    if k < 2:
        raise InvalidArgument("this presentation needs k >= 2")
    rels = _braid_suite(k)
    rels += [_commute("B1", "X1", f"T{j}") for j in range(2, k)]
    rels.append(Relation("B2:X1^2", lc((1, ("X1", "X1"))), lc((1, ("X1",)))))
    rels.append(_x1_t1_braid("B3"))
    rels.append(Relation("B4", lc_prod(b4_factors()), {}))
    return rels


def b4_factors():
    """The four binomial factors of the quartic relation."""
    one_minus_x1 = lc((1, ()), (-1, ("X1",)))
    return [
        one_minus_x1,
        lc((1, ("T1",)), (-Q, ())),
        one_minus_x1,
        lc((1, ()), (-1, X2_WORD)),
    ]


def relations_affine(k: int):
    """The commuting-X / braid-T mixed presentation."""
    if k < 1:
        raise InvalidArgument("k must be >= 1")
    rels = _braid_suite(k)
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            rels.append(_commute("C4", f"X{i}", f"X{j}"))
    for i in range(1, k):
        rels.append(
            Relation(
                f"C5:X{i}T{i}",
                lc((1, (f"X{i}", f"T{i}"))),
                lc((1, (f"T{i}", f"X{i + 1}")), (-QDIFF, (f"X{i + 1}",))),
            )
        )
    if k >= 2:
        rels.append(_x1_t1_braid("C6"))
    for i in range(2, k + 1):
        ts = tuple(f"T{j}" for j in range(i - 1, 0, -1))
        rels.append(
            Relation(
                f"Cderived:X{i}",
                lc((1, (f"X{i}",))),
                lc((1, ts + ("X1",) + tuple(reversed(ts)))),
            )
        )
    return rels


def relations_cyclotomic(k: int, u):
    """Affine relations plus the degree-r polynomial relation on X1."""
    u = [as_ratfunc(x) for x in u]
    if not u:
        raise InvalidArgument("need at least one u parameter")
    rels = relations_affine(k)
    rels.append(Relation("cyclotomic:X1", _x1_polynomial(u), {}))
    return rels


def relations_A_algebra(k: int, u1, u2):
    """The two-parameter quotient presentation; the quadratic T relation
    is normalized to constant +1."""
    if k < 2:
        raise InvalidArgument("this presentation needs k >= 2")
    u1 = as_ratfunc(u1)
    u2 = as_ratfunc(u2)
    if u2.is_zero():
        raise InvalidArgument("u2 must be nonzero")
    rels = [
        _distant(i, j) for i in range(1, k) for j in range(i + 2, k)
    ]
    rels += [_braid(i) for i in range(1, k - 1)]
    rels += [_quadratic(f"T{i}") for i in range(1, k)]
    rels.append(_x1_t1_braid("Aalg4"))
    rels.append(Relation("Aalg5:quadraticX1", _x1_polynomial([u1, u2]), {}))
    rels.append(Relation("Aalg6", ideal_generator_p(u1, u2), {}))
    return rels


def ideal_generator_p(u1, u2) -> LinComb:
    """Generator of the quotient ideal, branching on u1 = 0."""
    u1 = as_ratfunc(u1)
    u2 = as_ratfunc(u2)
    x1_minus_u2 = lc((1, ("X1",)), (-u2, ()))
    x2 = lambda c: lc((1, X2_WORD), (c, ()))
    if not u1.is_zero():
        return lc_prod([x1_minus_u2, x2(-u2), x2(-Q * Q * u1)])
    t1_minus_q = lc((1, ("T1",)), (-Q, ()))
    return lc_prod([x1_minus_u2, t1_minus_q, x1_minus_u2, x2(-u2)])


def relations_Bprime(k: int):
    """The primed projector relations, in the letters P1, P2 and T_j:
    P1 commutes with T_j for j >= 2, P2 with T1, and both are idempotent.
    They are checked on projector_matrices, the matrix form of
    map_P_to_X."""
    if k < 2:
        raise InvalidArgument("needs k >= 2")
    rels = [_commute("B1'", "P1", f"T{j}") for j in range(2, k)]
    rels.append(Relation("B2':P1^2", lc((1, ("P1", "P1"))), lc((1, ("P1",)))))
    rels.append(_commute("B3'", "P2", "T1"))
    rels.append(Relation("B4':P2^2", lc((1, ("P2", "P2"))), lc((1, ("P2",)))))
    return rels


# -- generator-change maps ----------------------------------------------


def map_P_to_X(k: int) -> dict:
    """Substitution sending each projector generator to X1/T words."""
    subst = {"P1": lc((1, ()), (-1, ("X1",)))}
    for i in range(1, k):
        p = subst[f"P{i}"]
        subst[f"P{i + 1}"] = lc_scale(
            lc_sub(lc_prod([p, lc_gen(f"T{i}"), p]), lc_scale(p, QDIFF)), Q
        )
    return subst


def map_X_to_P(k: int) -> dict:
    """Substitution sending each commuting generator to P1/T words."""
    subst = {}
    for i in range(1, k + 1):
        ts = tuple(f"T{j}" for j in range(i - 1, 0, -1))
        rev = tuple(reversed(ts))
        subst[f"X{i}"] = lc(
            (1, ts + rev), (-1, ts + ("P1",) + rev)
        )
    return subst


def apply_substitution(comb: LinComb, subst: dict) -> LinComb:
    out: LinComb = {}
    for word, coeff in comb.items():
        term = lc_scalar(coeff)
        for letter in word:
            term = lc_mul(term, subst.get(letter, lc_gen(letter)))
        out = lc_add(out, term)
    return out


# -- verification ---------------------------------------------------------


def lincomb_specialize(comb: LinComb, q0) -> LinComb:
    """comb with each coefficient specialised at q0; a word whose
    coefficient is 0 there is dropped, so no matrix product is formed
    only to be scaled by 0."""
    q0 = Fraction(q0)
    values = {w: c.at(q0) for w, c in comb.items()}
    return {w: c for w, c in values.items() if not c.is_zero()}


def eval_lincomb(comb: LinComb, assignment: dict, n: int) -> Mat:
    """The n x n matrix of comb, each word the product of the assigned
    matrices of its letters (the empty word the identity).

    The sum starts from the first term, and a coefficient equal to 1 is
    not multiplied in; the empty combination is the zero matrix.  The
    result may be one of the assignment's own matrices (a one-letter word
    with coefficient 1), so a caller must not change it in place."""
    total = None
    for word, coeff in comb.items():
        for letter in word:
            if letter not in assignment:
                raise InvalidArgument(f"missing generator {letter}")
        m = assignment[word[0]] if word else Mat.identity(n)
        for letter in word[1:]:
            m = m @ assignment[letter]
        if coeff != RF_ONE:
            m = m.scale(coeff)
        total = m if total is None else total + m
    return Mat.zero(n) if total is None else total


def _nonzero_q(q0) -> Fraction:
    """q0 as a Fraction; InvalidArgument at q0 = 0, where q^-1 has no value."""
    q0 = Fraction(q0)
    if q0 == 0:
        raise InvalidArgument("q must be nonzero")
    return q0


def verify(assignment: dict, relations, q0=None) -> dict:
    """Evaluate every relation; PASS iff its two sides are equal matrices.
    The report is the dict the CLI prints: {"passed": bool, "relations":
    [{"name", "ok", "residual"}, ...]}, one entry per relation in order.

    Each relation is checked as written, against the assignment as given:
    a letter with no matrix raises InvalidArgument (eval_lincomb).

    Each side is evaluated on its own by eval_lincomb, and the relation
    holds iff the two matrices are equal (Mat.__eq__).  That is exactly
    the test that the residual lhs - rhs is the zero matrix: a Mat stores
    no zero entry and no empty row, so two matrices are equal iff their
    rows dicts are, and a false PASS is impossible (a stored zero could
    only make equal matrices compare unequal, a false FAIL).  Only a
    failing relation builds the residual, for its witness entry
    (Mat.first_entry_string); a passing one reports "0".

    At q0, the matrices and both sides' coefficients are specialised
    first, so the check is exact at q = q0; q0 = 0 raises
    InvalidArgument before anything is specialised."""
    if not assignment:
        raise InvalidArgument("empty assignment")
    n = next(iter(assignment.values())).n
    if q0 is not None:
        q0 = _nonzero_q(q0)
        assignment = {name: m.specialize(q0) for name, m in assignment.items()}
    results = []
    for rel in relations:
        lhs, rhs = rel.lhs, rel.rhs
        if q0 is not None:
            lhs, rhs = lincomb_specialize(lhs, q0), lincomb_specialize(rhs, q0)
        a, b = eval_lincomb(lhs, assignment, n), eval_lincomb(rhs, assignment, n)
        ok = a == b
        residual = "0" if ok else (a - b).first_entry_string()
        results.append({"name": rel.name, "ok": ok, "residual": residual})
    return {"passed": all(r["ok"] for r in results), "relations": results}


def algebra_dimension(assignment: dict) -> int:
    """Dimension of the span of all words in the assigned matrices."""
    if not assignment:
        raise InvalidArgument("empty assignment")
    gens = [assignment[name] for name in sorted(assignment)]
    return span_dimension(gens, gens[0].n)


# -- derived matrices ------------------------------------------------------


def projector_matrices(assignment: dict, k: int) -> dict:
    """Extend an X1/T assignment with the projector generators: the
    matrix form of map_P_to_X, which stays linear in k where expanding
    the words grows exponentially."""
    out = dict(assignment)
    n = assignment["X1"].n
    out["P1"] = Mat.identity(n) - assignment["X1"]
    for i in range(1, k):
        p, t = out[f"P{i}"], assignment[f"T{i}"]
        out[f"P{i + 1}"] = ((p @ t @ p) - p.scale(QDIFF)).scale(Q)
    return out


def tower_x_matrices(assignment: dict, k: int) -> dict:
    """Extend an X1/T assignment with X(i+1) = Ti Xi Ti."""
    out = dict(assignment)
    for i in range(1, k):
        t = assignment[f"T{i}"]
        out[f"X{i + 1}"] = t @ out[f"X{i}"] @ t
    return out


# -- semisimplicity predicates --------------------------------------------


def semisimple_cyclotomic(u, k: int, q0=None) -> bool:
    """True iff q^(2d) u_i != u_j for all |d| < k, i < j, and the quantum
    factorial of k is nonzero at the chosen q."""
    if not semisimple_rook(k, q0):
        return False
    u = [as_ratfunc(x) for x in u]
    qsq = Q * Q
    if q0 is not None:
        q0 = Fraction(q0)
        u = [x.specialize(q0) for x in u]
        qsq = q0**2
    return not any(
        qsq**d * u[a] == u[b]
        for a, b in combinations(range(len(u)), 2)
        for d in range(-k + 1, k)
    )


def semisimple_rook(k: int, q0=None) -> bool:
    """True iff the quantum factorial of k is nonzero at q."""
    if k < 1:
        raise InvalidArgument("k must be >= 1")
    if q0 is None:
        return True
    return quantum_factorial(k).specialize(_nonzero_q(q0)) != 0


def indecomposable_witness(k: int, u1) -> dict:
    """The upper-triangular 2x2 assignment showing non-semisimplicity at
    equal parameters: a single invariant line with no complement."""
    if k < 1:
        raise InvalidArgument("k must be >= 1")
    u1 = as_ratfunc(u1)
    x1 = Mat.from_dense([[u1, 1], [0, u1]])
    out = {"X1": x1}
    for i in range(1, k):
        out[f"T{i}"] = Mat.identity(2).scale(Q)
    return out
