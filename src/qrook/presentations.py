"""Presentations as data: relation suites, generator-change maps, a
matrix verifier, and a word-span dimension oracle.

A word is a tuple of generator names (``"T1"``, ``"X1"``, ``"P2"``,
inverse symbols like ``"T1^-1"``); a linear combination maps words to
coefficients in Q(q).  A relation asserts lhs = rhs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import InvalidArgument
from .linalg import Mat, hecke_inverse, span_dimension
from .qfield import (
    Q,
    QINV,
    RF_ONE,
    RF_ZERO,
    RatFunc,
    as_ratfunc,
    quantum_factorial,
    specialize,
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


@dataclass(frozen=True)
class Relation:
    name: str
    lhs: LinComb
    rhs: LinComb

    def residual_comb(self) -> LinComb:
        return lc_sub(self.lhs, self.rhs)


def _quadratic(i: int) -> Relation:
    t = f"T{i}"
    return Relation(f"A1:T{i}", lc((1, (t, t))), lc((QDIFF, (t,)), (1, ())))


def _braid(i: int) -> Relation:
    a, b = f"T{i}", f"T{i + 1}"
    return Relation(f"A2:T{i}T{i + 1}", lc((1, (a, b, a))), lc((1, (b, a, b))))


def _distant(i: int, j: int) -> Relation:
    a, b = f"T{i}", f"T{j}"
    return Relation(f"A3:T{i}T{j}", lc((1, (a, b))), lc((1, (b, a))))


def _braid_suite(k: int):
    rels = [_quadratic(i) for i in range(1, k)]
    rels += [_braid(i) for i in range(1, k - 1)]
    rels += [
        _distant(i, j)
        for i in range(1, k)
        for j in range(i + 2, k)
    ]
    return rels


def relations_rook(k: int):
    """The P/T presentation of the deformed rook monoid algebra."""
    if k < 1:
        raise InvalidArgument("k must be >= 1")
    rels = _braid_suite(k)
    for i in range(1, k + 1):
        p = f"P{i}"
        rels.append(Relation(f"R1:P{i}", lc((1, (p, p))), lc((1, (p,)))))
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            rels.append(
                Relation(
                    f"R2:P{i}P{j}",
                    lc((1, (f"P{i}", f"P{j}"))),
                    lc((1, (f"P{j}", f"P{i}"))),
                )
            )
    for i in range(1, k + 1):
        for j in range(i + 1, k):
            rels.append(
                Relation(
                    f"R3:P{i}T{j}",
                    lc((1, (f"P{i}", f"T{j}"))),
                    lc((1, (f"T{j}", f"P{i}"))),
                )
            )
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
        rels.append(
            Relation(
                f"R5:P{i + 1}",
                lc((1, (f"P{i + 1}",))),
                lc((Q, (f"P{i}", f"T{i}^-1", f"P{i}"))),
            )
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
    for j in range(2, k):
        rels.append(
            Relation(
                f"B1:X1T{j}",
                lc((1, ("X1", f"T{j}"))),
                lc((1, (f"T{j}", "X1"))),
            )
        )
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
            rels.append(
                Relation(
                    f"C4:X{i}X{j}",
                    lc((1, (f"X{i}", f"X{j}"))),
                    lc((1, (f"X{j}", f"X{i}"))),
                )
            )
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
    rels += [_quadratic(i) for i in range(1, k)]
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
    """The primed projector relations, written in the X1/T alphabet."""
    if k < 2:
        raise InvalidArgument("needs k >= 2")
    subst = map_P_to_X(2)
    p1, p2 = subst["P1"], subst["P2"]
    rels = []
    for j in range(2, k):
        rels.append(
            Relation(
                f"B1':P1T{j}",
                lc_mul(p1, lc_gen(f"T{j}")),
                lc_mul(lc_gen(f"T{j}"), p1),
            )
        )
    rels.append(Relation("B2':P1^2", lc_mul(p1, p1), p1))
    rels.append(
        Relation("B3':P2T1", lc_mul(p2, lc_gen("T1")), lc_mul(lc_gen("T1"), p2))
    )
    rels.append(Relation("B4':P2^2", lc_mul(p2, p2), p2))
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


@dataclass
class RelationResult:
    name: str
    ok: bool
    residual: str  # witness entry of the residual matrix; "0" on pass


@dataclass
class Report:
    results: list

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.results)

    def to_json(self):
        return {
            "passed": self.passed,
            "relations": [
                {"name": r.name, "ok": r.ok, "residual": r.residual}
                for r in self.results
            ],
        }


def lincomb_specialize(comb: LinComb, q0) -> LinComb:
    q0 = Fraction(q0)
    return {
        w: RatFunc.from_fraction(specialize(c, q0)) for w, c in comb.items()
    }


def _with_inverses(assignment: dict, relations, q0=None) -> dict:
    """Adjoin matrices for inverse symbols appearing in the relations.

    Inverses are computed via the quadratic relation rather than general
    matrix inversion; a generator whose matrix does not satisfy it raises
    NotInvertible.
    """
    qval = Q if q0 is None else RatFunc.from_fraction(Fraction(q0))
    qinv = qval.inv()
    out = dict(assignment)
    for rel in relations:
        for comb in (rel.lhs, rel.rhs):
            for word in comb:
                for letter in word:
                    if letter.endswith("^-1") and letter not in out:
                        base = letter[:-3]
                        if base not in out:
                            raise InvalidArgument(f"missing generator {base}")
                        out[letter] = hecke_inverse(out[base], qval, qinv)
    return out


def eval_lincomb(comb: LinComb, assignment: dict, n: int) -> Mat:
    total = Mat.zero(n)
    for word, coeff in comb.items():
        for letter in word:
            if letter not in assignment:
                raise InvalidArgument(f"missing generator {letter}")
        m = assignment[word[0]] if word else Mat.identity(n)
        for letter in word[1:]:
            m = m @ assignment[letter]
        total = total + m.scale(coeff)
    return total


def verify(assignment: dict, relations, q0=None) -> Report:
    """Evaluate every relation; PASS iff each residual is exactly zero."""
    if not assignment:
        raise InvalidArgument("empty assignment")
    n = next(iter(assignment.values())).n
    if q0 is not None:
        q0 = Fraction(q0)
        assignment = {name: m.specialize(q0) for name, m in assignment.items()}
    full = _with_inverses(assignment, relations, q0=q0)
    results = []
    for rel in relations:
        comb = rel.residual_comb()
        if q0 is not None:
            comb = lincomb_specialize(comb, q0)
        residual = eval_lincomb(comb, full, n)
        results.append(
            RelationResult(rel.name, residual.is_zero(), residual.first_entry_string())
        )
    return Report(results)


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
        u = [specialize(x, q0) for x in u]
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
    q0 = Fraction(q0)
    if q0 == 0:
        raise InvalidArgument("q must be nonzero")
    return specialize(quantum_factorial(k), q0) != 0


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
