"""Acceptance suite: eleven numbered criteria, each verified to exact
(literal zero / exact integer) tolerance.  Every test prints a single
PASS/FAIL line; run with ``pytest -v`` (or ``-s``) to see them.
"""

import math
import time
from fractions import Fraction

from qrook.linalg import Mat
from qrook.presentations import (
    algebra_dimension,
    eval_lincomb,
    ideal_generator_p,
    indecomposable_witness,
    projector_matrices,
    relations_A_algebra,
    relations_Ak_presentation,
    relations_rook,
    semisimple_cyclotomic,
    semisimple_rook,
    tower_x_matrices,
    verify,
)
from qrook.qfield import Q, QINV, as_ratfunc
from qrook.rook import enumerate_rook, rook_cardinality
from qrook.seminormal import cyclotomic_module, restrict, shifted_skew_module
from qrook.shapes import (
    FAMILY_A_QUOTIENT,
    FAMILY_TYPE_B,
    bratteli,
    count_standard_tableaux,
    index_set_A,
    index_set_H,
)
from qrook.tensor import (
    GradedBasis,
    lift,
    phiP,
    rmatrix,
    rmatrix_at_one_is_flip,
    verify_phiP,
)

U01 = (as_ratfunc(0), as_ratfunc(1))
U23 = (as_ratfunc(2), as_ratfunc(3))


def _report(num: int, ok: bool, detail: str):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _direct_sum(reps, names):
    n = sum(r.dimension for r in reps)
    out = {}
    for name in names:
        m = Mat.zero(n)
        off = 0
        for r in reps:
            for i, row in r.matrices[name].rows.items():
                for j, v in row.items():
                    m.set(off + i, off + j, v)
            off += r.dimension
        out[name] = m
    return out


def test_criterion_01_dimension_table():
    start = time.time()
    expected = [2, 7, 34, 209]
    by_enum = [len(enumerate_rook(k)) for k in range(1, 5)]
    by_squares = [
        sum(count_standard_tableaux(s) ** 2 for s in index_set_A(k))
        for k in range(1, 5)
    ]
    by_span = []
    for k in range(1, 4):
        reps = [cyclotomic_module(s, U01) for s in index_set_A(k)]
        names = ["X1"] + [f"T{i}" for i in range(1, k)]
        by_span.append(algebra_dimension(_direct_sum(reps, names)))
    elapsed = time.time() - start
    ok = (
        by_enum == expected
        and by_squares == expected
        and by_span == expected[:3]
        and elapsed < 30
    )
    _report(
        1,
        ok,
        f"dim = {by_enum} by enumeration, {by_squares} by tableau squares, "
        f"{by_span} by word span (k<=3), in {elapsed:.1f}s",
    )


def test_criterion_02_presentation_equivalence():
    start = time.time()
    checked = 0
    ok = True
    for k in range(1, 5):
        for shape in index_set_A(k):
            rep = cyclotomic_module(shape, U01)
            r1 = verify(projector_matrices(rep.matrices, k), relations_rook(k))
            ok = ok and r1["passed"]
            if k >= 2:
                r2 = verify(rep.matrices, relations_Ak_presentation(k))
                ok = ok and r2["passed"]
            checked += 1
    elapsed = time.time() - start
    ok = ok and elapsed < 120
    _report(
        2,
        ok,
        f"both suites exact zero on {checked} modules (k<=4, symbolic q), "
        f"in {elapsed:.1f}s",
    )


def test_criterion_03_cyclotomic_dimension_identity():
    ok = True
    detail = []
    for r, kmax in ((2, 4), (3, 3)):
        for k in range(1, kmax + 1):
            total = sum(
                count_standard_tableaux(s) ** 2 for s in index_set_H(k, r)
            )
            ok = ok and total == r**k * math.factorial(k)
            detail.append(f"r={r},k={k}:{total}")
    _report(3, ok, "sum of squares = r^k k! at " + ", ".join(detail))


def test_criterion_04_ideal_generator_scalars():
    ok = True
    # nonzero u1 branch at u = (2, 3)
    u1, u2 = U23
    expected = (u1 - u2) * (u1 * QINV**2 - u2) * (u1 * QINV**2 - u1 * Q**2)
    for u, scalar in ((U23, expected), (U01, Q + QINV)):
        p = ideal_generator_p(u[0], u[1])
        for shape in index_set_H(2, 2):
            rep = cyclotomic_module(shape, u)
            got = eval_lincomb(
                p, tower_x_matrices(rep.matrices, 2), rep.dimension
            )
            if shape == ((1, 1), ()):
                want = Mat.identity(rep.dimension).scale(scalar)
                ok = ok and got == want
            else:
                ok = ok and got.is_zero()
    _report(
        4,
        ok,
        "p acts by the quoted scalar on the column-pair module and by zero "
        "on the other four, for u=(2,3) and u=(0,1)",
    )


def test_criterion_05_quotient_ideal():
    p = ideal_generator_p(*U01)
    ok = True
    for k in range(2, 5):
        for shape in index_set_A(k):
            rep = cyclotomic_module(shape, U01)
            got = eval_lincomb(
                p, tower_x_matrices(rep.matrices, k), rep.dimension
            )
            ok = ok and got.is_zero()
        column = cyclotomic_module(((1,) * k, ()), U01)
        got = eval_lincomb(
            p, tower_x_matrices(column.matrices, k), column.dimension
        )
        ok = ok and not got.is_zero()
    _report(
        5,
        ok,
        "p vanishes on every one-row-first-component module (k<=4) and is "
        "nonzero on the column module containing the 2-box column",
    )


# Hand-derived from the level-0..3 branching diagrams: vertices and
# one-box-containment edges, frozen independently of the implementation.
FIG_B_LEVELS = [
    [((), ())],
    [((1,), ()), ((), (1,))],
    [((2,), ()), ((1, 1), ()), ((1,), (1,)), ((), (2,)), ((), (1, 1))],
    [
        ((3,), ()),
        ((2, 1), ()),
        ((1, 1, 1), ()),
        ((2,), (1,)),
        ((1, 1), (1,)),
        ((1,), (2,)),
        ((1,), (1, 1)),
        ((), (3,)),
        ((), (2, 1)),
        ((), (1, 1, 1)),
    ],
]
FIG_B_EDGES = [
    [(((), ()), ((1,), ())), (((), ()), ((), (1,)))],
    [
        (((1,), ()), ((2,), ())),
        (((1,), ()), ((1, 1), ())),
        (((1,), ()), ((1,), (1,))),
        (((), (1,)), ((1,), (1,))),
        (((), (1,)), ((), (2,))),
        (((), (1,)), ((), (1, 1))),
    ],
    [
        (((2,), ()), ((3,), ())),
        (((2,), ()), ((2, 1), ())),
        (((2,), ()), ((2,), (1,))),
        (((1, 1), ()), ((2, 1), ())),
        (((1, 1), ()), ((1, 1, 1), ())),
        (((1, 1), ()), ((1, 1), (1,))),
        (((1,), (1,)), ((2,), (1,))),
        (((1,), (1,)), ((1, 1), (1,))),
        (((1,), (1,)), ((1,), (2,))),
        (((1,), (1,)), ((1,), (1, 1))),
        (((), (2,)), ((1,), (2,))),
        (((), (2,)), ((), (3,))),
        (((), (2,)), ((), (2, 1))),
        (((), (1, 1)), ((1,), (1, 1))),
        (((), (1, 1)), ((), (2, 1))),
        (((), (1, 1)), ((), (1, 1, 1))),
    ],
]


def _a_quotient_expected():
    keep = lambda s: len(s[0]) <= 1
    levels = [[s for s in lvl if keep(s)] for lvl in FIG_B_LEVELS]
    edges = [
        [(a, b) for a, b in lvl if keep(a) and keep(b)] for lvl in FIG_B_EDGES
    ]
    return levels, edges


def test_criterion_06_bratteli_figures():
    ok = True
    for family, (levels, edges) in (
        (FAMILY_TYPE_B, (FIG_B_LEVELS, FIG_B_EDGES)),
        (FAMILY_A_QUOTIENT, _a_quotient_expected()),
    ):
        g = bratteli(4, family)
        for m in range(4):
            ok = ok and list(g.levels[m]) == levels[m]
        for m in range(3):
            got = sorted(
                (g.levels[m][i], g.levels[m + 1][j]) for i, j in g.edges[m]
            )
            ok = ok and got == sorted(edges[m])
        # tableau-count recursion through level 4
        for m in range(1, 5):
            for j, shape in enumerate(g.levels[m]):
                below = [
                    g.levels[m - 1][i] for i, jj in g.edges[m - 1] if jj == j
                ]
                ok = ok and count_standard_tableaux(shape) == sum(
                    count_standard_tableaux(s) for s in below
                )
    _report(
        6,
        ok,
        "levels 0-3 vertex sets and edge multisets match the two frozen "
        "diagrams; tableau-count recursion holds through level 4",
    )


def test_criterion_07_restriction():
    k = 3
    ok = True
    names = [f"X{i}" for i in range(1, k)] + [f"T{i}" for i in range(1, k - 1)]
    for shape in index_set_H(k, 2):
        rep = cyclotomic_module(shape, U23)
        for smaller, indices in restrict(rep):
            inside = set(indices)
            sub = cyclotomic_module(smaller, U23)
            for name in names:
                big = rep.matrices[name]
                for i, row in big.rows.items():
                    for j, v in row.items():
                        if (i in inside) != (j in inside):
                            ok = ok and v.is_zero()
                ok = ok and big.submatrix(indices) == sub.matrices[name]
    _report(
        7,
        ok,
        "every restriction block at u=(2,3) is generator-closed and equals "
        "the canonical smaller-shape module exactly",
    )


def test_criterion_08_semisimplicity():
    ok = all(semisimple_rook(k, Fraction(1)) for k in range(1, 7))
    ok = ok and not semisimple_cyclotomic((1, Q * Q), 2)
    ok = ok and not semisimple_cyclotomic(
        (as_ratfunc(1), as_ratfunc(1)), 2
    )
    wit = indecomposable_witness(2, 5)
    ok = ok and verify(wit, relations_A_algebra(2, 5, 5))["passed"]
    # span(e1) is invariant; the Jordan block shows no invariant complement
    x = wit["X1"]
    ok = ok and x.get(1, 0).is_zero()  # e1 line is invariant
    shifted = x.add_scalar(as_ratfunc(-5))
    ok = ok and not shifted.is_zero() and (shifted @ shifted).is_zero()
    _report(
        8,
        ok,
        "predicates: true at q=1 (k<=6), false at u2=q^2 u1 and at equal "
        "u_i; equal-parameter witness passes its suite and has an "
        "invariant non-complemented line",
    )


def test_criterion_09_shifted_skew_module():
    ok = True
    u1 = as_ratfunc(5)
    for k, d, dim in ((3, 1, 2), (4, 2, 5)):
        rep = shifted_skew_module(k, d, u1)
        ok = ok and rep.dimension == dim
        asg = tower_x_matrices(rep.matrices, k)
        a = asg["X1"].add_scalar(-(Q ** (2 * d) * u1))
        b = asg["X2"].add_scalar(-(Q ** (2 * d) * u1))
        c = asg["X2"].add_scalar(-(Q**2 * u1))
        ok = ok and (a @ b @ c).is_zero()
    _report(
        9,
        ok,
        "shifted skew modules have dimensions 2 and 5 and satisfy the "
        "cubic annihilation identity exactly",
    )


def test_criterion_10_tensor_action():
    start = time.time()
    ok = True
    for n, k in ((2, 2), (2, 3), (3, 2), (3, 3)):
        basis = GradedBasis((1, n - 1))
        reports = verify_phiP(k, basis, U01)
        ok = ok and reports["passed"] and reports["rook_identity"]
    for k, dims, dim in ((2, (1, 2), 7), (3, (1, 3), 34)):
        centralizer = verify_phiP(k, GradedBasis(dims), U01)["centralizer"]
        ok = ok and centralizer == {"dimension": dim, "predicted": dim, "agree": True}
    elapsed = time.time() - start
    ok = ok and elapsed < 300
    _report(
        10,
        ok,
        f"tensor action passes both suites with X_1 = d_1, centralizer "
        f"dimensions 7 and 34, in {elapsed:.1f}s",
    )


def test_criterion_11_rmatrix_unit_checks():
    ok = True
    for n in (2, 3):
        r = rmatrix(n)
        # the three basis-vector cases
        ok = ok and r.get(0, 0) == Q  # v1 x v1 -> q v1 x v1
        ok = ok and r.get(1, n) == as_ratfunc(1)  # v2 x v1 -> v1 x v2
        ok = ok and r.get(n, 1) == as_ratfunc(1)  # v1 x v2 -> v2 x v1 + ...
        ok = ok and r.get(1, 1) == Q - QINV
        # quadratic and braid on three tensor factors
        ok = ok and (r @ r) == r.scale(Q - QINV) + Mat.identity(n * n)
        r1 = lift(r, 3, 1, n)
        r2 = lift(r, 3, 2, n)
        ok = ok and (r1 @ r2 @ r1) == (r2 @ r1 @ r2)
        ok = ok and rmatrix_at_one_is_flip(n)
    _report(
        11,
        ok,
        "braiding matches all three defining cases, satisfies quadratic "
        "and braid relations on three factors (n<=3), and is the flip at q=1",
    )
