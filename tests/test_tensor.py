import pytest

from qrook.errors import InvalidArgument
from qrook.linalg import Mat, hecke_inverse
from qrook.presentations import (
    relations_cyclotomic,
    tower_x_matrices,
    verify,
)
from qrook.qfield import Q, QINV, RF_ONE, RF_ZERO, as_ratfunc
from qrook.tensor import (
    GradedBasis,
    commutes_with_coproduct,
    coproduct,
    dop,
    lift,
    phiP,
    predicted_centralizer_dimension,
    rmatrix,
    rmatrix_at_one_is_flip,
    smatrix,
    verify_phiP,
)

U01 = (as_ratfunc(0), as_ratfunc(1))


def _levi(n: int, k: int) -> dict:
    return coproduct(GradedBasis((n,)), k)


def test_coproduct_on_V_actions():
    v = _levi(2, 1)
    # f_1 v_1 = v_2, f_1 v_2 = 0
    assert v["f1"].get(1, 0) == RF_ONE
    assert all(v["f1"].get(i, 1).is_zero() for i in range(2))
    # q^(eps_1) v_1 = q v_1
    assert v["qe1"].get(0, 0) == Q
    assert v["qe1"].get(1, 1) == RF_ONE


def _ef_commutator_holds(v: dict, n: int) -> bool:
    """[e_i, f_j] = delta_ij (K_i - K_i^-1) / (q - q^-1) for the
    generator matrices v, where K_i = q^(eps_i - eps_(i+1))."""
    coeff = (Q - QINV).inv()
    for i in range(1, n):
        for j in range(1, n):
            lhs = v[f"e{i}"] @ v[f"f{j}"] - v[f"f{j}"] @ v[f"e{i}"]
            if i == j:
                k = v[f"qe{i}"] @ v[f"qe{i + 1}inv"]
                kinv = v[f"qe{i}inv"] @ v[f"qe{i + 1}"]
                lhs = lhs - (k - kinv).scale(coeff)
            if not lhs.is_zero():
                return False
    return True


def _naive_coproduct(n: int) -> dict:
    """x -> x (x) 1 + K (x) x for f as well as e, grouplike on the
    Cartan part: the braiding commutes with it, but it is not an
    algebra map."""
    v = _levi(n, 1)
    out = _levi(n, 2)
    for i in range(1, n):
        k = v[f"qe{i}"] @ v[f"qe{i + 1}inv"]
        f = v[f"f{i}"]
        out[f"f{i}"] = lift(f, 2, 1, n) + lift(k, 2, 1, n) @ lift(f, 2, 2, n)
    return out


def _flip(n: int) -> Mat:
    p = Mat.zero(n * n)
    for i in range(n):
        for j in range(n):
            p.set(j * n + i, i * n + j, RF_ONE)
    return p


@pytest.mark.parametrize(
    "n, k",
    [pytest.param(n, 1, id=str(n)) for n in (2, 3, 4)]
    + [pytest.param(n, 2, id=f"coproduct-{n}") for n in (2, 3)]
    + [pytest.param(2, 3, id="coproduct-2-k3")],
)
def test_ef_commutator_relation(n, k):
    # on V, and on V tensor k through Jimbo's coproduct: an algebra map
    assert _ef_commutator_holds(_levi(n, k), n)


@pytest.mark.parametrize("n", [2, 3])
def test_naive_coproduct_is_not_an_algebra_map(n):
    naive = _naive_coproduct(n)
    rm = rmatrix(n)
    assert all(rm @ m == m @ rm for m in naive.values())
    assert not _ef_commutator_holds(naive, n)


@pytest.mark.parametrize("n", [2, 3])
def test_flip_does_not_commute_with_coproduct(n):
    p = _flip(n)
    assert p @ p == Mat.identity(n * n)
    assert not commutes_with_coproduct({"T1": p}, GradedBasis((n,)), 2)


def test_rmatrix_three_cases():
    n = 2
    r = rmatrix(n)
    # v_1 x v_1 -> q v_1 x v_1
    assert r.get(0, 0) == Q
    # v_2 x v_1 -> v_1 x v_2 (column index 1*n+0 = 2)
    assert r.get(1, 2) == RF_ONE and r.get(2, 2).is_zero()
    # v_1 x v_2 -> v_2 x v_1 + (q - q^-1) v_1 x v_2
    assert r.get(2, 1) == RF_ONE and r.get(1, 1) == Q - QINV


def test_rmatrix_inverse():
    for n in (2, 3):
        assert rmatrix(n) @ hecke_inverse(rmatrix(n)) == Mat.identity(n * n)


@pytest.mark.parametrize("n", [2, 3])
def test_rmatrix_quadratic_and_braid_on_three_factors(n):
    r = rmatrix(n)
    assert r @ r == r.scale(Q - QINV) + Mat.identity(n * n)
    r1 = lift(r, 3, 1, n)
    r2 = lift(r, 3, 2, n)
    assert r1 @ r2 @ r1 == r2 @ r1 @ r2


@pytest.mark.parametrize("n", [2, 3])
def test_rmatrix_at_q1_is_flip(n):
    assert rmatrix_at_one_is_flip(n)


def test_smatrix_cases():
    basis = GradedBasis((1, 2))  # v_0 in component 1; v_1, v_2 in component 2
    s = smatrix(basis)
    n = 3
    # unequal degrees: plain flip, no correction term
    col = 0 * n + 1  # v_0 x v_1
    assert s.get(1 * n + 0, col) == RF_ONE
    assert s.get(col, col).is_zero()
    # equal degrees, equal index: falls through to the q case
    col = 1 * n + 1
    assert s.get(col, col) == Q


def test_smatrix_square_on_unequal_degrees():
    basis = GradedBasis((1, 1))
    s = smatrix(basis)
    s2 = s @ s
    n = 2
    for i in range(n):
        for j in range(n):
            if basis.degree(i) != basis.degree(j):
                col = i * n + j
                for row in range(n * n):
                    expect = RF_ONE if row == col else RF_ZERO
                    assert s2.get(row, col) == expect


def test_dop():
    basis = GradedBasis((1, 2))
    d = dop(basis, U01)
    assert d.get(0, 0).is_zero()
    assert d.get(1, 1) == RF_ONE and d.get(2, 2) == RF_ONE
    with pytest.raises(InvalidArgument):
        dop(basis, (as_ratfunc(1),))


def test_distant_operators_commute():
    n, k = 2, 4
    r = rmatrix(n)
    basis = GradedBasis((1, 1))
    s = smatrix(basis)
    d1 = lift(dop(basis, U01), k, 1, n)
    r3 = lift(r, k, 3, n)
    s3 = lift(s, k, 3, n)
    assert d1 @ r3 == r3 @ d1
    assert d1 @ s3 == s3 @ d1
    assert lift(r, k, 1, n) @ r3 == r3 @ lift(r, k, 1, n)


def test_phiP_k1_is_diagonal():
    basis = GradedBasis((1, 1))
    asg = phiP(1, basis, U01)
    assert asg["X1"] == dop(basis, U01)


@pytest.mark.parametrize("n,k", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_phiP_suites_and_rook_identity(n, k):
    basis = GradedBasis((1, n - 1))
    reports = verify_phiP(k, basis, U01)
    assert reports["passed"]
    assert reports["rook_identity"] is True
    assert reports["cyclotomic"]["passed"]
    # the schurweyl payload as it is printed, without the assignment
    assert sorted(reports) == ["centralizer", "cyclotomic", "passed", "quotient", "rook_identity"]


def test_phiP_negative_control_corrupt_d():
    basis = GradedBasis((1, 1))
    # wrong diagonal parameters: the u = (0,1) cyclotomic polynomial
    # no longer annihilates X_1
    asg = phiP(2, basis, (as_ratfunc(0), as_ratfunc(2)))
    full = tower_x_matrices(asg, 2)
    report = verify(full, relations_cyclotomic(2, U01))
    assert not report["passed"]
    failing = [r["name"] for r in report["relations"] if not r["ok"]]
    assert "cyclotomic:X1" in failing


def _centralizer(k, dims, u):
    return verify_phiP(k, GradedBasis(dims), u)["centralizer"]


def test_centralizer_dimensions():
    assert _centralizer(2, (1, 2), U01) == {"dimension": 7, "predicted": 7, "agree": True}
    assert _centralizer(2, (1, 1), U01) == {"dimension": 6, "predicted": 6, "agree": True}
    assert _centralizer(3, (3,), (as_ratfunc(1),)) == {"dimension": 6, "predicted": 6, "agree": True}
    assert predicted_centralizer_dimension(3, GradedBasis((1, 3))) == 34


def test_centralizer_at_n_to_the_k_128():
    # the size schurweyl --m 1,1 --k 7 runs; no desk-scale bound on the library
    assert _centralizer(7, (1, 1), U01) == {"dimension": 3432, "predicted": 3432, "agree": True}


def test_centralizer_disagrees_at_a_non_semisimple_u():
    # u = (1, 1): the suites pass while the span falls short
    reports = verify_phiP(3, GradedBasis((1, 1)), (as_ratfunc(1), as_ratfunc(1)))
    assert reports["cyclotomic"]["passed"]
    assert reports["centralizer"]["dimension"] < reports["centralizer"]["predicted"]
    assert reports["centralizer"]["agree"] is False and reports["passed"] is False


def test_graded_bases_compare_by_value():
    assert GradedBasis((1, 2)) == GradedBasis((1, 2)) != GradedBasis((2, 1))
    assert {GradedBasis((1, 2)): "V"}[GradedBasis((1, 2))] == "V"
    assert len({GradedBasis((1, 2)), GradedBasis((1, 2))}) == 1
    for dims in ((), (0,), (1, -1)):
        with pytest.raises(InvalidArgument):
            GradedBasis(dims)


def test_coproduct_convention():
    for n in (2, 3):
        assert commutes_with_coproduct({"T1": rmatrix(n)}, GradedBasis((n,)), 2)
    with pytest.raises(InvalidArgument):
        coproduct(GradedBasis((2,)), 0)


def test_coproduct_builds_e_and_f_only_within_a_component():
    # v_0 alone in component 1; v_1, v_2 in component 2; v_3 in component 3
    delta = coproduct(GradedBasis((1, 2, 1)), 2)
    assert sorted(delta) == ["e2", "f2"] + [f"qe{j}{tag}" for j in range(1, 5) for tag in ("", "inv")]


@pytest.mark.parametrize(
    "dims, k, u",
    [((1, 2), 3, (0, 1)), ((1, 2), 4, (1, 3)), ((2, 2), 3, (1, 3)), ((2, 1), 4, (0, 1))],
)
def test_phiP_commutes_with_levi_coproduct(dims, k, u):
    # the commuting half of the duality: every generator of the action is
    # a module map of the Levi quantum group on V tensor k
    basis = GradedBasis(dims)
    asg = phiP(k, basis, u)
    assert commutes_with_coproduct(asg, basis, k)
    # negative control: T_1 as the plain flip is no module map
    asg["T1"] = lift(_flip(basis.n), k, 1, basis.n)
    assert not commutes_with_coproduct(asg, basis, k)


def test_rmatrix_preserves_weight_space():
    # the braiding permutes tensor positions: entries connect (i,j) only
    # to (i,j) or (j,i)
    n = 3
    r = rmatrix(n)
    for row, cols in r.rows.items():
        for col in cols:
            assert {row // n, row % n} == {col // n, col % n}
