import json
from fractions import Fraction
from itertools import product

import pytest

from qrook.cli import PROJECTOR_FAMILIES, SUITES
from qrook.errors import InvalidArgument, NotInvertible
from qrook.linalg import Mat, hecke_inverse
from qrook import presentations
from qrook.presentations import (
    Relation,
    algebra_dimension,
    apply_substitution,
    b4_factors,
    eval_lincomb,
    ideal_generator_p,
    indecomposable_witness,
    lc,
    lc_sub,
    map_P_to_X,
    map_X_to_P,
    projector_matrices,
    relations_A_algebra,
    relations_Ak_presentation,
    relations_affine,
    relations_Bprime,
    relations_cyclotomic,
    relations_rook,
    semisimple_cyclotomic,
    semisimple_rook,
    verify,
)
from qrook.qfield import Q, QINV, RF_ONE, RatFunc, as_ratfunc
from qrook.seminormal import cyclotomic_module
from qrook.shapes import index_set_A, index_set_H

U01 = (as_ratfunc(0), as_ratfunc(1))
U23 = (as_ratfunc(2), as_ratfunc(3))


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


def test_rook_suite_shape_k2():
    names = [r.name for r in relations_rook(2)]
    assert names == [
        "A1:T1",
        "R1:P1",
        "R1:P2",
        "R2:P1P2",
        "R4:P2T1",
        "R4:T1P2",
        "R5:P2",
    ]


def test_ak_suite_includes_expected():
    names = {r.name for r in relations_Ak_presentation(3)}
    assert {"A1:T1", "A1:T2", "A2:T1T2", "B1:X1T2", "B2:X1^2", "B3", "B4"} == names
    with pytest.raises(InvalidArgument):
        relations_Ak_presentation(1)


def test_b4_has_16_raw_terms():
    factors = b4_factors()
    assert len(factors) == 4
    assert len(list(product(*[f.items() for f in factors]))) == 16


def test_affine_examples():
    names = {r.name for r in relations_affine(2)}
    assert "C4:X1X2" in names and "C5:X1T1" in names
    assert relations_affine(1) == []


def test_cyclotomic_expansion():
    rels = relations_cyclotomic(2, U01)
    poly = [r for r in rels if r.name == "cyclotomic:X1"][0]
    # (X1 - 0)(X1 - 1) = X1^2 - X1
    assert poly.lhs == lc((1, ("X1", "X1")), (-1, ("X1",)))


def test_a_algebra_preconditions():
    with pytest.raises(InvalidArgument):
        relations_A_algebra(2, 1, 0)
    with pytest.raises(InvalidArgument):
        relations_A_algebra(1, 0, 1)


def test_ideal_generator_branches():
    p = ideal_generator_p(2, 3)
    assert all(len(w) <= 9 for w in p)
    p0 = ideal_generator_p(0, 1)
    assert ("X1", "T1", "X1", "T1", "X1", "T1") in p0


def test_substitutions_are_inverse_on_modules():
    # map X -> P words, evaluate on projector matrices, compare with X
    k = 3
    rep = cyclotomic_module(((1,), (2,)), U01)
    asg = projector_matrices(rep.matrices, k)
    subst = map_X_to_P(k)
    for i in range(1, k + 1):
        got = eval_lincomb(subst[f"X{i}"], asg, rep.dimension)
        assert got == rep.matrices[f"X{i}"]
    # and P -> X words reproduce the projector matrices
    subst = map_P_to_X(k)
    for i in range(1, k + 1):
        got = eval_lincomb(
            apply_substitution(lc((1, (f"P{i}",))), subst),
            rep.matrices,
            rep.dimension,
        )
        assert got == asg[f"P{i}"]


def test_projector_extras():
    # P_i P_j = P_j P_i = P_j for i <= j, and P_1 X_2 = P_1 - P_2
    k = 3
    rep = cyclotomic_module(((1,), (1, 1)), U01)
    asg = projector_matrices(rep.matrices, k)
    for i in range(1, k + 1):
        for j in range(i, k + 1):
            pi, pj = asg[f"P{i}"], asg[f"P{j}"]
            assert pi @ pj == pj and pj @ pi == pj
    assert asg["P1"] @ rep.matrices["X2"] == asg["P1"] - asg["P2"]


@pytest.mark.parametrize("k", [2, 3])
def test_both_presentations_pass_on_modules(k):
    for shape in index_set_A(k):
        rep = cyclotomic_module(shape, U01)
        assert verify(
            projector_matrices(rep.matrices, k), relations_rook(k)
        )["passed"]
        assert verify(rep.matrices, relations_Ak_presentation(k))["passed"]
        assert verify(
            projector_matrices(rep.matrices, k), relations_Bprime(k)
        )["passed"]


def test_negative_control_corrupted_matrix_fails():
    rep = cyclotomic_module(((2,), ()), U01)
    bad = dict(rep.matrices)
    m = bad["T1"].copy()
    m.set(0, 0, m.get(0, 0) + RF_ONE)
    bad["T1"] = m
    report = verify(bad, relations_Ak_presentation(2))
    assert not report["passed"]
    assert any(not r["ok"] for r in report["relations"])


def _negative_control(family):
    """The suite the CLI builds for family at k = 3, a module it passes on,
    and the same module with one entry of one generator changed (X1 gets
    the eigenvalue 2, outside u = (0, 1))."""
    k = 3
    rels = SUITES[family](k, U01)
    good = cyclotomic_module(((1,), (2,)), U01).matrices
    bad = dict(good)
    bad["X1"] = good["X1"].copy()
    bad["X1"].set(0, 0, as_ratfunc(2))
    if family in PROJECTOR_FAMILIES:
        good, bad = projector_matrices(good, k), projector_matrices(bad, k)
    return rels, good, bad


@pytest.mark.parametrize("family", sorted(SUITES))
def test_negative_control_every_family(family):
    # the suite must pass on a module and fail once a single entry of one
    # generator is changed
    rels, good, bad = _negative_control(family)
    assert verify(good, rels)["passed"]
    report = verify(bad, rels)
    assert not report["passed"]
    assert all(r["ok"] == (r["residual"] == "0") for r in report["relations"])


def _at(v, q0):
    """v(q0) evaluated on its own in Fractions, not through the memo
    verify uses."""
    q0 = Fraction(q0)
    value = lambda a: sum(c * q0**i for i, c in enumerate(a))
    return RatFunc.from_fraction(value(v.num) / value(v.den))


def _residual_oracle(assignment, rels, q0):
    """(passed, witness) per relation, from the residual lhs - rhs built
    as one linear combination and evaluated whole: the check verify
    replaced by comparing the two sides.  At q0 every matrix entry and
    coefficient is specialised entry by entry, without RatFunc.at."""
    n = next(iter(assignment.values())).n
    if q0 is not None:
        assignment = {
            name: Mat.from_dense([[_at(v, q0) for v in row] for row in m.to_dense()])
            for name, m in assignment.items()
        }
    out = []
    for rel in rels:
        comb = lc_sub(rel.lhs, rel.rhs)
        if q0 is not None:
            comb = {w: _at(c, q0) for w, c in comb.items()}
        r = eval_lincomb(comb, assignment, n)
        out.append((r.is_zero(), r.first_entry_string()))
    return out


@pytest.mark.parametrize("q0", [None, 2], ids=["symbolic", "q0=2"])
@pytest.mark.parametrize("family", sorted(SUITES))
def test_verify_matches_the_residual_oracle(family, q0):
    # every verdict and witness, passing and failing, is the residual's
    rels, good, bad = _negative_control(family)
    for assignment in (good, bad):
        got = [(r["ok"], r["residual"]) for r in verify(assignment, rels, q0=q0)["relations"]]
        assert got == _residual_oracle(assignment, rels, q0)
    assert any(not ok for ok, _ in got)


@pytest.mark.parametrize("u", [U01, U23], ids=["u=0,1", "u=2,3"])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_no_relation_has_a_word_on_both_sides(k, u):
    # verify evaluates each side as written, so a word on both sides
    # would be evaluated twice; no suite has one
    suites = [SUITES[family](k, u) for family in sorted(SUITES)]
    suites += [relations_affine(k), relations_cyclotomic(k, u)]
    for rels in suites:
        for rel in rels:
            assert not rel.lhs.keys() & rel.rhs.keys(), rel.name


@pytest.mark.parametrize("family", sorted(SUITES))
def test_each_side_is_evaluated_once(family, monkeypatch):
    # verify makes two eval_lincomb calls per relation, one per side as
    # the suite writes it
    rels, good, _ = _negative_control(family)
    seen = []
    evaluate = presentations.eval_lincomb

    def recording(comb, assignment, n):
        seen.append(comb)
        return evaluate(comb, assignment, n)

    monkeypatch.setattr(presentations, "eval_lincomb", recording)
    verify(good, rels)
    assert seen == [side for rel in rels for side in (rel.lhs, rel.rhs)]


def test_words_with_coefficient_zero_at_q0_are_not_evaluated(monkeypatch):
    # at q = 1 each A1's (q - q^-1) T_i and each R5's P_i P_i has
    # coefficient 0, so verify forms no product for them
    from qrook.rook import generators_q1

    seen = []
    evaluate = presentations.eval_lincomb

    def recording(comb, assignment, n):
        seen.append(comb)
        return evaluate(comb, assignment, n)

    monkeypatch.setattr(presentations, "eval_lincomb", recording)
    rels = relations_rook(4)
    assert verify(generators_q1(4), rels, q0=1)["passed"]
    assert all(not c.is_zero() for comb in seen for c in comb.values())
    words = sum(len(lc_sub(rel.lhs, rel.rhs)) for rel in rels)
    assert sum(map(len, seen)) == words - 6


def test_verify_report_json():
    rep = cyclotomic_module(((2,), ()), U01)
    rels = relations_Ak_presentation(2)
    data = verify(rep.matrices, rels)
    # the report is the payload the CLI prints, and survives a JSON round trip
    assert json.loads(json.dumps(data)) == data == {
        "passed": True,
        "relations": [{"name": r.name, "ok": True, "residual": "0"} for r in rels],
    }


def test_hecke_inverse_guard():
    # a projector does not satisfy the quadratic, so it has no Hecke inverse
    p = Mat.diagonal([RF_ONE, as_ratfunc(0)])
    with pytest.raises(NotInvertible):
        hecke_inverse(p)


@pytest.mark.parametrize("q0", [None, 2], ids=["symbolic", "q0=2"])
def test_rook_inverse_rests_on_the_quadratic_relation(q0):
    # R5 writes T1^-1 as T1 - (q - q^-1), which the suite's own A1:T1
    # makes the inverse: a T1 scaled by 2 fails A1:T1
    k = 3
    asg = projector_matrices(cyclotomic_module(((1,), (2,)), U01).matrices, k)
    asg["T1"] = asg["T1"].scale(as_ratfunc(2))
    report = verify(asg, relations_rook(k), q0=q0)
    assert not report["passed"]
    assert not next(r for r in report["relations"] if r["name"] == "A1:T1")["ok"]


@pytest.mark.parametrize("family", sorted(SUITES))
def test_suites_are_written_in_the_assigned_generators(family):
    # every letter of every relation is a generator the module assigns,
    # so verify checks each suite as written; a letter it does not
    # assign, such as an inverse symbol, is refused
    rels, good, _ = _negative_control(family)
    letters = {x for rel in rels for side in (rel.lhs, rel.rhs) for word in side for x in word}
    assert letters <= set(good)
    with pytest.raises(InvalidArgument, match="missing generator T1\\^-1"):
        verify(good, [Relation("inverse", lc((1, ("T1", "T1^-1"))), lc((1, ())))])


def _r5_oracle(asg, k, q0):
    """(passed, witness) of each R5:P(i+1), from the residual
    P(i+1) - q P(i) T(i)^-1 P(i) with T(i)^-1 built as T(i) - (q - q^-1),
    specialised at q0 only once it is formed."""
    out = []
    for i in range(1, k):
        p, t_inv = asg[f"P{i}"], asg[f"T{i}"].add_scalar(QINV - Q)
        r = asg[f"P{i + 1}"] - (p @ t_inv @ p).scale(Q)
        if q0 is not None:
            r = r.specialize(q0)
        out.append((r.is_zero(), r.first_entry_string()))
    return out


@pytest.mark.parametrize("q0", [None, 2], ids=["symbolic", "q0=2"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_r5_equals_the_inverse_form(k, q0):
    # R5 written in the generators gives every verdict and witness of
    # P(i+1) = q P(i) T(i)^-1 P(i), on the modules and with one entry of a
    # P(i) changed so that it breaks R1 (P(i) P(i) = P(i)): reducing R5's
    # P(i) P(i) to P(i) would change those witnesses
    r5 = [r for r in relations_rook(k) if r.name.startswith("R5:")]
    failed = 0
    for shape in index_set_A(k):
        good = projector_matrices(cyclotomic_module(shape, U01).matrices, k)
        cases = [good]
        for i in range(1, k):
            bad = dict(good)
            bad[f"P{i}"] = good[f"P{i}"].copy()
            bad[f"P{i}"].set(0, 0, good[f"P{i}"].get(0, 0) + as_ratfunc(2))
            cases.append(bad)
        for asg in cases:
            got = [(r["ok"], r["residual"]) for r in verify(asg, r5, q0=q0)["relations"]]
            assert got == _r5_oracle(asg, k, q0)
            failed += not all(ok for ok, _ in got)
    assert failed


def _bprime_in_x1_t_words(k):
    """The Bprime suite in the X1/T alphabet it was first written in:
    each P replaced by its words under map_P_to_X(2), so that P1 P1 = P1
    and P2 P2 = P2 have words on both sides."""
    subst = map_P_to_X(2)

    def word(*letters):
        return apply_substitution(lc((1, letters)), subst)

    rels = [Relation(f"B1':P1T{j}", word("P1", f"T{j}"), word(f"T{j}", "P1")) for j in range(2, k)]
    rels.append(Relation("B2':P1^2", word("P1", "P1"), word("P1")))
    rels.append(Relation("B3':P2T1", word("P2", "T1"), word("T1", "P2")))
    rels.append(Relation("B4':P2^2", word("P2", "P2"), word("P2")))
    return rels


@pytest.mark.parametrize("q0", [None, 2], ids=["symbolic", "q0=2"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_bprime_equals_the_x1_t_word_form(k, q0):
    # Bprime in the letters P1, P2, T_j, on projector_matrices, gives
    # every verdict and witness of the X1/T-word suite on the X1/T
    # assignment: on the modules, and with one entry of X1 or of a T_i
    # changed
    rels, words = relations_Bprime(k), _bprime_in_x1_t_words(k)
    assert [r.name for r in rels] == [r.name for r in words]
    assert {x for r in words for side in (r.lhs, r.rhs) for w in side for x in w} <= {
        "X1", *(f"T{i}" for i in range(1, k))
    }
    failed = 0
    for shape in index_set_A(k):
        good = cyclotomic_module(shape, U01).matrices
        cases = [good]
        for name in ["X1"] + [f"T{i}" for i in range(1, k)]:
            bad = dict(good)
            bad[name] = good[name].copy()
            bad[name].set(0, 0, good[name].get(0, 0) + as_ratfunc(2))
            cases.append(bad)
        for asg in cases:
            got = verify(projector_matrices(asg, k), rels, q0=q0)
            assert got == verify(asg, words, q0=q0)
            failed += not got["passed"]
    assert failed


def test_algebra_dimensions():
    reps = [cyclotomic_module(s, U23) for s in index_set_H(2, 2)]
    asg = _direct_sum(reps, ["X1", "T1"])
    assert algebra_dimension(asg) == 8  # 2^2 * 2!
    reps = [cyclotomic_module(s, U01) for s in index_set_A(2)]
    asg = _direct_sum(reps, ["X1", "T1"])
    assert algebra_dimension(asg) == 7
    rep = cyclotomic_module(((2,), (1,)), U23)
    assert algebra_dimension({"X1": rep.matrices["X1"], "T1": rep.matrices["T1"], "T2": rep.matrices["T2"]}) == 9


def test_semisimplicity_predicates():
    assert semisimple_cyclotomic(U23, 3)
    assert not semisimple_cyclotomic((as_ratfunc(1), as_ratfunc(1)), 2)
    assert semisimple_cyclotomic((1, 2), 2)
    assert not semisimple_cyclotomic((1, Q * Q), 2)  # u2 = q^2 u1 boundary
    assert semisimple_rook(6, Fraction(1))
    assert semisimple_rook(4)
    with pytest.raises(InvalidArgument):
        semisimple_rook(2, Fraction(0))


def test_indecomposable_witness():
    wit = indecomposable_witness(2, 5)
    assert verify(wit, relations_A_algebra(2, 5, 5))["passed"]
    x = wit["X1"]
    shifted = x.add_scalar(as_ratfunc(-5))
    assert not shifted.is_zero()  # not diagonalizable at u1 = u2
    assert (shifted @ shifted).is_zero()


def test_verify_specialized_q():
    rep_rels = relations_rook(2)
    from qrook.rook import generators_q1

    assert verify(generators_q1(2), rep_rels, q0=Fraction(1))["passed"]
    with pytest.raises(InvalidArgument):
        verify({}, rep_rels)


def test_verify_specialises_module_matrices():
    # at q0 = 2 the module matrices are specialised with the coefficients
    for shape in index_set_A(3):
        rep = cyclotomic_module(shape, U01)
        rels = relations_A_algebra(3, U01[0], U01[1])
        assert verify(rep.matrices, rels, q0=2)["passed"]
