from fractions import Fraction

import pytest

from qrook.errors import InvalidArgument
from qrook.presentations import relations_rook, verify
from qrook.rook import (
    PartialInjection,
    compose,
    enumerate_rook,
    generator_injections,
    generators_q1,
    left_regular_assignment,
    monoid_algebra_dimension,
    monoid_closure,
    regular_dimension,
    rook_cardinality,
)


def test_cardinality_table():
    assert [rook_cardinality(k) for k in range(6)] == [1, 2, 7, 34, 209, 1546]


@pytest.mark.parametrize("k", range(5))
def test_enumeration_matches_formula(k):
    elems = enumerate_rook(k)
    assert len(elems) == rook_cardinality(k)
    assert len(set(elems)) == len(elems)


def test_compose_examples():
    ident = PartialInjection.identity(2)
    zero = PartialInjection.zero(2)
    a = PartialInjection(2, (2, None))
    assert compose(ident, a) == a
    assert compose(zero, a) == zero
    # transposition followed by projection onto position 2
    t = PartialInjection.transposition(2, 1)
    p = PartialInjection.partial_identity(2, [2])
    out = compose(t, p)
    assert out.mapping == (None, 1)
    with pytest.raises(InvalidArgument):
        compose(ident, PartialInjection.identity(3))


def test_injectivity_enforced():
    with pytest.raises(InvalidArgument):
        PartialInjection(2, (1, 1))


def test_generators_q1_shapes():
    asg = generators_q1(2)
    t1 = asg["T1"].to_dense()
    assert [[str(v) for v in row] for row in t1] == [["0", "1"], ["1", "0"]]
    assert asg["P2"].is_zero()
    asg3 = generators_q1(3)
    diag = [str(asg3["P1"].get(i, i)) for i in range(3)]
    assert diag == ["0", "1", "1"]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_q1_matrices_satisfy_rook_relations(k):
    assert verify(generators_q1(k), relations_rook(k), q0=Fraction(1))["passed"]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_monoid_closure_is_full_rook_monoid(k):
    assert monoid_closure(k) == set(enumerate_rook(k))


def test_left_regular_dimension():
    assert regular_dimension(2) == 7
    assert regular_dimension(3) == 34


def test_monoid_algebra_dimension():
    assert monoid_algebra_dimension(0) == 1
    assert monoid_algebra_dimension(2) == 7
    assert monoid_algebra_dimension(3) == 34


def test_left_regular_zero_element_is_a_basis_vector():
    # the zero rook matrix is a basis element: P_k maps identity to it,
    # so the column of P_k at the identity index is a unit vector
    asg = left_regular_assignment(2)
    elements = enumerate_rook(2)
    ident = elements.index(PartialInjection.identity(2))
    zero = elements.index(PartialInjection.zero(2))
    col = [asg["P2"].get(i, ident) for i in range(len(elements))]
    assert str(col[zero]) == "1"
    assert sum(1 for v in col if not v.is_zero()) == 1


def test_generator_injections_consistent_with_matrices():
    for k in (2, 3):
        inj = generator_injections(k)
        mats = generators_q1(k)
        for name in inj:
            assert inj[name].to_rook_matrix() == mats[name]
