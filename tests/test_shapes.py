from functools import lru_cache
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, strategies as st

from qrook import cli, shapes
from qrook.errors import InvalidArgument
from qrook.qfield import Q, RF_ONE
from qrook.shapes import (
    FAMILY_A_QUOTIENT,
    FAMILY_TYPE_B,
    SkewShape,
    StandardTableau,
    addable_boxes,
    bratteli,
    content,
    count_standard_tableaux,
    enumerate_partitions,
    enumerate_standard_tableaux,
    index_set_A,
    index_set_H,
    parse_multipartition,
    parse_skew,
    removable_boxes,
    remove_box,
    shape_boxes,
)


def test_enumerate_partitions():
    assert enumerate_partitions(0) == [()]
    assert enumerate_partitions(3) == [(3,), (2, 1), (1, 1, 1)]
    assert len(enumerate_partitions(4)) == 5


def _in_component_1(boxes):
    """Boxes of a plain shape, all in component None, moved to component 1."""
    assert all(comp is None for comp, _, _ in boxes)
    return [(1, r, c) for _, r, c in boxes]


def test_partition_reads_as_its_one_component_multipartition():
    for n in range(9):
        for p in enumerate_partitions(n):
            mp = (p,)
            assert _in_component_1(shape_boxes(p)) == shape_boxes(mp), p
            assert _in_component_1(removable_boxes(p)) == removable_boxes(mp), p
            assert _in_component_1(addable_boxes(p)) == addable_boxes(mp), p
            assert [(remove_box(p, b),) for b in removable_boxes(p)] == [
                remove_box(mp, b) for b in removable_boxes(mp)
            ], p
            assert count_standard_tableaux(p) == count_standard_tableaux(mp), p
            skew = SkewShape(p, ())
            assert shape_boxes(skew) == shape_boxes(p), p
            assert count_standard_tableaux(skew) == count_standard_tableaux(p), p


def test_skew_shapes_have_no_corners():
    for corners in (addable_boxes, removable_boxes):
        with pytest.raises(InvalidArgument):
            corners(SkewShape((2, 1), (1,)))


def test_skew_shapes_and_tableaux_compare_by_value():
    shape, same = SkewShape((2, 1), (1,)), SkewShape((2, 1), (1,))
    assert shape == same and hash(shape) == hash(same)
    assert {shape: "skew"}[same] == "skew" and len({shape, same}) == 1
    assert shape != SkewShape((2, 1), ()) and shape != ((2, 1), (1,))
    # CLI errors name a shape by this text
    assert repr(shape) == "SkewShape(outer=(2, 1), inner=(1,))"
    with pytest.raises(InvalidArgument):
        SkewShape((1,), (2,))
    tableaux = enumerate_standard_tableaux(shape)
    copies = [StandardTableau(same, t.boxes) for t in tableaux]
    assert copies == tableaux and copies[0] != copies[1]
    assert {t: i for i, t in enumerate(tableaux)}[copies[1]] == 1
    assert len(set(tableaux) | set(copies)) == 2


def test_removable_and_addable():
    assert [(b[1], b[2]) for b in removable_boxes((2, 1))] == [(1, 2), (2, 1)]
    assert len(addable_boxes(((), ()))) == 2
    assert [(b[1], b[2]) for b in addable_boxes((5, 5, 3, 1, 1))] == [
        (1, 6),
        (3, 4),
        (4, 2),
        (6, 1),
    ]


def test_tableau_counts_examples():
    assert len(enumerate_standard_tableaux(SkewShape((1, 1), ()))) == 1
    assert len(enumerate_standard_tableaux(((1,), (1,)))) == 2
    assert len(enumerate_standard_tableaux(SkewShape((2, 1), (1,)))) == 2


def _brute_force_count(shape) -> int:
    """Count standard fillings by filtering all entry orders."""
    if isinstance(shape, SkewShape):
        inner = shape.inner + (0,) * len(shape.outer)
        boxes = [
            (None, r, col)
            for r, row in enumerate(shape.outer, start=1)
            for col in range(inner[r - 1] + 1, row + 1)
        ]
    else:
        boxes = [
            (c, r, col)
            for c, part in enumerate(shape, start=1)
            for r, row in enumerate(part, start=1)
            for col in range(1, row + 1)
        ]
    k = len(boxes)
    count = 0
    for perm in permutations(range(1, k + 1)):
        entry = dict(zip(boxes, perm))
        ok = True
        for b in boxes:
            left = (b[0], b[1], b[2] - 1)
            up = (b[0], b[1] - 1, b[2])
            if left in entry and entry[left] > entry[b]:
                ok = False
            if up in entry and entry[up] > entry[b]:
                ok = False
        if ok:
            count += 1
    return count


@pytest.mark.parametrize(
    "shape",
    [
        ((3, 1), ()),
        ((2, 1), (1,)),
        ((2,), (2, 1)),
        ((1, 1), (2,)),
        ((2, 2), (1,)),
    ],
)
def test_tableau_count_brute_force_multi(shape):
    assert count_standard_tableaux(shape) == _brute_force_count(shape)


@pytest.mark.parametrize(
    "outer,inner",
    [((3, 2), (1,)), ((2, 2, 1), ()), ((3, 1), (1,)), ((4, 2), (2,))],
)
def test_tableau_count_brute_force_skew(outer, inner):
    shape = SkewShape(outer, inner)
    assert count_standard_tableaux(shape) == _brute_force_count(shape)


def _skew_shapes(max_outer):
    for n in range(max_outer + 1):
        for outer in enumerate_partitions(n):
            for m in range(n + 1):
                for inner in enumerate_partitions(m):
                    padded = inner + (0,) * len(outer)
                    if len(inner) <= len(outer) and all(
                        i <= o for i, o in zip(padded, outer)
                    ):
                        yield SkewShape(outer, inner)


@pytest.mark.parametrize(
    "shapes",
    [
        [p for n in range(9) for p in enumerate_partitions(n)],
        [mp for n in range(7) for mp in index_set_H(n, 2)],
        list(_skew_shapes(7)),
    ],
    ids=["partitions_le8", "pairs_le6", "skew_outer_le7"],
)
def test_closed_form_count_matches_enumeration(shapes):
    """The determinant count against the enumeration oracle, exhaustively;
    each enumeration is strictly increasing in the canonical order and
    holds only standard fillings, so it lists each tableau once."""
    for shape in shapes:
        tabs = enumerate_standard_tableaux(shape)
        assert count_standard_tableaux(shape) == len(tabs), shape
        keys = [t.sort_key() for t in tabs]
        assert all(a < b for a, b in zip(keys, keys[1:])), shape
        assert all(t.is_standard() for t in tabs), shape


def test_closed_form_count_large_shapes():
    # hook-length values: f(5,4,3,2,1) = 292864, f(10,10) = Catalan(10)
    assert count_standard_tableaux((5, 4, 3, 2, 1)) == 292864
    assert count_standard_tableaux((10, 10)) == 16796
    assert count_standard_tableaux((1,) * 12) == 1
    assert count_standard_tableaux(()) == 1
    # f((2),(1,1)) = C(4,2) * 1 * 1; f([3,3]/[1]) = f(3,2) = 5
    assert count_standard_tableaux(((2,), (1, 1))) == 6
    assert count_standard_tableaux(SkewShape((3, 3), (1,))) == 5
    assert count_standard_tableaux(SkewShape((2, 2), (2, 2))) == 1
    # lists from a library caller
    assert count_standard_tableaux([5, 4, 3, 2, 1]) == 292864
    assert count_standard_tableaux([(2,), [1, 1]]) == 6


def _hook_length_count(p):
    """n! over the product of the hook lengths of a partition."""
    conj = [sum(1 for row in p if row > c) for c in range(p[0])] if p else []
    hooks = 1
    for r, row in enumerate(p):
        for c in range(row):
            hooks *= (row - c - 1) + (conj[c] - r - 1) + 1  # arm + leg + 1
    return factorial(sum(p)) // hooks


@lru_cache(maxsize=None)
def _corner_removal_count(outer, inner):
    """f(outer/inner) as the sum over the removable corners c of outer that
    lie outside inner of f((outer - c)/inner), with f(inner/inner) = 1."""
    if outer == inner:
        return 1
    padded = inner + (0,) * (len(outer) - len(inner))
    total = 0
    for r, row in enumerate(outer):
        last = r == len(outer) - 1
        if (last or row > outer[r + 1]) and row > padded[r]:
            smaller = tuple(x for x in outer[:r] + (row - 1,) + outer[r + 1 :] if x)
            total += _corner_removal_count(smaller, inner)
    return total


def test_closed_form_count_beyond_enumeration():
    """Counts for shapes with more rows than the enumeration test reaches."""
    partitions = [p for n in range(21) for p in enumerate_partitions(n)]
    assert len(partitions) == 2714
    for p in partitions:
        assert count_standard_tableaux(p) == _hook_length_count(p), p
    skews = list(_skew_shapes(12))
    assert len(skews) == 8855
    for s in skews:
        assert count_standard_tableaux(s) == _corner_removal_count(s.outer, s.inner), s


def test_tableaux_canonical_order():
    tabs = enumerate_standard_tableaux(((1,), (1,)))
    keys = [t.sort_key() for t in tabs]
    assert keys == sorted(keys)
    assert all(t.is_standard() for t in tabs)


def test_content_values():
    assert content((None, 1, 1)) == RF_ONE
    assert content((None, 1, 3)) == Q**4
    assert content((2, 2, 1)) == Q**-2


def test_index_sets():
    assert index_set_H(1, 2) == [((1,), ()), ((), (1,))]
    assert len(index_set_H(2, 2)) == 5
    assert index_set_H(2, 1) == [((2,),), ((1, 1),)]
    assert set(index_set_A(2)) == {
        ((2,), ()),
        ((1,), (1,)),
        ((), (2,)),
        ((), (1, 1)),
    }
    assert len(index_set_A(1)) == 2
    # seven shapes; their squared tableau counts sum to dim R_3 = 34
    assert len(index_set_A(3)) == 7
    assert sum(count_standard_tableaux(s) ** 2 for s in index_set_A(3)) == 34


def test_bratteli_vertex_counts():
    b = bratteli(3, FAMILY_TYPE_B)
    assert b.vertex_counts() == [1, 2, 5, 10]
    a = bratteli(3, FAMILY_A_QUOTIENT)
    assert a.vertex_counts() == [1, 2, 4, 7]


def test_bratteli_a_is_b_minus_column_shapes():
    b = bratteli(4, FAMILY_TYPE_B)
    a = bratteli(4, FAMILY_A_QUOTIENT)
    for lb, la in zip(b.levels, a.levels):
        kept = [s for s in lb if len(s[0]) <= 1]
        assert kept == list(la)


def test_d_recursion_through_level_4():
    for family in (FAMILY_TYPE_B, FAMILY_A_QUOTIENT):
        g = bratteli(4, family)
        for m in range(1, 5):
            for j, shape in enumerate(g.levels[m]):
                below = [
                    g.levels[m - 1][i]
                    for (i, jj) in g.edges[m - 1]
                    if jj == j
                ]
                assert count_standard_tableaux(shape) == sum(
                    count_standard_tableaux(s) for s in below
                )


def test_dot_is_deterministic():
    g1 = bratteli(3, FAMILY_A_QUOTIENT).to_dot()
    g2 = bratteli(3, FAMILY_A_QUOTIENT).to_dot()
    assert g1 == g2


def test_parsers():
    assert parse_multipartition("[[2],[1,1]]") == ((2,), (1, 1))
    sk = parse_skew("[2,1]/[1]")
    assert sk.outer == (2, 1) and sk.inner == (1,)


@given(st.integers(0, 5), st.integers(1, 3))
def test_index_set_sizes_consistent(k, r):
    shapes = index_set_H(k, r)
    assert len(set(shapes)) == len(shapes)
    assert all(sum(sum(p) for p in s) == k and len(s) == r for s in shapes)


def test_dims_evaluates_each_distinct_determinant_once(capsys):
    shapes._aitken.cache_clear()
    assert cli.main(["dims", "--rook", "11"]) == 0
    capsys.readouterr()
    assert shapes._aitken.cache_info().misses == 195


def test_cached_count_equals_the_uncached_determinant():
    for n in range(13):
        for p in enumerate_partitions(n):
            assert count_standard_tableaux(p) == shapes._aitken.__wrapped__(p, ()), p
