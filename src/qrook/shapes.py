"""Partitions, skew shapes, multipartitions, standard tableaux, and
branching graphs.

A partition is a tuple of weakly decreasing positive ints.  Every shape
is read one way, as skew components ``(component, outer, inner)``: one with
``component`` None for a partition or a skew shape, and one per part
1..r of an r-multipartition; boxes, corners and tableau counts come from
them alone.  A box is a triple ``(component, row, col)`` with 1-based
row/col.  Tableaux are stored as the sequence of boxes holding 1, 2, ...,
k; comparing those sequences lexicographically is the canonical tableau
order used to index matrix rows everywhere.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import zip_longest
from math import comb, factorial, perm, prod

from .errors import InvalidArgument
from .qfield import RatFunc

Partition = tuple  # weakly decreasing tuple of positive ints
Box = tuple  # (component | None, row, col)


class SkewShape:
    """The skew shape outer/inner; equal shapes compare and hash equal."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer: Partition, inner: Partition):
        check_partition(outer)
        check_partition(inner)
        padded = inner + (0,) * (len(outer) - len(inner))
        if len(inner) > len(outer) or any(i > o for i, o in zip(padded, outer)):
            raise InvalidArgument("inner shape must fit inside the outer shape")
        self.outer = outer
        self.inner = inner

    def __eq__(self, other):
        if type(other) is not SkewShape:
            return NotImplemented
        return self.outer == other.outer and self.inner == other.inner

    def __hash__(self):
        return hash((self.outer, self.inner))

    def __repr__(self):
        return f"SkewShape(outer={self.outer!r}, inner={self.inner!r})"


def check_partition(p):
    if any(type(x) is not int or x <= 0 for x in p) or any(
        p[i] < p[i + 1] for i in range(len(p) - 1)
    ):
        raise InvalidArgument(f"not a partition: {p}")


def _components(shape):
    """The skew components of a shape; the one place that tells the three
    kinds of shape apart."""
    if isinstance(shape, SkewShape):
        return [(None, shape.outer, shape.inner)]
    if is_multipartition(shape):
        return [(i, tuple(p), ()) for i, p in enumerate(shape, start=1)]
    return [(None, tuple(shape), ())]


def shape_boxes(shape):
    """The boxes of a shape: components, then rows, then columns in order."""
    return [
        (comp, r, c)
        for comp, outer, inner in _components(shape)
        for r, (row, start) in enumerate(zip_longest(outer, inner, fillvalue=0), start=1)
        for c in range(start + 1, row + 1)
    ]


def is_multipartition(shape) -> bool:
    return not isinstance(shape, SkewShape) and bool(shape) and isinstance(shape[0], tuple)


def enumerate_partitions(k: int):
    """All partitions of k in reverse-lexicographic order."""
    if k < 0:
        raise InvalidArgument("k must be >= 0")
    return [tuple(p) for p in _partitions_rec(k, k)]


@lru_cache(maxsize=None)
def _partitions_rec(k, maxpart):
    if k == 0:
        return ((),)
    out = []
    for first in range(min(k, maxpart), 0, -1):
        for rest in _partitions_rec(k - first, first):
            out.append((first,) + rest)
    return tuple(out)


def _partition_components(shape, what):
    if isinstance(shape, SkewShape):
        raise InvalidArgument(f"{what} are defined for (multi)partitions")
    return _components(shape)


def addable_boxes(shape):
    """Positions whose addition leaves a valid (multi)partition."""
    return [
        (comp, r + 1, c + 1)
        for comp, p, _ in _partition_components(shape, "addable boxes")
        for r, c in enumerate(p + (0,))
        if r == 0 or c < p[r - 1]
    ]


def removable_boxes(shape):
    return [
        (comp, r + 1, c)
        for comp, p, _ in _partition_components(shape, "removable boxes")
        for r, (c, below) in enumerate(zip(p, p[1:] + (0,)))
        if c > below
    ]


def remove_box(shape, box):
    """The (multi)partition obtained by removing a removable box."""
    comp, r, _ = box
    parts = [
        tuple(x for x in p[: r - 1] + (p[r - 1] - 1,) + p[r:] if x) if i == comp else p
        for i, p, _ in _partition_components(shape, "removed boxes")
    ]
    return parts[0] if comp is None else tuple(parts)


class StandardTableau:
    """A standard filling, stored as the boxes of entries 1..k in order;
    equal fillings of equal shapes compare and hash equal."""

    __slots__ = ("shape", "boxes")

    def __init__(self, shape, boxes: tuple):
        self.shape = shape
        self.boxes = boxes  # boxes[i] holds entry i+1

    def __eq__(self, other):
        if type(other) is not StandardTableau:
            return NotImplemented
        return self.shape == other.shape and self.boxes == other.boxes

    def __hash__(self):
        return hash((self.shape, self.boxes))

    def __repr__(self):
        return f"StandardTableau(shape={self.shape!r}, boxes={self.boxes!r})"

    def box_of(self, i: int):
        return self.boxes[i - 1]

    def is_standard(self) -> bool:
        seen = set()
        region = set(shape_boxes(self.shape))
        if set(self.boxes) != region or len(self.boxes) != len(region):
            return False
        for box in self.boxes:
            comp, r, c = box
            if (comp, r, c - 1) in region and (comp, r, c - 1) not in seen:
                return False
            if (comp, r - 1, c) in region and (comp, r - 1, c) not in seen:
                return False
            seen.add(box)
        return True

    def sort_key(self):
        return tuple(map(box_key, self.boxes))


def box_key(box):
    """The canonical box order: component (0 for none), row, column."""
    return (box[0] or 0, box[1], box[2])


def enumerate_standard_tableaux(shape):
    """All standard tableaux of a shape, in canonical (lex) order.

    A depth-first search on an explicit stack, so no shape is too large
    for the recursion limit.  A partial filling is the next free column of
    each row; the next entry can go in that box of any row whose box above
    is filled.  That is at most one box per row, so trying the rows in
    canonical order tries those boxes in box order."""
    rows, nxt, n = [], [], 0  # each row's boxes by column, its next free column
    for comp, outer, inner in _components(shape):
        rows.append(())  # above each first row: a full row with no boxes
        nxt.append(float("inf"))
        for r, (row, start) in enumerate(zip_longest(outer, inner, fillvalue=0), start=1):
            rows.append([(comp, r, c) for c in range(row + 1)])
            nxt.append(start + 1)
            n += row - start
    ends, last = [len(row) for row in rows], len(rows)
    out, boxes, chosen, j = [], [], [], 0  # chosen: the row of each box; j: the next row to try
    while True:
        while j < last and not (nxt[j] < ends[j] and nxt[j - 1] > nxt[j]):
            j += 1
        if j < last:
            boxes.append(rows[j][nxt[j]])
            chosen.append(j)
            nxt[j] += 1
            j = 0
            continue
        if len(boxes) == n:
            out.append(StandardTableau(shape, tuple(boxes)))
        if not boxes:
            return out
        boxes.pop()
        j = chosen.pop()
        nxt[j] -= 1
        j += 1


def count_standard_tableaux(shape) -> int:
    """Number of standard tableaux of a shape, from a closed form; no
    tableau is built.

    The multinomial n! / (n_1! ... n_r!), a product of binomials
    C(n_1 + ... + n_i, n_i), times the product over the components
    lambda^i/mu^i of the shape (``_components``), n_i boxes each, of
    Aitken's determinant (1943) n_i! * det[1 / (lambda_a - mu_b - a + b)!],
    a, b over the rows of lambda and 1/m! = 0 for m < 0; for mu = () it
    equals the Frame-Robinson-Thrall hook-length formula.  A single
    component is the case where the multinomial is 1.  The tests check it
    against ``len(enumerate_standard_tableaux(shape))``.
    """
    n, out = 0, 1
    for _, outer, inner in _components(shape):
        m = sum(outer) - sum(inner)
        n += m
        out *= comb(n, m) * _aitken(outer, inner)
    return out


@lru_cache(maxsize=None)
def _aitken(outer: tuple, inner: tuple) -> int:
    """n! * det[1 / (outer_i - inner_j - i + j)!] in integers.

    With a_i = outer_i - i + rows and b_j = inner_j - j + rows (both >= 0),
    row i times a_i! is [a_i! / (a_i - b_j)!] = [perm(a_i, b_j)], which is 0
    when b_j > a_i.  Bareiss's fraction-free elimination (1968) takes that
    integer determinant with exact ``//`` divisions.  It needs no row
    exchange: the leading k x k minor is the same determinant for the first
    k rows of outer and inner, a skew shape with at least one standard
    tableau, so every pivot is positive."""
    rows = len(outer)
    inner = inner + (0,) * (rows - len(inner))
    a = [outer[i] - i + rows for i in range(rows)]
    m = [[perm(a[i], inner[j] - j + rows) for j in range(rows)] for i in range(rows)]
    prev = 1
    for c in range(rows - 1):
        pivot = m[c][c]
        for r in range(c + 1, rows):
            f = m[r][c]
            m[r] = [(pivot * x - f * y) // prev for x, y in zip(m[r], m[c])]
        prev = pivot
    det = m[-1][-1] if rows else 1
    return factorial(sum(outer) - sum(inner)) * det // prod(map(factorial, a))


def content(box) -> RatFunc:
    """The eigenvalue q^(2(c-r)) of a box; seminormal scales it by the
    factor of the box's component."""
    _, r, c = box
    return RatFunc.q_power(2 * (c - r))


def index_set_H(k: int, r: int):
    """All r-tuples of partitions with k boxes total, deterministic order."""
    if k < 0 or r < 1:
        raise InvalidArgument("need k >= 0 and r >= 1")
    out = []

    def rec(prefix, remaining, comps_left):
        if comps_left == 1:
            for p in enumerate_partitions(remaining):
                out.append(prefix + (p,))
            return
        for first in range(remaining, -1, -1):
            for p in enumerate_partitions(first):
                rec(prefix + (p,), remaining - first, comps_left - 1)

    rec((), k, r)
    return out


def index_set_A(k: int):
    """Pairs of partitions, k boxes total, first component with <= 1 row."""
    return [mp for mp in index_set_H(k, 2) if len(mp[0]) <= 1]


FAMILY_TYPE_B = "TypeB"
FAMILY_A_QUOTIENT = "AQuotient"


class BratteliGraph:
    __slots__ = ("family", "levels", "edges")

    def __init__(self, family: str, levels: list, edges: list):
        self.family = family
        self.levels = levels  # levels[m] = list of multipartitions with m boxes
        self.edges = edges  # edges[m] = list of (i, j): levels[m][i] <-> levels[m+1][j]

    def __repr__(self):
        return f"BratteliGraph(family={self.family!r}, levels={self.levels!r}, edges={self.edges!r})"

    def vertex_counts(self):
        return [len(level) for level in self.levels]

    def to_dot(self) -> str:
        lines = ["digraph bratteli {", "  rankdir=TB;", "  node [shape=box];"]
        for m, level in enumerate(self.levels):
            names = []
            for i, v in enumerate(level):
                name = f"v{m}_{i}"
                label = shape_to_json(v)
                lines.append(f'  {name} [label="{label}"];')
                names.append(name)
            lines.append("  { rank=same; " + "; ".join(names) + "; }")
        for m, lvl_edges in enumerate(self.edges):
            for i, j in lvl_edges:
                lines.append(f"  v{m}_{i} -> v{m + 1}_{j} [dir=none];")
        lines.append("}")
        return "\n".join(lines) + "\n"


def bratteli(levels: int, family: str = FAMILY_TYPE_B) -> BratteliGraph:
    """Branching graph with one-box-removal edges between levels."""
    if levels < 0:
        raise InvalidArgument("levels must be >= 0")
    if family == FAMILY_TYPE_B:
        index = lambda m: index_set_H(m, 2)
    elif family == FAMILY_A_QUOTIENT:
        index = index_set_A
    else:
        raise InvalidArgument(f"unknown family {family!r}")
    level_sets = [index(m) for m in range(levels + 1)]
    edges = []
    for m in range(levels):
        pos = {mp: i for i, mp in enumerate(level_sets[m])}
        lvl = []
        for j, mp in enumerate(level_sets[m + 1]):
            for box in removable_boxes(mp):
                smaller = remove_box(mp, box)
                if smaller in pos:
                    lvl.append((pos[smaller], j))
        lvl.sort()
        edges.append(lvl)
    return BratteliGraph(family, level_sets, edges)


# -- JSON serialization ------------------------------------------------


def shape_to_json(shape):
    if isinstance(shape, SkewShape):
        return {"outer": list(shape.outer), "inner": list(shape.inner)}
    if is_multipartition(shape):
        return [list(p) for p in shape]
    return list(shape)


def tableau_to_json(t: StandardTableau):
    return {
        "shape": shape_to_json(t.shape),
        "entries": [
            {"entry": i + 1, "component": b[0], "row": b[1], "col": b[2]}
            for i, b in enumerate(t.boxes)
        ],
    }


def graph_to_json(g: BratteliGraph):
    return {
        "family": g.family,
        "levels": [[shape_to_json(v) for v in level] for level in g.levels],
        "edges": [[list(e) for e in lvl] for lvl in g.edges],
    }


def _json_list(text: str, spec: str, kind: str) -> list:
    """text as a JSON list; anything else raises InvalidArgument naming spec."""
    try:
        value = json.loads(text)
    except (ValueError, RecursionError):  # malformed, nested too deep, or an int too long
        value = None
    if type(value) is not list:
        raise InvalidArgument(f"bad {kind} {spec!r}")
    return value


def parse_multipartition(spec: str):
    """Parse a multipartition spec such as "[[2],[1,1]]", a JSON list of
    JSON lists."""
    parts = _json_list(spec, spec, "multipartition")
    if any(type(p) is not list for p in parts):
        raise InvalidArgument(f"bad multipartition {spec!r}")
    mp = tuple(map(tuple, parts))
    for p in mp:
        check_partition(p)
    return mp


def parse_skew(spec: str) -> SkewShape:
    """Parse a skew spec such as "[2,1]/[1]", a JSON list on each side."""
    outer, slash, inner = spec.partition("/")
    return SkewShape(
        tuple(_json_list(outer, spec, "skew shape")),
        tuple(_json_list(inner if slash else "[]", spec, "skew shape")),
    )
