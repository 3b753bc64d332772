"""Partitions, skew shapes, multipartitions, standard tableaux, and
branching graphs.

A partition is a tuple of weakly decreasing positive ints; a box is a
triple ``(component, row, col)`` with 1-based row/col and ``component``
``None`` for plain and skew shapes.  Tableaux are stored as the sequence
of boxes holding 1, 2, ..., k; comparing those sequences lexicographically
is the canonical tableau order used to index matrix rows everywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, perm, prod

from .errors import InvalidArgument
from .qfield import RatFunc, as_ratfunc

Partition = tuple  # weakly decreasing tuple of positive ints
Box = tuple  # (component | None, row, col)


@dataclass(frozen=True)
class SkewShape:
    outer: Partition
    inner: Partition

    def __post_init__(self):
        check_partition(self.outer)
        check_partition(self.inner)
        inner = self.inner + (0,) * (len(self.outer) - len(self.inner))
        if len(self.inner) > len(self.outer) or any(
            i > o for i, o in zip(inner, self.outer)
        ):
            raise InvalidArgument("inner shape must fit inside the outer shape")

    def size(self):
        return sum(self.outer) - sum(self.inner)

    def boxes(self):
        inner = self.inner + (0,) * len(self.outer)
        return [
            (None, r + 1, c + 1)
            for r, row in enumerate(self.outer)
            for c in range(inner[r], row)
        ]


def check_partition(p):
    if any(type(x) is not int or x <= 0 for x in p) or any(
        p[i] < p[i + 1] for i in range(len(p) - 1)
    ):
        raise InvalidArgument(f"not a partition: {p}")


def partition_boxes(p, component=None):
    return [
        (component, r + 1, c + 1) for r, row in enumerate(p) for c in range(row)
    ]


def multipartition_boxes(mp):
    out = []
    for i, p in enumerate(mp):
        out.extend(partition_boxes(p, component=i + 1))
    return out


def shape_boxes(shape):
    if isinstance(shape, SkewShape):
        return shape.boxes()
    if shape and isinstance(shape[0], tuple):
        return multipartition_boxes(shape)
    return partition_boxes(shape)


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


def addable_boxes(shape):
    """Positions whose addition leaves a valid (multi)partition."""
    if isinstance(shape, SkewShape):
        raise InvalidArgument("addable boxes are defined for (multi)partitions")
    if is_multipartition(shape):
        out = []
        for i, p in enumerate(shape):
            out.extend(_addable_plain(p, i + 1))
        return out
    return _addable_plain(shape, None)


def _addable_plain(p, component):
    out = []
    for r in range(len(p)):
        if r == 0 or p[r] < p[r - 1]:
            out.append((component, r + 1, p[r] + 1))
    out.append((component, len(p) + 1, 1))
    return out


def removable_boxes(shape):
    if isinstance(shape, SkewShape):
        raise InvalidArgument("removable boxes are defined for (multi)partitions")
    if is_multipartition(shape):
        out = []
        for i, p in enumerate(shape):
            out.extend(_removable_plain(p, i + 1))
        return out
    return _removable_plain(shape, None)


def _removable_plain(p, component):
    out = []
    for r in range(len(p)):
        if r == len(p) - 1 or p[r] > p[r + 1]:
            out.append((component, r + 1, p[r]))
    return out


def remove_box(shape, box):
    """The (multi)partition obtained by removing a removable box."""
    comp, r, _ = box
    if is_multipartition(shape):
        p = list(shape[comp - 1])
        p[r - 1] -= 1
        newp = tuple(x for x in p if x)
        return shape[: comp - 1] + (newp,) + shape[comp:]
    p = list(shape)
    p[r - 1] -= 1
    return tuple(x for x in p if x)


@dataclass(frozen=True)
class StandardTableau:
    """A standard filling, stored as the boxes of entries 1..k in order."""

    shape: object
    boxes: tuple  # boxes[i] holds entry i+1

    def size(self):
        return len(self.boxes)

    def box_of(self, i: int):
        return self.boxes[i - 1]

    def entry_swap(self, i: int):
        """The filling with entries i and i+1 exchanged."""
        b = list(self.boxes)
        b[i - 1], b[i] = b[i], b[i - 1]
        return StandardTableau(self.shape, tuple(b))

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
    """All standard tableaux of a shape, in canonical (lex) order."""
    region = sorted(shape_boxes(shape), key=box_key)
    region_set = set(region)
    out = []
    filled = set()
    seq = []

    def rec():
        if len(seq) == len(region):
            out.append(StandardTableau(shape, tuple(seq)))
            return
        for box in region:
            if box in filled:
                continue
            comp, r, c = box
            left = (comp, r, c - 1)
            up = (comp, r - 1, c)
            if (left in region_set and left not in filled) or (
                up in region_set and up not in filled
            ):
                continue
            filled.add(box)
            seq.append(box)
            rec()
            seq.pop()
            filled.discard(box)

    rec()
    return out


def count_standard_tableaux(shape) -> int:
    """Number of standard tableaux of a shape, from a closed form; no
    tableau is built.

    A skew shape lambda/mu with n boxes has Aitken's determinant (1943)
    f = n! * det[1 / (lambda_i - mu_j - i + j)!], i, j over the rows of
    lambda and 1/m! = 0 for m < 0.  A partition is the case mu = (), where
    the determinant equals the Frame-Robinson-Thrall hook-length formula.
    A multipartition gets the multinomial C(n; |lambda^1|, ..., |lambda^r|)
    times the product of its components' counts.  The tests check it
    against ``len(enumerate_standard_tableaux(shape))``.
    """
    if isinstance(shape, SkewShape):
        return _aitken(tuple(shape.outer), tuple(shape.inner))
    if not is_multipartition(shape):
        return _aitken(tuple(shape), ())
    sizes = [sum(p) for p in shape]
    out = factorial(sum(sizes))
    for m in sizes:
        out //= factorial(m)
    for p in shape:
        out *= _aitken(tuple(p), ())
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


def content(box, u=None, shift: RatFunc | None = None) -> RatFunc:
    """The eigenvalue q^(2(c-r)) of a box, scaled by the component
    parameter u_i for multipartition boxes and by an optional extra
    factor ``shift``."""
    comp, r, c = box
    val = RatFunc.q_power(2 * (c - r))
    if comp is not None:
        if u is None or len(u) < comp:
            raise InvalidArgument(
                f"box in component {comp} needs at least {comp} u-parameters"
            )
        val = as_ratfunc(u[comp - 1]) * val
    if shift is not None:
        val = as_ratfunc(shift) * val
    return val


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


@dataclass
class BratteliGraph:
    family: str
    levels: list  # levels[m] = list of multipartitions with m boxes
    edges: list  # edges[m] = list of (i, j): levels[m][i] <-> levels[m+1][j]

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


def parse_multipartition(spec: str):
    """Parse a multipartition spec such as "[[2],[1,1]]"."""
    try:
        mp = tuple(tuple(p) for p in json.loads(spec))
        for p in mp:
            check_partition(p)
    except (json.JSONDecodeError, TypeError) as exc:
        raise InvalidArgument(f"bad multipartition {spec!r}") from exc
    return mp


def parse_skew(spec: str) -> SkewShape:
    """Parse a skew spec such as "[2,1]/[1]"."""
    outer, slash, inner = spec.partition("/")
    try:
        return SkewShape(tuple(json.loads(outer)), tuple(json.loads(inner if slash else "[]")))
    except (json.JSONDecodeError, TypeError) as exc:
        raise InvalidArgument(f"bad skew shape {spec!r}") from exc
