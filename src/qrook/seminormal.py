"""Seminormal matrix modules on standard tableaux.

Generators are named ``X1..Xk`` and ``T1..T(k-1)``.  Every X-matrix is
diagonal with content eigenvalues; every T-matrix has a diagonal entry
and at most one off-diagonal entry per column (the entry-swap term,
dropped when the swapped filling is not standard).
"""

from __future__ import annotations

from .errors import DegenerateContent, InvalidArgument
from .linalg import Mat
from .qfield import Q, QINV, RF_ONE, as_ratfunc
from .shapes import (
    SkewShape,
    check_partition,
    content,
    enumerate_standard_tableaux,
    index_set_H,
    is_multipartition,
    remove_box,
    shape_boxes,
    shape_to_json,
)


class Representation:
    __slots__ = ("k", "shape", "basis", "matrices")

    def __init__(self, k: int, shape, basis: tuple, matrices: dict):
        self.k = k
        self.shape = shape
        self.basis = basis  # StandardTableau, canonical order
        self.matrices = matrices  # generator name -> Mat

    def __repr__(self):
        return (
            f"Representation(k={self.k!r}, shape={self.shape!r}, "
            f"basis={self.basis!r}, matrices={self.matrices!r})"
        )

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def to_json(self):
        return {
            "k": self.k,
            "shape": shape_to_json(self.shape),
            "dimension": self.dimension,
            "matrices": {name: m.to_json() for name, m in sorted(self.matrices.items())},
        }


def _build_module(shape, k: int, scale: dict) -> Representation:
    """Common seminormal construction.  ``scale`` maps each component of
    the shape (``shapes._components``) to its factor, and a box's eigenvalue
    is that factor times ``content(box)``, computed once per box."""
    if len(shape_boxes(shape)) != k:
        raise InvalidArgument("shape size does not match k")
    basis = tuple(enumerate_standard_tableaux(shape))
    if not basis:
        raise InvalidArgument(f"shape {shape!r} has no standard tableaux")
    index = {t.boxes: i for i, t in enumerate(basis)}
    d = len(basis)
    contents = {box: scale[box[0]] * content(box) for box in basis[0].boxes}
    matrices = {}
    for i in range(1, k + 1):
        matrices[f"X{i}"] = Mat.diagonal([contents[t.box_of(i)] for t in basis])
    qdiff = Q - QINV
    entries = {}  # (content of i, content of i + 1) -> (diagonal, swap) entries
    for i in range(1, k):
        m = Mat(d)
        for col, t in enumerate(basis):
            boxes = t.boxes
            bi, bj = boxes[i - 1], boxes[i]
            same_comp = bi[0] == bj[0]
            if same_comp and bi[1] == bj[1]:  # same row
                m.set(col, col, Q)
            elif same_comp and bi[2] == bj[2]:  # same column
                m.set(col, col, -QINV)
            else:
                a, b = contents[bi], contents[bj]
                pair = entries.get((a, b))
                if pair is None:
                    if a == b:
                        raise DegenerateContent(
                            f"equal contents for adjacent entries {i},{i + 1} "
                            f"in shape {shape!r}"
                        )
                    diag = b * qdiff / (b - a)
                    pair = entries[a, b] = (diag, QINV + diag)
                m.set(col, col, pair[0])
                # the filling with i and i + 1 exchanged is standard
                m.set(index[boxes[: i - 1] + (bj, bi) + boxes[i + 1 :]], col, pair[1])
        matrices[f"T{i}"] = m
    return Representation(k, shape, basis, matrices)


def calibrated_skew_module(shape: SkewShape, k: int) -> Representation:
    """Seminormal module of a skew shape with contents q^(2(c-r))."""
    return _build_module(shape, k, {None: RF_ONE})


def cyclotomic_module(shape, u) -> Representation:
    """Seminormal module of an r-multipartition with contents u_i q^(2(c-r))."""
    if not is_multipartition(shape):
        raise InvalidArgument("expected a multipartition")
    for part in shape:
        check_partition(part)
    u = [as_ratfunc(x) for x in u]
    if len(u) != len(shape):
        raise InvalidArgument("need one u parameter per component")
    k = sum(sum(p) for p in shape)
    return _build_module(shape, k, dict(enumerate(u, start=1)))


def shifted_skew_module(k: int, d: int, u1) -> Representation:
    """The boundary-parameter skew module on shape (k-1,d)/(d-1) with
    contents scaled to u1 q^(2(c-r)+2); a module for the two-parameter
    algebra at u2 = q^(2d) u1."""
    if not 1 <= d < k:
        raise InvalidArgument("need 1 <= d < k")
    u1 = as_ratfunc(u1)
    if u1.is_zero():
        raise InvalidArgument("u1 must be nonzero")
    inner = (d - 1,) if d > 1 else ()
    shape = SkewShape((k - 1, d), inner)
    return _build_module(shape, k, {None: u1 * Q * Q})


def restrict(rep: Representation):
    """Partition the basis by the shape left after deleting the entry k;
    a module whose shape is not a multipartition raises InvalidArgument.

    Returns ``[(smaller_shape, indices), ...]`` with blocks in the order
    ``index_set_H(k - 1, r)`` lists the smaller shapes; the indices keep
    the basis's canonical order, so the truncated tableaux are in canonical
    order too.  On each block the submatrices of X1..X(k-1), T1..T(k-2)
    equal the seminormal module of the smaller shape.
    """
    if rep.k < 1:
        raise InvalidArgument("restriction needs k >= 1")
    if not is_multipartition(rep.shape):
        raise InvalidArgument("restrict is defined for multipartition modules")
    blocks: dict = {}
    for i, t in enumerate(rep.basis):
        blocks.setdefault(remove_box(rep.shape, t.box_of(rep.k)), []).append(i)
    order = index_set_H(rep.k - 1, len(rep.shape)).index
    return [(smaller, tuple(blocks[smaller])) for smaller in sorted(blocks, key=order)]
