"""Seminormal matrix modules on standard tableaux.

Generators are named ``X1..Xk`` and ``T1..T(k-1)``.  Every X-matrix is
diagonal with content eigenvalues; every T-matrix has a diagonal entry
and at most one off-diagonal entry per column (the entry-swap term,
dropped when the swapped filling is not standard).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateContent, InvalidArgument
from .linalg import Mat
from .qfield import Q, QINV, as_ratfunc
from .shapes import (
    SkewShape,
    box_key,
    content,
    enumerate_standard_tableaux,
    index_set_H,
    is_multipartition,
    remove_box,
    shape_to_json,
)


@dataclass
class Representation:
    k: int
    shape: object
    basis: tuple  # StandardTableau, canonical order
    matrices: dict  # generator name -> Mat

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


def _build_module(shape, k: int, ct) -> Representation:
    """Common seminormal construction from a content function box -> RatFunc,
    evaluated once per box."""
    basis = tuple(enumerate_standard_tableaux(shape))
    if not basis:
        raise InvalidArgument(f"shape {shape!r} has no standard tableaux")
    if basis[0].size() != k:
        raise InvalidArgument("shape size does not match k")
    index = {t.boxes: i for i, t in enumerate(basis)}
    d = len(basis)
    contents = {box: ct(box) for box in basis[0].boxes}
    matrices = {}
    for i in range(1, k + 1):
        matrices[f"X{i}"] = Mat.diagonal([contents[t.box_of(i)] for t in basis])
    qdiff = Q - QINV
    for i in range(1, k):
        m = Mat(d)
        for col, t in enumerate(basis):
            bi, bj = t.box_of(i), t.box_of(i + 1)
            same_comp = bi[0] == bj[0]
            if same_comp and bi[1] == bj[1]:  # same row
                diag = Q
                swap_standard = False
            elif same_comp and bi[2] == bj[2]:  # same column
                diag = -QINV
                swap_standard = False
            else:
                a, b = contents[bi], contents[bj]
                if a == b:
                    raise DegenerateContent(
                        f"equal contents for adjacent entries {i},{i + 1} "
                        f"in shape {shape!r}"
                    )
                diag = b * qdiff / (b - a)
                swap_standard = True
            m.set(col, col, diag)
            if swap_standard:
                swapped = t.entry_swap(i)
                row = index[swapped.boxes]
                m.set(row, col, QINV + diag)
        matrices[f"T{i}"] = m
    return Representation(k, shape, basis, matrices)


def calibrated_skew_module(shape: SkewShape, k: int) -> Representation:
    """Seminormal module of a skew shape with contents q^(2(c-r))."""
    if shape.size() != k:
        raise InvalidArgument("skew shape must have k boxes")
    return _build_module(shape, k, lambda b: content(b))


def cyclotomic_module(shape, u) -> Representation:
    """Seminormal module of an r-multipartition with contents u_i q^(2(c-r))."""
    if not is_multipartition(shape):
        raise InvalidArgument("expected a multipartition")
    u = [as_ratfunc(x) for x in u]
    if len(u) != len(shape):
        raise InvalidArgument("need one u parameter per component")
    k = sum(sum(p) for p in shape)
    return _build_module(shape, k, lambda b: content(b, u=u))


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
    shift = u1 * Q * Q
    return _build_module(shape, k, lambda b: content(b, shift=shift))


def restrict(rep: Representation):
    """Partition the basis by the shape left after deleting the entry k.

    Returns ``[(smaller_shape, indices), ...]`` with blocks in the order
    ``index_set_H(k - 1, r)`` lists the smaller shapes and indices so the
    truncated tableaux appear in canonical order.  On each block the
    submatrices of X1..X(k-1), T1..T(k-2) equal the seminormal module of
    the smaller shape.
    """
    if rep.k < 1:
        raise InvalidArgument("restriction needs k >= 1")
    blocks: dict = {}
    for i, t in enumerate(rep.basis):
        last = t.box_of(rep.k)
        smaller = remove_box(rep.shape, last) if is_multipartition(rep.shape) else None
        if smaller is None:
            raise InvalidArgument("restrict is defined for multipartition modules")
        truncated = t.boxes[:-1]
        blocks.setdefault(smaller, []).append((truncated, i))
    out = []
    for smaller in sorted(blocks, key=index_set_H(rep.k - 1, len(rep.shape)).index):
        entries = blocks[smaller]
        entries.sort(key=lambda e: tuple(map(box_key, e[0])))
        out.append((smaller, tuple(i for _, i in entries)))
    return out

