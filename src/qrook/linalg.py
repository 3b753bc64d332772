"""Sparse exact matrices over Q(q) and word-span saturation.

Matrices are dict-of-rows ``{i: {j: RatFunc}}`` with explicit size; zero
entries are never stored.  Row reduction pivots on the leftmost nonzero
column, which makes every dimension count reproducible.
"""

from __future__ import annotations

from .errors import NotInvertible
from .qfield import RF_ONE, RF_ZERO, RatFunc, as_ratfunc


class Mat:
    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows=None):
        self.n = n
        self.rows = rows if rows is not None else {}

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat(n, {i: {i: RF_ONE} for i in range(n)})

    @staticmethod
    def zero(n: int) -> "Mat":
        return Mat(n)

    @staticmethod
    def diagonal(entries) -> "Mat":
        rows = {}
        for i, v in enumerate(entries):
            v = as_ratfunc(v)
            if not v.is_zero():
                rows[i] = {i: v}
        return Mat(len(entries), rows)

    @staticmethod
    def from_dense(data) -> "Mat":
        n = len(data)
        rows = {}
        for i, row in enumerate(data):
            r = {}
            for j, v in enumerate(row):
                v = as_ratfunc(v)
                if not v.is_zero():
                    r[j] = v
            if r:
                rows[i] = r
        return Mat(n, rows)

    def to_dense(self):
        return [
            [self.rows.get(i, {}).get(j, RF_ZERO) for j in range(self.n)]
            for i in range(self.n)
        ]

    def copy(self) -> "Mat":
        return Mat(self.n, {i: dict(r) for i, r in self.rows.items()})

    def get(self, i: int, j: int) -> RatFunc:
        return self.rows.get(i, {}).get(j, RF_ZERO)

    def set(self, i: int, j: int, v: RatFunc):
        v = as_ratfunc(v)
        if v.is_zero():
            if i in self.rows:
                self.rows[i].pop(j, None)
                if not self.rows[i]:
                    del self.rows[i]
        else:
            self.rows.setdefault(i, {})[j] = v

    def is_zero(self) -> bool:
        return not self.rows

    def specialize(self, q0) -> "Mat":
        """The matrix with every entry evaluated at q = q0 (exact)."""
        out = Mat(self.n)
        for i, r in self.rows.items():
            for j, v in r.items():
                out.set(i, j, RatFunc.from_fraction(v.specialize(q0)))
        return out

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __add__(self, other: "Mat") -> "Mat":
        out = self.copy()
        for i, row in other.rows.items():
            orow = out.rows.setdefault(i, {})
            for j, v in row.items():
                s = orow.get(j, RF_ZERO) + v
                if s.is_zero():
                    orow.pop(j, None)
                else:
                    orow[j] = s
            if not orow:
                del out.rows[i]
        return out

    def __neg__(self) -> "Mat":
        return Mat(self.n, {i: {j: -v for j, v in r.items()} for i, r in self.rows.items()})

    def __sub__(self, other: "Mat") -> "Mat":
        return self + (-other)

    def scale(self, c) -> "Mat":
        c = as_ratfunc(c)
        if c.is_zero():
            return Mat(self.n)
        return Mat(
            self.n,
            {i: {j: c * v for j, v in r.items()} for i, r in self.rows.items()},
        )

    def __matmul__(self, other: "Mat") -> "Mat":
        out_rows: dict = {}
        orows = other.rows
        for i, arow in self.rows.items():
            acc: dict = {}
            for k, av in arow.items():
                brow = orows.get(k)
                if not brow:
                    continue
                for j, bv in brow.items():
                    prod = av * bv
                    cur = acc.get(j)
                    acc[j] = prod if cur is None else cur + prod
            acc = {j: v for j, v in acc.items() if not v.is_zero()}
            if acc:
                out_rows[i] = acc
        return Mat(self.n, out_rows)

    def add_scalar(self, c) -> "Mat":
        """self + c * identity."""
        out = self.copy()
        c = as_ratfunc(c)
        for i in range(self.n):
            out.set(i, i, out.get(i, i) + c)
        return out

    def submatrix(self, indices) -> "Mat":
        pos = {orig: new for new, orig in enumerate(indices)}
        rows = {}
        for i in indices:
            r = {
                pos[j]: v
                for j, v in self.rows.get(i, {}).items()
                if j in pos
            }
            if r:
                rows[pos[i]] = r
        return Mat(len(indices), rows)

    def flatten(self) -> dict:
        """Sparse vector of length n*n, row-major."""
        return {
            i * self.n + j: v for i, r in self.rows.items() for j, v in r.items()
        }

    def first_entry_string(self) -> str:
        """Deterministic witness entry for reports: the entry at the
        lexicographically first nonzero position, or "0"."""
        if not self.rows:
            return "0"
        i = min(self.rows)
        j = min(self.rows[i])
        return str(self.rows[i][j])

    def to_json(self):
        return [[str(v) for v in row] for row in self.to_dense()]


def hecke_inverse(t: Mat, qval: RatFunc, qinv: RatFunc) -> Mat:
    """Inverse of a matrix satisfying T^2 = (q - q^-1) T + 1."""
    inv = t.add_scalar(-(qval - qinv))
    if (t @ inv) != Mat.identity(t.n):
        raise NotInvertible("matrix does not satisfy the quadratic relation")
    return inv


class RowSpan:
    """Row-reduced basis of sparse vectors over Q(q)."""

    def __init__(self):
        self.pivots: dict[int, dict] = {}  # pivot index -> normalized vector

    def reduce(self, vec: dict) -> dict:
        vec = dict(vec)
        changed = True
        while changed and vec:
            changed = False
            lead = min(vec)
            basis_vec = self.pivots.get(lead)
            if basis_vec is not None:
                c = -vec[lead]
                for j, v in basis_vec.items():
                    cur = vec.get(j)
                    s = c * v if cur is None else cur + c * v
                    if s.is_zero():
                        vec.pop(j, None)
                    else:
                        vec[j] = s
                changed = True
        return vec

    def insert(self, vec: dict) -> dict:
        """Reduce and insert; returns the normalized vector that was
        added, or an empty dict if the vector was dependent."""
        vec = self.reduce(vec)
        if not vec:
            return vec
        lead = min(vec)
        c = vec[lead].inv()
        vec = {j: c * v for j, v in vec.items()}
        self.pivots[lead] = vec
        return vec

    def __len__(self):
        return len(self.pivots)


def span_dimension(generators: list[Mat], n: int) -> int:
    """Dimension of the span of all words in the generators.

    Breadth-first saturation starting from the identity: whenever a
    product falls outside the current span it is appended (after pivot
    normalization) and later multiplied by every generator in turn.
    Terminates since the span dimension is at most n^2.
    """
    span = RowSpan()
    basis_mats: list[Mat] = []

    def try_add(m: Mat):
        vec = span.insert(m.flatten())
        if not vec:
            return
        rows: dict = {}
        for idx, v in vec.items():
            rows.setdefault(idx // n, {})[idx % n] = v
        basis_mats.append(Mat(n, rows))

    try_add(Mat.identity(n))
    i = 0
    while i < len(basis_mats):
        m = basis_mats[i]
        for g in generators:
            try_add(m @ g)
        i += 1
    return len(span)
