"""Sparse exact matrices over Q(q) and word-span saturation.

Matrices are dict-of-rows ``{i: {j: RatFunc}}`` with explicit size; zero
entries are never stored.  Row reduction pivots on the leftmost nonzero
column, which makes every dimension count reproducible.

``span_dimension`` has two exact paths with one breadth-first loop.
When every generator entry is a Laurent polynomial, it eliminates over
Z[q, q^-1] with plain integers (``LaurentSpan``), which is possible while
every pivot's lead entry is a unit +-q^a: dividing by a unit stays in the
ring, the candidates and the pivot rule are those of the Q(q) path, so
the vectors and every dependence decision are the same.  Otherwise, or at
the first lead entry that is not a unit, it runs from the start over Q(q)
(``RowSpan``), the general path and the oracle of record.
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
        """Every entry as an exact string, row by row.  Only stored entries
        are rendered, so the cost follows the nonzeros, not n^2."""
        zeros = ["0"] * self.n
        out = []
        for i in range(self.n):
            row = zeros.copy()
            for j, v in self.rows.get(i, {}).items():
                row[j] = str(v)
            out.append(row)
        return out


def hecke_inverse(t: Mat, qval: RatFunc, qinv: RatFunc) -> Mat:
    """Inverse of a matrix satisfying T^2 = (q - q^-1) T + 1."""
    inv = t.add_scalar(-(qval - qinv))
    if (t @ inv) != Mat.identity(t.n):
        raise NotInvertible("matrix does not satisfy the quadratic relation")
    return inv


class RowSpan:
    """Row-reduced basis of sparse vectors over Q(q), ``{index: RatFunc}``.

    Each pivot is stored under its leftmost column and normalised so that
    its entry there is exactly 1.  ``reduce`` and ``insert`` are written
    once; how a vector is stored is left to ``_copy``, ``_lead``,
    ``_subtract`` and ``_normalise``, which :class:`LaurentSpan`
    overrides."""

    def __init__(self):
        self.pivots: dict[int, dict] = {}  # pivot index -> normalized vector

    def reduce(self, vec: dict) -> dict:
        """A reduced copy of vec: its lead column holds no pivot."""
        vec = self._copy(vec)
        pivots = self.pivots
        while vec:
            lead = self._lead(vec)
            basis_vec = pivots.get(lead)
            if basis_vec is None:
                break
            self._subtract(vec, lead, basis_vec)
        return vec

    def insert(self, vec: dict) -> dict:
        """Reduce and insert; returns the normalized vector that was
        added, or an empty dict if the vector was dependent."""
        vec = self.reduce(vec)
        if not vec:
            return vec
        lead = self._lead(vec)
        vec = self._normalise(vec, lead)
        self.pivots[lead] = vec
        return vec

    def __len__(self):
        return len(self.pivots)

    _copy = staticmethod(dict)
    _lead = staticmethod(min)

    @staticmethod
    def _subtract(vec: dict, lead: int, basis_vec: dict):
        """vec -= vec[lead] * basis_vec, in place."""
        c = -vec[lead]
        for j, v in basis_vec.items():
            cur = vec.get(j)
            s = c * v if cur is None else cur + c * v
            if s.is_zero():
                vec.pop(j, None)
            else:
                vec[j] = s

    @staticmethod
    def _normalise(vec: dict, lead: int) -> dict:
        c = vec[lead].inv()
        return {j: c * v for j, v in vec.items()}


class NonUnitPivot(Exception):
    """A new pivot's lead entry is not a unit +-q^a of Z[q, q^-1]."""


class LaurentSpan(RowSpan):
    """The same elimination over Z[q, q^-1].

    A vector is a Laurent polynomial with integer vector coefficients,
    ``{exponent: {index: int}}`` with no empty coefficient, so every
    update is integer arithmetic on one flat dict.  While every pivot's
    lead entry is a unit +-q^a, normalising it needs no division and all
    vectors stay in Z[q, q^-1]; ``insert`` raises NonUnitPivot at the
    first lead entry that is anything else."""

    @staticmethod
    def _copy(vec: dict) -> dict:
        return {e: dict(s) for e, s in vec.items()}

    @staticmethod
    def _lead(vec: dict) -> int:
        return min(min(s) for s in vec.values())

    @staticmethod
    def _subtract(vec: dict, lead: int, basis_vec: dict):
        c = [(a, s[lead]) for a, s in vec.items() if lead in s]
        for a, x in c:
            for b, p in basis_vec.items():
                s = vec.get(a + b)
                if s is None:
                    vec[a + b] = {j: -x * y for j, y in p.items()}
                    continue
                for j, y in p.items():
                    t = s.get(j, 0) - x * y
                    if t:
                        s[j] = t
                    else:
                        del s[j]
                if not s:
                    del vec[a + b]

    @staticmethod
    def _normalise(vec: dict, lead: int) -> dict:
        c = [(a, s[lead]) for a, s in vec.items() if lead in s]
        if len(c) != 1 or c[0][1] not in (1, -1):
            raise NonUnitPivot
        ((a, x),) = c
        return {e - a: {j: x * y for j, y in s.items()} for e, s in vec.items()}


def _laurent_slices(g: Mat):
    """g as {exponent: {row: [(column, int), ...]}}, the coefficients of
    its powers of q, or None if an entry's denominator is not a monic
    power of q."""
    out: dict = {}
    for k, r in g.rows.items():
        for j, v in r.items():
            p = v.laurent()
            if p is None:
                return None
            for b, y in p.items():
                out.setdefault(b, {}).setdefault(k, []).append((j, y))
    return out


def _laurent_product(vec: dict, g: dict, n: int) -> dict:
    """The LaurentSpan vector of (vec as an n x n matrix) @ g, with g
    from _laurent_slices."""
    out: dict = {}
    for e, s in vec.items():
        for b, gb in g.items():
            acc = out.get(e + b)
            if acc is None:
                acc = out[e + b] = {}
            for idx, x in s.items():
                k = idx % n
                row = gb.get(k)
                if row is None:
                    continue
                base = idx - k
                for j, y in row:
                    acc[base + j] = acc.get(base + j, 0) + x * y
    for e, acc in list(out.items()):
        if 0 in acc.values():
            acc = out[e] = {j: x for j, x in acc.items() if x}
        if not acc:
            del out[e]
    return out


def _rational_product(vec: dict, g: Mat, n: int) -> dict:
    """The flattened (vec as an n x n matrix) @ g over Q(q)."""
    rows: dict = {}
    for idx, v in vec.items():
        rows.setdefault(idx // n, {})[idx % n] = v
    return (Mat(n, rows) @ g).flatten()


def _saturate(span: RowSpan, identity: dict, generators: list, product, n: int) -> int:
    """Breadth-first saturation: from the identity, each basis vector, in
    the order found, is multiplied by every generator in turn, and each
    product outside the span is inserted and queued."""
    basis = [span.insert(identity)]
    i = 0
    while i < len(basis):
        for g in generators:
            vec = span.insert(product(basis[i], g, n))
            if vec:
                basis.append(vec)
        i += 1
    return len(span)


def rational_span_dimension(generators: list[Mat], n: int) -> int:
    """span_dimension computed over Q(q) throughout: the general path,
    and the oracle the ring path is tested against."""
    identity = {i * (n + 1): RF_ONE for i in range(n)}
    return _saturate(RowSpan(), identity, generators, _rational_product, n)


def span_dimension(generators: list[Mat], n: int) -> int:
    """Dimension of the span of all words in the generators.

    Breadth-first saturation starting from the identity: whenever a
    product falls outside the current span it is appended (after pivot
    normalization) and later multiplied by every generator in turn.
    Terminates since the span dimension is at most n^2.

    Which path runs: when every generator entry is a Laurent polynomial
    (its denominator a monic power of q), the ring path saturates in a
    LaurentSpan over Z[q, q^-1].  It is exact and gives the Q(q) answer:
    it meets the same candidates in the same order as the Q(q) path and
    applies the same pivot rule, and while every pivot's lead entry is a
    unit +-q^a, normalising by its inverse keeps every vector in
    Z[q, q^-1] and equal, entry for entry, to the Q(q) path's vector; so
    every dependence decision is the same.  A lead entry that is not a
    unit raises NonUnitPivot, and the computation starts again from the
    identity on the Q(q) path (rational_span_dimension), which also runs
    at once when some generator entry has another denominator.
    """
    slices = [_laurent_slices(g) for g in generators]
    if all(s is not None for s in slices):
        identity = {0: {i * (n + 1): 1 for i in range(n)}}
        try:
            return _saturate(LaurentSpan(), identity, slices, _laurent_product, n)
        except NonUnitPivot:
            pass
    return rational_span_dimension(generators, n)
