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

The ring path compiles each generator once into rows
``{k: ((j - k, exponent, int), ...)}``, so a product costs one row lookup
per term of the vector, and ``RowSpan.reduce`` works in place on the
fresh product.  Both paths leave out two kinds of product b h, for a
basis vector b found from a product a g, because b h already lies in the
span and the pivots are unchanged: h = g when g satisfies
g^2 = alpha g + beta (a Hecke generator, an idempotent), and h listed
before g when h g = g h (T_i and T_j with |i - j| >= 2, X1 and T_j with
j >= 2).  Which products are left out is one table, ``_skip_table``,
computed once per call.
"""

from __future__ import annotations

from .errors import NotInvertible
from .qfield import RF_ONE, RF_ZERO, RatFunc, as_ratfunc


class Mat:
    """An n x n matrix over Q(q), ``rows`` = ``{i: {j: RatFunc}}``.

    Invariant: no zero entry and no empty row is stored.  Every method
    keeps it, and only this module builds a Mat from a rows dict or writes
    into ``rows`` (tests/test_hygiene.py checks that statically).  ``==``
    relies on it: two matrices are equal iff their rows dicts are, which
    is how ``presentations.verify`` decides that a relation holds."""

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
    once; how a vector is stored is left to ``_lead``, ``_subtract`` and
    ``_normalise``, which :class:`LaurentSpan` overrides."""

    def __init__(self):
        self.pivots: dict[int, dict] = {}  # pivot index -> normalized vector

    def reduce(self, vec: dict) -> dict:
        """Reduce vec in place until its lead column holds no pivot, and
        return it; the caller hands over a vector nothing else holds."""
        pivots = self.pivots
        while vec:
            lead = self._lead(vec)
            basis_vec = pivots.get(lead)
            if basis_vec is None:
                break
            self._subtract(vec, lead, basis_vec)
        return vec

    def insert(self, vec: dict) -> dict:
        """Reduce vec (in place) and insert it; returns the normalized
        vector that was added, or an empty dict if vec was dependent."""
        vec = self.reduce(vec)
        if not vec:
            return vec
        lead = self._lead(vec)
        vec = self._normalise(vec, lead)
        self.pivots[lead] = vec
        return vec

    def __len__(self):
        return len(self.pivots)

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


def _compile(g: Mat):
    """g as rows {k: ((j - k, exponent, int), ...)}: row k of g with each
    entry split into the integer coefficients of its powers of q, or None
    if an entry's denominator is not a monic power of q."""
    out: dict = {}
    for k, r in g.rows.items():
        row = out[k] = []
        for j, v in r.items():
            p = v.laurent()
            if p is None:
                return None
            row.extend((j - k, b, y) for b, y in p.items())
    return {k: tuple(row) for k, row in out.items()}


def _laurent_product(vec: dict, rows: dict, n: int) -> dict:
    """The LaurentSpan vector of (vec as an n x n matrix) @ g, with g
    compiled by _compile: flat index i*n + k times g[k][j] lands on
    i*n + j, one row lookup per term of vec."""
    out: dict = {}
    for e, s in vec.items():
        for idx, x in s.items():
            row = rows.get(idx % n)
            if row is None:
                continue
            for d, b, y in row:
                acc = out.get(e + b)
                if acc is None:
                    out[e + b] = {idx + d: x * y}
                else:
                    acc[idx + d] = acc.get(idx + d, 0) + x * y
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
    prod = Mat(n, rows) @ g
    return {i * n + j: v for i, r in prod.rows.items() for j, v in r.items()}


def _is_quadratic(g: Mat) -> bool:
    """Whether g @ g == alpha g + beta for some scalars alpha, beta.

    alpha and beta are read from entries: from an off-diagonal nonzero
    (i, j) of g, alpha = (g @ g)[i, j] / g[i, j] and beta = (g @ g)[i, i]
    - alpha g[i, i]; for a diagonal g, from its first two distinct
    diagonal values d, e (padded with 0), alpha = d + e and beta = -d e.
    The identity itself is then checked exactly."""
    g2 = g @ g
    off = next(((i, j) for i, r in g.rows.items() for j in r if j != i), None)
    if off is not None:
        i, j = off
        alpha = g2.get(i, j) / g.get(i, j)
        beta = g2.get(i, i) - alpha * g.get(i, i)
    else:
        d, e = (list(dict.fromkeys(g.get(i, i) for i in range(g.n))) + [RF_ZERO] * 2)[:2]
        alpha, beta = d + e, -(d * e)
    return g2 == g.scale(alpha).add_scalar(beta)


def _skip_table(generators: list) -> list:
    """skip[f][t]: whether _saturate leaves out b g_t for a basis vector b
    found from a product with g_f.  skip[f][f] is _is_quadratic(g_f);
    skip[f][t] for t < f is the exact test g_f g_t == g_t g_f; skip[f][t]
    for t > f is False (proof at _saturate)."""
    return [
        [_is_quadratic(g) if t == f else t < f and g @ h == h @ g
         for t, h in enumerate(generators)]
        for f, g in enumerate(generators)
    ]


def _saturate(span: RowSpan, identity: dict, generators: list, product, n: int,
              skip: list) -> int:
    """Breadth-first saturation: from the identity, each basis vector, in
    the order found, is multiplied by every generator in turn, and each
    product outside the span is inserted and queued.

    Some products are not formed, because they are already in the span.
    Say the basis vector b was found by reducing a g_f, with generator f:
    b = c (a g_f - sum_m l_m b_m) over basis vectors b_m found before b.
    Every vector found before b is taken before b, so its products with
    every generator are in the span when b is taken (formed then, or
    skipped by the same argument).  Then b g_t is skipped when skip[f][t]
    holds (see _skip_table):

    - t = f and g_f is quadratic, g_f^2 = alpha g_f + beta.  Then
      b g_f = c (alpha a g_f + beta a - sum_m l_m b_m g_f): a and a g_f
      lie in the span, and so does each b_m g_f.
    - t < f and g_t g_f = g_f g_t.  Then
      b g_t = c (a g_t g_f - sum_m l_m b_m g_t).  a g_t was formed (or
      skipped) before a g_f, as t < f, so it lies in the span of vectors
      found before b, and each of those times g_f is in the span; so is
      each b_m g_t.

    A skipped product would reduce to zero, so the pivots are those of
    the loop without any skip.  No rule holds for t > f: a g_t is formed
    after a g_f, so it need not lie in the span of vectors found before
    b."""
    basis = [span.insert(identity)]
    found_by = [[False] * len(generators)]  # skip[f] when basis[i] came from generator f
    i = 0
    while i < len(basis):
        skips = found_by[i]
        for t, g in enumerate(generators):
            if skips[t]:
                continue
            vec = span.insert(product(basis[i], g, n))
            if vec:
                basis.append(vec)
                found_by.append(skip[t])
        i += 1
    return len(span)


def rational_span_dimension(generators: list[Mat], n: int, skip=None) -> int:
    """span_dimension computed over Q(q) throughout: the general path,
    and the oracle the ring path is tested against.  skip is
    _skip_table(generators) when the caller has it already."""
    if skip is None:
        skip = _skip_table(generators)
    identity = {i * (n + 1): RF_ONE for i in range(n)}
    return _saturate(RowSpan(), identity, generators, _rational_product, n, skip)


def span_dimension(generators: list[Mat], n: int) -> int:
    """Dimension of the span of all words in the generators.

    Breadth-first saturation starting from the identity: whenever a
    product falls outside the current span it is appended (after pivot
    normalization) and later multiplied by every generator in turn.
    Terminates since the span dimension is at most n^2.  The table
    _skip_table is computed once: each generator g is tested for a
    quadratic relation g^2 = alpha g + beta (Hecke generators and
    idempotents satisfy one), and each pair for commuting.  A basis
    vector found as a product with g is not multiplied by g again when g
    is quadratic, nor by a generator h listed before g with h g = g h:
    those products already lie in the span (proof at _saturate).  Both
    paths share the table.

    Which path runs: when every generator entry is a Laurent polynomial
    (its denominator a monic power of q), the ring path saturates in a
    LaurentSpan over Z[q, q^-1], with each generator compiled once into
    rows {k: ((j - k, exponent, int), ...)} of integer coefficients.  It
    is exact and gives the Q(q) answer: it meets the same candidates in
    the same order as the Q(q) path and applies the same pivot rule, and
    while every pivot's lead entry is a unit +-q^a, normalising by its
    inverse keeps every vector in Z[q, q^-1] and equal, entry for entry,
    to the Q(q) path's vector; so every dependence decision is the same.
    A lead entry that is not a unit raises NonUnitPivot, and the
    computation starts again from the identity on the Q(q) path
    (rational_span_dimension), which also runs at once when some
    generator entry has another denominator.
    """
    skip = _skip_table(generators)
    rows = [_compile(g) for g in generators]
    if all(r is not None for r in rows):
        # no empty slice: the zero exponent is left out when n is 0
        identity = {0: {i * (n + 1): 1 for i in range(n)}} if n else {}
        try:
            return _saturate(LaurentSpan(), identity, rows, _laurent_product, n, skip)
        except NonUnitPivot:
            pass
    return rational_span_dimension(generators, n, skip)
