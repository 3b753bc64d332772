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
fresh product.  Both paths leave out every word with a proper suffix
whose product reduced to zero: such a word already lies in the span, so
the pivots are unchanged (the standard-monomial argument of Bergman's
diamond lemma, proved at ``_saturate``).  The rule is kept with suffix
links: each basis vector knows the basis vector of its word without the
first letter and two bitmasks of letters, so a candidate costs one bit
test.

``span_dimension(generators, n, vector=v)`` saturates the orbit of v
instead, as the row v^T times the transposed generators: n entries per
vector in place of n^2.  The suffix rule is exact there only when
a -> a v is injective on the algebra, as on the identity element that
``rook.regular_dimension`` starts from.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotInvertible
from .qfield import _PRODUCTS, _SUMS, RF_ONE, RF_ZERO, RatFunc, as_ratfunc


class Mat:
    """An n x n matrix over Q(q), ``rows`` = ``{i: {j: RatFunc}}``.

    Invariant: no zero entry and no empty row is stored.  Every method
    keeps it, and only this module builds a Mat from a rows dict or writes
    into ``rows`` (tests/test_hygiene.py checks that statically).  ``==``
    relies on it: two matrices are equal iff their rows dicts are, which
    is how ``presentations.verify`` decides that a relation holds.

    ``+``, ``@`` and ``scale`` look each entry sum and product up in
    qfield's memo tables themselves and call the RatFunc operator only on
    a miss, which stores it; a RatFunc is always true, so ``or`` falls
    through exactly on a miss."""

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

    def transpose(self) -> "Mat":
        rows: dict = {}
        for i, r in self.rows.items():
            for j, v in r.items():
                rows.setdefault(j, {})[i] = v
        return Mat(self.n, rows)

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
        q0 = Fraction(q0)
        out = Mat(self.n)
        for i, r in self.rows.items():
            for j, v in r.items():
                out.set(i, j, v.at(q0))
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
                cur = orow.get(j, RF_ZERO)
                s = _SUMS.get((cur.sid, v.sid)) or cur + v
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
        products, sid = _PRODUCTS, c.sid
        return Mat(
            self.n,
            {
                i: {j: products.get((sid, v.sid)) or c * v for j, v in r.items()}
                for i, r in self.rows.items()
            },
        )

    def __matmul__(self, other: "Mat") -> "Mat":
        out_rows: dict = {}
        orows = other.rows
        products, sums = _PRODUCTS, _SUMS
        for i, arow in self.rows.items():
            acc: dict = {}
            summed = False  # a product of nonzero entries is never zero
            for k, av in arow.items():
                brow = orows.get(k)
                if not brow:
                    continue
                sid = av.sid
                for j, bv in brow.items():
                    prod = products.get((sid, bv.sid)) or av * bv
                    cur = acc.get(j)
                    if cur is None:
                        acc[j] = prod
                    else:
                        acc[j] = sums.get((cur.sid, prod.sid)) or cur + prod
                        summed = True
            if summed:
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
        are rendered, each distinct value once, so the cost follows the
        nonzeros, not n^2."""
        zeros = ["0"] * self.n
        text: dict = {}  # sid -> str of that entry value
        out = []
        for i in range(self.n):
            row = zeros.copy()
            for j, v in self.rows.get(i, {}).items():
                s = text.get(v.sid)
                if s is None:
                    s = text[v.sid] = str(v)
                row[j] = s
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


def _saturate(span: RowSpan, start: dict, generators: list, product, n: int) -> int:
    """Breadth-first saturation: from start, each basis vector, in
    the order found, is multiplied by every generator in turn, and each
    product outside the span is inserted and queued.

    Every basis vector i stands for the word that found it: () for
    start, words[i] + (t,) for basis[i] times generator t.  A word
    whose product reduced to zero is dependent, and a candidate w + (t,)
    is not formed when one of its proper suffixes w[j:] + (t,), j >= 1, is
    dependent, because it already lies in the span and every pivot is
    unchanged:

    - The loop meets candidates in degree-lexicographic order (shorter
      words first, then letter by letter from the left), which is
      admissible: u < v implies x u y < x v y.
    - So when a candidate is formed, the span holds every word smaller
      than it, and "reduces to zero" means "lies in the span of smaller
      words".
    - That set of words is closed under left multiplication: u = sum of
      words v_m < u gives x u = sum of x v_m with x v_m < x u.  So a word
      with such a suffix lies in the span of smaller words, which the
      span already holds.
    - Subwords of a standard word (one not in the span of smaller words)
      are standard, and w is a basis word; so only suffixes that end in t
      need checking, and a suffix left out itself has a shorter suffix
      that is dependent.

    The rule is kept with suffix links, as in Aho & Corasick (1975), so a
    candidate costs one bit test and no word is built.  Basis vector i
    keeps suffix[i], the basis index s of words[i][1:] (0 for a word of
    one letter), and two bitmasks over the letters: reduced[i], the t
    whose product words[i] + (t,) reduced to zero, and banned[i], the t
    that the rule leaves out.  Then banned[0] = 0, and for i >= 1

        banned[i] = reduced[s] | banned[s]:

    - The suffixes of words[i] + (t,) are words[i][j:] + (t,) for
      j = 1 .. |words[i]|.  The one for j = 1 is words[s] + (t,), which
      is dependent iff it was formed and reduced to zero, i.e. iff t is
      in reduced[s] (s < i, so s is processed and reduced[s] complete).
    - The ones for j >= 2 are words[s][j - 1:] + (t,), the proper
      suffixes of words[s] + (t,); one of them is dependent iff t is in
      banned[s].

    A product words[i] + (t,) that is inserted has t outside both masks
    of s, so words[s] + (t,) was formed and inserted too, and its index,
    found[s, t], is the suffix link of the new vector.  The rules
    g^2 = alpha g + beta (a Hecke generator, an idempotent) and
    g_f g_t = g_t g_f for t < f are special cases: (f, f) and (f, t) are
    two-letter words that reduce to zero."""
    basis = [span.insert(start)]
    suffix, banned, reduced = [0], [], []
    found = {}  # (i, t) -> basis index of words[i] + (t,)
    i = 0
    while i < len(basis):
        s = suffix[i]
        skip = reduced[s] | banned[s] if i else 0
        zero = 0
        for t, g in enumerate(generators):
            if skip >> t & 1:
                continue
            vec = span.insert(product(basis[i], g, n))
            if vec:
                found[i, t] = len(basis)
                suffix.append(found[s, t] if i else 0)
                basis.append(vec)
            else:
                zero |= 1 << t
        banned.append(skip)
        reduced.append(zero)
        i += 1
    return len(span)


def _start(generators: list[Mat], n: int, vector):
    """The vector a saturation starts from and the generators it
    multiplies by on the right: the flattened n x n identity and the
    generators or, for span_dimension(..., vector=v), v as a 1 x n row
    and the transposes, since v^T g_1^T ... g_m^T = (g_m ... g_1 v)^T."""
    if vector is None:
        return {i * (n + 1): RF_ONE for i in range(n)}, generators
    return dict(vector), [g.transpose() for g in generators]


def _laurent_vector(vec: dict):
    """vec as a LaurentSpan vector {exponent: {index: int}}, or None if
    an entry is not a Laurent polynomial."""
    out: dict = {}
    for j, v in vec.items():
        p = v.laurent()
        if p is None:
            return None
        for e, c in p.items():
            out.setdefault(e, {})[j] = c
    return out


def rational_span_dimension(generators: list[Mat], n: int, vector=None) -> int:
    """span_dimension computed over Q(q) throughout: the general path,
    and the oracle the ring path is tested against."""
    start, generators = _start(generators, n, vector)
    return _saturate(RowSpan(), start, generators, _rational_product, n)


def span_dimension(generators: list[Mat], n: int, vector=None) -> int:
    """Dimension of the span of all words in the generators or, given a
    vector v of length n ({index: RatFunc}), of all words applied to v.

    Breadth-first saturation starting from the identity (or from v):
    whenever a product falls outside the current span it is appended
    (after pivot normalization) and later multiplied by every generator
    in turn.  Terminates since the span dimension is at most n^2 (n for
    the orbit of v).  A word that has a proper suffix whose product
    reduced to zero is not formed: it already lies in the span (proof at
    _saturate).  Both paths use the rule.

    The orbit of v is saturated as the row v^T times the transposes
    g^T, so the word (t_1, ..., t_m) gives (g_tm ... g_t1 v)^T.  The rule
    is exact on it when a -> a v is injective on the span A of the words,
    as for the identity element of a regular representation.  Then
    M -> v^T M is injective on the span of the transposed words, so a
    candidate reduces to zero iff its word in the transposes does, and
    every decision, every word left out and the dimension are those of
    span_dimension on the transposes.  Without injectivity the rule is
    unsound, even for a cyclic vector of a faithful module (E_12 e_1 = 0
    for the 2 x 2 matrices acting on C^2): that u v lies in the span of
    smaller words applied to v says nothing about u (x v).

    Which path runs: when every generator entry (and every entry of v)
    is a Laurent polynomial (its denominator a monic power of q), the
    ring path saturates in a LaurentSpan over Z[q, q^-1], with each
    generator compiled once into rows {k: ((j - k, exponent, int), ...)}
    of integer coefficients.  It is exact and gives the Q(q) answer: it
    meets the same candidates in the same order as the Q(q) path and
    applies the same pivot rule, and while every pivot's lead entry is a
    unit +-q^a, normalising by its inverse keeps every vector in
    Z[q, q^-1] and equal, entry for entry, to the Q(q) path's vector; so
    every dependence decision, and so every word left out, is the same.
    A lead entry that is not a unit raises NonUnitPivot, and the
    computation starts again from the identity (or v), with no word
    known to reduce to zero, on the Q(q) path (rational_span_dimension),
    which also runs at once when some entry has another denominator.
    """
    start, gens = _start(generators, n, vector)
    rows = [_compile(g) for g in gens]
    start = _laurent_vector(start)
    if start is not None and all(r is not None for r in rows):
        try:
            return _saturate(LaurentSpan(), start, rows, _laurent_product, n)
        except NonUnitPivot:
            pass
    return rational_span_dimension(generators, n, vector)
