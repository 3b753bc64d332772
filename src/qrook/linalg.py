"""Sparse exact matrices over Q(q) and word-span saturation.

Matrices are dict-of-rows ``{i: {j: RatFunc}}`` with explicit size; zero
entries are never stored.  Row reduction pivots on the leftmost nonzero
column, which makes every dimension count reproducible.

``span_dimension`` saturates a word span over Q(q) in one breadth-first
loop.  A product is formed on the flat vector: flat index i*n + k times
generator entry g[k][j] lands on i*n + j, one row lookup per term of the
vector, and ``RowSpan.reduce`` works in place on the fresh product.  Both
look every entry product and sum up in qfield's memo tables first, as
``Mat`` does.  The loop leaves out every word with a proper suffix whose
product reduced to zero: such a word already lies in the span, so the
pivots are unchanged (the standard-monomial argument of Bergman's diamond
lemma, proved at ``_saturate``).  The rule is kept with suffix links: each
basis vector knows the basis vector of its word without the first letter
and two bitmasks of letters, so a candidate costs one bit test.

``span_dimension(generators, n, vector=v)`` saturates the orbit of v
instead, as the row v^T times the transposed generators: n entries per
vector in place of n^2.  The suffix rule is exact there only when
a -> a v is injective on the algebra, as on the identity element that
``rook.regular_dimension`` starts from.
"""

from __future__ import annotations

from .errors import NotInvertible
from .qfield import _PRODUCTS, _SUMS, Q, QINV, RF_ONE, RF_ZERO, RatFunc, as_ratfunc


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
        """The matrix with every entry evaluated at q = q0 (exact), for a
        constant q0 of any type that RatFunc.at reads."""
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


def hecke_inverse(t: Mat) -> Mat:
    """Inverse of a matrix satisfying T^2 = (q - q^-1) T + 1, which is
    T - (q - q^-1).  The product T T^-1 is formed, and NotInvertible
    raised unless it is 1."""
    inv = t.add_scalar(QINV - Q)
    if (t @ inv) != Mat.identity(t.n):
        raise NotInvertible("matrix does not satisfy the quadratic relation")
    return inv


class RowSpan:
    """Row-reduced basis of sparse vectors over Q(q), ``{index: RatFunc}``.

    Each pivot is stored under its leftmost column, ``min(vec)``, and
    normalised so that its entry there is exactly 1.  A vector must store
    no zero entry, or its lead would be a false pivot.  Like ``Mat``, the
    updates look each product and sum up in qfield's memo tables and call
    the RatFunc operator only on a miss."""

    def __init__(self):
        self.pivots: dict[int, dict] = {}  # pivot index -> normalized vector

    def reduce(self, vec: dict) -> dict:
        """Reduce vec in place until its lead column holds no pivot, and
        return it; the caller hands over a vector nothing else holds."""
        pivots = self.pivots
        while vec:
            lead = min(vec)
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
        lead = min(vec)
        vec = self._normalise(vec, lead)
        self.pivots[lead] = vec
        return vec

    def __len__(self):
        return len(self.pivots)

    @staticmethod
    def _subtract(vec: dict, lead: int, basis_vec: dict):
        """vec -= vec[lead] * basis_vec, in place."""
        products, sums = _PRODUCTS, _SUMS
        c = -vec[lead]
        sid = c.sid
        for j, v in basis_vec.items():
            p = products.get((sid, v.sid)) or c * v
            cur = vec.get(j)
            if cur is None:
                vec[j] = p  # a product of nonzero entries is never zero
                continue
            s = sums.get((cur.sid, p.sid)) or cur + p
            if s.is_zero():
                del vec[j]
            else:
                vec[j] = s

    @staticmethod
    def _normalise(vec: dict, lead: int) -> dict:
        c = vec[lead].inv()
        if c is RF_ONE:
            return vec
        products, sid = _PRODUCTS, c.sid
        return {j: products.get((sid, v.sid)) or c * v for j, v in vec.items()}


def _rational_product(vec: dict, g: Mat, n: int) -> dict:
    """The flattened (vec as an n x n matrix) @ g: flat index idx = i*n + k
    times g[k][j] lands on idx - k + j, one row lookup per term of vec.
    A factor that is RF_ONE is not multiplied, and sums that cancel are
    dropped, so no zero entry is stored."""
    out: dict = {}
    grows, products, sums, one = g.rows, _PRODUCTS, _SUMS, RF_ONE
    summed = False  # a product of nonzero entries is never zero
    for idx, v in vec.items():
        k = idx % n
        row = grows.get(k)
        if not row:
            continue
        base, sid = idx - k, v.sid
        for j, y in row.items():
            p = v if y is one else y if v is one else products.get((sid, y.sid)) or v * y
            j += base
            cur = out.get(j)
            if cur is None:
                out[j] = p
            else:
                out[j] = sums.get((cur.sid, p.sid)) or cur + p
                summed = True
    if summed:
        out = {j: v for j, v in out.items() if not v.is_zero()}
    return out


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


def span_dimension(generators: list[Mat], n: int, vector=None) -> int:
    """Dimension over Q(q) of the span of all words in the generators or,
    given a vector v of length n ({index: RatFunc}, zero entries ignored),
    of all words applied to v.

    Breadth-first saturation starting from the identity (or from v):
    whenever a product falls outside the current span it is appended
    (after pivot normalization) and later multiplied by every generator
    in turn.  Terminates since the span dimension is at most n^2 (n for
    the orbit of v).  A word that has a proper suffix whose product
    reduced to zero is not formed: it already lies in the span (proof at
    _saturate).

    The identity is the flattened n x n identity matrix.  The orbit of v
    is saturated as the row v^T times the transposes g^T, since
    v^T g_1^T ... g_m^T = (g_m ... g_1 v)^T, so the word (t_1, ..., t_m)
    gives (g_tm ... g_t1 v)^T.  The rule is exact on it when a -> a v is
    injective on the span A of the words, as for the identity element of
    a regular representation.  Then M -> v^T M is injective on the span
    of the transposed words, so a candidate reduces to zero iff its word
    in the transposes does, and every decision, every word left out and
    the dimension are those of span_dimension on the transposes.  Without
    injectivity the rule is unsound, even for a cyclic vector of a
    faithful module (E_12 e_1 = 0 for the 2 x 2 matrices acting on C^2):
    that u v lies in the span of smaller words applied to v says nothing
    about u (x v).
    """
    if vector is None:
        start = {i * (n + 1): RF_ONE for i in range(n)}
    else:
        start = {j: v for j, v in vector.items() if not v.is_zero()}
        generators = [g.transpose() for g in generators]
    return _saturate(RowSpan(), start, generators, _rational_product, n)
