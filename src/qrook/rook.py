"""The classical rook monoid at q = 1: partial injections of {1..k},
their matrix realization, and cardinality / dimension oracles."""

from __future__ import annotations

import math
from itertools import combinations, permutations

from .errors import InvalidArgument
from .linalg import Mat, span_dimension
from .qfield import RF_ONE


class PartialInjection:
    """A partial injective map {1..k} -> {1..k}, equivalently a k x k
    0/1 matrix with at most one nonzero entry in each row and column."""

    __slots__ = ("k", "mapping")

    def __init__(self, k: int, mapping: tuple):
        if len(mapping) != k:
            raise InvalidArgument("mapping length must equal k")
        seen = set()
        for v in mapping:
            if v is None:
                continue
            if not (1 <= v <= k) or v in seen:
                raise InvalidArgument("mapping must be injective into 1..k")
            seen.add(v)
        self.k = k
        self.mapping = tuple(mapping)

    @staticmethod
    def identity(k: int) -> "PartialInjection":
        return PartialInjection(k, tuple(range(1, k + 1)))

    @staticmethod
    def zero(k: int) -> "PartialInjection":
        return PartialInjection(k, (None,) * k)

    @staticmethod
    def transposition(k: int, i: int) -> "PartialInjection":
        if not 1 <= i <= k - 1:
            raise InvalidArgument("transposition index out of range")
        m = list(range(1, k + 1))
        m[i - 1], m[i] = m[i], m[i - 1]
        return PartialInjection(k, tuple(m))

    @staticmethod
    def partial_identity(k: int, domain) -> "PartialInjection":
        dom = set(domain)
        return PartialInjection(
            k, tuple(j if j in dom else None for j in range(1, k + 1))
        )

    def __call__(self, j: int):
        return self.mapping[j - 1]

    def __eq__(self, other):
        return (
            isinstance(other, PartialInjection)
            and self.k == other.k
            and self.mapping == other.mapping
        )

    def __hash__(self):
        return hash((self.k, self.mapping))

    def __repr__(self):
        return f"PartialInjection({self.k}, {self.mapping})"

    def sort_key(self):
        return tuple(0 if v is None else v for v in self.mapping)

    def to_rook_matrix(self) -> Mat:
        """k x k 0/1 matrix with entry (f(j), j) = 1 for j in the domain,
        so that matrix product matches functional composition."""
        m = Mat.zero(self.k)
        for j, v in enumerate(self.mapping, start=1):
            if v is not None:
                m.set(v - 1, j - 1, RF_ONE)
        return m


def compose(a: PartialInjection, b: PartialInjection) -> PartialInjection:
    """Functional composition a after b; matches 0/1 matrix product."""
    if a.k != b.k:
        raise InvalidArgument("size mismatch")
    out = []
    for j in range(1, a.k + 1):
        v = b(j)
        out.append(None if v is None else a(v))
    return PartialInjection(a.k, tuple(out))


def enumerate_rook(k: int):
    """All partial injections of {1..k}, in a deterministic order."""
    if k < 0:
        raise InvalidArgument("k must be >= 0")
    out = []
    universe = range(1, k + 1)
    for size in range(k + 1):
        for dom in combinations(universe, size):
            for img in permutations(universe, size):
                m = [None] * k
                for d, v in zip(dom, img):
                    m[d - 1] = v
                out.append(PartialInjection(k, tuple(m)))
    out.sort(key=PartialInjection.sort_key)
    return out


def rook_cardinality(k: int) -> int:
    """Closed-form count: sum over i of C(k,i)^2 * i!."""
    return sum(math.comb(k, i) ** 2 * math.factorial(i) for i in range(k + 1))


def generator_injections(k: int) -> dict:
    """The monoid elements that T_i and P_i specialize to at q = 1."""
    if k < 1:
        raise InvalidArgument("k must be >= 1")
    out = {}
    for i in range(1, k):
        out[f"T{i}"] = PartialInjection.transposition(k, i)
    for i in range(1, k + 1):
        out[f"P{i}"] = PartialInjection.partial_identity(
            k, range(i + 1, k + 1)
        )
    return out


def generators_q1(k: int) -> dict:
    """Matrix assignment at q = 1: T_i swaps rows i and i+1; P_i is the
    diagonal 0/1 matrix supported on rows i+1..k (P_k is the zero matrix,
    which is not the zero element of the monoid algebra)."""
    return {
        name: g.to_rook_matrix() for name, g in generator_injections(k).items()
    }


def monoid_closure(k: int):
    """The set of partial injections generated by generator_injections."""
    gens = list(generator_injections(k).values())
    seen = {PartialInjection.identity(k)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                p = compose(m, g)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return seen


def left_regular_assignment(k: int) -> dict:
    """Generators acting on the monoid algebra by left multiplication,
    on the basis of all rook matrices (the zero rook matrix included as
    a basis element in its own right)."""
    elements = enumerate_rook(k)
    index = {m: i for i, m in enumerate(elements)}
    n = len(elements)
    out = {}
    for name, g in generator_injections(k).items():
        mat = Mat.zero(n)
        for j, m in enumerate(elements):
            mat.set(index[compose(g, m)], j, RF_ONE)
        out[name] = mat
    return out


def monoid_algebra_dimension(k: int) -> int:
    """Dimension of the monoid algebra, i.e. the number of rook matrices."""
    return len(enumerate_rook(k))


def regular_dimension(k: int) -> int:
    """Word-span dimension of the left-regular representation; equals
    monoid_algebra_dimension(k) by faithfulness.

    It is computed on the orbit of e_1, the basis vector of the identity
    element, not on the n x n matrices (n = |R_k|): every a in the span
    is a sum of c_m L_m over left multiplications L_m by monoid elements
    m, and a e_1 = sum of c_m e_m, so a -> a e_1 is injective.  The
    dimension is therefore the same, and every word the suffix rule of
    linalg._saturate leaves out is left out soundly (see span_dimension).
    The decisions are even those of the n x n span: there a word is
    dependent iff its monoid element was met before, on the orbit iff
    the element of the reversed word was, and the reversed word gives
    the inverse element, since every generator is its own inverse."""
    asg = left_regular_assignment(k)
    gens = [asg[name] for name in sorted(asg)]
    identity = enumerate_rook(k).index(PartialInjection.identity(k))
    return span_dimension(gens, gens[0].n, {identity: RF_ONE})
