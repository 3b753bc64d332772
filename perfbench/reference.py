"""Answers computed without qrook, and the checks that compare job output
against them.

Every count here comes from a closed formula or a published table, never
from the library under test: tableau counts from the hook-length formula,
skew counts from Aitken's determinant, rook-monoid cardinalities from
OEIS A002720.  A check takes a job's exit code and stdout and returns a
list of discrepancies; an empty list means the job is right.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, factorial, prod

# OEIS A002720: number of partial injections of {1..k}, k = 1..11.
ROOK_CARDINALITY = {
    1: 2, 2: 7, 3: 34, 4: 209, 5: 1546, 6: 13327, 7: 130922,
    8: 1441729, 9: 17572114, 10: 234662231, 11: 3405357682,
}


def partitions(n: int, largest: int | None = None):
    """Partitions of n as weakly decreasing tuples, largest part first."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def hook_length_count(shape) -> int:
    """Standard tableaux of a straight shape, by the hook-length formula."""
    n = sum(shape)
    conj = [sum(1 for row in shape if row > c) for c in range(shape[0] if shape else 0)]
    hooks = prod(
        (row - c - 1) + (conj[c] - r - 1) + 1
        for r, row in enumerate(shape)
        for c in range(row)
    )
    return factorial(n) // hooks


def multi_count(components) -> int:
    """Standard tableaux of a multipartition: the multinomial choice of
    which entries go to each component times each component's count."""
    sizes = [sum(p) for p in components]
    out = factorial(sum(sizes))
    for p, s in zip(components, sizes):
        out = out // factorial(s) * hook_length_count(p)
    return out


def aitken_count(outer, inner) -> int:
    """Standard tableaux of the skew shape outer/inner, by Aitken's
    determinant n! det[1 / (outer_i - inner_j - i + j)!]."""
    m = len(outer)
    inner = tuple(inner) + (0,) * (m - len(inner))
    n = sum(outer) - sum(inner)

    def entry(i, j):
        a = outer[i] - inner[j] - i + j
        return Fraction(1, factorial(a)) if a >= 0 else Fraction(0)

    mat = [[entry(i, j) for j in range(m)] for i in range(m)]
    det = Fraction(1)
    for col in range(m):
        piv = next((r for r in range(col, m) if mat[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        for r in range(col + 1, m):
            f = mat[r][col] / mat[col][col]
            mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
    return int(det * factorial(n))


def one_row_pairs(k: int):
    """Index set of the two-parameter quotient: pairs (one-row, any) of
    partitions with k boxes in total."""
    return [
        ((a,) if a else (), lam) for a in range(k + 1) for lam in partitions(k - a)
    ]


def bipartitions(n: int):
    return [(a, b) for s in range(n + 1) for a in partitions(s) for b in partitions(n - s)]


def centralizer_dimension(k: int, dims) -> int:
    """Sum of squared tableau counts over r-multipartitions of k whose i-th
    component has at most dims[i] rows."""
    def tuples(n, r):
        if r == 1:
            return [(p,) for p in partitions(n)]
        return [
            (p,) + rest
            for s in range(n + 1)
            for p in partitions(s)
            for rest in tuples(n - s, r - 1)
        ]
    return sum(
        multi_count(mp) ** 2
        for mp in tuples(k, len(dims))
        if all(len(p) <= m for p, m in zip(mp, dims))
    )


def regular_dimension(k: int) -> int:
    return sum(multi_count(mp) ** 2 for mp in one_row_pairs(k))


# -- checks -----------------------------------------------------------------


def _load(text: str):
    try:
        return json.loads(text), []
    except json.JSONDecodeError as exc:
        return None, [f"stdout is not JSON: {exc}"]


def _expect(errors, what, got, want):
    if got != want:
        errors.append(f"{what}: got {got!r}, want {want!r}")


def check_verify_modules(k: int):
    """PASS on every module of the one-row-first-component index set."""
    want_keys = sorted(json.dumps([list(a), list(b)]) for a, b in one_row_pairs(k))

    def check(code, text):
        payload, errors = _load(text)
        _expect(errors, "exit code", code, 0)
        if payload is None:
            return errors
        _expect(errors, "passed", payload.get("passed"), True)
        modules = payload.get("modules", {})
        _expect(errors, "modules", sorted(modules), want_keys)
        bad = [
            f"{shape}:{rel['name']}"
            for shape, rep in modules.items()
            for rel in rep.get("relations", [])
            if not rel.get("ok")
        ]
        if bad or not all(rep.get("relations") for rep in modules.values()):
            errors.append(f"failing or empty relations: {bad[:5]}")
        return errors

    return check


def check_verify_single(code, text):
    """PASS on a single suite (the q = 1 rook matrices)."""
    payload, errors = _load(text)
    _expect(errors, "exit code", code, 0)
    if payload is not None:
        _expect(errors, "passed", payload.get("passed"), True)
        rels = payload.get("relations", [])
        if not rels or not all(r.get("ok") for r in rels):
            errors.append("failing or empty relations")
    return errors


def check_schurweyl(k: int, dims):
    want = centralizer_dimension(k, dims)

    def check(code, text):
        payload, errors = _load(text)
        _expect(errors, "exit code", code, 0)
        if payload is None:
            return errors
        _expect(errors, "passed", payload.get("passed"), True)
        cent = payload.get("centralizer", {})
        _expect(errors, "centralizer dimension", cent.get("dimension"), want)
        _expect(errors, "predicted dimension", cent.get("predicted"), want)
        for suite in ("cyclotomic", "quotient"):
            if suite in payload:
                _expect(errors, f"{suite} passed", payload[suite].get("passed"), True)
        return errors

    return check


def check_regular_dimension(k: int):
    def check(code, text):
        errors = []
        _expect(errors, "exit code", code, 0)
        _expect(errors, "dimension vs A002720", text.strip(), str(ROOK_CARDINALITY[k]))
        _expect(errors, "dimension vs hook lengths", text.strip(), str(regular_dimension(k)))
        return errors

    return check


def check_dims(top: int):
    want = {
        str(k): {"formula": n, "tableau_squares": n}
        | ({"enumeration": n} if k <= 4 else {})
        for k, n in ROOK_CARDINALITY.items()
        if k <= top
    }

    def check(code, text):
        payload, errors = _load(text)
        _expect(errors, "exit code", code, 0)
        if payload is not None:
            _expect(errors, "agree", payload.get("agree"), True)
            _expect(errors, "dimensions", payload.get("dimensions"), want)
        return errors

    return check


def check_rep(k: int, dimension: int):
    names = sorted([f"X{i}" for i in range(1, k + 1)] + [f"T{i}" for i in range(1, k)])

    def check(code, text):
        payload, errors = _load(text)
        _expect(errors, "exit code", code, 0)
        if payload is None:
            return errors
        _expect(errors, "k", payload.get("k"), k)
        _expect(errors, "dimension", payload.get("dimension"), dimension)
        mats = payload.get("matrices", {})
        _expect(errors, "generators", sorted(mats), names)
        shapes = {(len(m), *{len(row) for row in m}) for m in mats.values()}
        _expect(errors, "matrix shapes", shapes, {(dimension, dimension)})
        return errors

    return check


def check_tableaux(components):
    want = multi_count(components)
    k = sum(map(sum, components))

    def standard(entries):
        pos = {(e["component"], e["row"], e["col"]): e["entry"] for e in entries}
        cells = {
            (ci + 1, r + 1, c + 1)
            for ci, p in enumerate(components)
            for r, row in enumerate(p)
            for c in range(row)
        }
        if set(pos) != cells or sorted(pos.values()) != list(range(1, k + 1)):
            return False
        return all(
            pos[(ci, r, c)] > pos.get((ci, r, c - 1), 0)
            and pos[(ci, r, c)] > pos.get((ci, r - 1, c), 0)
            for ci, r, c in cells
        )

    def check(code, text):
        payload, errors = _load(text)
        _expect(errors, "exit code", code, 0)
        if payload is None:
            return errors
        _expect(errors, "count", len(payload), want)
        fillings = {json.dumps(t.get("entries"), sort_keys=True) for t in payload}
        _expect(errors, "distinct tableaux", len(fillings), len(payload))
        if not all(standard(t.get("entries", [])) for t in payload):
            errors.append("a tableau is not standard on the requested shape")
        return errors

    return check


def check_bratteli_dot(levels: int):
    """Vertices at level m are the bipartitions of m; an edge joins two
    shapes that differ by one box, so the edges into a shape count its
    removable corners (one per distinct part size of each component)."""
    want_levels = [
        sorted(json.dumps([list(a), list(b)]) for a, b in bipartitions(m))
        for m in range(levels + 1)
    ]
    want_edges = sum(
        len(set(a)) + len(set(b))
        for m in range(1, levels + 1)
        for a, b in bipartitions(m)
    )

    def check(code, text):
        errors = []
        _expect(errors, "exit code", code, 0)
        got_levels = [[] for _ in range(levels + 1)]
        edges = 0
        for line in text.splitlines():
            line = line.strip()
            if "[label=" in line:
                name, label = line.split(" [label=", 1)
                level = int(name[1:].split("_")[0])
                shape = json.loads(label.rstrip("];").strip('"'))
                got_levels[level].append(json.dumps(shape))
            elif "->" in line:
                edges += 1
        _expect(errors, "vertices", [sorted(v) for v in got_levels], want_levels)
        _expect(errors, "edges", edges, want_edges)
        return errors

    return check
