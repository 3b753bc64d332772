"""Run-time instrumentation of qrook's layers, installed from outside.

``Tracer.install`` replaces selected qrook functions and methods with
wrappers; nothing under src/ is edited.  A function imported by name into
another module is replaced there too, so callers that bound it at import
time are traced as well.

Two kinds of record:

* spans, one per call at a layer boundary: (layer, start, end, parent
  span, job, qfield time inside).  They stay in memory and are written out
  when the worker ends.
* aggregates for the field layer.  ``qfield._canonicalize`` and
  ``qfield._poly_gcd_shifted`` run hundreds of thousands of times per job,
  too often for a span each, so they keep a call count, a time, and the
  largest degree and coefficient size of the canonical forms produced.
  RatFunc looks both names up in the qfield module at call time, which is
  why replacing the module attributes is enough.

A span's self time is its duration minus the time its child spans cover,
minus the qfield time spent directly in it (qfield is reported on its own).
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import Counter
from time import perf_counter


def _matmul_products(counts, args, result):
    a, b = args
    brows = b.rows
    counts["linalg.matmul.entry_products"] += sum(
        len(brows.get(k, ())) for arow in a.rows.values() for k in arow
    )


def _reduce_outcome(counts, args, result):
    if result:
        counts["linalg.span.reduce.independent"] += 1


def _lincomb_words(counts, args, result):
    counts["presentations.eval_lincomb.words"] += len(args[0])


def _tableaux_count(counts, args, result):
    counts["shapes.tableaux.count"] += len(result)


def _module_dim(counts, args, result):
    counts["seminormal.module.dim_sum"] += result.dimension


# (module, attribute, layer, counter); "Class.method" patches the class.
SPAN_TARGETS = [
    ("linalg", "Mat.__matmul__", "linalg.matmul", _matmul_products),
    ("linalg", "RowSpan.reduce", "linalg.span.reduce", _reduce_outcome),
    ("linalg", "span_dimension", "linalg.span_dimension", None),
    ("presentations", "eval_lincomb", "presentations.eval_lincomb", _lincomb_words),
    ("presentations", "projector_matrices", "presentations.projector_matrices", None),
    ("presentations", "relations_rook", "presentations.suite_build", None),
    ("presentations", "relations_Ak_presentation", "presentations.suite_build", None),
    ("presentations", "relations_affine", "presentations.suite_build", None),
    ("presentations", "relations_cyclotomic", "presentations.suite_build", None),
    ("presentations", "relations_A_algebra", "presentations.suite_build", None),
    ("presentations", "relations_Bprime", "presentations.suite_build", None),
    ("shapes", "enumerate_standard_tableaux", "shapes.tableaux", _tableaux_count),
    ("seminormal", "_build_module", "seminormal.module", _module_dim),
    ("cli", "_emit", "cli.emit", None),
    ("shapes", "BratteliGraph.to_dot", "cli.emit", None),
    ("seminormal", "Representation.to_json", "cli.emit", None),
    ("tensor", "phiP", "tensor.phiP", None),
    ("rook", "left_regular_assignment", "rook.left_regular", None),
    ("rook", "enumerate_rook", "rook.enumerate", None),
]


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, start, end, parent, job, qfield_s inside]
        self.stack = []
        self.job = None
        self.counts = Counter()
        self.qfield_s = 0.0  # all time inside the field layer so far
        self.in_canon = 0
        self.canon_calls = 0
        self.canon_self_s = 0.0
        self.gcd_calls = 0
        self.gcd_s = 0.0
        self.max_degree = 0
        self.max_coeff_bits = 0

    # -- installation ----------------------------------------------------

    def install(self):
        import qrook.qfield as qfield

        modules = [m for name, m in sys.modules.items() if name.startswith("qrook")]
        for modname, attr, layer, counter in SPAN_TARGETS:
            owner = sys.modules[f"qrook.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._span(layer, getattr(cls, meth), counter))
            else:
                self._replace(modules, getattr(owner, attr),
                              self._span(layer, getattr(owner, attr), counter))
        qfield._canonicalize = self._canonicalize(qfield._canonicalize)
        qfield._poly_gcd_shifted = self._gcd(qfield._poly_gcd_shifted)

    @staticmethod
    def _replace(modules, original, wrapper):
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)

    def _open(self, layer):
        rec = [layer, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job, self.qfield_s]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = perf_counter()
        self.stack.pop()
        rec[5] = self.qfield_s - rec[5]

    def _span(self, layer, fn, counter):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            rec = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return wrapped

    @contextlib.contextmanager
    def job_span(self, name):
        self.job = name
        rec = self._open(f"cli.job.{name}")
        try:
            yield
        finally:
            self._close(rec)
            self.job = None

    def _canonicalize(self, fn):
        @functools.wraps(fn)
        def wrapped(num, den):
            gcd_before = self.gcd_s
            self.in_canon += 1
            t0 = perf_counter()
            try:
                result = fn(num, den)
            finally:
                dt = perf_counter() - t0
                self.in_canon -= 1
            self.canon_calls += 1
            self.canon_self_s += dt - (self.gcd_s - gcd_before)
            self.qfield_s += dt
            n, d = result
            deg = max(len(n), len(d)) - 1
            if deg > self.max_degree:
                self.max_degree = deg
            bits = max(map(abs, n + d)).bit_length()
            if bits > self.max_coeff_bits:
                self.max_coeff_bits = bits
            return result

        return wrapped

    def _gcd(self, fn):
        @functools.wraps(fn)
        def wrapped(a, b, v):
            t0 = perf_counter()
            result = fn(a, b, v)
            dt = perf_counter() - t0
            self.gcd_calls += 1
            self.gcd_s += dt
            if not self.in_canon:
                self.qfield_s += dt
            return result

        return wrapped

    # -- results -----------------------------------------------------------

    def layer_table(self):
        """Per layer: calls, inclusive seconds (outermost spans of the layer
        only, so recursion is not counted twice) and self seconds."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        child_qf = [0.0] * len(spans)
        for layer, start, end, parent, job, qf in spans:
            if parent >= 0:
                child_s[parent] += end - start
                child_qf[parent] += qf
        table = {}
        for i, (layer, start, end, parent, job, qf) in enumerate(spans):
            row = table.setdefault(layer, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child_s[i] - (qf - child_qf[i])
            p = parent
            while p >= 0 and spans[p][0] != layer:
                p = spans[p][3]
            if p < 0:
                row["s"] += end - start
        table["qfield"] = {
            "calls": self.canon_calls + self.gcd_calls,
            "s": self.qfield_s,
            "self_s": self.qfield_s,
        }
        return table

    def metrics(self):
        table = self.layer_table()
        c = self.counts

        def row(layer, field):
            return table.get(layer, {}).get(field, 0)

        reduces = row("linalg.span.reduce", "calls")
        out = {
            "qfield.gcd.calls": self.gcd_calls,
            "qfield.gcd.s": self.gcd_s,
            "qfield.canonicalize.calls": self.canon_calls,
            "qfield.canonicalize.self_s": self.canon_self_s,
            "qfield.max_degree": self.max_degree,
            "qfield.max_coeff_bits": self.max_coeff_bits,
            "linalg.matmul.entry_products": c["linalg.matmul.entry_products"],
            "linalg.span.independent_ratio": (
                c["linalg.span.reduce.independent"] / reduces if reduces else 0.0
            ),
            "presentations.eval_lincomb.words": c["presentations.eval_lincomb.words"],
            "presentations.relations.evaluated": row("presentations.eval_lincomb", "calls"),
            "shapes.tableaux.count": c["shapes.tableaux.count"],
            "seminormal.module.dim_sum": c["seminormal.module.dim_sum"],
            "seminormal.module.self_s": row("seminormal.module", "self_s"),
        }
        for layer in ("linalg.matmul", "linalg.span.reduce", "shapes.tableaux",
                      "seminormal.module"):
            out[f"{layer}.calls"] = row(layer, "calls")
        for layer in ("linalg.matmul", "linalg.span.reduce", "linalg.span_dimension",
                      "presentations.eval_lincomb", "presentations.suite_build",
                      "presentations.projector_matrices", "shapes.tableaux",
                      "cli.emit", "tensor.phiP", "rook.left_regular", "rook.enumerate"):
            out[f"{layer}.s"] = row(layer, "s")
        for layer, r in table.items():
            if layer.startswith("cli.job."):
                out[f"{layer}.s"] = r["s"]
        return out, table

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["layer", "start", "end", "parent", "job", "qfield_s"],
                    "spans": self.spans,
                },
                fh,
            )

