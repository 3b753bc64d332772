"""qrook benchmark: run one workload and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify_symbolic --seed 1 --seconds 40 --trace 0

``--workload all`` runs the three workloads one after another.  Every
repetition of a workload runs in a fresh interpreter (perfbench/worker.py),
so no cache survives from one repetition to the next and set-up is paid
each time.  Jobs run one after another in that process, with no threads.

With ``--trace 0`` the metrics are the end-to-end ones:

* wall_cal: the median wall time of a repetition (first job's start to
  last job's return, at least three repetitions, more while ``--seconds``
  allows) divided by the median time of a fixed calibration kernel run in
  the same run (calibrate.py).  The host is shared and its speed drifts;
  the ratio cancels most of that drift.  The raw median goes to stderr.
* setup_s: the median time from spawning an interpreter to having
  qrook.cli imported and its parser built.
* peak_rss_mb: the median peak resident memory of a repetition.
* passed_job_share: jobs whose answer matches the independent reference,
  over jobs attempted.
* output_match_share: pinned jobs whose stdout is byte-identical to its
  recorded sha256, over pinned jobs.

With ``--trace 1`` one untraced repetition is followed by at least two
traced ones, and the metrics are the per-layer ones, the tracing overhead
and whether every count repeated exactly.

Every job is checked against reference.py in every repetition.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Diagnostics go to stderr.  Metric names and units are read from
BENCHMARK.json at the root of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, jobs_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"

PROBES_PER_REP = 3  # set-up and calibration only, before each repetition
MIN_REPS = 3
MIN_TRACED_REPS = 2
LAST_START_S = 140  # no repetition starts later than this into a workload
HARD_LIMIT_S = 170  # a repetition still running at this point is killed


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def spawn(jobs, trace, workdir, deadline, spans_path=None):
    """Run the jobs in a fresh interpreter; returns the worker's result with
    its set-up time added."""
    spec = {
        "jobs": [dict(job.spec, name=job.name) for job in jobs],
        "trace": trace,
        "outdir": str(workdir),
        "spans_path": spans_path and str(spans_path),
    }
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-I", str(HERE / "worker.py"), str(spec_path)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(deadline - t0, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("a repetition did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["setup_done"] - t0
    return result


class Tally:
    """Job verdicts and digest matches over every repetition of a run."""

    def __init__(self, digests):
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.unexpected = {}  # job key -> discrepancies, for jobs not known to fail
        self.known = {}  # job key -> whether the known defect reproduced
        self.pinned = 0
        self.matched = 0

    def check(self, jobs, result, workdir):
        for i, (job, res) in enumerate(zip(jobs, result["jobs"])):
            out = (workdir / f"{i}.out").read_bytes()
            if res["error"]:
                errors = [res["error"]]
            else:
                errors = job.check(res["code"], out.decode(errors="replace"))
            self.attempted += 1
            if errors:
                self.failed += 1
            if job.known_defect:
                self.known[job.key] = bool(errors)
            elif errors:
                self.unexpected.setdefault(job.key, errors)
            pinned = self.digests.get(job.key)
            if pinned is not None:
                self.pinned += 1
                self.matched += hashlib.sha256(out).hexdigest() == pinned

    def report(self):
        for key, errors in self.unexpected.items():
            print(f"FAIL {key}: {'; '.join(errors)}", file=sys.stderr)
        for key, reproduced in self.known.items():
            state = "still fails" if reproduced else "no longer fails"
            print(f"known defect {state}: {key}", file=sys.stderr)


def run_workload(workload, seed, seconds, trace, digests):
    """Returns (tally, metrics) for one workload."""
    jobs = jobs_for(workload, seed)
    tally = Tally(digests)
    SCRATCH.mkdir(exist_ok=True)
    workdir = SCRATCH / f"run-{workload}-{seed}-{time.monotonic_ns()}"
    workdir.mkdir()
    start = time.monotonic()
    hard = start + HARD_LIMIT_S
    probes, plain, traced = [], [], []
    try:
        spawn([], False, workdir, hard)  # writes bytecode caches; not measured

        def repeat(results, min_count, max_count, traced_rep):
            while len(results) < max_count:
                elapsed = time.monotonic() - start
                est = statistics.median(r["wall_s"] for r in results) if results else 0.0
                if len(results) >= min_count and elapsed + est > seconds:
                    return
                if results and elapsed + est > LAST_START_S:
                    return
                # Probes between repetitions sample set-up and machine speed
                # over the whole run, not in one burst at its start.
                probes.extend(spawn([], False, workdir, hard) for _ in range(PROBES_PER_REP))
                spans = SCRATCH / f"spans-{workload}-seed{seed}.json" if traced_rep else None
                res = spawn(jobs, traced_rep, workdir, hard, spans)
                tally.check(jobs, res, workdir)
                results.append(res)

        if trace:
            repeat(plain, 1, 1, False)
            repeat(traced, MIN_TRACED_REPS, float("inf"), True)
        else:
            repeat(plain, MIN_REPS, float("inf"), False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = [round(r["wall_s"], 3) for r in plain + traced]
    print(f"[{workload}] wall_s per repetition (untraced, then traced): {walls}", file=sys.stderr)
    if not trace:
        wall = statistics.median(r["wall_s"] for r in plain)
        cal = statistics.median(c for r in probes + plain for c in r["cal_s"])
        print(f"[{workload}] median wall_s {wall:.4f} s, median calibration {cal:.4f} s",
              file=sys.stderr)
        return tally, {
            "wall_cal": wall / cal,
            "setup_s": statistics.median(r["setup_s"] for r in probes + plain),
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in plain) / 1024,
            "passed_job_share": (tally.attempted - tally.failed) / tally.attempted,
            "output_match_share": tally.matched / tally.pinned,
        }
    layers = [r["layers"] for r in traced]
    names = sorted(set().union(*layers))
    metrics = {}
    repeats = True
    for name in names:
        values = [lay.get(name, 0) for lay in layers]
        if name.endswith((".s", ".self_s")):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            repeats = repeats and all(v == values[0] for v in values)
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced) - plain[0]["wall_s"]
    )
    metrics["trace.counts_repeat"] = int(repeats)
    summary = {"workload": workload, "seed": seed, "metrics": metrics,
               "layer_self_s": {k: v["self_s"] for k, v in traced[-1]["layer_table"].items()
                                if not k.startswith("cli.job.")}}
    (SCRATCH / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(summary, indent=1))
    print(f"[{workload}] self time by layer, last traced repetition:", file=sys.stderr)
    for layer, s in sorted(summary["layer_self_s"].items(), key=lambda kv: -kv[1]):
        print(f"  {layer:36s} {s:9.4f} s", file=sys.stderr)
    return tally, metrics


def render(spec, computed, prefix=""):
    """Order and label the computed values as BENCHMARK.json lists them."""
    out = {}
    for m in spec:
        name = m["name"]
        if name in computed:
            value = computed[name]
        elif name.startswith("cli.job."):
            value = 0.0  # that job is not part of this workload
        else:
            raise BenchError(f"metric {name} was not computed")
        out[prefix + name] = {"value": value, "unit": m["unit"]}
    extra = set(computed) - {m["name"] for m in spec}
    if extra:
        raise BenchError(f"metrics missing from BENCHMARK.json: {sorted(extra)}")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qrook" / "cli.py").is_file():
        print(f"error: no qrook sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = config["per_layer"] if args.trace else config["end_to_end"]
    seconds = args.seconds or config["run_seconds"]
    digests = json.loads((HERE / "digests.json").read_text())

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for workload in workloads:
            tally, computed = run_workload(
                workload, args.seed, seconds, bool(args.trace), digests
            )
            tally.report()
            correct = correct and not tally.unexpected
            attempted += tally.attempted
            failed += tally.failed
            prefix = f"{workload}." if len(workloads) > 1 else ""
            metrics.update(render(spec, computed, prefix))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
