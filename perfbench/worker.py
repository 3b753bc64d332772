"""One repetition of a workload, in a fresh interpreter.

Usage: python3 -I perfbench/worker.py SPEC.json

It imports qrook.cli from the checkout's src/ and builds the parser
(the set-up every CLI call pays), then runs the jobs of SPEC one after
another in this process, each job's stdout going to its own file.  The
last line it prints is a JSON result: the monotonic clock reading when
set-up ended, the calibration kernel's times (one before the jobs, one
after), the wall time of the jobs, per-job exit codes and times, the peak
resident memory and, when tracing, the per-layer metrics.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import qrook.cli  # noqa: E402
import qrook.rook  # noqa: E402  (already loaded by qrook.cli)

qrook.cli.build_parser()
SETUP_DONE = time.monotonic()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def run_job(spec, out_path):
    """Run one job with stdout sent to out_path; returns the exit code."""
    with open(out_path, "w") as out, contextlib.redirect_stdout(out):
        if "argv" in spec:
            try:
                return qrook.cli.main(spec["argv"])
            except SystemExit as exc:  # argparse rejects its input this way
                return exc.code
        print(json.dumps(getattr(qrook.rook, spec["call"])(spec["arg"])))
        return 0


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = os.path.join(ROOT, "src", "qrook")
    if os.path.dirname(os.path.abspath(qrook.cli.__file__)) != src:
        sys.exit(f"qrook was imported from {qrook.cli.__file__}, not {src}")
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import calibrate

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cal = [calibrate.timed()]
    jobs = []
    start = time.perf_counter()
    for i, job in enumerate(spec["jobs"]):
        out_path = os.path.join(spec["outdir"], f"{i}.out")
        t0 = time.perf_counter()
        error = None
        try:
            if tracer:
                with tracer.job_span(job["name"]):
                    code = run_job(job, out_path)
            else:
                code = run_job(job, out_path)
        except Exception:  # a crash is a failed job, reported, not fatal
            code, error = None, traceback.format_exc(limit=3)
        jobs.append({"code": code, "seconds": time.perf_counter() - t0, "error": error})
    wall = time.perf_counter() - start
    if spec["jobs"]:
        cal.append(calibrate.timed())
    result = {
        "setup_done": SETUP_DONE,
        "wall_s": wall,
        "cal_s": cal,
        "jobs": jobs,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        metrics, table = tracer.metrics()
        metrics["cli.output_bytes"] = sum(
            os.path.getsize(os.path.join(spec["outdir"], f"{i}.out"))
            for i in range(len(spec["jobs"]))
        )
        result["layers"] = metrics
        result["layer_table"] = table
        if spec.get("spans_path"):
            tracer.write_spans(spec["spans_path"])
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
