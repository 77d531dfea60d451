"""One pass of a benchmark workload in a fresh interpreter.

    PYTHONPATH=src python3 bench/worker.py --workload NAME --seed N [--trace]

Run from the repository root (bench/run.py starts it).  The worker runs
each job of the workload once through ``closurelab.cli.main(argv)`` with
stdout captured, checks every report, and prints one JSON line with the
pass's measurements.  With ``--trace`` the pass runs under bench/tracer.py
and the line carries the per-layer metrics as well; the spans are written
to bench/out/.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import closurelab.cli as cli
from closurelab.closure import load_reference_tables

from jobs import WORKLOADS, jobs_for
from tracer import Tracer, layer_metrics, self_times

HERE = Path(__file__).resolve().parent


def failure(job, rc, out, error, seed, expected, tables) -> str | None:
    """Why the job counts as failed, or None when its report is correct."""
    if error:
        return error
    if rc != 0:
        return f"exit code {rc}"
    try:
        report = json.loads(out)
        checks = report["checks"]
        summary = report["summary"]
    except (ValueError, KeyError, TypeError):
        return "stdout is not a closurelab JSON report"
    failing = [c["id"] for c in checks if c["status"] == "fail"]
    if failing:
        return f"check failed: {failing[0]}"
    if job.reference_key() in tables:
        ref = [c["status"] for c in checks if c["id"] == "closure/reference-table"]
        if ref != ["pass"]:
            return "stored reference row exists but closure/reference-table is not pass"
    want = expected.get(job.name)
    if want is None:
        return "no recorded expectation in bench/expected.json"
    if (summary["pass"], summary["skip"]) != (want["pass"], want["skip"]):
        return (f"pass/skip {summary['pass']}/{summary['skip']} differs from "
                f"recorded {want['pass']}/{want['skip']}")
    if seed == 0 and hashlib.sha256(out.encode()).hexdigest() != want["sha256"]:
        return "report differs from the recorded seed-0 digest"
    return None


def _cpu_s() -> float:
    """User + system CPU time of this process and its children."""
    return sum(u.ru_utime + u.ru_stime for u in
               (resource.getrusage(resource.RUSAGE_SELF),
                resource.getrusage(resource.RUSAGE_CHILDREN)))


def run_pass(workload: str, seed: int, tables: dict,
             tracer: Tracer | None) -> dict:
    expected = json.loads((HERE / "expected.json").read_text())
    os.environ["CLOSURELAB_SEED"] = str(seed)
    jobs = jobs_for(workload, seed)
    rows, report_bytes = [], 0
    cpu0 = _cpu_s()
    t_pass = time.perf_counter()
    for job in jobs:
        buf = io.StringIO()
        rc, error = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if tracer is None:
                    rc = cli.main(list(job.argv))
                else:
                    rc = tracer.run_job(job.name, cli.main, list(job.argv))
        except Exception as exc:  # a crashing job is a failed job, not a crashed pass
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        out = buf.getvalue()
        report_bytes += len(out.encode())
        rows.append({"name": job.name, "params": job.params,
                     "height": job.height, "seconds": seconds,
                     "failure": failure(job, rc, out, error, seed, expected, tables)})
    wall = time.perf_counter() - t_pass
    cpu = _cpu_s() - cpu0
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "slowest_job_s": max(r["seconds"] for r in rows),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "report_bytes": report_bytes,
        "jobs": rows,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    tables = load_reference_tables()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    result = run_pass(args.workload, args.seed, tables, tracer)
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer.spans, result["report_bytes"])
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        tracer.write(out / f"{stem}.spans.jsonl")
        (out / f"{stem}.self.json").write_text(
            json.dumps(self_times(tracer.spans), indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
