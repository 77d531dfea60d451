"""closurelab benchmark: one command per workload, every metric with its unit.

    python3 bench/run.py --workload closure-sampled --seed 0 --seconds 45 --trace 0

Run from the root of a checkout; nothing needs installing.  Each workload
is a single-client closed loop: jobs run back to back in one process, one
pass over the workload's job list per fresh interpreter, so no memo can
survive from one pass into the next.  The run

1. byte-compiles src/closurelab, as installing the package would;
2. runs passes (bench/worker.py) one after the other until the next one
   would end after ``--seconds`` (at least MIN_PASSES), and reports the
   mean over passes (pass times spread symmetrically, so their mean
   spreads less than their median);
3. before each pass, times SETUPS_PER_PASS fresh interpreters that only do
   ``import closurelab.cli`` and the first ``load_reference_tables()``, and
   reports their median as the set-up time.

With ``--trace 1`` every pass is followed by a traced pass of the same jobs,
and the result carries the per-layer metrics of BENCHMARK.json instead of
the end-to-end ones.  The last line of stdout is the JSON result; the lines
before it log every job with its parameters and their height.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from jobs import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUPS_PER_PASS = 2
MIN_PASSES = 2  # untraced; a slow machine stretches the run rather than leave one pass
DEADLINE_S = 170  # the whole run ends within this, whatever --seconds says
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import closurelab.cli\n"
    "from closurelab.closure import load_reference_tables\n"
    "load_reference_tables()\n"
    "print(time.perf_counter() - t0)\n"
)


class RunError(Exception):
    pass


def _child(argv: list[str], env: dict, t_start: float) -> str:
    remaining = DEADLINE_S - (time.perf_counter() - t_start)
    if remaining <= 0:
        raise RunError("out of time before the run could finish")
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, timeout=remaining, text=True)
    except subprocess.TimeoutExpired:
        raise RunError(f"{argv[:2]} did not finish in time") from None
    if proc.returncode != 0:
        raise RunError(f"{argv[:2]} exited with code {proc.returncode}")
    return proc.stdout


def _pass(args, env, t_start, trace: bool) -> dict:
    argv = ["bench/worker.py", "--workload", args.workload, "--seed", str(args.seed)]
    out = _child(argv + (["--trace"] if trace else []), env, t_start)
    result = json.loads(out.strip().splitlines()[-1])
    for job in result["jobs"]:
        print(f"job {args.workload}/{job['name']} trace={int(trace)} "
              f"params=[{job['params']}] height={job['height']} "
              f"seconds={job['seconds']:.4f} "
              f"{'FAIL ' + job['failure'] if job['failure'] else 'ok'}")
    print(f"pass {args.workload} trace={int(trace)} wall_s={result['wall_s']:.4f}")
    return result


def measure(args) -> dict:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "closurelab" / "cli.py").is_file():
        raise RunError("src/closurelab is missing; run from the root of a checkout")
    env = dict(os.environ, PYTHONHASHSEED="0", CLOSURELAB_SEED=str(args.seed),
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    t_start = time.perf_counter()
    _child(["-m", "compileall", "-q", "src/closurelab"], env, t_start)

    t_loop = time.perf_counter()
    setups, plain, traced, durations = [], [], [], []
    while True:
        t = time.perf_counter()
        setups += [float(_child(["-c", SETUP_CODE], env, t_start))
                   for _ in range(SETUPS_PER_PASS)]
        plain.append(_pass(args, env, t_start, trace=False))
        if args.trace:
            traced.append(_pass(args, env, t_start, trace=True))
        durations.append(time.perf_counter() - t)
        if (len(plain) >= (1 if args.trace else MIN_PASSES) and
                time.perf_counter() - t_loop + statistics.median(durations) > args.seconds):
            break

    jobs = [j for p in plain + traced for j in p["jobs"]]
    failed = sum(1 for j in jobs if j["failure"])

    def mean(rows, key):
        return statistics.mean(r[key] for r in rows)

    if args.trace:
        values = {k: statistics.median(p["layers"][k] for p in traced)
                  for k in traced[0]["layers"]}
        values["trace.overhead_s"] = mean(traced, "wall_s") - mean(plain, "wall_s")
        wanted = declared["per_layer"]
    else:
        values = {"setup_s": statistics.median(setups)}
        for key in ("wall_s", "cpu_s", "slowest_job_s"):
            values[key] = mean(plain, key)
        values["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in plain)
        wanted = declared["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RunError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"passes={len(plain)} traced_passes={len(traced)} setups={len(setups)}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(f"metric fail_ratio = {failed / len(jobs):.6g} failed/attempted "
          f"({failed} of {len(jobs)} jobs)")
    return {"correct": failed == 0, "attempted": len(jobs), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    try:
        result = measure(args)
    except (RunError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
