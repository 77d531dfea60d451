"""Regenerate the benchmark's recorded inputs and expected reports.

    PYTHONPATH=src python3 bench/record.py

Run from the repository root.  Writes the extra plugin files of
``jobs.PLUGIN_POOLS`` (the one-step construction of
demos/05_build_plugins.py at other parameters), then bench/expected.json:
the sha256 of every job's seed-0 report and its pass/skip counts.  Reports
are byte-stable, so rerun this only in a change that alters them on purpose.
"""

import contextlib
import hashlib
import io
import json
import os
from fractions import Fraction
from pathlib import Path

import closurelab.cli as cli
from closurelab.families import ParamSet, one_step_family, plugin_dict_from_family

from jobs import PLUGIN_POOLS, WORKLOADS, jobs_for

HERE = Path(__file__).resolve().parent


def write_plugins() -> None:
    for path, params in PLUGIN_POOLS["L2I"][1:]:
        df = one_step_family("L", "I", 2,
                             ParamSet("L", {k: Fraction(v) for k, v in params.items()}))
        Path(path).write_text(
            json.dumps(plugin_dict_from_family(df), indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


def record_expected() -> None:
    os.environ["CLOSURELAB_SEED"] = "0"
    expected = {}
    for workload in WORKLOADS:
        for job in jobs_for(workload, 0):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(job.argv))
            report = json.loads(buf.getvalue())
            if rc != 0 or report["summary"]["fail"]:
                raise SystemExit(f"{job.name} fails at seed 0; nothing recorded")
            expected[job.name] = {
                "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest(),
                "pass": report["summary"]["pass"],
                "skip": report["summary"]["skip"],
            }
            print(f"{job.name}: {expected[job.name]}")
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_plugins()
    record_expected()
