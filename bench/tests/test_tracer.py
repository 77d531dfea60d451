"""Self-test of the benchmark's tracer and output check.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import closurelab.cli as cli  # noqa: E402
import closurelab.exactalg as exactalg  # noqa: E402
import closurelab.heisenberg as heisenberg  # noqa: E402
from closurelab.closure import load_reference_tables  # noqa: E402

from jobs import Job  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from worker import failure  # noqa: E402

SMALL_JOB = ["heisenberg", "--family", "L", "--D", "1I", "--n-max", "2", "--json"]


def traced_run() -> dict:
    tracer = Tracer()
    tracer.install()
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = tracer.run_job("heisenberg-L1I", cli.main, list(SMALL_JOB))
    finally:
        tracer.uninstall()
    assert rc == 0
    return layer_metrics(tracer.spans, len(out.getvalue()))


def test_rebound_ad_powers_is_traced():
    # heisenberg binds ad_powers by `from .closure import`; the job calls it
    # once through closure_for_family and once in LadderContext.
    assert traced_run()["closure.ad_powers_per_job"] == 2.0


def test_counts_repeat_exactly_between_traced_runs():
    first, second = traced_run(), traced_run()
    counts = {k for k in first if not k.endswith("_s")}
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_uninstall_restores_every_binding():
    before = (heisenberg.ad_powers, exactalg.RationalFunc.__init__, cli.closure_for_family)
    tracer = Tracer()
    tracer.install()
    try:
        assert heisenberg.ad_powers is not before[0]
        assert cli.closure_for_family is not before[2]
    finally:
        tracer.uninstall()
    assert (heisenberg.ad_powers, exactalg.RationalFunc.__init__,
            cli.closure_for_family) == before


def test_declared_per_layer_metrics_are_measured():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    measured = set(traced_run()) | {"trace.overhead_s"}
    assert {m["name"] for m in declared["per_layer"]} == measured


def test_output_check_flags_bad_reports():
    job = Job("closure-L1II", ("verify-closure", "--family", "L", "--D", "1II",
                               "--json"), "g=7/3", 7)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(job.argv))
    good = out.getvalue()
    summary = json.loads(good)["summary"]
    want = {job.name: {"sha256": hashlib.sha256(good.encode()).hexdigest(),
                       "pass": summary["pass"], "skip": summary["skip"]}}
    tables = load_reference_tables()
    assert failure(job, rc, good, None, 0, want, tables) is None

    edited = good.replace('"status": "pass"', '"status": "fail"', 1)
    assert failure(job, rc, edited, None, 1, want, tables).startswith("check failed")
    no_ref = json.loads(good)
    no_ref["checks"] = [c for c in no_ref["checks"] if c["id"] != "closure/reference-table"]
    assert "reference-table" in failure(job, rc, json.dumps(no_ref), None, 1, want, tables)
    assert "digest" in failure(job, rc, good + " ", None, 0, want, tables)
    assert failure(job, rc, good + " ", None, 1, want, tables) is None
    assert failure(job, 1, good, None, 1, want, tables) == "exit code 1"
