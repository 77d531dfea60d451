"""Golden reports: every seed-0 benchmark job, run through the CLI, gives
the report whose sha256 and pass/skip counts bench/expected.json records.
Reports are byte-stable, so a refactor that keeps every verdict and value
keeps every digest.  This test only reads bench/."""

import contextlib
import hashlib
import importlib.util
import io
import json
import pathlib
import sys

import pytest

from closurelab import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
EXPECTED = json.loads((BENCH / "expected.json").read_text())


def _jobs_module():
    spec = importlib.util.spec_from_file_location("bench_jobs", BENCH / "jobs.py")
    jobs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = jobs  # its dataclass looks its module up here
    spec.loader.exec_module(jobs)
    return jobs


_JOBS = _jobs_module()
SEED0_JOBS = [job for workload in _JOBS.WORKLOADS
              for job in _JOBS.jobs_for(workload, 0)]


def test_every_recorded_job_is_run():
    assert sorted(job.name for job in SEED0_JOBS) == sorted(EXPECTED)


@pytest.mark.parametrize("job", SEED0_JOBS, ids=lambda job: job.name)
def test_seed0_report_matches_expected(job, monkeypatch):
    # the jobs name plugin files relative to the repository root, and the
    # spectrum jobs read CLOSURELAB_SEED
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("CLOSURELAB_SEED", "0")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(job.argv))
    out = buf.getvalue()
    summary = json.loads(out)["summary"]
    want = EXPECTED[job.name]
    assert code == 0
    assert (summary["pass"], summary["skip"]) == (want["pass"], want["skip"])
    assert hashlib.sha256(out.encode()).hexdigest() == want["sha256"]
