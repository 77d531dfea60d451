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


# The seed-0 jobs above reach ell <= 2.  These reports cover the ell-scaling
# path (P_n of degree ell + n, xi of degree ell) at ell = 6 and at a J seed
# of type II; their digests were recorded before the eta polynomials moved
# to integer numerators, and every later change must keep them.  The L[10I]
# and L[16I] reports (K = 22 and 34) and the J[1II] report at a = 1, whose
# solution set has a kernel (kernel_dim 3) so that the solve takes the
# linear system, were recorded before the Hamiltonian and the closure solve
# moved to closed forms.  The classical J at g = h = 5/2 with Y = eta, the
# other input whose solution set has a kernel (9 pass, 1 skip), was
# recorded before the solve entry points stopped taking the order.
ELL_REPORTS = {
    ("--family", "L", "--D", "6I"):
        "fb186e5d68130986b7f7071711ea144e9b98f517ce0f207c3fadc17d2552a07b",
    ("--family", "J", "--D", "3II"):
        "d339d41cb09ece8ce1d6125021248ade8589b36a8e24ea5ecc6ec4c1863f6011",
    ("--family", "L", "--D", "10I"):
        "df5943a0c84db26a06e62b2b75da530e65074151abb9c162ae3ee6b244fc7f53",
    ("--family", "L", "--D", "16I"):
        "ec06d40aeb7fdc6a1e93cb25daf592b282cc696af67346497685d46a4cbcae33",
    ("--family", "J", "--D", "1II", "--params", "g=3/4", "h=1/4"):
        "8f36ea7a9044a2ed4baf539c203da9cf95dcdcd0e9407deee901112259460c96",
    ("--family", "J", "--D", "", "--Y", "eta", "--params", "g=5/2", "h=5/2"):
        "dd4f34b2b6cfc298fa01162092868604865ceac154ba0c85d9f9cf1308d1d425",
}


@pytest.mark.parametrize("argv", sorted(ELL_REPORTS), ids=" ".join)
def test_ell_report_matches_golden_digest(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify-closure", *argv, "--json"])
    out = buf.getvalue()
    assert code == 0
    assert json.loads(out)["summary"]["fail"] == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ELL_REPORTS[argv]


# Symbolic reconstruction reports (`verify-closure --mode symbolic`), with
# their exit codes.  J[2I] fails: the a-degree bound 6 is too small for its
# R_-1, and the report names the coefficient and the fresh sample.  The
# digests were recorded before the reconstruction moved to one integer
# interpolation of every coefficient (L[7II]: before the sample solves moved
# to the closed form; J[1I] and L[1II], the two closure-symbolic bench jobs:
# before the sample builds moved to integer numerators), and every later
# change must keep them.
SYMBOLIC_REPORTS = {
    ("--family", "J", "--D", "1I"):
        (0, "2018fd96394ba371e98a52af1f28b29e1663aeaa6aa9e1aeed3151d9c2f1831b"),
    ("--family", "L", "--D", "1II"):
        (0, "45cd081712eb96575f10a28065464667b9c0c0db9ca15fe9c045461ac93a8e35"),
    ("--family", "L", "--D", "2II"):
        (0, "df90ffee1224c022c3baddd9da47a08b25441b17cd9e2e70fa1f8eeb7b98834b"),
    ("--family", "L", "--D", "3I"):
        (0, "62ca626d74726b92384632c6a67e2e719a83494e9676e8de9c847ae0607cce88"),
    ("--family", "J", "--D", "1II", "--Y", "eta"):
        (0, "1fb292f9d9f5bd8b6bd902f7c692328bfb4425e28c4ab0a31e8d5f13956b30a8"),
    ("--family", "J", "--D", "2I"):
        (1, "beda3cd512db913771fe537ab99dffedf3ae0bcdcda2854e66643c30410b7961"),
    ("--family", "L", "--D", "7II"):
        (0, "9888e83cc87534f0a37fbaf3be62705f312fc52288054d4f09622c5e11295ff7"),
}


@pytest.mark.parametrize("argv", sorted(SYMBOLIC_REPORTS), ids=" ".join)
def test_symbolic_report_matches_golden_digest(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify-closure", *argv, "--json", "--mode", "symbolic"])
    out = buf.getvalue()
    want_code, want_digest = SYMBOLIC_REPORTS[argv]
    assert code == want_code
    if code:
        [check] = json.loads(out)["checks"]
        assert check["detail"]["error"] == (
            "R_-1 z^0 disagrees with its interpolant (a <= 6, b <= 5) "
            "at the fresh sample a=23/2, b=2")
    assert hashlib.sha256(out.encode()).hexdigest() == want_digest


# Spectral reports at the largest ell, with their exit codes and summaries:
# companion certificates of K = 34 (spectrum) and the Heisenberg checks at
# ell = 6.  AW 16I fails its 13 ordering checks: at the default parameters
# b4 is not below the ordering bound q^(2L).  The digests were recorded
# before the companion certificate came down to chi(a_j) = 0 per root, and
# every later change must keep them.
LARGEST_ELL_REPORTS = {
    ("spectrum", "--family", "AW", "--D", "16I", "--n-max", "0"):
        (1, {"pass": 70, "fail": 13, "skip": 1},
         "4a6ce89cd0540d7fdc253e08d3aae6fb00fd55831bda728b2e07a3cfa6eb8549"),
    ("spectrum", "--family", "J", "--D", "16I", "--params", "g=40"):
        (0, {"pass": 367, "fail": 0, "skip": 0},
         "4f1f812c36710c10466964949781c1dc0df7060fd6735a00354062eda6ffb005"),
    ("heisenberg", "--family", "L", "--D", "6I"):
        (0, {"pass": 271, "fail": 0, "skip": 0},
         "f3702e407226356b65b1072a7ec9ff452ec8cbd07a9becb80896102c26d22819"),
}


@pytest.mark.parametrize("argv", sorted(LARGEST_ELL_REPORTS), ids=" ".join)
def test_largest_ell_report_matches_golden_digest(argv, monkeypatch):
    monkeypatch.setenv("CLOSURELAB_SEED", "0")  # spectrum's random spectra
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([*argv, "--json"])
    out = buf.getvalue()
    want_code, want_summary, want_digest = LARGEST_ELL_REPORTS[argv]
    assert (code, json.loads(out)["summary"]) == (want_code, want_summary)
    assert hashlib.sha256(out.encode()).hexdigest() == want_digest


# Heisenberg reports beyond the seed-0 jobs: J[3II] at g = 11/2, h = 9/2,
# L[3II] with Y = eta^2 (K = 12) and the shipped L[2I] plugin with
# Y = eta.  The digests were recorded before the
# ladder actions moved to the Lagrange form on the companion roots, and
# every later change must keep them.
LADDER_REPORTS = {
    ("--family", "J", "--D", "3II", "--params", "g=11/2", "h=9/2"):
        (163, "4aa89a49a8655039683fcdd9ecffa3a29cf8cfa9de864a01912f5f48777efe00"),
    ("--family", "L", "--D", "3II", "--Y", "eta^2"):
        (235, "aa8375509a5020c3a5c993bc7deb35728d21c2f698280628883aa27f465e082b"),
    ("--family", "L", "--D", "2I", "--plugin", "plugins/laguerre_2I.json", "--Y", "eta"):
        (163, "ed48b82547fce30449a0ac2dc840ccb9eaa3b360014764fd9e40afc818b2712d"),
}


@pytest.mark.parametrize("argv", sorted(LADDER_REPORTS), ids=" ".join)
def test_ladder_report_matches_golden_digest(argv, monkeypatch):
    monkeypatch.chdir(ROOT)  # the plugin path is relative to the root
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["heisenberg", *argv, "--json"])
    out = buf.getvalue()
    want_pass, want_digest = LADDER_REPORTS[argv]
    assert (code, json.loads(out)["summary"]) == (
        0, {"pass": want_pass, "fail": 0, "skip": 0})
    assert hashlib.sha256(out.encode()).hexdigest() == want_digest
