"""The identity certificate on integer numerators against the Fraction
route of ``closure_reference``: both give the same verdict, and a false
verdict the same witness (n, k, residual), on the closure data of every
golden verify-closure configuration, on a J family whose energies and
energy gaps all have denominators, and on perturbed data."""

import contextlib
import io
import pathlib
import random
from fractions import Fraction as F

import pytest

import closure_reference as ref
from closurelab import cli, closure
from closurelab.closure import (ClosureData, NoSolution, closure_for_family,
                                verify_closure_identity)
from closurelab.exactalg import EtaPoly, ParamPoly
from closurelab.families import MultiIndex, ParamSet, builtin_deformed
from test_golden_reports import SEED0_JOBS

ROOT = pathlib.Path(__file__).resolve().parent.parent
z = ParamPoly.var("z")


def _witness(verdict):
    return bool(verdict), verdict.n, verdict.k, verdict.residual


def _same_verdict(df, X, cd):
    got = _witness(verify_closure_identity(df, X, cd))
    assert got == _witness(ref.verify_closure_identity(df, X, cd))
    return got


@pytest.fixture(scope="module")
def golden_cases():
    """(df, X, cd) of every seed-0 verify-closure job that checks the
    identity, as the CLI builds them."""
    cases = []
    real = cli.verify_closure_identity

    def record(df, X, cd):
        cases.append((df, X, cd))
        return real(df, X, cd)

    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(ROOT)
        mp.setattr(cli, "verify_closure_identity", record)
        for job in SEED0_JOBS:
            if job.argv[0] == "verify-closure":
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(list(job.argv)) == 0
    return cases


@pytest.fixture(scope="module")
def fractional_j():
    """J[1I] at g = 5/2, h = 13/3 (a = 41/6): E_n and Delta_{n,k} have
    denominators > 1."""
    df = builtin_deformed("J", MultiIndex.parse("1I"),
                          ParamSet("J", {"g": F(5, 2), "h": F(13, 3)}))
    cd, X = closure_for_family(df, EtaPoly.const(1))
    assert any(df.E(n).denominator > 1 for n in range(cd.K + 1))
    assert any(delta.denominator > 1
               for _, _, delta in closure.level_coordinates(df, X, 1))
    return df, X, cd


def test_golden_configurations_give_the_reference_verdict(golden_cases):
    assert len(golden_cases) == 5
    for case in golden_cases:
        assert _same_verdict(*case) == (True, None, None, None)


def test_fractional_parameters_give_the_reference_verdict(fractional_j):
    assert _same_verdict(*fractional_j)[0]


def _perturbed(df, cd, rng):
    """Three false relations: one coefficient of one R_i off by a random
    nonzero rational, R_-1 off by one, and R_0 raised by
    prod_{n<=K} (z - E_n), which keeps the relation true on P_0..P_K but
    makes N > K."""
    i = rng.randrange(cd.K)
    j = rng.randrange(cd.R[i].degree("z") + 2)
    off = F(rng.choice([-1, 1]) * rng.randint(1, 50), rng.randint(1, 9))
    R = list(cd.R)
    R[i] = R[i] + off * z ** j
    yield ClosureData(cd.K, R, cd.R_minus1)
    yield ClosureData(cd.K, list(cd.R), cd.R_minus1 + 1)
    vanishing = ParamPoly.const(1, ("z",))
    for n in range(cd.K + 1):
        vanishing = vanishing * (z - df.E(n))
    raised = ClosureData(cd.K, [cd.R[0] + vanishing, *cd.R[1:]], cd.R_minus1)
    assert not raised.bounds_ok()
    yield raised


def test_perturbed_data_give_the_reference_witness(golden_cases, fractional_j):
    rng = random.Random(22)
    for df, X, cd in [*golden_cases, fractional_j]:
        for _ in range(3):
            for broken in _perturbed(df, cd, rng):
                ok, n, k, residual = _same_verdict(df, X, broken)
                assert not ok and residual


def test_off_by_one_power_of_q_flips_the_certificate(fractional_j, monkeypatch):
    # negative control: a Horner pass that starts the carried power of y at
    # y instead of 1 scales every coefficient but the leading one by one
    # more power of q (or d), which is visible only when q or d > 1.  The
    # fixture's family read these data off its full levels, so its
    # certificate takes the verdict from its record and runs no Horner pass;
    # a fresh family of the same parameters decides every coordinate with
    # the broken pass, and so does a fresh closed-form solve
    df, X, cd = fractional_j

    def shifted(coeffs, x, y):
        acc, ypow = coeffs[-1], y
        for c in reversed(coeffs[:-1]):
            ypow *= y
            acc = acc * x + c * ypow
        return acc

    monkeypatch.setattr(closure, "horner", shifted)
    assert verify_closure_identity(df, X, cd)
    fresh = builtin_deformed("J", MultiIndex.parse("1I"), df.params)
    assert not verify_closure_identity(fresh, X, cd)
    assert ref.verify_closure_identity(fresh, X, cd)
    with pytest.raises(NoSolution):
        closure_for_family(builtin_deformed("J", MultiIndex.parse("1I"), df.params),
                           EtaPoly.const(1))
