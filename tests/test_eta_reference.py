"""The integer route for eta data against the former ParamPoly route
(tests/eta_reference.py): eigen residuals and recurrence rows agree on the
L and J families {}, 1I, 1II, 2I, 3II and the shipped plugins, and the
negative controls fail on both."""

import pathlib
from fractions import Fraction as F

import pytest

import eta_reference as ref
from closurelab.exactalg import EtaPoly
from closurelab.families import (DeformedFamily, EigenValidationFailed,
                                 builtin_deformed, eigen_residual,
                                 eigen_validate, load_family_plugin)
from closurelab.recurrence import NonzeroRemainder, build_X, expand_in_basis

PLUGINS = pathlib.Path(__file__).resolve().parent.parent / "plugins"
CASES = [(fam, D) for fam in ("L", "J") for D in ("{}", "1I", "1II", "2I", "3II")] + [
    ("plugin", "laguerre_2I.json"), ("plugin", "jacobi_2II.json")]
IDS = [f"{fam}-{D}" for fam, D in CASES]
ONE, ETA = EtaPoly.const(1), EtaPoly((0, 1))


@pytest.fixture(scope="module")
def families(lag_params, jac_params):
    out = {}
    for fam, D in CASES:
        if fam == "plugin":
            out[(fam, D)] = load_family_plugin(PLUGINS / D)
        else:
            out[(fam, D)] = builtin_deformed(fam, D, lag_params if fam == "L" else jac_params)
    return out


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_eigen_residual_matches_the_param_poly_route(case, families):
    df = families[case]
    for n in range(9):
        got = eigen_residual(*df.H_cleared, df.xi, df.P(n), df.E(n))
        assert not got and not ref.family_residual(df, n)
        # off the spectrum the residual is a nonzero polynomial, the same one
        wrong = df.E(n) + F(1, 3)
        got = eigen_residual(*df.H_cleared, df.xi, df.P(n), wrong)
        assert got and got.param() == ref.family_residual(df, n, wrong)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_expand_in_basis_matches_the_param_poly_route(case, families):
    df = families[case]
    for Y in (ONE, ETA):
        X = build_X(df.xi, Y)
        for n in range(7):
            row = expand_in_basis(df, X, n)
            assert row == ref.expand_in_basis(df, X, n)
            assert sorted(row) == list(range(-X.degree, X.degree + 1))


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_perturbed_coefficient_fails_eigen_validate(case, families):
    df = families[case]
    n = 3
    Pn = df.P(n)
    for k in range(Pn.degree + 1):
        coeffs = [Pn.coeff(j) for j in range(Pn.degree + 1)]
        coeffs[k] += F(1, 7)
        bad = EtaPoly(coeffs)
        with pytest.raises(EigenValidationFailed, match=f"fails at n={n}"):
            eigen_validate(df.H_cleared, df.xi, bad, df.E(n), n)
        A2, A1, A0 = (a.param() for a in df.H_cleared)
        assert ref.eigen_residual(A2, A1, A0, df.xi.param(), bad.param(), df.E(n))
    eigen_validate(df.H_cleared, df.xi, Pn * F(-5, 2), df.E(n), n)  # linear


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_wrong_energy_fails_eigen_validate(case, families):
    df = families[case]
    for n in range(6):
        eigen_validate(df.H_cleared, df.xi, df.P(n), df.E(n), n)
        for wrong in (df.E(n) + 1, df.E(n + 1), -df.E(n) - F(1, 2)):
            with pytest.raises(EigenValidationFailed, match=f"fails at n={n}"):
                eigen_validate(df.H_cleared, df.xi, df.P(n), wrong, n)


@pytest.mark.parametrize("case", [c for c in CASES if c[1] != "{}"],
                         ids=[i for i in IDS if not i.endswith("{}")])
def test_nonspanning_level_raises_nonzero_remainder(case, families):
    # P_7 + eta^ell keeps the degree ell + 7 but leaves the span of the
    # P_m (ell >= 1): X*P_7 has a nonzero remainder on both routes, with
    # the same message
    df = families[case]
    broken = 7
    extra = EtaPoly([0] * df.ell + [1])

    polys = [df.P(n) + extra if n == broken else df.P(n) for n in range(2 * broken)]
    bad = DeformedFamily(df.fam, df.D, df.params, df.xi, polys)
    X = build_X(df.xi, ONE)
    assert bad.P(broken).degree == df.ell + broken
    with pytest.raises(NonzeroRemainder) as got:
        expand_in_basis(bad, X, broken)
    with pytest.raises(NonzeroRemainder) as want:
        ref.expand_in_basis(bad, X, broken)
    assert str(got.value) == str(want.value)
    assert f"X*P({broken}) leaves remainder of degree" in str(got.value)
    assert expand_in_basis(bad, X, 2) == expand_in_basis(df, X, 2)
