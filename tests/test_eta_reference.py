"""The integer route for eta data against the former routes
(tests/eta_reference.py): eigen residuals and recurrence rows agree with the
ParamPoly route on the L and J families {}, 1I, 1II, 2I, 3II and the
shipped plugins, and the negative controls fail on both; the eigen
residual equals the former EtaPoly-operation route on random data, the
seed numerators equal their general form, and the closed-form degenerate
level equals the square-root route."""

import pathlib
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import eta_reference as ref
from closurelab.closure import closure_for_family
from closurelab.exactalg import EtaPoly
from closurelab.families import (VALIDATE_N, DeformedFamily,
                                 EigenValidationFailed, MultiIndex, ParamSet,
                                 builtin_deformed, canonical_seed, check_seed,
                                 degenerate_level, eigen_validate, energy,
                                 load_family_plugin,
                                 seed_data, seed_numerators, virtual_energy)
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
            out[(fam, D)] = builtin_deformed(fam, MultiIndex.parse(D),
                                             lag_params if fam == "L" else jac_params)
    return out


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_eigen_residual_matches_the_param_poly_route(case, families):
    df = families[case]
    for n in range(9):
        got = ref.integer_residual(*df.H_cleared, df.xi, df.P(n), df.E(n))
        assert not got and not ref.family_residual(df, n)
        # off the spectrum the residual is a nonzero polynomial, the same one
        wrong = df.E(n) + F(1, 3)
        got = ref.integer_residual(*df.H_cleared, df.xi, df.P(n), wrong)
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
            eigen_validate(df.H_numerators, bad, df.E(n), n)
        A2, A1, A0 = (a.param() for a in df.H_cleared)
        assert ref.eigen_residual(A2, A1, A0, df.xi.param(), bad.param(), df.E(n))
    eigen_validate(df.H_numerators, Pn * F(-5, 2), df.E(n), n)  # linear


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_wrong_energy_fails_eigen_validate(case, families):
    df = families[case]
    for n in range(6):
        eigen_validate(df.H_numerators, df.P(n), df.E(n), n)
        for wrong in (df.E(n) + 1, df.E(n + 1), -df.E(n) - F(1, 2)):
            with pytest.raises(EigenValidationFailed, match=f"fails at n={n}"):
                eigen_validate(df.H_numerators, df.P(n), wrong, n)


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


def test_expand_in_basis_rows_are_one_fraction_per_entry(families):
    # Y = eta^2 + 1 (L = ell + 3): row for row equal to the reference, and
    # every entry a Fraction
    for df in families.values():
        X = build_X(df.xi, EtaPoly((1, 0, 1)))
        for n in range(5):
            row = expand_in_basis(df, X, n)
            assert row == ref.expand_in_basis(df, X, n)
            assert all(type(r) is F for r in row.values())


_coefficient = st.one_of(st.integers(-60, 60),
                         st.fractions(-30, 30, max_denominator=24))
_poly = st.lists(_coefficient, max_size=7).map(EtaPoly)


@settings(max_examples=150, deadline=None)
@given(_poly, _poly, _poly, _poly, _poly,
       st.one_of(st.integers(-400, 400), st.fractions(-400, 400, max_denominator=60)))
def test_eigen_residual_equals_the_eta_operation_route(A2, A1, A0, W, f, E):
    got = ref.integer_residual(A2, A1, A0, W, f, E)
    assert got == ref.eigen_residual_eta(A2, A1, A0, W, f, E)
    assert got.param() == ref.eigen_residual(A2.param(), A1.param(), A0.param(),
                                             W.param(), f.param(), E)


@pytest.mark.parametrize("case", [("L", "1I"), ("J", "1II")], ids=["L-1I", "J-1II"])
def test_eigen_validate_builds_no_eta_poly_and_no_fraction(case, families, monkeypatch):
    # a level is decided by the zero test of one integer list over the
    # family's integer Hamiltonian: nothing is reduced, and an int energy
    # is read as its numerator and denominator, so no Fraction is built
    df = families[case]
    Pn = df.P(3)
    E = int(df.E(3))
    assert E == df.E(3)
    reduced, made = [], []
    real_reduced, real_new = EtaPoly._reduced, F.__new__

    def counting_reduced(cls, num, den):
        reduced.append(den)
        return real_reduced(num, den)

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(EtaPoly, "_reduced", classmethod(counting_reduced))
    monkeypatch.setattr(F, "__new__", counting_new)
    eigen_validate(df.H_numerators, Pn, E, 3)
    failed = None
    try:
        eigen_validate(df.H_numerators, Pn, E + 1, 3)
    except EigenValidationFailed as exc:
        failed = str(exc)
    monkeypatch.undo()
    assert failed == "eigen-equation fails at n=3"
    assert reduced == [] and made == []


SEED_PARAMS = {
    "L": [{"g": F(7, 3)}, {"g": F(1, 2)}, {"g": F(-5, 4)}, {"g": 3}],
    "J": [{"g": 2, "h": 3}, {"g": F(1, 2), "h": F(5, 7)},
          {"g": F(-3, 4), "h": F(1, 2)}, {"g": F(9, 2), "h": F(-2, 3)}],
}


@pytest.mark.parametrize("fam", ["L", "J"])
@pytest.mark.parametrize("t", ["I", "II"])
def test_seed_numerators_equal_the_general_form(fam, t):
    # every seed prefactor has a constant p and an integer q of degree <= 1
    # (p = 0 at the second and third J sets and the second L set), so the
    # collapsed integer numerators are the general ones with p' and q'
    for values in SEED_PARAMS[fam]:
        ps = ParamSet(fam, values)
        p, q = seed_data(fam, t, ps)
        assert p.degree <= 0 and q.degree <= 1 and q.den == 1
        *nums, den = seed_numerators(fam, t, ps)
        assert den > 0
        assert [EtaPoly._reduced(x, den) for x in nums] == list(
            ref.seed_numerators(fam, t, ps))


@pytest.mark.parametrize("fam", ["L", "J"])
@pytest.mark.parametrize("t", ["I", "II"])
def test_perturbed_seed_fails_check_seed(fam, t, lag_params, jac_params):
    # negative controls: the seed plus 1, and the seed with one nonzero
    # coefficient doubled, are not quasi-eigenfunctions, on both routes
    ps = lag_params if fam == "L" else jac_params
    for d in (1, 2, 3):
        seed = canonical_seed(fam, t, d, ps)
        Et = virtual_energy(ps, t, d)
        coeffs = [seed.coeff(j) for j in range(seed.degree + 1)]
        broken = [seed + EtaPoly.const(1)] + [
            EtaPoly([c * (2 if j == k else 1) for j, c in enumerate(coeffs)])
            for k in range(len(coeffs)) if coeffs[k]]
        assert len(broken) >= 3
        for bad in broken:
            with pytest.raises(EigenValidationFailed, match="not a quasi-eigenfunction"):
                check_seed(fam, t, d, ps, bad)
            assert ref.eigen_residual_eta(*ref.seed_numerators(fam, t, ps), bad, Et)


def test_energy_off_by_one_at_one_level_fails(monkeypatch, lag_params, jac_params):
    # negative control: E_n + 1 at one level fails the build when the level
    # is one of P_0..P_VALIDATE_N, and the first closure read otherwise
    for fam, ps in (("L", lag_params), ("J", jac_params)):
        for D in ("{}", "1I", "1II", "2I"):
            for bad in (0, 3, VALIDATE_N, VALIDATE_N + 1):
                monkeypatch.setattr("closurelab.families.energy",
                                    lambda params, n: energy(params, n) + (n == bad))
                match = f"fails at n={bad}"
                if bad <= VALIDATE_N:
                    with pytest.raises(EigenValidationFailed, match=match):
                        builtin_deformed(fam, MultiIndex.parse(D), ps)
                else:
                    df = builtin_deformed(fam, MultiIndex.parse(D), ps)
                    with pytest.raises(EigenValidationFailed, match=match):
                        closure_for_family(df, EtaPoly((0, 1)))


def test_degenerate_level_equals_the_square_root_route():
    # J: a^2 + Et is the square (b +- (2d + 1))^2, so the closed form and
    # the quadratic formula name the same level on a grid of (a, b, d, t)
    # that meets the degenerate lines 2n + a = +-(b +- (2d + 1)) often; L
    # is unchanged
    halves = [F(k, 2) for k in range(-14, 15)]
    found = 0
    for a in halves + [F(1, 3), F(-7, 3)]:
        for b in halves + [F(2, 3)]:
            ps = ParamSet.at_reference("J", {"a": a, "b": b})
            for d in (1, 2, 3):
                for t in ("I", "II"):
                    got = degenerate_level(ps, t, d)
                    assert got == ref.degenerate_level(ps, t, d)
                    found += got is not None
    for g in halves + [F(7, 3)]:
        ps = ParamSet("L", {"g": g})
        for d in (1, 2, 3):
            for t in ("I", "II"):
                assert degenerate_level(ps, t, d) == ref.degenerate_level(ps, t, d)
    assert found > 300
