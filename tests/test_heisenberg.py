"""Ladder operators: exact actions, recurrence-coefficient match, eigenvalue
shifts, the time-power expansion of the Heisenberg solution."""

import pathlib
from fractions import Fraction as F

import pytest

from closurelab import cli, families, heisenberg
from closurelab.exactalg import EtaPoly, ParamPoly
from closurelab.closure import ClosureData, closure_for_family
from closurelab.families import (EigenValidationFailed, MultiIndex,
                                 builtin_deformed, load_family_plugin)
from closurelab.heisenberg import (LadderAction, LadderContext, NotProportional,
                                   check_r0_relation, commutation_check,
                                   heisenberg_series_check, ladder_apply,
                                   ladder_suite)
from heisenberg_reference import ad_coords
from operator_reference import H_tilde

ROOT = pathlib.Path(__file__).resolve().parent.parent


def round_trip_check(ctx, n_range):
    """Fundamental ladders: lowering after raising multiplies by
    r_{n,1} r_{n+1,-1} (positive at admissible parameters)."""
    out = []
    L = ctx.L
    for n in n_range:
        up = ladder_apply(ctx, L, n)          # raises by one
        assert up.shift == 1
        if not up.coefficient:
            continue
        # apply the lowering combination to the raised polynomial: n+1 state
        down = ladder_apply(ctx, L + 1, n + 1)
        assert down.shift == -1
        product = up.coefficient * down.coefficient
        expected = ctx.r(n, 1) * ctx.r(n + 1, -1)
        out.append({"check": "round-trip", "n": n,
                    "ok": product == expected and product > 0})
    return out


def two_step_specialization(ctx, n_range):
    """K = 2 consistency with the classic creation/annihilation pair:
    a^(+-) = +-([H,X] - (X + R_-1 R_0^-1) alpha_-+) / (alpha_+ - alpha_-)
    must reproduce a^(1), a^(2) acting on eigenpolynomials, coordinate by
    coordinate."""
    assert ctx.K == 2, "specialization check needs K = 2"
    out = []
    for n in n_range:
        sd, _ = ctx.spectral_at(n)
        ap, am = sd.alphas
        En = ctx.df.E(n)
        const = ctx.cd.R_minus1.evaluate({"z": En}) / ctx.cd.R[0].evaluate({"z": En})
        adX = ad_coords(ctx, 1, n)
        Xp = ad_coords(ctx, 0, n)
        Xc = {k: x + (const if k == 0 else 0) for k, x in Xp.items()}
        denom = ap - am
        plus = {k: (adX[k] - Xc[k] * am) / denom for k in adX}
        minus = {k: -(adX[k] - Xc[k] * ap) / denom for k in adX}
        a1 = ladder_apply(ctx, 1, n).coords
        a2 = ladder_apply(ctx, 2, n).coords
        out.append({"check": "two-step-form", "n": n,
                    "ok": plus == a1 and minus == a2})
    return out


@pytest.fixture(scope="module")
def ctx_l1i(l1i, l1i_closure):
    cd, X = l1i_closure
    return LadderContext(l1i, cd, X)


@pytest.fixture(scope="module")
def ctx_j1i(j1i, j1i_closure):
    cd, X = j1i_closure
    return LadderContext(j1i, cd, X)


def _reference_commutation_check(ctx, n_range):
    """The eigenvalue-shift rows by applying H to every nonzero ladder image:
    the route ``commutation_check`` replaces with the checked levels."""
    out = []
    H = H_tilde(ctx.df)
    for n in n_range:
        for j in range(1, ctx.K + 1):
            action = heisenberg.ladder_apply(ctx, j, n)
            entry = {"check": "eigenvalue-shift", "j": j, "n": n}
            if not action.coefficient:
                entry["ok"] = True
            else:
                image = ctx.df.P(n + action.shift) * action.coefficient
                lhs = H.apply_poly(image.param())
                rhs = (image * (ctx.df.E(n) + action.alpha)).param()
                sign_ok = (action.alpha > 0) if j <= ctx.L else (action.alpha < 0)
                entry["ok"] = (lhs == rhs) and sign_ok
            out.append(entry)
    return out


def test_annihilation_below_ground_state(ctx_l1i):
    action = ladder_apply(ctx_l1i, 4, 0)  # j = 2L lowers by L
    assert action.coefficient == 0 and not any(action.coords.values())


def test_single_step_ladder_coefficients(ctx_l1i, lag_params):
    gv = lag_params.g
    down = ladder_apply(ctx_l1i, 3, 1)
    assert down.shift == -1
    assert down.coefficient == -F(1, 2) * (2 * gv + 1) * (2 * gv + 5)
    up = ladder_apply(ctx_l1i, 2, 0)
    assert up.shift == 1
    assert up.coefficient == -(2 * gv + 3)


def test_ladder_suite_L_and_J(ctx_l1i, ctx_j1i):
    for ctx in (ctx_l1i, ctx_j1i):
        rep = ladder_suite(ctx, range(7))
        assert rep and all(e["ok"] for e in rep)


def test_fundamental_ladders_shift_by_one(ctx_l1i):
    L = ctx_l1i.L
    assert ladder_apply(ctx_l1i, L, 2).shift == 1
    assert ladder_apply(ctx_l1i, L + 1, 2).shift == -1


def test_r0_relation_values(ctx_l1i, lag_params):
    gv = lag_params.g
    cd = ctx_l1i.cd
    lhs = -cd.R_minus1.evaluate({"z": 0}) / cd.R[0].evaluate({"z": 0})
    assert lhs == (2 * gv + 1) * (6 * gv + 13) / 8
    assert all(e["ok"] for e in check_r0_relation(ctx_l1i, range(9)))


def test_r0_relation_classical_is_diagonal_coefficient(l_classical, lag_params):
    cd, X = closure_for_family(l_classical, EtaPoly.const(1))
    ctx = LadderContext(l_classical, cd, X)
    gv = lag_params.g
    for n in range(8):
        En = l_classical.E(n)
        lhs = -cd.R_minus1.evaluate({"z": En}) / cd.R[0].evaluate({"z": En})
        assert lhs == (4 * n + 2 * gv + 1) / 2  # the three-term diagonal
    assert all(e["ok"] for e in check_r0_relation(ctx, range(8)))


def test_r0_relation_jacobi(ctx_j1i):
    assert all(e["ok"] for e in check_r0_relation(ctx_j1i, range(9)))


def test_eigenvalue_shifts(ctx_l1i, ctx_j1i, jac_params):
    assert all(e["ok"] for e in commutation_check(ctx_l1i, range(6)))
    assert all(e["ok"] for e in commutation_check(ctx_j1i, range(5)))
    # J, one-step lowering from n = 1 reaches the ground state:
    # E_1 + alpha_{L+1}(E_1) = E_0 = 0
    action = ladder_apply(ctx_j1i, ctx_j1i.L + 1, 1)
    from closurelab.families import energy

    assert energy(jac_params, 1) + action.alpha == 0
    # the double-step annihilator from n = 1 gives the zero vector
    below = ladder_apply(ctx_j1i, 4, 1)
    assert below.shift == -2 and below.coefficient == 0


def test_eigenvalue_shift_example(ctx_l1i):
    action = ladder_apply(ctx_l1i, 1, 0)
    assert action.alpha == 8  # raises the ground state to E_2


def test_time_power_expansion(ctx_l1i, ctx_j1i):
    for ctx in (ctx_l1i, ctx_j1i):
        for n in range(4):
            rep = heisenberg_series_check(ctx, n, ctx.K + 2)
            assert all(e["ok"] for e in rep)


def test_time_power_m0_is_recurrence_row(ctx_l1i):
    # m = 0: X P(n) = sum_j a^(j) P(n) - R_-1/R_0 P(n)
    rep = heisenberg_series_check(ctx_l1i, 2, 0)
    assert rep[0]["ok"]


def test_round_trips_positive(ctx_l1i, ctx_j1i):
    for ctx in (ctx_l1i, ctx_j1i):
        rep = round_trip_check(ctx, range(5))
        assert rep and all(e["ok"] for e in rep)


def test_two_step_specialization_classical(l_classical, j_classical):
    for fam in (l_classical, j_classical):
        cd, X = closure_for_family(fam, EtaPoly.const(1))
        ctx = LadderContext(fam, cd, X)
        assert all(e["ok"] for e in two_step_specialization(ctx, range(6)))
        assert all(e["ok"] for e in ladder_suite(ctx, range(6)))


def test_not_proportional_detection(ctx_l1i, l1i):
    # corrupting the inhomogeneous term breaks proportionality
    from closurelab.closure import ClosureData

    cd = ctx_l1i.cd
    bad = ClosureData(cd.K, list(cd.R),
                      cd.R_minus1 + ParamPoly.var("z") ** 2)
    bad_ctx = LadderContext(l1i, bad, ctx_l1i.X)
    for _ in range(2):  # a failed action is not kept: it fails again
        with pytest.raises(NotProportional):
            ladder_apply(bad_ctx, 2, 1)


@pytest.mark.parametrize("case", ["L1I", "J1I", "J1II", "L1II-eta", "L2I-plugin"])
def test_eigenvalue_shifts_match_the_H_applying_route(case, request):
    if case == "L2I-plugin":
        df = load_family_plugin(ROOT / "plugins" / "laguerre_2I.json")
        cd, X = closure_for_family(df, EtaPoly.const(1))
    else:
        fixture = {"L1I": "l1i", "J1I": "j1i", "J1II": "j1ii",
                   "L1II-eta": "l1ii"}[case]
        df = request.getfixturevalue(fixture)
        Y = EtaPoly((0, 1)) if case == "L1II-eta" else EtaPoly.const(1)
        cd, X = closure_for_family(df, Y)
    ctx = LadderContext(df, cd, X)
    rows = commutation_check(ctx, range(7))
    assert rows == _reference_commutation_check(ctx, range(7))
    assert all(e["ok"] for e in rows)


def test_broken_level_above_the_solve_is_named(lag_params):
    # the closure solve reads P_0..P_6; commutation_check on n <= 6 reads
    # level 6, so check_levels(8) meets the broken P_8 first
    df = builtin_deformed("L", MultiIndex.parse("1I"), lag_params)
    cd, X = closure_for_family(df, EtaPoly.const(1))
    assert 8 not in df.checked_levels
    df._P_cache[8] = df.P(8) + df.P(7)
    with pytest.raises(EigenValidationFailed, match="n=8"):
        commutation_check(LadderContext(df, cd, X), range(7))


def test_perturbed_alpha_fails_its_eigenvalue_shift_row(ctx_l1i, monkeypatch):
    real = heisenberg.ladder_apply

    def perturbed(ctx, j, n):
        action = real(ctx, j, n)
        if (j, n) == (2, 3):
            action = LadderAction(action.shift, action.coefficient, action.coords,
                                  action.alpha + 1)
        return action

    monkeypatch.setattr(heisenberg, "ladder_apply", perturbed)
    for check in (commutation_check, _reference_commutation_check):
        rows = check(ctx_l1i, range(5))
        assert [(e["j"], e["n"]) for e in rows if not e["ok"]] == [(2, 3)]


def _heisenberg_run(monkeypatch, *argv):
    """Run the heisenberg command; return its family and the number of
    eigen-equations it checked."""
    built, calls = [], []
    real_builtin, real_check = cli._builtin, families.eigen_validate

    def capture(*args):
        built.append(real_builtin(*args))
        return built[-1]

    def counted(*args):
        calls.append(args)
        return real_check(*args)

    monkeypatch.setattr(cli, "_builtin", capture)
    monkeypatch.setattr(families, "eigen_validate", counted)
    assert cli.main(["heisenberg", *argv]) == 0
    (df,) = built
    return df, len(calls)


def test_heisenberg_stores_only_the_rows_it_reads(monkeypatch, capsys):
    df, _ = _heisenberg_run(monkeypatch, "--family", "L", "--D", "1I",
                            "--n-max", "6")
    assert sorted(n for _, n in df.recurrence_rows) == list(range(7))


def test_heisenberg_applies_H_only_to_check_levels(monkeypatch, capsys):
    for argv in (("--family", "L", "--D", "1I"),
                 ("--family", "J", "--D", "1II"),
                 ("--family", "L", "--D", "1II", "--Y", "eta")):
        df, applied = _heisenberg_run(monkeypatch, *argv)
        assert applied == len(df.checked_levels)
        monkeypatch.undo()


def test_each_ladder_action_is_computed_once(monkeypatch, capsys):
    # ladder_suite, commutation_check and heisenberg_series_check all read
    # a^(j) P(n); the context computes each (j, n) once and hands the same
    # action back on every later call
    applied, computed = [], []
    real_apply, real_action = heisenberg.ladder_apply, heisenberg._ladder_action

    def counted_apply(ctx, j, n):
        applied.append((j, n))
        return real_apply(ctx, j, n)

    def counted_action(ctx, j, n):
        computed.append((j, n))
        return real_action(ctx, j, n)

    monkeypatch.setattr(heisenberg, "ladder_apply", counted_apply)
    monkeypatch.setattr(heisenberg, "_ladder_action", counted_action)
    assert cli.main(["heisenberg", "--family", "J", "--D", "1II"]) == 0
    assert sorted(computed) == sorted(set(applied))
    # J[1II] (K = 4): 28 distinct (j, n), read 72 times
    assert (len(applied), len(computed)) == (72, 28)


def test_each_level_evaluates_its_closure_data_once(monkeypatch):
    # the ladder actions, the diagonal-coefficient relation and the
    # time-power checks all read R(E_n) and R_-1(E_n); the context
    # evaluates the closure data once per level and keeps the values with
    # that level's spectral data
    energies = []
    real_values_at = ClosureData.values_at

    def counted(cd, E):
        energies.append(E)
        return real_values_at(cd, E)

    monkeypatch.setattr(ClosureData, "values_at", counted)
    assert cli.main(["heisenberg", "--family", "J", "--D", "1II"]) == 0
    # J[1II] with --n-max 8: levels n = 0..6
    df = builtin_deformed("J", MultiIndex.parse("1II"), cli._parse_params("J", None))
    assert energies == [df.E(n) for n in range(7)]
