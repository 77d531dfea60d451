"""The package's Lagrange route for the ladder checks against the
eigenvector route on Fractions (tests/heisenberg_reference.py): identical
ladder actions and time-power
entries on L and J with D in {1I, 1II, 2I, 3II}, Y in {1, eta, eta^2} and
the shipped L[2I] plugin, and negative controls that flip a verdict."""

import inspect
import pathlib
from fractions import Fraction as F

import pytest

import heisenberg_reference as ref
from closurelab import heisenberg
from closurelab.closure import closure_for_family, level_coordinates
from closurelab.exactalg import EtaPoly
from closurelab.families import (MultiIndex, ParamSet, builtin_deformed,
                                 load_family_plugin)
from closurelab.heisenberg import (LadderAction, LadderContext, NotProportional,
                                   heisenberg_series_check, ladder_apply)
from closurelab.spectral import SpectralData

PLUGIN = pathlib.Path(__file__).resolve().parent.parent / "plugins" / "laguerre_2I.json"
Y_POLYS = {"1": EtaPoly.const(1), "eta": EtaPoly((0, 1)), "eta^2": EtaPoly((0, 0, 1))}
# a = g + h = 89/6: inside the ordering range a > 2L - 1 up to L = 6 (3II
# with Y = eta^2), and E_n = 4n(n + a) has denominator 3, so the J cases
# have Delta_{n,k} = p/q with q > 1 (for L every Delta is an integer)
J_PARAMS = ParamSet("J", {"g": F(17, 2), "h": F(19, 3)})
CASES = [(fam, D, Y) for fam in ("L", "J") for D in ("1I", "1II", "2I", "3II")
         for Y in Y_POLYS] + [("plugin", "2I", Y) for Y in Y_POLYS]
N_TOP = 6


def _context(case, lag_params):
    fam, D, Y = case
    if fam == "plugin":
        df = load_family_plugin(PLUGIN)
    else:
        df = builtin_deformed(fam, MultiIndex.parse(D), lag_params if fam == "L" else J_PARAMS)
    cd, X = closure_for_family(df, Y_POLYS[Y])
    return LadderContext(df, cd, X)


def _ladder_ok(action_fn, ctx, j, n) -> bool:
    """The ladder verdict of one route: a^(j) P(n) is proportional to
    P(n+shift), with the recurrence coefficient r_{n,shift}."""
    try:
        action = action_fn(ctx, j, n)
    except NotProportional:
        return False
    return action.coefficient == ctx.r(n, action.shift)


@pytest.mark.parametrize("case", CASES, ids=["-".join(c) for c in CASES])
def test_integer_route_matches_the_fraction_route(case, lag_params):
    ctx = _context(case, lag_params)
    for n in range(N_TOP + 1):
        for j in range(1, ctx.K + 1):
            got, want = ladder_apply(ctx, j, n), ref.ladder_action(ctx, j, n)
            assert got.coords == want.coords
            assert (got.shift, got.coefficient, got.alpha) == (
                want.shift, want.coefficient, want.alpha)
            assert _ladder_ok(ladder_apply, ctx, j, n)
    for n in range(4):
        rows = heisenberg_series_check(ctx, n, ctx.K + 2)
        assert rows == ref.heisenberg_series_check(ctx, n, ctx.K + 2)
        assert all(e["ok"] for e in rows)
    q_max = max(delta.denominator for n in range(N_TOP + 1)
                for _, _, delta in level_coordinates(ctx.df, ctx.X, n))
    assert (q_max > 1) == (case[0] == "J")


@pytest.fixture(scope="module")
def j_ctx(lag_params):
    return _context(("J", "1II", "eta"), lag_params)


def _fresh(ctx):
    """A context on the same closure data with empty stores."""
    return LadderContext(ctx.df, ctx.cd, ctx.X)


def test_corrupted_E_j_flips_the_ladder_verdict(j_ctx):
    # the eigenvector route builds P and P^-1 from R and the roots alone,
    # so a wrong chi'(a_j) in the certified data flips only the package
    n, j = 2, j_ctx.L  # a^(L) raises by one
    ctx = _fresh(j_ctx)
    sd, R_minus1 = ctx.spectral_at(n)
    E = list(sd.E)
    E[j - 1] += 1
    ctx._spectral[n] = (SpectralData(sd.alphas, sd.R, sd.B, sd.delta, tuple(E)),
                        R_minus1)
    assert _ladder_ok(ladder_apply, _fresh(j_ctx), j, n)
    assert not _ladder_ok(ladder_apply, ctx, j, n)
    assert _ladder_ok(ref.ladder_action, ctx, j, n)


def test_off_by_one_power_of_q_flips_the_ladder_verdict(j_ctx, monkeypatch):
    # the coordinate's denominator carries q^(K-1), one q per factor
    # p delta - q B_m; q^K instead is visible only when q > 1
    source = inspect.getsource(heisenberg._ladder_action)
    assert source.count("q ** (K - 1)") == 1
    namespace = dict(vars(heisenberg))
    exec(source.replace("q ** (K - 1)", "q ** K"), namespace)
    n, j = 2, j_ctx.L
    assert any(delta.denominator > 1
               for _, _, delta in level_coordinates(j_ctx.df, j_ctx.X, n))
    monkeypatch.setattr(heisenberg, "_ladder_action", namespace["_ladder_action"])
    ctx = _fresh(j_ctx)
    assert not _ladder_ok(ladder_apply, ctx, j, n)
    # the Fraction route has no power of q: on the same data it stays green
    assert _ladder_ok(ref.ladder_action, ctx, j, n)


def test_perturbed_R_minus1_flips_the_ladder_verdict(j_ctx):
    n, j = 3, j_ctx.L + 1  # a^(L+1) lowers by one
    ctx = _fresh(j_ctx)
    sd, R_minus1 = ctx.spectral_at(n)
    ctx._spectral[n] = (sd, R_minus1 + F(1, 5))
    for route in (ladder_apply, ref.ladder_action):
        assert _ladder_ok(route, _fresh(j_ctx), j, n)
        assert not _ladder_ok(route, ctx, j, n)


def test_perturbed_action_coordinate_flips_the_time_power_verdict(j_ctx):
    n, j = 2, 1
    ctx = _fresh(j_ctx)
    action = ladder_apply(ctx, j, n)
    coords = dict(action.coords)
    coords[action.shift] += F(1, 7)
    bad = LadderAction(action.shift, action.coefficient, coords, action.alpha)
    ctx._actions[(j, n)] = bad
    actions = [ladder_apply(ctx, i, n) for i in range(1, ctx.K + 1)]
    assert actions[j - 1] is bad
    got = heisenberg_series_check(ctx, n, ctx.K + 2)
    assert got == ref.heisenberg_series_check(ctx, n, ctx.K + 2, actions)
    assert [e["m"] for e in got if not e["ok"]] == list(range(ctx.K + 3))
    assert all(e["ok"] for e in heisenberg_series_check(_fresh(j_ctx), n, ctx.K + 2))
