"""Family data: energies, virtual states, classical polynomials, built-in
deformations, Hamiltonian routes, norm ratios, plugin loading."""

import json
import math
import pathlib
from fractions import Fraction as F

import pytest

from closurelab import families
from closurelab.exactalg import EtaPoly, ParamPoly, RationalFunc, solve_linear_exact
from closurelab.families import (DegreeMismatch, EigenValidationFailed,
                                 MultiIndex, ParamSet, SchemaError,
                                 builtin_deformed, c1_poly,
                                 c2_poly, canonical_seed, check_seed,
                                 cleared_hamiltonian,
                                 classical_family, classical_h_step,
                                 classical_poly, eigen_residual, energy,
                                 family_from_plugin_dict, load_family_plugin,
                                 one_step_family,
                                 plugin_dict_from_family, seed_data,
                                 seed_degree_drops, virtual_energy)
from closurelab.opalg import DiffOp
from closurelab.recurrence import compute_table
from operator_reference import (H_tilde, build_H_ansatz, build_H_tilde,
                                gauge_transform, swapped)

eta = ParamPoly.var("eta")
E = EtaPoly.from_param


def param_pair(pair):
    """A (p, q) pair of EtaPolys as ParamPolys, for the operator routes."""
    return tuple(x.param() for x in pair)


def test_energies_printed_values(lag_params, jac_params, aw_params):
    assert energy(lag_params, 3) == 12
    g, h = F(2), F(3)
    assert energy(jac_params, 1) == 4 * (1 + g + h)
    assert energy(aw_params, 0) == 0


def test_energy_zero_and_increasing(lag_params, jac_params, wil_params, aw_params):
    for ps in (lag_params, jac_params, wil_params, aw_params):
        assert energy(ps, 0) == 0
        vals = [energy(ps, n) for n in range(10)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_virtual_energies_printed_values(lag_params, jac_params):
    g = lag_params.g
    assert virtual_energy(lag_params, "I", 1) == -4 * (g + F(3, 2))
    gj, hj = jac_params.g, jac_params.h
    assert virtual_energy(jac_params, "II", 0) == -4 * (gj - F(1, 2)) * (hj + F(1, 2))


def test_virtual_energies_negative_at_admissible_samples(lag_params, jac_params):
    # admissibility windows: type II needs the seed degree below g - 1/2
    # (L, J), type I Jacobi below h - 1/2
    for ps in (lag_params, jac_params):
        for t in ("I", "II"):
            assert virtual_energy(ps, t, 1) < 0
    for v in (2, 3):
        assert virtual_energy(lag_params, "I", v) < 0
    assert virtual_energy(jac_params, "I", 2) < 0


def energy_poly(fam):
    """E_n as an exact polynomial in the symbol 'n' (L, J, W)."""
    n = ParamPoly.var("n")
    if fam == "L":
        return 4 * n
    if fam == "J":
        return 4 * n * (n + ParamPoly.var("a"))
    return n * (n + ParamPoly.var("b1") - 1)


def test_wilson_sqrt_free_identity_polynomial():
    n, b1 = ParamPoly.var("n"), ParamPoly.var("b1")
    E = energy_poly("W")
    assert 4 * E + (b1 - 1) ** 2 == (2 * n + b1 - 1) ** 2
    # and the L/J energy polynomials for completeness
    assert energy_poly("L") == 4 * n
    assert energy_poly("J") == 4 * n * (n + ParamPoly.var("a"))


def test_aw_sqrt_free_identity_polynomial():
    # in terms of t = q^n, cleared by (t*q)^2:
    # (E t q + t q + b4 t)^2 - 4 b4 q t^2 == (q - b4 t^2)^2
    t, q, b4 = ParamPoly.var("t"), ParamPoly.var("q"), ParamPoly.var("b4")
    E_tq = (1 - t) * (q - b4 * t)  # E * t * q
    lhs = (E_tq + t * q + b4 * t) ** 2 - 4 * b4 * q * t * t
    assert lhs == (q - b4 * t * t) ** 2


def test_classical_poly_low_degrees(lag_params):
    assert classical_poly("L", 0, lag_params) == EtaPoly.const(1)
    g = lag_params.g
    assert classical_poly("L", 1, lag_params) == E(ParamPoly.const(g + F(1, 2)) - eta)


def _reference_classical_poly(fam: str, n: int, params: ParamSet) -> ParamPoly:
    """The classical polynomial as a sum of polynomial powers: L from
    eta^k, J in the two-sided form sum_k minus^k plus^(n-k)."""
    def rising(base, count):
        out = F(1)
        for i in range(count):
            out *= base + i
        return out

    out = ParamPoly.zero(("eta",))
    alpha = params.g - F(1, 2)
    for k in range(n + 1):
        ca = rising(alpha + k + 1, n - k) * F(1, math.factorial(n - k))
        if fam == "L":
            out = out + ca * F((-1) ** k, math.factorial(k)) * eta ** k
        else:
            beta = params.h - F(1, 2)
            cb = rising(beta + (n - k) + 1, k) * F(1, math.factorial(k))
            out = out + ca * cb * ((eta - 1) * F(1, 2)) ** k * ((eta + 1) * F(1, 2)) ** (n - k)
    return out


@pytest.mark.parametrize("fam,values", [
    ("L", {"g": F(7, 3)}), ("L", {"g": F(-13, 2)}),
    ("J", {"g": F(2), "h": F(3)}), ("J", {"g": F(13, 4), "h": F(9, 4)}),
    ("J", {"g": F(-1, 2), "h": F(5, 7)})])
def test_classical_poly_matches_power_sum_reference(fam, values):
    # g = -13/2 and g = -1/2 make some rising factorials vanish, so some
    # coefficients cancel to zero
    ps = ParamSet(fam, values)
    for n in range(21):
        got = classical_poly(fam, n, ps)
        assert got.param().terms == _reference_classical_poly(fam, n, ps).terms
        assert got.degree == n


def test_classical_eigen_equations_to_n8(l_classical, j_classical):
    for fam in (l_classical, j_classical):
        for n in range(9):
            assert H_tilde(fam).apply_poly(fam.P(n).param()) == (fam.P(n) * fam.E(n)).param()


def test_c1_matches_classical_operator(l_classical, j_classical, lag_params,
                                       jac_params):
    for cls, ps in ((l_classical, lag_params), (j_classical, jac_params)):
        # xi = 1, so the cleared numerators are those of H_cl: (c2, c1, 0)
        assert cls.H_cleared == (c2_poly(cls.fam), c1_poly(cls.fam, ps), 0)
        assert H_tilde(cls) == DiffOp("eta", {2: -4 * c2_poly(cls.fam).param(),
                                              1: -4 * c1_poly(cls.fam, ps).param()})


def test_classical_H_closed_forms(l_classical, j_classical, lag_params, jac_params):
    g = lag_params.g
    assert H_tilde(l_classical) == DiffOp("eta", {2: -4 * eta,
                                                  1: -4 * (ParamPoly.const(g + F(1, 2)) - eta)})
    gj, hj = jac_params.g, jac_params.h
    assert H_tilde(j_classical) == DiffOp("eta", {
        2: -4 * (1 - eta ** 2),
        1: -4 * (ParamPoly.const(hj - gj) - (gj + hj + 1) * eta)})


def test_eigen_residual_is_the_cleared_eigen_equation(l1i, j1ii):
    # zero on eigenpolynomials, and for any f equal to -xi/4 (H f - E f)
    # by the reference operator
    for df in (l1i, j1ii):
        for n in range(4):
            assert not eigen_residual(*df.H_cleared, df.xi, df.P(n), df.E(n))
        f, En = eta ** 3 + 1, df.E(1)
        H = H_tilde(df)
        expected = (H.apply(f) - RationalFunc(f) * En) * RationalFunc(df.xi.param() * F(-1, 4))
        residual = eigen_residual(*df.H_cleared, df.xi, E(f), En)
        assert RationalFunc(residual.param()) == expected


def test_multi_index_bookkeeping():
    D = MultiIndex.parse("1I,2I")
    assert (D.M, D.M1, D.M2, D.ell) == (2, 2, 0, 2)
    D = MultiIndex.parse("1I,1II")
    assert D.ell == 2 - 1 + 2 == 3  # mixed types gain 2*M1*M2
    with pytest.raises(ValueError):
        MultiIndex(((1, "I"), (1, "I")))
    with pytest.raises(ValueError):
        MultiIndex(((0, "I"),))


@pytest.mark.parametrize("d", [2.9, 2.0, True, "2", None])
def test_multi_index_degrees_are_ints(d):
    # int(d) would truncate 2.9 to 2 and read True as 1
    with pytest.raises(ValueError, match="is not an integer"):
        MultiIndex(((d, "I"),))
    data = {"family": "L", "parameters": {"g": "7/2"}, "D": [{"d": d, "type": "I"}],
            "xi": eta.record(), "P": {"kind": "explicit", "polys": []}}
    with pytest.raises(SchemaError, match="bad multi-index"):
        family_from_plugin_dict(data)


def test_builtin_denominator_polynomials(l1i, l1ii, j1i, j1ii, lag_params, jac_params):
    g = lag_params.g
    assert l1i.xi == E(eta + g + F(1, 2))
    assert l1ii.xi == E(-(eta + g - F(3, 2)))
    a, b = jac_params.a, jac_params.b
    assert j1i.xi == E(((b + 2) * eta + (a - 1)) * F(1, 2))
    assert j1ii.xi == E(((2 - b) * eta - (a - 1)) * F(1, 2))


def test_builtin_minimal_X_integrals(l1i, l1ii, lag_params):
    g = lag_params.g
    assert l1i.xi.integrate() == E(F(1, 2) * eta * (eta + 2 * g + 1))
    assert l1ii.xi.integrate() == E(-F(1, 2) * eta * (eta + 2 * g - 3))


def test_builtin_P0_values(l1i, lag_params):
    g = lag_params.g
    assert l1i.P(0) == E(-(eta + g + F(3, 2)))


def test_builtin_eigen_validated_to_n8(l1i, l1ii, j1i, j1ii):
    for df in (l1i, l1ii, j1i, j1ii):
        for n in range(9):
            assert H_tilde(df).apply_poly(df.P(n).param()) == (df.P(n) * df.E(n)).param()
            assert df.P(n).degree == df.ell + n


def test_conjugation_routes_agree(lag_params, jac_params):
    build_H_tilde("L", "1I", lag_params, route="conjugation")
    build_H_tilde("J", "1I", jac_params, route="conjugation")
    build_H_tilde("J", "1II", jac_params, route="conjugation")


def test_seed_quasi_eigenfunctions(lag_params, jac_params, l_classical, j_classical):
    # operator route: the classical operator conjugated by the seed prefactor
    for fam, ps, cls in (("L", lag_params, l_classical), ("J", jac_params, j_classical)):
        for t in ("I", "II"):
            xi_seed = canonical_seed(fam, t, 1, ps).param()
            Hg = gauge_transform(H_tilde(cls), RationalFunc(*param_pair(seed_data(fam, t, ps))))
            assert Hg.apply(xi_seed) == RationalFunc(xi_seed) * virtual_energy(ps, t, 1)


def test_seed_data_pairs_are_already_reduced(lag_params, jac_params):
    # (p, q) is the pair the reduced quotient m = p/q holds, so the seed
    # check and the intertwiner read the same p and q
    for fam, ps in (("L", lag_params), ("J", jac_params)):
        for t in ("I", "II"):
            p, q = param_pair(seed_data(fam, t, ps))
            m = RationalFunc(p, q)
            assert (m.num, m.den) == (p, q)


def _reference_monic_seed(fam: str, t: str, d: int, params: ParamSet) -> ParamPoly:
    """Monic degree-d seed by an exact linear solve: the polynomial part of
    the type I/II quasi-eigenfunction of the undeformed operator, from the
    gauge-transformed classical operator at the virtual energy."""
    cls = classical_family(fam, params)
    Hg = gauge_transform(H_tilde(cls), RationalFunc(*param_pair(seed_data(fam, t, params))))
    et = virtual_energy(params, t, d)
    # residual of (Hg - et) on eta^k times the common denominator D of the
    # cleared form; D != 0, so it vanishes exactly when the residual does
    D, _ = Hg.cleared()
    imgs = [Hg.apply_cleared(eta ** k) - D * eta ** k * et for k in range(d + 1)]
    max_deg = max(p.degree("eta") for p in imgs if not p.is_zero)
    rows, rhs = [], []
    for degree in range(max_deg + 1):
        row = []
        for k in range(d):
            c = imgs[k].coeffs_in("eta").get(degree)
            row.append(c.constant_value() if c is not None else F(0))
        c = imgs[d].coeffs_in("eta").get(degree)
        rows.append(row)
        rhs.append(-(c.constant_value() if c is not None else F(0)))
    sol = solve_linear_exact(rows, rhs)
    assert sol.consistent and not sol.kernel_basis
    return eta ** d + ParamPoly.univar("eta", {k: sol.solution[k] for k in range(d)})


@pytest.mark.parametrize("d", [1, 2, 3])
def test_canonical_seed_matches_reference_solve(d, lag_params, jac_params):
    for fam, ps in (("L", lag_params), ("J", jac_params)):
        for t in ("I", "II"):
            seed = canonical_seed(fam, t, d, ps)
            lead = seed.lead
            assert lead and seed == E(_reference_monic_seed(fam, t, d, ps) * lead)


def test_perturbed_seed_fails_the_residual_check(lag_params, jac_params):
    for fam, ps in (("L", lag_params), ("J", jac_params)):
        for t in ("I", "II"):
            for d in (1, 2):
                seed = canonical_seed(fam, t, d, ps)
                check_seed(fam, t, d, ps, seed * 3)  # the check is linear
                with pytest.raises(EigenValidationFailed):
                    check_seed(fam, t, d, ps, seed + E(eta ** (d - 1)))
                with pytest.raises(EigenValidationFailed):
                    check_seed(fam, t, d + 1, ps, seed)  # wrong virtual energy


def test_seed_degree_drops_matches_the_seed():
    # the closed form against the degree of the built seed, on both sides
    # of b = 0 (J seeds lose degree at b = +-(d+1..2d)); L seeds never do
    for d in (1, 2, 3):
        for t in ("I", "II"):
            for b in (F(k, 2) for k in range(-14, 15)):
                ps = ParamSet("J", {"g": (F(9) + b) / 2, "h": (F(9) - b) / 2})
                dropped = canonical_seed("J", t, d, ps).degree < d
                assert seed_degree_drops(ps, t, d) == dropped, (d, t, b)
                ps = ParamSet("L", {"g": F(5) + b})
                assert not seed_degree_drops(ps, t, d)
                assert canonical_seed("L", t, d, ps).degree == d


def test_h_step_against_three_term_recurrence(l_classical, j_classical):
    # A_n h_{n+1} = C_{n+1} h_n with three-term coefficients from expansion
    for fam in (l_classical, j_classical):
        t = compute_table(fam, EtaPoly((0, 1)), range(7))
        for n in range(6):
            A_n = t.rows[n][1]
            C_n1 = t.rows[n + 1][-1]
            assert A_n * classical_h_step(fam.params, n + 1) == C_n1


def test_h_ratio_examples(l_classical, l1i, lag_params):
    g = lag_params.g
    n = 5
    num, den = l_classical.h_ratio(n, 1)
    assert num / den == (n + g - F(1, 2)) / n
    num, den = l1i.h_ratio(n, 1)
    assert num / den == ((n + g - F(1, 2)) * (n + g + F(3, 2))
                         / (n * (n + g + F(1, 2))))
    # the one caller, check_h_symmetry, asks for l = 1..L only
    with pytest.raises(ValueError, match="need 1 <= l <= n"):
        l1i.h_ratio(n, 0)


def test_h_step_is_for_L_and_J_only(wil_params, aw_params):
    # a DeformedFamily, the one caller of each, is built for L and J alone
    for ps in (wil_params, aw_params):
        with pytest.raises(ValueError, match="provided for L and J"):
            classical_h_step(ps, 1)
        with pytest.raises(ValueError, match="provided for L and J"):
            virtual_energy(ps, "I", 1)


def test_paramset_validation():
    with pytest.raises(ValueError):
        ParamSet("L", {})
    with pytest.raises(ValueError, match="^the parameters of L are g, got g, q$"):
        ParamSet("L", {"g": 1, "q": F(1, 2)})
    with pytest.raises(TypeError):  # a bool is not a number
        ParamSet("L", {"g": True})
    with pytest.raises(ValueError):
        ParamSet("AW", {"a1": 1, "a2": 1, "a3": 1, "a4": 1, "q": F(1, 2)})  # not a square
    ps = ParamSet("AW", {"a1": 1, "a2": 1, "a3": 1, "a4": 1, "q": F(4, 9)})
    assert ps.r == F(2, 3)
    assert ParamSet("W", {"a1": 1, "a2": 2, "a3": 3, "a4": 4}).b4 == 24
    # the reference variables: g for L; a = g + h and b = g - h for J
    for ps, ref in ((ParamSet("L", {"g": F(7, 3)}), {"g": F(7, 3)}),
                    (ParamSet("J", {"g": 2, "h": F(1, 2)}),
                     {"a": F(5, 2), "b": F(3, 2)})):
        assert ps.reference_values() == ref
        assert ParamSet.at_reference(ps.fam, ref) == ps


def test_canonical_seeds_match_builtins(lag_params, jac_params):
    # the degree-1 seeds of the former hand-written built-ins
    g = lag_params.g
    assert canonical_seed("L", "I", 1, lag_params) == E(eta + g + F(1, 2))
    assert canonical_seed("L", "II", 1, lag_params) == E(-(eta + g - F(3, 2)))
    a, b = jac_params.a, jac_params.b
    assert canonical_seed("J", "I", 1, jac_params) == E(((b + 2) * eta + (a - 1)) * F(1, 2))
    assert canonical_seed("J", "II", 1, jac_params) == E(((2 - b) * eta - (a - 1)) * F(1, 2))


def _former_builtin_P(fam: str, t: str, params: ParamSet, n: int) -> ParamPoly:
    """P_n of the former hand-written degree-1 built-ins; J[1II] was the
    mirror (g, h) -> (h, g), eta -> -eta of J[1I]."""
    Pn = classical_poly(fam, n, params).param()
    if fam == "L":
        g = params.g
        if t == "I":
            return (eta + g + F(1, 2)) * Pn.diff("eta") - (eta + g + F(3, 2)) * Pn
        seed = eta + g - F(3, 2)
        return eta * seed * Pn.diff("eta") - ((F(1, 2) - g) * seed + eta) * Pn
    if t == "II":
        return _former_builtin_P("J", "I", swapped(params), n).subs({"eta": -eta})
    a, b, h = params.a, params.b, params.h
    lead = (1 + eta) * ((b + 2) * eta + (a - 1)) * F(1, 4)
    tail = (F(3, 2) - h) * ((b + 2) * eta + (a + 1)) * F(1, 4)
    return lead * Pn.diff("eta") - tail * Pn


@pytest.mark.parametrize("fam,t,c", [
    ("L", "I", lambda n: 1),
    ("L", "II", lambda n: -1),
    ("J", "I", lambda n: 2),
    ("J", "II", lambda n: 2 * (-1) ** (n + 1)),
], ids=["L1I", "L1II", "J1I", "J1II"])
def test_one_step_matches_former_builtins(fam, t, c, lag_params, jac_params):
    ps = lag_params if fam == "L" else jac_params
    df = builtin_deformed(fam, MultiIndex.parse(f"1{t}"), ps)
    for n in range(9):
        assert df.P(n) == E(_former_builtin_P(fam, t, ps, n) * c(n))


def test_one_step_family_degree_two(lag_params):
    df = one_step_family("L", "I", 2, ParamSet("L", {"g": F(7, 2)}))
    assert df.ell == 2
    g = F(7, 2)
    assert df.xi * 2 == E(eta ** 2 + (2 * g + 3) * eta + (2 * g + 1) * (2 * g + 3) * F(1, 4))
    for n in range(6):
        assert H_tilde(df).apply_poly(df.P(n).param()) == (df.P(n) * df.E(n)).param()


# -- plugin interface ------------------------------------------------------------


def _l1i_plugin_dict(g="7/3"):
    gv = F(g)
    xi = eta + gv + F(1, 2)
    return {
        "family": "L",
        "parameters": {"g": g},
        "D": [{"d": 1, "type": "I"}],
        "xi": xi.record(),
        "P": {"kind": "classical-combination",
              "dP_coeff": xi.record(),
              "P_coeff": (-(eta + gv + F(3, 2))).record()},
    }


def test_plugin_round_trip_matches_builtin(l1i):
    df = family_from_plugin_dict(_l1i_plugin_dict())
    assert df.source == "plugin"
    assert df.xi == l1i.xi
    for n in range(7):
        assert df.P(n) == l1i.P(n)
    assert H_tilde(df) == H_tilde(l1i)


def test_plugin_degree_mismatch():
    bad = _l1i_plugin_dict()
    bad["P"]["P_coeff"] = ParamPoly.const(0, ("eta",)).record()  # deg P(0) drops
    with pytest.raises(DegreeMismatch):
        family_from_plugin_dict(bad)


def test_plugin_rejects_energy_override():
    bad = _l1i_plugin_dict()
    bad["energy"] = "4*n"
    with pytest.raises(SchemaError):
        family_from_plugin_dict(bad)


def test_plugin_schema_errors():
    with pytest.raises(SchemaError):
        family_from_plugin_dict({"family": "L"})
    bad = _l1i_plugin_dict()
    bad["family"] = "W"
    with pytest.raises(SchemaError):
        family_from_plugin_dict(bad)


def test_plugin_eigen_validation_failure():
    bad = _l1i_plugin_dict()
    # degree-compatible but wrong polynomial data
    bad["P"]["P_coeff"] = (-(eta + 99)).record()
    with pytest.raises(EigenValidationFailed):
        family_from_plugin_dict(bad)


def test_plugin_explicit_list(l1i):
    polys = [l1i.P(n).record() for n in range(8)]
    plug = {
        "family": "L", "parameters": {"g": "7/3"},
        "D": [{"d": 1, "type": "I"}],
        "xi": l1i.xi.record(),
        "P": {"kind": "explicit", "polys": polys},
    }
    df = family_from_plugin_dict(plug)
    assert df.P(5) == l1i.P(5)
    with pytest.raises(SchemaError):
        df.P(20)


def test_shipped_plugin_files_load():
    import pathlib

    from closurelab.families import load_family_plugin

    root = pathlib.Path(__file__).resolve().parent.parent / "plugins"
    for name in ("laguerre_2I.json", "jacobi_2II.json"):
        df = load_family_plugin(root / name)
        assert df.source == "plugin"


def test_plugin_serialization_round_trip(lag_params, jac_params, explicit_plugin):
    # every built-in family, the undeformed one included, is written as the
    # rule it holds and loads back to the same P_n
    families = [one_step_family("L", "II", 2, ParamSet("L", {"g": F(7, 2)}))]
    families += [builtin_deformed(ps.fam, MultiIndex.parse(D), ps)
                 for ps in (lag_params, jac_params)
                 for D in ("", "1I", "1II", "2I", "3II")]
    for df in families:
        loaded = family_from_plugin_dict(plugin_dict_from_family(df))
        assert loaded.xi == df.xi, df.label
        assert [loaded.P(n) for n in range(9)] == [df.P(n) for n in range(9)], df.label
    # an explicit-list plugin is written as its list: the same P_n for every
    # listed n, and no level beyond it
    df = load_family_plugin(explicit_plugin(12))
    data = plugin_dict_from_family(df)
    assert data["P"]["kind"] == "explicit"
    loaded = family_from_plugin_dict(data)
    assert loaded.xi == df.xi and loaded.p_max == df.p_max == 11
    assert [loaded.P(n) for n in range(12)] == [df.P(n) for n in range(12)]
    assert plugin_dict_from_family(loaded) == data
    with pytest.raises(SchemaError, match="only up to n=11"):
        loaded.P(12)


HAMILTONIAN_LABELS = ("", "1I", "1II", "2I", "2II", "3I", "3II")
HAMILTONIAN_PARAMS = {
    "L": ({"g": F(7, 3)}, {"g": F(11, 4)}, {"g": F(17, 5)}, {"g": F(4)}),
    "J": ({"g": F(2), "h": F(3)}, {"g": F(17, 2), "h": F(19, 3)},
          {"g": F(7, 3), "h": F(11, 5)}, {"g": F(9, 4), "h": F(13, 3)}),
}


def _fitted_H(df):
    """The reference fit of the family's Hamiltonian to P_0..P_2."""
    return build_H_ansatz(df.fam, df.xi, [(df.P(n), df.E(n)) for n in range(3)])


@pytest.mark.parametrize("fam", ["L", "J"])
@pytest.mark.parametrize("label", HAMILTONIAN_LABELS, ids=lambda s: s or "classical")
def test_closed_form_hamiltonian_equals_the_fit(fam, label):
    # the closed form (c2*xi, N1, N0) at lambda_D is the unique operator of
    # the transformed shape that the eigen-equations of P_0..P_2 fix
    for values in HAMILTONIAN_PARAMS[fam]:
        df = builtin_deformed(fam, MultiIndex.parse(label), ParamSet(fam, values))
        assert df.H_cleared == _fitted_H(df)
        assert df.H_cleared == cleared_hamiltonian(fam, df.D, df.params, df.xi)


def test_closed_form_hamiltonian_of_the_shipped_plugins():
    paths = sorted((pathlib.Path(__file__).resolve().parent.parent
                    / "plugins").glob("*.json"))
    assert len(paths) == 6
    for path in paths:
        df = load_family_plugin(str(path))
        assert df.H_cleared == _fitted_H(df), path.name


@pytest.mark.parametrize("fam, shift", [("L", "g"), ("J", "g"), ("J", "h")])
@pytest.mark.parametrize("label", HAMILTONIAN_LABELS[1:])
def test_hamiltonian_with_lambda_off_by_one_fails_at_level_zero(fam, shift, label,
                                                                monkeypatch):
    # negative control: lambda_D raised by 1 in one parameter (both c1
    # factors move with it) fails the first eigen-equation the build checks
    real = families.cleared_hamiltonian

    def off_by_one(fam, D, params, xi):
        values = dict(params.values)
        values[shift] += 1
        return real(fam, D, ParamSet(fam, values), xi)

    monkeypatch.setattr(families, "cleared_hamiltonian", off_by_one)
    with pytest.raises(EigenValidationFailed, match=r"eigen-equation fails at n=0$"):
        builtin_deformed(fam, MultiIndex.parse(label), ParamSet(fam, HAMILTONIAN_PARAMS[fam][1]))
