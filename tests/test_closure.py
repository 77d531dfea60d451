"""Closure relations: recurrence-coordinate images and their operator and
eta-row references, exact solve, identity certification with negative
controls, conjectured coefficients, reference tables, spectral
consequences."""

import json
import random
import pathlib
import sys
from fractions import Fraction as F

import pytest

from closurelab import closure, exactalg, families
from closurelab.cli import main
from closurelab.exactalg import EtaPoly, ParamPoly, SampleMismatch, solve_linear_exact
from closurelab.closure import (ClosureData, NoSolution, TableMissing,
                                ad_powers, closure_for_family,
                                closure_system, compare_reference,
                                conjectured_R, degree_bounds,
                                level_coordinates, level_rows,
                                load_reference_tables,
                                reconstruct_closure,
                                solve_closure, solve_full_levels,
                                symbolic_closure, symbolic_nodes,
                                verify_closure_identity)
from closurelab.families import (VALIDATE_N, DeformedFamily,
                                 EigenValidationFailed, MultiIndex, ParamSet,
                                 builtin_deformed, canonical_seed,
                                 classical_family, degenerate_level,
                                 load_family_plugin)
from closurelab.opalg import DiffOp, NonPolynomialImage, right_mul_poly_of_H
from closurelab.recurrence import build_X
from operator_reference import H_tilde
from closurelab.spectral import alpha_conjecture, alpha_values_at_energy
from closurelab.families import energy

eta = ParamPoly.var("eta")
z = ParamPoly.var("z")
g = ParamPoly.var("g")
ETA = EtaPoly((0, 1))
ONE = EtaPoly.const(1)


def ad_images(df, X, n, count):
    """Reference route: [(ad H)^i X] P_n = (H - E_n)^i (X P_n) for
    i = 0..count, by repeated application of H to polynomials."""
    H, En = H_tilde(df), df.E(n)
    images = [(X * df.P(n)).param()]
    for _ in range(count):
        images.append(H.apply_poly(images[-1]) - images[-1] * En)
    return images


def coordinate_images(df, X, n, count):
    """The same images assembled from recurrence coordinates:
    sum_k r_{n,k} Delta_{n,k}^i P_{n+k}."""
    coords = level_coordinates(df, X, n)
    return [sum((df.P(n + k) * (r * delta ** i) for k, r, delta in coords),
                EtaPoly()).param() for i in range(count + 1)]


def eta_rows(df, X):
    """Reference assembly of the order-K system, K = 2 deg X: each
    eta-coefficient of each level n = 0..K of the images is one row."""
    layout, K = closure_system(df, X)[0], 2 * X.degree
    rows, rhs = [], []
    for n in range(K + 1):
        images = ad_images(df, X, n, K)
        En, Pn = df.E(n), df.P(n).param()
        polys = [(images[i] if i >= 0 else Pn) * En ** j for i, j in layout]
        polys.append(images[K])
        coeffs = [p.coeffs_in("eta") for p in polys]
        for d in range(max(p.degree("eta") for p in polys) + 1):
            row = [c[d].constant_value() if d in c else F(0) for c in coeffs]
            rows.append(row[:-1])
            rhs.append(row[-1])
    return layout, rows, rhs


def raw_level_rows(coords, K):
    """Level n's coordinate rows over v = (R_0(E_n), ..., R_{K-1}(E_n),
    R_-1(E_n)) before the reduction of ``level_rows``: one row per
    coordinate, r_{n,k} (Delta^K - sum_i v_i Delta^i) - [k = 0] v_-1 = 0."""
    return [([r * delta ** i for i in range(K)] + [F(int(k == 0))], r * delta ** K)
            for k, r, delta in coords]


def coordinate_rows(df, X):
    """Reference assembly of the order-K system, K = 2 deg X, from the raw
    coordinate rows of each level n = 0..K, expanded over the unknown layout
    as ``closure_system`` expands the reduced ones."""
    layout, K = closure_system(df, X)[0], 2 * X.degree
    rows, rhs = [], []
    for n in range(K + 1):
        En = df.E(n)
        for a, t in raw_level_rows(closure.level_coordinates(df, X, n), K):
            rows.append([a[i] * En ** j for i, j in layout])
            rhs.append(t)
    return layout, rows, rhs


def test_degree_bounds_halved():
    # deg R_i <= (K - i)/2 and deg R_-1 <= K/2: operator order <= K
    b = degree_bounds(8)
    assert b[0] == 4 and b[7] == 0 and b[-1] == 4
    assert degree_bounds(4) == {0: 2, 1: 1, 2: 1, 3: 0, -1: 2}


def test_ad_powers_initial_element(l1i, l1i_closure):
    _, X = l1i_closure
    ads = ad_powers(H_tilde(l1i), X, 2)
    assert ads[0].apply_poly(ParamPoly.const(1, ("eta",))) == X.param()
    assert ads[0].order == 0 and ads[1].order == 1 and ads[2].order == 2


def test_classical_L_order2_closure(l_classical, lag_params):
    cd, X = closure_for_family(l_classical, ONE)
    gv = lag_params.g
    assert cd.R[0] == ParamPoly.const(16, ("z",))
    assert cd.R[1].is_zero
    assert cd.R_minus1 == -8 * (z + 2 * gv + 1)
    assert cd.unique
    assert verify_closure_identity(l_classical, X, cd)


def test_classical_J_order2_closure(j_classical, jac_params):
    cd, X = closure_for_family(j_classical, ONE)
    av, bv = jac_params.a, jac_params.b
    assert cd.R[1] == ParamPoly.const(8, ("z",))
    assert cd.R[0] == 16 * (z + av * av - 1)
    assert cd.R_minus1 == ParamPoly.const(16 * bv * (av - 1), ("z",))


def test_L1I_order4_golden(l1i_closure, lag_params):
    cd, X = l1i_closure
    gv = lag_params.g
    assert [r.constant_value() for r in cd.R] == [-1024, 0, 80, 0]
    assert cd.R_minus1 == 64 * (3 * z ** 2 + 2 * (10 * gv + 11) * z
                                + 2 * (2 * gv + 1) * (6 * gv + 13))
    assert cd.unique and cd.kernel_dim == 0
    assert cd.bounds_ok()


def test_L1I_order4_identity_and_perturbation(l1i, l1i_closure):
    cd, X = l1i_closure
    assert verify_closure_identity(l1i, X, cd)
    broken = ClosureData(cd.K, list(cd.R), cd.R_minus1)
    broken.R[2] = ParamPoly.const(81, ("z",))
    assert not verify_closure_identity(l1i, X, broken)


def test_L1II_order4_golden(l1ii_closure, lag_params):
    cd, X = l1ii_closure
    gv = lag_params.g
    assert [r.constant_value() for r in cd.R] == [-1024, 0, 80, 0]
    assert cd.R_minus1 == -64 * (3 * z ** 2 + 2 * (10 * gv - 9) * z
                                 + 2 * (2 * gv - 3) * (6 * gv + 1))


def test_J1I_order4_golden(j1i_closure, jac_params):
    cd, X = j1i_closure
    av, bv = jac_params.a, jac_params.b
    assert cd.R[3] == ParamPoly.const(40, ("z",))
    assert cd.R[2] == 80 * (z + av * av) - 528
    assert cd.R[1] == -1024 * (z + av * av - F(5, 2))
    assert cd.R[0] == -1024 * (z + av * av - 1) * (z + av * av - 4)
    expected = 128 * (bv + 2) * (z ** 2
                                 - ((bv + 2) ** 2 + 3 * av * av - 10 * av + 1) * z
                                 + 2 * (av - 1) * (av - 2)
                                 * ((bv + 2) ** 2 - 2 * av * av - av - 3))
    assert cd.R_minus1 == expected


def test_J1II_is_sign_flipped_image(j1i_closure, j1ii_closure, jac_params):
    cd1, _ = j1i_closure
    cd2, _ = j1ii_closure
    assert all(cd1.R[i] == cd2.R[i] for i in range(4))
    # R_-1 relation under b -> -b is checked against the stored table
    cmp = compare_reference("J", "1II", "1", cd2,
                            {"a": jac_params.a, "b": jac_params.b})
    assert cmp["ok"]


def test_solved_equals_conjectured_L_all_orders(l1i):
    for Y, L in ((ONE, 2), (ETA, 3)):
        cd, _ = closure_for_family(l1i, Y)
        assert cd.R == conjectured_R(alpha_conjecture("L", L, l1i.params))


def test_reference_comparison_and_missing(l1i_closure, lag_params):
    cd, _ = l1i_closure
    cmp = compare_reference("L", "1I", "1", cd, {"g": lag_params.g})
    assert cmp["ok"]
    with pytest.raises(TableMissing):
        compare_reference("L", "9I", "1", cd)


def test_spectral_consequence_beta_identity(lag_params, jac_params, wil_params,
                                            aw_params):
    # beta = E_{n+k} - E_n satisfies beta^K = sum_i R_i(E_n) beta^i for
    # k != 0; this is the exact spectral-level check for all four families.
    for fam, ps in (("L", lag_params), ("J", jac_params),
                    ("W", wil_params), ("AW", aw_params)):
        for L in (1, 2):
            K = 2 * L
            conj = conjectured_R(alpha_conjecture(fam, L, ps))
            for n in range(9):
                En = energy(ps, n)
                R_at = [Ri.evaluate({"z": En}) for Ri in conj]
                for k in range(-L, L + 1):
                    if k == 0 or n + k < 0:
                        continue
                    beta = energy(ps, n + k) - En
                    assert beta ** K == sum(R_at[i] * beta ** i for i in range(K)), \
                        (fam, L, n, k)


def test_alpha_values_are_closure_roots(l1i_closure, lag_params):
    cd, _ = l1i_closure
    for n in range(5):
        En = energy(lag_params, n)
        R_at = [Ri.evaluate({"z": En}) for Ri in cd.R]
        for al in alpha_values_at_energy(lag_params, n,
                                         alpha_conjecture("L", 2, lag_params), En):
            assert al ** 4 == sum(R_at[i] * al ** i for i in range(4))


def test_values_at_equals_coefficientwise_evaluation(l1i_closure, j1i_closure,
                                                     lag_params, jac_params):
    for (cd, _), ps in ((l1i_closure, lag_params), (j1i_closure, jac_params)):
        for n in range(6):
            En = energy(ps, n)
            R_at, R_minus1_at = cd.values_at(En)
            assert R_at == [Ri.evaluate({"z": En}) for Ri in cd.R]
            assert R_minus1_at == cd.R_minus1.evaluate({"z": En})
    # data symbolic in (z, g) have no value at an energy alone
    symbolic = ClosureData(2, [z * g, z], z + g)
    with pytest.raises(ValueError):
        symbolic.values_at(F(3))
    with pytest.raises(ValueError):
        ClosureData(2, [z, z], z * g).values_at(F(3))


def test_identity_certificate_rejects_data_symbolic_in_a_parameter(l1i, l1i_closure):
    # the certificate reads the z-coefficients as numbers: a parameter left
    # in R_0..R_{K-1}, or in R_-1 alone, is a ValueError and not a verdict
    cd, X = l1i_closure
    with pytest.raises(ValueError):
        verify_closure_identity(l1i, X, ClosureData(2, [z * g, z], z + g))
    with pytest.raises(ValueError):
        verify_closure_identity(l1i, X, ClosureData(cd.K, list(cd.R), cd.R_minus1 + g))
    # a parameter that no term uses leaves the data numeric
    widened = ClosureData(cd.K, [Ri.with_vars(("g", "z")) for Ri in cd.R],
                          cd.R_minus1.with_vars(("g", "z")))
    assert verify_closure_identity(l1i, X, widened)


def test_reconstruct_closure_symbolic_in_g():
    def solve_at(binding):
        ps = ParamSet("L", {"g": binding["g"]})
        df = builtin_deformed("L", MultiIndex.parse("1I"), ps)
        cd, _ = closure_for_family(df, ONE)
        return cd

    nodes = {"g": [F(2), F(7, 3), F(3)]}
    fresh = [{"g": F(11, 2)}, {"g": F(6)}]
    cd = reconstruct_closure(solve_at, nodes, fresh)
    assert cd.R_minus1 == 64 * (3 * z ** 2 + 2 * (10 * g + 11) * z
                                + 2 * (2 * g + 1) * (6 * g + 13))
    cmp = compare_reference("L", "1I", "1", cd)
    assert cmp["ok"]


def test_reconstruct_rejects_a_bound_too_small():
    # negative control: R_0 = g^2 under degree bound 0 (one node) is
    # interpolated as a constant, and the first fresh sample refutes it
    def solve_at(binding):
        gv = binding["g"]
        return ClosureData(2, [ParamPoly.const(gv * gv, ("z",)),
                               ParamPoly.zero(("z",))],
                           ParamPoly.zero(("z",)))

    with pytest.raises(SampleMismatch) as info:
        reconstruct_closure(solve_at, {"g": [F(1)]}, [{"g": F(3, 2)}, {"g": F(2)}])
    assert str(info.value) == ("R_0 z^0 disagrees with its interpolant "
                               "(g <= 0) at the fresh sample g=3/2")


def test_reconstruct_names_the_sample_a_solve_fails_at():
    def solve_at(binding):
        raise NoSolution("order-2 closure relation has no solution")

    with pytest.raises(NoSolution, match=r"^at the sample g=1: order-2"):
        reconstruct_closure(solve_at, {"g": [F(1)]}, [])


J1I = MultiIndex.parse("1I")


def _solve_j1i(binding):
    """The sample solve of symbolic J[1I], Y = 1, at (a, b) = binding."""
    ps = ParamSet.at_reference("J", binding)
    return closure_for_family(builtin_deformed("J", J1I, ps), ONE)[0]


def test_reconstruct_rejects_an_a_bound_one_too_small():
    # negative control on J[1I] (K = 4, a-degree bound 4): with a <= 3 the
    # interpolant of R_0 z^0 misses the first fresh sample
    nodes, fresh = symbolic_nodes("J", J1I, {"a": 3, "b": 3})
    with pytest.raises(SampleMismatch) as info:
        reconstruct_closure(_solve_j1i, nodes, fresh)
    assert str(info.value) == ("R_0 z^0 disagrees with its interpolant "
                               "(a <= 3, b <= 3) at the fresh sample a=10, b=1")


@pytest.mark.parametrize("i, j", [(-1, 0), (0, 2), (2, 1)])
def test_reconstruct_catches_one_perturbed_grid_coefficient(i, j):
    # negative control: the coefficient of z^j in R_i is off by one at one
    # grid point, so its interpolant is wrong and the first fresh sample
    # refutes it, naming that coefficient
    nodes, fresh = symbolic_nodes("J", J1I, {"a": 4, "b": 3})
    bad = {"a": nodes["a"][2], "b": nodes["b"][1]}

    def perturbed(binding):
        cd = _solve_j1i(binding)
        if binding != bad:
            return cd
        R, R_minus1 = list(cd.R), cd.R_minus1
        if i == -1:
            R_minus1 = R_minus1 + z ** j
        else:
            R[i] = R[i] + z ** j
        return ClosureData(cd.K, R, R_minus1, cd.kernel_dim)

    assert reconstruct_closure(_solve_j1i, nodes, fresh).unique
    with pytest.raises(SampleMismatch) as info:
        reconstruct_closure(perturbed, nodes, fresh)
    assert str(info.value) == (f"R_{i} z^{j} disagrees with its interpolant "
                               "(a <= 4, b <= 3) at the fresh sample a=21/2, b=1")


def test_reconstructed_kernel_dim_is_the_grid_maximum():
    # one grid sample reports a two-dimensional kernel: the rebuilt data
    # keep the maximum over the grid, and the coefficients are unchanged
    nodes, fresh = symbolic_nodes("J", J1I, {"a": 4, "b": 3})
    bad = {"a": nodes["a"][3], "b": nodes["b"][0]}

    def with_kernel(binding):
        cd = _solve_j1i(binding)
        return ClosureData(cd.K, cd.R, cd.R_minus1, 2 if binding == bad else 0)

    plain = reconstruct_closure(_solve_j1i, nodes, fresh)
    got = reconstruct_closure(with_kernel, nodes, fresh)
    assert (plain.kernel_dim, got.kernel_dim) == (0, 2)
    assert (got.R, got.R_minus1) == (plain.R, plain.R_minus1)


def _seeds_usable(fam, D, binding):
    if fam == "L":
        ps = ParamSet("L", binding)
    else:
        a, b = binding["a"], binding["b"]
        ps = ParamSet("J", {"g": (a + b) / 2, "h": (a - b) / 2})
    return all(degenerate_level(ps, t, d) is None
               and canonical_seed(fam, t, d, ps).degree == d
               for d, t in D.entries)


def test_symbolic_nodes_avoid_degenerate_seeds():
    # J[3I], K = 8: a = 8 meets b = 3 on the degenerate line 2n + a = b + 7
    # (n = 1), so it is skipped; the grid is a full tensor product
    D = MultiIndex.parse("3I")
    nodes, fresh = symbolic_nodes("J", D, {"a": 8, "b": 7})
    assert [len(nodes["a"]), len(nodes["b"]), len(fresh)] == [9, 8, 2]
    assert F(8) not in nodes["a"] and nodes["a"][0] > 8
    assert nodes["b"] == [F(-1) + F(k, 2) for k in range(8)]
    grid = [{"a": a, "b": b} for a in nodes["a"] for b in nodes["b"]]
    assert all(_seeds_usable("J", D, p) for p in grid + fresh)
    assert all(p["a"] > max(nodes["a"]) and p["b"] > max(nodes["b"])
               for p in fresh)
    # J[1II], Y = eta (K = 6): the seed loses degree at b = 2, on every a
    nodes, fresh = symbolic_nodes("J", MultiIndex.parse("1II"),
                                  {"a": 6, "b": 5})
    assert F(2) not in nodes["b"] + [p["b"] for p in fresh]
    assert [p["b"] for p in fresh] == [F(5, 2), 3]
    # L[7II], K = 16: degenerate at g = 15/2 - n, so the half-integers up
    # to 15/2 are skipped; 9 nodes and 2 fresh values, all distinct
    D = MultiIndex.parse("7II")
    nodes, fresh = symbolic_nodes("L", D, {"g": 8})
    values = nodes["g"] + [p["g"] for p in fresh]
    assert len(nodes["g"]) == 9 and len(set(values)) == 11
    assert all(_seeds_usable("L", D, {"g": v}) for v in values)
    assert F(5, 2) not in values and F(15, 2) not in values


# symbolic_nodes for L and J x {1I, 1II, 2I, 2II, 3I, 3II} x deg Y in
# {0, 1}, under the bounds of symbolic_closure (K = 2*(ell + deg Y + 1)),
# recorded before the degenerate levels of J moved to their closed form:
# (nodes, fresh points) per parameter, the nodes first.
_H = F(1, 2)
RECORDED_NODES = {
    ("L", "1I", 0): {"g": ([2, 5 * _H, 3], [7 * _H, 4])},
    ("L", "1I", 1): {"g": ([2, 5 * _H, 3, 7 * _H], [4, 9 * _H])},
    ("L", "1II", 0): {"g": ([2, 5 * _H, 3], [7 * _H, 4])},
    ("L", "1II", 1): {"g": ([2, 5 * _H, 3, 7 * _H], [4, 9 * _H])},
    ("L", "2I", 0): {"g": ([2, 5 * _H, 3, 7 * _H], [4, 9 * _H])},
    ("L", "2I", 1): {"g": ([2, 5 * _H, 3, 7 * _H, 4], [9 * _H, 5])},
    ("L", "2II", 0): {"g": ([2, 3, 7 * _H, 4], [9 * _H, 5])},
    ("L", "2II", 1): {"g": ([2, 3, 7 * _H, 4, 9 * _H], [5, 11 * _H])},
    ("L", "3I", 0): {"g": ([2, 5 * _H, 3, 7 * _H, 4], [9 * _H, 5])},
    ("L", "3I", 1): {"g": ([2, 5 * _H, 3, 7 * _H, 4, 9 * _H], [5, 11 * _H])},
    ("L", "3II", 0): {"g": ([2, 3, 4, 9 * _H, 5], [11 * _H, 6])},
    ("L", "3II", 1): {"g": ([2, 3, 4, 9 * _H, 5, 11 * _H], [6, 13 * _H])},
    ("J", "1I", 0): {"a": (16, 4, [21, 22]), "b": (-2, 3, [2, 3])},
    ("J", "1I", 1): {"a": (16, 6, [23, 24]), "b": (-2, 5, [4, 5])},
    ("J", "1II", 0): {"a": (16, 4, [21, 22]), "b": (-2, 3, [2, 3])},
    ("J", "1II", 1): {"a": (16, 6, [23, 24]), "b": (-2, 5, [5, 6])},
    ("J", "2I", 0): {"a": (16, 6, [23, 24]), "b": (-2, 5, [4, 5])},
    ("J", "2I", 1): {"a": (18, 8, [27, 28]), "b": (-2, 7, [6, 7])},
    ("J", "2II", 0): {"a": (16, 6, [23, 24]), "b": (-2, 5, [4, 5])},
    ("J", "2II", 1): {"a": (16, 8, [25, 26]), "b": (-2, 7, [7, 9])},
    ("J", "3I", 0): {"a": (22, 8, [31, 32]), "b": (-2, 7, [6, 7])},
    ("J", "3I", 1): {"a": (24, 10, [35, 36]), "b": (-2, 9, [8, 9])},
    ("J", "3II", 0): {"a": (17, 8, [26, 27]), "b": (-2, 7, [6, 7])},
    ("J", "3II", 1): {"a": (17, 10, [28, 29]), "b": (-2, 9, [9, 11])},
}


def _recorded_nodes(fam, label, dY):
    """The recorded (nodes, fresh).  An L entry lists its g values; a J
    entry gives each of a and b as (2*first node, last node index, 2*fresh
    values), its nodes being consecutive halves."""
    entry = RECORDED_NODES[(fam, label, dY)]
    if fam == "L":
        nodes, fresh = entry["g"]
        return ({"g": [F(v) for v in nodes]}, [{"g": F(v)} for v in fresh])
    nodes, fresh = {}, [{}, {}]
    for name, (start, last, twice_fresh) in entry.items():
        nodes[name] = [F(start + k, 2) for k in range(last + 1)]
        for point, v in zip(fresh, twice_fresh):
            point[name] = F(v, 2)
    return nodes, fresh


@pytest.mark.parametrize("fam", ["L", "J"])
@pytest.mark.parametrize("label", ["1I", "1II", "2I", "2II", "3I", "3II"])
@pytest.mark.parametrize("dY", [0, 1], ids=["Y=1", "Y=eta"])
def test_symbolic_nodes_are_unchanged(fam, label, dY):
    D = MultiIndex.parse(label)
    K = 2 * (D.ell + dY + 1)
    bounds = {"g": K // 2} if fam == "L" else {"a": K, "b": K - 1}
    assert symbolic_nodes(fam, D, bounds) == _recorded_nodes(fam, label, dY)


@pytest.mark.parametrize("fam, label, builds", [("J", "1I", 22), ("L", "1II", 5)])
def test_symbolic_reconstruction_decides_every_build(fam, label, builds, monkeypatch):
    # the bench jobs: J[1I] solves a 5 x 4 grid and 2 fresh points, L[1II]
    # 3 nodes and 2 fresh points.  Every build decides its seed and the
    # eigen-equations of P_0..P_VALIDATE_N, and the closure reads
    # P_0..P_{K+L} = P_0..P_6 (K = 4, L = 2), each level checked once
    counts = {"build": 0, "seed": 0, "level": 0}

    def counting(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(closure, "builtin_deformed",
                        counting("build", closure.builtin_deformed))
    monkeypatch.setattr(families, "check_seed", counting("seed", families.check_seed))
    monkeypatch.setattr(families, "eigen_validate",
                        counting("level", families.eigen_validate))
    assert symbolic_closure(fam, MultiIndex.parse(label), ONE).unique
    assert counts == {"build": builds, "seed": builds, "level": 7 * builds}


def test_certificate_reads_the_solve_record(monkeypatch):
    # a solve read off the full levels records its data, and the
    # certificate of those data returns true without a residual pass, also
    # when equal data are built by hand
    df = builtin_deformed("J", MultiIndex.parse("1I"),
                          ParamSet("J", {"g": F(5, 2), "h": F(13, 3)}))
    cd, X = closure_for_family(df, ONE)
    assert len(df.certified_closures) == 1
    passes = []
    real = closure._first_residual
    monkeypatch.setattr(closure, "_first_residual",
                        lambda *args: passes.append(args) or real(*args))
    assert verify_closure_identity(df, X, cd)
    assert verify_closure_identity(df, X, ClosureData(cd.K, list(cd.R), cd.R_minus1))
    assert passes == []
    # other data, another X and another family are decided afresh, with
    # the witness of a family that never solved
    fresh = builtin_deformed("J", MultiIndex.parse("1I"), df.params)
    broken = ClosureData(cd.K, list(cd.R), cd.R_minus1 + 1)
    got, want = (verify_closure_identity(f, X, broken) for f in (df, fresh))
    assert not got and (got.n, got.k, got.residual) == (want.n, want.k, want.residual)
    assert verify_closure_identity(fresh, X, cd) and len(passes) == 3
    assert not verify_closure_identity(df, build_X(df.xi, ETA), cd)
    assert len(passes) == 4


def test_linear_system_solves_are_not_recorded():
    # J at a = 1 takes the linear system: nothing is recorded, and the
    # certificate decides the data itself
    df = builtin_deformed("J", MultiIndex.parse("1I"), ParamSet("J", {"g": F(3, 4), "h": F(1, 4)}))
    cd, X = closure_for_family(df, ONE)
    assert cd.kernel_dim == 3 and df.certified_closures == {}
    assert verify_closure_identity(df, X, cd)


def _fallback_inputs():
    """The two (family, Y) whose solution sets have a kernel (kernel_dim 3),
    so that the solve takes the linear system: J[1I] at a = 1
    (g = 3/4, h = 1/4), and the classical J at g = h = 5/2 with Y = eta."""
    return [(builtin_deformed("J", MultiIndex.parse("1I"),
                              ParamSet("J", {"g": F(3, 4), "h": F(1, 4)})),
             ONE),
            (classical_family("J", ParamSet("J", {"g": F(5, 2), "h": F(5, 2)})), ETA)]


def test_kernel_reporting_on_padded_order():
    # on each fallback input the system is consistent but non-unique; the
    # solve returns the conjectured point of the solution set
    for df, Y in _fallback_inputs():
        cd, X = closure_for_family(df, Y)
        assert cd.kernel_dim == 3 and not cd.unique
        assert cd.R == conjectured_R(alpha_conjecture("J", cd.K // 2, df.params))
        assert verify_closure_identity(df, X, cd)


@pytest.mark.parametrize("D, params", [("1I", ["g=3/4", "h=1/4"]),
                                       ("1II", ["g=3/4", "h=1/4"]),
                                       ("1I", ["g=2", "h=-1"])])
def test_non_unique_closure_reports_the_conjectured_point(D, params, tmp_path):
    # at a = g + h = 1 the J seeds have a solution set of dimension 3; the
    # reported R_i are the conjectured ones, the returned data is certified,
    # and its R_-1 is the stored row at these parameters
    report = tmp_path / "r.json"
    assert main(["verify-closure", "--family", "J", "--D", D, "--params", *params,
                 "--report", str(report)]) == 0
    checks = {c["id"]: c for c in json.loads(report.read_text())["checks"]}
    assert checks["closure/solve"]["detail"]["kernel_dim"] == 3
    for check_id in ("closure/identity", "closure/conjectured-R",
                     "closure/reference-table"):
        assert checks[check_id]["status"] == "pass"


def test_conjectured_data_is_built_only_for_a_kernel(l_classical, l1i,
                                                     monkeypatch):
    # solve_closure builds the conjectured data only when the kernel is
    # nontrivial, so closure_for_family builds none for a unique solve
    built = []
    real = closure.conjectured_R
    monkeypatch.setattr(closure, "conjectured_R",
                        lambda *args: built.append(args) or real(*args))
    for df in (l_classical, l1i):
        cd, _ = closure_for_family(df, ONE)
        assert cd.unique
    assert built == []
    # each fallback input has a kernel: the conjectured point is built once,
    # at the family's parameters, and must lie in the solution set
    for df, Y in _fallback_inputs():
        built.clear()
        cd, X = closure_for_family(df, Y)
        alphas = alpha_conjecture("J", cd.K // 2, df.params)
        assert cd.kernel_dim > 0 and built == [(alphas,)]
        # negative control: a conjectured R_0 off by one lies outside it
        conj = real(alphas)
        with monkeypatch.context() as m:
            m.setattr(closure, "conjectured_R", lambda *args: [conj[0] + 1, *conj[1:]])
            with pytest.raises(NoSolution, match="conjectured data lies outside"):
                solve_closure(df, X)


def test_eigenbasis_images_match_operator_reference(l_classical, l1i, j1i):
    # classical L (K=2), L[1I] (K=4), J[1I] (K=4): the images assembled from
    # recurrence coordinates equal the composed commutators applied to P_n
    # (and the repeated-H reference), and the solved data satisfies the
    # composed operator identity coefficient by coefficient
    for df in (l_classical, l1i, j1i):
        cd, X = closure_for_family(df, ONE)
        H, K = H_tilde(df), cd.K
        ads = ad_powers(H, X, K)
        for n in range(K + 1):
            images = coordinate_images(df, X, n, K)
            assert [op.apply_poly(df.P(n).param()) for op in ads] == images
            assert images == ad_images(df, X, n, K)
        rhs = right_mul_poly_of_H(DiffOp.identity(H.var), cd.R_minus1, H)
        for i in range(K):
            rhs = rhs + right_mul_poly_of_H(ads[i], cd.R[i], H)
        assert ads[K] == rhs


def _count_eigen_checks(monkeypatch) -> list:
    """Record the polynomial of every ``families.eigen_validate`` call."""
    calls = []
    original = families.eigen_validate

    def counted(H_cleared, xi, pn, En, n):
        calls.append(pn)
        return original(H_cleared, xi, pn, En, n)

    monkeypatch.setattr(families, "eigen_validate", counted)
    return calls


def test_verify_reuses_the_images_of_the_solve(lag_params, monkeypatch):
    # solved data meets the degree bounds, so the certificate needs only the
    # levels n = 0..K, whose recurrence rows and eigen checks (P_0..P_{K+L})
    # solve_closure has already stored on the family: it neither checks an
    # eigen-equation nor applies an operator
    df = builtin_deformed("L", MultiIndex.parse("1I"), lag_params)
    cd, X = closure_for_family(df, ONE)
    calls = _count_eigen_checks(monkeypatch)
    original = DiffOp.apply_poly
    monkeypatch.setattr(DiffOp, "apply_poly",
                        lambda self, p: calls.append(p) or original(self, p))
    assert verify_closure_identity(df, X, cd)
    assert calls == []


def test_each_level_is_eigen_checked_once(lag_params, monkeypatch):
    # construction checks P_0..P_VALIDATE_N; solve and certificate of
    # L[1I] add the levels up to K + L and never check a level twice
    calls = _count_eigen_checks(monkeypatch)
    df = builtin_deformed("L", MultiIndex.parse("1I"), lag_params)
    cd, X = closure_for_family(df, ONE)
    assert verify_closure_identity(df, X, cd)
    top = cd.K + X.degree
    assert top > VALIDATE_N
    assert calls == [df.P(m) for m in range(top + 1)]
    assert df.checked_levels == set(range(top + 1))


# (family parameters, D, Y, whether the solution set has a kernel)
_SYSTEMS = {
    "L1I": ("L", "1I", 1, False), "L1II": ("L", "1II", 1, False),
    "J1I": ("J", "1I", 1, False), "J1II": ("J", "1II", 1, False),
    "L2I-plugin": ("L", "plugin", 1, False), "Y=eta": ("L", "1I", ETA, False),
    "J-classical-g=h-eta": ("J=", None, ETA, True),
    "J-classical-g=h": ("J=", None, 1, False), "J1II-g=h": ("J=", "1II", 1, False),
    "J1I-a=1": ("Ja=1", "1I", 1, True), "J1I-eta-a=1": ("Ja=1", "1I", ETA, True),
    "L2I": ("L", "2I", 1, False), "L3I": ("L", "3I", 1, False),
    "J2I": ("J", "2I", 1, False), "J3I": ("J", "3I", 1, False),
}


@pytest.mark.parametrize("case", list(_SYSTEMS))
def test_coordinate_rows_solve_like_eta_rows(case, lag_params, jac_params):
    # the level-reduced system, the raw coordinate system and the
    # eta-coefficient reference have the same augmented row space, hence
    # the same LinearSolution; only the fallback inputs have a kernel.  At
    # g = h (b = 0) the classical J diagonal r_{n,0} of X = eta is zero.
    fam, D, Y, kernel = _SYSTEMS[case]
    params = {"L": lag_params, "J": jac_params,
              "J=": ParamSet("J", {"g": F(5, 2), "h": F(5, 2)}),
              "Ja=1": ParamSet("J", {"g": F(3, 4), "h": F(1, 4)})}[fam]
    plugin = (pathlib.Path(__file__).resolve().parent.parent / "plugins"
              / "laguerre_2I.json")
    if D == "plugin":
        df = load_family_plugin(str(plugin))
    elif D is None:
        df = classical_family(params.fam, params)
    else:
        df = builtin_deformed(params.fam, MultiIndex.parse(D), params)
    X = build_X(df.xi, ONE if Y == 1 else Y)
    K = 2 * X.degree
    layout, rows, rhs = closure_system(df, X)
    coord_layout, coord_rows, coord_rhs = coordinate_rows(df, X)
    ref_layout, ref_rows, ref_rhs = eta_rows(df, X)
    assert layout == coord_layout == ref_layout
    assert len(rows) <= len(coord_rows)
    got = solve_linear_exact(rows, rhs)
    assert got.consistent
    assert got == solve_linear_exact(coord_rows, coord_rhs)
    assert got == solve_linear_exact(ref_rows, ref_rhs)
    assert (len(got.kernel_basis) > 0) == kernel
    if case == "J-classical-g=h":
        assert all(r == 0 for n in range(K + 1)
                   for k, r, _ in level_coordinates(df, X, n) if k == 0)


def _synthetic_level(K, shifts, r=None):
    """Coordinates (k, r_{n,k}, Delta_{n,k}) of a synthetic level: shifts
    maps k to Delta_{n,k}, and r (default 1 + k^2) to r_{n,k}."""
    r = r or {}
    return [(k, F(r.get(k, 1 + k * k)), F(d)) for k, d in sorted(shifts.items())]


@pytest.mark.parametrize("case, K, coords", [
    ("full", 4, _synthetic_level(4, {-2: -7, -1: -3, 0: 0, 1: 5, 2: F(23, 2)})),
    ("partial", 4, _synthetic_level(4, {0: 0, 1: 5, 2: 11})),
    ("zero-r", 4, _synthetic_level(4, {-2: -7, -1: -3, 0: 0, 1: 5, 2: 11},
                                   {-1: 0})),
    ("repeated-delta", 4, _synthetic_level(4, {-2: 6, -1: -3, 0: 0, 1: 6, 2: 11})),
    ("zero-diagonal", 4, _synthetic_level(4, {-1: -3, 0: 0, 1: 5}, {0: 0})),
    ("zero-shift", 4, _synthetic_level(4, {-1: 0, 0: 0, 1: 5})),
    ("padded", 6, _synthetic_level(6, {-1: -3, 0: 0, 1: 5})),
    ("understated", 2, _synthetic_level(2, {-2: -7, -1: -3, 0: 0, 1: 5, 2: 11})),
    ("no-shift", 2, _synthetic_level(2, {0: 0, 1: 4}, {1: 0})),
    ("partial-fractional", 4, _synthetic_level(4, {0: 0, 1: F(5, 2), 2: F(-11, 3)},
                                               {0: F(3, 4)})),
    ("padded-fractional", 6, _synthetic_level(6, {-1: F(-3, 4), 0: 0, 1: F(5, 6)})),
    ("understated-fractional", 2, _synthetic_level(2, {-2: F(-7, 2), -1: -3, 0: 0,
                                                       1: F(5, 3), 2: 11})),
])
def test_level_rows_reduce_the_raw_rows(case, K, coords):
    # over the level unknowns v = (R_0(E_n), ..., R_{K-1}(E_n), R_-1(E_n)),
    # the reduced rows and the raw coordinate rows have the same augmented
    # row space: equal LinearSolutions, with no more rows
    reduced, raw = level_rows(coords, K), raw_level_rows(coords, K)
    assert len(reduced) <= len(raw)
    assert all(len(a) == K + 1 for a, _ in reduced)
    got = solve_linear_exact(*zip(*reduced))
    assert got == solve_linear_exact(*zip(*raw))
    assert got.consistent == (not case.startswith("understated"))
    if case == "full":
        # v_i = -[x^i] Q for Q the product of (x - Delta) over k != 0, and
        # v_-1 = -r_{n,0} v_0; each reduced row touches one unknown
        Q = ParamPoly.const(1, ("x",))
        for k, _, delta in coords:
            if k:
                Q = Q * (ParamPoly.var("x") - delta)
        Q_coeffs = Q.coeffs_in("x")
        v = [-Q_coeffs[i].constant_value() for i in range(K)]
        assert got.solution == v + [-coords[2][1] * v[0]]
        # exactly the rows r_{n,0} v_0 + v_-1 = 0 (scaled to integers) and
        # d^(K-i) v_i = S_i, d = 2 the lcm of the Delta denominators: each
        # touches one unknown, or v_0 and v_-1
        r0 = coords[2][1]
        want = [([r0.numerator, 0, 0, 0, r0.denominator], 0)]
        for i in range(K):
            row = [0] * (K + 1)
            row[i] = 2 ** (K - i)
            want.append((row, v[i] * 2 ** (K - i)))
        assert reduced == want


@pytest.mark.parametrize("k, new_r", [(0, lambda r: r + 1),
                                      (1, lambda r: r + 1),
                                      (2, lambda r: F(0))],
                         ids=["r_20+1", "r_21+1", "r_22=0"])
def test_perturbed_level_coordinate(l1i, l1i_closure, monkeypatch, k, new_r):
    # negative control at level n = 2 of L[1I] (K = 4): r_{2,0} + 1 moves
    # R_-1(E_2) = -r_{2,0} R_0(E_2) off the degree-2 polynomial through the
    # other four levels, so the system is inconsistent.  An off-diagonal
    # r_{2,k} cancels from its row while it stays nonzero (r_{2,1} + 1), and
    # a row with r_{2,k} = 0 drops out (r_{2,2} = 0): the solution stays.
    # The raw coordinate rows agree in every case.
    cd, X = l1i_closure
    real = closure.level_coordinates

    def perturbed(df, X, n):
        return [(kk, new_r(r) if (n, kk) == (2, k) else r, delta)
                for kk, r, delta in real(df, X, n)]

    monkeypatch.setattr(closure, "level_coordinates", perturbed)
    _, rows, rhs = closure_system(l1i, X)
    got = solve_linear_exact(rows, rhs)
    assert got == solve_linear_exact(*coordinate_rows(l1i, X)[1:])
    if k == 0:
        assert not got.consistent
        with pytest.raises(NoSolution):
            solve_closure(l1i, X)
    else:
        solved = solve_closure(l1i, X)
        assert (solved.R, solved.R_minus1) == (cd.R, cd.R_minus1)


def _cold_and_warm(df):
    """A fresh copy of the built-in family df, whose level store holds only
    the levels checked at construction, and df itself, whose store the
    session's closure solve has filled."""
    return builtin_deformed(df.fam, df.D, df.params), df


def test_perturbed_inhomogeneous_term_fails(l1i, l1i_closure, monkeypatch,
                                           tmp_path):
    # R_-1 + 1 breaks the k = 0 coordinate first, at level 0, by -1; the
    # verify-closure report carries that witness
    cd, X = l1i_closure
    broken = ClosureData(cd.K, list(cd.R), cd.R_minus1 + 1)
    assert (X, cd.K) in l1i.recurrence_rows
    for df in _cold_and_warm(l1i):
        verdict = verify_closure_identity(df, X, broken)
        assert not verdict
        assert (verdict.n, verdict.k, verdict.residual) == (0, 0, -1)
    monkeypatch.setattr("closurelab.cli.closure_for_family",
                        lambda df, Y: (broken, X))
    report = tmp_path / "r.json"
    assert main(["verify-closure", "--family", "L", "--D", "1I",
                 "--report", str(report)]) == 1
    checks = json.loads(report.read_text())["checks"]
    identity = next(c for c in checks if c["id"] == "closure/identity")
    assert identity == {"id": "closure/identity", "status": "fail",
                        "detail": {"k": 0, "n": 0, "residual": "-1"}}


def test_degree_above_bound_is_certified_on_more_levels(l1i, l1i_closure):
    # adding prod_{n<=K} (z - E_n) to R_0 leaves the relation true on
    # P_0..P_K, but it now has operator order N = 2(K+1) > K and is false:
    # the certificate must run on P_0..P_N and say no
    cd, X = l1i_closure
    vanishing = ParamPoly.const(1, ("z",))
    for n in range(cd.K + 1):
        vanishing = vanishing * (z - l1i.E(n))
    raised = ClosureData(cd.K, list(cd.R), cd.R_minus1)
    raised.R[0] = cd.R[0] + vanishing
    assert not raised.bounds_ok()
    for df in _cold_and_warm(l1i):
        assert not verify_closure_identity(df, X, raised)


def test_eigen_failure_beyond_validation_names_the_level(l1i):
    # P_6 is broken but only levels 0..VALIDATE_N = 5 are validated on
    # construction; the order-6 solve (X of degree 3) needs P_0..P_6 and must
    # stop there, naming n = 6
    broken = VALIDATE_N + 1
    cd, X = closure_for_family(l1i, ETA)
    assert cd.K == broken

    polys = [l1i.P(n) + l1i.P(n - 1) if n == broken else l1i.P(n)
             for n in range(2 * broken)]
    bad = DeformedFamily("L", l1i.D, l1i.params, l1i.xi, polys)
    match = f"n={broken}"
    for _ in range(2):  # the level store never records the failed level
        with pytest.raises(EigenValidationFailed, match=match):
            solve_closure(bad, X)
        with pytest.raises(EigenValidationFailed, match=match):
            verify_closure_identity(bad, X, cd)
        with pytest.raises(EigenValidationFailed, match=match):
            level_coordinates(bad, X, broken)
    assert broken not in bad.checked_levels


def test_nonpolynomial_image_is_a_failing_residual(lag_params):
    # P_6 + eta^ell keeps its degree; for L[1I] eta^ell = eta, and
    # H(eta) = -4*(N1 + N0*eta)/xi is no polynomial: the residual check
    # names level 6 with no division, where the reference operator route
    # finds a remainder
    df = builtin_deformed("L", MultiIndex.parse("1I"), lag_params)
    broken = VALIDATE_N + 1

    polys = [df.P(n) + EtaPoly.from_param(eta ** df.ell) if n == broken else df.P(n)
             for n in range(2 * broken)]
    bad = DeformedFamily("L", df.D, df.params, df.xi, polys)
    assert bad.P(broken).degree == df.ell + broken
    X = build_X(df.xi, ONE)
    with pytest.raises(EigenValidationFailed,
                       match=f"eigen-equation fails at n={broken}"):
        level_coordinates(bad, X, broken)
    with pytest.raises(NonPolynomialImage):
        H_tilde(bad).apply_poly(bad.P(broken).param())


def test_eigen_failure_in_plugin_is_a_failing_check(explicit_plugin, tmp_path):
    # on load, the eigen-equations of P_0..P_5 and the norm-ratio symmetry
    # of rows 0..5 (P_0..P_8) are checked; L[2I] has K = 6 and L = 3, so
    # only the closure solve reads P_9, when it reaches level n = 6, and
    # every command reports a failed check naming n = 9
    plugin = str(explicit_plugin(10, broken=9))
    report = tmp_path / "r.json"
    for argv, check_id in (
            (["verify-closure", "--family", "L", "--D", "2I"], "closure/solve"),
            (["heisenberg", "--family", "L", "--D", "2I"], "heisenberg/closure"),
            (["appendix-b", "--filter", "L/2I"], "appendix-b/L/2I/Y=1")):
        code = main(argv + ["--plugin", plugin, "--report", str(report)])
        assert code == 1
        checks = json.loads(report.read_text())["checks"]
        failed = next(c for c in checks if c["id"] == check_id)
        assert failed["status"] == "fail"
        assert "n=9" in failed["detail"]["error"]
        assert all(c["status"] != "pass" for c in checks)


def _rows_by_level(df, X):
    """The expanded ``level_rows`` of each level n = 0..K, K = 2 deg X, as
    (rows, rhs) per level, in increasing n, each row times den(E_n)^J for J
    the largest z-degree of the layout."""
    layout, K = closure_system(df, X)[0], 2 * X.degree
    top_j = max(j for _, j in layout)
    out = []
    for n in range(K + 1):
        En = df.E(n)
        q = En.denominator ** top_j
        block = level_rows(level_coordinates(df, X, n), K)
        out.append(([[a[i] * En ** j * q for i, j in layout] for a, _ in block],
                    [t * q for _, t in block]))
    return out


@pytest.mark.parametrize("case", ["L1I", "J1II-eta", "J-classical-g=h-eta"])
def test_closure_rows_solve_alike_in_any_order(case, l1i, j1ii):
    # closure_system stacks the levels highest first; the rows in increasing
    # level order and shuffled rows give the same LinearSolution, kernel
    # included (the classical J at g = h with Y = eta has one)
    if case == "J-classical-g=h-eta":
        df, Y = _fallback_inputs()[1]
    else:
        df, Y = {"L1I": (l1i, ONE), "J1II-eta": (j1ii, ETA)}[case]
    X = build_X(df.xi, Y)
    layout, rows, rhs = closure_system(df, X)
    levels = _rows_by_level(df, X)
    assert rows == [r for block, _ in reversed(levels) for r in block]
    assert rhs == [t for _, ts in reversed(levels) for t in ts]
    got = solve_linear_exact(rows, rhs)
    assert got.consistent
    assert (len(got.kernel_basis) > 0) == (case == "J-classical-g=h-eta")
    in_order = ([r for block, _ in levels for r in block],
                [t for _, ts in levels for t in ts])
    assert solve_linear_exact(*in_order) == got
    rng = random.Random(17)
    for _ in range(5):
        order = rng.sample(range(len(rows)), len(rows))
        assert solve_linear_exact([rows[i] for i in order],
                                  [rhs[i] for i in order]) == got


# -- the solve read off the full levels against the linear system ----------------

SOLVE_LABELS = ("", "1I", "1II", "2I", "2II", "3I", "4II")
SOLVE_PARAMS = {
    "L": ({"g": F(7, 3)}, {"g": F(5, 2)}, {"g": F(11, 4)}, {"g": F(3)},
          {"g": F(1, 3)}),
    # the fourth and fifth have a = g + h = 1, where the solution set has a
    # kernel; at the last, g = h (b = 0), the classical J has one for Y != 1
    "J": ({"g": F(17, 2), "h": F(19, 3)}, {"g": F(5, 2), "h": F(13, 3)},
          {"g": F(9, 2), "h": F(7, 2)}, {"g": F(3, 4), "h": F(1, 4)},
          {"g": F(2), "h": F(-1)}, {"g": F(5, 2), "h": F(5, 2)}),
}
SOLVE_YS = (ONE, ETA, EtaPoly((1, 0, 1)))


def _outcome(solve):
    """(R, R_-1, kernel_dim) of a solve, the NoSolution it raised, or None
    when it declined."""
    try:
        cd = solve()
    except NoSolution as exc:
        return "NoSolution", str(exc)
    return None if cd is None else (cd.R, cd.R_minus1, cd.kernel_dim)


def _full_levels(df, X):
    levels = [level_coordinates(df, X, n) for n in range(2 * X.degree + 1)]
    return _outcome(lambda: solve_full_levels(df, X.degree, levels))


@pytest.mark.parametrize("fam", ["L", "J"])
@pytest.mark.parametrize("label", SOLVE_LABELS, ids=lambda s: s or "classical")
def test_full_level_solve_equals_the_linear_system(fam, label):
    # every built configuration: the closed form, where it applies, and
    # solve_closure give the generic solve's R, R_-1 and kernel_dim, or its
    # exception; on these configurations the closed form declines exactly
    # where the solution set has a kernel (J at a = 1, and the classical J
    # at b = 0 with Y != 1)
    taken = 0
    for values in SOLVE_PARAMS[fam]:
        ps = ParamSet(fam, values)
        try:
            df = builtin_deformed(fam, MultiIndex.parse(label), ps)
        except ValueError:  # a seed degenerate at these parameters
            continue
        for Y in SOLVE_YS:
            X = build_X(df.xi, Y)
            generic = _outcome(lambda: closure.solve_closure_system(df, X))
            assert _outcome(lambda: solve_closure(df, X)) == generic
            closed = _full_levels(df, X)
            if closed is None:
                assert generic[-1] > 0 and fam == "J"
                assert ps.a == 1 or (label == "" and ps.b == 0 and Y != ONE)
            else:
                assert closed == generic
                taken += 1
    assert taken >= len(SOLVE_YS)


@pytest.mark.parametrize("name", ["l1i", "j1i"])
def test_perturbed_root_at_a_full_level_has_no_solution(name, request, monkeypatch):
    # negative control: Delta_{n,1} + 1 at one full level n = L..K keeps the
    # level full, so the closed form reads it; both paths find no solution
    df = request.getfixturevalue(name)
    X = build_X(df.xi, ONE)
    L, K = X.degree, 2 * X.degree
    real = closure.level_coordinates
    for bad in range(L, K + 1):
        def perturbed(df, X, n):
            return [(k, r, delta + 1 if (n, k) == (bad, 1) else delta)
                    for k, r, delta in real(df, X, n)]

        monkeypatch.setattr(closure, "level_coordinates", perturbed)
        levels = [perturbed(df, X, n) for n in range(K + 1)]
        message = f"order-{K} closure relation has no solution"
        with pytest.raises(NoSolution, match=message):
            solve_full_levels(df, L, levels)
        for solve in (solve_closure, closure.solve_closure_system):
            with pytest.raises(NoSolution, match=message):
                solve(df, X)


def test_kernel_at_a_equal_one_takes_the_linear_system():
    # J at a = 1: the closed form declines, and solve_closure reports the
    # linear system's kernel_dim and conjectured point
    df = builtin_deformed("J", MultiIndex.parse("1I"), ParamSet("J", {"g": F(3, 4), "h": F(1, 4)}))
    X = build_X(df.xi, ONE)
    assert _full_levels(df, X) is None
    cd = solve_closure(df, X)
    assert cd.kernel_dim == 3
    assert _outcome(lambda: cd) == _outcome(lambda: closure.solve_closure_system(df, X))


def test_symbolic_reconstruction_makes_no_linear_solve(monkeypatch):
    # every sample of a symbolic J[1I] reconstruction is read off its full
    # levels, and its family is built in closed form: no exact linear solve
    calls = []
    real = exactalg.solve_linear_exact
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "closurelab" and \
                getattr(module, "solve_linear_exact", None) is real:
            monkeypatch.setattr(module, "solve_linear_exact",
                                lambda *args: calls.append(args) or real(*args))
    cd = symbolic_closure("J", MultiIndex.parse("1I"), ONE)
    assert cd.unique and calls == []


def _synthetic_levels(E, K, root):
    """Levels 0..K of an order-K relation with every r_{n,k} = 1: level n <
    K/2 holds only its k = 0 coordinate, and a full level n holds the K
    shifts Delta = k, with Delta = root(E_n) at k = 1.  Every v_i is then
    a polynomial in E_n of degree at most deg root, and v_-1 = -v_0 makes
    the k = 0 rows of the partial levels vanish."""
    L = K // 2
    return [[(0, F(1), F(0))] if n < L else
            [(k, F(1), root(E(n)) if k == 1 else F(k)) for k in range(-L, L + 1)]
            for n in range(K + 1)]


@pytest.mark.parametrize("root, solvable", [(lambda E: F(3, 7), True),
                                             (lambda E: E + 1, False)],
                         ids=["constant", "linear"])
def test_each_coefficient_keeps_its_own_degree_bound(l1i, monkeypatch, root, solvable):
    # R_{K-1} has degree bound 0.  Roots that are constant give constant
    # v_i, which both paths solve alike; a root linear in E_n makes
    # v_{K-1} = -(sum of roots) linear in E_n, which a degree <= L
    # interpolant through every full level would fit, but which has no
    # solution within the bounds: both paths raise NoSolution
    X = build_X(l1i.xi, ONE)
    K = 2 * X.degree
    levels = _synthetic_levels(l1i.E, K, root)
    monkeypatch.setattr(closure, "level_coordinates", lambda df, X, n: levels[n])
    generic = _outcome(lambda: closure.solve_closure_system(l1i, X))
    assert _outcome(lambda: solve_full_levels(l1i, X.degree, levels)) == generic
    assert (generic[0] == "NoSolution") != solvable


def test_repeated_energy_takes_the_linear_system(l1i):
    # E_L..E_K must be distinct interpolation nodes: a repeated energy
    # declines the closed form instead of dividing by zero
    class RepeatedEnergy:
        def E(self, n):
            return F(min(n, 3))

    X = build_X(l1i.xi, ONE)
    K = 2 * X.degree
    levels = _synthetic_levels(RepeatedEnergy().E, K, lambda E: F(3, 7))
    assert solve_full_levels(RepeatedEnergy(), X.degree, levels) is None
