"""Acceptance suite: one test and one printed pass/fail line per criterion.

Every comparison below is exact (tolerance zero).  Symbolic-in-parameter
results come from exact solves at rational samples, interpolation, and
certification at fresh samples; polynomial equality of the reconstruction
against the golden closed form is then decided coefficient-wise.  The
L[1I] recurrence table is exact in g by a degree bound: its identities are
polynomials in g of degree <= 13, checked at 14 distinct g.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import os
import random
from fractions import Fraction as F

import pytest

from closurelab.exactalg import EtaPoly, ParamPoly
from closurelab.closure import (closure_for_family, compare_reference,
                                conjectured_R, load_reference_tables,
                                symbolic_closure)
from closurelab.families import (MultiIndex, ParamSet, builtin_deformed,
                                 classical_family, energy, load_family_plugin)
from closurelab.heisenberg import (LadderContext, check_r0_relation,
                                   commutation_check, heisenberg_series_check,
                                   ladder_suite)
from closurelab.recurrence import (build_X, check_h_symmetry,
                                   closed_form_compare, compute_table,
                                   table_formulas_J1I, table_formulas_L1I)
from closurelab.spectral import (alpha_conjecture, alpha_values_at_energy,
                                 check_alpha_spectrum, pairing_identities,
                                 spectral_suite,
                                 sqrt_value_at_energy, sqrt_square)

z = ParamPoly.var("z")
g = ParamPoly.var("g")
a = ParamPoly.var("a")
b = ParamPoly.var("b")
ONE = EtaPoly.const(1)
ETA = EtaPoly((0, 1))
ETA2 = EtaPoly((0, 0, 1))


def _record(num: int, ok: bool, text: str):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


@pytest.fixture(scope="module")
def cd_L1I_sym():
    return symbolic_closure("L", MultiIndex.parse("1I"), ONE)


@pytest.fixture(scope="module")
def cd_L1I_Y1_sym():
    return symbolic_closure("L", MultiIndex.parse("1I"), ETA)


@pytest.fixture(scope="module")
def cd_L1I_Y2_sym():
    return symbolic_closure("L", MultiIndex.parse("1I"), ETA2)


def test_criterion_01_laguerre_1I_order4_symbolic(cd_L1I_sym):
    cd = cd_L1I_sym
    ok = ([r.constant_value() for r in cd.R] == [-1024, 0, 80, 0]
          and cd.R_minus1 == 64 * (3 * z ** 2 + 2 * (10 * g + 11) * z
                                   + 2 * (2 * g + 1) * (6 * g + 13))
          and cd.unique)
    _record(1, ok, "L[1I], Y=1, K=4: solved data matches the printed closure "
                   "coefficients symbolically in g")


def test_criterion_02_laguerre_higher_Y_symbolic(cd_L1I_Y1_sym, cd_L1I_Y2_sym):
    cd6, cd8 = cd_L1I_Y1_sym, cd_L1I_Y2_sym
    tables = load_reference_tables()
    ok6 = ([r.constant_value() for r in cd6.R] == [147456, 0, -12544, 0, 224, 0]
           and cd6.R_minus1 == ParamPoly.from_record(tables[("L", "1I", "eta")]["R_minus1"]))
    ok8 = ([r.constant_value() for r in cd8.R]
           == [-37748736, 0, 3358720, 0, -69888, 0, 480, 0]
           and cd8.R_minus1 == ParamPoly.from_record(tables[("L", "1I", "eta^2")]["R_minus1"]))
    _record(2, ok6 and ok8, "L[1I], Y=eta (K=6) and Y=eta^2 (K=8): solved data "
                            "matches the printed tables symbolically in g")


def test_criterion_03_laguerre_1II_symbolic():
    cd = symbolic_closure("L", MultiIndex.parse("1II"), ONE)
    ok = ([r.constant_value() for r in cd.R] == [-1024, 0, 80, 0]
          and cd.R_minus1 == -64 * (3 * z ** 2 + 2 * (10 * g - 9) * z
                                    + 2 * (2 * g - 3) * (6 * g + 1)))
    _record(3, ok, "L[1II], Y=1: solved data matches the printed closure "
                   "coefficients symbolically in g")


def test_criterion_04_jacobi_both_types_symbolic():
    tables = load_reference_tables()
    cd1 = symbolic_closure("J", MultiIndex.parse("1I"), ONE)
    okR = (cd1.R[3] == ParamPoly.const(40)
           and cd1.R[2] == 80 * (z + a * a) - 528
           and cd1.R[1] == -1024 * (z + a * a - F(5, 2))
           and cd1.R[0] == -1024 * (z + a * a - 1) * (z + a * a - 4))
    ok1 = okR and cd1.R_minus1 == ParamPoly.from_record(tables[("J", "1I", "1")]["R_minus1"])
    cd2 = symbolic_closure("J", MultiIndex.parse("1II"), ONE)
    ok2 = (all(cd2.R[i] == cd1.R[i] for i in range(4))
           and cd2.R_minus1 == ParamPoly.from_record(tables[("J", "1II", "1")]["R_minus1"])
           and cd2.R_minus1 == cd1.R_minus1.subs({"b": -b}))
    _record(4, ok1 and ok2, "J[1I] and J[1II], Y=1: solved data matches the "
                            "printed forms symbolically in (a, b), type II "
                            "being the sign-flipped image")


def test_criterion_05_recurrence_tables(l1i_g_sweep):
    # 14 distinct g make the L[1I] comparison exact in g (degree proof in
    # test_recurrence.test_L1I_table_symbolic_in_g)
    okL = len({df.params.g for df, _ in l1i_g_sweep}) == 14
    for df, table in l1i_g_sweep:
        repL = closed_form_compare(table, table_formulas_L1I(df.params))
        okL = okL and len(repL) == 45 and all(e["ok"] for e in repL)
    okJ = True
    for gh in ((F(2), F(3)), (F(5, 2), F(4)), (F(3), F(7, 2))):
        ps = ParamSet("J", {"g": gh[0], "h": gh[1]})
        df = builtin_deformed("J", MultiIndex.parse("1I"), ps)
        tj = compute_table(df, build_X(df.xi, ONE), range(6))
        repJ = closed_form_compare(tj, table_formulas_J1I(ps))
        okJ = okJ and all(e["ok"] for e in repJ)
    _record(5, okL and okJ, "recurrence tables match the printed closed forms: "
                            "L[1I] n<=8 symbolically in g, J[1I] n<=5 at three "
                            "parameter samples, zero remainder everywhere")


def test_criterion_06_norm_ratio_symmetry(l1i, l1ii, j1i, j1ii, l_classical,
                                          j_classical):
    ok = True
    for df in (l_classical, j_classical, l1i, l1ii, j1i, j1ii):
        X = build_X(df.xi, ONE)
        table = compute_table(df, X, range(9))
        rep = check_h_symmetry(df, table)
        ok = ok and bool(rep) and all(e["ok"] for e in rep)
    _record(6, ok, "norm-ratio symmetry holds exactly for all computed rows "
                   "of every built-in family, l = 1..L")


def test_criterion_07_companion_matrix_suite(l1i_closure, j1i_closure,
                                             lag_params, jac_params):
    ok = True
    solved = [("L", lag_params, l1i_closure[0]), ("J", jac_params, j1i_closure[0])]
    for fam, ps, cd in solved:
        L = cd.K // 2
        alpha_list = alpha_conjecture(fam, L, ps)
        for n in range(4):
            En = energy(ps, n)
            alphas = alpha_values_at_energy(ps, n, alpha_list, En)
            R_vals = [Ri.evaluate({"z": En}) for Ri in cd.R]
            suite = spectral_suite(R_vals, alphas)
            ok = ok and suite["recursion_ok"] and suite["eigen_ok"] \
                and suite["initial_ok"]
    seed = int(os.environ.get("CLOSURELAB_SEED", "0"))
    rng = random.Random(seed)
    for _ in range(50):
        K = rng.choice([2, 3, 4, 5, 6, 7, 8])
        vals = set()
        while len(vals) < K:
            v = F(rng.randint(-60, 60), rng.randint(1, 6))
            if v:
                vals.add(v)
        alphas = sorted(vals, reverse=True)
        coeffs = [F(1)]
        for al in alphas:
            new = [F(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                new[i + 1] += c
                new[i] -= c * al
            coeffs = new
        R = [-coeffs[i] for i in range(K)]
        suite = spectral_suite(R, alphas)
        ok = ok and suite["recursion_ok"] and suite["eigen_ok"] \
            and suite["initial_ok"]
    _record(7, ok, "companion-matrix suite exact on solved instances plus 50 "
                   "random distinct-rational spectra (eigenvectors, inverse, "
                   "determinant, column sum, three-way power recursion)")


def test_criterion_08_conjectured_coefficients(wil_params, aw_params, pairing_params,
                                               lag_params,
                                               l1i_closure, l1ii_closure,
                                               j1i_closure, l1i, j1i,
                                               l_classical, j_classical):
    ok = True
    # expansions are square-root free and match solved data where solved
    solved_cases = [
        ("L", l_classical, ONE, 1),
        ("L", l1i, ONE, 2),
        ("L", l1i, ETA, 3),
        ("L", l1i, ETA2, 4),
        ("J", j_classical, ONE, 1),
        ("J", j1i, ONE, 2),
        ("J", j1i, ETA, 3),
        ("J", j1i, ETA2, 4),
    ]
    for fam, df, Y, L in solved_cases:
        cd, _ = closure_for_family(df, Y)
        ok = ok and cd.R == conjectured_R(alpha_conjecture(fam, L, df.params))
    # pairing identities hold identically in z for all four families, L <= 4,
    # and in a (J) and b1 (W): both sides have degree <= 2 in them, and
    # pairing_params holds three distinct values of each
    for ps in (*pairing_params, aw_params):
        for L in (1, 2, 3, 4):
            rep = pairing_identities(ps, alpha_conjecture(ps.fam, L, ps))
            ok = ok and all(e["ok"] for e in rep)
    # and the expansion itself is square-root free, symbolically in a
    for fam, ps in (("L", None), ("J", None), ("W", wil_params), ("AW", aw_params)):
        for L in (1, 2, 3, 4):
            conjectured_R(alpha_conjecture(fam, L, ps))
    # printed difference-family forms at L = 2
    Rw = conjectured_R(alpha_conjecture("W", 2, wil_params))
    zp = 4 * z + (sum(wil_params.a_list()) - 1) ** 2
    ok = ok and Rw == [-4 * (zp - 1) * (zp - 4), -8 * (2 * zp - 5),
                       5 * zp - 33, ParamPoly.const(10)]
    q, b4 = aw_params.q, aw_params.b4
    Raw = conjectured_R(alpha_conjecture("AW", 2, aw_params))
    zq = z + 1 + b4 / q
    ok = ok and Raw[3] == q ** -2 * (1 - q) ** 2 * (1 + 3 * q + q ** 2) * zq
    _record(8, ok, "expanding the conjectured eigenvalue lists reproduces the "
                   "solved coefficients for L <= 4 (L and J, orders 2..8) and "
                   "the printed difference-family forms; pairing identities "
                   "hold identically in z")


def test_criterion_09_spectral_spacing(lag_params, wil_params, aw_params):
    ok = True
    j_by_L = {1: ParamSet("J", {"g": F(2), "h": F(3)}),
              2: ParamSet("J", {"g": F(2), "h": F(3)}),
              3: ParamSet("J", {"g": F(3), "h": F(7, 2)}),
              4: ParamSet("J", {"g": F(4), "h": F(9, 2)})}
    for L in (1, 2, 3, 4):
        for fam, ps in (("L", lag_params), ("J", j_by_L[L]),
                        ("W", wil_params), ("AW", aw_params)):
            rep = check_alpha_spectrum(ps, range(9),
                                       alpha_conjecture(fam, L, ps))
            ok = ok and all(e["ok"] for e in rep)
    # square-root-free evaluations match the printed closed forms
    for n in range(9):
        ok = ok and sqrt_value_at_energy(j_by_L[2], n) == 2 * n + j_by_L[2].a
        b1v = sum(wil_params.a_list())
        ok = ok and sqrt_value_at_energy(wil_params, n) == 2 * n + b1v - 1
        ok = ok and (sqrt_value_at_energy(aw_params, n)
                     == aw_params.q ** (-n) - aw_params.b4 * aw_params.q ** (n - 1))
    _record(9, ok, "spacing identities alpha_j(E_n) = E_(n+shift) - E_n exact "
                   "for n <= 8, all four families at admissible samples, with "
                   "the printed square-root-free evaluations")


def test_criterion_10_ladder_suite(l1i, l1ii, j1i, j1ii, l1i_closure,
                                   l1ii_closure, j1i_closure, j1ii_closure):
    ok = True
    for df, (cd, X) in ((l1i, l1i_closure), (l1ii, l1ii_closure),
                        (j1i, j1i_closure), (j1ii, j1ii_closure)):
        ctx = LadderContext(df, cd, X)
        ok = ok and all(e["ok"] for e in ladder_suite(ctx, range(7)))
        ok = ok and all(e["ok"] for e in check_r0_relation(ctx, range(7)))
        ok = ok and all(e["ok"] for e in commutation_check(ctx, range(7)))
        for n in range(4):
            ok = ok and all(e["ok"]
                            for e in heisenberg_series_check(ctx, n, cd.K + 2))
    _record(10, ok, "ladder suite exact for the built-in deformed families, "
                    "n <= 6: coefficients match the tables, diagonal relation, "
                    "eigenvalue shifts, time powers to order K+2")


def test_criterion_11_reference_data_and_plugin_path():
    import hashlib
    import json as jsonlib
    import pathlib
    from importlib import resources

    from closurelab.exactalg import parse_poly

    tables = load_reference_tables()
    ok = True
    # transcription self-check: factored vs expanded at 3 rational points
    points = [
        {"z": F(1, 3), "g": F(9, 4), "a": F(13, 3), "b": F(-2, 5),
         "b1": F(7), "b2": F(11, 2), "b3": F(5, 3), "b4": F(1, 8),
         "s1": F(3, 2), "s2": F(2, 7), "sp1": F(5, 4), "sp2": F(3, 8),
         "q": F(4, 9), "r": F(2, 3)},
        {"z": F(2), "g": F(7, 2), "a": F(6), "b": F(3, 2),
         "b1": F(9), "b2": F(4), "b3": F(2), "b4": F(3, 5),
         "s1": F(1, 2), "s2": F(5, 3), "sp1": F(2), "sp2": F(1, 6),
         "q": F(1, 4), "r": F(1, 2)},
        {"z": F(-7, 5), "g": F(1, 3), "a": F(19, 7), "b": F(4),
         "b1": F(3, 2), "b2": F(-1), "b3": F(6), "b4": F(2, 9),
         "s1": F(-1, 3), "s2": F(4, 5), "sp1": F(7, 6), "sp2": F(-2),
         "q": F(9, 16), "r": F(3, 4)},
    ]

    for key, entry in tables.items():
        if key == "_meta" or "factored" not in entry or "R_minus1" not in entry:
            continue
        factored = parse_poly(entry["factored"])
        expanded = ParamPoly.from_record(entry["R_minus1"])
        for point in points:
            ok = ok and factored.evaluate(point) == expanded.evaluate(point)
    # checksum
    payload = jsonlib.loads(resources.files("closurelab.data")
                            .joinpath("appendix_b.json").read_text())
    body = jsonlib.dumps(payload["entries"], sort_keys=True)
    ok = ok and hashlib.sha256(body.encode()).hexdigest() \
        == payload["meta"]["checksum_sha256"]
    # plugin-gated comparison path: shipped degree-2 plugin checks its row
    plug = pathlib.Path(__file__).resolve().parent.parent / "plugins" / "laguerre_2I.json"
    df = load_family_plugin(plug)
    cd, _ = closure_for_family(df, ONE)
    cmp = compare_reference("L", "2I", "1", cd, {"g": df.params.g})
    ok = ok and cmp["ok"]
    # higher-order target lists carry no values
    targets = tables["_meta"]["extension_targets"]["L"]
    ok = ok and all(("L", lbl, "1") not in tables for lbl in targets["10"])
    _record(11, ok, "reference rows ship with factored-vs-expanded "
                    "transcription self-checks and checksum; plugin-gated "
                    "comparison verifies a shipped degree-2 plugin against "
                    "its stored row; extension targets carry no values")
