"""Recurrence tables: X construction, basis expansion, symmetry, golden
closed forms."""

from fractions import Fraction as F

import pytest

from closurelab.exactalg import EtaPoly, ParamPoly
from closurelab.families import MultiIndex, builtin_deformed
from closurelab.recurrence import (NonzeroRemainder, RecurrenceTable, build_X,
                                   check_h_symmetry,
                                   closed_form_compare, compute_table,
                                   expand_in_basis, leading_coeff_identity,
                                   table_formulas_J1I, table_formulas_L1I)

eta = ParamPoly.var("eta")
g = ParamPoly.var("g")
E = EtaPoly.from_param
ONE = EtaPoly.const(1)


def test_build_X_minimal(lag_params):
    gv = lag_params.g
    xi = E(eta + gv + F(1, 2))
    assert build_X(xi, ONE) == E(F(1, 2) * eta * (eta + 2 * gv + 1))


def test_build_X_with_Y_eta():
    # both sides have degree 1 in g, so three distinct g make it exact in g
    for gv in (F(7, 3), F(-1, 2), F(5)):
        xi = E(eta + gv + F(1, 2))
        X = build_X(xi, E(eta))
        assert X == E((eta ** 2 * (eta * F(1, 3) + (2 * g + 1) * F(1, 4))).subs({"g": gv}))
        assert X.degree == xi.degree + 1 + 1
        assert X.coeff(0) == 0


def test_build_X_classical_coordinate():
    assert build_X(EtaPoly.const(1), ONE) == E(eta)


def test_classical_three_term_coefficients(l_classical, lag_params):
    gv = lag_params.g
    t = compute_table(l_classical, E(eta), range(9))  # the three-term table
    for n in range(8):
        assert t.rows[n][1] == -(n + 1)
        assert t.rows[n][0] == 2 * n + gv + F(1, 2)
        if n >= 1:
            assert t.rows[n][-1] == -(n + gv - F(1, 2))


def test_L1I_table_matches_closed_forms_bound(l1i, l1i_table, lag_params):
    rep = closed_form_compare(l1i_table, table_formulas_L1I(lag_params))
    assert all(e["ok"] for e in rep)


def test_L1I_table_symbolic_in_g(l1i_g_sweep):
    """The L[1I] table n <= 8 equals the closed forms exactly in g, checked
    at the 14 distinct g of L1I_SWEEP_G.

    With xi = eta + g + 1/2, P(m) = xi*P_m' - (xi + 1)*P_m, and the Laguerre
    coefficients of P_m have g-degree <= m, so P(m) has g-degree <= m + 1.
    X = eta*(eta + 2g + 1)/2 has g-degree 1 and every closed form f_k(n, g)
    has g-degree <= 2.  So every eta-coefficient of
    X*P(n) - sum_{|k|<=2} f_k(n, g)*P(n + k) is a polynomial in g of degree
    <= n + 5 <= 13.  At each sample the expansion has zero remainder and
    r_{n,k} = f_k(n, g), so that polynomial vanishes at 14 points and hence
    identically.  The P(n + k) have the distinct degrees n + k + 1 for every
    g (the lead coefficient of P(m) is (-1)^(m+1)/m!, free of g), so the
    expansion is unique and r_{n,k}(g) = f_k(n, g) for every g.  The
    symmetry cross-product f_{-l}(n, g)*den - num*f_l(n - l, g), with
    (num, den) the norm ratio (degree l + 1 and 1 in g), has g-degree
    <= l + 3 <= 5, so it too vanishes identically.
    """
    assert len({df.params.g for df, _ in l1i_g_sweep}) == 14
    for df, table in l1i_g_sweep:
        rep = closed_form_compare(table, table_formulas_L1I(df.params))
        assert len(rep) == 45 and all(e["ok"] for e in rep)
        rep = check_h_symmetry(df, table)
        assert rep and all(e["ok"] for e in rep)


def test_L1I_sweep_catches_a_wrong_closed_form(l1i_g_sweep):
    # off by one in the single entry (4, 0): every sample fails exactly there
    for df, table in l1i_g_sweep:
        formulas = table_formulas_L1I(df.params)
        f0 = formulas[0]
        formulas[0] = lambda n: f0(n) + (1 if n == 4 else 0)
        rep = closed_form_compare(table, formulas)
        assert [(e["n"], e["k"]) for e in rep if not e["ok"]] == [(4, 0)]
    # off by a degree-13 polynomial in g that vanishes at the first 13
    # samples: only the 14th sample sees it, so fewer samples would not do
    gs = [df.params.g for df, _ in l1i_g_sweep]
    failing = []
    for df, table in l1i_g_sweep:
        formulas = table_formulas_L1I(df.params)
        f0, off = formulas[0], F(1)
        for gv in gs[:13]:
            off *= df.params.g - gv
        formulas[0] = lambda n: f0(n) + (off if n == 8 else 0)
        rep = closed_form_compare(table, formulas)
        failing += [(df.params.g, e["n"], e["k"]) for e in rep if not e["ok"]]
    assert failing == [(gs[13], 8, 0)]


def test_L1I_row0_values(l1i_table, lag_params):
    gv = lag_params.g
    row = l1i_table.rows[0]
    assert row[2] == 1
    assert row[1] == -(2 * gv + 3)
    assert row[0] == (2 * gv + 1) * (6 * gv + 13) / 8
    assert row[-1] == 0 and row[-2] == 0


def test_J1I_table_at_three_samples():
    from closurelab.families import ParamSet

    for gh in ((F(2), F(3)), (F(5, 2), F(4)), (F(3), F(7, 2))):
        ps = ParamSet("J", {"g": gh[0], "h": gh[1]})
        df = builtin_deformed("J", MultiIndex.parse("1I"), ps)
        table = compute_table(df, build_X(df.xi, ONE), range(6))
        rep = closed_form_compare(table, table_formulas_J1I(ps))
        assert all(e["ok"] for e in rep), gh


def test_zero_remainder_for_all_builtins(l1i, l1ii, j1i, j1ii, l_classical,
                                         j_classical):
    for df in (l1i, l1ii, j1i, j1ii, l_classical, j_classical):
        X = build_X(df.xi, ONE)
        compute_table(df, X, range(9))  # NonzeroRemainder would raise


def test_leading_coefficient_identity(l1i, l1i_table, j1i, j1i_table):
    assert all(e["ok"] for e in leading_coeff_identity(l1i, l1i_table))
    assert all(e["ok"] for e in leading_coeff_identity(j1i, j1i_table))


def test_h_symmetry_all_builtins(l1i, l1ii, j1i, j1ii, l_classical, j_classical):
    for df in (l1i, l1ii, j1i, j1ii, l_classical, j_classical):
        X = build_X(df.xi, ONE)
        table = compute_table(df, X, range(9))
        rep = check_h_symmetry(df, table)
        assert rep and all(e["ok"] for e in rep), df.label


def test_h_symmetry_example_row(l1i_table, l1i, lag_params):
    gv = lag_params.g
    lhs = l1i_table.rows[2][-1]
    assert lhs == -F(1, 2) * (2 * gv + 3) * (2 * gv + 7)
    num, den = l1i.h_ratio(2, 1)
    assert lhs * den == num * l1i_table.rows[1][1]


def test_vacuous_rows_below_ground_state(l1i_table):
    assert l1i_table.rows[0][-1] == 0
    assert l1i_table.rows[1][-2] == 0
    assert l1i_table.rows[0][-2] == 0


def test_nonzero_remainder_negative_control(l1i):
    with pytest.raises(NonzeroRemainder):
        expand_in_basis(l1i, E(eta ** 2), 0)  # eta^2 is not an admissible X


def test_higher_Y_tables_still_span(l1i):
    X = build_X(l1i.xi, E(eta))
    table = compute_table(l1i, X, range(5))
    assert table.L == 3
    rep = check_h_symmetry(l1i, table)
    assert all(e["ok"] for e in rep)


def test_perturbed_entries_fail_exactly_their_rows(lag_params):
    # the cross-product comparisons: r_{3,-1} + 1 spoils symmetry row
    # (3, 1), r_{1,2} + 1 spoils symmetry row (3, 2), leading row 1 and the
    # two closed-form entries
    df = builtin_deformed("L", MultiIndex.parse("1I"), lag_params)
    table = compute_table(df, build_X(df.xi, ONE), range(5))
    bad = RecurrenceTable(table.X, table.L,
                          {n: dict(row) for n, row in table.rows.items()})
    bad.rows[3][-1] += 1
    bad.rows[1][2] += 1
    failing = lambda rows, *keys: [tuple(e[k] for k in keys)
                                   for e in rows if not e["ok"]]
    assert failing(check_h_symmetry(df, bad), "n", "l") == [(3, 1), (3, 2)]
    assert failing(leading_coeff_identity(df, bad), "n") == [(1,)]
    assert failing(closed_form_compare(bad, table_formulas_L1I(lag_params)),
                   "n", "k") == [(1, 2), (3, -1)]
    for rows in (check_h_symmetry(df, table), leading_coeff_identity(df, table),
                 closed_form_compare(table, table_formulas_L1I(lag_params))):
        assert rows and all(e["ok"] for e in rows)
