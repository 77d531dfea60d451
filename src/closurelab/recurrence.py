"""Constant-coefficient recurrences: build X from (xi, Y), expand X*P(n) in
the deformed basis by leading-term elimination, and check the exact
norm-ratio symmetry and closed-form coefficient tables.

No inner products are used anywhere: the expansion is pure exact algebra,
so the identities hold for any parameter values where the data is defined.
Rows are independent and the computation is pure, so tables can be filled
in parallel over n.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .exactalg import EtaPoly, Rat, convolve_sum
from .families import DeformedFamily, ParamSet, _rising, nonzero_factors


class NonzeroRemainder(Exception):
    """X*P(n) is not in the span of the neighbouring eigenpolynomials
    (falsifies the constant-coefficient recurrence for this X)."""


def x_degree(ell: int, y_degree: int) -> int:
    """deg X = ell + deg Y + 1: the degree of ``build_X(xi, Y)`` for
    deg xi = ell, which is L = K/2, the half-order of the closure."""
    return ell + y_degree + 1


def build_X(xi: EtaPoly, Y: EtaPoly) -> EtaPoly:
    """X(eta) = integral_0^eta xi(y) Y(y) dy (differential families).

    Degree is x_degree(deg xi, deg Y) and X(0) = 0.
    """
    return (xi * Y).integrate()


class RecurrenceTable:
    """Expansion coefficients r[n][k] of X*P(n) over P(n+k), |k| <= L."""

    __slots__ = ("X", "L", "rows")

    def __init__(self, X: EtaPoly, L: int, rows: dict[int, dict[int, Rat]] | None = None):
        self.X = X
        self.L = L
        self.rows = {} if rows is None else rows


def expand_in_basis(df: DeformedFamily, X: EtaPoly, n: int) -> dict[int, Rat]:
    """Exact Fraction coefficients of X*P(n) = sum_k r_{n,k} P(n+k),
    |k| <= L = deg X.

    Successive leading-term elimination from degree ell+n+L downward, on
    integers.  The remainder is held as T/v, an integer list T over a
    nonzero integer v: at the start T = X.num * P(n).num (one
    ``convolve_sum``, not reduced) and v = X.den * P(n).den.  At shift k, with
    m = n + k and P(m) = num_m/den_m of leading numerator p, the
    eta^(ell+m) coefficient of the remainder is c/v for c = T[ell+m], so
    r_{n,k} = c*den_m/(v*p), the one Fraction of the step, and

        T/v - r_{n,k}*P(m) = ((p/g)*T - (c/g)*num_m) / (v*p/g),   g = gcd(p, c),

    an integer update that zeroes T[ell+m]; no other number is formed.  The
    remainder after the last basis element is zero exactly when T is; that
    is the substantive span check.
    """
    L = X.degree
    Pn = df.P(n)
    T, v = convolve_sum([(X.num, Pn.num)]), X.den * Pn.den
    row: dict[int, Rat] = {}
    for k in range(L, -L - 1, -1):
        m = n + k
        top = df.ell + m
        c = T[top] if m >= 0 else 0
        if not c:
            row[k] = Fraction(0)
            continue
        Pm = df.P(m)
        p = Pm.num[-1]
        row[k] = Fraction(c * Pm.den, v * p)
        g = math.gcd(p, c)
        p, c = p // g, c // g
        v *= p
        # P(m) has degree top, and T is zero above top
        T[:top + 1] = map(operator.sub, map(p.__mul__, T[:top + 1]),
                          map(c.__mul__, Pm.num))
    if any(T):
        degree = max(j for j, x in enumerate(T) if x)
        raise NonzeroRemainder(
            f"{df.label}: X*P({n}) leaves remainder of degree {degree}")
    return row


def recurrence_row(df: DeformedFamily, X: EtaPoly, n: int) -> dict[int, Rat]:
    """expand_in_basis(df, X, n), computed once per family: the row is kept
    in ``df.recurrence_rows`` under (X, n), so the closure engine, the
    ladders and the tables share it.  Reuse is exact, since the family is
    immutable; a row whose remainder is nonzero is never stored.  Callers
    must not mutate the returned row."""
    row = df.recurrence_rows.get((X, n))
    if row is None:
        row = df.recurrence_rows[(X, n)] = expand_in_basis(df, X, n)
    return row


def compute_table(df: DeformedFamily, X: EtaPoly,
                  n_range: Iterable[int]) -> RecurrenceTable:
    table = RecurrenceTable(X=X, L=X.degree)
    for n in n_range:
        table.rows[n] = recurrence_row(df, X, n)
    return table


def leading_coeff_identity(df: DeformedFamily, table: RecurrenceTable) -> list[dict]:
    """r_{n,L} = c^X * c^P_n / c^P_{n+L} for every computed row, tested as
    r_{n,L} * c^P_{n+L} == c^X * c^P_n (c^P_{n+L} is a leading coefficient,
    so nonzero, and the two tests agree)."""
    out = []
    cX = table.X.lead
    for n, row in sorted(table.rows.items()):
        ok = row[table.L] * df.P(n + table.L).lead == cX * df.P(n).lead
        out.append({"check": "leading-coefficient", "n": n, "ok": bool(ok)})
    return out


def check_h_symmetry(df: DeformedFamily, table: RecurrenceTable) -> list[dict]:
    """r_{n,-l} = (h_{D,n}/h_{D,n-l}) * r_{n-l,l} for all computed rows and
    l = 1..L, tested as r_{n,-l} * den == num * r_{n-l,l} with (num, den) =
    ``df.h_ratio(n, l)``; den is nonzero, so the two tests agree.

    The table holds rows 0..N, so row n-l >= 0 is present.  Vacuous rows
    (n-l < 0, both sides zero by the empty-basis convention) pass
    automatically.  Failures become report entries, not exceptions.
    """
    out = []
    for n in sorted(table.rows):
        for l in range(1, table.L + 1):
            entry = {"check": "norm-ratio-symmetry", "n": n, "l": l}
            if n - l < 0:
                entry["ok"] = table.rows[n].get(-l, Fraction(0)) == 0
            else:
                num, den = df.h_ratio(n, l)
                entry["ok"] = bool(table.rows[n][-l] * den
                                   == num * table.rows[n - l][l])
            out.append(entry)
    return out


def closed_form_compare(table: RecurrenceTable,
                        formulas: Mapping[int, Callable[[int], Rat]]) -> list[dict]:
    """Exact comparison of table entries against closed-form coefficients.

    ``formulas`` maps the shift k to a callable n -> expected Fraction.
    Rows where n+k < 0 compare against zero.
    """
    out = []
    for n in sorted(table.rows):
        for k, formula in sorted(formulas.items()):
            got = table.rows[n].get(k, Fraction(0))
            expected = Fraction(0) if n + k < 0 else formula(n)
            out.append({"check": "closed-form", "n": n, "k": k,
                        "ok": bool(got == expected)})
    return out


# -- built-in closed-form tables ------------------------------------------------


def table_formulas_L1I(params: ParamSet) -> dict[int, Callable[[int], Rat]]:
    """Five-term recurrence coefficients for L[1I] with the minimal X, at
    bound parameters; each is a polynomial of degree <= 2 in g."""
    g = params.g
    return {
        2: lambda n: Fraction(1, 2) * (n + 1) * (n + 2),
        1: lambda n: -(n + 1) * (2 * g + (2 * n + 3)),
        0: lambda n: Fraction(1, 8) * ((2 * g + 1) * (6 * g + 13)
                                       + 4 * n * (10 * g + 11)
                                       + 24 * n * n),
        -1: lambda n: -Fraction(1, 2) * (2 * g + (2 * n - 1)) * (2 * g + (2 * n + 3)),
        -2: lambda n: Fraction(1, 8) * (2 * g + (2 * n - 3)) * (2 * g + (2 * n + 3)),
    }


def table_formulas_J1I(params: ParamSet) -> dict[int, Callable[[int], Rat]]:
    """Five-term recurrence coefficients for J[1I] with the minimal X,
    at bound parameters."""
    a, b, g, h = params.a, params.b, params.g, params.h

    def den(n, k, offsets):
        """prod_c (a + 2n + c), the a-factors of the denominator of r_(n,k);
        one that vanishes raises ParameterPole."""
        factors = {"a+2n" + (f"{c:+d}" if c else ""): a + 2 * n + c for c in offsets}
        nonzero_factors(a, n, f"the J[1I] coefficient r_(n,{k})", factors)
        return math.prod(factors.values())

    def r2(n):
        return (_rising(Fraction(n + 1), 2) * (b + 2) * _rising(a + n, 2)
                * (2 * h + 2 * n - 3)) / (den(n, 2, range(4)) * (2 * h + 2 * n + 1))

    def rm2(n):
        return ((b + 2) * (2 * g + 2 * n - 3) * (2 * g + 2 * n + 3)
                * _rising(h + n - Fraction(3, 2), 2)) / (4 * den(n, -2, range(-3, 1)))

    def r1(n):
        return ((n + 1) * (a - 1) * (a + n) * (2 * g + 2 * n + 3)
                * (2 * h + 2 * n - 3)) / den(n, 1, (-1, 0, 1, 3))

    def rm1(n):
        return ((a - 1) * (2 * g + 2 * n - 1) * (2 * g + 2 * n + 3)
                * _rising(h + n - Fraction(3, 2), 2)) / den(n, -1, (-3, -1, 0, 1))

    def r0(n):
        lead = (b + 2) / (4 * den(n, 0, (-2, -1, 1, 2)))
        inner = (-b * (b + 4) * (2 * n * (a + n) - (a - 2) * (a - 1))
                 + (a + 2 * n - 1) * (a + 2 * n + 1)
                 * (2 * n * (a + n) - (a - 2) * (2 * a - 1)))
        return lead * inner

    return {2: r2, 1: r1, 0: r0, -1: rm1, -2: rm2}
