"""Ladder operators from the exact Heisenberg solution.

The closure data and companion-matrix eigendata assemble, for each frequency
index j, an operator that shifts eigenstates by a fixed amount.  Acting on an
eigenpolynomial every Hamiltonian-dependent scalar collapses to an exact
rational at z = E_n, and every nested commutator image is a combination of
the neighbouring eigenpolynomials with known coordinates
(``closure.level_coordinates``), so the ladder action, the eigenvalue shift,
the recurrence-coefficient match and the time-power expansion of the
Heisenberg solution are all decided exactly on coordinate vectors.  Every
check reads the family's level store alone: the recurrence rows
(``recurrence.recurrence_row``) and the levels whose eigen-equation
``DeformedFamily.check_levels`` has proved, so no check applies H again.
The companion eigendata are read in the certified integer form of
``spectral.SpectralData``, so the ladder actions and the time-power series
are decided on integer numerators, with one Fraction per coordinate.
Ladder operators are never materialized as standalone operators.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable

from .exactalg import EtaPoly, Rat, horner
from .closure import ClosureData, level_coordinates
from .families import DeformedFamily
from .recurrence import recurrence_row
from .spectral import (SpectralData, alpha_conjecture,
                       alpha_values_at_energy, eigen_closed_form, ladder_shift)


class NotProportional(Exception):
    """A ladder image failed to be a scalar multiple of the target
    eigenpolynomial (falsifies the ladder structure for this instance)."""


class LadderAction:
    """Result of one ladder application a^(j) P(n) = coefficient * P(n+shift).

    ``coords`` maps each k with n + k >= 0 to the image's coordinate at
    P(n+k); only k = shift may be nonzero.  Below the ground state
    (n + shift < 0) the image is zero and so is ``coefficient``; the image
    is never formed as a polynomial."""

    __slots__ = ("shift", "coefficient", "coords", "alpha")

    def __init__(self, shift: int, coefficient: Rat, coords: dict[int, Rat],
                 alpha: Rat):
        self.shift = shift
        self.coefficient = coefficient
        self.coords = coords
        self.alpha = alpha


class LadderContext:
    """Shared exact data for ladder checks on one family instance."""

    def __init__(self, df: DeformedFamily, cd: ClosureData, X: EtaPoly):
        self.df = df
        self.cd = cd
        self.X = X
        self.K = cd.K
        self.L = cd.K // 2
        self._spectral: dict[int, tuple[SpectralData, Rat]] = {}
        self._actions: dict[tuple[int, int], LadderAction] = {}
        self._alpha_list = alpha_conjecture(df.fam, self.L, df.params)

    def spectral_at(self, n: int) -> tuple[SpectralData, Rat]:
        """The closed-form eigendata of the companion matrix at E_n, with
        roots alpha_j(E_n) and coefficients R_i(E_n), and R_-1(E_n); the
        closure data are evaluated once per level."""
        if n not in self._spectral:
            En = self.df.E(n)
            alphas = alpha_values_at_energy(self.df.params, n, self._alpha_list, En)
            R_vals, R_minus1 = self.cd.values_at(En)
            self._spectral[n] = (eigen_closed_form(R_vals, alphas), R_minus1)
        return self._spectral[n]

    def r(self, n: int, k: int) -> Rat:
        """The recurrence coefficient r_{n,k} of X P(n) at P(n+k), |k| <= L,
        from the family's row store (zero below the ground state)."""
        return recurrence_row(self.df, self.X, n)[k]


def ladder_apply(ctx: LadderContext, j: int, n: int) -> LadderAction:
    """a^(j) P(n), computed once per context (``_ladder_action``) and kept
    in ``ctx``; a NotProportional is not kept, so it is raised again on
    every call."""
    action = ctx._actions.get((j, n))
    if action is None:
        action = ctx._actions[(j, n)] = _ladder_action(ctx, j, n)
    return action


def _ladder_action(ctx: LadderContext, j: int, n: int) -> LadderAction:
    """a^(j) P(n) evaluated exactly; the image must be r_{n,shift} P(n+shift).

    shift = ``ladder_shift(L, j)``.
    The image is sum_i ((ad H)^i X) P(n) S[i][j] + (R_-1(E_n)/alpha_j) P(n),
    scaled by S^-1[j][0] (S the companion eigenvector matrix at E_n), so its
    coordinate at P(n+k) is
    S^-1[j][0] (sum_i r_{n,k} Delta_{n,k}^i S[i][j] + [k = 0] R_-1(E_n)/alpha_j).
    The P(n+k) are independent, so the image is a multiple of P(n+shift)
    exactly when every other coordinate is zero, and zero exactly when all
    are.  Raises NotProportional when the image is not a scalar multiple of
    the target eigenpolynomial.

    On integers (0-based i and j, the notation of
    ``spectral.eigen_closed_form``): S[i][j] = N_ij/u_i with
    u_i = rho delta^(K-1-i), S^-1[j][0] = V0_j/v and alpha_j = B_j/delta.
    With Delta_{n,k} = p/q in lowest terms (q > 0), every term over the
    common denominator q^(K-1) rho delta^(K-1) gives
    sum_i r Delta^i N_ij/u_i = r T/(q^(K-1) rho delta^(K-1)),
    T = sum_i N_ij (p delta)^i q^(K-1-i)  (``exactalg.horner``),
    since (p/q)^i/delta^(K-1-i) = (p delta)^i q^(K-1-i)/(q^(K-1) delta^(K-1)).
    At k = 0 (Delta = 0, so q = 1) the term R_-1/alpha_j = R_-1 delta/B_j is
    added over the product of the two denominators.  Each coordinate is
    then one Fraction of integers, the same rational as the sum it
    rewrites, so the coordinates are equal to the Fraction route's.
    """
    K = ctx.K
    if not 1 <= j <= K:
        raise ValueError("need 1 <= j <= K")
    shift = ladder_shift(ctx.L, j)
    sd, R_minus1 = ctx.spectral_at(n)
    alpha_j, b, V0 = sd.alphas[j - 1], sd.B[j - 1], sd.V0[j - 1]
    column = [row[j - 1] for row in sd.N]
    base = sd.rho * sd.delta ** (K - 1)
    coords = {}
    for k, r, delta in level_coordinates(ctx.df, ctx.X, n):
        p, q = delta.numerator, delta.denominator
        num = r.numerator * horner(column, p * sd.delta, q)
        den = r.denominator * q ** (K - 1) * base
        if k == 0:
            num = (num * R_minus1.denominator * b
                   + R_minus1.numerator * sd.delta * den)
            den *= R_minus1.denominator * b
        coords[k] = Fraction(num * V0, den * sd.v)
    target_n = n + shift
    if target_n < 0:
        if any(coords.values()):
            raise NotProportional(f"j={j}, n={n}: expected zero below the ground state")
        return LadderAction(shift, Fraction(0), coords, alpha_j)
    if any(c for k, c in coords.items() if k != shift):
        raise NotProportional(f"j={j}, n={n}: image is not proportional to P({target_n})")
    return LadderAction(shift, coords[shift], coords, alpha_j)


def ladder_suite(ctx: LadderContext, n_range: Iterable[int]) -> list[dict]:
    """Ladder exactness: a^(j) P(n) = r_{n,shift} P(n+shift) for every j,
    with the coefficient taken from the recurrence row of level n."""
    out = []
    for n in n_range:
        for j in range(1, ctx.K + 1):
            entry = {"check": "ladder", "j": j, "n": n}
            try:
                action = ladder_apply(ctx, j, n)
            except NotProportional as exc:
                entry["ok"] = False
                entry["error"] = str(exc)
                out.append(entry)
                continue
            expected = ctx.r(n, action.shift)
            entry["shift"] = action.shift
            entry["ok"] = action.coefficient == expected
            out.append(entry)
    return out


def check_r0_relation(ctx: LadderContext, n_range: Iterable[int]) -> list[dict]:
    """-R_-1(E_n) / R_0(E_n) equals the diagonal recurrence coefficient."""
    out = []
    for n in n_range:
        sd, R_minus1 = ctx.spectral_at(n)
        out.append({"check": "diagonal-coefficient", "n": n,
                    "ok": -R_minus1 / sd.R[0] == ctx.r(n, 0)})
    return out


def commutation_check(ctx: LadderContext, n_range: Iterable[int]) -> list[dict]:
    """H (a^(j) P(n)) = (E_n + alpha_j(E_n)) (a^(j) P(n)), exactly, and the
    sign of alpha_j(E_n) matches creation (shift > 0) vs annihilation
    (shift < 0).

    Decided on checked levels, without applying H: ``ladder_apply`` has
    read level n through ``closure.level_coordinates``, so
    ``check_levels(n + L)`` has proved H P(n+s) = E_{n+s} P(n+s) for every
    |s| <= L with n + s >= 0.  A nonzero image is c P(n+shift) with c != 0
    and P(n+shift) != 0, so H(c P(n+shift)) = E_{n+shift} c P(n+shift)
    equals (E_n + alpha_j) c P(n+shift) exactly when
    E_{n+shift} = E_n + alpha_j.  A zero image passes vacuously.
    """
    out = []
    for n in n_range:
        En = ctx.df.E(n)
        for j in range(1, ctx.K + 1):
            action = ladder_apply(ctx, j, n)
            entry = {"check": "eigenvalue-shift", "j": j, "n": n}
            if not action.coefficient:
                entry["ok"] = True
            else:
                sign_ok = (action.alpha > 0) if action.shift > 0 else (action.alpha < 0)
                entry["ok"] = (ctx.df.E(n + action.shift) == En + action.alpha
                               and sign_ok)
            out.append(entry)
    return out


def heisenberg_series_check(ctx: LadderContext, n: int, m_max: int) -> list[dict]:
    """Time-power coefficients of the Heisenberg solution acting on P(n).

    Order m >= 1: (ad H)^m X P(n) = sum_j alpha_j(E_n)^m (a^(j) P(n)).
    Order m = 0: X P(n) = sum_j a^(j) P(n) - R_-1(E_n)/R_0(E_n) P(n).
    Both sides lie in the span of the independent P(n+k), so they are
    compared coordinate by coordinate: at P(n+k) the left side is
    r_{n,k} Delta_{n,k}^m (``closure.level_coordinates``) and the right side
    sum_j alpha_j^m c_jk, c_jk the coordinate of a^(j) P(n) at P(n+k).

    Order m >= 1 on integers: with r_{n,k} = r_num/r_den,
    Delta_{n,k} = p/q, alpha_j = B_j/delta (``spectral.SpectralData``) and
    level n's coordinates over one denominator per k, c_jk = C_jk/D_k
    (D_k the lcm of their denominators), the equation
    r_num p^m/(r_den q^m) = sum_j B_j^m C_jk/(delta^m D_k), multiplied by
    the nonzero integer r_den q^m delta^m D_k, reads
    r_num p^m delta^m D_k = r_den q^m sum_j B_j^m C_jk,
    which holds exactly when the rational one does.  B_j^m, delta^m, p^m
    and q^m are carried from m to m + 1 by one product each.
    """
    out = []
    sd, R_minus1 = ctx.spectral_at(n)
    actions = [ladder_apply(ctx, j, n) for j in range(1, ctx.K + 1)]
    levels = level_coordinates(ctx.df, ctx.X, n)
    lhs = {k: r for k, r, _ in levels}
    rhs = {k: sum(action.coords[k] for action in actions) for k in lhs}
    rhs[0] -= R_minus1 / sd.R[0]
    out.append({"check": "time-power", "m": 0, "n": n, "ok": lhs == rhs})
    rows = []  # per k: [r_num D_k p^m, r_den q^m, p, q, C_.k]
    for k, r, delta in levels:
        cs = [action.coords[k] for action in actions]
        D = math.lcm(*(c.denominator for c in cs))
        C = [c.numerator * (D // c.denominator) for c in cs]
        p, q = delta.numerator, delta.denominator
        rows.append([r.numerator * D * p, r.denominator * q, p, q, C])
    Bm, dm = list(sd.B), sd.delta
    for m in range(1, m_max + 1):
        ok = all(left * dm == right * sum(map(mul, Bm, C))
                 for left, right, _, _, C in rows)
        out.append({"check": "time-power", "m": m, "n": n, "ok": ok})
        for row in rows:
            row[0] *= row[2]
            row[1] *= row[3]
        Bm = [x * b for x, b in zip(Bm, sd.B)]
        dm *= sd.delta
    return out
