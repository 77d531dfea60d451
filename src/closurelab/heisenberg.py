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
Ladder operators are never materialized as standalone operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .exactalg import EtaPoly, Rat
from .closure import ClosureData, level_coordinates
from .families import DeformedFamily
from .recurrence import recurrence_row
from .spectral import (SpectralData, alpha_conjecture,
                       alpha_values_at_energy, eigen_closed_form, ladder_shift)


class NotProportional(Exception):
    """A ladder image failed to be a scalar multiple of the target
    eigenpolynomial (falsifies the ladder structure for this instance)."""


@dataclass
class LadderAction:
    """Result of one ladder application a^(j) P(n) = coefficient * P(n+shift).

    ``coords`` maps each k with n + k >= 0 to the image's coordinate at
    P(n+k); only k = shift may be nonzero.  ``target`` is P(n+shift), or
    zero below the ground state."""

    j: int
    n: int
    shift: int
    coefficient: Rat
    coords: dict[int, Rat]
    alpha: Rat
    target: EtaPoly

    @property
    def image(self) -> EtaPoly:
        """The image as a polynomial in eta."""
        return self.target * self.coefficient


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
            alphas = alpha_values_at_energy(self.df.fam, self.df.params, n,
                                            self._alpha_list)
            R_vals, R_minus1 = self.cd.values_at(self.df.E(n))
            self._spectral[n] = (eigen_closed_form(R_vals, alphas), R_minus1)
        return self._spectral[n]

    def ad_coords(self, i: int, n: int) -> dict[int, Rat]:
        """Coordinates of ((ad H)^i X) P(n) at P(n+k): r_{n,k} Delta_{n,k}^i,
        read from the family's level store (see closure.level_coordinates)."""
        return {k: r * delta ** i
                for k, r, delta in level_coordinates(self.df, self.X, n)}

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
    """
    K = ctx.K
    if not 1 <= j <= K:
        raise ValueError("need 1 <= j <= K")
    shift = ladder_shift(ctx.L, j)
    sd, R_minus1 = ctx.spectral_at(n)
    alpha_j = sd.alphas[j - 1]
    column = [sd.P[i][j - 1] for i in range(K)]
    scale = sd.P_inv[j - 1][0]
    coords = {}
    for k, r, delta in level_coordinates(ctx.df, ctx.X, n):
        c = sum(r * delta ** i * column[i] for i in range(K))
        if k == 0:
            c += R_minus1 / alpha_j
        coords[k] = c * scale
    target_n = n + shift
    if target_n < 0:
        if any(coords.values()):
            raise NotProportional(f"j={j}, n={n}: expected zero below the ground state")
        return LadderAction(j, n, shift, Fraction(0), coords, alpha_j, EtaPoly())
    if any(c for k, c in coords.items() if k != shift):
        raise NotProportional(f"j={j}, n={n}: image is not proportional to P({target_n})")
    return LadderAction(j, n, shift, coords[shift], coords, alpha_j,
                        ctx.df.P(target_n))


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
    compared coordinate by coordinate.
    """
    out = []
    sd, R_minus1 = ctx.spectral_at(n)
    actions = [ladder_apply(ctx, j, n) for j in range(1, ctx.K + 1)]
    const = R_minus1 / sd.R[0]
    for m in range(m_max + 1):
        lhs = ctx.ad_coords(m, n)
        rhs = {k: sum(alpha ** m * action.coords[k]
                      for alpha, action in zip(sd.alphas, actions))
               for k in lhs}
        if m == 0:
            rhs[0] -= const
        out.append({"check": "time-power", "m": m, "n": n, "ok": lhs == rhs})
    return out
