"""The Fraction route for the ladder checks, kept as a reference for the
integer one.

``heisenberg._ladder_action`` and ``heisenberg.heisenberg_series_check``
decide the ladder actions and the time-power series on the integer
numerators of ``spectral.SpectralData``.  These are their former versions,
with one Fraction operation per term as the formulas read: the companion
eigenvector column and S^-1[j][0] come from the Fraction matrices P and
P^-1 (``spectral_reference.fraction_views``), and Delta_{n,k}^i and
alpha_j^m are Fraction powers.  The tests cross-check the two routes
against each other.
"""

from __future__ import annotations

from fractions import Fraction

from closurelab.closure import level_coordinates
from closurelab.exactalg import Rat
from closurelab.heisenberg import LadderAction, LadderContext, NotProportional
from closurelab.spectral import ladder_shift
from spectral_reference import fraction_views


def ad_coords(ctx: LadderContext, i: int, n: int) -> dict[int, Rat]:
    """Coordinates of ((ad H)^i X) P(n) at P(n+k): r_{n,k} Delta_{n,k}^i."""
    return {k: r * delta ** i for k, r, delta in level_coordinates(ctx.df, ctx.X, n)}


def ladder_action(ctx: LadderContext, j: int, n: int) -> LadderAction:
    """a^(j) P(n): its coordinate at P(n+k) is
    S^-1[j][0] (sum_i r_{n,k} Delta_{n,k}^i S[i][j] + [k = 0] R_-1(E_n)/alpha_j),
    summed on Fractions; NotProportional as in the package."""
    K = ctx.K
    if not 1 <= j <= K:
        raise ValueError("need 1 <= j <= K")
    shift = ladder_shift(ctx.L, j)
    sd, R_minus1 = ctx.spectral_at(n)
    alpha_j = sd.alphas[j - 1]
    P, P_inv = fraction_views(sd)
    column = [P[i][j - 1] for i in range(K)]
    scale = P_inv[j - 1][0]
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
        return LadderAction(shift, Fraction(0), coords, alpha_j)
    if any(c for k, c in coords.items() if k != shift):
        raise NotProportional(f"j={j}, n={n}: image is not proportional to P({target_n})")
    return LadderAction(shift, coords[shift], coords, alpha_j)


def heisenberg_series_check(ctx: LadderContext, n: int, m_max: int,
                            actions: list[LadderAction] | None = None) -> list[dict]:
    """Time-power coefficients on Fractions: at every P(n+k),
    r_{n,k} Delta_{n,k}^m = sum_j alpha_j^m c_jk, less R_-1/R_0 at k = 0
    for m = 0.  ``actions`` are a^(1..K) P(n); by default this module's
    ``ladder_action``."""
    sd, R_minus1 = ctx.spectral_at(n)
    if actions is None:
        actions = [ladder_action(ctx, j, n) for j in range(1, ctx.K + 1)]
    const = R_minus1 / sd.R[0]
    out = []
    for m in range(m_max + 1):
        lhs = ad_coords(ctx, m, n)
        rhs = {k: sum(alpha ** m * action.coords[k]
                      for alpha, action in zip(sd.alphas, actions))
               for k in lhs}
        if m == 0:
            rhs[0] -= const
        out.append({"check": "time-power", "m": m, "n": n, "ok": lhs == rhs})
    return out
