"""The ParamPoly route for eta data, kept as a reference for the EtaPoly one.

The package holds every P_n, xi, Hamiltonian numerator and X as an
``EtaPoly`` on integer numerators.  These are the former versions of
``families.eigen_residual`` and ``recurrence.expand_in_basis`` on
``ParamPoly``, with one Fraction operation per coefficient, so the tests can
cross-check the integer route against them.
"""

from __future__ import annotations

from fractions import Fraction

from closurelab.exactalg import EtaPoly, ParamPoly, Rat
from closurelab.recurrence import NonzeroRemainder


def eigen_residual(A2: ParamPoly, A1: ParamPoly, A0: ParamPoly, W: ParamPoly,
                   f: ParamPoly, E: Rat) -> ParamPoly:
    """A2*f'' + A1*f' + (A0 + (E/4)*W)*f on ParamPoly."""
    d1 = f.diff("eta")
    return A2 * d1.diff("eta") + A1 * d1 + (A0 + W * (Fraction(E) / 4)) * f


def family_residual(df, n: int, E: Rat | None = None) -> ParamPoly:
    """``eigen_residual`` of the family's H on P(n), at E_n unless E is
    given, with every operand converted to ParamPoly."""
    A2, A1, A0 = (a.param() for a in df.H_cleared)
    return eigen_residual(A2, A1, A0, df.xi.param(), df.P(n).param(),
                          df.E(n) if E is None else E)


def expand_in_basis(df, X: EtaPoly, n: int) -> dict[int, Rat]:
    """X*P(n) = sum_k r_{n,k} P(n+k) by leading-term elimination on
    ParamPoly; NonzeroRemainder when the remainder is not zero."""
    Xp = X.param()
    L = Xp.degree("eta")
    target = Xp * df.P(n).param()
    row: dict[int, Rat] = {}
    for k in range(L, -L - 1, -1):
        m = n + k
        if m < 0:
            row[k] = Fraction(0)
            continue
        Pm = df.P(m).param()
        coeff_target = target.coeffs_in("eta").get(df.ell + m)
        if coeff_target is None:
            row[k] = Fraction(0)
            continue
        lead = Pm.coeffs_in("eta")[df.ell + m].constant_value()
        r = row[k] = coeff_target.constant_value() / lead
        target = target - Pm * r
    if not target.is_zero:
        raise NonzeroRemainder(
            f"{df.label}: X*P({n}) leaves remainder of degree {target.degree('eta')}")
    return row
