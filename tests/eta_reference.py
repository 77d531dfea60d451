"""The ParamPoly and EtaPoly-operation routes for eta data, kept as
references for the integer one.

The package holds every P_n, xi, Hamiltonian numerator and X as an
``EtaPoly`` on integer numerators.  These are the former versions of
``families.eigen_residual`` and ``recurrence.expand_in_basis`` on
``ParamPoly``, with one Fraction operation per coefficient; the former
``eigen_residual`` built from EtaPoly operations (``eigen_residual_eta``);
the general seed numerators with p' and q' (``seed_numerators``); and the
square-root route of ``families.degenerate_level``, so the tests can
cross-check the integer route against them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from closurelab.exactalg import EtaPoly, ParamPoly, Rat
from closurelab.families import (ParamSet, c1_poly, c2_poly, seed_data,
                                 virtual_energy)
from closurelab.recurrence import NonzeroRemainder


def eigen_residual(A2: ParamPoly, A1: ParamPoly, A0: ParamPoly, W: ParamPoly,
                   f: ParamPoly, E: Rat) -> ParamPoly:
    """A2*f'' + A1*f' + (A0 + (E/4)*W)*f on ParamPoly."""
    d1 = f.diff("eta")
    return A2 * d1.diff("eta") + A1 * d1 + (A0 + W * (Fraction(E) / 4)) * f


def eigen_residual_eta(A2: EtaPoly, A1: EtaPoly, A0: EtaPoly, W: EtaPoly,
                       f: EtaPoly, E: Rat) -> EtaPoly:
    """The same residual from EtaPoly operations: f', f'' and A0 + W*E/4
    as separate polynomials, summed by ``EtaPoly.dot``."""
    d1 = f.diff()
    return EtaPoly.dot([(A2, d1.diff()), (A1, d1), (A0 + W * (Fraction(E) / 4), f)])


def seed_numerators(fam: str, t: str, params: ParamSet
                    ) -> tuple[EtaPoly, EtaPoly, EtaPoly, EtaPoly]:
    """(A2, A1, A0, W) of ``families.check_seed`` in the general form, with
    p' and q': c2*q^2, 2*c2*p*q + c1*q^2, c2*(p'q - pq' + p^2) + c1*p*q and
    q^2."""
    p, q = seed_data(fam, t, params)
    c2, c1 = c2_poly(fam), c1_poly(fam, params)
    return (c2 * q * q, 2 * c2 * p * q + c1 * q * q,
            c2 * (p.diff() * q - p * q.diff() + p * p) + c1 * p * q, q * q)


def _sqrt_fraction(x: Rat) -> Rat | None:
    num, den = x.numerator, x.denominator
    if num < 0:
        return None
    rn, rd = math.isqrt(num), math.isqrt(den)
    return Fraction(rn, rd) if rn * rn == num and rd * rd == den else None


def degenerate_level(params: ParamSet, t: str, d: int) -> int | None:
    """The least n >= 0 with E_n equal to the virtual energy, from the
    quadratic formula for J: n^2 + a*n - Et/4 = 0, with a rational root
    only when the discriminant a^2 + Et is a rational square."""
    et = virtual_energy(params, t, d)
    if params.fam == "L":
        roots = [et / 4]
    else:
        root = _sqrt_fraction(params.a ** 2 + et)
        roots = [] if root is None else [(-params.a - root) / 2,
                                         (-params.a + root) / 2]
    return next((int(n) for n in roots if n >= 0 and n.denominator == 1), None)


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
