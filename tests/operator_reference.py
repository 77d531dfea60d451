"""Operator-algebra references the tests cross-check the package against.

A family holds its Hamiltonian as the cleared numerators (A2, A1, A0) of
H = -4*xi^-1*(A2*d^2 + A1*d + A0) and decides eigen-equations by one
polynomial residual.  The routes here rebuild H as a ``DiffOp`` with
rational coefficients (``H_tilde``), or build it independently from the
printed potentials and prefactors (``build_H_tilde(route='conjugation')``),
so the tests can compare the two constructions and apply H directly.
``build_H_ansatz`` fits the cleared numerators to the eigen-equations of a
few levels by one exact linear solve, the reference for the closed form
``families.cleared_hamiltonian``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from closurelab.exactalg import (EtaPoly, ParamPoly, Rat, RationalFunc,
                                 solve_linear_exact)
from closurelab.families import (EigenValidationFailed, MultiIndex, ParamSet,
                                 builtin_deformed, c2_poly)
from closurelab.opalg import DiffOp
from eta_reference import integer_residual

HALF = Fraction(1, 2)


class RouteDisagreement(Exception):
    """Two independent Hamiltonian constructions disagree."""


def H_tilde(df) -> DiffOp:
    """The family's Hamiltonian -4*xi^-1*(A2*d^2 + A1*d + A0) as a DiffOp,
    from its cleared numerators ``df.H_cleared``."""
    return DiffOp("eta", {k: RationalFunc(-4 * a.param(), df.xi.param())
                          for k, a in zip((2, 1, 0), df.H_cleared)})


def _at(num: Sequence[int], k: int) -> int:
    return num[k] if 0 <= k < len(num) else 0


def build_H_ansatz(fam: str, xi: EtaPoly, pairs: Sequence[tuple[EtaPoly, Rat]]
                   ) -> tuple[EtaPoly, EtaPoly, EtaPoly]:
    """The cleared numerators (c2*xi, N1, N0) of the unique operator
    H = -4*xi^-1*(c2*xi*d^2 + N1*d + N0) fixed by eigen-equations.

    ``pairs`` supplies (P_n, E_n) for a few low n; the numerator degree
    bounds follow from the structural form of the transformed Hamiltonian
    (N1 <= deg xi + 1, N0 <= deg xi).  Each pair makes the eta-coefficients
    of ``integer_residual(c2*xi, N1, N0, xi, P_n, E_n)`` vanish: the known part
    is the residual with N1 = N0 = 0, and the coefficient of eta^m is linear
    in the unknowns, with [eta^(m-k)]P_n' multiplying the eta^k coefficient
    of N1 and [eta^(m-k)]P_n that of N0.  Each such row is multiplied by the
    nonzero P_n.den * base.den, which keeps its solution set and makes every
    entry an integer.  Raises EigenValidationFailed when no operator of this
    shape exists or when it is not unique.
    """
    zero = EtaPoly()
    A2 = c2_poly(fam) * xi
    d1 = xi.degree + 1
    d0 = d1 - 1
    rows: list[list[int]] = []
    rhs: list[int] = []
    for P, E in pairs:
        base = integer_residual(A2, zero, zero, xi, P, E)
        dP = [k * x for k, x in enumerate(P.num)][1:]  # P_n' over P.den
        top = max(base.degree, d1 + len(dP) - 1, d0 + P.degree)
        for m in range(top + 1):
            rows.append([_at(dP, m - k) * base.den for k in range(d1 + 1)]
                        + [_at(P.num, m - k) * base.den for k in range(d0 + 1)])
            rhs.append(-_at(base.num, m) * P.den)
    sol = solve_linear_exact(rows, rhs)
    if not sol.consistent:
        raise EigenValidationFailed(
            "no operator of the transformed shape matches the eigen-equations")
    if sol.kernel_basis:
        raise EigenValidationFailed(
            "eigen-equations do not pin the operator down (need more levels)")
    return A2, EtaPoly(sol.solution[:d1 + 1]), EtaPoly(sol.solution[d1 + 1:])


def swapped(params: ParamSet) -> ParamSet:
    """J only: exchange g and h (used by the J[1II] conjugation route)."""
    assert params.fam == "J"
    return ParamSet("J", {"g": params.h, "h": params.g})


def gauge_transform(H: DiffOp, m: RationalFunc) -> DiffOp:
    """Conjugate by a prefactor with logarithmic derivative m(var):
    d -> d + m, i.e. rho^{-1} o H o rho for rho with rho'/rho = m."""
    var = H.var
    d_plus_m = DiffOp(var, {1: 1, 0: m})
    out = DiffOp.zero(var)
    for k in sorted(H.coeffs):
        term = DiffOp.identity(var)
        for _ in range(k):
            term = term.compose(d_plus_m)
        out = out + term.scale(H.coeffs[k])
    return out


def _rf(num, den=1) -> RationalFunc:
    return RationalFunc(num if isinstance(num, ParamPoly) else ParamPoly.const(num), den)


def _conjugated_H_laguerre_1I(params: ParamSet) -> DiffOp:
    """Transform of the printed deformed radial potential by its printed
    prefactor, expressed in eta (independent route for L, D={1I})."""
    g = params.g
    eta = ParamPoly.var("eta")
    xi = eta + g + HALF
    f = _rf
    one = ParamPoly.const(1)
    # prefactor log-derivative divided by x:  m = -1 + (g+1)/eta - 2/xi
    m = f(-one) + f((g + 1) * one, eta) + f(-2 * one, xi)
    # potential with the zero-point energy removed
    U = (f(eta) + f(g * (g + 1) * one, eta) + f(-(2 * g + 3) * one)
         + f(4 * one, xi) + f(-4 * (2 * g + 1) * one, xi * xi))
    m_prime = m.diff("eta")
    zero_term = U - m - 2 * f(eta) * m_prime - f(eta) * m * m
    return DiffOp("eta", {
        2: f(-4 * eta),
        1: f(-2 * one) - 4 * f(eta) * m,
        0: zero_term,
    })


def _conjugated_H_jacobi_1I(params: ParamSet) -> DiffOp:
    """Same cross-check for J, D={1I}: transform of the printed trigonometric
    potential by the printed prefactor, expressed in eta = cos 2x."""
    g, h = params.g, params.h
    a = g + h
    b = g - h
    eta = ParamPoly.var("eta")
    xi = ((b + 2) * eta + (a - 1)) * HALF
    xi_p = xi.diff("eta")
    one_m = 1 - eta
    one_p = 1 + eta
    f = _rf
    one = ParamPoly.const(1)
    # A = (log Psi)' * eta'(x), everything reduced to rational functions of eta
    A = (f(-2 * (g + 1) * one_p) + f(2 * (h - 1) * one_m)
         + f(-4 * (1 - eta ** 2) * xi_p, xi))
    log_second = (f(-2 * (g + 1) * one, one_m) + f(-2 * (h - 1) * one, one_p)
                  + f(4 * eta * xi_p, xi) + f(4 * (1 - eta ** 2) * xi_p * xi_p, xi * xi))
    log_sq = (f((g + 1) ** 2 * one_p, one_m) + f((h - 1) ** 2 * one_m, one_p)
              + f(-2 * (g + 1) * (h - 1) * one)
              + f(4 * (g + 1) * one_p * xi_p, xi) + f(-4 * (h - 1) * one_m * xi_p, xi)
              + f(4 * (1 - eta ** 2) * xi_p * xi_p, xi * xi))
    U = (f(2 * g * (g + 1) * one, one_m) + f(2 * (h - 1) * (h - 2) * one, one_p)
         + f(-a * a * one) + f(4 * (a - 1) * one, xi)
         + f(-2 * (2 * g + 1) * (2 * h - 3) * one, xi * xi))
    return DiffOp("eta", {
        2: f(-4 * (1 - eta ** 2)),
        1: f(4 * eta) - 2 * A,
        0: U - log_second - log_sq,
    })


def mirror_diffop(H: DiffOp) -> DiffOp:
    """Conjugation by eta -> -eta: order-k coefficient c(eta) -> (-1)^k c(-eta)."""
    eta = ParamPoly.var("eta")
    out = {}
    for k, f in H.coeffs.items():
        flipped = RationalFunc(f.num.subs({"eta": -eta}), f.den.subs({"eta": -eta}))
        out[k] = flipped * ((-1) ** k)
    return DiffOp(H.var, out)


def build_H_tilde(fam: str, D: MultiIndex | str, params: ParamSet,
                  route: str = "ansatz") -> DiffOp:
    """Similarity-transformed Hamiltonian by the requested route.

    route='ansatz' is the family's closed-form operator (``H_tilde``);
    route='conjugation' transforms the printed potential/prefactor data
    (available for L[1I], J[1I] and J[1II]) and raises RouteDisagreement
    unless it equals the ansatz.
    """
    if isinstance(D, str):
        D = MultiIndex.parse(D)
    H_ansatz = H_tilde(builtin_deformed(fam, D, params))
    if route == "ansatz":
        return H_ansatz
    if route != "conjugation":
        raise ValueError("route must be 'ansatz' or 'conjugation'")
    if fam == "L" and D.entries == ((1, "I"),):
        H_conj = _conjugated_H_laguerre_1I(params)
    elif fam == "J" and D.entries == ((1, "I"),):
        H_conj = _conjugated_H_jacobi_1I(params)
    elif fam == "J" and D.entries == ((1, "II"),):
        H_conj = mirror_diffop(_conjugated_H_jacobi_1I(swapped(params)))
    else:
        raise ValueError(f"no printed prefactor data for {fam}[{D.label()}]")
    if H_conj != H_ansatz:
        raise RouteDisagreement(f"{fam}[{D.label()}]: conjugation and ansatz differ")
    return H_conj
