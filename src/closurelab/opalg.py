"""Exact differential-operator algebra in the polynomial variable.

A DiffOp is sum_k f_k(eta) d^k with RationalFunc coefficients; composition
uses the generalized Leibniz rule and reduces every coefficient after each
step, so operator equality is decided coefficient-wise (never by sampling).
No production path builds a DiffOp: a family holds its Hamiltonian as
cleared numerators and checks eigen-equations by one polynomial residual
(``families.eigen_residual``).  This module is the reference algebra the
tests cross-check against: composition, ``power``, ``right_mul_poly_of_H``,
the cleared-form action ``apply_poly`` (polynomial products and a single
exact division) and the RationalFunc route ``apply``.

Operators are immutable; all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Mapping

from .exactalg import (Frozen, ParamPoly, RationalFunc, _coerce_rf,
                       poly_div_exact, poly_gcd_univar)

class AlgebraMismatch(Exception):
    """Operands live in different operator algebras."""


class NonPolynomialImage(Exception):
    """An image that must be polynomial has a nonzero remainder
    (wrong operator or wrong family data)."""


class DiffOp(Frozen):
    """Differential operator sum_k f_k(var) d^k with RationalFunc
    coefficients (ints, Fractions and ParamPolys are coerced).

    The cleared form (``cleared``) is computed on first use and kept.
    """

    __slots__ = ("var", "coeffs", "_cleared")

    def __init__(self, var: str, coeffs: Mapping[int, object]):
        cleaned = {}
        for k, f in coeffs.items():
            if k < 0:
                raise ValueError("negative derivative order")
            rf = _coerce_rf(f)
            if not rf.is_zero:
                cleaned[k] = rf
        self._set(var=var, coeffs=cleaned, _cleared=None)

    @staticmethod
    def zero(var: str) -> "DiffOp":
        return DiffOp(var, {})

    @staticmethod
    def identity(var: str) -> "DiffOp":
        return DiffOp(var, {0: 1})

    @staticmethod
    def mul_by(poly, var: str = "eta") -> "DiffOp":
        """Multiplication operator p(var)*."""
        return DiffOp(var, {0: poly})

    @property
    def order(self) -> int:
        return max(self.coeffs) if self.coeffs else -1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def term_count(self) -> int:
        return sum(len(f.num.terms) + len(f.den.terms) for f in self.coeffs.values())

    def _check(self, other: "DiffOp"):
        if not isinstance(other, DiffOp) or other.var != self.var:
            raise AlgebraMismatch("DiffOp operands must share the working variable")

    def __add__(self, other) -> "DiffOp":
        if isinstance(other, (int, Fraction, ParamPoly, RationalFunc)):
            other = DiffOp(self.var, {0: other})
        self._check(other)
        coeffs = dict(self.coeffs)
        for k, f in other.coeffs.items():
            coeffs[k] = coeffs[k] + f if k in coeffs else f
        return DiffOp(self.var, coeffs)

    def __neg__(self) -> "DiffOp":
        return DiffOp(self.var, {k: -f for k, f in self.coeffs.items()})

    def __sub__(self, other) -> "DiffOp":
        if isinstance(other, (int, Fraction, ParamPoly, RationalFunc)):
            other = DiffOp(self.var, {0: other})
        return self + (-other)

    def scale(self, c) -> "DiffOp":
        c = _coerce_rf(c)
        return DiffOp(self.var, {k: f * c for k, f in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOp):
            return NotImplemented
        if self.var != other.var:
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        zero = RationalFunc(ParamPoly.zero())
        return all(self.coeffs.get(k, zero) == other.coeffs.get(k, zero) for k in keys)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs, reverse=True):
            f = self.coeffs[k]
            d = "" if k == 0 else ("D" if k == 1 else f"D^{k}")
            parts.append(f"({f}){d}" if d else f"({f})")
        return " + ".join(parts)

    # -- the algebra ---------------------------------------------------------

    def compose(self, other: "DiffOp") -> "DiffOp":
        """Operator product self o other (other acts first).

        d^k o f = sum_j C(k,j) f^(j) d^(k-j)  (generalized Leibniz rule).
        """
        self._check(other)
        var = self.var
        out: dict[int, RationalFunc] = {}
        # cache derivatives of each coefficient of `other`
        dcache: dict[int, list[RationalFunc]] = {}
        for kb, fb in other.coeffs.items():
            dcache[kb] = [fb]
        for ka, fa in self.coeffs.items():
            for kb, fb in other.coeffs.items():
                derivs = dcache[kb]
                while len(derivs) <= ka:
                    derivs.append(derivs[-1].diff(var))
                for j in range(ka + 1):
                    fj = derivs[j]
                    if fj.is_zero:
                        continue
                    key = ka - j + kb
                    term = fa * fj * comb(ka, j)
                    cur = out.get(key)
                    out[key] = term if cur is None else cur + term
        return DiffOp(var, out)

    def commutator(self, other: "DiffOp") -> "DiffOp":
        return self.compose(other) - other.compose(self)

    def power(self, n: int, cache: dict | None = None) -> "DiffOp":
        """n-th operator power with an optional per-task cache."""
        if n < 0:
            raise ValueError("negative operator power")
        if cache is not None and n in cache:
            return cache[n]
        if n == 0:
            result = DiffOp.identity(self.var)
        else:
            result = self.compose(self.power(n - 1, cache))
        if cache is not None:
            cache[n] = result
        return result

    def apply(self, p) -> RationalFunc:
        """Image of a polynomial (or rational function) of the working
        variable as a reduced RationalFunc: the reference route for
        ``apply_poly``."""
        if isinstance(p, ParamPoly):
            p = RationalFunc(p)
        out = RationalFunc(ParamPoly.zero())
        deriv = p
        last = 0
        for k in sorted(self.coeffs):
            for _ in range(k - last):
                deriv = deriv.diff(self.var)
            last = k
            out = out + self.coeffs[k] * deriv
        return out

    def cleared(self) -> tuple[ParamPoly, dict[int, ParamPoly]]:
        """(D, {k: N_k}) with self = D^-1 sum_k N_k d^k and polynomial N_k.

        D is a common multiple of the coefficient denominators, their lcm
        when all of them are univariate in one variable; any common multiple
        serves ``apply_poly``.  Computed once.
        """
        if self._cleared is None:
            D = ParamPoly.const(1)
            for f in self.coeffs.values():
                if poly_div_exact(D, f.den) is not None:
                    continue
                used = set(D.used_vars()) | set(f.den.used_vars())
                if D.is_constant() or len(used) > 1:
                    D = D * f.den
                else:
                    gcd = poly_gcd_univar(D, f.den, used.pop())
                    D = D * poly_div_exact(f.den, gcd)
            nums = {k: f.num * poly_div_exact(D, f.den)
                    for k, f in self.coeffs.items()}
            object.__setattr__(self, "_cleared", (D, nums))
        return self._cleared

    def apply_cleared(self, p: ParamPoly) -> ParamPoly:
        """D * (self p) = sum_k N_k p^(k), a polynomial for every polynomial p
        (D and N_k from ``cleared``)."""
        _, nums = self.cleared()
        out = ParamPoly.zero((self.var,))
        deriv = p
        last = 0
        for k in sorted(nums):
            for _ in range(k - last):
                deriv = deriv.diff(self.var)
            last = k
            out = out + nums[k] * deriv
        return out

    def apply_poly(self, p: ParamPoly) -> ParamPoly:
        """Image of a polynomial that must itself be a polynomial.

        Computed as (sum_k N_k p^(k)) / D with one exact division.  Exact for
        any common multiple D of the coefficient denominators: the image q
        is a polynomial exactly when sum_k N_k p^(k) = D q, that is exactly
        when D divides it, and the quotient is then q.  Raises
        NonPolynomialImage otherwise.
        """
        D, _ = self.cleared()
        num = self.apply_cleared(p)
        q = poly_div_exact(num, D)
        if q is None:
            raise NonPolynomialImage(f"not a polynomial: ({num})/({D})")
        return q


def right_mul_poly_of_H(op: DiffOp, R: ParamPoly, H: DiffOp,
                        z_var: str = "z", cache: dict | None = None) -> DiffOp:
    """op o R(H) with R a polynomial in ``z_var``; H powers are cached."""
    if cache is None:
        cache = {}
    out = DiffOp.zero(op.var)
    for k, coeff in R.coeffs_in(z_var).items():
        if coeff.is_zero:
            continue
        term = op.compose(H.power(k, cache))
        out = out + term.scale(coeff)
    return out

