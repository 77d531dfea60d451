"""Spectral data of the companion-type matrix: closed-form eigenvectors and
inverse, the conjectured eigenvalue lists for the four families, exact
ordering/spacing checks, and the pairing identities that make the
elementary-symmetric expansions polynomial.

Square roots never become floats: an expression u(z) + v(z)*s carries an
opaque symbol s with the single rewrite s^2 -> S(z).  Signs of such
expressions at rational points are decided exactly by comparing u^2 with
v^2*S.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactalg import ParamPoly, Rat, rat
from .families import ParamSet, energy

HALF = Fraction(1, 2)


class DegenerateSpectrum(Exception):
    """Repeated or zero eigenvalue: the closed-form diagonalization assumes
    distinct nonvanishing eigenvalues."""


@dataclass(frozen=True)
class SqrtExpr:
    """u + v*sqrt(S) with u, v, S exact polynomials (S shared)."""

    u: ParamPoly
    v: ParamPoly
    square: ParamPoly

    @staticmethod
    def lift(value, square: ParamPoly) -> "SqrtExpr":
        if isinstance(value, SqrtExpr):
            return value
        u = value if isinstance(value, ParamPoly) else ParamPoly.const(rat(value))
        return SqrtExpr(u, ParamPoly.zero(u.vars), square)

    def _check(self, other: "SqrtExpr"):
        if self.square != other.square:
            raise ValueError("mixed square-root symbols")

    def __add__(self, other) -> "SqrtExpr":
        other = SqrtExpr.lift(other, self.square)
        return SqrtExpr(self.u + other.u, self.v + other.v, self.square)

    __radd__ = __add__

    def __neg__(self) -> "SqrtExpr":
        return SqrtExpr(-self.u, -self.v, self.square)

    def __sub__(self, other) -> "SqrtExpr":
        return self + (-SqrtExpr.lift(other, self.square))

    def __rsub__(self, other) -> "SqrtExpr":
        return SqrtExpr.lift(other, self.square) - self

    def __mul__(self, other) -> "SqrtExpr":
        other = SqrtExpr.lift(other, self.square)
        self._check(other)
        return SqrtExpr(self.u * other.u + self.v * other.v * self.square,
                        self.u * other.v + self.v * other.u, self.square)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "SqrtExpr":
        if n < 0:
            raise ValueError("negative power")
        out = SqrtExpr.lift(1, self.square)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        other = SqrtExpr.lift(other, self.square)
        return self.u == other.u and self.v == other.v

    @property
    def is_sqrt_free(self) -> bool:
        return self.v.is_zero

    def poly_part(self) -> ParamPoly:
        if not self.is_sqrt_free:
            raise ValueError(f"expression still carries the square root: {self}")
        return self.u

    def eval_at(self, bindings, s_value: Rat) -> Rat:
        """Exact value with z (and parameters) bound and sqrt(S) = s_value;
        the caller must have verified s_value^2 = S at the same binding."""
        return self.u.evaluate(bindings) + self.v.evaluate(bindings) * s_value

    def __repr__(self) -> str:
        return f"({self.u}) + ({self.v})*sqrt({self.square})"


def sqrt_sign(u: Rat, v: Rat, S: Rat) -> int:
    """Exact sign of u + v*sqrt(S) for rational u, v and S >= 0."""
    if S < 0:
        raise ValueError("negative radicand")
    if v == 0:
        return (u > 0) - (u < 0)
    if u == 0:
        return (v > 0) - (v < 0) if S > 0 else 0
    if u > 0 and v > 0:
        return 1
    if u < 0 and v < 0:
        return -1
    # opposite signs: compare u^2 with v^2 * S
    lhs, rhs = u * u, v * v * S
    if lhs == rhs:
        return 0
    bigger_u = lhs > rhs
    return (1 if u > 0 else -1) if bigger_u else (1 if v > 0 else -1)


# -- conjectured eigenvalue lists ------------------------------------------------


def sqrt_square(fam: str, params: ParamSet | None = None) -> ParamPoly:
    """The radicand S(z) entering the eigenvalue formulas."""
    z = ParamPoly.var("z")
    if fam == "L":
        return ParamPoly.const(1)
    if fam == "J":
        a = ParamPoly.const(params.a) if params is not None else ParamPoly.var("a")
        return z + a * a
    if fam == "W":
        b1 = (ParamPoly.const(sum(params.a_list())) if params is not None
              else ParamPoly.var("b1"))
        return 4 * z + (b1 - 1) ** 2
    if fam == "AW":
        if params is None:
            raise ValueError("AW eigenvalue data needs bound q and b4")
        d = params.derived()
        zp = z + 1 + d["b4"] / d["q"]
        return zp * zp - 4 * d["b4"] / d["q"]
    raise ValueError(f"unknown family {fam!r}")


def sqrt_value_at_energy(fam: str, params: ParamSet, n: int) -> Rat:
    """The square-root-free value sqrt(S(E_n)): 2n+a (J), 2n+b1-1 (W),
    q^-n - b4 q^(n-1) (AW), 1 (L)."""
    if fam == "L":
        return Fraction(1)
    if fam == "J":
        return 2 * n + params.a
    if fam == "W":
        return 2 * n + sum(params.a_list()) - 1
    d = params.derived()
    return params.q ** (-n) - d["b4"] * params.q ** (n - 1)


def alpha_conjecture(fam: str, L: int,
                     params: ParamSet | None = None) -> list[SqrtExpr]:
    """Conjectured eigenvalues alpha_1 > ... > alpha_2L of the companion
    matrix, as exact expressions in z (creation side first)."""
    if L < 1:
        raise ValueError("need L >= 1")
    S = sqrt_square(fam, params)
    z = ParamPoly.var("z")
    zero = ParamPoly.zero(("z",))
    out: list[SqrtExpr] = []
    if fam == "L":
        for j in range(1, 2 * L + 1):
            m = L + 1 - j if j <= L else -(j - L)
            out.append(SqrtExpr(ParamPoly.const(4 * m), zero, S))
        return out
    if fam == "J":
        for j in range(1, 2 * L + 1):
            m = L + 1 - j if j <= L else j - L
            sign = 1 if j <= L else -1
            out.append(SqrtExpr(ParamPoly.const(4 * m * m),
                                ParamPoly.const(4 * m * sign), S))
        return out
    if fam == "W":
        for j in range(1, 2 * L + 1):
            m = L + 1 - j if j <= L else j - L
            sign = 1 if j <= L else -1
            out.append(SqrtExpr(ParamPoly.const(m * m),
                                ParamPoly.const(m * sign), S))
        return out
    # AW: alpha_j = ((q^(-m/2) - q^(m/2))^2 (z + 1 + b4/q) +- (q^-m - q^m) sqrt(S)) / 2
    d = params.derived()
    q, b4 = d["q"], d["b4"]
    zp = z + 1 + b4 / q
    r = params.r
    for j in range(1, 2 * L + 1):
        m = L + 1 - j if j <= L else j - L
        sign = 1 if j <= L else -1
        c = (r ** (-m) - r ** m) ** 2
        w = q ** (-m) - q ** m
        out.append(SqrtExpr(zp * (c * HALF), ParamPoly.const(w * sign * HALF), S))
    return out


def alpha_values_at_energy(fam: str, L: int, params: ParamSet,
                           n: int) -> list[Rat]:
    """alpha_j(E_n), square-root free, as exact rationals."""
    alphas = alpha_conjecture(fam, L, params)
    En = energy(params, n)
    s = sqrt_value_at_energy(fam, params, n)
    S = sqrt_square(fam, params)
    assert S.evaluate({"z": En}) == s * s, "square-root-free value check failed"
    return [alpha.eval_at({"z": En}, s) for alpha in alphas]


def check_alpha_spectrum(fam: str, L: int, params: ParamSet,
                         n_range: Sequence[int],
                         z_grid: Sequence[Rat] | None = None) -> list[dict]:
    """Spacing identities alpha_j(E_n) = E_{n+L+1-j} - E_n (creation side)
    and E_{n-(j-L)} - E_n (annihilation side), plus the strict ordering
    alpha_1 > ... > alpha_2L at every E_n and on a z >= 0 grid.

    Everything is exact; violations come back as report entries.
    """
    out = []
    alphas = alpha_conjecture(fam, L, params)
    S = sqrt_square(fam, params)
    for n in n_range:
        vals = alpha_values_at_energy(fam, L, params, n)
        En = energy(params, n)
        for j in range(1, 2 * L + 1):
            target = n + L + 1 - j if j <= L else n - (j - L)
            expected = energy(params, target) - En
            out.append({
                "check": "spacing", "n": n, "j": j,
                "ok": vals[j - 1] == expected,
            })
        ordering = all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))
        out.append({"check": "ordering-at-energy", "n": n, "ok": ordering})
    if z_grid is None:
        z_grid = [Fraction(k, 3) for k in range(12)]
    for zval in z_grid:
        Sv = S.evaluate({"z": zval})
        ok = True
        for i in range(len(alphas) - 1):
            diff = alphas[i] - alphas[i + 1]
            sign = sqrt_sign(diff.u.evaluate({"z": zval}),
                             diff.v.evaluate({"z": zval}), Sv)
            if sign <= 0:
                ok = False
        out.append({"check": "ordering-on-grid", "z": str(zval), "ok": ok})
    return out


def pairing_identities(fam: str, L: int,
                       params: ParamSet | None = None) -> list[dict]:
    """alpha_j + alpha_{2L+1-j} and alpha_j * alpha_{2L+1-j} equal the
    printed polynomial forms identically in z (square root eliminated)."""
    alphas = alpha_conjecture(fam, L, params)
    S = sqrt_square(fam, params)
    z = ParamPoly.var("z")
    out = []
    for j in range(1, L + 1):
        m = L + 1 - j
        x, y = alphas[j - 1], alphas[2 * L - j]
        total = x + y
        prod = x * y
        if fam == "L":
            sum_expected = ParamPoly.const(0)
            prod_expected = ParamPoly.const(-16 * m * m)
        elif fam == "J":
            a = ParamPoly.const(params.a) if params is not None else ParamPoly.var("a")
            sum_expected = ParamPoly.const(8 * m * m)
            prod_expected = 16 * m * m * (ParamPoly.const(m * m) - z - a * a)
        elif fam == "W":
            b1 = (ParamPoly.const(sum(params.a_list())) if params is not None
                  else ParamPoly.var("b1"))
            sum_expected = ParamPoly.const(2 * m * m)
            prod_expected = m * m * (ParamPoly.const(m * m) - 4 * z - (b1 - 1) ** 2)
        else:
            d = params.derived()
            q, b4 = d["q"], d["b4"]
            r = params.r
            zp = z + 1 + b4 / q
            c_minus = (r ** (-m) - r ** m) ** 2
            c_plus = (r ** (-m) + r ** m) ** 2
            sum_expected = zp * c_minus
            prod_expected = c_minus * (ParamPoly.const(c_plus * b4 / q) - zp * zp)
        ok_sum = total.is_sqrt_free and total.poly_part() == sum_expected
        ok_prod = prod.is_sqrt_free and prod.poly_part() == prod_expected
        out.append({"check": "pairing-sum", "j": j, "ok": bool(ok_sum)})
        out.append({"check": "pairing-product", "j": j, "ok": bool(ok_prod)})
    return out


def elementary_symmetric_R(alphas: list[SqrtExpr]) -> list[ParamPoly]:
    """R_i = (-1)^(i+1) e_{K-i}(alpha), expanded to genuine polynomials in z.

    Computed from prod_j (x - alpha_j): the coefficient of x^i is
    (-1)^(K-i) e_{K-i}, so R_i = -[x^i] prod (x - alpha_j).  Every
    coefficient must come out square-root free.
    """
    K = len(alphas)
    S = alphas[0].square
    # coefficients of prod (x - alpha_j), low to high in x
    coeffs: list[SqrtExpr] = [SqrtExpr.lift(1, S)]
    for alpha in alphas:
        new = [SqrtExpr.lift(0, S) for _ in range(len(coeffs) + 1)]
        for i, c in enumerate(coeffs):
            new[i + 1] = new[i + 1] + c
            new[i] = new[i] - c * alpha
        coeffs = new
    out = []
    for i in range(K):
        ci = coeffs[i]
        if not ci.is_sqrt_free:
            raise ValueError(f"char-poly coefficient of x^{i} is not square-root free")
        out.append(-ci.poly_part())
    return out


# -- companion matrix, closed-form diagonalization -------------------------------


@dataclass(frozen=True)
class CompanionMatrix:
    """K x K matrix with ones on the subdiagonal and R_0..R_{K-1} in the
    last column; its characteristic polynomial is x^K - sum_i R_i x^i."""

    R: tuple

    @property
    def K(self) -> int:
        return len(self.R)

    def matvec(self, vec: Sequence) -> list:
        K = self.K
        out = [self.R[i] * vec[K - 1] for i in range(K)]
        for i in range(1, K):
            out[i] = out[i] + vec[i - 1]
        return out

    def power_vectors(self, start: Sequence, count: int) -> list[list]:
        """[start, A start, A^2 start, ...] with count+1 entries."""
        out = [list(start)]
        for _ in range(count):
            out.append(self.matvec(out[-1]))
        return out

    def char_poly_at(self, x):
        acc = x ** self.K
        for i, r in enumerate(self.R):
            acc = acc - r * x ** i
        return acc


def recursion_vectors(R: Sequence, count: int) -> list[list]:
    """Direct iteration of the commutator-coefficient recursion:
    vec^{[n+1]}_i = R_i * vec^{[n]}_{K-1} + vec^{[n]}_{i-1}, from e_1."""
    K = len(R)
    vecs = [[Fraction(1)] + [Fraction(0)] * (K - 1)]
    for _ in range(count):
        prev = vecs[-1]
        new = [R[i] * prev[K - 1] for i in range(K)]
        for i in range(1, K):
            new[i] += prev[i - 1]
        vecs.append(new)
    return vecs


@dataclass(frozen=True)
class SpectralData:
    """Closed-form eigendata of a companion matrix with distinct nonzero
    rational eigenvalues."""

    alphas: tuple
    R: tuple
    P: tuple          # P[i][j], 0-based
    P_inv: tuple      # P_inv[j][i]

    @property
    def K(self) -> int:
        return len(self.alphas)


def eigen_closed_form(R: Sequence, alphas: Sequence) -> SpectralData:
    """Closed-form eigenvectors p_ij = a_j^(K-i) - sum_k R_{K-k} a_j^(K-i-k)
    and inverse (P^-1)_ji = a_j^(i-1) / prod_{k != j} (a_j - a_k).

    Each column is the closed form expanded by Horner's rule from the
    bottom row (rows 1-based, R 0-based): p_Kj = a_j^0 = 1, and splitting
    off the k = K-i+1 term of the sum gives
    p_(i-1)j = a_j^(K-i+1) - sum_{k<=K-i} R_{K-k} a_j^(K-i+1-k) - R_(i-1)
             = a_j p_ij - R_(i-1).
    Each row of P^-1 is a running product of powers of a_j.

    Validates A p_j = alpha_j p_j, P P^-1 = I, det P = Vandermonde product
    and sum_j alpha_j^-1 (P^-1)_j1 = R_0^-1, all exactly.
    """
    K = len(R)
    alphas = [rat(a) for a in alphas]
    R = [rat(r) for r in R]
    if len(alphas) != K:
        raise ValueError("need K eigenvalues for a K x K matrix")
    if any(a == 0 for a in alphas) or len(set(alphas)) != K:
        raise DegenerateSpectrum("eigenvalues must be distinct and nonzero")
    A = CompanionMatrix(tuple(R))
    # characteristic polynomial must match prod (x - alpha_j)
    for a in alphas:
        if A.char_poly_at(a) != 0:
            raise DegenerateSpectrum("supplied roots do not match the last column")
    P = [[Fraction(0)] * K for _ in range(K)]
    for j, a in enumerate(alphas):
        val = Fraction(1)
        P[K - 1][j] = val
        for i in range(K - 1, 0, -1):
            val = a * val - R[i]
            P[i - 1][j] = val
    for j, a in enumerate(alphas):
        col = [P[i][j] for i in range(K)]
        if A.matvec(col) != [a * x for x in col]:
            raise DegenerateSpectrum("closed-form eigenvector check failed")
    P_inv = [[Fraction(0)] * K for _ in range(K)]
    for j, a in enumerate(alphas):
        denom = Fraction(1)
        for k, other in enumerate(alphas):
            if k != j:
                denom *= a - other
        val = 1 / denom
        for i in range(K):
            P_inv[j][i] = val
            val *= a
    # P * P_inv = I
    for i in range(K):
        for k in range(K):
            val = sum(P[i][j] * P_inv[j][k] for j in range(K))
            if val != (1 if i == k else 0):
                raise DegenerateSpectrum("closed-form inverse check failed")
    det = _det_fraction([row[:] for row in P])
    vand = Fraction(1)
    for i in range(K):
        for j in range(i + 1, K):
            vand *= alphas[i] - alphas[j]
    if det != vand:
        raise DegenerateSpectrum("determinant is not the Vandermonde product")
    s = sum((1 / a) * P_inv[j][0] for j, a in enumerate(alphas))
    if s != 1 / R[0]:
        raise DegenerateSpectrum("inverse-eigenvalue column sum check failed")
    return SpectralData(tuple(alphas), tuple(R), tuple(map(tuple, P)),
                        tuple(map(tuple, P_inv)))


def _det_fraction(m: list[list[Fraction]]) -> Fraction:
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


def spectral_suite(R: Sequence, alphas: Sequence, extra_powers: int = 3) -> dict:
    """Full coherence check of one spectrum: closed-form eigendata plus the
    agreement of A^n e_1 computed three ways (matrix powers, the direct
    recursion, and the eigen-decomposition) for n <= K + extra_powers."""
    sd = eigen_closed_form(R, alphas)
    K = sd.K
    count = K + extra_powers
    A = CompanionMatrix(sd.R)
    e1 = [Fraction(1)] + [Fraction(0)] * (K - 1)
    by_matrix = A.power_vectors(e1, count)
    by_recursion = recursion_vectors(sd.R, count)
    ok_rec = by_matrix == by_recursion
    ok_eig = True
    # w_j = alpha_j^n (P^-1)_j1, carried from n to n + 1
    w = [sd.P_inv[j][0] for j in range(K)]
    for n in range(count + 1):
        recon = [sum(sd.P[i][j] * w[j] for j in range(K)) for i in range(K)]
        if recon != by_matrix[n]:
            ok_eig = False
        w = [wj * a for wj, a in zip(w, sd.alphas)]
    # initial conditions: A^K e_1 must reproduce the last column R
    ok_init = by_matrix[K] == list(sd.R)
    return {"K": K, "recursion_ok": ok_rec, "eigen_ok": ok_eig,
            "initial_ok": ok_init, "data": sd}
