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

import math
from fractions import Fraction
from typing import Sequence

from .exactalg import Frozen, ParamPoly, Rat, rat
from .families import ParamSet, energy

HALF = Fraction(1, 2)


class DegenerateSpectrum(Exception):
    """Repeated or zero eigenvalue: the closed-form diagonalization assumes
    distinct nonvanishing eigenvalues."""


class SqrtValueMismatch(ArithmeticError):
    """The square-root-free value at E_n does not square to S(E_n): the
    closed form of ``sqrt_value_at_energy`` is wrong for this family."""


class SqrtExpr(Frozen):
    """u + v*sqrt(S) with u, v, S exact polynomials (S shared)."""

    __slots__ = ("u", "v", "square")

    def __init__(self, u: ParamPoly, v: ParamPoly, square: ParamPoly):
        self._set(u=u, v=v, square=square)

    @staticmethod
    def lift(value, square: ParamPoly) -> "SqrtExpr":
        if isinstance(value, SqrtExpr):
            return value
        u = value if isinstance(value, ParamPoly) else ParamPoly.const(value)
        return SqrtExpr(u, ParamPoly.zero(u.vars), square)

    def _check(self, other: "SqrtExpr"):
        if self.square != other.square:
            raise ValueError("mixed square-root symbols")

    def __add__(self, other) -> "SqrtExpr":
        other = SqrtExpr.lift(other, self.square)
        if self.v.is_zero and other.v.is_zero:
            return SqrtExpr(self.u + other.u, self.v, self.square)
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
        if self.v.is_zero and other.v.is_zero:
            return SqrtExpr(self.u * other.u, self.v, self.square)
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
    """The radicand S(z) entering the eigenvalue formulas; symbolic in the
    parameters (``params`` None) for L and J only."""
    z = ParamPoly.var("z")
    if fam == "L":
        return ParamPoly.const(1)
    if fam == "J":
        a = ParamPoly.const(params.a) if params is not None else ParamPoly.var("a")
        return z + a * a
    if fam in ("W", "AW") and params is None:
        raise ValueError("W and AW eigenvalue data need bound parameters")
    if fam == "W":
        return 4 * z + (sum(params.a_list()) - 1) ** 2
    if fam == "AW":
        zp = z + 1 + params.b4 / params.q
        return zp * zp - 4 * params.b4 / params.q
    raise ValueError(f"unknown family {fam!r}")


def sqrt_value_at_energy(params: ParamSet, n: int) -> Rat:
    """The square-root-free value sqrt(S(E_n)) of the family
    ``params.fam``: 2n+a (J), 2n+b1-1 (W), q^-n - b4 q^(n-1) (AW), 1 (L)."""
    fam = params.fam
    if fam == "L":
        return Fraction(1)
    if fam == "J":
        return 2 * n + params.a
    if fam == "W":
        return 2 * n + sum(params.a_list()) - 1
    return params.q ** (-n) - params.b4 * params.q ** (n - 1)


def ladder_shift(L: int, j: int) -> int:
    """The level shift of ladder j = 1..2L: L+1-j on the creation side
    (j <= L), -(j-L) on the annihilation side; alpha_j(E_n) is
    E_(n+shift) - E_n."""
    return L + 1 - j if j <= L else -(j - L)


def alpha_conjecture(fam: str, L: int,
                     params: ParamSet | None = None) -> list[SqrtExpr]:
    """Conjectured eigenvalues alpha_1 > ... > alpha_2L of the companion
    matrix, as exact expressions u + v*sqrt(S) in z (creation side first),
    each family's (u, v) a function of the ladder shift s."""
    if L < 1:
        raise ValueError("need L >= 1")
    S = sqrt_square(fam, params)
    if fam == "AW":
        q, r = params.q, params.r
        zp = ParamPoly.var("z") + 1 + params.b4 / q
    out: list[SqrtExpr] = []
    for j in range(1, 2 * L + 1):
        s = ladder_shift(L, j)
        if fam == "L":
            u, v = ParamPoly.const(4 * s), ParamPoly.zero(("z",))
        elif fam == "J":
            u, v = ParamPoly.const(4 * s * s), ParamPoly.const(4 * s)
        elif fam == "W":
            u, v = ParamPoly.const(s * s), ParamPoly.const(s)
        else:
            # AW: ((q^(-s/2) - q^(s/2))^2 (z + 1 + b4/q) + (q^-s - q^s) sqrt(S)) / 2
            u = zp * ((r ** -s - r ** s) ** 2 * HALF)
            v = ParamPoly.const((q ** -s - q ** s) * HALF)
        out.append(SqrtExpr(u, v, S))
    return out


def alpha_values_at_energy(params: ParamSet, n: int, alphas: list[SqrtExpr],
                           En: Rat) -> list[Rat]:
    """alpha_j(E_n), square-root free, as exact rationals, for ``alphas`` =
    alpha_conjecture(params.fam, L, params) and ``En`` = E_n.  Raises
    SqrtValueMismatch unless s = ``sqrt_value_at_energy`` squares to
    S(E_n)."""
    s = sqrt_value_at_energy(params, n)
    S_at = alphas[0].square.evaluate({"z": En})
    if S_at != s * s:
        raise SqrtValueMismatch(
            f"{params.fam}: sqrt(S(E_{n})) = {s}, but S(E_{n}) = {S_at}")
    return [alpha.eval_at({"z": En}, s) for alpha in alphas]


# The z >= 0 points at which check_alpha_spectrum checks the strict ordering.
ORDERING_GRID = tuple(Fraction(k, 3) for k in range(12))


def check_alpha_spectrum(params: ParamSet, n_range: Sequence[int],
                         alphas: list[SqrtExpr]) -> list[dict]:
    """Spacing identities alpha_j(E_n) = E_(n+shift) - E_n, shift =
    ``ladder_shift(L, j)``, plus the strict ordering
    alpha_1 > ... > alpha_2L at every E_n and on ``ORDERING_GRID``, for
    ``alphas`` = alpha_conjecture(params.fam, L, params).

    Everything is exact; violations come back as report entries.
    """
    out = []
    S = alphas[0].square
    L = len(alphas) // 2
    E: dict[int, Rat] = {}  # E_m for every m read, computed once
    for n in n_range:
        for m in range(n - L, n + L + 1):
            if m not in E:
                E[m] = energy(params, m)
        vals = alpha_values_at_energy(params, n, alphas, E[n])
        for j in range(1, 2 * L + 1):
            expected = E[n + ladder_shift(L, j)] - E[n]
            out.append({
                "check": "spacing", "n": n, "j": j,
                "ok": vals[j - 1] == expected,
            })
        ordering = all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))
        out.append({"check": "ordering-at-energy", "n": n, "ok": ordering})
    diffs = [alphas[i] - alphas[i + 1] for i in range(len(alphas) - 1)]
    for zval in ORDERING_GRID:
        Sv = S.evaluate({"z": zval})
        ok = True
        for diff in diffs:
            sign = sqrt_sign(diff.u.evaluate({"z": zval}),
                             diff.v.evaluate({"z": zval}), Sv)
            if sign <= 0:
                ok = False
        out.append({"check": "ordering-on-grid", "z": str(zval), "ok": ok})
    return out


def pairing_identities(params: ParamSet, alphas: list[SqrtExpr]) -> list[dict]:
    """alpha_j + alpha_{2L+1-j} and alpha_j * alpha_{2L+1-j} equal the
    printed polynomial forms identically in z (square root eliminated), for
    ``alphas`` = alpha_conjecture(params.fam, L, params)."""
    fam = params.fam
    z = ParamPoly.var("z")
    out = []
    L = len(alphas) // 2
    for j in range(1, L + 1):
        m = ladder_shift(L, j)
        x, y = alphas[j - 1], alphas[2 * L - j]
        total = x + y
        prod = x * y
        if fam == "L":
            sum_expected = ParamPoly.const(0)
            prod_expected = ParamPoly.const(-16 * m * m)
        elif fam == "J":
            sum_expected = ParamPoly.const(8 * m * m)
            prod_expected = 16 * m * m * (m * m - z - params.a ** 2)
        elif fam == "W":
            b1 = sum(params.a_list())
            sum_expected = ParamPoly.const(2 * m * m)
            prod_expected = m * m * (m * m - 4 * z - (b1 - 1) ** 2)
        else:
            q, b4 = params.q, params.b4
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


def elementary_symmetric_R(roots: Sequence) -> list:
    """R_i = -[x^i] prod_j (x - root_j) = (-1)^(K-i+1) e_{K-i}(roots) for
    i < K = len(roots): x^K - sum_i R_i x^i is the companion polynomial with
    these roots.  The one roots -> R expansion, in the ring of the roots:
    ints, Fractions, or SqrtExpr for the conjectured eigenvalue lists
    (``closure.conjectured_R`` requires those to come out square-root free).

    The roots are taken in pairs j, K-1-j: the product starts at
    x - r_mid for odd K (1 for even K), and each pair multiplies it by
    x^2 - s x + p, s = r_j + r_{K-1-j}, p = r_j r_{K-1-j}.  The ring is
    commutative, so this is the same product.  A conjectured list is
    ordered creation side first, so each such pair holds the eigenvalues of
    shifts s and -s, which are conjugate: the sum and product of each are
    square-root free, and every later product runs on the square-root-free
    path of ``SqrtExpr``.
    """
    K = len(roots)
    # the product so far, lowest power first, its leading 1 omitted
    tail: list = [-roots[K // 2]] if K % 2 else []
    for x, y in zip(roots[:K // 2], reversed(roots[(K + 1) // 2:])):
        s, p = x + y, x * y
        # times x^2 - s x + p: t_i <- t_{i-2} - s t_{i-1} + p t_i, where the
        # omitted leading t_m = 1 gives the p at x^m and the -s at x^(m+1)
        new = [p * c for c in tail] + [p, -s]
        for i, c in enumerate(tail):
            new[i + 1] -= s * c
            new[i + 2] += c
        tail = new
    return [-c for c in tail]


def root_expansion(roots: Sequence[Rat]) -> tuple[list[int], int]:
    """``elementary_symmetric_R`` of rational roots, expanded on integers:
    (S, d) with R_i = -[x^i] prod_j (x - root_j) = S_i/d^(K-i), K the
    number of roots.

    With d the lcm of the roots' denominators, root_j = sigma_j/d for
    integers sigma_j, and prod_j (x - root_j) = d^-K Qt(y) at y = d x,
    where Qt(y) = prod_j (y - sigma_j) is monic with integer coefficients.
    So [x^i] of the left side is d^(i-K) [y^i] Qt, and S_i = -[y^i] Qt is
    ``elementary_symmetric_R`` on the sigma_j."""
    d = math.lcm(*(s.denominator for s in roots))
    S = elementary_symmetric_R([s.numerator * (d // s.denominator) for s in roots])
    return S, d


# -- companion matrix, closed-form diagonalization -------------------------------


def recursion_vectors(R: Sequence, count: int) -> list[list]:
    """Direct iteration of the commutator-coefficient recursion:
    vec^{[n+1]}_i = R_i * vec^{[n]}_{K-1} + vec^{[n]}_{i-1}, from e_1, in
    the ring of the R_i (Fractions, or the integers of ``closure.level_rows``).
    vec^{[n]} holds the coefficients of x^n mod (x^K - sum_i R_i x^i)."""
    K = len(R)
    vecs = [[1] + [0] * (K - 1)]
    for _ in range(count):
        prev = vecs[-1]
        new = [R[i] * prev[K - 1] for i in range(K)]
        for i in range(1, K):
            new[i] += prev[i - 1]
        vecs.append(new)
    return vecs


class SpectralData(Frozen):
    """Certified eigendata of a companion matrix with distinct nonzero
    rational eigenvalues, held in the integer form that
    ``eigen_closed_form`` checks: alpha_j = B_j/delta, R_i = S_i/rho,
    P_ij = N_ij/u_i and (P^-1)_j0 = V0_j/v (0-based; every divisor
    positive).  ``alphas`` and ``R`` are the supplied Fractions; every
    consumer reads the integer fields, so no Fraction matrix is built.
    N[i][j] is row i, column j."""

    __slots__ = ("alphas", "R", "B", "delta", "S", "rho", "N", "u", "V0", "v")

    def __init__(self, alphas: tuple, R: tuple, B: tuple, delta: int, S: tuple,
                 rho: int, N: tuple, u: tuple, V0: tuple, v: int):
        self._set(alphas=alphas, R=R, B=B, delta=delta, S=S, rho=rho, N=N, u=u,
                  V0=V0, v=v)

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

    Decides, exactly and on integers, that there are K roots, distinct and
    nonzero, and that chi(a_j) = 0 for every j, chi(x) = x^K - sum_i R_i x^i;
    it raises otherwise.  A p_j = a_j p_j, P P^-1 = I, det P and the column
    sum follow from these (proofs below), so none is computed again.

    Integer form (0-based from here on).  delta is the lcm of the
    denominators of the a_j and rho that of the R_i, so a_j = B_j/delta and
    R_i = S_i/rho with integers B_j, S_i.
    - Row scaling: multiplying P_(i-1)j = a_j P_ij - R_i by
      u_(i-1) = rho*delta^(K-i) gives P_ij = N_ij/u_i, u_i = rho*delta^(K-1-i),
      with N_(K-1)j = rho and N_(i-1)j = B_j N_ij - S_i delta^(K-i).
    - Column scaling: E_j = prod_{k != j} (B_j - B_k) is
      delta^(K-1) prod_{k != j} (a_j - a_k), so
      (P^-1)_jk = B_j^k delta^(K-1-k) / E_j.  With v = lcm_j |E_j| and the
      integer c_j = v/E_j, every column of P^-1 is V_.k/v,
      V_jk = c_j B_j^k delta^(K-1-k).
    The returned SpectralData holds B, delta, S, rho, N, u, the column
    V0 = V_.0 and v (the columns V_.k = V0 B^k/delta^k), so the statements
    below are about exactly the data returned.  Each integer equation is
    its Fraction equation times a nonzero integer (rho, delta, u_i, v, E_j
    and B_j are nonzero: the a_j are distinct and nonzero).
    - The check: one more Horner step gives a_j P_0j - R_0 = chi(a_j); times
      rho*delta^K it reads B_j N_0j = S_0 delta^K.
    Write column j as P_i(a_j): P_(K-1)(y) = 1 and
    P_(i-1)(y) = y P_i(y) - R_i, so that y P_0(y) - R_0 = chi(y).  Then:
    - chi = prod_j (x - a_j), being monic of degree K with the K distinct
      roots a_j.  So chi'(a_j) = prod_{k != j} (a_j - a_k), and
      (P^-1)_jk = a_j^k / chi'(a_j).
    - A p_j = a_j p_j, A with ones on the subdiagonal and R in the last
      column.  Row i >= 1 is R_i P_(K-1)(y) + P_(i-1)(y) = y P_i(y), the
      Horner step at y = a_j; row 0 is R_0 = a_j P_0(a_j), which is
      chi(a_j) = 0.  Times rho^2 delta^(K-i), on integers:
      S_0 N_(K-1)j delta^K = rho B_j N_0j and
      S_i N_(K-1)j delta^(K-i) + rho N_(i-1)j = rho B_j N_ij.
    - P P^-1 = I; times u_i v, N V = v diag(u).  The Horner identity
      H(x, y) = sum_k x^k P_k(y) = (chi(x) - chi(y))/(x - y) holds as
      polynomials: in (x - y) H = sum_k x^(k+1) P_k(y) - sum_k x^k y P_k(y)
      put y P_k(y) = P_(k-1)(y) + R_k for k >= 1 and y P_0(y) = chi(y) + R_0;
      the terms x^k P_(k-1)(y) with k < K cancel, which leaves
      x^K P_(K-1)(y) - sum_k R_k x^k - chi(y) = chi(x) - chi(y).  So
      (P^-1 P)_jl = H(a_j, a_l)/chi'(a_j) is
      (chi(a_j) - chi(a_l))/((a_j - a_l) chi'(a_j)) = 0 for j != l, and 1
      for j = l, as H(y, y) = chi'(y).  A left inverse of a square matrix
      is its inverse.
    - det P = prod_{i<j} (a_i - a_j).  By row scaling
      det P = det N / prod_i u_i, and the product is
      vand / delta^(K(K-1)/2) with vand = prod_{i<j} (B_i - B_j), so the
      claim is det N delta^(K(K-1)/2) = vand prod_i u_i.  From
      N V = v diag(u), det N det V = v^K prod_i u_i.  With
      rows j and columns k, V = diag(c) [B_j^k] diag(delta^(K-1-k)), so
      det V = prod_j c_j * prod_{i<j} (B_j - B_i) * delta^(K(K-1)/2), since
      sum_k (K-1-k) = K(K-1)/2, and the Vandermonde product
      prod_{i<j} (B_j - B_i) is (-1)^(K(K-1)/2) vand.  Next
      prod_j c_j = v^K / prod_j E_j, and prod_j E_j takes every pair i < j
      twice, as (B_i - B_j)(B_j - B_i): prod_j E_j = (-1)^(K(K-1)/2) vand^2.
      So det V = v^K delta^(K(K-1)/2) / vand, and dividing
      det N det V = v^K prod_i u_i by it gives the claim (vand != 0, the
      B_j being distinct).
    - The column sum sum_j a_j^-1 (P^-1)_j0 = 1/R_0.  Over the distinct
      roots, 1/chi(x) = sum_j 1/(chi'(a_j) (x - a_j)) (partial fractions),
      and chi(0) = -R_0 = prod_j (-a_j) is nonzero, so at x = 0
      1/R_0 = sum_j 1/(a_j chi'(a_j)).  With a_j^-1 = delta/B_j,
      (P^-1)_j0 = V_j0/v and 1/R_0 = rho/S_0, times S_0 v prod_j B_j:
      S_0 delta sum_j V_j0 prod_{k != j} B_k = rho v prod_j B_j.
    """
    K = len(R)
    alphas = [rat(a) for a in alphas]
    R = [rat(r) for r in R]
    if len(alphas) != K:
        raise ValueError("need K eigenvalues for a K x K matrix")
    if any(a == 0 for a in alphas) or len(set(alphas)) != K:
        raise DegenerateSpectrum("eigenvalues must be distinct and nonzero")
    delta = math.lcm(*(a.denominator for a in alphas))
    B = [a.numerator * (delta // a.denominator) for a in alphas]
    rho = math.lcm(*(r.denominator for r in R))
    S = [r.numerator * (rho // r.denominator) for r in R]
    dpow = [1]
    for _ in range(K):
        dpow.append(dpow[-1] * delta)
    u = [rho * dpow[K - 1 - i] for i in range(K)]
    # N by Horner, column by column; the step below row 0 is the
    # characteristic polynomial at a_j
    N = [[0] * K for _ in range(K)]
    for j, b in enumerate(B):
        val = N[K - 1][j] = rho
        for i in range(K - 1, 0, -1):
            val = N[i - 1][j] = b * val - S[i] * dpow[K - i]
        if b * val != S[0] * dpow[K]:
            raise DegenerateSpectrum("supplied roots do not match the last column")
    E = [math.prod(b - other for k, other in enumerate(B) if k != j)
         for j, b in enumerate(B)]
    v = math.lcm(*E)
    c = [v // e for e in E]
    V0 = [cj * dpow[K - 1] for cj in c]
    return SpectralData(tuple(alphas), tuple(R), tuple(B), delta, tuple(S), rho,
                        tuple(map(tuple, N)), tuple(u), tuple(V0), v)


def spectral_suite(R: Sequence, alphas: Sequence) -> dict:
    """Coherence of one spectrum: K and three verdicts on A^n e_1 for every
    n, A the companion matrix of R: ``recursion_ok`` (the matrix powers
    equal ``recursion_vectors``), ``eigen_ok`` (they equal
    P diag(a^n) P^-1 e_1) and ``initial_ok`` (A^K e_1 = R).  Each holds once
    ``eigen_closed_form`` returns, and it raises DegenerateSpectrum
    otherwise (0-based):
    - initial: A e_i = e_(i+1) for i < K-1 and A e_(K-1) = R, so
      A^n e_0 = e_n for n < K and A^K e_0 = A e_(K-1) = R;
    - recursion: its step vec_i <- R_i vec_(K-1) + vec_(i-1) is vec <- A vec,
      from the same e_0;
    - eigen: A P = P diag(a) and P P^-1 = I were proved, so
      A = P diag(a) P^-1 and A^n = P diag(a^n) P^-1.
    """
    return {"K": eigen_closed_form(R, alphas).K, "recursion_ok": True,
            "eigen_ok": True, "initial_ok": True}
