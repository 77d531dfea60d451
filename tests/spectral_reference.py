"""Fraction-arithmetic companion-matrix certificate the tests cross-check
the package against.

``spectral.eigen_closed_form`` decides only that the roots are distinct
and nonzero and that chi(a_j) = 0, on integer numerators; its docstring
derives the eigenvector equations, P*P^-1 = I, the Lagrange form, the
determinant and the column sum from that, and
``spectral.spectral_suite``'s docstring the three A^n e_1 verdicts.  The
package builds neither P nor P^-1.  The eigenvector route here builds
both and checks every one of those identities with one ``Fraction``
operation per step, as the formulas read: the characteristic polynomial
through powers, the eigenvector check through a matrix-vector product,
P*P^-1 and the three-way A^n e_1 agreement as rational sums, and the
determinant by rational Gaussian elimination.  Both must return equal
eigendata and raise the same exceptions.  ``integer_eigen_form`` is the
same route on integer numerators, and Bareiss's fraction-free elimination
(``_det_bareiss``) a second, integer route to the determinant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from closurelab.exactalg import rat
from closurelab.spectral import DegenerateSpectrum, SpectralData, recursion_vectors


@dataclass(frozen=True)
class CompanionMatrix:
    """K x K matrix with ones on the subdiagonal and R_0..R_{K-1} in the
    last column; its characteristic polynomial is x^K - sum_i R_i x^i.
    Entries may be any ring elements (Fractions, SqrtExpr, ...)."""

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


def fraction_views(sd: SpectralData) -> tuple[tuple, tuple]:
    """(P, P_inv): the eigenvector matrix and its inverse of the spectrum
    ``sd`` as Fraction matrices, built by ``reference_eigen_closed_form``
    from its R and roots alone."""
    return reference_eigen_closed_form(sd.R, sd.alphas)[2:]


@dataclass(frozen=True)
class IntegerEigenForm:
    """The eigenvector route on integers (0-based): a_j = B_j/delta,
    R_i = S_i/rho, P_ij = N_ij/u_i with u_i = rho delta^(K-1-i), and
    (P^-1)_jk = V0_j B_j^k/(v delta^k) with v = lcm_j |E_j| and
    V0_j = (v/E_j) delta^(K-1).  N[i][j] is row i, column j."""

    B: tuple
    delta: int
    S: tuple
    rho: int
    N: tuple
    u: tuple
    V0: tuple
    v: int

    @property
    def K(self) -> int:
        return len(self.B)


def integer_eigen_form(R: Sequence, alphas: Sequence) -> IntegerEigenForm:
    """P and the first column of P^-1 on integer numerators, for distinct
    nonzero roots of chi: multiplying P_(i-1)j = a_j P_ij - R_i by
    u_(i-1) gives N_(K-1)j = rho and N_(i-1)j = B_j N_ij - S_i delta^(K-i);
    E_j = prod_{k != j} (B_j - B_k) = delta^(K-1) chi'(a_j) gives
    (P^-1)_jk = B_j^k delta^(K-1-k)/E_j."""
    alphas = [rat(a) for a in alphas]
    R = [rat(r) for r in R]
    K = len(R)
    delta = math.lcm(*(a.denominator for a in alphas))
    B = [a.numerator * (delta // a.denominator) for a in alphas]
    rho = math.lcm(*(r.denominator for r in R))
    S = [r.numerator * (rho // r.denominator) for r in R]
    N = [[0] * K for _ in range(K)]
    for j, b in enumerate(B):
        val = N[K - 1][j] = rho
        for i in range(K - 1, 0, -1):
            val = N[i - 1][j] = b * val - S[i] * delta ** (K - i)
    E = [math.prod(b - other for k, other in enumerate(B) if k != j)
         for j, b in enumerate(B)]
    v = math.lcm(*E)
    V0 = [v // e * delta ** (K - 1) for e in E]
    return IntegerEigenForm(tuple(B), delta, tuple(S), rho, tuple(map(tuple, N)),
                            tuple(rho * delta ** (K - 1 - i) for i in range(K)),
                            tuple(V0), v)


def reference_eigen_closed_form(R: Sequence, alphas: Sequence) -> tuple:
    """The eigenvector route: closed-form eigendata with every check made
    on Fractions, as the tuple (alphas, R, P, P_inv), alphas and R the
    Fraction fields of ``SpectralData``."""
    K = len(R)
    alphas = [rat(a) for a in alphas]
    R = [rat(r) for r in R]
    if len(alphas) != K:
        raise ValueError("need K eigenvalues for a K x K matrix")
    if any(a == 0 for a in alphas) or len(set(alphas)) != K:
        raise DegenerateSpectrum("eigenvalues must be distinct and nonzero")
    A = CompanionMatrix(tuple(R))
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
    for i in range(K):
        for k in range(K):
            val = sum(P[i][j] * P_inv[j][k] for j in range(K))
            if val != (1 if i == k else 0):
                raise DegenerateSpectrum("closed-form inverse check failed")
    det = reference_det([row[:] for row in P])
    vand = Fraction(1)
    for i in range(K):
        for j in range(i + 1, K):
            vand *= alphas[i] - alphas[j]
    if det != vand:
        raise DegenerateSpectrum("determinant is not the Vandermonde product")
    s = sum((1 / a) * P_inv[j][0] for j, a in enumerate(alphas))
    if s != 1 / R[0]:
        raise DegenerateSpectrum("inverse-eigenvalue column sum check failed")
    return tuple(alphas), tuple(R), tuple(map(tuple, P)), tuple(map(tuple, P_inv))


def reference_det(m: list[list]) -> Fraction:
    """Determinant by Gaussian elimination over the rationals (modifies m)."""
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
        inv = 1 / Fraction(m[c][c])
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


def _det_bareiss(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination (E. H. Bareiss, Math. Comp. 22 (1968) 565-578).

    Step c (0-based) replaces each entry right of and below the pivot by
    m_ij <- (m_cc m_ij - m_ic m_cj) / p, p the previous pivot (1 at c = 0).
    By Sylvester's identity the new m_ij is the minor of the input on rows
    0..c, i and columns 0..c, j, an integer, so the division is exact and
    ``//`` loses nothing; the last pivot is the determinant.  A zero pivot is
    exchanged with a later row that is nonzero in its column: that is a row
    permutation of the input made before elimination, and it flips the
    sign.  If there is none, every minor on rows 0..c-1, i and columns 0..c
    vanishes while the leading c x c minor (the previous pivot) does not, so
    column c is a combination of columns 0..c-1 and the determinant is 0.
    """
    m = [list(row) for row in m]
    n = len(m)
    sign, prev = 1, 1
    for c in range(n - 1):
        if not m[c][c]:
            pivot = next((i for i in range(c + 1, n) if m[i][c]), None)
            if pivot is None:
                return 0
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        top = m[c]
        pc = top[c]
        for row in m[c + 1:]:
            f = row[c]
            for k in range(c + 1, n):
                row[k] = (pc * row[k] - f * top[k]) // prev
        prev = pc
    return sign * m[n - 1][n - 1] if n else 1


def reference_spectral_suite(R: Sequence, alphas: Sequence,
                             extra_powers: int = 3) -> dict:
    """A^n e_1 three ways (matrix powers, direct recursion, eigen-
    decomposition) for n <= K + extra_powers, on Fractions."""
    alphas, R, P, P_inv = reference_eigen_closed_form(R, alphas)
    K = len(R)
    count = K + extra_powers
    A = CompanionMatrix(R)
    e1 = [Fraction(1)] + [Fraction(0)] * (K - 1)
    by_matrix = A.power_vectors(e1, count)
    by_recursion = recursion_vectors(R, count)
    ok_rec = by_matrix == by_recursion
    ok_eig = True
    w = [P_inv[j][0] for j in range(K)]
    for n in range(count + 1):
        recon = [sum(P[i][j] * w[j] for j in range(K)) for i in range(K)]
        if recon != by_matrix[n]:
            ok_eig = False
        w = [wj * a for wj, a in zip(w, alphas)]
    ok_init = by_matrix[K] == list(R)
    return {"K": K, "recursion_ok": ok_rec, "eigen_ok": ok_eig,
            "initial_ok": ok_init}


def sequential_elementary_symmetric_R(roots: Sequence) -> list:
    """R_i = -[x^i] prod_j (x - root_j), the product expanded one linear
    factor at a time in the order of the roots: the former route of
    ``spectral.elementary_symmetric_R``, which pairs the roots first."""
    coeffs = [1]  # prod (x - root) so far, lowest power first
    for root in roots:
        coeffs = [0, *coeffs]
        for i in range(len(coeffs) - 1):
            coeffs[i] = coeffs[i] - root * coeffs[i + 1]
    return [-c for c in coeffs[:-1]]
