"""Closed-form diagonalization of the companion-type matrix.

The matrix with ones on the subdiagonal and R_0..R_{K-1} in the last column
drives the commutator recursion; its eigenvectors and inverse have closed
forms that this demo checks exactly, on a 2x2 worked example, on the
family eigenvalue lists, and on randomized distinct-rational spectra.
"""

import math
import random
from fractions import Fraction

from closurelab.families import ParamSet, energy
from closurelab.spectral import (alpha_conjecture, alpha_values_at_energy,
                                 spectral_suite)


def closed_forms(R, alphas):
    """P and P^-1 from their closed forms (1-based i):
    p_ij = a_j^(K-i) - sum_{k=1}^{K-i} R_{K-k} a_j^(K-i-k) and
    (P^-1)_ji = a_j^(i-1) / prod_{k != j} (a_j - a_k).  The package checks
    only that the a_j are distinct nonzero roots, and builds neither."""
    K = len(R)
    P = tuple(tuple(a ** (K - i) - sum(R[K - k] * a ** (K - i - k)
                                       for k in range(1, K - i + 1))
                    for a in alphas) for i in range(1, K + 1))
    P_inv = tuple(tuple(a ** (i - 1) / math.prod(a - b for b in alphas if b != a)
                        for i in range(1, K + 1)) for a in alphas)
    return P, P_inv


# 2x2 worked example: eigenvalues (2, -3) so R_1 = -1, R_0 = 6
P, P_inv = closed_forms([Fraction(6), Fraction(-1)], [Fraction(2), Fraction(-3)])
print("2x2 example: P =", P, " P^-1 =", P_inv)
assert all(sum(P[i][j] * P_inv[j][k] for j in range(2)) == (i == k)
           for i in range(2) for k in range(2))
suite = spectral_suite([6, -1], [2, -3])
print("recursion/eigen/initial all exact:",
      suite["recursion_ok"], suite["eigen_ok"], suite["initial_ok"])

# family spectra: alpha_j evaluated at E_n are exact rationals
params = ParamSet("J", {"g": Fraction(2), "h": Fraction(3)})
alpha_list = alpha_conjecture("J", 2, params)
for n in (0, 1, 3):
    alphas = alpha_values_at_energy(params, n, alpha_list, energy(params, n))
    print(f"J, L=2, n={n}: alphas at E_n = {alphas}")

# randomized spectra, deterministic seed
rng = random.Random(7)
for trial in range(5):
    K = rng.choice([2, 3, 4, 5, 6, 7, 8])
    alphas = set()
    while len(alphas) < K:
        v = Fraction(rng.randint(-40, 40), rng.randint(1, 5))
        if v:
            alphas.add(v)
    alphas = sorted(alphas, reverse=True)
    coeffs = [Fraction(1)]
    for a in alphas:
        new = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            new[i + 1] += c
            new[i] -= c * a
        coeffs = new
    R = [-coeffs[i] for i in range(K)]
    suite = spectral_suite(R, alphas)
    assert suite["recursion_ok"] and suite["eigen_ok"] and suite["initial_ok"]
    print(f"random spectrum K={K}: all checks exact")
