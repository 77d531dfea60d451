"""Companion-matrix spectral data, conjectured eigenvalue lists, pairing
identities, the exact spacing checks."""

import math
import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from closurelab.cli import DEFAULT_PARAMS, _random_distinct_rationals
from closurelab import spectral
from closurelab.closure import conjectured_R
from closurelab.exactalg import ParamPoly, rat
from closurelab.families import ParamSet, energy
from closurelab.spectral import (DegenerateSpectrum, SqrtExpr,
                                 SqrtValueMismatch, alpha_conjecture, alpha_values_at_energy,
                                 check_alpha_spectrum, eigen_closed_form,
                                 elementary_symmetric_R, pairing_identities,
                                 recursion_vectors, root_expansion,
                                 spectral_suite, sqrt_sign, sqrt_square,
                                 sqrt_value_at_energy)
from spectral_reference import (CompanionMatrix, _det_bareiss, fraction_views,
                                integer_eigen_form, reference_det,
                                reference_eigen_closed_form,
                                reference_spectral_suite,
                                sequential_elementary_symmetric_R)

z = ParamPoly.var("z")
a = ParamPoly.var("a")


def test_two_by_two_worked_example():
    sd = eigen_closed_form([6, -1], [2, -3])
    P, P_inv = fraction_views(sd)
    assert P == ((3, -2), (1, 1))
    assert P_inv[0][0] == F(1, 5) and P_inv[1][0] == F(-1, 5)
    assert sum((1 / al) * P_inv[j][0] for j, al in enumerate(sd.alphas)) == F(1, 6)


def test_degenerate_spectrum_rejected():
    with pytest.raises(DegenerateSpectrum):
        eigen_closed_form([0, 1], [1, 0])  # zero eigenvalue
    with pytest.raises(DegenerateSpectrum):
        eigen_closed_form([-1, 2], [1, 1])  # repeated


def test_laguerre_alpha_list():
    alphas = alpha_conjecture("L", 2, None)
    assert [al.u.constant_value() for al in alphas] == [8, 4, -4, -8]
    R = conjectured_R(alpha_conjecture("L", 2))
    assert [r.constant_value() for r in R] == [-1024, 0, 80, 0]


def test_jacobi_alpha_sqrt_free_at_energy(jac_params):
    vals = alpha_values_at_energy(jac_params, 3, alpha_conjecture("J", 2, jac_params),
                                  energy(jac_params, 3))
    av = jac_params.a
    s = 2 * 3 + av
    assert vals == [16 + 8 * s, 4 + 4 * s, 4 - 4 * s, 16 - 8 * s]
    # spacing example: alpha_2(E_3) = E_4 - E_3
    assert vals[1] == energy(jac_params, 4) - energy(jac_params, 3) == 48


def test_sqrt_values_match_printed_closed_forms(jac_params, wil_params, aw_params):
    for n in range(7):
        assert sqrt_value_at_energy(jac_params, n) == 2 * n + jac_params.a
        b1v = sum(wil_params.a_list())
        assert sqrt_value_at_energy(wil_params, n) == 2 * n + b1v - 1
        expected = aw_params.q ** (-n) - aw_params.b4 * aw_params.q ** (n - 1)
        assert sqrt_value_at_energy(aw_params, n) == expected
        # and they really are the square roots
        for fam, ps in (("J", jac_params), ("W", wil_params), ("AW", aw_params)):
            s = sqrt_value_at_energy(ps, n)
            S = sqrt_square(fam, ps)
            assert S.evaluate({"z": energy(ps, n)}) == s * s


def test_sqrt_value_that_does_not_square_to_S_is_rejected(jac_params,
                                                         monkeypatch):
    # negative control: a square-root-free value off by one at E_3 is an
    # error, not an assertion that python -O strips
    alphas = alpha_conjecture("J", 2, jac_params)
    real = spectral.sqrt_value_at_energy
    monkeypatch.setattr(spectral, "sqrt_value_at_energy",
                        lambda ps, n: real(ps, n) + (n == 3))
    assert alpha_values_at_energy(jac_params, 2, alphas, energy(jac_params, 2))
    with pytest.raises(SqrtValueMismatch, match=r"^J: sqrt\(S\(E_3\)\) = 12"):
        alpha_values_at_energy(jac_params, 3, alphas, energy(jac_params, 3))
    assert issubclass(SqrtValueMismatch, ArithmeticError)


def test_aw_alpha_collapse_at_energy(aw_params):
    E = energy(aw_params, 2)
    vals = alpha_values_at_energy(aw_params, 2, alpha_conjecture("AW", 1, aw_params), E)
    assert vals[0] == energy(aw_params, 3) - E
    assert vals[1] == energy(aw_params, 1) - E


def test_conjectured_R_jacobi_symbolic():
    R = conjectured_R(alpha_conjecture("J", 2))
    assert R[3] == ParamPoly.const(40)
    assert R[2] == 80 * (z + a * a) - 528
    assert R[1] == -1024 * (z + a * a - F(5, 2))
    assert R[0] == -1024 * (z + a * a - 1) * (z + a * a - 4)


def test_conjectured_R_wilson_bound(wil_params):
    R = conjectured_R(alpha_conjecture("W", 2, wil_params))
    zp = 4 * z + (sum(wil_params.a_list()) - 1) ** 2
    assert R[3] == ParamPoly.const(10)
    assert R[2] == 5 * zp - 33
    assert R[1] == -8 * (2 * zp - 5)
    assert R[0] == -4 * (zp - 1) * (zp - 4)


def test_conjectured_R_askey_wilson_bound(aw_params):
    q, b4 = aw_params.q, aw_params.b4
    R = conjectured_R(alpha_conjecture("AW", 2, aw_params))
    zp = z + 1 + b4 / q
    assert R[3] == q ** -2 * (1 - q) ** 2 * (1 + 3 * q + q ** 2) * zp
    assert R[2] == -(q ** -3) * (1 - q) ** 2 * (
        (1 - q - 5 * q ** 2 - q ** 3 + q ** 4) * zp * zp
        + q ** -2 * (1 + q) ** 2 * (1 + 3 * q ** 2 + q ** 4) * b4)
    assert R[1] == -(q ** -3) * (1 - q) ** 4 * (1 + q) ** 2 * zp * (
        2 * zp * zp - q ** -3 * (1 + q + 4 * q ** 2 + q ** 3 + q ** 4) * b4)
    assert R[0] == -(q ** -3) * (1 - q) ** 4 * (1 + q) ** 2 * (
        zp * zp - q ** -2 * (1 + q) ** 2 * b4) * (
        zp * zp - q ** -3 * (1 + q ** 2) ** 2 * b4)


def test_expansion_has_the_roots_it_was_built_from():
    # root^K = sum_i R_i root^i for every root, and
    # R_i = (-1)^(K-i+1) e_(K-i)(roots), on random Fraction roots (repeats
    # allowed)
    rng = random.Random(11)
    for _ in range(60):
        roots = [F(rng.randint(-40, 40), rng.randint(1, 9))
                 for _ in range(rng.randint(1, 8))]
        K = len(roots)
        R = elementary_symmetric_R(roots)
        assert len(R) == K and all(isinstance(r, F) for r in R)
        for root in roots:
            assert root ** K == sum(R_i * root ** i for i, R_i in enumerate(R))
        for i in range(K):
            e = sum(math.prod(c) for c in combinations(roots, K - i))
            assert R[i] == (-1) ** (K - i + 1) * e
    assert elementary_symmetric_R([]) == []
    assert elementary_symmetric_R([F(3)]) == [F(3)]


def test_paired_expansion_equals_the_sequential_one(wil_params, aw_params):
    # the expansion in pairs j, K-1-j is the product one linear factor at a
    # time, on random Fraction and int lists with K = 0..9 (odd K included,
    # repeats allowed) and on the SqrtExpr lists of all four families
    rng = random.Random(22)
    for K in range(10):
        for _ in range(8):
            ints = [rng.randint(-30, 30) for _ in range(K)]
            fracs = [F(x, rng.randint(1, 9)) for x in ints]
            for roots in (ints, fracs):
                got = elementary_symmetric_R(roots)
                assert got == sequential_elementary_symmetric_R(roots)
                assert all(type(c) is type(x) for c, x in zip(got, roots))
    for fam, ps in (("L", None), ("J", None), ("W", wil_params), ("AW", aw_params)):
        for L in (1, 2, 3):
            alphas = alpha_conjecture(fam, L, ps)
            assert (elementary_symmetric_R(alphas)
                    == sequential_elementary_symmetric_R(alphas)), (fam, L)
            assert (elementary_symmetric_R(alphas[:-1])
                    == sequential_elementary_symmetric_R(alphas[:-1])), (fam, L)


def test_conjectured_pairs_are_square_root_free_factors(monkeypatch, wil_params,
                                                        aw_params):
    # the roots j and K-1-j of a conjectured list are conjugate, so each
    # pair's sum and product are square-root free, and the only products of
    # the expansion that carry sqrt(S) are pair products r_j r_{K-1-j}
    general = []
    real = SqrtExpr.__mul__

    def record(self, other):
        if not (self.is_sqrt_free and SqrtExpr.lift(other, self.square).is_sqrt_free):
            general.append(other)
        return real(self, other)

    for fam, ps in (("L", None), ("J", None), ("W", wil_params), ("AW", aw_params)):
        for L in (1, 2, 3):
            alphas = alpha_conjecture(fam, L, ps)
            K = len(alphas)
            assert K == 2 * L
            carried = 0
            for j in range(L):
                x, y = alphas[j], alphas[K - 1 - j]
                assert (x + y).is_sqrt_free and (x * y).is_sqrt_free, (fam, L, j)
                carried += not (x.is_sqrt_free and y.is_sqrt_free)
            general.clear()
            with monkeypatch.context() as m:
                m.setattr(SqrtExpr, "__mul__", record)
                elementary_symmetric_R(alphas)
            assert len(general) == carried, (fam, L)
            if fam != "L":  # every root of the other three carries sqrt(S)
                assert carried == L, (fam, L)


def test_square_root_free_arithmetic_equals_the_general_formula():
    # with v = 0 on both sides, + and * skip the sqrt(S) terms; the result
    # is u + v sqrt(S) by the general formulas, v = 0 included
    rng = random.Random(5)
    S = z + a * a
    zero = ParamPoly.zero(("z",))

    def poly():
        return sum((F(rng.randint(-9, 9), rng.randint(1, 5)) * z ** j * a ** k
                    for j in range(3) for k in range(2)), zero)

    for _ in range(30):
        u1, u2 = poly(), poly()
        x, y = SqrtExpr(u1, zero, S), SqrtExpr(u2, zero, S)
        total, prod = x + y, x * y
        assert (total.u, total.v) == (u1 + u2, zero + zero)
        assert (prod.u, prod.v) == (u1 * u2 + zero * zero * S, u1 * zero + zero * u2)
        assert total.is_sqrt_free and prod.is_sqrt_free
        # one operand with a square root keeps the general route
        w = SqrtExpr(u2, u1, S)
        assert (x * w).v == u1 * u1 and (x + w).v == u1


def test_conjectured_lists_are_the_elementary_symmetric_functions(wil_params,
                                                                 aw_params):
    # the conjectured R_i are (-1)^(K-i+1) e_(K-i)(alpha) summed term by term
    # over the SqrtExpr eigenvalue list, square-root free, for all four
    # families
    for fam, ps in (("L", None), ("J", None), ("W", wil_params), ("AW", aw_params)):
        for L in (1, 2, 3):
            alphas = alpha_conjecture(fam, L, ps)
            K = 2 * L
            expected = []
            for i in range(K):
                e = SqrtExpr.lift(0, alphas[0].square)
                for c in combinations(alphas, K - i):
                    term = SqrtExpr.lift(1, alphas[0].square)
                    for alpha in c:
                        term = term * alpha
                    e = e + term
                expected.append(((-1) ** (K - i + 1) * e).poly_part())
            assert conjectured_R(alpha_conjecture(fam, L, ps)) == expected, (fam, L)
    # negative control: an unpaired list leaves the square root in R_0
    unpaired = alpha_conjecture("J", 1, None)
    unpaired[1] = unpaired[0] + 1
    with pytest.raises(ValueError, match="still carries the square root"):
        conjectured_R(unpaired)


def test_char_poly_identity_all_families(wil_params, aw_params):
    # expanding prod(x - alpha_j) reproduces x^K - sum R_i x^i
    for fam, ps in (("L", None), ("J", None), ("W", wil_params), ("AW", aw_params)):
        for L in (1, 2, 3):
            alphas = alpha_conjecture(fam, L, ps)
            A = CompanionMatrix(tuple(conjectured_R(alpha_conjecture(fam, L, ps))))
            for al in alphas:
                val = A.char_poly_at(al)
                assert val.is_sqrt_free and val.poly_part().is_zero


def test_pairing_identities_all_families(pairing_params, aw_params):
    """The identities hold in z and in the parameter for L <= 4.

    For J, alpha_j = 4m^2 +- 4m sqrt(S) with S = z + a^2, so in the pairing
    sum and product every part (the polynomial part, the coefficient of
    sqrt(S), the printed form) is a polynomial in z and a of degree <= 2 in
    a; a difference that vanishes at three distinct a therefore vanishes
    identically in a.  W is the same with S = 4z + (b1 - 1)^2 and b1 in
    place of a.  L does not depend on g, and AW is checked at its bound
    parameters."""
    for ps in (*pairing_params, aw_params):
        for L in (1, 2, 3, 4):
            rep = pairing_identities(ps, alpha_conjecture(ps.fam, L, ps))
            assert all(e["ok"] for e in rep), (ps, L)


def test_pairing_example_values(wil_params):
    # J, L=2, j=1: sum 32, product 16*4*(4 - z - a^2)
    alphas = alpha_conjecture("J", 2, None)
    total = alphas[0] + alphas[3]
    prod = alphas[0] * alphas[3]
    assert total.poly_part() == ParamPoly.const(32)
    assert prod.poly_part() == 64 * (ParamPoly.const(4) - z - a * a)
    # W, L=1, j=1: sum 2, product 1 - 4z - (b1-1)^2
    aw = alpha_conjecture("W", 1, wil_params)
    b1 = sum(wil_params.a_list())
    assert (aw[0] + aw[1]).poly_part() == ParamPoly.const(2)
    assert (aw[0] * aw[1]).poly_part() == 1 - 4 * z - (b1 - 1) ** 2
    # L: sums vanish
    al = alpha_conjecture("L", 3, None)
    for j in range(3):
        assert (al[j] + al[5 - j]).poly_part().is_zero


def test_spacing_all_families(lag_params, wil_params, aw_params):
    j_by_L = {1: ParamSet("J", {"g": F(2), "h": F(3)}),
              2: ParamSet("J", {"g": F(2), "h": F(3)}),
              3: ParamSet("J", {"g": F(3), "h": F(7, 2)}),
              4: ParamSet("J", {"g": F(4), "h": F(9, 2)})}
    for L in (1, 2, 3, 4):
        for fam, ps in (("L", lag_params), ("J", j_by_L[L]),
                        ("W", wil_params), ("AW", aw_params)):
            rep = check_alpha_spectrum(ps, range(9),
                                       alpha_conjecture(fam, L, ps))
            assert all(e["ok"] for e in rep), (fam, L)


def test_spacing_checks_compute_each_energy_once(lag_params, wil_params, aw_params,
                                                 monkeypatch):
    # the spacing checks at n = 0..8 read E_m for m = n - L..n + L, and
    # each E_m is computed once per call
    seen = []
    real = spectral.energy
    monkeypatch.setattr(spectral, "energy",
                        lambda params, m: seen.append(m) or real(params, m))
    jac = ParamSet("J", {"g": F(2), "h": F(3)})
    for L in (1, 2):
        for fam, ps in (("L", lag_params), ("J", jac),
                        ("W", wil_params), ("AW", aw_params)):
            seen.clear()
            rep = check_alpha_spectrum(ps, range(9), alpha_conjecture(fam, L, ps))
            assert all(e["ok"] for e in rep)
            assert sorted(seen) == list(range(-L, 9 + L)), (fam, L)


def test_ordering_boundary_is_detected():
    # J with a exactly at the boundary 2L-1 degenerates at z = 0
    ps = ParamSet("J", {"g": F(2), "h": F(3)})
    rep = check_alpha_spectrum(ps, range(2), alpha_conjecture("J", 3, ps))
    assert any(not e["ok"] for e in rep)


def test_sqrt_sign_exact():
    assert sqrt_sign(F(1), F(1), F(2)) == 1
    assert sqrt_sign(F(-3), F(2), F(2)) == -1   # 2*sqrt(2) < 3
    assert sqrt_sign(F(-2), F(2), F(2)) == 1    # 2*sqrt(2) > 2
    assert sqrt_sign(F(-2), F(1), F(4)) == 0


def _random_spectrum(rng):
    """Distinct nonzero rational eigenvalues, K <= 8, with the last column
    R of their companion matrix."""
    K = rng.choice([2, 3, 4, 5, 6, 7, 8])
    vals = set()
    while len(vals) < K:
        v = F(rng.randint(-50, 50), rng.randint(1, 6))
        if v:
            vals.add(v)
    alphas = sorted(vals, reverse=True)
    coeffs = [F(1)]
    for al in alphas:
        new = [F(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            new[i + 1] += c
            new[i] -= c * al
        coeffs = new
    return [-coeffs[i] for i in range(K)], alphas


def test_recursion_three_ways_random_spectra():
    rng = random.Random(11)
    for _ in range(10):
        R, alphas = _random_spectrum(rng)
        suite = spectral_suite(R, alphas)
        assert suite["recursion_ok"] and suite["eigen_ok"] and suite["initial_ok"]


def _reference_closed_form(R, alphas):
    """P and P^-1 term by term from the printed closed forms
    p_ij = a_j^(K-i) - sum_k R_{K-k} a_j^(K-i-k) and
    (P^-1)_ji = a_j^(i-1) / prod_{k != j} (a_j - a_k)."""
    K = len(R)
    P = [[F(0)] * K for _ in range(K)]
    P_inv = [[F(0)] * K for _ in range(K)]
    for j, al in enumerate(alphas):
        for i in range(1, K + 1):
            val = al ** (K - i)
            for k in range(1, K - i + 1):
                val -= R[K - k] * al ** (K - i - k)
            P[i - 1][j] = val
        denom = F(1)
        for k, other in enumerate(alphas):
            if k != j:
                denom *= al - other
        for i in range(1, K + 1):
            P_inv[j][i - 1] = al ** (i - 1) / denom
    return tuple(map(tuple, P)), tuple(map(tuple, P_inv))


def test_eigen_closed_form_matches_term_by_term_reference():
    rng = random.Random(5)
    for _ in range(40):
        R, alphas = _random_spectrum(rng)
        sd = eigen_closed_form(R, alphas)
        assert fraction_views(sd) == _reference_closed_form(R, alphas)


def _cli_random_spectra(seed):
    """The 50 random spectra of ``closurelab spectrum`` at CLOSURELAB_SEED=seed."""
    rng = random.Random(seed)
    out = []
    for _ in range(50):
        alphas = _random_distinct_rationals(rng, rng.choice([2, 3, 4, 5, 6, 7, 8]))
        out.append((elementary_symmetric_R(alphas), alphas))
    return out


def _energy_spectrum(fam, L, n):
    """(R(E_n), alpha_j(E_n)) of the conjectured closure at the CLI default
    parameters."""
    ps = ParamSet(fam, {k: rat(v) for k, v in DEFAULT_PARAMS[fam].items()})
    En = energy(ps, n)
    return ([Ri.subs({"z": En}).constant_value()
             for Ri in conjectured_R(alpha_conjecture(fam, L, ps))],
            alpha_values_at_energy(ps, n, alpha_conjecture(fam, L, ps), En))


def _energy_spectra():
    """L, J, W and AW energy spectra for L = 1..3 and n <= 4, except J at
    L = 3: its default a = 5 is not above the ordering bound 2L - 1."""
    return [_energy_spectrum(fam, L, n) for fam in sorted(DEFAULT_PARAMS)
            for L in (1, 2, 3) if (fam, L) != ("J", 3) for n in range(5)]


def _certificate_spectra():
    """Seeds 0-4's CLI random spectra and the energy spectra."""
    return [sp for seed in range(5) for sp in _cli_random_spectra(seed)] + _energy_spectra()


def test_integer_certificate_matches_fraction_reference():
    for R, alphas in _certificate_spectra():
        suite = spectral_suite(R, alphas)
        assert suite == reference_spectral_suite(R, alphas)
        assert suite["recursion_ok"] and suite["eigen_ok"] and suite["initial_ok"]
        sd = eigen_closed_form(R, alphas)
        ref_alphas, ref_R, _, P_inv = reference_eigen_closed_form(R, alphas)
        assert (sd.alphas, sd.R) == (ref_alphas, ref_R)
        assert [F(b, sd.delta) for b in sd.B] == list(sd.alphas)
        # (P^-1)_j0 = 1/chi'(a_j) = delta^(K-1)/E_j
        assert [F(sd.delta ** (sd.K - 1), e) for e in sd.E] == [row[0] for row in P_inv]


def test_inverse_check_implies_the_vandermonde_determinant():
    # eigen_closed_form decides no determinant: on the eigenvector route's
    # integers, N V = v diag(u) gives det N delta^(K(K-1)/2) = vand prod_i u_i
    spectra = _certificate_spectra()
    assert any(eigen_closed_form(R, al).delta > 1 for R, al in spectra)
    for R, alphas in spectra:
        form = integer_eigen_form(R, alphas)
        K, B = form.K, form.B
        vand = math.prod(B[i] - B[j] for i in range(K) for j in range(i + 1, K))
        det = reference_det([list(row) for row in form.N])
        assert det * form.delta ** (K * (K - 1) // 2) == vand * math.prod(form.u)


_spectra = st.lists(st.builds(F, st.integers(-50, 50), st.integers(1, 6)).filter(bool),
                    min_size=1, max_size=8, unique=True)


@settings(max_examples=150, deadline=None, database=None)
@given(_spectra)
def test_the_root_check_implies_every_companion_identity(alphas):
    # eigen_closed_form decides only distinct nonzero roots and chi(a_j) = 0;
    # each identity its docstring derives from them holds on the eigenvector
    # route's integers, built here from R and the roots with the returned
    # E_j, and the Fraction reference replays all three A^n e_1 routes
    R = elementary_symmetric_R(alphas)
    sd = eigen_closed_form(R, alphas)
    form = integer_eigen_form(R, alphas)
    K, B, S, N, rho, delta = form.K, form.B, form.S, form.N, form.rho, form.delta
    assert (sd.B, sd.delta) == (B, delta)
    for j, b in enumerate(B):  # A p_j = a_j p_j, row 0 and rows i >= 1
        last = N[K - 1][j]
        assert S[0] * last * delta ** K == rho * b * N[0][j]
        for i in range(1, K):
            assert S[i] * last * delta ** (K - i) + rho * N[i - 1][j] == rho * b * N[i][j]
    c = [form.v // e for e in sd.E]
    assert [cj * e for cj, e in zip(c, sd.E)] == [form.v] * K
    for k in range(K):  # N V = v diag(u), column k of V
        col = [cj * b ** k * delta ** (K - 1 - k) for cj, b in zip(c, B)]
        for i in range(K):
            want = form.u[i] * form.v if i == k else 0
            assert sum(x * y for x, y in zip(N[i], col)) == want
    B_prod = math.prod(B)  # the column sum
    assert (S[0] * delta * sum(x * (B_prod // b) for x, b in zip(form.V0, B))
            == rho * form.v * B_prod)
    vand = math.prod(B[i] - B[j] for i in range(K) for j in range(i + 1, K))
    det = reference_det([list(row) for row in N])
    assert det * delta ** (K * (K - 1) // 2) == vand * math.prod(form.u)
    # the Lagrange form: sum_i x^i P_ij (P^-1)_j0 = prod_{m != j} (x - a_m)
    # delta^(K-1)/E_j, at the roots themselves and off them
    P, P_inv = fraction_views(sd)
    for x in (*sd.alphas, F(0), F(1, 7), F(-5, 3)):
        for j in range(K):
            lhs = sum(x ** i * P[i][j] for i in range(K)) * P_inv[j][0]
            rhs = math.prod(x - a for m, a in enumerate(sd.alphas) if m != j)
            assert lhs == rhs * F(delta ** (K - 1), sd.E[j])
    assert spectral_suite(R, alphas) == reference_spectral_suite(R, alphas) == {
        "K": K, "recursion_ok": True, "eigen_ok": True, "initial_ok": True}


def test_root_check_is_chi_at_every_root():
    # eigen_closed_form rejects a spectrum exactly when chi, evaluated on
    # Fractions, misses one of the roots; the spectra with delta > 1 and
    # rho > 1 make both scalings of the integer check visible
    spectra = _certificate_spectra()
    assert any(eigen_closed_form(R, al).delta > 1 for R, al in spectra)
    assert any(math.lcm(*(F(r).denominator for r in R)) > 1 for R, _ in spectra)
    for R, alphas in spectra:
        eigen_closed_form(R, alphas)
        for i in range(len(R)):
            bad = list(R)
            bad[i] += F(1, 3)
            A = CompanionMatrix(tuple(map(F, bad)))
            assert any(A.char_poly_at(a) for a in alphas)
            with pytest.raises(DegenerateSpectrum, match="do not match the last column"):
                eigen_closed_form(bad, alphas)


def _expanded_R(roots):
    """R_i = S_i/d^(K-i) from the integer expansion (S, d) of the roots."""
    S, d = root_expansion(roots)
    return [F(s, d ** (len(S) - i)) for i, s in enumerate(S)]


def test_integer_expansion_of_random_roots_matches_fractions():
    for seed in range(5):
        for R, alphas in _cli_random_spectra(seed):
            S, d = root_expansion(alphas)
            assert all(type(x) is int for x in (*S, d)) and d > 0
            got = _expanded_R(alphas)
            assert got == R and all(type(x) is F for x in got)
    assert _expanded_R([F(1, 2), F(-2, 3)]) == [F(1, 3), F(-1, 6)]


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_integer_certificate_rejects_what_the_reference_rejects():
    controls = []
    for R, alphas in _cli_random_spectra(3)[:20] + _energy_spectra()[::6]:
        controls.append(([R[0] + F(1, 7)] + list(R[1:]), alphas))  # perturbed R_0
        controls.append((R, [alphas[0]] + list(alphas[:-1])))      # repeated root
        controls.append((R, list(alphas[:-1]) + [0]))              # zero root
    controls.append(_energy_spectrum("J", 3, 0))                   # outside the range
    controls.append(([6, -1], [2]))                                # too few roots
    for R, alphas in controls:
        for new, ref in ((eigen_closed_form, reference_eigen_closed_form),
                         (spectral_suite, reference_spectral_suite)):
            got = _raised(new, R, alphas)
            assert got == _raised(ref, R, alphas)
            assert got[0] in (DegenerateSpectrum, ValueError)
    assert _raised(eigen_closed_form, [7, -1], [2, -3]) == (
        DegenerateSpectrum, "supplied roots do not match the last column")


def test_bareiss_determinant_matches_rational_elimination():
    rng = random.Random(2)
    cases = [
        [[0, 1], [1, 0]],                      # row swap at the first pivot
        [[1, 2, 3], [2, 4, 5], [1, 3, 4]],     # row swap after one step
        [[1, 2, 3], [2, 4, 6], [0, 1, 1]],     # singular: dependent rows
        [[0, 0, 1], [0, 2, 3], [0, 4, 5]],     # singular: zero column
        [[5]], [],
    ]
    for _ in range(60):
        n = rng.randint(1, 7)
        cases.append([[rng.randint(-9, 9) * rng.choice([1, 1, 10 ** 30])
                       for _ in range(n)] for _ in range(n)])
    for m in cases:
        assert _det_bareiss(m) == reference_det([row[:] for row in m])
    assert _det_bareiss(cases[0]) == -1 and _det_bareiss(cases[2]) == 0
    assert _det_bareiss(cases[1]) == 1


def test_order2_specialization_of_eigenvalue_pair(wil_params, aw_params, lag_params):
    # K = 2: the pair is alpha_+- = (R_1 +- sqrt(R_1^2 + 4 R_0))/2, i.e.
    # R_1 = alpha_+ + alpha_-, R_0 = -alpha_+ alpha_-, and the discriminant
    # identity (alpha_+ - alpha_-)^2 = R_1^2 + 4 R_0 holds identically in z.
    for fam, ps in (("L", lag_params), ("J", None), ("W", wil_params), ("AW", aw_params)):
        ap, am = alpha_conjecture(fam, 1, ps)
        R0, R1 = (c.poly_part() for c in elementary_symmetric_R([ap, am]))
        total = ap + am
        prod = ap * am
        assert total.poly_part() == R1
        assert prod.poly_part() == -R0
        diff2 = (ap - am) ** 2
        assert diff2.poly_part() == R1 * R1 + 4 * R0


def test_initial_condition_row():
    # the K-th iterate of the recursion reproduces the last column
    R = [F(6), F(-1)]
    vecs = recursion_vectors(R, 2)
    assert vecs[0] == [1, 0]
    assert vecs[2] == R
