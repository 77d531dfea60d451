"""Family data and built-in deformed systems.

Covers the four polynomial families (Laguerre L, Jacobi J, Wilson W,
Askey-Wilson AW): exact energies; virtual-state energies, norm ratios
and classical polynomial generators for L/J; the built-in single-seed
deformations (any degree, types I and II, for L and J), the
similarity-transformed Hamiltonian held as its cleared numerators, and a
JSON plugin loader for externally supplied multi-index data.

Built-in construction notes
---------------------------
Every built-in system comes from one constructor per multi-index shape:
D = {} is the undeformed family, and every single seed (d, t) of L or J is
one Darboux-Crum step (``one_step_family``).  The step uses the seed
prefactor rho with logarithmic derivative m = rho'/rho = p/q (``seed_data``)
and the seed polynomial xi in the classical normalization: the classical
polynomial of the twisted parameters (``canonical_seed``).  rho*xi is a
quasi-eigenfunction of the undeformed operator at the virtual energy, and
``check_seed`` verifies that exactly on every build.  The intertwined
polynomials

    P(n) = q*xi*P_n' - (p*xi + q*xi')*P_n

are direct images of the classical P_n, so the norm-ratio identities hold
with no extra constants.  Parameters at which the virtual energy equals an
eigenvalue make the seed degenerate and are rejected.

The Hamiltonian H = -4*xi^-1*(c2*xi*d^2 + N1*d + N0) is built in closed
form from xi and the shifted parameters lambda_D (``cleared_hamiltonian``)
and kept as the triple (c2*xi, N1, N0).  Every eigen-equation (each
checked level and the seed) is decided by one polynomial residual
(``eigen_validate``), with no division and no operator algebra, so a wrong
H fails the build's own checks of P_0..P_VALIDATE_N before any verdict
reads it.

A build runs on integer numerators.  Each eigen residual is one integer
combination over one common denominator (``_residual_numerators``), and
only tested for zero: a family converts its Hamiltonian to integer
numerators once (``_cleared_numerators``), and the seed check uses the
numerators of a constant-p prefactor (``seed_numerators``).  The
Hamiltonian's numerators and each intertwined P(n) are one combination
reduced once, and the degenerate levels of a seed come from a closed form
(``degenerate_level``).
"""

from __future__ import annotations

import json
import math
import operator
from fractions import Fraction
from typing import Mapping, Sequence

from .exactalg import (EtaPoly, Frozen, ParamPoly, Rat, convolve_sum, count, rat,
                       rat_str)

HALF = Fraction(1, 2)

# The parameter names of each family, the one table that ParamSet reads.
PARAMETERS = {"L": ("g",), "J": ("g", "h"), "W": ("a1", "a2", "a3", "a4"),
              "AW": ("a1", "a2", "a3", "a4", "q")}

# Every family checks H P_n = E_n P_n for
# n = 0..VALIDATE_N when it is built (plugins: when they are loaded), and
# every further level when the closure engine first reads it.
VALIDATE_N = 5

# Largest supported number of missing degrees ell, and of ell + deg Y in the
# CLI.  It bounds the degree of every P_n a multi-index from a label or a
# plugin can ask for; every shipped row and plugin has ell <= 5.
# `verify-closure --family L --D <ell>I` on a 2-CPU x86-64 host (Python 3.11,
# byte-compiled, interpreter start included): ell = 6, 10, 16 take 0.07 s,
# 0.10 s, 0.19 s (17 MB peak RSS).  `spectrum --family AW --D <ell>I
# --n-max 0` takes 0.13 s, 0.20 s and 0.35 s at ell = 10, 12, 16.
MAX_ELL = 16

# Largest supported --n-max: the commands check the levels n = 0..n_max.
# At n_max = 100 on the same host, `recurrence --family J --D 16II`, the
# slowest command measured whose time grows with n_max, takes 1.0 s;
# `spectrum --family J --D 16I --params g=40` takes 0.24 s (0.16 s at
# n_max = 8; its companion suites have K = 34).
MAX_N = 100


class EigenValidationFailed(Exception):
    """Constructed Hamiltonian fails its eigen-equation (family data inconsistent)."""


class SchemaError(Exception):
    """Plugin file does not conform to the plugin schema."""


class DegreeMismatch(Exception):
    """Plugin polynomial degrees contradict the multi-index bookkeeping."""


class ParameterPole(Exception):
    """A denominator factor of a closed form vanishes at these parameters."""


def nonzero_factors(a: Rat, n: int, form: str, factors: Mapping[str, Rat]) -> None:
    """Raise ParameterPole naming a, n and the first of the denominator
    ``factors`` (text: value) of ``form`` at level n that vanishes."""
    for text, value in factors.items():
        if not value:
            raise ParameterPole(f"a={rat_str(a)}: the factor {text} of {form} "
                                f"vanishes at n={n}")


def _sqrt_fraction(q: Rat) -> Rat | None:
    num, den = q.numerator, q.denominator
    if num < 0:
        return None
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


class ParamSet(Frozen):
    """Exact parameter values for one family, the one reader of a parameter
    map: exactly the names of PARAMETERS[fam], each value read by ``rat``.
    J derives a = g+h and b = g-h; AW needs q to be the square of a rational
    (so q^(1/2) is exact).  Two sets are equal when their family and values are.
    """

    __slots__ = ("fam", "values")

    def __init__(self, fam: str, values: Mapping[str, Rat | str]):
        if set(values) != set(PARAMETERS[fam]):
            raise ValueError(f"the parameters of {fam} are {', '.join(PARAMETERS[fam])}, "
                             f"got {', '.join(sorted(values)) or 'none'}")
        vals = {k: rat(v) for k, v in values.items()}
        self._set(fam=fam, values=vals)
        if fam == "AW":
            q = vals["q"]
            if not (0 < q < 1):
                raise ValueError("AW needs 0 < q < 1")
            if _sqrt_fraction(q) is None:
                raise ValueError("AW needs q to be the square of a rational")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamSet):
            return NotImplemented
        return self.fam == other.fam and self.values == other.values

    def __repr__(self) -> str:
        return f"ParamSet({self.fam!r}, {self.values})"

    @property
    def g(self) -> Rat:
        return self.values["g"]

    @property
    def h(self) -> Rat:
        return self.values["h"]

    @property
    def a(self) -> Rat:
        return self.values["g"] + self.values["h"]

    @property
    def b(self) -> Rat:
        return self.values["g"] - self.values["h"]

    def a_list(self) -> list[Rat]:
        return [self.values[f"a{i}"] for i in (1, 2, 3, 4)]

    @property
    def q(self) -> Rat:
        return self.values["q"]

    @property
    def r(self) -> Rat:
        """q^(1/2) (AW), rational by construction."""
        return _sqrt_fraction(self.values["q"])

    @property
    def b4(self) -> Rat:
        """a1*a2*a3*a4 (W and AW)."""
        return math.prod(self.a_list())

    def reference_values(self) -> dict[str, Rat]:
        """The parameters in the variables of the reference rows and of
        symbolic reconstruction: g for L; a = g + h and b = g - h for J."""
        if self.fam == "J":
            return {"a": self.a, "b": self.b}
        return {"g": self.g}

    @staticmethod
    def at_reference(fam: str, values: Mapping[str, Rat]) -> "ParamSet":
        """The L or J parameter set whose ``reference_values`` are ``values``:
        g = (a + b)/2 and h = (a - b)/2 for J."""
        if fam == "J":
            a, b = values["a"], values["b"]
            return ParamSet("J", {"g": (a + b) / 2, "h": (a - b) / 2})
        return ParamSet(fam, {"g": values["g"]})


class MultiIndex(Frozen):
    """Multi-index D: list of (degree, type) seed labels, each degree an
    int >= 1 (a bool or a float such as 2.9 is rejected, not truncated).

    ell = sum(d_j) - M(M-1)/2 + 2 * M_I * M_II  is the number of missing
    low degrees, at most MAX_ELL; entries must be distinct within each type.
    ``ell`` is computed once, here.
    """

    __slots__ = ("entries", "ell")

    def __init__(self, entries: Sequence[tuple[int, str]]):
        ent = tuple((d, str(t)) for d, t in entries)
        for d, t in ent:
            if isinstance(d, bool) or not isinstance(d, int):
                raise ValueError(f"seed degree {d!r} is not an integer")
            if d < 1:
                raise ValueError("seed degrees must be >= 1")
            if t not in ("I", "II"):
                raise ValueError("seed type must be 'I' or 'II'")
        for t in ("I", "II"):
            ds = [d for d, tt in ent if tt == t]
            if len(ds) != len(set(ds)):
                raise ValueError(f"duplicate type-{t} degrees in multi-index")
        self._set(entries=ent)
        M = len(ent)
        ell = sum(d for d, _ in ent) - M * (M - 1) // 2 + 2 * self.M1 * self.M2
        if ell > MAX_ELL:
            raise ValueError(f"ell = {ell} is above the supported bound {MAX_ELL}")
        self._set(ell=ell)

    @staticmethod
    def parse(text: str) -> "MultiIndex":
        """Parse '1I' or '1I,2I' style labels; '' is the undeformed system."""
        text = text.strip()
        if not text or text == "{}":
            return MultiIndex(())
        out = []
        for part in text.split(","):
            part = part.strip()
            degree = part.rstrip("I")
            out.append((count(degree), part[len(degree):]))
        return MultiIndex(tuple(out))

    @property
    def M(self) -> int:
        return len(self.entries)

    @property
    def M1(self) -> int:
        return sum(1 for _, t in self.entries if t == "I")

    @property
    def M2(self) -> int:
        return sum(1 for _, t in self.entries if t == "II")

    def label(self) -> str:
        if not self.entries:
            return "{}"
        return ",".join(f"{d}{t}" for d, t in self.entries)


# -- energies -----------------------------------------------------------------


def energy(params: ParamSet, n: int) -> Rat:
    """Eigenvalue E_n; E_0 = 0 in every family.  Negative n is permitted
    (the formulas extend; used by the spacing identities)."""
    if params.fam == "L":
        return Fraction(4 * n)
    if params.fam == "J":
        a = params.a  # 4n(n + A/m) = 4n(nm + A)/m
        return Fraction(4 * n * (n * a.denominator + a.numerator), a.denominator)
    if params.fam == "W":
        b1 = sum(params.a_list())
        return n * (n + b1 - 1)
    q = params.q
    return (q ** (-n) - 1) * (1 - params.b4 * q ** (n - 1))


def virtual_energy(params: ParamSet, t: str, v: int) -> Rat:
    """Energy of the degree-v type I/II virtual state of L or J."""
    if t not in ("I", "II"):
        raise ValueError("type must be 'I' or 'II'")
    if params.fam == "L":
        g = params.g
        return -4 * (g + v + HALF) if t == "I" else -4 * (g - v - HALF)
    if params.fam == "J":
        g, h = params.g, params.h
        if t == "I":
            return -4 * (g + v + HALF) * (h - v - HALF)
        return -4 * (g - v - HALF) * (h + v + HALF)
    raise ValueError("virtual energies are provided for L and J")


# -- norm ratios ---------------------------------------------------------------


def classical_h_step(params: ParamSet, n: int) -> Rat:
    """h_n / h_{n-1} for the undeformed L or J family, free of Gamma
    factors."""
    if n < 1:
        raise ValueError("need n >= 1")
    if params.fam == "L":
        return Fraction(n + params.g - HALF, 1) / n
    if params.fam == "J":
        g, h, a = params.g, params.h, params.a
        nonzero_factors(a, n, "the norm ratio h_n/h_(n-1)",
                        {"2n+a": 2 * n + a, "n+a-1": n + a - 1})
        return ((n + g - HALF) * (n + h - HALF) * (2 * n + a - 2)
                / (n * (2 * n + a) * (n + a - 1)))
    raise ValueError("norm ratios are provided for L and J")


# -- classical polynomials ------------------------------------------------------


def _rising(base: Rat, count: int) -> Rat:
    """base*(base+1)*...*(base+count-1)."""
    out = Fraction(1)
    for i in range(count):
        out = out * (base + i)
    return out


def classical_poly(fam: str, n: int, params: ParamSet) -> EtaPoly:
    """Degree-n classical eigenpolynomial in eta (L or J).

    Conventions: L uses the weight exponent g - 1/2, J uses
    (g - 1/2, h - 1/2); these are the polynomials annihilated by the
    classical operators built below, with eigenvalues 4n (L) and 4n(n+g+h)
    (J).  Both are

        L_n^(alpha)(eta)  = sum_k (alpha+k+1)_(n-k) (-1)^k / ((n-k)! k!) eta^k,
        P_n^(alpha,beta)  = sum_m (alpha+m+1)_(n-m) (n+alpha+beta+1)_m
                                  / ((n-m)! m!) ((eta-1)/2)^m,

    the second being the hypergeometric form (alpha+1)_n/n!
    2F1(-n, n+alpha+beta+1; alpha+1; (1-eta)/2) after
    (alpha+1)_n/(alpha+1)_m = (alpha+m+1)_(n-m); both sides are polynomials
    in alpha and beta, so they agree identically.

    They are built on integers in O(n^2) integer operations.  With
    alpha = p/q (and beta = p'/q over the same q), alpha + j = (p + j q)/q,
    so (alpha+k+1)_(n-k) = T_k / q^(n-k) for the integer
    T_k = prod_{j=k+1..n} (p + j q), and 1/((n-k)! k!) = C(n,k)/n!.  Hence

        [eta^k] L_n^(alpha) = (-1)^k C(n,k) q^k T_k / (q^n n!),

    and likewise (n+alpha+beta+1)_m = B_m / q^m with
    B_m = prod_{i<m} (p + p' + (n+1+i) q), so that

        P_n^(alpha,beta) = sum_m C(n,m) T_m B_m 2^(n-m) (eta-1)^m / (2^n q^n n!),

    summed by Horner's rule in eta - 1 on the integer numerators.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    return EtaPoly._reduced(*_classical_numerators(fam, n, _classical_constants(fam, params)))


def _classical_constants(fam: str, params: ParamSet) -> tuple[int, int, int]:
    """The integers (p, q, s) of ``classical_poly``, which depend on the
    parameters alone: alpha = p/q, and for J alpha + beta = s/q over the
    same q (s = 0 for L)."""
    if fam == "L":
        alpha = params.g - HALF
        return alpha.numerator, alpha.denominator, 0
    if fam == "J":
        alpha, beta = params.g - HALF, params.h - HALF
        q = math.lcm(alpha.denominator, beta.denominator)
        p = alpha.numerator * (q // alpha.denominator)
        return p, q, p + beta.numerator * (q // beta.denominator)
    raise ValueError("classical polynomials are provided for L and J only")


def _classical_numerators(fam: str, n: int, constants: tuple[int, int, int]
                          ) -> tuple[list[int], int]:
    """``classical_poly`` of degree n >= 0 as integer numerators over a
    positive denominator, not yet in lowest terms, from the
    ``_classical_constants`` (p, q, s) of its parameters."""
    p, q, s = constants
    if fam == "L":
        num = [0] * (n + 1)
        T = 1  # T_k, from k = n down
        for k in range(n, -1, -1):
            num[k] = (-1) ** k * math.comb(n, k) * q ** k * T
            T *= p + k * q
        return num, q ** n * math.factorial(n)
    B = [1]
    for m in range(1, n + 1):
        B.append(B[-1] * (s + (n + m) * q))
    num: list[int] = []  # numerators, low to high
    T = 1  # T_m, from m = n down
    for m in range(n, -1, -1):
        # num <- num * (eta - 1) + C(n,m) T_m B_m 2^(n-m)
        num = [hi - lo for lo, hi in zip([*num, 0], [0, *num])]
        num[0] += math.comb(n, m) * T * B[m] << (n - m)
        T *= p + m * q
    return num, (2 * q) ** n * math.factorial(n)


def c2_poly(fam: str) -> EtaPoly:
    """Second-order coefficient of the similarity-transformed Hamiltonian."""
    if fam == "L":
        return EtaPoly._reduced([0, 1], 1)  # eta
    if fam == "J":
        return EtaPoly._reduced([1, 0, -1], 1)  # 1 - eta^2
    raise ValueError("c2 is defined for the differential families L and J")


def c1_poly(fam: str, params: ParamSet, dg: int = 0, dh: int = 0) -> EtaPoly:
    """First-order coefficient of the classical operator
    H_cl = -4*(c2*d^2 + c1*d), at the parameters shifted by the integers
    dg and dh to g + dg (and h + dh for J): g + dg + 1/2 - eta for L and
    (h - g) - (g + h + 1)*eta for J.  Built on integers: with g = G/m (and
    h = H/m over the same m), g + dg = (G + dg*m)/m."""
    g = params.g
    if fam == "L":
        m = g.denominator
        G = 2 * (g.numerator + dg * m)
        return EtaPoly._reduced([G + m, -2 * m], 2 * m)
    if fam == "J":
        h = params.h
        m = math.lcm(g.denominator, h.denominator)
        G = g.numerator * (m // g.denominator) + dg * m
        H = h.numerator * (m // h.denominator) + dh * m
        return EtaPoly._reduced([H - G, -(G + H + m)], m)
    raise ValueError("c1 is defined for the differential families L and J")


# -- Hamiltonian builders --------------------------------------------------------


def _cleared_numerators(A2: EtaPoly, A1: EtaPoly, A0: EtaPoly, W: EtaPoly
                        ) -> tuple[Sequence[int], ...]:
    """(a2, a1, a0, w): the integer numerators D*A2, D*A1, D*A0 and D*W of
    the cleared operator H = -4*W^-1*(A2*d^2 + A1*d + A0), over the lcm D
    of the four denominators."""
    D = math.lcm(A2.den, A1.den, A0.den, W.den)
    return tuple(_scaled(A, D) for A in (A2, A1, A0, W))


def _scaled(A: EtaPoly, D: int) -> Sequence[int]:
    """The numerators of A over D, a multiple of A.den."""
    return A.num if A.den == D else [x * (D // A.den) for x in A.num]


def _residual_numerators(a2: Sequence[int], a1: Sequence[int], a0: Sequence[int],
                         w: Sequence[int], F: Sequence[int], e: int, q: int) -> list[int]:
    """4*q*(a2*F'' + a1*F' + (a0 + (e/q)/4*w)*F) on integer lists, formed as
    a2*(4q*F'') + a1*(4q*F') + (4q*a0 + e*w)*F in one accumulated sum
    (``exactalg.convolve_sum``); untrimmed."""
    q4 = 4 * q
    F1 = [q4 * k * x for k, x in enumerate(F)][1:]
    F2 = [k * x for k, x in enumerate(F1)][1:]
    B = [q4 * x for x in a0]
    B.extend([0] * (len(w) - len(B)))
    B[:len(w)] = map(operator.add, B, map(e.__mul__, w))
    return convolve_sum([(a2, F2), (a1, F1), (B, F)])


def cleared_hamiltonian(fam: str, D: MultiIndex, params: ParamSet,
                        xi: EtaPoly) -> tuple[EtaPoly, EtaPoly, EtaPoly]:
    """The cleared numerators (c2*xi, N1, N0) of the deformed Hamiltonian
    H = -4*xi^-1*(c2*xi*d^2 + N1*d + N0), in closed form:

        N1 = c1(eta; lambda_D)*xi - 2*c2*xi',
        N0 = c2*xi'' - c1(eta; lambda_D - 1)*xi',

    with c1 the first-order coefficient of the classical operator
    (``c1_poly``) at the shifted parameters lambda_D: g + M_I - M_II for L,
    and (g + M_I - M_II, h - M_I + M_II) for J, where lambda_D - 1 lowers
    every entry by 1.  This is the multi-indexed Laguerre/Jacobi operator of
    Odake & Sasaki, Phys. Lett. B 702 (2011) 164, arXiv:1105.0508, in the
    variable eta.  D = {} (xi = 1) gives (c2, c1, 0), the classical operator.
    Each numerator is one integer combination over one denominator: c2 has
    integer coefficients, so with xi = X/t, and c1 = C/u at lambda_D and
    C'/u' at lambda_D - 1, N1 = (C*X - 2u*c2*X')/(u*t) and
    N0 = (u'*c2*X'' - C'*X')/(u'*t).

    Nothing here is trusted: every level a family reads is decided against
    this H by ``eigen_validate`` (``DeformedFamily.check_levels``, from
    n = 0 at construction), so a wrong formula fails the build and cannot
    reach a verdict.  For the built-in single seeds of L and J and for the
    shipped plugins it is the operator that the eigen-equations of P_0..P_2
    determine uniquely (the tests fit that operator by an exact linear
    solve and compare).  No multi-seed data ships with the package: for a
    multi-seed plugin the formula is checked only by the eigen residuals of
    the levels that are read.
    """
    s = D.M1 - D.M2
    c2 = c2_poly(fam).num
    X, t = xi.num, xi.den
    X1 = [k * x for k, x in enumerate(X)][1:]
    X2 = [k * x for k, x in enumerate(X1)][1:]
    ca, cb = c1_poly(fam, params, s, -s), c1_poly(fam, params, s - 1, -s - 1)
    N1 = convolve_sum([(ca.num, X), ([-2 * ca.den * c for c in c2], X1)])
    N0 = convolve_sum([([cb.den * c for c in c2], X2), ([-c for c in cb.num], X1)])
    return (EtaPoly._reduced(convolve_sum([(c2, X)]), t),
            EtaPoly._reduced(N1, ca.den * t), EtaPoly._reduced(N0, cb.den * t))


def eigen_validate(H_numerators: tuple[Sequence[int], ...], pn: EtaPoly,
                   En: Rat, n: int) -> None:
    """H P_n = E_n P_n exactly, for H = -4*W^-1*(A2*d^2 + A1*d + A0) with
    W = xi, held as ``H_numerators`` = ``_cleared_numerators(A2, A1, A0, W)``
    = (a2, a1, a0, w) over the lcm D of the denominators.

    The residual A2*f'' + A1*f' + (A0 + (E/4)*W)*f at f = P_n, E = E_n is
    the eigen-equation in eta: H f - E f = -4*W^-1*(A2*f'' + A1*f' + A0*f
    + (E/4)*W*f), and W = xi is a nonzero polynomial (degree ell >= 0), so
    the residual is zero exactly when H f = E f.  No division is needed,
    and a wrong f whose image H f is not even a polynomial simply gives a
    nonzero residual.

    Integer form.  With f = F/t and E = e/q in lowest terms, 4*q*D*t times
    the residual is the one integer combination ``_residual_numerators`` of
    a2, a1, a0, w, F, e and q: every product in it is multiplied by the same
    positive integer 4*q*D*t, so the equation holds exactly when every entry
    of that list is zero.  Nothing is reduced, and E is read through its
    numerator and denominator, so an int E builds no Fraction.
    EigenValidationFailed names n otherwise."""
    if any(_residual_numerators(*H_numerators, pn.num, En.numerator, En.denominator)):
        raise EigenValidationFailed(f"eigen-equation fails at n={n}")


# -- deformed families -----------------------------------------------------------


class DeformedFamily:
    """One solvable system: family tag, multi-index, parameters, exact data.

    The eigenpolynomials come from ``rule``, held as data: either the pair
    (A, B) of polynomials in eta, with P(n) = A*P_n' + B*P_n over the
    classical P_n (a tuple; the undeformed family is (0, 1) with xi = 1),
    or the explicit list P(0)..P(p_max) of a plugin.  The parameters are
    bound: results symbolic in them come from exact samples
    (``closure.symbolic_closure``).  The Hamiltonian is built in closed
    form (``cleared_hamiltonian``) and held as its cleared numerators
    ``H_cleared`` = (c2*xi, N1, N0), so
    H = -4*xi^-1*(c2*xi*d^2 + N1*d + N0), and it is checked on
    P_0..P_VALIDATE_N.  What every level reads is converted once, at
    construction: ``H_numerators``, the integer numerators of
    (c2*xi, N1, N0, xi) over one denominator, which ``eigen_validate``
    reads, and for a classical combination the numerators of (A, B) over
    one denominator and the ``_classical_constants`` of the parameters,
    from which P(n) is formed.  P(n) generation and the energies E(n) are
    memoized per instance, and so is the level store that the closure
    engine and the ladders read (``closure.level_coordinates``):
    ``checked_levels``, the levels m whose H P_m = E_m P_m has been checked
    by ``check_levels`` (P_0..P_VALIDATE_N at construction, further levels
    when they are first read), ``recurrence_rows``, the zero-remainder
    expansions of X*P_n by (X, n) (``recurrence.recurrence_row``), and
    ``certified_closures``, the coefficient vectors of the closure data
    (R_0..R_{K-1}, R_-1) by X (``closure.ClosureData.vector``), of order
    K = 2 deg X, whose coordinates on levels 0..K the closed-form solve
    decided to be zero (``closure.solve_closure``).
    Instances are otherwise immutable, so a stored entry is what a fresh
    computation gives; parallel tasks should each own their instance.
    """

    def __init__(self, fam: str, D: MultiIndex, params: ParamSet,
                 xi: EtaPoly, rule: tuple[EtaPoly, EtaPoly] | list[EtaPoly],
                 source: str = "builtin"):
        self.fam = fam
        self.D = D
        self.params = params
        self.xi = xi
        self.rule = rule
        self.source = source
        self.label = f"{fam}[{D.label() if D.entries else 'classical'}]"
        self._P_cache: dict[int, EtaPoly] = {}
        self._E_cache: dict[int, Rat] = {}
        self.checked_levels: set[int] = set()
        self.recurrence_rows: dict[tuple[EtaPoly, int], dict[int, Rat]] = {}
        self.certified_closures: dict[EtaPoly, tuple[Rat, ...]] = {}
        self.Etilde = [virtual_energy(params, t, d) for d, t in D.entries]
        self.H_cleared = cleared_hamiltonian(fam, D, params, xi)
        self.H_numerators = _cleared_numerators(*self.H_cleared, xi)
        if isinstance(rule, tuple):
            A, B = rule
            den = math.lcm(A.den, B.den)
            self._rule_numerators = (_scaled(A, den), _scaled(B, den), den)
            self._classical = _classical_constants(fam, params)
        self.check_levels(VALIDATE_N)

    # polynomial eigendata --------------------------------------------------

    @property
    def p_max(self) -> int | None:
        """The top level of an explicit rule; None for a classical
        combination, which gives every level."""
        return len(self.rule) - 1 if isinstance(self.rule, list) else None

    def P(self, n: int) -> EtaPoly:
        """Eigenpolynomial of degree ell + n by the family's rule; zero for
        n < 0."""
        if n < 0:
            return EtaPoly()
        if n not in self._P_cache:
            if isinstance(self.rule, list):
                if n > self.p_max:
                    raise SchemaError(f"{self.label}: polynomials available "
                                      f"only up to n={self.p_max}")
                p = self.rule[n]
            else:
                # A*P_n' + B*P_n on the numerators F/t of the classical P_n
                A, B, den = self._rule_numerators
                F, t = _classical_numerators(self.fam, n, self._classical)
                p = EtaPoly._reduced(convolve_sum([
                    (A, [k * x for k, x in enumerate(F)][1:]), (B, F)]), den * t)
            expected = self.D.ell + n
            if p.degree != expected:
                raise DegreeMismatch(
                    f"{self.label}: deg P({n}) = {p.degree}, expected {expected}")
            self._P_cache[n] = p
        return self._P_cache[n]

    def check_levels(self, top: int) -> None:
        """H P_m = E_m P_m for m = 0..top, in increasing m; each level is
        checked once per family and recorded in ``checked_levels``.  A
        failing level is never recorded, and EigenValidationFailed names it."""
        for m in range(top + 1):
            if m not in self.checked_levels:
                try:
                    eigen_validate(self.H_numerators, self.P(m), self.E(m), m)
                except EigenValidationFailed as exc:
                    raise EigenValidationFailed(f"{self.label}: {exc}") from None
                self.checked_levels.add(m)

    def E(self, n: int) -> Rat:
        """E_n (``energy``), computed once per level."""
        E = self._E_cache.get(n)
        if E is None:
            E = self._E_cache[n] = energy(self.params, n)
        return E

    @property
    def ell(self) -> int:
        return self.D.ell

    def h_ratio(self, n: int, l: int) -> tuple[Rat, Rat]:
        """h_{D,n} / h_{D,n-l} as a pair of Fractions (num, den) with
        den != 0, exact and free of Gamma factors (1 <= l <= n)."""
        if not 1 <= l <= n:
            raise ValueError("need 1 <= l <= n")
        num = Fraction(1)
        for m in range(n - l + 1, n + 1):
            num *= classical_h_step(self.params, m)
        den = Fraction(1)
        for et in self.Etilde:
            num *= self.E(n) - et
            den *= self.E(n - l) - et
        if not den:
            raise ValueError(f"{self.label}: a virtual energy equals E_{n - l}")
        return num, den

    def __repr__(self) -> str:
        return f"DeformedFamily({self.label}, source={self.source})"


def seed_data(fam: str, t: str, params: ParamSet) -> tuple[EtaPoly, EtaPoly]:
    """Logarithmic derivative m = rho'/rho = p/q of the type I/II seed
    prefactor rho (the same for every seed degree), as the pair (p, q)."""
    if fam == "L":
        if t == "I":
            p, q = Fraction(1), [1]  # rho = exp(eta)
        else:
            p, q = HALF - params.g, [0, 1]  # rho = eta^(1/2-g)
    elif fam == "J":
        if t == "I":
            p, q = HALF - params.h, [1, 1]  # rho = (1+eta)^(1/2-h)
        else:
            p, q = HALF - params.g, [-1, 1]  # rho = (1-eta)^(1/2-g)
    else:
        raise ValueError("seed data is provided for L and J")
    return EtaPoly._reduced([p.numerator], p.denominator), EtaPoly._reduced(q, 1)


def canonical_seed(fam: str, t: str, d: int, params: ParamSet) -> EtaPoly:
    """Degree-d seed polynomial in the classical normalization: the
    classical polynomial of the twisted parameters.

    L type I: degree-d Laguerre polynomial at -eta; L type II: Laguerre at
    g -> 1-g.  J type I: Jacobi at (g, 1-h); J type II: Jacobi at (1-g, h).
    The seed is checked as a quasi-eigenfunction (``check_seed``).
    """
    if fam not in ("L", "J"):
        raise ValueError("seeds are provided for L and J")
    if (fam, t) == ("L", "I"):
        seed = classical_poly("L", d, params).reflected()
    else:
        twisted = "h" if (fam, t) == ("J", "I") else "g"
        values = dict(params.values)
        values[twisted] = 1 - values[twisted]
        seed = classical_poly(fam, d, ParamSet(fam, values))
    check_seed(fam, t, d, params, seed)
    return seed


def seed_numerators(fam: str, t: str, params: ParamSet
                    ) -> tuple[list[int], list[int], list[int], list[int], int]:
    """The numerators (A2, A1, A0, W) of ``check_seed`` for the type-t seed,
    as integer lists over one positive denominator, returned last.

    In every case of ``seed_data`` p is a constant and q a polynomial of
    degree <= 1 with integer coefficients, so p' = 0, q' is the integer q1
    (the coefficient of eta) and the general numerators collapse to

        A2 = c2*q^2,  A1 = q*(2p*c2 + c1*q),  A0 = p*(c2*(p - q1) + c1*q),
        W = q^2.

    With p = P/s in lowest terms and c1 = C/u, their common denominator is
    s^2*u, over which they are the integer lists
    s^2*u*c2*q^2, s*q*(2P*u*c2 + s*C*q), P*(u*(P - s*q1)*c2 + s*C*q) and
    s^2*u*q^2.
    """
    p, q = seed_data(fam, t, params)
    P, s = p.num[0] if p else 0, p.den
    Q, q1 = q.num, q.num[1] if q.degree == 1 else 0
    c1 = c1_poly(fam, params)
    C, u = c1.num, c1.den
    c2 = c2_poly(fam).num
    qq = convolve_sum([(Q, Q)])
    W = [s * s * u * x for x in qq]
    A1 = convolve_sum([(Q, [2 * P * u * s * c for c in c2]), (qq, [s * s * c for c in C])])
    A0 = convolve_sum([([P * u * (P - s * q1)], c2), (Q, [P * s * c for c in C])])
    return convolve_sum([(c2, W)]), A1, A0, W, s * s * u


def check_seed(fam: str, t: str, d: int, params: ParamSet, seed: EtaPoly) -> None:
    """Raise EigenValidationFailed unless rho*seed is an eigenfunction of the
    classical operator H_cl = -4*(c2*d^2 + c1*d) at the virtual energy Et
    of the degree-d type-t seed (rho the prefactor of ``seed_data``).

    With m = rho'/rho = p/q:  (rho*xi)' = rho*(xi' + m*xi) and
    (rho*xi)'' = rho*(xi'' + 2*m*xi' + (m' + m^2)*xi).  Dividing
    H_cl(rho*xi) = Et*rho*xi by -4*rho and clearing q^2, where
    (m' + m^2)*q^2 = p'q - pq' + p^2, the condition is that

        c2*q^2*xi'' + (2*c2*p*q + c1*q^2)*xi'
          + (c2*(p'q - pq' + p^2) + c1*p*q)*xi + (Et/4)*q^2*xi

    vanishes: it is the residual of ``eigen_validate`` with W = q^2 and
    these three numerators.  rho and q are nonzero, so this polynomial is
    zero exactly when rho*xi is the quasi-eigenfunction.  Every seed
    prefactor has a constant p (``seed_numerators``, which builds the
    numerators on integers over one denominator S), so the residual is
    decided as the integer list ``_residual_numerators``: the residual
    times the positive integer 4*q_E*S*t, for Et = e/q_E and seed = F/t,
    zero exactly when the residual is.
    """
    A2, A1, A0, W, _ = seed_numerators(fam, t, params)
    Et = virtual_energy(params, t, d)
    if any(_residual_numerators(A2, A1, A0, W, seed.num, Et.numerator, Et.denominator)):
        raise EigenValidationFailed(
            f"{fam} type {t} degree-{d}: the seed is not a quasi-eigenfunction "
            f"at the virtual energy")


def one_step_family(fam: str, t: str, d: int, params: ParamSet) -> DeformedFamily:
    """Single-seed deformation of degree d, built from the exact intertwiner.

    P(n) = q * xi * P_n' - (p * xi + q * xi') * P_n, with m = p/q the seed
    prefactor's logarithmic derivative and xi the seed in the classical
    normalization (canonical_seed), which reproduces the stored minimal-X
    reference rows; the intertwined P(n) are direct images of the classical
    polynomials, so the norm-ratio identities hold without extra constants.
    Parameters at which the virtual energy equals an eigenvalue E_n are a
    ValueError naming n (``degenerate_level``); so are J parameters at which
    the seed loses degree, naming b (``seed_degree_drops``).
    """
    seed = canonical_seed(fam, t, d, params)
    n = degenerate_level(params, t, d)
    if n is not None:
        raise ValueError(f"{fam}[{d}{t}]: the virtual energy equals E_{n}, so "
                         f"the seed is degenerate at these parameters")
    if seed_degree_drops(params, t, d):
        raise ValueError(f"{fam}[{d}{t}]: the seed has degree below {d} at "
                         f"b = {rat_str(params.b)}, so it is degenerate at "
                         f"these parameters")
    # with p = P/s, q = Q and seed = F/u: A = q*seed = Q*F/u and
    # B = -(p*seed + q*seed') = -(P*F + s*Q*F')/(s*u)
    p, q = seed_data(fam, t, params)
    P, s = p.num[0] if p else 0, p.den
    F, u = seed.num, seed.den
    F1 = [k * x for k, x in enumerate(F)][1:]
    rule = (EtaPoly._reduced(convolve_sum([(q.num, F)]), u),
            EtaPoly._reduced(convolve_sum([([-P], F), ([-s * c for c in q.num], F1)]),
                             s * u))
    return DeformedFamily(fam, MultiIndex(((d, t),)), params, seed, rule)


def degenerate_level(params: ParamSet, t: str, d: int) -> int | None:
    """The least level n >= 0 with E_n equal to the virtual energy Et of the
    seed, or None.  L: 4n = Et.  J: ``jacobi_degenerate_level`` at
    a = g + h and b = g - h."""
    if params.fam != "L":
        return jacobi_degenerate_level(params.a, params.b, t, d)
    n = virtual_energy(params, t, d) / 4
    return int(n) if n >= 0 and n.denominator == 1 else None


def jacobi_degenerate_level(a: Rat, b: Rat, t: str, d: int) -> int | None:
    """The least level n >= 0 of J at (a, b) whose energy E_n = 4n(n + a)
    equals the virtual energy Et of the degree-d type-t seed, or None.

    n is a root (-a -+ sqrt(a^2 + Et))/2 of n^2 + a*n - Et/4, and the
    discriminant is always a square: Et = -4*u*v with u + v = g + h = a,
    for (u, v) = (g + d + 1/2, h - d - 1/2) (type I) or
    (g - d - 1/2, h + d + 1/2) (type II), so a^2 + Et = (u - v)^2 with
    u - v = b + 2d + 1 (type I) or b - 2d - 1 (type II).  The roots are
    n = (-a -+ c)/2 for c = |u - v|, the smaller first.  On integers, with
    a = A/m and c = C/m over the lcm m of the denominators of a and b,
    n = (-A -+ C)/(2m) is a level exactly when that numerator is >= 0 and
    divisible by 2m.
    """
    m = math.lcm(a.denominator, b.denominator)
    A = a.numerator * (m // a.denominator)
    shift = 2 * d + 1 if t == "I" else -2 * d - 1
    C = abs(b.numerator * (m // b.denominator) + shift * m)
    return next((x // (2 * m) for x in (-A - C, -A + C)
                 if x >= 0 and not x % (2 * m)), None)


def seed_degree_drops(params: ParamSet, t: str, d: int) -> bool:
    """Whether the degree-d seed (``canonical_seed``) has degree below d.

    The L seeds are Laguerre polynomials, of leading coefficient +-1/d!.
    The J seeds are Jacobi polynomials P_d^(alpha,beta), of leading
    coefficient (d + alpha + beta + 1)_d / (2^d d!) (``classical_poly``),
    at alpha + beta = b for type I (h -> 1 - h) and -b for type II
    (g -> 1 - g).  That is zero exactly when alpha + beta = -(d + 1 + k) for
    some 0 <= k < d: the degree drops on d values of b and at no other
    parameters."""
    if params.fam != "J":
        return False
    s = -params.b if t == "I" else params.b
    return s.denominator == 1 and d + 1 <= s <= 2 * d


def plugin_dict_from_family(df: DeformedFamily) -> dict:
    """Serialize a family as a plugin dictionary that round-trips through
    family_from_plugin_dict: the rule it holds, a classical combination
    (every built-in family) or an explicit list."""
    if isinstance(df.rule, list):
        P = {"kind": "explicit", "polys": [p.record() for p in df.rule]}
    else:
        dp_c, p_c = df.rule
        P = {"kind": "classical-combination",
             "dP_coeff": dp_c.record(), "P_coeff": p_c.record()}
    return {
        "family": df.fam,
        "parameters": {k: rat_str(v) for k, v in df.params.values.items()},
        "D": [{"d": d, "type": t} for d, t in df.D.entries],
        "xi": df.xi.record(),
        "P": P,
    }


def classical_family(fam: str, params: ParamSet) -> DeformedFamily:
    """The undeformed system: D = {}, xi = 1 and the rule (0, 1), so
    P(n) = P_n."""
    one = EtaPoly.const(1)
    return DeformedFamily(fam, MultiIndex(()), params, one, (EtaPoly(), one))


def require_builtin(D: MultiIndex) -> None:
    """ValueError unless D has a built-in family: D = {} or a single seed."""
    if D.M > 1:
        raise ValueError(f"no built-in family for D={D.label()} (supply a plugin)")


def builtin_deformed(fam: str, D: MultiIndex, params: ParamSet) -> DeformedFamily:
    """Built-in systems: the undeformed family for D = {} and the one-step
    deformation for a single L/J seed of any degree; other multi-indices
    need a plugin."""
    require_builtin(D)
    if D.entries == ():
        return classical_family(fam, params)
    (d, t), = D.entries
    return one_step_family(fam, t, d, params)


# -- plugin interface -------------------------------------------------------------


def load_family_plugin(path: str) -> DeformedFamily:
    """Load a deformed family from a JSON plugin file.

    Schema: {family, parameters: {name: 'p/q'}, D: [{d, type}],
    xi: polynomial record, P: classical-combination rule or explicit list}.
    Energy overrides are not permitted.  All invariants (degrees, the
    eigen-equations, norm-ratio symmetry of the minimal recurrence) are
    validated on load.
    """
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise SchemaError("plugin nests deeper than the JSON reader's "
                              "recursion limit") from None
    return family_from_plugin_dict(data)


def family_from_plugin_dict(data: Mapping) -> DeformedFamily:
    if not isinstance(data, Mapping):
        raise SchemaError("plugin must be a JSON object")
    if "energy" in data or "energies" in data:
        raise SchemaError("energy overrides are not permitted")
    for key in ("family", "parameters", "D", "xi", "P"):
        if key not in data:
            raise SchemaError(f"plugin is missing {key!r}")
    fam = data["family"]
    if fam not in ("L", "J"):
        raise SchemaError("plugin families must be L or J (differential operators)")
    if not isinstance(data["parameters"], Mapping):
        raise SchemaError("parameters must be an object of name: 'p/q' entries")
    try:
        params = ParamSet(fam, data["parameters"])
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"bad parameters: {exc}") from None
    try:
        D = MultiIndex(tuple((entry["d"], entry["type"]) for entry in data["D"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad multi-index: {exc}") from None
    xi = _eta_record(data["xi"], "bad xi record", D.ell, "deg xi = {} but ell = {}")
    if xi.degree != D.ell:
        raise DegreeMismatch(f"deg xi = {xi.degree} but ell = {D.ell}")
    rule = data["P"]
    if not isinstance(rule, Mapping):
        raise SchemaError("P must be an object with a 'kind'")
    if rule.get("kind") == "classical-combination":
        what = "bad classical-combination rule"
        try:
            recs = rule["dP_coeff"], rule["P_coeff"]
        except KeyError as exc:
            raise SchemaError(f"{what}: {exc}") from None
        P_rule = tuple(_eta_record(rec, what, D.ell + 1,
                                   f"deg {name} = {{}}, expected at most ell + 1 = {{}}")
                       for rec, name in zip(recs, ("dP_coeff", "P_coeff")))
    elif rule.get("kind") == "explicit":
        what = "bad explicit polynomial list"
        try:
            recs = list(rule["polys"])
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"{what}: {exc}") from None
        if len(recs) < VALIDATE_N + 1:
            raise SchemaError(f"explicit plugin needs at least {VALIDATE_N + 1} polynomials")
        P_rule = [_eta_record(rec, what, D.ell + n,
                              f"{fam}[{D.label()}]: deg P({n}) = {{}}, expected {{}}")
                  for n, rec in enumerate(recs)]
    else:
        raise SchemaError("P rule kind must be 'classical-combination' or 'explicit'")
    df = DeformedFamily(fam, D, params, xi, P_rule, source="plugin")
    _plugin_h_consistency(df)
    return df


def _eta_record(rec, what: str, bound: int, above: str) -> EtaPoly:
    """The polynomial in eta of a plugin record, converted once.

    The record is read sparsely (``ParamPoly.from_record``), and its degree
    is checked against ``bound``, the largest degree the record can legally
    have, before the dense ``EtaPoly`` is built: an exponent such as 10^9
    costs a comparison, not a list of that length.  A malformed record, a
    non-integer exponent or a variable other than eta is a SchemaError
    (``what``: its message prefix); a degree above ``bound`` is a
    DegreeMismatch (``above``, formatted with the degree and the bound).
    """
    try:
        p = ParamPoly.from_record(rec)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{what}: {exc}") from None
    if p.used_vars() not in ((), ("eta",)):
        raise SchemaError(f"{what}: a polynomial in eta is needed, got one in "
                          f"{', '.join(p.used_vars())}")
    if not all(type(k) is int for exps in p.terms for k in exps):
        raise SchemaError(f"{what}: exponents must be integers")
    if p.degree("eta") > bound:
        raise DegreeMismatch(above.format(p.degree("eta"), bound))
    return EtaPoly.from_param(p)


def _plugin_h_consistency(df: DeformedFamily) -> None:
    """Norm-ratio symmetry of the minimal recurrence, checked on load.

    Rows 0..upper read P_0..P_{upper+L}; their eigen-equations are checked
    first, so a broken level is named as such (EigenValidationFailed at
    its n) rather than through the symmetry rows it spoils."""
    from .recurrence import build_X, check_h_symmetry, compute_table

    X = build_X(df.xi, EtaPoly.const(1))
    upper = VALIDATE_N if df.p_max is None else max(
        1, min(VALIDATE_N, df.p_max - df.xi.degree - 1))
    df.check_levels(upper + X.degree)
    table = compute_table(df, X, range(0, upper + 1))
    bad = next((e for e in check_h_symmetry(df, table) if not e["ok"]), None)
    if bad:
        raise EigenValidationFailed(f"{df.label}: norm-ratio symmetry fails "
                                    f"at n={bad['n']}, l={bad['l']}")
