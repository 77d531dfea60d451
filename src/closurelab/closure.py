"""Generalized closure relations: the exact linear solve for the
right-coefficient polynomials, identity certification, conjectured
coefficients from the eigenvalue lists, symbolic reconstruction in the
family parameters, and comparison against the shipped reference tables.

The order-K relation expresses the K-fold commutator of H with X as a
right-linear combination of the lower commutators with polynomial
coefficients R_i(H) plus an inhomogeneous R_-1(H).  Solve and certificate
both work in recurrence coordinates (``level_coordinates``): on an
eigenpolynomial, X P_n = sum_k r_{n,k} P_{n+k} gives
[(ad H)^i X] P_n = sum_k r_{n,k} (E_{n+k} - E_n)^i P_{n+k}, and every R(H)
collapses to the rational R(E_n), so neither an operator nor a commutator
image is ever formed.  Each level's rows are reduced in closed form.  At
the full levels n = L..K they fix R_i(E_n) outright, so where those levels
determine the data each R_i is interpolated through them and every level
is checked by one integer residual pass (``solve_full_levels``); otherwise
the unknown coefficients, which enter linearly, are settled by one exact
linear solve of the integer rows (``solve_closure_system``).  Both settle
existence and uniqueness.  Parameter dependence is then reconstructed from
rational samples: each solve is read as its vector of coefficients of z^j
in R_i, one tensor-grid interpolation (``exactalg.interpolate_grid``)
rebuilds every coefficient at once, and the result is certified at fresh
samples.
"""

from __future__ import annotations

import json
import math
import operator
import os
from fractions import Fraction
from itertools import count, islice
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .exactalg import (EtaPoly, ParamPoly, Rat, SampleMismatch, horner,
                       interpolate_grid, inverse_vandermonde, rat_str,
                       solve_linear_exact)
from .families import (DeformedFamily, EigenValidationFailed, MultiIndex,
                       ParamSet, SchemaError, builtin_deformed,
                       degenerate_level, jacobi_degenerate_level,
                       seed_degree_drops)
from .recurrence import NonzeroRemainder, build_X, recurrence_row, x_degree
from .spectral import (SqrtExpr, alpha_conjecture, elementary_symmetric_R,
                       recursion_vectors, root_expansion)


class NoSolution(Exception):
    """The closure relation of the requested order has no solution
    (falsifies the expected structure for this instance)."""


class TableMissing(Exception):
    """No stored reference row for this (family, D) pair."""


# The exceptions of a failed solve, which every command reports as a check.
SOLVE_FAILURES = (NoSolution, EigenValidationFailed, NonzeroRemainder)


def degree_bounds(K: int) -> dict[int, int]:
    """Degree bounds for R_i (i = -1 stands for the inhomogeneous term) of
    the order-K relation of an L or J family: deg R_i <= (K - i)/2 and
    deg R_-1 <= K/2, so that every term has operator order <= K (H has
    order 2)."""
    bounds = {i: (K - i) // 2 for i in range(K)}
    bounds[-1] = K // 2
    return bounds


def level_coordinates(df: DeformedFamily, X: EtaPoly,
                      n: int) -> list[tuple[int, Rat, Rat]]:
    """(k, r_{n,k}, Delta_{n,k}) for every coordinate P_{n+k}, n + k >= 0,
    of X P_n = sum_{|k| <= L} r_{n,k} P_{n+k}, in increasing k, with
    Delta_{n,k} = E_{n+k} - E_n.

    The row is ``recurrence.recurrence_row``: an exact expansion whose
    remainder is zero.  Before it is read, H P_m = E_m P_m is checked for
    every m <= n + L, in increasing m (``DeformedFamily.check_levels``, once
    per level and family; EigenValidationFailed names the first failing m).
    Then for every i, [(ad H)^i X] P_n = (H - E_n)^i X P_n (since
    [H, A] P_n = (H - E_n) A P_n for any operator A) equals
    sum_k r_{n,k} Delta_{n,k}^i P_{n+k}: each P_{n+k} is an eigenpolynomial,
    so (H - E_n) scales it by Delta_{n,k}.  The P_{n+k} have the distinct
    degrees ell + n + k, so they are linearly independent and a polynomial
    in their span is zero exactly when all its coordinates are.
    """
    L = X.degree
    df.check_levels(n + L)
    row = recurrence_row(df, X, n)
    En = df.E(n)
    return [(k, row[k], df.E(n + k) - En) for k in range(-L, L + 1) if n + k >= 0]


def _levels_through(df: DeformedFamily, X: EtaPoly,
                    N: int) -> Iterator[list[tuple[int, Rat, Rat]]]:
    """level_coordinates on P_0..P_N in turn.  They read P_0..P_{N+L}; a
    plugin that lists fewer levels is a SchemaError naming the levels
    needed."""
    top = N + X.degree
    if df.p_max is not None and df.p_max < top:
        raise SchemaError(f"{df.label}: the closure certificate needs "
                          f"P_0..P_{top}, the plugin lists P_0..P_{df.p_max}")
    return (level_coordinates(df, X, n) for n in range(N + 1))


def ad_powers(H: DiffOp, X: EtaPoly, count: int) -> list[DiffOp]:
    """[X, [H,X], [H,[H,X]], ...] with count+1 entries, as operators.

    Reference route only: the tests check the coordinate images of
    ``level_coordinates`` against it.  Entry 0 is the multiplication
    operator by X.
    """
    from .opalg import DiffOp  # here, so that no command loads the operator algebra

    ads = [DiffOp.mul_by(X.param(), H.var)]
    for _ in range(count):
        ads.append(H.commutator(ads[-1]))
    return ads


def _z_coefficient(poly: ParamPoly, j: int) -> Rat:
    """The coefficient of z^j in ``poly``, which must be numeric in every
    other variable.  A polynomial in z alone, as every solve builds it,
    holds it as its term (j,)."""
    if poly.vars == ("z",):
        return poly.terms.get((j,), Fraction(0))
    c = poly.coeffs_in("z").get(j)
    return c.constant_value() if c is not None else Fraction(0)


class ClosureData:
    """Order-K closure data solved from the operator identity: R_0..R_{K-1}
    and the inhomogeneous R_-1.  ``kernel_dim`` logs solver
    under-determination."""

    __slots__ = ("K", "R", "R_minus1", "kernel_dim")

    def __init__(self, K: int, R: list[ParamPoly], R_minus1: ParamPoly,
                 kernel_dim: int = 0):
        self.K = K
        self.R = R
        self.R_minus1 = R_minus1
        self.kernel_dim = kernel_dim

    @property
    def unique(self) -> bool:
        return self.kernel_dim == 0

    def bounds_ok(self) -> bool:
        bounds = degree_bounds(self.K)
        return all(poly.degree("z") <= bounds[i]
                   for i, poly in [*enumerate(self.R), (-1, self.R_minus1)])

    def coefficient(self, i: int, j: int) -> Rat:
        return _z_coefficient(self.R_minus1 if i == -1 else self.R[i], j)

    def values_at(self, E: Rat) -> tuple[list[Rat], Rat]:
        """(R_0(E), ..., R_{K-1}(E)) and R_-1(E), exact.  Data symbolic in a
        parameter raise ValueError (``ParamPoly.constant_value``)."""
        at = {"z": E}
        return [Ri.evaluate(at) for Ri in self.R], self.R_minus1.evaluate(at)


def _unknown_layout(K: int) -> list[tuple[int, int]]:
    bounds = degree_bounds(K)
    layout = []
    for i in range(K):
        layout.extend((i, j) for j in range(bounds[i] + 1))
    layout.extend((-1, j) for j in range(bounds[-1] + 1))
    return layout


def _level_roots(coords: Sequence[tuple[int, Rat, Rat]]) -> tuple[Rat, list[Rat]]:
    """r_{n,0} and the distinct Delta_{n,k} of the coordinates k != 0 with
    r_{n,k} != 0, in increasing k, of one level's ``coords``."""
    roots: list[Rat] = []
    for k, r, delta in coords:
        if k == 0:
            r0 = r
        elif r and delta not in roots:
            roots.append(delta)
    return r0, roots


def level_rows(coords: Sequence[tuple[int, Rat, Rat]],
               K: int) -> list[tuple[list[int], int]]:
    """Level n's order-K closure rows over its unknowns
    v = (R_0(E_n), ..., R_{K-1}(E_n), R_-1(E_n)), reduced in closed form and
    scaled to integers.

    A row (a, t) stands for sum_i a[i] v_i = t, with the coefficient of
    R_-1(E_n) last (a[-1]).  ``coords`` is ``level_coordinates`` of level n,
    and its coordinate rows are r_{n,k} (Delta^K - sum_i v_i Delta^i)
    - [k = 0] v_-1 = 0 with Delta = Delta_{n,k}.  The k = 0 row is
    r_{n,0} v_0 + v_-1 = 0 (K >= 1), a row with r_{n,k} = 0 is zero, and
    every other row, divided by r_{n,k}, says V(s) = s^K at s = Delta_{n,k}
    for V(x) = sum_{i<K} v_i x^i.  Let S be the distinct such s, m = |S|
    (m <= K, the number of shifts k != 0 of an X of degree K/2) and
    Q(x) = prod_{s in S} (x - s).  The reduced rows say V mod Q = x^K mod Q:
    for i < m, sum_{f<K} [x^i](x^f mod Q) v_f = [x^i](x^K mod Q), where
    x^f mod Q = x^f for f < m.  A full level (m = K) gives v_i = -[x^i] Q.

    The two blocks span the same augmented row space.  Applied to a vector
    (u_0, ..., u_K), the right-hand side taken as column K, the evaluation
    row at s gives p(s) and the remainder row i gives [x^i](p mod Q), for
    p = sum_f u_f x^f.  Both blocks vanish exactly on the p that Q divides,
    since the s are simple roots of Q; equal null spaces give equal row
    spaces.

    Integer rows.  With (S, d) = ``spectral.root_expansion`` of the roots,
    d^m Q(x) = Qt(y) at y = d x for the monic integer
    Qt(y) = y^m - sum_i S_i y^i.  Reducing y^f mod Qt stays in the integers
    (rho_f = ``spectral.recursion_vectors`` on S), and substituting y = d x
    gives x^f mod Q = rho_f(d x)/d^f, so [x^i](x^f mod Q) = rho_{f,i} d^(i-f).
    Row i times d^(K-i) reads sum_f rho_{f,i} d^(K-f) v_f = rho_{K,i}, and
    the k = 0 row times den(r_{n,0}) reads num(r_{n,0}) v_0
    + den(r_{n,0}) v_-1 = 0.  Scaling a row by a nonzero number keeps the
    row space, so these integer rows span the row space above.  A full
    level has rho_f = y^f for f < K and rho_K = S, so its rows are
    d^(K-i) v_i = S_i.
    """
    r0, roots = _level_roots(coords)
    row0 = [0] * (K + 1)
    row0[0], row0[-1] = r0.numerator, r0.denominator
    rows: list[tuple[list[int], int]] = [(row0, 0)]
    if not roots:
        return rows
    S, d = root_expansion(roots)
    rem = recursion_vectors(S, K)  # y^f mod Qt, f = 0..K
    for i in range(len(roots)):
        rows.append(([rem[f][i] * d ** (K - f) for f in range(K)] + [0], rem[K][i]))
    return rows


def closure_system(df: DeformedFamily,
                   X: EtaPoly) -> tuple[list[tuple[int, int]], list[list[int]], list[int]]:
    """The order-K closure system, K = 2 deg X (unknown layout, integer
    rows, right-hand side) in recurrence coordinates on the levels
    n = K, K-1, ..., 0, each level reduced in closed form (``level_rows``).

    The unknown coefficient of z^j in R_i contributes E_n^j [(ad H)^i X] P_n
    (E_n^j P_n for i = -1) and the target is [(ad H)^K X] P_n.  By
    ``level_coordinates`` each level n gives one row per coordinate P_{n+k}:
    r_{n,k} (Delta^K - sum_i R_i(E_n) Delta^i) - [k = 0] R_-1(E_n) = 0, with
    Delta = Delta_{n,k} (Delta^0 = 1 also at k = 0).

    These rows have the solution set of the rows that the eta-coefficients
    of the images give.  Within level n, with V_n the matrix whose columns
    are the eta-coefficients of the P_{n+k}, the eta-coefficient rows of the
    level are V_n times its coordinate rows (augmented column included).
    V_n has independent columns (distinct degrees), so it has a left
    inverse, and each block of rows is a linear image of the other: the two
    blocks span the same row space.

    The reduced rows keep that row space.  Level n's coordinate rows are
    [C_n B_n | t_n], where [C_n | t_n] are its rows over the level unknowns
    v_n and B_n evaluates the layout at E_n (v_{n,i} = sum_j c_{i,j} E_n^j).
    ``level_rows`` gives rows [C'_n | t'_n] with the row space of
    [C_n | t_n], so [C'_n | t'_n] = G [C_n | t_n] and
    [C_n | t_n] = G' [C'_n | t'_n] for some matrices G, G'; multiplying on
    the right by diag(B_n, 1) carries both to the expanded rows, whose row
    spaces are therefore equal too.  Stacked over n, the augmented row
    spaces are equal, so the reduced row echelon forms are equal, and with
    them consistency, rank, pivot columns, the solution and the kernel basis
    that ``solve_linear_exact`` reads off it.  At a full level each reduced
    row touches a single R_i block, so the rows are mostly zero.

    The rows reach ``solve_linear_exact`` as integers: with E_n = e/q in
    lowest terms and J the largest z-degree of the layout, each expanded
    row of level n is multiplied by q^J, so its entries are
    a_i e^j q^(J-j) and its right-hand side t q^J.  Scaling a row by a
    nonzero number keeps the row space, so every ``LinearSolution`` is
    unchanged; it also keeps the zero pattern that pivoting reads.

    The levels are returned highest first.  ``solve_linear_exact`` pivots
    on the first row with a nonzero entry in each column, so this order
    makes the sparse rows of the full levels the pivots, and the mixed rows
    of the low levels are reduced against them instead of filling them in.
    The order changes no result: reordering rows multiplies the augmented
    matrix on the left by a permutation matrix, which is invertible, so the
    augmented row space, and with it the reduced row echelon form and every
    ``LinearSolution`` read off it, is unchanged.
    """
    K = 2 * X.degree
    layout = _unknown_layout(K)
    top_j = max(j for _, j in layout)
    rows: list[list[int]] = []
    rhs: list[int] = []
    levels = list(_levels_through(df, X, K))
    for n in range(K, -1, -1):
        En = df.E(n)
        e, q = En.numerator, En.denominator
        E_pow = [e ** j * q ** (top_j - j) for j in range(top_j + 1)]
        q_top = q ** top_j
        for a, t in level_rows(levels[n], K):
            rows.append([a[i] * E_pow[j] if a[i] else 0 for i, j in layout])
            rhs.append(t * q_top)
    return layout, rows, rhs


def solve_closure(df: DeformedFamily, X: EtaPoly) -> ClosureData:
    """Exact solve of the closure relation of X at bound parameters, of
    order K = 2 deg X: read off the full levels where they determine it
    (``solve_full_levels``), and by the linear system otherwise
    (``solve_closure_system``).  Both give the same ClosureData or raise the
    same exception, since ``solve_full_levels`` finds the unique solution
    of the system that the other one solves, or proves there is none.
    Data read off the full levels come with every coordinate c_{n,k} on
    levels 0..K decided to be zero, and the family records them in
    ``certified_closures`` under X, so the certificate of the same data
    does not decide those coordinates again."""
    levels = list(_levels_through(df, X, 2 * X.degree))
    cd = solve_full_levels(df, X.degree, levels)
    if cd is None:
        return solve_closure_system(df, X)
    df.certified_closures[X] = (*cd.R, cd.R_minus1)
    return cd


def solve_full_levels(df: DeformedFamily, L: int,
                      levels: Sequence[list[tuple[int, Rat, Rat]]]
                      ) -> ClosureData | None:
    """The order-K closure data, K = 2L, read off the full levels, with no
    linear solve; None when the levels do not determine it this way.

    ``levels`` is ``level_coordinates`` of levels 0..K, for an X of degree
    L.  The closed form applies when every level n = L..K is full (its K
    coordinates k != 0 have r_{n,k} != 0 and K distinct Delta_{n,k}), and
    E_L..E_K are distinct.  Then by ``level_rows`` the
    rows of level n say exactly v_i = S_i/d^(K-i)
    (``spectral.root_expansion``) and v_-1 = -r_{n,0} v_0, for
    v_i = R_i(E_n).

    Uniqueness.  R_i has degree at most b_i <= L (``degree_bounds``), and
    its values at the b_i + 1 <= L + 1 distinct nodes E_L..E_{L+b_i} are
    fixed, so exactly one polynomial of that degree takes them: R_i is that
    interpolant, from one integer-scaled inverse Vandermonde matrix per
    distinct bound (``exactalg.inverse_vandermonde``; the node lists are
    prefixes of E_L..E_K), with one Fraction per coefficient.  Every
    solution of the system agrees with it, and two solutions differ by
    polynomials of degree <= b_i with b_i + 1 distinct roots, which are
    zero: kernel_dim = 0.

    Consistency.  The system (``closure_system``) has the solution set of
    the coordinate rows c_{n,k} = 0, n = 0..K, of
    ``verify_closure_identity``.  So a solution exists exactly when the
    interpolants make every c_{n,k} with n <= K vanish, which
    ``_first_residual`` decides on integers; a nonzero one raises the
    NoSolution that the inconsistent system raises.
    """
    K = 2 * L
    full = range(L, K + 1)
    nodes = [df.E(n) for n in full]
    if len(set(nodes)) != len(nodes):
        return None
    values = []  # per full level: v_0..v_{K-1}, v_-1
    for n in full:
        r0, roots = _level_roots(levels[n])
        if len(roots) != K:
            return None
        S, d = root_expansion(roots)
        v = [Fraction(S[i], d ** (K - i)) for i in range(K)]
        values.append([*v, -r0 * v[0]])
    bounds = degree_bounds(K)
    inverses = {b: inverse_vandermonde(nodes[:b + 1]) for b in set(bounds.values())}
    coeffs = []  # z-coefficients of R_0..R_{K-1} and R_-1, padded to degree L
    for i in [*range(K), -1]:
        W, s = inverses[bounds[i]]
        ys = [vals[i] for vals in values[:bounds[i] + 1]]
        den = math.lcm(*(y.denominator for y in ys))
        Y = [y.numerator * (den // y.denominator) for y in ys]
        coeffs.append([Fraction(sum(map(operator.mul, w, Y)), s * den) for w in W]
                      + [Fraction(0)] * (L - bounds[i]))
    if not _first_residual(df, coeffs, levels):
        raise NoSolution(f"order-{K} closure relation has no solution")
    return _solved_data(K, [coeffs[i][j] for i, j in _unknown_layout(K)], 0)


def solve_closure_system(df: DeformedFamily, X: EtaPoly) -> ClosureData:
    """Exact solve of the closure relation of X, of order K = 2 deg X, by
    one linear system, whatever the levels: the route of ``solve_closure``
    when the full levels do not determine the data.

    The system is ``closure_system`` on the levels n = 0..K.  The degree
    bounds keep every term (ad H)^i X o H^j at operator order i + 2j <= K,
    so by the argument in ``verify_closure_identity`` a candidate relation
    vanishes on P_0..P_K exactly when it holds as an operator identity: the
    solution set, and with it kernel_dim, is that of coefficient-wise
    operator equality.  A nontrivial kernel is reported via
    kernel_dim/unique, and then (only then) the conjectured R_0..R_{K-1}
    (``conjectured_R``) must lie in the affine solution set, and the
    returned data is that point of it: the particular solution plus the
    fitted combination of kernel vectors.  R_-1 stays free along any kernel
    direction that leaves R_0..R_{K-1} fixed; the fit gives the free
    unknowns of its own solve weight 0.
    Raises NoSolution when the linear system is inconsistent, or when the
    conjectured point lies outside a nontrivial solution set.
    """
    layout, rows, rhs = closure_system(df, X)
    sol = solve_linear_exact(rows, rhs)
    if not sol.consistent:
        raise NoSolution(f"order-{2 * X.degree} closure relation has no solution")
    kernel_dim = len(sol.kernel_basis)
    point = sol.solution
    if kernel_dim:
        conj = conjectured_R(alpha_conjecture(df.fam, X.degree, df.params))
        known = [idx for idx, (i, _) in enumerate(layout) if i >= 0]
        diff = [_z_coefficient(conj[layout[idx][0]], layout[idx][1])
                - point[idx] for idx in known]
        fit = solve_linear_exact(
            [[vec[idx] for vec in sol.kernel_basis] for idx in known], diff)
        if not fit.consistent:
            raise NoSolution("conjectured data lies outside the solution set")
        point = [x + sum(c * vec[idx]
                         for c, vec in zip(fit.solution, sol.kernel_basis))
                 for idx, x in enumerate(point)]
    return _solved_data(2 * X.degree, point, kernel_dim)


def _solved_data(K: int, coeffs: Sequence, kernel_dim: int) -> ClosureData:
    """ClosureData from the coefficients of z^j in R_i, listed in
    ``_unknown_layout(K)`` order: Rats, or ParamPolys in the parameters that
    all hold the same variables, as ``interpolate_grid`` returns them.  Each
    R_i is built from its terms; the parameters rank after z in
    ``exactalg._VAR_PRIORITY``, so (z, *params) is the variable order that
    ParamPoly arithmetic would give."""
    params = coeffs[0].vars if isinstance(coeffs[0], ParamPoly) else ()
    terms: dict[int, dict[tuple[int, ...], Rat]] = {i: {} for i in [*range(K), -1]}
    for (i, j), c in zip(_unknown_layout(K), coeffs):
        if params:
            terms[i].update(((j, *e), x) for e, x in c.terms.items())
        elif c:
            terms[i][(j,)] = c
    R = [ParamPoly(("z", *params), terms[i]) for i in [*range(K), -1]]
    return ClosureData(K, R[:-1], R[-1], kernel_dim)


class IdentityVerdict:
    """Verdict of ``verify_closure_identity``, true when the identity holds.

    A false verdict carries its witness: the first level n, and within it
    the first shift k, whose coordinate ``residual`` of A P_n at P_{n+k} is
    nonzero."""

    __slots__ = ("n", "k", "residual")

    def __init__(self, n: int | None = None, k: int | None = None,
                 residual: Rat | None = None):
        self.n, self.k, self.residual = n, k, residual

    def __bool__(self) -> bool:
        return self.n is None


def verify_closure_identity(df: DeformedFamily, X: EtaPoly,
                            cd: ClosureData) -> IdentityVerdict:
    """Exact verdict on the order-K relation as an operator identity,
    decided on integer numerators.

    The relation A = (ad H)^K X - sum_i (ad H)^i X o R_i(H) - R_-1(H) is a
    differential operator of order at most N = max(K, i + 2 deg R_i,
    2 deg R_-1), since (ad H)^i X has order <= i and H has order 2.  On an
    eigenpolynomial R(H) P_n = R(E_n) P_n, so by ``level_coordinates``
    A P_n = sum_k c_{n,k} P_{n+k} with
    c_{n,k} = r_{n,k} (Delta^K - sum_i R_i(E_n) Delta^i) - [k = 0] R_-1(E_n),
    and A P_n = 0 exactly when every c_{n,k} is zero, since the P_{n+k} are
    independent.  A nonzero operator of order <= N has at most N linearly
    independent solutions, while P_0..P_N, of the distinct degrees
    ell..ell+N, are N+1 independent ones: c_{n,k} = 0 for n = 0..N, with
    H P_m = E_m P_m checked for every m <= N + L, proves A = 0.  The levels
    that ``solve_closure`` read are taken from the family's store, where
    each was checked once.  A false verdict names the first nonzero c_{n,k}
    (increasing n, then k); it is a report, not an error.  R data must be
    numeric in z: data symbolic in a parameter raise ValueError.  Each
    c_{n,k} is decided on integer numerators (``_first_residual``).

    When ``solve_closure`` read these very data off the full levels of
    this family (equal R_0..R_{K-1}, R_-1 in ``certified_closures`` under
    X), it has already decided c_{n,k} = 0 for n = 0..K.  Those data
    are within the degree bounds, so N = K and that is the whole verdict:
    it is returned without deciding the levels again.  Any other data, a
    perturbed or a hand-built relation among them, are decided here, with
    the same witness.
    """
    polys = [*cd.R, cd.R_minus1]
    N = max([cd.K, 2 * cd.R_minus1.degree("z")]
            + [i + 2 * Ri.degree("z") for i, Ri in enumerate(cd.R)])
    levels = _levels_through(df, X, N)  # a short plugin fails before symbolic data
    if df.certified_closures.get(X) == tuple(polys):
        return IdentityVerdict()
    J = max(0, *(poly.degree("z") for poly in polys))
    coeffs = [[_z_coefficient(poly, j) for j in range(J + 1)] for poly in polys]
    return _first_residual(df, coeffs, levels)


def _first_residual(df: DeformedFamily, coeffs: Sequence[Sequence[Rat]],
                    levels: Iterable[list[tuple[int, Rat, Rat]]]) -> IdentityVerdict:
    """The verdict on the coordinates c_{n,k} of ``verify_closure_identity``
    over ``levels``, the ``level_coordinates`` of levels 0, 1, ... in turn:
    false with the first nonzero c_{n,k} (increasing n, then k), true when
    every one is zero.  ``coeffs`` lists the z-coefficients of R_0..R_{K-1}
    and R_-1 (K + 1 lists, each of length J + 1, padded with zeros).

    Integer form.  With c the lcm of the denominators of every coefficient,
    R_i(z) = sum_j A_ij z^j / c for integers A_ij, j <= J.  At E_n = e/q in
    lowest terms, a_i = c q^J R_i(E_n) = sum_j A_ij e^j q^(J-j) is an
    integer (``exactalg.horner``).  At a coordinate with Delta = p/d in
    lowest terms and r_{n,k} = r_num/r_den, multiplying c_{n,k} by
    c q^J d^K r_den gives
    r_num (c q^J p^K - sum_i a_i p^i d^(K-i)) - [k = 0] a_-1 d^K r_den
    = r_num (c q^J p^K - d H) - [k = 0] a_-1 d^K r_den,
    H = sum_i a_i p^i d^(K-1-i) (``horner`` again).  The factor
    c q^J d^K r_den is a positive integer, so this integer is zero exactly
    when c_{n,k} is, and the witness is the integer over that factor: the
    same rational c_{n,k}.
    """
    K, J = len(coeffs) - 1, len(coeffs[0]) - 1
    c = math.lcm(*(x.denominator for row in coeffs for x in row))
    A = [[x.numerator * (c // x.denominator) for x in row] for row in coeffs]
    for n, coords in enumerate(levels):
        En = df.E(n)
        e, q = En.numerator, En.denominator
        *a, a_minus1 = (horner(row, e, q) for row in A)
        cq = c * q ** J
        for k, r, delta in coords:
            p, d = delta.numerator, delta.denominator
            val = r.numerator * (cq * p ** K - d * horner(a, p, d)) if r else 0
            if k == 0:
                val -= a_minus1 * d ** K * r.denominator
            if val:
                return IdentityVerdict(n, k, Fraction(val, cq * d ** K * r.denominator))
    return IdentityVerdict()


def conjectured_R(alphas: Sequence[SqrtExpr]) -> list[ParamPoly]:
    """R_0..R_{2L-1} expanded from the conjectured eigenvalue list
    ``alphas`` = spectral.alpha_conjecture(fam, L, params)
    (``spectral.elementary_symmetric_R``); each must come out square-root
    free, a polynomial in z, or ``SqrtExpr.poly_part`` raises ValueError.
    The eigenvalues leave the inhomogeneous term undetermined."""
    return [c.poly_part() for c in elementary_symmetric_R(alphas)]


# -- parameter reconstruction ---------------------------------------------------


def _sample_str(binding: Mapping[str, Rat]) -> str:
    return ", ".join(f"{name}={rat_str(v)}" for name, v in binding.items())


def _solve_sample(solve_at: Callable[[Mapping[str, Rat]], ClosureData],
                  binding: Mapping[str, Rat]) -> ClosureData:
    """solve_at(binding); a solve that fails names the sample it failed at."""
    try:
        return solve_at(binding)
    except SOLVE_FAILURES as exc:
        raise type(exc)(f"at the sample {_sample_str(binding)}: {exc}") from exc


def reconstruct_closure(solve_at: Callable[[Mapping[str, Rat]], ClosureData],
                        nodes: Mapping[str, Sequence[Rat]],
                        fresh: Sequence[Mapping[str, Rat]]) -> ClosureData:
    """Solve at rational parameter samples and rebuild symbolic coefficients.

    ``nodes`` lists each parameter's interpolation nodes: with m nodes the
    parameter's degree bound is m - 1, and the samples are the tensor grid
    of the node lists.  Every grid point and every ``fresh`` point is solved
    once, and each solve is read as its vector of coefficients of z^j in
    R_i, in ``_unknown_layout`` order of the solves' order K.  One
    ``interpolate_grid`` call interpolates every coefficient on the grid,
    and each is certified at the fresh points: the first disagreement raises SampleMismatch naming
    R_i z^j and the fresh point.  A NoSolution, EigenValidationFailed or
    NonzeroRemainder raised by a solve names its sample.
    """
    names = list(nodes)
    bounds = {name: len(nodes[name]) - 1 for name in names}
    points: list[tuple] = [()]
    for name in names:
        points = [p + (v,) for p in points for v in nodes[name]]
    grid = {p: _solve_sample(solve_at, dict(zip(names, p))) for p in points}
    K = next(iter(grid.values())).K
    layout = _unknown_layout(K)
    rebuilt = interpolate_grid({p: [cd.coefficient(i, j) for i, j in layout]
                                for p, cd in grid.items()}, bounds, names)
    for binding in fresh:
        got = _solve_sample(solve_at, binding)
        for (i, j), poly in zip(layout, rebuilt):
            if poly.evaluate(binding) != got.coefficient(i, j):
                degrees = ", ".join(f"{name} <= {b}" for name, b in bounds.items())
                raise SampleMismatch(
                    f"R_{i} z^{j} disagrees with its interpolant ({degrees}) "
                    f"at the fresh sample {_sample_str(binding)}")
    return _solved_data(K, rebuilt, max(cd.kernel_dim for cd in grid.values()))


def closure_for_family(df: DeformedFamily,
                       Y: EtaPoly) -> tuple[ClosureData, EtaPoly]:
    """Solve the closure relation for one family instance at its bound
    parameters, with the minimal-or-higher X built from (xi, Y)."""
    X = build_X(df.xi, Y)
    return solve_closure(df, X), X


# Symbolic reconstruction walks each parameter from its start in steps of
# 1/2, in the variables of ``ParamSet.reference_values``.
_NODE_START = {"g": Fraction(2), "a": Fraction(8), "b": Fraction(-1)}
_NODE_STEP = Fraction(1, 2)


def _walk(name: str) -> Iterator[Rat]:
    return (_NODE_START[name] + k * _NODE_STEP for k in count())


def symbolic_nodes(fam: str, D: MultiIndex, bounds: Mapping[str, int]
                   ) -> tuple[dict[str, list[Rat]], list[dict[str, Rat]]]:
    """Interpolation nodes and the two fresh certification points for the
    built-in family (fam, D) under the given degree bounds.

    A point is usable when no seed of D is degenerate there: no virtual
    energy equals an eigenvalue (``degenerate_level``; for J a function of
    (a, b) alone, ``jacobi_degenerate_level``) and no seed loses degree
    (``seed_degree_drops``, which for J depends on b alone).  Each parameter
    takes the first bound + 3 accepted values of its walk (``_NODE_START``
    in steps of 1/2): the first bound + 1 are its nodes, and value
    bound + 1 + k is its coordinate of fresh point k.  L accepts the usable
    values of g.  J accepts the values of b where no seed loses degree,
    then a value of a only when no seed is degenerate at (a, b) for every
    one of them, so every grid point and both fresh points are usable; each
    b is decided once for the degree and each (a, b) once for degeneracy.
    The walks end: a seed of degree d is degenerate at level n only where
    g = d + 1/2 - n (L type II; L type I never for g > 0) or
    2n + a = +-(b + 2d + 1) (J type I; b - 2d - 1 for type II), finitely
    many g, and finitely many a for each b; it loses degree at d values of b.
    """
    if fam == "L":
        def usable(g: Rat) -> bool:
            # L seeds never lose degree (``seed_degree_drops``)
            ps = ParamSet("L", {"g": g})
            return all(degenerate_level(ps, t, d) is None for d, t in D.entries)

        values = {"g": list(islice(filter(usable, _walk("g")), bounds["g"] + 3))}
    else:
        a0 = _NODE_START["a"]
        b_walk = (b for b in _walk("b") if not any(
            seed_degree_drops(ParamSet.at_reference(fam, {"a": a0, "b": b}), t, d)
            for d, t in D.entries))
        bs = list(islice(b_walk, bounds["b"] + 3))
        a_walk = (a for a in _walk("a") if all(
            jacobi_degenerate_level(a, b, t, d) is None for b in bs for d, t in D.entries))
        values = {"a": list(islice(a_walk, bounds["a"] + 3)), "b": bs}
    nodes = {name: vals[:bounds[name] + 1] for name, vals in values.items()}
    fresh = [{name: vals[bounds[name] + 1 + k] for name, vals in values.items()}
             for k in range(2)]
    return nodes, fresh


def symbolic_closure(fam: str, D: MultiIndex, Y: EtaPoly) -> ClosureData:
    """Closure data of the built-in family (fam, D) symbolically in its
    parameters: g for L, (a, b) for J.  Exact solves on the grid of
    ``symbolic_nodes`` with degree bounds K/2 in g, K in a and K - 1 in b,
    then certification at its two fresh points (``reconstruct_closure``)."""
    K = 2 * x_degree(D.ell, Y.degree)
    bounds = {"g": K // 2} if fam == "L" else {"a": K, "b": K - 1}
    nodes, fresh = symbolic_nodes(fam, D, bounds)

    def solve_at(binding: Mapping[str, Rat]) -> ClosureData:
        df = builtin_deformed(fam, D, ParamSet.at_reference(fam, binding))
        return closure_for_family(df, Y)[0]

    return reconstruct_closure(solve_at, nodes, fresh)


# -- reference tables -------------------------------------------------------------

_TABLES: dict | None = None


def load_reference_tables() -> dict:
    """The shipped inhomogeneous-term reference data, keyed by
    (family, D-label, Y-label).  The JSON is parsed once per process and
    every call returns the same tables, so callers must not mutate them.
    The file is read next to this module with ``open``, so the package must
    be installed unzipped; from a zip archive the read fails with an OSError
    that names the missing path.  ``importlib.resources`` would load
    pathlib, tempfile, random, shutil and zipfile into every command's cold
    start."""
    global _TABLES
    if _TABLES is None:
        path = os.path.join(os.path.dirname(__file__), "data", "appendix_b.json")
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        out = {(e["family"], e["D"], e["Y"]): e for e in payload["entries"]}
        out["_meta"] = payload["meta"]
        _TABLES = out
    return _TABLES


def compare_reference(fam: str, D_label: str, Y_label: str,
                      solved: ClosureData,
                      bindings: Mapping[str, Rat] | None = None) -> dict:
    """Coefficient-by-coefficient comparison of a solved R_-1 against the
    stored reference row (symbolic where the solved data is symbolic,
    otherwise at the solved parameter point, ``bindings`` in the variables
    of ``ParamSet.reference_values``).  Returns ``ok`` and, on a mismatch,
    the ``expected`` and the solved (``got``) R_-1 as strings."""
    tables = load_reference_tables()
    key = (fam, D_label, Y_label)
    if key not in tables:
        raise TableMissing(f"no stored reference row for {key}")
    entry = tables[key]
    expected = ParamPoly.from_record(entry["R_minus1"])
    if bindings:
        expected = expected.subs(bindings)
    got = solved.R_minus1
    ok = got == expected
    return {"ok": ok, "expected": str(expected) if not ok else None,
            "got": str(got) if not ok else None}
