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
image is ever formed.  Unknown coefficients enter linearly, so one exact
linear solve per parameter point settles existence and uniqueness;
parameter dependence is then reconstructed by interpolation at rational
samples and certified at fresh samples.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Callable, Iterator, Mapping, Sequence

from .exactalg import (ParamPoly, Rat, SampleMismatch, interpolate_grid, rat,
                       solve_linear_exact)
from .families import (DeformedFamily, MultiIndex, ParamSet, SchemaError,
                       builtin_deformed, degenerate_level)
from .opalg import DiffOp
from .recurrence import build_X, recurrence_row
from .spectral import alpha_conjecture, elementary_symmetric_R


class NoSolution(Exception):
    """The closure relation of the requested order has no solution
    (falsifies the expected structure for this instance)."""


class TableMissing(Exception):
    """No stored reference row for this (family, D) pair."""


def degree_bounds(fam: str, K: int) -> dict[int, int]:
    """Degree bounds for R_i (i = -1 stands for the inhomogeneous term):
    halved for the differential families, full for the difference families."""
    if fam in ("L", "J"):
        bounds = {i: (K - i) // 2 for i in range(K)}
        bounds[-1] = K // 2
    else:
        bounds = {i: K - i for i in range(K)}
        bounds[-1] = K
    return bounds


def level_coordinates(df: DeformedFamily, X: ParamPoly,
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
    L = X.degree("eta")
    df.check_levels(n + L)
    row = recurrence_row(df, X, n)
    En = df.E(n)
    return [(k, row[k], df.E(n + k) - En) for k in range(-L, L + 1) if n + k >= 0]


def _levels_through(df: DeformedFamily, X: ParamPoly,
                    N: int) -> Iterator[list[tuple[int, Rat, Rat]]]:
    """level_coordinates on P_0..P_N in turn.  They read P_0..P_{N+L}; a
    plugin that lists fewer levels is a SchemaError naming the levels
    needed."""
    top = N + X.degree("eta")
    if df.p_max is not None and df.p_max < top:
        raise SchemaError(f"{df.label}: the closure certificate needs "
                          f"P_0..P_{top}, the plugin lists P_0..P_{df.p_max}")
    return (level_coordinates(df, X, n) for n in range(N + 1))


def ad_powers(H: DiffOp, X: ParamPoly, count: int) -> list[DiffOp]:
    """[X, [H,X], [H,[H,X]], ...] with count+1 entries, as operators.

    Reference route only: the tests check the coordinate images of
    ``level_coordinates`` against it.  Entry 0 is the multiplication
    operator by X.
    """
    ads = [DiffOp.mul_by(X, H.var)]
    for _ in range(count):
        ads.append(H.commutator(ads[-1]))
    return ads


@dataclass
class ClosureData:
    """Order-K closure data: R_0..R_{K-1} and the inhomogeneous R_-1.

    ``provenance`` records whether the coefficients were solved from the
    operator identity or built from the conjectured eigenvalue list (which
    leaves R_-1 undetermined).  ``kernel_dim`` logs solver under-determination.
    """

    K: int
    R: list[ParamPoly]
    R_minus1: ParamPoly | None
    provenance: str
    fam: str = ""
    kernel_dim: int = 0

    @property
    def unique(self) -> bool:
        return self.kernel_dim == 0

    def bounds_ok(self) -> bool:
        bounds = degree_bounds(self.fam or "L", self.K)
        for i, Ri in enumerate(self.R):
            if Ri.degree("z") > bounds[i]:
                return False
        if self.R_minus1 is not None and self.R_minus1.degree("z") > bounds[-1]:
            return False
        return True

    def coefficient(self, i: int, j: int) -> Rat:
        poly = self.R_minus1 if i == -1 else self.R[i]
        c = poly.coeffs_in("z").get(j)
        return c.constant_value() if c is not None else Fraction(0)


def _unknown_layout(fam: str, K: int) -> list[tuple[int, int]]:
    bounds = degree_bounds(fam, K)
    layout = []
    for i in range(K):
        layout.extend((i, j) for j in range(bounds[i] + 1))
    layout.extend((-1, j) for j in range(bounds[-1] + 1))
    return layout


def closure_system(df: DeformedFamily, X: ParamPoly,
                   K: int) -> tuple[list[tuple[int, int]], list[list[Rat]], list[Rat]]:
    """The order-K closure system (unknown layout, rows, right-hand side) in
    recurrence coordinates on the levels n = 0..K.

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
    blocks span the same row space.  Stacked over n, the augmented row
    spaces are equal, so the reduced row echelon forms are equal, and with
    them consistency, rank, pivot columns, the solution and the kernel basis
    that ``solve_linear_exact`` reads off it.
    """
    layout = _unknown_layout(df.fam, K)
    top_j = max(j for _, j in layout)
    rows: list[list[Rat]] = []
    rhs: list[Rat] = []
    for n, coords in enumerate(_levels_through(df, X, K)):
        En = df.E(n)
        E_pow = [En ** j for j in range(top_j + 1)]
        for k, r, delta in coords:
            ad = [r * delta ** i for i in range(K + 1)]
            unit = Fraction(1 if k == 0 else 0)
            rows.append([(ad[i] if i >= 0 else unit) * E_pow[j]
                         for i, j in layout])
            rhs.append(ad[K])
    return layout, rows, rhs


def solve_closure(df: DeformedFamily, X: ParamPoly, K: int,
                  conjectured: "ClosureData | None" = None) -> ClosureData:
    """Exact solve of the order-K closure relation at bound parameters.

    The system is ``closure_system`` on the levels n = 0..K.  The degree
    bounds keep every term (ad H)^i X o H^j at operator order i + 2j <= K,
    so by the argument in ``verify_closure_identity`` a candidate relation
    vanishes on P_0..P_K exactly when it holds as an operator identity: the
    solution set, and with it kernel_dim, is that of coefficient-wise
    operator equality.  A nontrivial kernel is reported via
    kernel_dim/unique, and when ``conjectured`` is supplied the conjectured
    point is required to lie in the affine solution set.  Raises NoSolution
    when the linear system is inconsistent.
    """
    layout, rows, rhs = closure_system(df, X, K)
    sol = solve_linear_exact(rows, rhs)
    if not sol.consistent:
        raise NoSolution(f"order-{K} closure relation has no solution")
    kernel_dim = len(sol.kernel_basis)
    values = {key: sol.solution[idx] for idx, key in enumerate(layout)}
    if kernel_dim and conjectured is not None:
        # require the conjectured point (which leaves the inhomogeneous term
        # free) to lie in the affine solution set
        known = [idx for idx, (i, _) in enumerate(layout) if i >= 0]
        diff = [conjectured.coefficient(layout[idx][0], layout[idx][1])
                - values[layout[idx]] for idx in known]
        fit = solve_linear_exact(
            [[vec[idx] for vec in sol.kernel_basis] for idx in known], diff)
        if not fit.consistent:
            raise NoSolution("conjectured data lies outside the solution set")
    return _solved_data(df.fam, K, values, kernel_dim)


def _solved_data(fam: str, K: int, values: Mapping[tuple[int, int], object],
                 kernel_dim: int) -> ClosureData:
    """ClosureData from the coefficients values[(i, j)] of z^j in R_i."""
    z = ParamPoly.var("z")
    bounds = degree_bounds(fam, K)
    R = [sum((values[(i, j)] * z ** j for j in range(bounds[i] + 1)),
             ParamPoly.zero(("z",))) for i in [*range(K), -1]]
    return ClosureData(K, R[:-1], R[-1], "solved", fam, kernel_dim)


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


def verify_closure_identity(df: DeformedFamily, X: ParamPoly,
                            cd: ClosureData) -> IdentityVerdict:
    """Exact verdict on the order-K relation as an operator identity.

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
    numeric in z.
    """
    K = cd.K
    N = max([K, 2 * cd.R_minus1.degree("z")]
            + [i + 2 * Ri.degree("z") for i, Ri in enumerate(cd.R)])
    for n, coords in enumerate(_levels_through(df, X, N)):
        at = {"z": df.E(n)}
        R_at = [Ri.evaluate(at) for Ri in cd.R]
        R_minus1_at = cd.R_minus1.evaluate(at)
        for k, r, delta in coords:
            residual = r * (delta ** K - sum(R_i * delta ** i
                                             for i, R_i in enumerate(R_at)))
            if k == 0:
                residual -= R_minus1_at
            if residual:
                return IdentityVerdict(n, k, residual)
    return IdentityVerdict()


def conjectured_R(fam: str, L: int, params: ParamSet | None = None) -> ClosureData:
    """R_0..R_{2L-1} from the conjectured eigenvalue list via elementary
    symmetric functions; the inhomogeneous term is not determined."""
    alphas = alpha_conjecture(fam, L, params)
    R = elementary_symmetric_R(alphas)
    return ClosureData(2 * L, R, None, "conjectured", fam)


# -- parameter reconstruction ---------------------------------------------------


def reconstruct_closure(solve_at: Callable[[Mapping[str, Rat]], ClosureData],
                        fam: str, K: int,
                        nodes: Mapping[str, Sequence[Rat]],
                        bounds: Mapping[str, int],
                        extra: Mapping[str, Sequence[Rat]],
                        max_doublings: int = 2) -> ClosureData:
    """Solve at rational parameter samples and rebuild symbolic coefficients.

    ``nodes`` supplies per-parameter sample pools (must hold enough values
    for the bound; more are drawn when a mismatch forces a bound doubling).
    Afterwards every solution at the ``extra`` fresh samples must agree with
    the interpolant (certification); disagreement raises SampleMismatch.
    """
    names = list(nodes)
    layout = _unknown_layout(fam, K)
    cache: dict[tuple, ClosureData] = {}

    def solved(point: tuple) -> ClosureData:
        if point not in cache:
            cache[point] = solve_at(dict(zip(names, point)))
        return cache[point]

    bounds = dict(bounds)
    for _ in range(max_doublings + 1):
        grids = []
        for name in names:
            need = bounds[name] + 1
            pool = list(nodes[name])
            if len(pool) < need:
                raise ValueError(f"not enough samples for {name} at bound {bounds[name]}")
            grids.append(pool[:need])
        points = [()]
        for axis in grids:
            points = [p + (v,) for p in points for v in axis]
        try:
            rebuilt: dict[tuple[int, int], ParamPoly] = {}
            for key_i, key_j in layout:
                samples = {p: solved(p).coefficient(key_i, key_j) for p in points}
                rebuilt[(key_i, key_j)] = interpolate_grid(samples, bounds, names)
            # certification at fresh sample points
            cert_points = [tuple(extra[name][k] for name in names)
                           for k in range(min(len(extra[n]) for n in names))]
            for p in cert_points:
                got = solved(p)
                binding = dict(zip(names, p))
                for key_i, key_j in layout:
                    if rebuilt[(key_i, key_j)].evaluate(binding) != got.coefficient(key_i, key_j):
                        raise SampleMismatch(
                            f"fresh sample {binding} disagrees for R_{key_i} z^{key_j}")
            break
        except SampleMismatch:
            bounds = {k: 2 * v + 1 for k, v in bounds.items()}
    else:
        raise SampleMismatch("reconstruction failed after doubling the bounds")
    return _solved_data(fam, K, rebuilt,
                        max(solved(p).kernel_dim for p in points))


def closure_for_family(df: DeformedFamily,
                       Y: ParamPoly) -> tuple[ClosureData, ParamPoly]:
    """Solve the closure relation for one family instance at its bound
    parameters, with the minimal-or-higher X built from (xi, Y)."""
    X = build_X(df.xi, Y)
    L = X.degree("eta")
    return solve_closure(df, X, 2 * L, conjectured_R(df.fam, L, df.params)), X


# Sample pools for symbolic reconstruction: interpolation nodes, enough for
# one bound doubling, and fresh certification samples.  J is sampled in
# a = g + h and b = g - h, the variables of its reference rows.
SYMBOLIC_POOLS = {
    "L": ({"g": [rat(x) for x in
                 ("2", "7/3", "3", "7/2", "4", "9/2", "5", "11/2", "6",
                  "13/2", "7", "15/2")]},
          {"g": [rat("8"), rat("17/2")]}),
    "J": ({"a": [rat(x) for x in ("8", "17/2", "9", "19/2", "10", "21/2",
                                  "11", "23/2", "12")],
           "b": [rat(x) for x in ("-1", "-1/2", "1/2", "1", "3/2", "5/2",
                                  "3", "7/2", "4")]},
          {"a": [rat("25/2"), rat("13")], "b": [rat("-5/2"), rat("9/2")]}),
}


def symbolic_closure(fam: str, D_label: str, Y: ParamPoly) -> ClosureData:
    """Closure data of the built-in family (fam, D_label) symbolically in its
    parameters: g for L, (a, b) for J.  Exact solves at the rational samples
    of SYMBOLIC_POOLS, interpolation with degree bounds K/2 in g, K in a and
    K - 1 in b, then certification at the fresh samples.  An L seed is
    degenerate at the pool values of g where its virtual energy is an E_n
    (d II: g = d + 1/2 - n); those samples are skipped."""
    D = MultiIndex.parse(D_label)
    K = 2 * (D.ell + Y.degree("eta") + 1)
    nodes, extra = SYMBOLIC_POOLS[fam]
    if fam == "L" and len(D.entries) == 1:
        (d, t), = D.entries

        def usable(g: Rat) -> bool:
            return degenerate_level(ParamSet("L", {"g": g}), t, d) is None

        nodes = {"g": list(filter(usable, nodes["g"]))}
        extra = {"g": list(filter(usable, extra["g"]))}

    def solve_at(binding: Mapping[str, Rat]) -> ClosureData:
        if fam == "L":
            ps = ParamSet("L", {"g": binding["g"]})
        else:
            a, b = binding["a"], binding["b"]
            ps = ParamSet("J", {"g": (a + b) / 2, "h": (a - b) / 2})
        return closure_for_family(builtin_deformed(fam, D_label, ps), Y)[0]

    bounds = {"g": K // 2} if fam == "L" else {"a": K, "b": K - 1}
    return reconstruct_closure(solve_at, fam, K, nodes, bounds, extra)


# -- reference tables -------------------------------------------------------------

_FACTORED_NAMES = ("z", "g", "a", "b", "b1", "b2", "b3", "b4",
                   "s1", "s2", "sp1", "sp2", "q", "r")
_TABLES: dict | None = None


def expand_factored(expr: str) -> ParamPoly:
    """Expand a transcribed factored reference expression (in the names of
    _FACTORED_NAMES, with F = Fraction) to a polynomial in the variables it
    uses."""
    env = {name: ParamPoly.var(name) for name in _FACTORED_NAMES}
    env["F"] = Fraction
    value = eval(expr, {"__builtins__": {}}, env)  # noqa: S307
    return value.trimmed() if isinstance(value, ParamPoly) else ParamPoly.const(value)


def load_reference_tables() -> dict:
    """The shipped inhomogeneous-term reference data, keyed by
    (family, D-label, Y-label).  The JSON is parsed once per process and
    every call returns the same tables, so callers must not mutate them."""
    global _TABLES
    if _TABLES is None:
        path = resources.files("closurelab.data").joinpath("appendix_b.json")
        payload = json.loads(path.read_text())
        out = {}
        for entry in payload["entries"]:
            key = (entry["family"], entry["D"], entry.get("Y", "1"))
            out[key] = entry
        out["_meta"] = payload.get("meta", {})
        _TABLES = out
    return _TABLES


def reference_expanded(entry: Mapping) -> ParamPoly:
    return ParamPoly.from_record(entry["R_minus1"])


def reference_factored(entry: Mapping) -> ParamPoly:
    """The transcribed factored expression of a row, expanded."""
    return expand_factored(entry["factored"])


def compare_reference(fam: str, D_label: str, Y_label: str,
                      solved: ClosureData,
                      bindings: Mapping[str, Rat] | None = None) -> dict:
    """Coefficient-by-coefficient comparison of a solved R_-1 against the
    stored reference row (symbolic where the solved data is symbolic,
    otherwise at the solved parameter point)."""
    tables = load_reference_tables()
    key = (fam, D_label, Y_label)
    if key not in tables:
        raise TableMissing(f"no stored reference row for {key}")
    entry = tables[key]
    expected = reference_expanded(entry)
    if bindings:
        expected = expected.subs(bindings)
    got = solved.R_minus1
    ok = got == expected
    return {"check": "reference-table", "family": fam, "D": D_label,
            "Y": Y_label, "ok": bool(ok),
            "expected": str(expected) if not ok else None,
            "got": str(got) if not ok else None}
