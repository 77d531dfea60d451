"""Generalized closure relations: the exact linear solve for the
right-coefficient polynomials, identity certification, conjectured
coefficients from the eigenvalue lists, symbolic reconstruction in the
family parameters, and comparison against the shipped reference tables.

The order-K relation expresses the K-fold commutator of H with X as a
right-linear combination of the lower commutators with polynomial
coefficients R_i(H) plus an inhomogeneous R_-1(H).  Solve and certificate
both work on eigenpolynomials (``ad_images``), where every R(H) collapses to
the rational R(E_n), so no operator is ever composed.  Unknown coefficients
enter linearly, so one exact linear solve per parameter point settles
existence and uniqueness; parameter dependence is then reconstructed by
interpolation at rational samples and certified at fresh samples.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Callable, Iterator, Mapping, Sequence

from .exactalg import (ParamPoly, Rat, SampleMismatch, interpolate_grid, rat,
                       solve_linear_exact)
from .families import (DeformedFamily, EigenValidationFailed, MultiIndex,
                       ParamSet, SchemaError, builtin_deformed)
from .opalg import DiffOp, NonPolynomialImage
from .recurrence import build_X
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


def ad_images(df: DeformedFamily, X: ParamPoly, n: int,
              count: int) -> list[ParamPoly]:
    """[(ad H)^i X] P_n for i = 0..count, exact polynomials in eta.

    For any operator A, [H, A] P_n = H A P_n - A H P_n = (H - E_n) A P_n, so
    by induction [(ad H)^i X] P_n = (H - E_n)^i (X P_n): each entry costs
    one application of H to a polynomial.  The images live in the family's
    ``ad_image_store`` under (X, n) and are extended on demand, so solve,
    certificate and ladder checks on one family compute each image once.
    H P_n = E_n P_n is checked when level n first enters the store
    (EigenValidationFailed names n otherwise), and a failed level is never
    stored.  Reuse is exact: the family is immutable, so a stored image is
    the one a fresh computation gives, and every level read from the store
    has had its eigen-equation checked.
    """
    H, En = df.H_tilde, df.E(n)
    images = df.ad_image_store.get((X, n))
    if images is None:
        Pn = df.P(n)
        try:
            eigen = H.apply_poly(Pn) == Pn * En
        except NonPolynomialImage:
            eigen = False
        if not eigen:
            raise EigenValidationFailed(f"{df.label}: eigen-equation fails at n={n}")
        images = df.ad_image_store[(X, n)] = [X * Pn]
    while len(images) <= count:
        images.append(H.apply_poly(images[-1]) - images[-1] * En)
    return images[:count + 1]


def _images_through(df: DeformedFamily, X: ParamPoly, N: int,
                    count: int) -> Iterator[list[ParamPoly]]:
    """ad_images on P_0..P_N in turn; a plugin that lists fewer levels is a
    SchemaError naming the levels needed."""
    if df.p_max is not None and df.p_max < N:
        raise SchemaError(f"{df.label}: the closure certificate needs "
                          f"P_0..P_{N}, the plugin lists P_0..P_{df.p_max}")
    return (ad_images(df, X, n, count) for n in range(N + 1))


def ad_powers(H: DiffOp, X: ParamPoly, count: int) -> list[DiffOp]:
    """[X, [H,X], [H,[H,X]], ...] with count+1 entries, as operators.

    Reference route only: the tests cross-check ``ad_images`` against it.
    Entry 0 is the multiplication operator by X.
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


def solve_closure(df: DeformedFamily, X: ParamPoly, K: int,
                  conjectured: "ClosureData | None" = None) -> ClosureData:
    """Exact solve of the order-K closure relation at bound parameters.

    The unknown coefficient of z^j in R_i contributes E_n^j [(ad H)^i X] P_n
    (E_n^j P_n for i = -1) and the target is [(ad H)^K X] P_n, for
    n = 0..K; each eta-coefficient of each level is one row.  The degree
    bounds keep every term (ad H)^i X o H^j at operator order i + 2j <= K,
    so by the argument in ``verify_closure_identity`` a candidate relation
    vanishes on P_0..P_K exactly when it holds as an operator identity: the
    solution set, and with it kernel_dim, is that of coefficient-wise
    operator equality.  A nontrivial kernel is reported via
    kernel_dim/unique, and when ``conjectured`` is supplied the conjectured
    point is required to lie in the affine solution set.  Raises NoSolution
    when the linear system is inconsistent.
    """
    layout = _unknown_layout(df.fam, K)
    rows: list[list[Rat]] = []
    rhs: list[Rat] = []
    for n, images in enumerate(_images_through(df, X, K, K)):
        En, Pn = df.E(n), df.P(n)
        polys = [(images[i] if i >= 0 else Pn) * En ** j for i, j in layout]
        polys.append(images[K])
        coeffs = [p.coeffs_in("eta") for p in polys]
        for d in range(max(p.degree("eta") for p in polys) + 1):
            row = [c[d].constant_value() if d in c else Fraction(0) for c in coeffs]
            rows.append(row[:-1])
            rhs.append(row[-1])
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


def verify_closure_identity(df: DeformedFamily, X: ParamPoly,
                            cd: ClosureData) -> bool:
    """Exact verdict on the order-K relation as an operator identity.

    The relation A = (ad H)^K X - sum_i (ad H)^i X o R_i(H) - R_-1(H) is a
    differential operator of order at most N = max(K, i + 2 deg R_i,
    2 deg R_-1), since (ad H)^i X has order <= i and H has order 2.  On an
    eigenpolynomial R(H) P_n = R(E_n) P_n, so A P_n is built from
    ``ad_images`` alone.  A nonzero operator of order <= N has at most N
    linearly independent solutions, while P_0..P_N, of the distinct degrees
    ell..ell+N, are N+1 independent ones: A P_n = 0 for n = 0..N, with
    H P_n = E_n P_n checked at each n, proves A = 0.  The images of
    P_0..P_K that ``solve_closure`` built are read back from the family's
    store, whose levels were each checked on entry.  A False verdict is a
    report, not an error.  R data must be numeric in z.
    """
    K = cd.K
    N = max([K, 2 * cd.R_minus1.degree("z")]
            + [i + 2 * Ri.degree("z") for i, Ri in enumerate(cd.R)])
    for n, images in enumerate(_images_through(df, X, N, K)):
        at = {"z": df.E(n)}
        rhs = df.P(n) * cd.R_minus1.evaluate(at)
        for i, Ri in enumerate(cd.R):
            rhs = rhs + images[i] * Ri.evaluate(at)
        if images[K] != rhs:
            return False
    return True


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
    K - 1 in b, then certification at the fresh samples."""
    K = 2 * (MultiIndex.parse(D_label).ell + Y.degree("eta") + 1)
    nodes, extra = SYMBOLIC_POOLS[fam]

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

_REFERENCE_ENV = None


def _reference_eval_env() -> dict:
    """Evaluation environment for the factored reference expressions."""
    global _REFERENCE_ENV
    if _REFERENCE_ENV is None:
        env = {name: ParamPoly.var(name)
               for name in ("z", "g", "a", "b", "b1", "b2", "b3", "b4",
                            "s1", "s2", "sp1", "sp2", "q", "r")}
        env["F"] = Fraction
        _REFERENCE_ENV = env
    return dict(_REFERENCE_ENV)


def load_reference_tables() -> dict:
    """The shipped inhomogeneous-term reference data, keyed by
    (family, D-label, Y-label)."""
    text = resources.files("closurelab.data").joinpath("appendix_b.json").read_text()
    payload = json.loads(text)
    out = {}
    for entry in payload["entries"]:
        key = (entry["family"], entry["D"], entry.get("Y", "1"))
        out[key] = entry
    out["_meta"] = payload.get("meta", {})
    return out


def reference_expanded(entry: Mapping) -> ParamPoly:
    return ParamPoly.from_record(entry["R_minus1"])


def reference_factored(entry: Mapping) -> ParamPoly:
    """Evaluate the transcribed factored expression to a polynomial."""
    env = _reference_eval_env()
    return eval(entry["factored"], {"__builtins__": {}}, env)  # noqa: S307


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
