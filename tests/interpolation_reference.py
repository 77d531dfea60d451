"""The per-coefficient ParamPoly route for parameter interpolation, kept as
a reference for the integer tensor route of ``exactalg.interpolate_grid``.

The package interpolates every coefficient of a reconstruction in one call,
applying one inverse Vandermonde matrix per variable to integer numerators.
These are its former versions: Newton divided differences on ``ParamPoly``
values, one variable at a time and one coefficient per call, with every
sample checked by substitution into the interpolant.  The tests cross-check
the two routes: equal polynomials, and the same SampleMismatch message from
``exactalg.interpolate_param`` for a disagreeing extra point.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from closurelab.exactalg import ParamPoly, Rat, SampleMismatch, rat, rat_str


def reference_interpolate_param(samples: Sequence[tuple], degree_bound: int,
                                var: str = "g") -> ParamPoly:
    """Unique interpolant of degree <= degree_bound through exact samples.

    The first degree_bound+1 samples determine the polynomial (Newton form);
    every sample is then checked by substitution, and a disagreement raises
    SampleMismatch.  Values may be Fractions or ParamPolys (interpolation
    then happens coefficient-wise)."""
    if degree_bound < 0:
        raise ValueError("degree bound must be >= 0")
    if len(samples) < degree_bound + 1:
        raise ValueError("need at least degree_bound+1 samples")
    pts = [rat(p) for p, _ in samples]
    if len(set(pts)) != len(pts):
        raise ValueError("sample points must be distinct")
    vals = [v if isinstance(v, ParamPoly) else ParamPoly.const(rat(v))
            for _, v in samples]
    base = pts[: degree_bound + 1]
    table = list(vals[: degree_bound + 1])
    coeffs = [table[0]]
    for level in range(1, degree_bound + 1):
        table = [(table[i + 1] - table[i]) * (1 / (base[i + level] - base[i]))
                 for i in range(len(table) - 1)]
        coeffs.append(table[0])
    x = ParamPoly.var(var)
    poly = ParamPoly.zero((var,))
    basis = ParamPoly.const(1, (var,))
    for k, c in enumerate(coeffs):
        poly = poly + c * basis
        if k < degree_bound:
            basis = basis * (x - base[k])
    for p, v in zip(pts, vals):
        if poly.subs({var: p}) != v:
            raise SampleMismatch(f"sample at {var}={rat_str(p)} disagrees "
                                 f"with degree-{degree_bound} interpolant")
    return poly


def reference_interpolate_grid(samples: Mapping[tuple, object],
                               bounds: Mapping[str, int],
                               vars: Sequence[str]) -> ParamPoly:
    """Tensor-grid interpolation of scalar values, variable by variable:
    the last variable first, at each value of the earlier ones taken in
    increasing order, and each extra node a consistency check."""
    vars = list(vars)
    if len(vars) == 1:
        pairs = [(k[0], v) for k, v in samples.items()]
        return reference_interpolate_param(pairs, bounds[vars[0]], vars[0])
    first, rest = vars[0], vars[1:]
    by_first: dict[Rat, dict[tuple, object]] = {}
    for coords, value in samples.items():
        by_first.setdefault(rat(coords[0]), {})[tuple(coords[1:])] = value
    inner = [(p, reference_interpolate_grid(sub, bounds, rest))
             for p, sub in sorted(by_first.items())]
    return reference_interpolate_param(inner, bounds[first], first)


def reference_interpolate_vectors(samples: Mapping[tuple, Sequence],
                                  bounds: Mapping[str, int],
                                  vars: Sequence[str]) -> list[ParamPoly]:
    """One ``reference_interpolate_grid`` call per vector entry, in order."""
    width = len(next(iter(samples.values())))
    return [reference_interpolate_grid({p: vec[c] for p, vec in samples.items()},
                                       bounds, vars)
            for c in range(width)]
