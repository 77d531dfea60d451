"""The integer tensor route of ``exactalg.interpolate_grid`` against the
former per-coefficient Newton route (tests/interpolation_reference.py): on
random polynomials in one to three parameters, sampled on grids of
distinct, unevenly spaced rational nodes (as ``closure.symbolic_nodes``
gives them where it skips degenerate values), both routes return the same
polynomials.  ``interpolate_param`` checks its extra points itself, and one
that disagrees raises the same SampleMismatch message on both routes."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from closurelab.closure import symbolic_nodes
from closurelab.exactalg import (ParamPoly, SampleMismatch, interpolate_grid,
                                 interpolate_param)
from closurelab.families import MultiIndex
from interpolation_reference import (reference_interpolate_param,
                                     reference_interpolate_vectors)

NAMES = ("a", "b", "g")
_gaps = st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4)
_coeffs = st.one_of(st.just(F(0)), st.fractions(min_value=-9, max_value=9,
                                                max_denominator=6))


@st.composite
def _grid_problems(draw):
    """(vars, bounds, node lists, target polynomials, samples): each
    variable gets bound + 1 nodes, a cumulative sum of random positive
    gaps, and every target has degree <= bound in each variable."""
    vars = draw(st.permutations(NAMES))[:draw(st.integers(1, 3))]
    bounds = {v: draw(st.integers(0, 3)) for v in vars}
    nodes = {}
    for v in vars:
        start = draw(st.fractions(min_value=-4, max_value=4, max_denominator=3))
        gaps = draw(st.lists(_gaps, min_size=bounds[v] + 1, max_size=bounds[v] + 1))
        nodes[v] = list(itertools.accumulate(gaps, initial=start))[1:]
    width = draw(st.integers(1, 3))
    exps = list(itertools.product(*(range(bounds[v] + 1) for v in vars)))
    targets = [ParamPoly(vars, {e: draw(_coeffs) for e in exps}) for _ in range(width)]
    samples = {}
    for point in itertools.product(*(nodes[v] for v in vars)):
        at = dict(zip(vars, point))
        samples[point] = [t.evaluate(at) for t in targets]
    return list(vars), bounds, nodes, targets, samples


@settings(max_examples=80, deadline=None, database=None)
@given(_grid_problems())
def test_vector_interpolation_matches_the_newton_route(problem):
    vars, bounds, nodes, targets, samples = problem
    for values in nodes.values():
        assert len(set(values)) == len(values) and values == sorted(values)
    got = interpolate_grid(samples, bounds, vars)
    want = reference_interpolate_vectors(samples, bounds, vars)
    assert got == want == targets
    assert [p.vars for p in got] == [p.vars for p in want]


def test_interpolate_param_is_the_one_variable_grid():
    # the points are read in increasing order whatever order they come in:
    # -1, 0, 2/3 and 9/4 are the nodes, 7/2 and 5 the extra nodes, so a
    # wrong value at the node 9/4 shows first at the extra node 7/2
    target = ParamPoly.univar("g", [F(1, 3), -2, 0, 5])
    pts = [F(7, 2), F(-1), F(2, 3), F(5), F(0), F(9, 4)]
    samples = [(x, target.evaluate({"g": x})) for x in pts]
    assert interpolate_param(samples, 3) == target
    assert reference_interpolate_param(samples, 3) == target
    bad = samples[:-1] + [(pts[-1], samples[-1][1] + 1)]
    with pytest.raises(SampleMismatch, match=r"^sample at g=7/2 disagrees "
                                             r"with degree-3 interpolant$"):
        interpolate_param(bad, 3)
    # given in increasing order, the reference route checks the points in
    # the same order, so an extra point off by one fails alike on both
    ordered = sorted(samples)
    bad = ordered[:-1] + [(ordered[-1][0], ordered[-1][1] + 1)]
    with pytest.raises(SampleMismatch) as got:
        interpolate_param(bad, 3)
    with pytest.raises(SampleMismatch) as want:
        reference_interpolate_param(bad, 3)
    assert str(got.value) == str(want.value) == ("sample at g=5 disagrees "
                                                 "with degree-3 interpolant")
    with pytest.raises(ValueError, match="distinct"):
        interpolate_param(samples + samples[:1], 3)
    with pytest.raises(ValueError, match="degree_bound"):
        interpolate_param(samples[:3], 3)


def test_symbolic_grids_are_uneven():
    # the reconstruction nodes of L[2II] skip g = 5/2, where a seed is
    # degenerate, so they are not equally spaced
    nodes, _ = symbolic_nodes("L", MultiIndex.parse("2II"), {"g": 3})
    assert nodes == {"g": [F(2), F(3), F(7, 2), F(4)]}
