"""Operator algebra: composition, commutators, polynomial action."""

import pathlib
import random
from fractions import Fraction as F

import pytest

from closurelab.closure import ad_powers
from closurelab.exactalg import EtaPoly, ParamPoly, RationalFunc
from closurelab.families import load_family_plugin
from closurelab.opalg import (AlgebraMismatch, DiffOp, NonPolynomialImage,
                              right_mul_poly_of_H)
from closurelab.recurrence import build_X
from operator_reference import H_tilde, build_H_tilde, gauge_transform

eta = ParamPoly.var("eta")
PLUGINS = pathlib.Path(__file__).resolve().parent.parent / "plugins"


def classical_L(g):
    return DiffOp("eta", {2: -4 * eta, 1: -4 * (ParamPoly.const(g + F(1, 2)) - eta)})


def test_canonical_commutation():
    d = DiffOp("eta", {1: 1})
    assert d.compose(DiffOp.mul_by(eta)) == DiffOp("eta", {1: eta, 0: 1})


def test_second_order_commutator():
    d2 = DiffOp("eta", {2: 1})
    assert d2.commutator(DiffOp.mul_by(eta)) == DiffOp("eta", {1: 2})


def _operator_from_action(op: DiffOp, order: int) -> dict[int, RationalFunc]:
    """Independent reconstruction of operator coefficients from the images
    of monomials 1, eta, eta^2, ... (triangular system)."""
    coeffs: dict[int, RationalFunc] = {}
    for k in range(order + 1):
        img = op.apply(eta ** k)
        # subtract contributions of lower-derivative coefficients found so far
        for j, f in coeffs.items():
            mono = eta ** k
            for _ in range(j):
                mono = mono.diff("eta")
            img = img - f * RationalFunc(mono)
        # what's left is coeff_k * d^k(eta^k) = coeff_k * k!
        fact = 1
        for i in range(1, k + 1):
            fact *= i
        coeffs[k] = img * F(1, fact)
    return coeffs


def test_commutator_against_action_reconstruction():
    g = F(7, 3)
    H = classical_L(g)
    adX = H.commutator(DiffOp.mul_by(eta))
    expected = DiffOp("eta", {1: -8 * eta, 0: 4 * eta - 4 * (g + F(1, 2))})
    assert adX == expected
    rebuilt = _operator_from_action(adX, adX.order)
    assert DiffOp("eta", rebuilt) == expected


def test_repeated_application_squares_eigenvalue(l_classical):
    # applying the classical operator twice to the degree-2 polynomial
    L2 = l_classical.P(2).param()
    H = H_tilde(l_classical)
    once = H.apply_poly(L2)
    twice = H.apply_poly(once)
    assert twice == 64 * L2  # (4*2)^2


def test_order2_closure_identity_for_classical_L():
    g = F(7, 3)
    H = classical_L(g)
    X = DiffOp.mul_by(eta)
    ad2 = H.commutator(H.commutator(X))
    rhs = X.scale(16) - (H + DiffOp.mul_by(ParamPoly.const(2 * g + 1))).scale(8)
    assert ad2 == rhs


def test_apply_eigen_equation(l1i, lag_params):
    g = lag_params.g
    p0 = -(eta + g + F(3, 2))
    assert l1i.P(0) == EtaPoly.from_param(p0)
    assert H_tilde(l1i).apply_poly(p0).is_zero


def test_zero_operator_application():
    zero = DiffOp.zero("eta")
    assert zero.apply_poly(eta ** 3 + 1).is_zero


def test_nonpolynomial_image_raises(l1i):
    # eta^2 is no eigenpolynomial of the family: both routes must refuse it
    with pytest.raises(NonPolynomialImage):
        H_tilde(l1i).apply_poly(eta ** 2)
    with pytest.raises(ValueError):
        H_tilde(l1i).apply(eta ** 2).as_poly()


def _assert_cleared_matches_reference(H, polys):
    for p in polys:
        assert H.apply_poly(p) == H.apply(p).as_poly()


def test_cleared_form_matches_rational_route(l1i, l1ii, j1i, j1ii, lag_params,
                                             jac_params):
    # H of L[1I], L[1II], J[1I], J[1II] and the L[2I] plugin on P_0..P_6;
    # then the conjugation-route operators, whose coefficients have unequal
    # denominators (products of eta or 1 -+ eta with powers of xi),
    # including the mirror_diffop image that gives J[1II]
    l2i = load_family_plugin(str(PLUGINS / "laguerre_2I.json"))
    for df in (l1i, l1ii, j1i, j1ii, l2i):
        _assert_cleared_matches_reference(H_tilde(df), [df.P(n).param() for n in range(7)])
    for df, params in ((l1i, lag_params), (j1i, jac_params), (j1ii, jac_params)):
        H = build_H_tilde(df.fam, df.D, params, route="conjugation")
        assert len({f.den for f in H.coeffs.values()}) > 1
        _assert_cleared_matches_reference(H, [df.P(n).param() for n in range(7)])


def test_cleared_form_matches_rational_route_on_ad_powers(l1i, j1ii):
    # the nested commutators carry denominators that are powers of xi
    for df in (l1i, j1ii):
        ads = ad_powers(H_tilde(df), build_X(df.xi, EtaPoly.const(1)), 4)
        assert ads[4].cleared()[0].degree("eta") > 1
        for op in ads:
            _assert_cleared_matches_reference(op, [df.P(n).param() for n in range(5)])


def test_right_mul_identity_and_constant(l1i):
    H = H_tilde(l1i)
    op = DiffOp.mul_by(eta)
    R1 = ParamPoly.const(1, ("z",))
    assert right_mul_poly_of_H(op, R1, H) == op
    R16 = ParamPoly.const(16, ("z",))
    assert right_mul_poly_of_H(op, R16, H) == op.scale(16)


def test_right_mul_scales_commutator(l1i):
    H = H_tilde(l1i)
    adX = H.commutator(DiffOp.mul_by(eta))
    R2 = ParamPoly.const(80, ("z",))
    assert right_mul_poly_of_H(adX, R2, H) == adX.scale(80)


def _random_small_op(rng) -> DiffOp:
    coeffs = {}
    for k in range(rng.randint(0, 2) + 1):
        poly = ParamPoly.univar("eta", {j: F(rng.randint(-3, 3))
                                        for j in range(rng.randint(0, 2) + 1)})
        if poly:
            coeffs[k] = poly
    return DiffOp("eta", coeffs)


def test_jacobi_identity_randomized():
    rng = random.Random(4)
    for _ in range(15):
        a, b, c = (_random_small_op(rng) for _ in range(3))
        lhs = (a.commutator(b.commutator(c))
               + b.commutator(c.commutator(a))
               + c.commutator(a.commutator(b)))
        assert lhs == DiffOp.zero("eta")


def test_compose_associative_randomized():
    rng = random.Random(5)
    for _ in range(15):
        a, b, c = (_random_small_op(rng) for _ in range(3))
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_apply_compose_property_randomized():
    rng = random.Random(6)
    for _ in range(15):
        a, b = _random_small_op(rng), _random_small_op(rng)
        p = ParamPoly.univar("eta", {j: F(rng.randint(-3, 3)) for j in range(3)})
        lhs = a.compose(b).apply(p)
        rhs = a.apply(b.apply(p))
        assert lhs == rhs


def test_algebra_mismatch():
    a = DiffOp("eta", {1: 1})
    b = DiffOp("x", {1: 1})
    with pytest.raises(AlgebraMismatch):
        a.compose(b)
    with pytest.raises(AlgebraMismatch):
        a.commutator(b)


def test_multiplication_operators_commute():
    a = DiffOp.mul_by(eta ** 2 + 1)
    b = DiffOp.mul_by(eta - 3)
    assert a.commutator(b) == DiffOp.zero("eta")
    assert a.compose(b) == DiffOp.mul_by((eta ** 2 + 1) * (eta - 3))


def test_gauge_transform_exponential():
    d = DiffOp("eta", {1: 1})
    gt = gauge_transform(d, RationalFunc(ParamPoly.const(1)))
    assert gt == DiffOp("eta", {1: 1, 0: 1})
