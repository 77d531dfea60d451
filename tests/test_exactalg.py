"""Exact arithmetic substrate: polynomials, rational functions, linear
solving, interpolation."""

import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from closurelab.exactalg import (MAX_DIGITS, MAX_PARSE_BITS, MAX_PARSE_DEGREE,
                                 MAX_PARSE_NESTING, EtaPoly,
                                 LinearSolution, ParamPoly, RationalFunc,
                                 SampleMismatch, interpolate_grid,
                                 interpolate_param, parse_poly, poly_div_exact,
                                 poly_gcd_univar, rat, rat_str,
                                 solve_linear_exact)

eta = ParamPoly.var("eta")
g = ParamPoly.var("g")
z = ParamPoly.var("z")


def test_rat_string_round_trip():
    assert rat("3/4") == F(3, 4)
    assert rat_str(F(3, 4)) == "3/4"
    assert rat_str(F(-5)) == "-5"
    assert rat(rat_str(F(22, 7))) == F(22, 7)
    # above the 4300 digits str(int) accepts from Python 3.11 on
    assert rat_str(F(-10 ** 5000, 7)) == "-1" + "0" * 5000 + "/7"


def test_poly_arith_distributes():
    p = (eta + g + F(1, 2)) * (2 * eta)
    assert p == 2 * eta ** 2 + (2 * g + 1) * eta


def test_poly_scale_matches_inhomogeneous_closure_coefficients():
    base = 3 * z ** 2 + 2 * (10 * g + 11) * z + 2 * (2 * g + 1) * (6 * g + 13)
    scaled = base * 64
    assert scaled.coeffs_in("z")[2] == ParamPoly.const(192)
    assert scaled.coeffs_in("z")[0] == 128 * (2 * g + 1) * (6 * g + 13)


def test_additive_inverse_gives_empty_terms():
    p = eta ** 3 - 2 * eta + 7
    assert (p - p).terms == {}
    assert (p - p).is_zero


def test_degree_bookkeeping():
    a = eta ** 2 + 1
    b = -eta ** 2 + eta
    assert (a + b).degree("eta") == 1
    assert (a * b).degree("eta") == 4
    assert ParamPoly.zero().degree() == -1


def test_field_axioms_randomized():
    rng = random.Random(0)

    def rnd():
        return F(rng.randint(-30, 30), rng.randint(1, 12))

    for _ in range(200):
        a, b, c = rnd(), rnd(), rnd()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * (1 / a) == 1
        assert a + (-a) == 0


def test_poly_subs_and_evaluate():
    p = (eta + g) ** 2
    assert p.subs({"g": F(1, 2)}) == eta ** 2 + eta + F(1, 4)
    assert p.evaluate({"eta": F(2), "g": F(1)}) == 9
    # substitute a polynomial for a variable
    assert p.subs({"eta": -eta}) == (g - eta) ** 2


def test_integrate_and_diff_round_trip():
    # EtaPoly.integrate, the antiderivative of build_X, at three values of
    # g (every coefficient has degree <= 1 in g)
    for gv in (F(0), F(7, 3), F(-5, 2)):
        p = EtaPoly.from_param(3 * eta ** 2 + gv * eta + 1)
        assert p.integrate().diff() == p
        assert p.integrate().coeff(0) == 0
        assert p.integrate() == EtaPoly.from_param(eta ** 3 + gv / 2 * eta ** 2 + eta)


def test_poly_div_exact_multivariate():
    a = (eta + g + F(1, 2)) * (eta ** 2 - g)
    assert poly_div_exact(a, eta + g + F(1, 2)) == eta ** 2 - g
    assert poly_div_exact(a + 1, eta + g + F(1, 2)) is None


def test_gcd_univar():
    a = (eta - 1) * (eta + 2) ** 2
    b = (eta + 2) * (eta + 3)
    assert poly_gcd_univar(a, b, "eta") == eta + 2


def test_rationalfunc_normalize_and_evaluate_agree():
    rng = random.Random(1)
    f = RationalFunc((eta ** 2 - 1) * (eta + 3), (eta - 1) * (eta + 5))
    for _ in range(20):
        x = F(rng.randint(2, 50), rng.randint(1, 7))
        direct = ((x ** 2 - 1) * (x + 3)) / ((x - 1) * (x + 5))
        assert f.evaluate({"eta": x}) == direct


def test_rationalfunc_known_factor_reduction():
    xi = eta + g + F(1, 2)
    f = RationalFunc(xi * xi * eta, xi ** 3)
    assert f == RationalFunc(eta, xi)


def test_solve_identity_and_underdetermined():
    sol = solve_linear_exact([[1, 0], [0, 1]], [1, 0])
    assert sol.solution == [F(1), F(0)] and sol.kernel_basis == []
    sol = solve_linear_exact([[1, 1]], [1])
    assert sol.consistent and len(sol.kernel_basis) == 1
    k = sol.kernel_basis[0]
    assert k[0] + k[1] == 0
    assert sol.solution[0] + sol.solution[1] == 1


def test_solve_inconsistent_is_reported_not_raised():
    sol = solve_linear_exact([[1, 1], [1, 1]], [1, 2])
    assert isinstance(sol, LinearSolution)
    assert not sol.consistent and sol.solution is None


def test_solve_residual_properties_randomized():
    rng = random.Random(2)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        M = [[F(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(rows)]
        x = [F(rng.randint(-3, 3)) for _ in range(cols)]
        rhs = [sum(M[i][j] * x[j] for j in range(cols)) for i in range(rows)]
        sol = solve_linear_exact(M, rhs)
        assert sol.consistent
        for i in range(rows):
            assert sum(M[i][j] * sol.solution[j] for j in range(cols)) == rhs[i]
        for vec in sol.kernel_basis:
            for i in range(rows):
                assert sum(M[i][j] * vec[j] for j in range(cols)) == 0


def _reference_solve_fraction(matrix, rhs) -> LinearSolution:
    """Gauss-Jordan elimination over Fraction: the reference for the
    integer-row elimination behind solve_linear_exact."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    aug = [[F(x) for x in row] + [F(rhs[i])] for i, row in enumerate(matrix)]
    pivot_cols: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if aug[i][c]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if aug[i][cols]:
            return LinearSolution(False, None, [])
    solution = [F(0)] * cols
    for i, c in enumerate(pivot_cols):
        solution[c] = aug[i][cols]
    kernel = []
    for fc in (c for c in range(cols) if c not in pivot_cols):
        vec = [F(0)] * cols
        vec[fc] = F(1)
        for i, c in enumerate(pivot_cols):
            vec[c] = -aug[i][fc]
        kernel.append(vec)
    return LinearSolution(True, solution, kernel)


def test_solve_all_zero_matrix():
    # every column is free; a nonzero right-hand side is inconsistent
    zero = [[F(0)] * 3, [F(0)] * 3]
    sol = solve_linear_exact(zero, [0, 0])
    assert sol == LinearSolution(True, [F(0)] * 3,
                                 [[F(int(i == c)) for i in range(3)] for c in range(3)])
    assert sol == _reference_solve_fraction(zero, [0, 0])
    sol = solve_linear_exact(zero, [0, F(1, 2)])
    assert sol == LinearSolution(False, None, [])
    assert sol == _reference_solve_fraction(zero, [0, F(1, 2)])


def test_solve_row_that_vanishes_during_elimination():
    # row 1 is twice row 0 and clears to zero at column 0; it is kept as
    # an empty row and pivoting goes on with row 2 (consistent), or it
    # carries a nonzero right-hand side (inconsistent)
    matrix = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    sol = solve_linear_exact(matrix, [1, 2, 1])
    assert sol == LinearSolution(True, [F(-1), F(1), F(0)],
                                 [[F(-1), F(-1), F(1)]])
    assert sol == _reference_solve_fraction(matrix, [1, 2, 1])
    sol = solve_linear_exact(matrix, [1, 3, 1])
    assert sol == LinearSolution(False, None, [])
    assert sol == _reference_solve_fraction(matrix, [1, 3, 1])


def test_solve_sparse_pivot_row_clears_a_dense_row():
    # the pivot row of column 0 has one nonzero; the row it clears has
    # four, and keeps the three it does not share
    matrix = [[F(2), 0, 0, 0], [F(3), F(1, 3), F(2), F(5)], [0, 0, F(7), 0]]
    rhs = [F(4), F(1), F(14)]
    sol = solve_linear_exact(matrix, rhs)
    assert sol == LinearSolution(True, [F(2), F(-27), F(2), F(0)],
                                 [[F(0), F(-15), F(0), F(1)]])
    assert sol == _reference_solve_fraction(matrix, rhs)


_small_fractions = st.builds(F, st.integers(-6, 6), st.integers(1, 5))


@st.composite
def _linear_systems(draw):
    """Rectangular rational systems, with zero rows, duplicate rows and
    combinations of other rows (rank deficiency) mixed in; an added row's
    right-hand side is either the consistent one or perturbed."""
    cols = draw(st.integers(1, 6))
    row = st.lists(_small_fractions, min_size=cols, max_size=cols)
    matrix = draw(st.lists(row, min_size=1, max_size=5))
    rhs = draw(st.lists(_small_fractions, min_size=len(matrix),
                        max_size=len(matrix)))
    for kind in draw(st.lists(st.sampled_from(["zero", "duplicate", "combination"]),
                              max_size=3)):
        i = draw(st.integers(0, len(matrix) - 1))
        j = draw(st.integers(0, len(matrix) - 1))
        c = draw(_small_fractions)
        if kind == "zero":
            new, b = [F(0)] * cols, F(0)
        elif kind == "duplicate":
            new, b = list(matrix[i]), rhs[i]
        else:
            new = [x + c * y for x, y in zip(matrix[i], matrix[j])]
            b = rhs[i] + c * rhs[j]
        if draw(st.booleans()):
            b += draw(_small_fractions)
        at = draw(st.integers(0, len(matrix)))
        matrix.insert(at, new)
        rhs.insert(at, b)
    return matrix, rhs


@settings(max_examples=300, deadline=None, database=None)
@given(_linear_systems())
def test_solve_matches_fraction_reference(system):
    matrix, rhs = system
    assert solve_linear_exact(matrix, rhs) == _reference_solve_fraction(matrix, rhs)


_VAR_SETS = [("eta",), ("g",), ("eta", "g")]


@st.composite
def _small_polys(draw):
    """Polynomials in eta, in g, or in both: up to 5 terms of exponent <= 3,
    coefficients p/q with |p| <= 4 and q <= 3 (zeros included, so the
    validating constructor drops some of them)."""
    vs = draw(st.sampled_from(_VAR_SETS))
    keys = st.tuples(*[st.integers(0, 3)] * len(vs))
    coeffs = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
    return ParamPoly(vs, draw(st.dictionaries(keys, coeffs, max_size=5)))


def _assert_valid(p):
    """p holds the ParamPoly invariants and is what the validating
    constructor makes of its own vars and terms."""
    assert isinstance(p.vars, tuple)
    for e, c in p.terms.items():
        assert isinstance(e, tuple) and len(e) == len(p.vars)
        assert all(type(k) is int and k >= 0 for k in e)
        assert type(c) is F and c != 0
    rebuilt = ParamPoly(p.vars, p.terms)
    assert (rebuilt.vars, rebuilt.terms) == (p.vars, p.terms)


@settings(max_examples=300, deadline=None, database=None)
@given(_small_polys(), _small_polys(), st.sampled_from([0, 3, F(-2, 5)]),
       st.integers(0, 3))
@example(eta + 1, eta - 1, 0, 2)        # the eta terms of the product cancel
@example(eta * g - 1, eta * g + 1, 0, 1)
def test_trusted_results_match_the_validating_constructor(p, q, c, k):
    results = [p + q, p - q, p * q, q * p, p - p, p + (-p), p * 0, 0 * p,
               p * ParamPoly.zero(q.vars), p * c, c * p, p + c, c - p, -p,
               p ** k, p.diff("eta"), p.diff("g"), p.diff("h"),
               *p.coeffs_in("eta").values(),
               p.with_vars(("eta", "g", "h"))]
    for r in results:
        _assert_valid(r)
    assert (p - p).is_zero and (p * 0).is_zero
    assert p * q == q * p


@st.composite
def _bound_polys(draw):
    """A polynomial in one to three of z, g, a (up to 6 terms of exponent
    <= 4) and a numeric value for every one of them, plus an unused name."""
    vs = draw(st.lists(st.sampled_from(("z", "g", "a")), min_size=1, max_size=3,
                       unique=True))
    rats = st.builds(F, st.integers(-9, 9), st.integers(1, 7))
    keys = st.tuples(*[st.integers(0, 4)] * len(vs))
    p = ParamPoly(vs, draw(st.dictionaries(keys, rats, max_size=6)))
    return p, {v: draw(rats) for v in (*vs, "h")}


@settings(max_examples=300, deadline=None, database=None)
@given(_bound_polys())
@example((ParamPoly.zero(("z",)), {"z": F(3)}))
@example(((z + g) ** 3, {"z": F(-1, 2), "g": F(1, 2)}))  # the value is 0
def test_numeric_evaluate_matches_substitution(case):
    p, binding = case
    got = p.evaluate(binding)
    assert type(got) is F
    assert got == p.subs(binding).constant_value()
    # a variable left unbound: the value or ValueError of the substitution
    # route (its terms may still cancel at the other values)
    for v in p.vars:
        unbound = {k: x for k, x in binding.items() if k != v}
        assert (_value_or_error(lambda: p.evaluate(unbound))
                == _value_or_error(lambda: p.subs(unbound).constant_value()))


@st.composite
def _partly_bound_polys(draw):
    """A polynomial of ``_bound_polys`` with numbers bound to any subset of
    its variables and the unused name."""
    p, values = draw(_bound_polys())
    bound = draw(st.lists(st.sampled_from(sorted(values)), unique=True))
    return p, {v: values[v] for v in bound}


@settings(max_examples=300, deadline=None, database=None)
@given(_partly_bound_polys())
# the kept variables come back in _var_key order (g before a) once a term
# has a positive exponent, and in their own order when every term is constant
@example((ParamPoly(("a", "g", "z"), {(1, 0, 2): F(3), (0, 1, 0): F(-1)}), {"z": F(2)}))
@example((ParamPoly(("a", "g", "z"), {(0, 0, 0): F(2)}), {"z": F(2)}))
def test_numeric_subs_matches_the_polynomial_route(case):
    # numbers give the variables and terms that the same values bound as
    # constant ParamPolys give
    p, numeric = case
    fast = p.subs(numeric)
    general = p.subs({v: ParamPoly.const(x) for v, x in numeric.items()})
    assert (fast.vars, fast.terms) == (general.vars, general.terms)
    _assert_valid(fast)


def _value_or_error(fn):
    try:
        return fn()
    except ValueError as exc:
        return str(exc)


def test_evaluate_takes_polynomial_bindings():
    p = (z + g) ** 2 - z * z - 2 * z * g
    assert p.evaluate({"z": F(5), "g": ParamPoly.const(3)}) == 9
    assert p.evaluate({"g": F(3)}) == 9  # z is bound by no term
    with pytest.raises(ValueError, match=r"not a constant polynomial: 2\*g"):
        (z * g).evaluate({"z": F(2)})
    with pytest.raises(ValueError, match="not a constant polynomial"):
        (z * g).evaluate({"z": F(2), "g": ParamPoly.var("a")})


def test_interpolate_linear():
    got = interpolate_param([(0, F(2)), (1, F(3))], 1, "g")
    assert got == g + 2


def test_interpolate_reconstructs_coefficient_polynomial():
    target = 128 * (2 * g + 1) * (6 * g + 13)
    samples = [(F(k), target.evaluate({"g": F(k)})) for k in (2, 3, 4, 5)]
    assert interpolate_param(samples, 2, "g") == target


def test_interpolate_constant_collapse():
    got = interpolate_param([(0, F(5)), (1, F(5)), (2, F(5))], 2, "g")
    assert got == ParamPoly.const(5, ("g",))


def test_interpolate_round_trip_randomized():
    rng = random.Random(3)
    for _ in range(20):
        deg = rng.randint(0, 4)
        coeffs = {k: F(rng.randint(-9, 9)) for k in range(deg + 1)}
        p = ParamPoly.univar("g", coeffs)
        pts = random.Random(deg).sample(range(-8, 9), deg + 3)
        samples = [(F(x), p.evaluate({"g": F(x)})) for x in pts]
        assert interpolate_param(samples, deg, "g") == p


def test_interpolate_mismatch_raises():
    samples = [(F(0), F(0)), (F(1), F(1)), (F(2), F(4))]  # quadratic data
    with pytest.raises(SampleMismatch):
        interpolate_param(samples, 1, "g")


def test_interpolate_grid_two_parameters():
    a, b = ParamPoly.var("a"), ParamPoly.var("b")
    target = (a + 1) * (b - 2) + a * a
    other = F(1, 3) * a * b - 7
    samples = {}
    for av in (0, 1, 5):
        for bv in (0, 3):
            at = {"a": F(av), "b": F(bv)}
            samples[(F(av), F(bv))] = [target.evaluate(at), other.evaluate(at)]
    got = interpolate_grid(samples, {"a": 2, "b": 1}, ["a", "b"])
    assert got == [target, other]
    assert all(p.vars == ("a", "b") for p in got)
    # exactly bound + 1 nodes per variable: a fourth value of a is refused
    extra = dict(samples)
    for bv in (0, 3):
        at = {"a": F(2), "b": F(bv)}
        extra[(F(2), F(bv))] = [target.evaluate(at), other.evaluate(at)]
    with pytest.raises(ValueError, match="exactly degree_bound"):
        interpolate_grid(extra, {"a": 2, "b": 1}, ["a", "b"])


def test_parse_poly_grammar():
    assert parse_poly("1") == ParamPoly.const(1)
    assert parse_poly("eta^2") == eta ** 2
    assert parse_poly("1/2*eta^2 - 3*eta + 1") == eta ** 2 * F(1, 2) - 3 * eta + 1
    assert parse_poly("-eta") == -eta
    assert parse_poly("2*(eta+1)") == 2 * eta + 2
    # '^' binds tighter than a sign, after '*' as at the start of a sum
    assert parse_poly("-eta^2") == -eta ** 2
    assert parse_poly("2*-eta^2") == -2 * eta ** 2
    assert parse_poly("3*-2^2") == -12
    assert parse_poly("(-eta)^2") == eta ** 2
    assert parse_poly("2*-(eta+1)^2*g") == -2 * (eta + 1) ** 2 * g
    assert parse_poly("1/8*(g-1)^2") == F(1, 8) * (g - 1) ** 2
    with pytest.raises(ValueError):
        parse_poly("eta^")


def test_parse_poly_caps_the_degree_before_expanding(monkeypatch):
    def refuse(self, n):
        raise AssertionError("the power was expanded")

    assert parse_poly(f"(eta+1)^{MAX_PARSE_DEGREE}") == (eta + 1) ** MAX_PARSE_DEGREE
    assert parse_poly("(eta+1)^16*(eta+1)^16") == (eta + 1) ** 32
    # a power above the cap is refused before it is expanded
    monkeypatch.setattr(ParamPoly, "__pow__", refuse)
    with pytest.raises(ValueError, match="total degree 1600 is above the "
                                         "parser's bound 32"):
        parse_poly("(eta+1)^1600")
    monkeypatch.undo()
    # so is a product, and an intermediate above the cap that later cancels
    for text, degree in (("(eta+1)^16*(eta+1)^16*(eta+1)", 33),
                         ("(eta^40 - eta^40 + eta)", 40), ("eta^2^17", 34)):
        with pytest.raises(ValueError, match=f"total degree {degree} is above"):
            parse_poly(text)
    # a constant has degree 0, so its exponent is capped on its own; a chain
    # x^m^n is the one power x^(m*n)
    assert parse_poly(f"3^{MAX_PARSE_DEGREE}") == ParamPoly.const(3 ** MAX_PARSE_DEGREE)
    assert parse_poly("2^4^8") == ParamPoly.const(2 ** 32)
    monkeypatch.setattr(ParamPoly, "__pow__", refuse)
    for text, exponent in (("3^33", 33), ("3^10000000", 10000000),
                           ("3^32^32", 1024), ("3^0^33", 33)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^exponent {exponent} is above the "
                                             "parser's bound 32$"):
            parse_poly(text)
        assert time.perf_counter() - start < 0.1


def test_parse_poly_bounds_the_bits_of_nested_powers():
    # the exponent times the largest coefficient bit length is capped at
    # MAX_PARSE_BITS: (3^32)^32 is 32 * 51 bits, and the next level,
    # 32 * 1624 bits, is refused before it is formed, at any depth
    assert parse_poly("(3^32)^32*eta") == 3 ** 1024 * eta
    assert parse_poly("(1/3)^32") == ParamPoly.const(F(1, 3 ** 32))
    for text in ("(((3^32)^32)^32)^32*eta", "((((3^32)^32)^32)^32)^32*eta",
                 "((3^32)^32)^32"):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^a power of 32 on 1624-bit coefficients "
                                             f"is above the parser's bound {MAX_PARSE_BITS}"):
            parse_poly(text)
        assert time.perf_counter() - start < 0.1
    # a chain x^m^n counts its whole exponent m*n
    assert parse_poly("((3^32)^32)^2") == ParamPoly.const(3 ** 2048)
    with pytest.raises(ValueError, match="^a power of 4 on 1624-bit"):
        parse_poly("((3^32)^32)^2^2")


def test_parse_poly_bounds_the_bits_of_products():
    # the largest coefficient bit lengths of the two factors of a product add
    # up to at most MAX_PARSE_BITS: two factors of (3^32)^32 (1624 bits each)
    # parse, and a third is refused before it is formed, however many follow
    assert parse_poly("(3^32)^32*(3^32)^32*eta") == 3 ** 2048 * eta
    for k in (3, 1000):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^a product of 3247- and 1624-bit coefficients "
                                             f"is above the parser's bound {MAX_PARSE_BITS}"):
            parse_poly("*".join(["(3^32)^32"] * k) + "*eta")
        assert time.perf_counter() - start < 0.1


def test_parse_poly_bounds_the_nesting():
    # parentheses and signs nest at most MAX_PARSE_NESTING deep, far below
    # the recursion limit; a sign that starts a sum nests nothing
    n = MAX_PARSE_NESTING
    assert parse_poly("(" * n + "eta" + ")" * n) == eta
    assert parse_poly("2*" + "-(" * (n // 2) + "eta" + ")" * (n // 2)) == 2 * eta
    assert parse_poly("-" * (5 * n + 1) + "eta") == -eta
    for text in ("(" * (n + 1) + "eta" + ")" * (n + 1), "2*" + "-" * (n + 1) + "eta",
                 "(" * 20000 + "eta" + ")" * 20000):
        with pytest.raises(ValueError, match=f"^parentheses and signs nest deeper "
                                             f"than the parser's bound {n}$"):
            parse_poly(text)


def test_rat_reads_only_the_number_grammar():
    # an optional sign, digits and an optional /digits, as rat_str prints
    for text, value in (("7/3", F(7, 3)), ("-5", F(-5)), ("+2", F(2)),
                        (" 3/4 ", F(3, 4))):
        assert rat(text) == value
    # other notations that Fraction reads are refused, an exponent at once,
    # and so are digits other than ASCII ones
    for text in ("1.5", "1e2", "1_000", "1e999999", "3 / 4", "", "--1", "1/-2",
                 "７/３", "１"):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^not an exact rational p/q: "):
            rat(text)
        assert time.perf_counter() - start < 0.1
    with pytest.raises(ValueError, match="^zero denominator$"):
        rat("1/0")
    with pytest.raises(TypeError):  # a JSON true is not the number 1
        rat(True)
    # rat reads back what rat_str prints past Python's int-string limit, up
    # to MAX_DIGITS digits, and refuses a longer number before reading it
    for value in (F(10 ** 5000, 7), F(-(3 ** 9000), 10 ** 4400 + 1)):
        assert rat(rat_str(value)) == value
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"^a number of {MAX_DIGITS + 1} digits "
                                         f"is above the reader's bound {MAX_DIGITS}"):
        rat("1/" + "7" * (MAX_DIGITS + 1))
    assert time.perf_counter() - start < 0.1


@st.composite
def _printable_polys(draw):
    """Polynomials in one to three of eta, z, sp1 and i_: up to 6 terms of
    exponent <= 4, coefficients p/q with |p| <= 9 and q <= 7 (zeros
    included, so some drop and the zero polynomial occurs)."""
    vs = draw(st.lists(st.sampled_from(("eta", "z", "sp1", "i_")), min_size=1,
                       max_size=3, unique=True))
    keys = st.tuples(*[st.integers(0, 4)] * len(vs))
    coeffs = st.builds(F, st.integers(-9, 9), st.integers(1, 7))
    return ParamPoly(vs, draw(st.dictionaries(keys, coeffs, max_size=6)))


@settings(max_examples=300, deadline=None, database=None)
@given(_printable_polys())
@example(ParamPoly.zero(("eta",)))
@example(ParamPoly(("eta", "z"), {(2, 0): F(-1), (0, 1): F(-3, 4), (0, 0): F(-1)}))
def test_printed_polynomials_parse_back(p):
    # every polynomial a report prints reads back in the grammar of --Y
    assert parse_poly(str(p)) == p


def test_records_round_trip():
    p = eta ** 2 * F(1, 3) - g * 7
    assert ParamPoly.from_record(p.record()) == p


@pytest.mark.parametrize("variables", [[0], [None], [["eta"]], ["eta", "eta"]])
def test_record_variables_must_be_distinct_strings(variables):
    rec = {"variables": variables, "terms": [{"exponents": [1] * len(variables),
                                              "coefficient": "1"}]}
    with pytest.raises(ValueError, match="variables must be distinct strings"):
        ParamPoly.from_record(rec)


# -- EtaPoly: polynomials in eta on integer numerators ---------------------------


@st.composite
def _eta_polys(draw):
    """Polynomials in eta of degree <= 5 with coefficients p/q, |p| <= 6 and
    q <= 6, as ParamPolys (zeros included, so some degrees drop)."""
    coeffs = draw(st.lists(st.builds(F, st.integers(-6, 6), st.integers(1, 6)),
                           max_size=6))
    return ParamPoly.univar("eta", coeffs)


def _assert_lowest_terms(p):
    """p holds the EtaPoly invariants: int numerators with no trailing zero
    over a positive int denominator, sharing no common factor."""
    assert type(p.num) is tuple and all(type(x) is int for x in p.num)
    assert type(p.den) is int and p.den > 0
    assert not p.num or p.num[-1] != 0
    assert math.gcd(p.den, *p.num) == 1
    assert p.num or p.den == 1


@settings(max_examples=300, deadline=None, database=None)
@given(_eta_polys(), _eta_polys(), st.sampled_from([0, 3, F(-2, 5)]))
@example(eta + 1, eta - 1, 0)              # the eta terms of the sum cancel
@example(eta * F(1, 2), eta * F(1, 2), 2)  # the denominators cancel
def test_eta_poly_matches_param_poly(p, q, c):
    a, b = EtaPoly.from_param(p), EtaPoly.from_param(q)
    E = EtaPoly.from_param
    pairs = [(a + b, p + q), (a - b, p - q), (a * b, p * q), (b * a, q * p),
             (a * c, p * c), (c * a, c * p), (-a, -p), (a.diff(), p.diff("eta")),
             (a.reflected(), p.subs({"eta": -eta})),
             (EtaPoly.dot([(a, b), (b, b), (a, a)]), p * q + q * q + p * p)]
    for got, want in pairs:
        want = want.with_vars(("eta",))  # the zero of subs has no variables
        _assert_lowest_terms(got)
        assert got == E(want) and got.param() == want and hash(got) == hash(E(want))
        assert repr(got) == repr(want) and got.record() == want.record()
        assert got.degree == want.degree("eta") and bool(got) == bool(want)
        assert [got.coeff(k) for k in range(-1, 8)] == \
            [want.coeffs_in("eta").get(k, 0) for k in range(-1, 8)]
    _assert_lowest_terms(a.integrate())
    assert a.integrate().diff() == a and a.integrate().coeff(0) == 0
    assert (a == b) == (p == q)
    assert a == EtaPoly([p.coeffs_in("eta").get(k, ParamPoly.zero()).constant_value()
                         for k in range(a.degree + 1)])


def test_eta_poly_constants_and_leading_coefficient():
    assert EtaPoly() == 0 and not EtaPoly() and EtaPoly().degree == -1
    assert EtaPoly([0, 0]) == EtaPoly() and EtaPoly().lead == 0
    p = EtaPoly(["1/2", 0, F(-3, 4)])
    assert (p.num, p.den, p.degree, p.lead) == ((2, 0, -3), 4, 2, F(-3, 4))
    assert EtaPoly.const(F(5, 3)) == F(5, 3) and EtaPoly.const(7) != 8
    assert EtaPoly((1, 1)) != ParamPoly.const(1)  # no mixed-type equality


@pytest.mark.parametrize("poly", [g + eta, g])
def test_eta_poly_refuses_other_variables(poly):
    with pytest.raises(ValueError, match="not a polynomial in eta"):
        EtaPoly.from_param(poly)
