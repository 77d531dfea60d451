"""Exact rational arithmetic: scalars, dense polynomials in eta, sparse
multivariate polynomials, reduced rational functions, exact linear solving
and interpolation.

Everything downstream (family data, recurrence tables, closure data,
operator algebra) is built on the types in this module.  There is no
floating point anywhere: scalars are `fractions.Fraction`.  A polynomial in
eta alone (every P_n, seed xi, Hamiltonian numerator and X of a family at
bound parameters) is an ``EtaPoly``: a tuple of integer numerators, low
degree to high, over one positive denominator, in lowest terms.  A
polynomial in several variables (closure data in z, reference rows in the
parameters, parsed ``--Y`` and plugin input) is a ``ParamPoly``: a dict
mapping exponent tuples to nonzero Fractions.  A rational function is a
reduced pair of ParamPolys.  All values are immutable after construction
and all functions are pure, so independent computations can safely run in
parallel.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from decimal import Decimal
from fractions import Fraction
from typing import Mapping, Sequence

Rat = Fraction

# Preferred display/canonical order for the symbols used in this package.
# Unknown symbols sort after these, alphabetically.
_VAR_PRIORITY = (
    "eta", "z", "x", "v", "n", "g", "h", "a", "b",
    "a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4",
    "s1", "s2", "sp1", "sp2", "q", "r", "s", "i_",
)
_VAR_RANK = {name: i for i, name in enumerate(_VAR_PRIORITY)}


def _var_key(name: str) -> tuple[int, str]:
    return (_VAR_RANK.get(name, len(_VAR_PRIORITY)), name)


# The one number grammar, as rat_str prints a magnitude and parse_poly reads
# a coefficient: with no exponent, a short string names no huge number.
# Digits are ASCII: [0-9], not \d, which matches every Unicode digit.
_DIGITS = "[0-9]+"
_NUMBER = rf"{_DIGITS}(?:/{_DIGITS})?"
_SIGNED_NUMBER = re.compile(rf"\s*([-+]?)({_DIGITS})(?:/({_DIGITS}))?\s*")
_INTEGER = re.compile(rf"\s*(-?){_DIGITS}\s*")


def rat(value) -> Rat:
    """Coerce ints, Fractions and strings of an optional sign and a
    ``_NUMBER`` to an exact Fraction.  Any other string, p/0 and a number of
    more than MAX_DIGITS digits are ValueErrors, the last raised before it
    is read; a bool or another type is a TypeError.  Decimal reads digits
    past Python's int-string limit (3.11+), as rat_str writes them."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if not isinstance(value, str):
        raise TypeError(f"not an exact rational: {value!r}")
    if not (m := _SIGNED_NUMBER.fullmatch(value)):
        raise ValueError(f"not an exact rational p/q: {value!r}")
    sign, num, den = m.groups("1")
    if max(len(num), len(den)) > MAX_DIGITS:
        raise ValueError(f"a number of {max(len(num), len(den))} digits is above "
                         f"the reader's bound {MAX_DIGITS} digits")
    q = int(Decimal(den))
    if not q:
        raise ValueError("zero denominator")
    return Fraction(int(Decimal(sign + num)), q)


def count(text: str) -> int:
    """The nonnegative integer in ASCII digits of --n-max, CLOSURELAB_SEED, a
    --D seed degree or a ``parse_poly`` exponent; else a ValueError."""
    if not (m := _INTEGER.fullmatch(text)) or m[1]:
        raise ValueError(f"must be nonnegative, got {text.strip()}" if m else
                         f"not an integer in ASCII digits: {text!r}")
    return rat(text).numerator


def rat_str(value: Rat) -> str:
    """Serialize a Fraction as 'p/q', or 'p' when the denominator is 1.
    Decimal(int) prints every digit and, unlike str(int) from Python 3.11
    on, has no limit on their number."""
    value = Fraction(value)
    num = str(Decimal(value.numerator))
    if value.denominator == 1:
        return num
    return f"{num}/{Decimal(value.denominator)}"


def horner(coeffs: Sequence[int], x: int, y: int) -> int:
    """sum_i coeffs[i] x^i y^(m-1-i), m = len(coeffs) >= 1: the polynomial
    with these coefficients at x/y, times y^(m-1).  Homogeneous Horner:
    acc = coeffs[m-1], then acc <- acc x + coeffs[i] y^(m-1-i) for
    i = m-2..0, the power of y carried from one step to the next."""
    acc, ypow = coeffs[-1], 1
    for c in reversed(coeffs[:-1]):
        ypow *= y
        acc = acc * x + c * ypow
    return acc


def _numeric_value(terms, xs: Sequence[Rat]) -> Rat:
    """sum coeff * prod_v xs[v]^e_v over the (exponents, coeff) pairs of
    ``terms``, whose exponents line up with the numbers ``xs``: the value of
    a polynomial at a point, and the one such formula of ``ParamPoly``."""
    total = None
    for exps, coeff in terms:
        for x, e in zip(xs, exps):
            if e:
                coeff *= x ** e
        total = coeff if total is None else total + coeff
    return Fraction(0) if total is None else total


class Frozen:
    """Base of the immutable value types: a constructor sets the fields
    once, through ``_set``; any later assignment raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)


class SampleMismatch(Exception):
    """An extra interpolation sample disagrees with the interpolant
    (the degree bound was too small)."""


class ParamPoly(Frozen):
    """Sparse exact polynomial in named variables.

    terms maps exponent tuples (one entry per variable, aligned with
    ``vars``) to nonzero Fractions.  The zero polynomial has no terms.

    Every instance keeps two invariants:

    (I1) every key of ``terms`` is a tuple of len(vars) nonnegative ints;
    (I2) every value of ``terms`` is a nonzero Fraction.

    The public constructor ``ParamPoly(vars, terms)`` establishes them from
    any input: it reads each coefficient with ``rat``, drops zeros and
    checks each exponent tuple.  It is the path for outside data
    (``from_record`` for plugins, ``parse_poly`` for ``--Y``, ``univar``).
    Everything else builds its results with ``_trusted``, which checks
    nothing.  ``zero`` and ``const`` hold at most the one key (0,...,0) with
    a nonzero value coerced by ``rat``.  The other trusted operations keep
    I1 and I2 for operands that have them:

    - I1.  A result key is an operand key (add, neg, scalar mul), the sum of
      two operand keys (mul), an operand key with one entry lowered by one
      (diff, on positive entries only), an operand key with one entry
      removed (coeffs_in), or an operand key with its entries moved to the
      positions of the new variables (with_vars, which refuses to drop a
      variable with a positive exponent).  Sums of nonnegative ints are
      nonnegative ints, and ``_align`` gives both operands of add and mul
      the same ``vars``, so every key has the arity of the result's
      ``vars``.
    - I2.  Sums and products of Fractions, and Fractions times or over ints,
      are Fractions.  Only add and mul sum coefficients, so only they can
      produce a zero, and both drop zero sums.  Every other operation maps
      distinct keys to distinct keys (each key map above is injective on the
      terms it is applied to), so a result key receives one coefficient: the
      negation of a nonzero Fraction, or a nonzero Fraction times a nonzero
      scalar or a positive int (diff: the exponent).  Each of these is
      nonzero.

    ``interpolate_grid`` builds its results with ``_trusted`` too: each key
    holds one exponent in range(b_v + 1) per variable, and each value is
    Fraction(T, D) for a nonzero int T and a positive int D.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Mapping[tuple[int, ...], Rat]):
        vs = tuple(vars)
        cleaned = {}
        for exps, coeff in terms.items():
            coeff = rat(coeff)
            if coeff:
                e = tuple(exps)
                if len(e) != len(vs):
                    raise ValueError("exponent arity does not match variables")
                if any(k < 0 for k in e):
                    raise ValueError("negative exponent")
                cleaned[e] = coeff
        self._set(vars=vs, terms=cleaned)

    @classmethod
    def _trusted(cls, vars: tuple[str, ...],
                 terms: dict[tuple[int, ...], Rat]) -> "ParamPoly":
        """An instance holding ``vars`` and ``terms`` as given, with no
        coercion and no checks: the caller guarantees I1 and I2 (see the
        class docstring)."""
        p = object.__new__(cls)
        object.__setattr__(p, "vars", vars)
        object.__setattr__(p, "terms", terms)
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(vars: Sequence[str] = ()) -> "ParamPoly":
        return ParamPoly._trusted(tuple(vars), {})

    @staticmethod
    def const(value, vars: Sequence[str] = ()) -> "ParamPoly":
        value = rat(value)
        vs = tuple(vars)
        if not value:
            return ParamPoly._trusted(vs, {})
        return ParamPoly._trusted(vs, {(0,) * len(vs): value})

    @staticmethod
    def var(name: str) -> "ParamPoly":
        return ParamPoly((name,), {(1,): Fraction(1)})

    @staticmethod
    def univar(name: str, coeffs: Mapping[int, Rat] | Sequence) -> "ParamPoly":
        """Univariate polynomial from {power: coeff} or a coefficient list."""
        if isinstance(coeffs, Mapping):
            items = coeffs.items()
        else:
            items = enumerate(coeffs)
        return ParamPoly((name,), {(k,): c for k, c in items})

    # -- bookkeeping -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Rat:
        if self.is_zero:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return next(iter(self.terms.values()))

    def used_vars(self) -> tuple[str, ...]:
        used = [False] * len(self.vars)
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used[i] = True
        return tuple(v for v, u in zip(self.vars, used) if u)

    def trimmed(self) -> "ParamPoly":
        """Drop variables that never appear with a positive exponent."""
        keep = self.used_vars()
        if keep == self.vars:
            return self
        idx = [self.vars.index(v) for v in keep]
        return ParamPoly(keep, {tuple(e[i] for i in idx): c for e, c in self.terms.items()})

    def degree(self, var: str | None = None) -> int:
        """Total degree, or degree in one variable. Zero polynomial: -1."""
        if self.is_zero:
            return -1
        if var is None:
            return max(sum(e) for e in self.terms)
        if var not in self.vars:
            return 0
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

    def _align(self, other: "ParamPoly") -> tuple["ParamPoly", "ParamPoly"]:
        if self.vars == other.vars:
            return self, other
        merged = tuple(sorted(set(self.vars) | set(other.vars), key=_var_key))
        return self.with_vars(merged), other.with_vars(merged)

    def with_vars(self, vars: Sequence[str]) -> "ParamPoly":
        vs = tuple(vars)
        if vs == self.vars:
            return self
        pos = {v: i for i, v in enumerate(vs)}
        for v in self.vars:
            if v not in pos:
                if any(e[self.vars.index(v)] for e in self.terms):
                    raise ValueError(f"cannot drop used variable {v}")
        terms = {}
        for exps, coeff in self.terms.items():
            new = [0] * len(vs)
            for v, e in zip(self.vars, exps):
                if e:
                    new[pos[v]] = e
            terms[tuple(new)] = coeff
        return ParamPoly._trusted(vs, terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "ParamPoly":
        if not isinstance(other, (ParamPoly, int, Fraction)):
            return NotImplemented
        other = _coerce_poly(other, self.vars)
        a, b = self._align(other)
        terms = dict(a.terms)
        for exps, coeff in b.terms.items():
            s = terms.get(exps)
            if s is None:
                terms[exps] = coeff
            elif s := s + coeff:
                terms[exps] = s
            else:
                del terms[exps]
        return ParamPoly._trusted(a.vars, terms)

    __radd__ = __add__

    def __neg__(self) -> "ParamPoly":
        return ParamPoly._trusted(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "ParamPoly":
        if not isinstance(other, (ParamPoly, int, Fraction)):
            return NotImplemented
        return self + (-_coerce_poly(other, self.vars))

    def __rsub__(self, other) -> "ParamPoly":
        return _coerce_poly(other, self.vars) - self

    def __mul__(self, other) -> "ParamPoly":
        if not isinstance(other, (ParamPoly, int, Fraction)):
            return NotImplemented
        if not isinstance(other, ParamPoly):
            if not other:
                return ParamPoly._trusted(self.vars, {})
            return ParamPoly._trusted(self.vars,
                                      {e: k * other for e, k in self.terms.items()})
        a, b = self._align(other)
        one = len(a.vars) == 1
        terms: dict[tuple[int, ...], Rat] = {}
        get = terms.get
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                key = (ea[0] + eb[0],) if one else tuple(map(operator.add, ea, eb))
                s = get(key)
                terms[key] = ca * cb if s is None else s + ca * cb
        return ParamPoly._trusted(a.vars, {e: c for e, c in terms.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ParamPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = ParamPoly.const(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ParamPoly.const(other, self.vars)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        a, b = self._align(other)
        return a.terms == b.terms

    def __hash__(self):
        a = self.trimmed()
        return hash((a.vars, frozenset(a.terms.items())))

    # -- calculus and substitution -----------------------------------------

    def diff(self, var: str) -> "ParamPoly":
        if var not in self.vars:
            return ParamPoly._trusted(self.vars, {})
        i = self.vars.index(var)
        return ParamPoly._trusted(self.vars, {
            e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
            for e, c in self.terms.items() if e[i]})

    def subs(self, bindings: Mapping[str, object]) -> "ParamPoly":
        """Substitute variables by Fractions or ParamPolys.  When every bound
        variable is bound to a number, each term's coefficient is multiplied
        by the bound powers and summed on its kept exponents
        (``_subs_numbers``); a ParamPoly binding takes the term-by-term
        products below."""
        relevant = {v: bindings[v] for v in self.vars if v in bindings}
        if not relevant:
            return self
        keep = [v for v in self.vars if v not in relevant]
        if not any(isinstance(x, ParamPoly) for x in relevant.values()):
            return self._subs_numbers(relevant, keep)
        result = ParamPoly.zero(keep)
        pow_cache: dict[tuple[str, int], ParamPoly] = {}

        def _power(v: str, k: int) -> ParamPoly:
            key = (v, k)
            if key not in pow_cache:
                base = relevant[v]
                if isinstance(base, ParamPoly):
                    pow_cache[key] = base ** k
                else:
                    pow_cache[key] = ParamPoly.const(rat(base) ** k)
            return pow_cache[key]

        for exps, coeff in self.terms.items():
            term = ParamPoly.const(coeff, keep)
            for v, e in zip(self.vars, exps):
                if not e:
                    continue
                if v in relevant:
                    term = term * _power(v, e)
                else:
                    term = term * ParamPoly.univar(v, {e: 1})
            result = result + term
        return result

    def _subs_numbers(self, values: Mapping[str, object],
                      keep: list[str]) -> "ParamPoly":
        """``subs`` with every bound variable bound to a number: the same
        variables and terms as the products of the general route.  Those
        products merge variables in ``_var_key`` order (``_align``) as soon as
        a term has a positive exponent, so the kept variables come back in
        that order unless every term is constant.  The terms are grouped by
        their exponents of the kept variables, each group's coefficient is
        its value at the bound numbers (``_numeric_value``), and zero
        coefficients are dropped, as ``__add__`` does."""
        vs = tuple(sorted(keep, key=_var_key) if any(map(any, self.terms)) else keep)
        kept = [self.vars.index(v) for v in vs]
        bound = [i for i, v in enumerate(self.vars) if v in values]
        xs = [rat(values[self.vars[i]]) for i in bound]
        groups: dict[tuple[int, ...], list] = {}
        for exps, coeff in self.terms.items():
            groups.setdefault(tuple(exps[i] for i in kept), []).append(
                (tuple(exps[i] for i in bound), coeff))
        terms = {key: _numeric_value(group, xs) for key, group in groups.items()}
        return ParamPoly._trusted(vs, {e: c for e, c in terms.items() if c})

    def evaluate(self, bindings: Mapping[str, object]) -> Rat:
        """The exact value at ``bindings``.  When every variable is bound to
        a number this is ``_numeric_value`` of the terms, read directly;
        otherwise (a ParamPoly binding, or a variable left unbound) it is
        ``subs(bindings).constant_value()``, which raises ValueError unless
        the result is constant."""
        xs = []
        for v in self.vars:
            x = bindings.get(v)
            if x is None or isinstance(x, ParamPoly):
                return self.subs(bindings).constant_value()
            xs.append(rat(x))
        return _numeric_value(self.terms.items(), xs)

    def coeffs_in(self, var: str) -> dict[int, "ParamPoly"]:
        """Split into {power of var: coefficient polynomial in the rest}."""
        if var not in self.vars:
            return {0: self} if self.terms else {}
        i = self.vars.index(var)
        rest = tuple(v for v in self.vars if v != var)
        out: dict[int, dict[tuple[int, ...], Rat]] = {}
        for exps, coeff in self.terms.items():
            k = exps[i]
            key = tuple(e for j, e in enumerate(exps) if j != i)
            out.setdefault(k, {})[key] = coeff
        return {k: ParamPoly._trusted(rest, t) for k, t in sorted(out.items())}

    def leading_coeff(self, var: str) -> "ParamPoly":
        split = self.coeffs_in(var)
        if not split:
            return ParamPoly.zero()
        return split[max(split)]

    # -- term order helpers (graded lex over self.vars) ----------------------

    def _lead_term(self) -> tuple[tuple[int, ...], Rat]:
        exps = max(self.terms, key=lambda e: (sum(e), e))
        return exps, self.terms[exps]

    def content(self) -> Rat:
        """Rational content (gcd of numerators / lcm of denominators), signed
        so that self / content has lead coefficient > 0."""
        if self.is_zero:
            return Fraction(1)
        num = 0
        den = 1
        for c in self.terms.values():
            num = math.gcd(num, abs(c.numerator))
            den = den * c.denominator // math.gcd(den, c.denominator)
        c = Fraction(num, den)
        if self._lead_term()[1] < 0:
            c = -c
        return c

    # -- display -------------------------------------------------------------

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
            coeff = self.terms[exps]
            factors = []
            for v, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(rat_str(coeff))
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{rat_str(coeff)}*{body}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    # -- serialization -------------------------------------------------------

    def record(self) -> dict:
        """JSON-compatible record: variables plus {exponents, coefficient} rows."""
        rows = [
            {"exponents": list(e), "coefficient": rat_str(c)}
            for e, c in sorted(self.terms.items())
        ]
        return {"variables": list(self.vars), "terms": rows}

    @staticmethod
    def from_record(rec: Mapping) -> "ParamPoly":
        """The polynomial of a ``record``; the variable names must be
        distinct strings (ValueError)."""
        vars = tuple(rec["variables"])
        if not all(isinstance(v, str) for v in vars) or len(set(vars)) < len(vars):
            raise ValueError("variables must be distinct strings, "
                             f"got {rec['variables']!r}")
        terms = {tuple(row["exponents"]): row["coefficient"] for row in rec["terms"]}
        return ParamPoly(vars, terms)


class EtaPoly(Frozen):
    """Exact polynomial in the one variable eta, on integer numerators.

    ``num`` holds the integer numerators of the coefficients of eta^0,
    eta^1, ... (low degree to high) and ``den`` their one positive
    denominator: the coefficient of eta^k is num[k]/den.  Every instance is
    in lowest terms: num has no trailing zero and gcd(num[0], ..., den) = 1,
    with the zero polynomial num = (), den = 1.  A rational polynomial has
    exactly one such form (the lcm of its coefficient denominators divides
    any common denominator, and the gcd condition forces that lcm), so
    equality and hashing compare (num, den) as tuples and the zero test is
    ``not num``.  ``_reduced`` establishes the form from any integer list
    over a positive denominator, and every operation builds its result
    through it; arithmetic inside runs on Python ints, with one gcd pass per
    result instead of one per coefficient.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Sequence = ()):
        """The polynomial sum_k coeffs[k]*eta^k of exact rationals (ints,
        Fractions or 'p/q' strings)."""
        cs = [rat(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        num, den = _lowest([c.numerator * (den // c.denominator) for c in cs], den)
        self._set(num=num, den=den)

    @classmethod
    def _reduced(cls, num: list[int], den: int) -> "EtaPoly":
        """The polynomial sum_k num[k]*eta^k / den, for den > 0."""
        p = object.__new__(cls)
        num, den = _lowest(num, den)
        object.__setattr__(p, "num", num)
        object.__setattr__(p, "den", den)
        return p

    @staticmethod
    def const(value) -> "EtaPoly":
        return EtaPoly((value,))

    @staticmethod
    def from_param(p: ParamPoly) -> "EtaPoly":
        """The polynomial of a ParamPoly in eta alone (ValueError when
        another variable occurs).  The list has deg p + 1 entries, so
        callers bound the degree of outside data first."""
        if p.used_vars() not in ((), ("eta",)):
            raise ValueError(f"not a polynomial in eta: {p}")
        coeffs = [Fraction(0)] * (p.degree("eta") + 1)
        for k, c in p.coeffs_in("eta").items():
            coeffs[k] = c.constant_value()
        return EtaPoly(coeffs)

    def param(self) -> ParamPoly:
        """The same polynomial as a ParamPoly in ("eta",)."""
        return ParamPoly.univar("eta", [Fraction(c, self.den) for c in self.num])

    # -- reading -------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    @property
    def degree(self) -> int:
        """Degree in eta; -1 for the zero polynomial."""
        return len(self.num) - 1

    def coeff(self, k: int) -> Rat:
        """The coefficient of eta^k."""
        return Fraction(self.num[k], self.den) if 0 <= k < len(self.num) else Fraction(0)

    @property
    def lead(self) -> Rat:
        """The coefficient of eta^degree (zero for the zero polynomial)."""
        return self.coeff(self.degree)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = EtaPoly.const(other)
        if not isinstance(other, EtaPoly):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "EtaPoly") -> "EtaPoly":
        if not isinstance(other, EtaPoly):
            return NotImplemented
        one = EtaPoly.const(1)
        return EtaPoly.dot([(self, one), (other, one)])

    def __neg__(self) -> "EtaPoly":
        return EtaPoly._reduced([-x for x in self.num], self.den)

    def __sub__(self, other: "EtaPoly") -> "EtaPoly":
        if not isinstance(other, EtaPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "EtaPoly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return EtaPoly._reduced([x * c.numerator for x in self.num],
                                    self.den * c.denominator)
        if not isinstance(other, EtaPoly):
            return NotImplemented
        return EtaPoly._reduced(convolve_sum([(self.num, other.num)]),
                                self.den * other.den)

    __rmul__ = __mul__

    @staticmethod
    def dot(pairs: Sequence[tuple["EtaPoly", "EtaPoly"]]) -> "EtaPoly":
        """sum_i a_i*b_i over (a_i, b_i) in ``pairs``: each product is formed
        on integers, scaled to the lcm of the product denominators
        a_i.den*b_i.den, and the sum is reduced once."""
        dens = [a.den * b.den for a, b in pairs]
        common = math.lcm(*dens)
        scaled = [([x * (common // d) for x in a.num], b.num)
                  for (a, b), d in zip(pairs, dens)]
        return EtaPoly._reduced(convolve_sum(scaled), common)

    def diff(self) -> "EtaPoly":
        return EtaPoly._reduced([k * x for k, x in enumerate(self.num)][1:], self.den)

    def integrate(self) -> "EtaPoly":
        """The antiderivative with zero constant term: the numerators
        x_k/(k+1) over the lcm of 1..deg+1, times den."""
        scale = math.lcm(*range(1, len(self.num) + 1))
        return EtaPoly._reduced([0] + [x * (scale // (k + 1)) for k, x in enumerate(self.num)],
                                self.den * scale)

    def reflected(self) -> "EtaPoly":
        """p(-eta): the odd coefficients change sign."""
        return EtaPoly._reduced([-x if k & 1 else x for k, x in enumerate(self.num)],
                                self.den)

    # -- display and serialization -------------------------------------------------

    def __repr__(self) -> str:
        """The form ``ParamPoly`` prints for the same polynomial."""
        return repr(self.param())

    def record(self) -> dict:
        """The ``ParamPoly.record`` of the same polynomial in ("eta",)."""
        return self.param().record()


def _lowest(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """(num, den) with trailing zeros dropped and divided by their gcd."""
    top = len(num)
    while top and not num[top - 1]:
        top -= 1
    if not top:
        return (), 1
    g = math.gcd(den, *num[:top])
    if g == 1:
        return tuple(num[:top]), den
    return tuple(x // g for x in num[:top]), den // g


def convolve_sum(pairs: Sequence[tuple[Sequence[int], Sequence[int]]]) -> list[int]:
    """Coefficients of sum_i a_i*b_i over the integer polynomials (a_i, b_i)
    in ``pairs`` (low to high), accumulated in one list; untrimmed, so a
    zero sum may come back as a list of zeros."""
    out: list[int] = []
    for a, b in pairs:
        if a and b:
            extra = len(a) + len(b) - 1 - len(out)
            if extra > 0:
                out += [0] * extra
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b, i):
                        out[j] += x * y
    return out


def _coerce_poly(value, vars: Sequence[str]) -> ParamPoly:
    if isinstance(value, ParamPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return ParamPoly.const(value, vars)
    raise TypeError(f"cannot treat {value!r} as a polynomial")


def poly_div_exact(a: ParamPoly, b: ParamPoly) -> ParamPoly | None:
    """Return q with a == q*b, or None when b does not divide a exactly.

    Works for any number of variables: repeated leading-term elimination
    under graded lex order.  For an exact multiple the leading term of the
    remainder is always divisible by the leading term of b, so the loop
    terminates with remainder zero exactly when b | a.
    """
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero:
        return ParamPoly.zero(a.vars)
    a, b = a._align(b)
    if b.is_constant():
        inv = 1 / b.constant_value()
        return a * inv
    lead_b, coeff_b = b._lead_term()
    quo: dict[tuple[int, ...], Rat] = {}
    rem = a
    while rem.terms:
        lead_r, coeff_r = rem._lead_term()
        diff = tuple(x - y for x, y in zip(lead_r, lead_b))
        if any(d < 0 for d in diff):
            return None
        q = coeff_r / coeff_b
        quo[diff] = q
        rem = rem - ParamPoly(rem.vars, {diff: q}) * b
    return ParamPoly(a.vars, quo)


def _int_coeffs(p: ParamPoly, var: str) -> list[int]:
    """Univariate poly to dense integer coefficient list (content cleared)."""
    deg = p.degree(var)
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // math.gcd(den, c.denominator)
    out = [0] * (deg + 1)
    i = p.vars.index(var) if var in p.vars else None
    for exps, c in p.terms.items():
        k = exps[i] if i is not None else 0
        out[k] = int(c * den)
    return out


def _int_primitive(c: list[int]) -> list[int]:
    g = 0
    for x in c:
        g = math.gcd(g, abs(x))
    if g > 1:
        c = [x // g for x in c]
    if c and c[-1] < 0:
        c = [-x for x in c]
    return c


def _int_deg(c: list[int]) -> int:
    while c and c[-1] == 0:
        c.pop()
    return len(c) - 1


def poly_gcd_univar(a: ParamPoly, b: ParamPoly, var: str) -> ParamPoly:
    """Monic gcd of two univariate polynomials (primitive PRS over Z)."""
    fa = _int_primitive(_int_coeffs(a, var))
    fb = _int_primitive(_int_coeffs(b, var))
    if _int_deg(fa) < _int_deg(fb):
        fa, fb = fb, fa
    while fb:
        # pseudo-remainder of fa by fb, then primitive part
        da, db = _int_deg(fa), _int_deg(fb)
        lead = fb[-1]
        rem = [x * lead ** (da - db + 1) for x in fa]
        for shift in range(da - db, -1, -1):
            q, r = divmod(rem[shift + db], lead)
            if r:  # rem was scaled by lead^(da-db+1), so every step divides
                raise ArithmeticError("pseudo-remainder step is not exact")
            if q:
                for j, c in enumerate(fb):
                    rem[shift + j] -= q * c
        _int_deg(rem)
        fa, fb = fb, _int_primitive(rem)
    if not fa:
        return ParamPoly.zero((var,))
    lead = Fraction(fa[-1])
    return ParamPoly.univar(var, {k: Fraction(c) / lead for k, c in enumerate(fa)})


class RationalFunc(Frozen):
    """Reduced quotient of two ParamPolys.

    Univariate quotients (both parts in the same single variable) are fully
    reduced with a monic denominator.  Multivariate quotients are reduced
    only when the denominator divides the numerator, and are otherwise
    normalized by content: there is no general multivariate gcd.  Equality
    cross-multiplies, so it never depends on the reduction state.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: ParamPoly, den: ParamPoly | int = 1):
        if isinstance(den, (int, Fraction)):
            den = ParamPoly.const(den, num.vars)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        num, den = _reduce_ratio(*num._align(den))
        self._set(num=num, den=den)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def as_poly(self) -> ParamPoly:
        if self.den.is_constant():
            return self.num * (1 / self.den.constant_value())
        q = poly_div_exact(self.num, self.den)
        if q is None:
            raise ValueError(f"not a polynomial: ({self.num})/({self.den})")
        return q

    def __add__(self, other) -> "RationalFunc":
        other = _coerce_rf(other)
        if self.den == other.den:
            return RationalFunc(self.num + other.num, self.den)
        return RationalFunc(self.num * other.den + other.num * self.den,
                            self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunc":
        return RationalFunc(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunc":
        return self + (-_coerce_rf(other))

    def __rsub__(self, other) -> "RationalFunc":
        return _coerce_rf(other) - self

    def __mul__(self, other) -> "RationalFunc":
        other = _coerce_rf(other)
        return RationalFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunc":
        other = _coerce_rf(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RationalFunc":
        return _coerce_rf(other) / self

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, ParamPoly)):
            other = _coerce_rf(other)
        if not isinstance(other, RationalFunc):
            return NotImplemented
        # cross-multiplied equality: independent of reduction state
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        return hash((self.num, self.den))

    def diff(self, var: str) -> "RationalFunc":
        if self.den.is_constant():
            return RationalFunc(self.num.diff(var), self.den)
        return RationalFunc(self.num.diff(var) * self.den - self.num * self.den.diff(var),
                            self.den * self.den)

    def subs(self, bindings: Mapping[str, object]) -> "RationalFunc":
        return RationalFunc(self.num.subs(bindings), self.den.subs(bindings))

    def evaluate(self, bindings: Mapping[str, object]) -> Rat:
        den = self.den.evaluate(bindings)
        if not den:
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        return self.num.evaluate(bindings) / den

    def __repr__(self) -> str:
        if self.den.is_constant() and self.den.constant_value() == 1:
            return repr(self.num)
        return f"({self.num})/({self.den})"


def _coerce_rf(value) -> RationalFunc:
    if isinstance(value, RationalFunc):
        return value
    if isinstance(value, ParamPoly):
        return RationalFunc(value)
    if isinstance(value, (int, Fraction)):
        return RationalFunc(ParamPoly.const(value))
    raise TypeError(f"cannot treat {value!r} as a rational function")


def _reduce_ratio(num: ParamPoly, den: ParamPoly) -> tuple[ParamPoly, ParamPoly]:
    if num.is_zero:
        return ParamPoly.zero(num.vars), ParamPoly.const(1, num.vars)
    if den.is_constant():
        c = den.constant_value()
        return num * (1 / c), ParamPoly.const(1, num.vars)
    # whole-denominator cancellation is common after compositions
    q = poly_div_exact(num, den)
    if q is not None:
        return q, ParamPoly.const(1, num.vars)
    nu, du = num.used_vars(), den.used_vars()
    if len(set(nu) | set(du)) == 1:
        var = (nu or du)[0]
        g = poly_gcd_univar(num, den, var)
        if g.degree(var) > 0:
            num = poly_div_exact(num, g)
            den = poly_div_exact(den, g)
        lead = den.leading_coeff(var).constant_value()
        return num * (1 / lead), den * (1 / lead)
    c = den.content()
    if c != 1:
        num = num * (1 / c)
        den = den * (1 / c)
    return num, den


# -- exact linear algebra ----------------------------------------------------


class LinearSolution(Frozen):
    """Outcome of an exact linear solve.

    ``consistent`` False is a normal, reported outcome (no solution exists);
    ``solution`` is then None.  ``kernel_basis`` spans the null space.
    Two outcomes are equal when their three fields are.
    """

    __slots__ = ("consistent", "solution", "kernel_basis")

    def __init__(self, consistent: bool, solution: list | None, kernel_basis: list):
        self._set(consistent=consistent, solution=solution, kernel_basis=kernel_basis)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearSolution):
            return NotImplemented
        return (self.consistent == other.consistent and self.solution == other.solution
                and self.kernel_basis == other.kernel_basis)

    def __repr__(self) -> str:
        return (f"LinearSolution({self.consistent}, {self.solution}, "
                f"{self.kernel_basis})")


def solve_linear_exact(matrix: Sequence[Sequence], rhs: Sequence) -> LinearSolution:
    """Solve M x = rhs exactly for rectangular M with rational entries.

    Gauss-Jordan elimination, run on integer rows.  Each augmented row is
    scaled to integers by the lcm of its denominators, and elimination stays
    in the integers: row_i <- p*row_i - a*row_r for the pivot p of row r,
    then row_i is divided by the gcd of its entries.  Scaling a row by a
    nonzero number keeps the row space, so the final rows are nonzero
    multiples of the rows of the reduced row echelon form, which is unique:
    pivot columns, rank and consistency are those of elimination over
    Fraction, and dividing each pivot row by its pivot gives the RREF
    exactly.  Fractions are formed only for those final quotients.

    Integer entries (the closure rows arrive scaled to integers) are read
    as they are: ``int`` has ``numerator`` and ``denominator`` like a
    Fraction.  Each row is held as a dict of its nonzero entries (column
    ``cols`` is the right-hand side), so a zero entry costs nothing.  A
    zero entry adds nothing to p*row_i - a*row_r or to a gcd, so the stored
    entries are exactly the nonzero entries of the dense integer rows.
    """
    rows = len(matrix)
    if rows == 0:
        return LinearSolution(True, [], [])
    cols = len(matrix[0])
    aug: list[dict[int, int]] = []
    for row, b in zip(matrix, rhs):
        entries = {c: x if isinstance(x, (int, Fraction)) else Fraction(x)
                   for c, x in enumerate([*row, b]) if x}
        scale = math.lcm(*(x.denominator for x in entries.values()))
        aug.append(_gcd_reduced({c: x.numerator * (scale // x.denominator)
                                 for c, x in entries.items()}))
    pivot_cols: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if c in aug[i]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        prow, p = aug[r], aug[r][c]
        for i in range(rows):
            a = aug[i].get(c)
            if i != r and a:
                aug[i] = _eliminated(aug[i], p, a, prow)
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if cols in aug[i]:
            return LinearSolution(False, None, [])
    solution = [Fraction(0)] * cols
    for i, c in enumerate(pivot_cols):
        solution[c] = Fraction(aug[i].get(cols, 0), aug[i][c])
    free_cols = [c for c in range(cols) if c not in pivot_cols]
    kernel = []
    for fc in free_cols:
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for i, c in enumerate(pivot_cols):
            vec[c] = Fraction(-aug[i].get(fc, 0), aug[i][c])
        kernel.append(vec)
    return LinearSolution(True, solution, kernel)


def _eliminated(row: dict[int, int], p: int, a: int,
                prow: dict[int, int]) -> dict[int, int]:
    """p*row - a*prow, zero entries dropped, divided by the gcd."""
    out = {k: p * x for k, x in row.items()}
    for k, y in prow.items():
        v = out.get(k, 0) - a * y
        if v:
            out[k] = v
        else:
            del out[k]
    return _gcd_reduced(out)


def _gcd_reduced(row: dict[int, int]) -> dict[int, int]:
    g = math.gcd(*row.values())
    return {k: x // g for k, x in row.items()} if g > 1 else row


# -- interpolation -----------------------------------------------------------


def interpolate_param(samples: Sequence[tuple], degree_bound: int,
                      var: str = "g") -> ParamPoly:
    """Unique interpolant of degree <= degree_bound in ``var`` through exact
    (point, value) samples.  The points are read in increasing order: the
    first degree_bound + 1 of them determine the polynomial
    (``interpolate_grid`` on one variable), and every further one checks
    it, in increasing order; the first disagreement raises SampleMismatch
    naming the point and the degree bound."""
    pts = sorted((rat(p), rat(v)) for p, v in samples)
    if len({p for p, _ in pts}) != len(pts):
        raise ValueError("sample points must be distinct")
    if len(pts) < degree_bound + 1:
        raise ValueError("need at least degree_bound+1 samples")
    nodes = {(p,): [v] for p, v in pts[:degree_bound + 1]}
    poly = interpolate_grid(nodes, {var: degree_bound}, [var])[0]
    for x, y in pts[degree_bound + 1:]:
        if poly.evaluate({var: x}) != y:
            raise SampleMismatch(f"sample at {var}={rat_str(x)} disagrees "
                                 f"with degree-{degree_bound} interpolant")
    return poly


def interpolate_grid(samples: Mapping[tuple, Sequence], bounds: Mapping[str, int],
                     vars: Sequence[str]) -> list[ParamPoly]:
    """Tensor-grid interpolation of vector values in several parameters:
    one ParamPoly per vector entry, of degree <= bounds[v] in each v.

    ``samples`` maps coordinate tuples (aligned with ``vars``) to
    equal-length sequences of exact values, and must cover the cartesian
    product of one value set per variable, with exactly bounds[v] + 1
    distinct values of each v: the nodes that determine the interpolant.
    The polynomials hold the variables in the canonical order of
    ``_VAR_PRIORITY``.

    Uniqueness.  Along one variable with distinct nodes x_0..x_b, the
    Vandermonde matrix V (V_im = x_i^m) has determinant
    prod_{i<j} (x_j - x_i) != 0, so exactly one polynomial of degree <= b
    takes given values y at the nodes; its coefficients are V^-1 y, and
    column i of V^-1 holds the coefficients of the Lagrange basis
    polynomial prod_{j != i} (x - x_j)/(x_i - x_j).  On the grid, the
    matrix that evaluates the tensor space (degree <= b_v in each v) at the
    nodes is the Kronecker product of the per-variable V, invertible with
    the Kronecker product of the V^-1 as inverse: the interpolant is unique,
    and applying V_v^-1 along one variable at a time gives its
    coefficients.

    Exact scaling.  Entry c of every vector is multiplied once by the lcm
    D_c of its denominators, and each V_v^-1 by the lcm s_v of its
    entries' denominators (``inverse_vandermonde``), so every step is a
    product of integer matrices, and the coefficients are the integer
    results over D_c prod_v s_v: one Fraction per term, at the end.
    """
    vars = list(vars)
    axes = [sorted({rat(point[d]) for point in samples}) for d in range(len(vars))]
    sizes = [len(values) for values in axes]
    if len(samples) != math.prod(sizes):
        raise ValueError("samples must cover a tensor grid")
    for var, values in zip(vars, axes):
        if bounds[var] < 0:
            raise ValueError("degree bound must be >= 0")
        if len(values) != bounds[var] + 1:
            raise ValueError("need exactly degree_bound+1 nodes per variable")
    # equal rationals hash alike, so the Fraction grid points find the keys
    grid = [[rat(x) for x in samples[point]] for point in itertools.product(*axes)]
    width = len(grid[0])
    if any(len(vec) != width for vec in grid):
        raise ValueError("sample vectors must have equal length")
    dens = [math.lcm(*(vec[c].denominator for vec in grid)) for c in range(width)]
    # one flat integer array, row-major over the variables, entries innermost
    data = [x.numerator * (den // x.denominator)
            for vec in grid for x, den in zip(vec, dens)]
    for d in reversed(range(len(vars))):
        W, s = inverse_vandermonde(axes[d])
        dens = [den * s for den in dens]
        n, inner = sizes[d], math.prod(sizes[d + 1:]) * width
        out: list[int] = []
        for base in range(0, len(data), n * inner):
            cols = list(zip(*(data[base + i * inner:base + (i + 1) * inner]
                              for i in range(n))))
            coeffs = [[sum(map(operator.mul, w, col)) for col in cols] for w in W]
            for row in coeffs:
                out.extend(row)
        data = out
    order = sorted(range(len(vars)), key=lambda d: _var_key(vars[d]))
    terms: list[dict[tuple[int, ...], Rat]] = [{} for _ in range(width)]
    pos = 0
    for exps in itertools.product(*(range(size) for size in sizes)):
        key = tuple(exps[d] for d in order)
        for c in range(width):
            if data[pos]:
                terms[c][key] = Fraction(data[pos], dens[c])
            pos += 1
    out_vars = tuple(vars[d] for d in order)
    return [ParamPoly._trusted(out_vars, t) for t in terms]


def inverse_vandermonde(nodes: Sequence[Rat]) -> tuple[list[list[int]], int]:
    """(W, s) with W/s the inverse of the Vandermonde matrix V_im = x_i^m
    of the distinct ``nodes``: W[m][i]/s = [x^m] prod_{j != i}
    (x - x_j)/(x_i - x_j), and s is the lcm of those Fractions'
    denominators, so W is an integer matrix.

    Built on integers.  With q the lcm of the nodes' denominators and
    x_j = p_j/q, multiplying each factor (x - x_j)/(x_i - x_j) by q/q turns
    the Lagrange basis polynomial into T_i(q x)/D_i, with
    T_i(y) = prod_{j != i} (y - p_j) and D_i = prod_{j != i} (p_i - p_j)
    = T_i(p_i), a nonzero integer.  T_i = P/(y - p_i) for
    P(y) = prod_j (y - p_j), by synthetic division with zero remainder, so
    [x^m] of the basis polynomial is q^m [y^m] T_i / D_i.  Column i divided
    by g_i = +-gcd(D_i, its entries), the sign making D_i/g_i positive, is
    in lowest terms over D_i/g_i, the lcm of its entries' reduced
    denominators; s is the lcm of those over i.
    """
    q = math.lcm(*(x.denominator for x in nodes))
    p = [x.numerator * (q // x.denominator) for x in nodes]
    P = [1]  # prod (y - p_j), low degree to high
    for pj in p:
        P = [a - pj * b for a, b in zip([0, *P], [*P, 0])]
    size = len(p)
    cols, dens = [], []
    for pi in p:
        T = [0] * size  # P(y)/(y - p_i)
        acc = 0
        for m in range(size, 0, -1):
            acc = acc * pi + P[m]
            T[m - 1] = acc
        col = [q ** m * t for m, t in enumerate(T)]
        D = horner(T, pi, 1)
        g = math.gcd(D, *col) * (1 if D > 0 else -1)
        cols.append([c // g for c in col])
        dens.append(D // g)
    s = math.lcm(*dens)
    W = [[col[m] * (s // den) for col, den in zip(cols, dens)] for m in range(size)]
    return W, s


# -- tiny polynomial grammar (CLI Y input, data files) -----------------------

MAX_PARSE_DEGREE = 32  # the shipped transcriptions reach 18; --Y stops at 16
MAX_PARSE_BITS = 4096  # coefficient bits of one power or product
# Digits of one numerator or denominator that rat reads: int(Decimal(s)) is
# quadratic, 0.1 s at 50 000 digits on an x86-64 host (Python 3.11).
MAX_DIGITS = 50_000
# Nested parentheses and signs (the transcriptions reach 4): each level costs
# a few frames, so this stays well under the recursion limit of any caller.
MAX_PARSE_NESTING = 100

_TOKEN = re.compile(rf"\s*(?:(?P<num>{_NUMBER})|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
                    r"|(?P<op>[-+*^()]))")


def parse_poly(text: str) -> ParamPoly:
    """Parse 'c*var^k' terms joined by +/-, e.g. '1/2*eta^2 - 3*eta + 1'.

    Supports parentheses and products; exponents are nonnegative integers;
    coefficients are integers or p/q.  '^' binds tighter than a sign, so
    -x^2 and 2*-x^2 negate x^2, while (-x)^2 = x^2.  This is the grammar of
    ``str(ParamPoly)``, of ``--Y`` and of the reference-table transcriptions.
    A power or product of total degree above MAX_PARSE_DEGREE is a
    ValueError, raised before it is expanded, and so is an exponent above
    MAX_PARSE_DEGREE, which bounds the powers of a constant too.  A chain
    x^m^n is the one power x^(m*n), and both m and m*n are capped.  So is
    the exponent times the largest bit length of the base's coefficients,
    by MAX_PARSE_BITS: (3^32)^32 parses, ((3^32)^32)^32 is refused unformed.
    A product is refused unformed when the largest coefficient bit lengths
    of its two factors add up to more than MAX_PARSE_BITS, so a product of
    many constants cannot grow with the length of the text.  Parentheses,
    and signs that follow '*', nest at most MAX_PARSE_NESTING deep.
    """
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"bad polynomial syntax near {text[pos:]!r}")
            break
        pos = m.end()
        for kind in ("num", "name", "op"):
            if m.group(kind):
                tokens.append((kind, m.group(kind)))
                break
    tokens.append(("end", ""))
    idx = depth = 0

    def peek():
        return tokens[idx]

    def take():
        nonlocal idx
        tok = tokens[idx]
        idx += 1
        return tok

    def parse_atom() -> ParamPoly:
        nonlocal depth
        kind, val = take()
        if kind == "num":
            return ParamPoly.const(val)
        if kind == "name":
            return ParamPoly.var(val)
        if (kind, val) not in (("op", "("), ("op", "-")):
            raise ValueError(f"unexpected token {val!r}")
        depth += 1
        if depth > MAX_PARSE_NESTING:
            raise ValueError(f"parentheses and signs nest deeper than the "
                             f"parser's bound {MAX_PARSE_NESTING}")
        if val == "(":
            inner = parse_sum()
            if take() != ("op", ")"):
                raise ValueError("unbalanced parentheses")
        else:
            # a sign after '*' negates the power that follows, as a sign
            # that starts a sum does: 2*-eta^2 = -2*eta^2
            inner = -parse_power()
        depth -= 1
        return inner

    def bits(p: ParamPoly) -> int:  # of its largest numerator or denominator
        return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                    for c in p.terms.values()), default=0)

    def capped(degree: int) -> None:
        if degree > MAX_PARSE_DEGREE:
            raise ValueError(f"total degree {degree} is above the parser's "
                             f"bound {MAX_PARSE_DEGREE}")

    def parse_power() -> ParamPoly:
        base, exponent = parse_atom(), 1
        base_bits = bits(base)
        while peek() == ("op", "^"):
            take()
            kind, val = take()
            if kind != "num" or "/" in val:
                raise ValueError("exponent must be a nonnegative integer")
            n = count(val)
            exponent *= n
            capped(exponent * base.degree())
            if max(n, exponent) > MAX_PARSE_DEGREE:
                raise ValueError(f"exponent {max(n, exponent)} is above "
                                 f"the parser's bound {MAX_PARSE_DEGREE}")
            if exponent * base_bits > MAX_PARSE_BITS:
                raise ValueError(f"a power of {exponent} on {base_bits}-bit coefficients "
                                 f"is above the parser's bound {MAX_PARSE_BITS} bits")
        return base if exponent == 1 else base ** exponent

    def parse_product() -> ParamPoly:
        acc = parse_power()
        while peek() == ("op", "*"):
            take()
            factor = parse_power()
            capped(acc.degree() + factor.degree())
            if bits(acc) + bits(factor) > MAX_PARSE_BITS:
                raise ValueError(f"a product of {bits(acc)}- and {bits(factor)}-bit "
                                 f"coefficients is above the parser's bound "
                                 f"{MAX_PARSE_BITS} bits")
            acc = acc * factor
        return acc

    def parse_sum() -> ParamPoly:
        sign = 1
        while peek() in (("op", "+"), ("op", "-")):
            if take() == ("op", "-"):
                sign = -sign
        acc = parse_product() * sign
        while peek() in (("op", "+"), ("op", "-")):
            sign = 1
            while peek() in (("op", "+"), ("op", "-")):
                if take() == ("op", "-"):
                    sign = -sign
            acc = acc + parse_product() * sign
        return acc

    result = parse_sum()
    if peek() != ("end", ""):
        raise ValueError(f"trailing input: {tokens[idx:]}")
    return result
