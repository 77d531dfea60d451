"""Shared exact fixtures; heavy solves are session-scoped and reused."""

import json
import pathlib
from fractions import Fraction

import pytest

from closurelab.exactalg import EtaPoly
from closurelab.closure import closure_for_family
from closurelab.families import (MultiIndex, ParamSet, builtin_deformed,
                                 classical_family, load_family_plugin)
from closurelab.recurrence import build_X, compute_table

# Distinct g at which the L[1I] tables n = 0..8 are checked: 14 samples make
# those checks exact in g (proof in test_recurrence.test_L1I_table_symbolic_in_g).
L1I_SWEEP_G = tuple(Fraction(3 + j, 2) for j in range(14))


@pytest.fixture(scope="session")
def lag_params():
    return ParamSet("L", {"g": Fraction(7, 3)})


@pytest.fixture(scope="session")
def jac_params():
    return ParamSet("J", {"g": Fraction(2), "h": Fraction(3)})


@pytest.fixture(scope="session")
def wil_params():
    return ParamSet("W", {"a1": Fraction(2), "a2": Fraction(5, 2),
                          "a3": Fraction(3), "a4": Fraction(7, 2)})


@pytest.fixture(scope="session")
def aw_params():
    return ParamSet("AW", {"a1": Fraction(1, 4), "a2": Fraction(1, 5),
                           "a3": Fraction(1, 10), "a4": Fraction(1, 10),
                           "q": Fraction(4, 9)})


@pytest.fixture(scope="session")
def pairing_params():
    """Bound parameters at which the pairing identities are checked: three
    distinct a = g + h for J and three distinct b1 = a1 + a2 + a3 + a4 for
    W, which makes the check exact in a and b1 (both sides of each identity
    have degree <= 2 in them)."""
    out = (ParamSet("L", {"g": Fraction(7, 3)}),
           *(ParamSet("J", {"g": g, "h": h})
             for g, h in ((2, 3), (Fraction(1, 2), 0), (-1, Fraction(1, 3)))),
           *(ParamSet("W", {"a1": a1, "a2": Fraction(5, 2), "a3": 3,
                            "a4": Fraction(7, 2)})
             for a1 in (2, Fraction(-1, 2), 7)))
    assert len({ps.a for ps in out if ps.fam == "J"}) == 3
    assert len({sum(ps.a_list()) for ps in out if ps.fam == "W"}) == 3
    return out


@pytest.fixture(scope="session")
def l_classical(lag_params):
    return classical_family("L", lag_params)


@pytest.fixture(scope="session")
def j_classical(jac_params):
    return classical_family("J", jac_params)


@pytest.fixture(scope="session")
def l1i(lag_params):
    return builtin_deformed("L", MultiIndex.parse("1I"), lag_params)


@pytest.fixture(scope="session")
def l1ii(lag_params):
    return builtin_deformed("L", MultiIndex.parse("1II"), lag_params)


@pytest.fixture(scope="session")
def j1i(jac_params):
    return builtin_deformed("J", MultiIndex.parse("1I"), jac_params)


@pytest.fixture(scope="session")
def j1ii(jac_params):
    return builtin_deformed("J", MultiIndex.parse("1II"), jac_params)


@pytest.fixture(scope="session")
def l1i_closure(l1i):
    return closure_for_family(l1i, EtaPoly.const(1))


@pytest.fixture(scope="session")
def l1ii_closure(l1ii):
    return closure_for_family(l1ii, EtaPoly.const(1))


@pytest.fixture(scope="session")
def j1i_closure(j1i):
    return closure_for_family(j1i, EtaPoly.const(1))


@pytest.fixture(scope="session")
def j1ii_closure(j1ii):
    return closure_for_family(j1ii, EtaPoly.const(1))


@pytest.fixture(scope="session")
def l1i_table(l1i, l1i_closure):
    _, X = l1i_closure
    return compute_table(l1i, X, range(11))


@pytest.fixture(scope="session")
def j1i_table(j1i, j1i_closure):
    _, X = j1i_closure
    return compute_table(j1i, X, range(10))


@pytest.fixture(scope="session")
def l1i_g_sweep():
    """(family, minimal-X table over n = 0..8) of L[1I] at each g of
    L1I_SWEEP_G."""
    out = []
    for gv in L1I_SWEEP_G:
        df = builtin_deformed("L", MultiIndex.parse("1I"), ParamSet("L", {"g": gv}))
        out.append((df, compute_table(df, build_X(df.xi, EtaPoly.const(1)),
                                      range(9))))
    return out


@pytest.fixture
def explicit_plugin(tmp_path):
    """Writer of the shipped L[2I] plugin with P listed explicitly for
    n < levels; P_broken gets P_(broken-1) added, which keeps its degree
    but makes it no eigenpolynomial."""
    path = pathlib.Path(__file__).resolve().parent.parent / "plugins" / "laguerre_2I.json"

    def write(levels: int, broken: int | None = None) -> pathlib.Path:
        data = json.loads(path.read_text())
        df = load_family_plugin(path)
        polys = [df.P(n) for n in range(levels)]
        if broken is not None:
            polys[broken] = polys[broken] + polys[broken - 1]
        data["P"] = {"kind": "explicit", "polys": [p.record() for p in polys]}
        out = tmp_path / f"explicit_{levels}_{broken}.json"
        out.write_text(json.dumps(data))
        return out

    return write
