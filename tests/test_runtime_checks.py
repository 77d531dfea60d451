"""The package checks its invariants with raised exceptions: an ``assert``
statement is stripped under ``python -O``, so none may guard a result.  The
value types are immutable through one guard, ``exactalg.Frozen``."""

import ast
import pathlib
from fractions import Fraction as F

import pytest

from closurelab.exactalg import (EtaPoly, Frozen, LinearSolution, ParamPoly,
                                 RationalFunc)
from closurelab.families import MultiIndex, ParamSet
from closurelab.opalg import DiffOp
from closurelab.spectral import SqrtExpr, eigen_closed_form

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "closurelab"


def test_no_assert_statement_in_the_package():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


# One instance of every Frozen subclass, built through its public route.
FROZEN_INSTANCES = {
    "ParamPoly": lambda: ParamPoly.var("eta"),
    "EtaPoly": lambda: EtaPoly((1, F(1, 2))),
    "RationalFunc": lambda: RationalFunc(ParamPoly.var("eta"), 2),
    "LinearSolution": lambda: LinearSolution(True, [F(1)], []),
    "ParamSet": lambda: ParamSet("L", {"g": F(7, 3)}),
    "MultiIndex": lambda: MultiIndex.parse("1I"),
    "SqrtExpr": lambda: SqrtExpr.lift(F(3), ParamPoly.var("z")),
    "SpectralData": lambda: eigen_closed_form([6, -1], [2, -3]),
    "DiffOp": lambda: DiffOp.identity("eta"),
}


def test_every_value_type_is_frozen():
    assert set(FROZEN_INSTANCES) == {cls.__name__ for cls in Frozen.__subclasses__()}


@pytest.mark.parametrize("name", sorted(FROZEN_INSTANCES))
def test_value_types_refuse_assignment(name):
    value = FROZEN_INSTANCES[name]()
    assert type(value).__name__ == name
    field = type(value).__slots__[0]
    before = getattr(value, field)
    for attr in (field, "other"):
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(value, attr, None)
    assert getattr(value, field) is before


def test_only_frozen_defines_setattr():
    found = [f"{path.name}:{node.name}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.ClassDef)
             and any(isinstance(member, ast.FunctionDef) and member.name == "__setattr__"
                     for member in node.body)]
    assert found == ["exactalg.py:Frozen"]
