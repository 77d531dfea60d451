"""The package checks its invariants with raised exceptions: an ``assert``
statement is stripped under ``python -O``, so none may guard a result."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "closurelab"


def test_no_assert_statement_in_the_package():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
