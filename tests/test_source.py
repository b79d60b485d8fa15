"""Properties of the package source as a whole."""

import ast
from pathlib import Path

import horadam

PACKAGE_DIR = Path(horadam.__file__).parent


def test_no_assert_statements():
    # `python -O` strips assert statements, so every check must raise instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
