"""Source-level rules for the library."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "stochgame"


def test_library_raises_instead_of_asserting():
    # `python -O` strips assert statements, so invariants must raise.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py")) and not found, found
