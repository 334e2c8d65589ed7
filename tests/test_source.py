"""Checks over the library's source text."""

import ast
from pathlib import Path

import sepstar

SOURCES = sorted(Path(sepstar.__file__).parent.glob("*.py"))


def _flagged(node) -> bool:
    """An assert statement, or a raise of AssertionError."""
    if isinstance(node, ast.Assert):
        return True
    exc = node.exc if isinstance(node, ast.Raise) else None
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements():
    # invariants must raise the module's error class: asserts vanish
    # under `python -O`, and an AssertionError escapes the command
    # line's error handling as an internal error
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if _flagged(node):
                found.append(f"{path.name}:{node.lineno}")
    assert SOURCES and not found, found
