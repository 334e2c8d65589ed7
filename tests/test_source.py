"""Checks over the library's source text."""

import ast
from pathlib import Path

import sepstar

SOURCES = sorted(Path(sepstar.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # invariants must raise the module's error class: asserts vanish
    # under `python -O`
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert SOURCES and not found, found
