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


def _json_readers(tree):
    """The enclosing function or method of each json.load, json.loads
    and JSONDecoder reference."""
    readers = {"load", "loads", "JSONDecoder"}
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        if (
            isinstance(node, ast.Attribute)
            and node.attr in readers
            and isinstance(node.value, ast.Name)
            and node.value.id == "json"
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "json"
            and readers & {alias.name for alias in node.names}
        ):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "")
    return found


def test_json_is_parsed_in_two_places():
    # every file and inline literal is parsed at one boundary and then
    # checked against its declared shape
    places = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        places |= {(path.name, where) for where in _json_readers(tree)}
    assert places == {
        ("graphs.py", "_read_json"),
        ("starfree.py", "_ExprParser.json_graph"),
    }
