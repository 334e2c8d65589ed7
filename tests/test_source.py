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


def _private_definitions(tree):
    """Each module-level name with one leading underscore, with the
    top-level statement that defines it."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, stmt


def _names_read(node) -> set[str]:
    """Every name and attribute the statement reads; an import does not
    count."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def test_every_private_name_is_used_in_the_library():
    # a private helper that only tests reach is dead library code
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    reads = [(stmt, _names_read(stmt)) for tree in trees.values() for stmt in tree.body]
    # `cli.main` looks each `_cmd_<command>` handler up by its command's
    # name; tests/test_cli.py matches the handlers to the subcommands
    unused = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name, stmt in _private_definitions(tree)
        if not any(name in names for other, names in reads if other is not stmt)
        and not (module == "cli.py" and name.startswith("_cmd_"))
    ]
    assert trees and not unused, unused


def test_certificate_caches_expose_cache_info():
    # the benchmark worker reads the miss counts of both caches in
    # every pass, so each must stay an lru_cache wrapper
    from sepstar.contexts import context_cert
    from sepstar.graphs import canonical_cert

    for fn in (canonical_cert, context_cert):
        assert fn.cache_info().maxsize is None


def _caches(tree):
    """The functions decorated with ``cache`` or ``lru_cache``, each
    with its ``maxsize``: None for an unbounded cache, 128 (the default)
    where none is given, and the source text of one that is no
    constant."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            if isinstance(dec, ast.Name) and dec.id in ("cache", "lru_cache"):
                yield node.name, None if dec.id == "cache" else 128
            elif (
                isinstance(dec, ast.Call)
                and isinstance(dec.func, ast.Name)
                and dec.func.id == "lru_cache"
            ):
                given = [kw.value for kw in dec.keywords if kw.arg == "maxsize"] or dec.args[:1]
                if not given:
                    yield node.name, 128
                elif isinstance(given[0], ast.Constant):
                    yield node.name, given[0].value
                else:
                    yield node.name, ast.unparse(given[0])


def _unbounded_caches(tree):
    """The functions decorated with ``lru_cache(maxsize=None)`` or
    ``cache``."""
    return [name for name, size in _caches(tree) if size is None]


def test_unbounded_cache_count_is_pinned():
    # an unbounded cache grows for the life of the process; adding one
    # must be a visible edit of this number
    found = [
        f"{path.name}:{name}"
        for path in SOURCES
        for name in _unbounded_caches(ast.parse(path.read_text(), str(path)))
    ]
    assert len(found) == 9, found


def test_bounded_caches_are_pinned():
    # a bounded cache still keeps its entries, and hands the same
    # object to every caller, for the life of the process; adding one
    # must be a visible edit of this list
    found = sorted(
        f"{path.name}:{name}:{size}"
        for path in SOURCES
        for name, size in _caches(ast.parse(path.read_text(), str(path)))
        if size is not None
    )
    assert found == ["cli.py:_parser:1", "pathdecomp.py:_build_table:1"], found


def test_only_contexts_knows_the_type_code():
    # the code layout of a reachability type is one decision: other
    # modules read types through beta, beta_compose, reaches and the
    # type graph
    found = []
    for path in SOURCES:
        if path.name == "contexts.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "_code":
                found.append(f"{path.name}:{node.lineno} reads ._code")
            elif isinstance(node, ast.ImportFrom) and (
                (node.level == 1 and node.module == "contexts")
                or (node.level == 0 and node.module == "sepstar.contexts")
            ):
                found += [
                    f"{path.name}:{node.lineno} imports {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert SOURCES and not found, found


def test_contexts_reads_no_neighbour_sets():
    # contexts and their types run on index data: adjacency masks and
    # interface numbers, never the name-keyed neighbour sets
    path = next(path for path in SOURCES if path.name == "contexts.py")
    found = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in ("adjacency", "neighbors")
    ]
    assert not found, found


def _callers(tree, callee, arg=None):
    """The enclosing function or method of each call of ``callee``, a
    name called bare or as an attribute; with ``arg``, only the calls
    whose first argument is that bare name."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        if isinstance(node, ast.Call) and callee in (
            getattr(node.func, "id", None),
            getattr(node.func, "attr", None),
        ) and (arg is None or [getattr(a, "id", None) for a in node.args[:1]] == [arg]):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "")
    return found


def test_unchecked_contexts_come_from_named_producers():
    # `Context.build` validates and `_make` and `_of_index` do not, so
    # each producer that calls them must make valid contexts from valid
    # parts; adding one must be a visible edit of these lists
    made, unchecked, numbered = set(), set(), set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        made |= {(path.name, where) for where in _callers(tree, "Context")}
        made |= {(path.name, where) for where in _callers(tree, "__new__", "Context")}
        unchecked |= {(path.name, where) for where in _callers(tree, "_make")}
        numbered |= {(path.name, where) for where in _callers(tree, "_of_index")}
    assert made == {("contexts.py", "Context._make"), ("contexts.py", "Context._of_index")}
    assert unchecked == {
        ("contexts.py", "Context.build"),
        ("contexts.py", "_context_from_cert"),
    }
    assert numbered == {("contexts.py", "compose_all")}
