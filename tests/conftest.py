"""Session-wide checks shared by the tier-1 suite.

The library builds a context unchecked, through ``Context._make`` or
``Context._of_index``, where its validity follows from valid parts:
composites and letters read off certificates.
For the whole session, each of those is checked here.  For ``_make``,
``Context.build`` re-runs on the context's own maps and must give an
equal context.  A composite from ``_of_index`` holds only numbers, so
its names are written here on the side, without reading its fields:
``Context.build`` runs on them, its numbers must be `_numbering` of
those names, and once the composite's own fields are read it must equal
the context built here.  Installed at configure time, so letters made
while tests are collected are checked too.  Raises through
``pytest.fail`` rather than ``assert``, so the check holds under
``python -O`` and no ``except Exception`` in the library can swallow
it.
"""

import weakref

import pytest

from sepstar.contexts import Context, ContextError
from sepstar.graphs import _numbering

_unchecked = Context._make
_unchecked_of_index = Context._of_index
_name_fields = Context.__getattr__
_checking = [False]
# the id of each composite whose fields are not read yet, with the
# context its names must give
_expected: dict[int, Context] = {}


def _checked_make(vertices, edges, left, right):
    w = _unchecked(vertices, edges, left, right)
    if _checking[0]:  # the rebuild below, or `build` itself
        return w
    _checking[0] = True
    try:
        again = Context.build(w.vertices, w.edges, w.arity, w.left_map(), w.right_map())
    except ContextError as exc:
        pytest.fail(f"the library made an invalid context {w!r}: {exc}")
    finally:
        _checking[0] = False
    shapes = [type(part) for part in (vertices, edges, left, right)]
    if again != w or shapes != [frozenset, frozenset, tuple, tuple]:
        pytest.fail(f"the library made a context that does not rebuild as itself: {w!r}")
    return w


def _checked_of_index(adj, left, right, edges):
    w = _unchecked_of_index(adj, left, right, edges)
    names = sorted(f"z{i}" for i in range(len(adj)))
    _checking[0] = True
    try:
        again = Context.build(
            names,
            [(names[x], names[y]) for x, y in edges],
            len(left),
            {i + 1: names[x] for i, x in enumerate(left) if x is not None},
            {i + 1: names[y] for i, y in enumerate(right) if y is not None},
        )
    except (ContextError, IndexError, TypeError) as exc:
        pytest.fail(f"the library made an invalid composite on {len(adj)} vertices: {exc}")
    finally:
        _checking[0] = False
    at, numbered = _numbering(again)
    sides = tuple(tuple(None if v is None else at[v] for v in side)
                  for side in (again.left, again.right))
    shapes = [type(part) for part in (adj, left, right, edges)]
    if (
        (adj, left, right) != (numbered, *sides)
        or sorted(edges) != sorted((at[x], at[y]) for x, y in again.edges)
        or shapes != [tuple, tuple, tuple, list]
    ):
        pytest.fail(f"the library made a composite that is not numbered by its names: {again!r}")
    _expected[id(w)] = again
    weakref.finalize(w, _expected.pop, id(w), None)
    return w


def _checked_name_fields(self, field):
    value = _name_fields(self, field)
    again = _expected.pop(id(self), None)
    if again is not None and again != self:
        pytest.fail(f"a composite's names differ from those written on the side: {again!r}")
    return value


def pytest_configure(config):
    Context._make = staticmethod(_checked_make)
    Context._of_index = staticmethod(_checked_of_index)
    Context.__getattr__ = _checked_name_fields


def pytest_unconfigure(config):
    Context._make = staticmethod(_unchecked)
    Context._of_index = staticmethod(_unchecked_of_index)
    Context.__getattr__ = _name_fields
