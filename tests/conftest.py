"""Session-wide checks shared by the tier-1 suite.

The library builds a context unchecked, through ``Context._make``,
where its validity follows from valid parts: composites, letters read
off certificates, and a mirrored interface.  For the whole session,
each of those is checked here: ``Context.build`` re-runs on the
context's own maps and must give an equal context.  Installed at
configure time, so letters made while tests are collected are checked
too.  Raises through ``pytest.fail`` rather than ``assert``, so the
check holds under ``python -O`` and no ``except Exception`` in the
library can swallow it.
"""

import pytest

from sepstar.contexts import Context, ContextError

_unchecked = Context._make
_checking = [False]


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


def pytest_configure(config):
    Context._make = staticmethod(_checked_make)


def pytest_unconfigure(config):
    Context._make = staticmethod(_unchecked)
