"""The frozen values of the library: what their fields give them, how
deep a nest of them may be, and what importing the library loads."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sepstar
from sepstar import starfree
from sepstar.contexts import ReachType
from sepstar.graphs import PortGraph
from sepstar.logic import And, Edge, Eq, Exists, Not, Or, language_member, parse_formula
from sepstar.monoids import FiniteMonoid

SRC = str(Path(sepstar.__file__).resolve().parents[1])


def run_child(argv, code):
    proc = subprocess.run(
        [sys.executable, *argv, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_fields_give_construction_equality_hash_and_repr():
    e = Edge("x1", "x2")
    assert (Edge.__match_args__, e.x, e.y) == (("x", "y"), "x1", "x2")
    assert e == Edge("x1", "x2") and e != Edge("x2", "x1")
    # same fields, another class
    assert e != Eq("x1", "x2") and Eq("x1", "x2") != e
    assert hash(e) == hash(("x1", "x2")) and hash(Not(e)) == hash((e,))
    assert repr(Exists("x", Not(e))) == "Exists(var='x', sub=Not(sub=Edge(x='x1', y='x2')))"
    assert repr(FiniteMonoid(((0,),), 0)) == "FiniteMonoid(table=((0,),), identity=0, zero=None)"
    g = PortGraph(frozenset("ab"), frozenset(), ("a",))
    assert g.labels == () and g == PortGraph(frozenset("ab"), frozenset(), ("a",), ())
    for bad in ((), ("x1",), ("x1", "x2", "x3")):
        with pytest.raises(TypeError):
            Edge(*bad)
    with pytest.raises(TypeError):
        PortGraph(frozenset("ab"), frozenset())
    rt = ReachType(1, [1], [1], [1], [(("L", 1), ("L", 1)), (("L", 1), ("R", 1)),
                                       (("R", 1), ("R", 1))])
    assert ReachType.__match_args__ == ("arity", "_code") and rt == ReachType._of_code(1, rt._code)


def test_values_are_frozen():
    f = And(Edge("x1", "x2"), Eq("x1", "x2"))
    g = PortGraph.build(["a"], [], ["a"])
    for value, name in ((f, "operands"), (g, "ports"), (g, "arity"), (f, "program")):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert f.operands == (Edge("x1", "x2"), Eq("x1", "x2"))


def test_derived_values_are_no_fields():
    f, twin = (parse_formula("exists x. E(x,x1)") for _ in range(2))
    g = PortGraph.build(["a", "b"], [("a", "b")], ["a"])
    assert language_member(g, f) and f.program is not None and twin.program is None
    assert f == twin and hash(f) == hash(twin) and repr(f) == repr(twin)
    e = starfree.compile_formula(Edge("x1", "x2"), 2)
    assert starfree.member(PortGraph.build(["a", "b"], [("a", "b")], ["a", "b"]), e)
    lit = starfree.finite(2, [PortGraph.build(["a", "b"], [], ["a", "b"])])
    assert e.memo and e.arity == 2 and lit.certs and lit.memo == {}
    assert repr(lit).startswith("Finite(arity=2, members=(")
    assert starfree.Not(lit) == starfree.Not(starfree.finite(2, lit.members))
    assert Or.__match_args__ == ("operands",) and starfree.Or.__match_args__ == ("operands",)


# two alternating Or/And nests 320 deep, Eq(x1,x2) the other operand
# at each level and Edge(x1,x2) at the bottom, and two of star-free
# expressions; each pair is compared and hashed, and each formula nest
# compiled, the second against the cache entry of the first.  The repr
# of each nest, and of nests 5,000 deep, is written whole
NEST = """
import sys
from sepstar import logic, starfree

def nest(junctions, bottom, operand, depth=320):
    f = bottom
    for i in range(depth):
        f = junctions[i % 2](f, operand)
    return f

fs = [nest((logic.Or, logic.And), logic.Edge("x1", "x2"), logic.Eq("x1", "x2")) for _ in range(2)]
es = [nest((starfree.Or, starfree.And), starfree.no_graphs(2), starfree.all_graphs(2)) for _ in range(2)]
compiled = [starfree.compile_formula(f, 2) for f in fs]
for a, b in (fs, es, compiled):
    if not (a == b and hash(a) == hash(b)):
        sys.exit("two equal nests compare unequal")
for depth in (320, 5000):
    f = nest((logic.Or, logic.And), logic.Edge("x1", "x2"), logic.Eq("x1", "x2"), depth)
    e = nest((starfree.Or, starfree.And), starfree.no_graphs(2), starfree.all_graphs(2), depth)
    if repr(f).count("Eq(x='x1', y='x2')") != depth or repr(e).count("Not(") != depth:
        sys.exit(f"the repr of a nest {depth} deep is not whole")
print("ok")
"""


def test_a_nest_320_deep_compares_and_compiles():
    # run from a fresh interpreter's shallow stack: pytest's own frames
    # would take part of the recursion limit this is about
    assert run_child([], NEST) == "ok\n"


IMPORTS = """
import sys
from pathlib import Path

import sepstar

for path in sorted(Path(sepstar.__file__).parent.glob("*.py")):
    if path.stem != "__init__":
        __import__(f"sepstar.{path.stem}")
print(" ".join(sorted({"dataclasses", "inspect", "typing"} & set(sys.modules))))
"""


def test_importing_the_library_generates_no_code():
    # `dataclasses` writes each class's methods as source text and
    # compiles it at every import, and pulls in `inspect`, `ast`, `dis`
    # and `tokenize`; `typing` takes milliseconds to import for what a
    # tuple subclass does; -S keeps site-packages from loading any first
    assert run_child(["-S"], IMPORTS) == "\n"
