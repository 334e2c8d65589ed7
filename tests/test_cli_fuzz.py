"""Fuzzing the input boundary of the command line.

Whatever an input holds (bytes that are not JSON or not UTF-8,
arbitrary JSON values, a valid file of its kind with some fields
dropped, retyped or added, or formula and expression text built from
the grammars' tokens), every command that reads it must answer with
exit code 0, 1 or 2, never reach the internal-error path, and print
only text that can be encoded.
"""

import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepstar.cli import main
from sepstar.contexts import Context, context_to_json, crossing_context, hub_context
from sepstar.graphs import PortGraph, encode_word, graph_to_json
from sepstar.monoids import parity_recognizer, reach_type_recognizer, recognizer_to_json

WIRES = Context.build(
    ["a", "b", "c", "d", "p", "q", "r", "s"],
    [("a", "p"), ("p", "q"), ("q", "c"), ("b", "r"), ("r", "s"), ("s", "d")],
    2,
    {1: "a", 2: "b"},
    {1: "c", 2: "d"},
)
# one-letter names, which the near-miss names below reuse
DIAMOND = Context.build(
    ["a", "b", "x", "y"],
    [("a", "x"), ("x", "b"), ("a", "y"), ("y", "b")],
    1,
    {1: "a"},
    {1: "b"},
)
TRIANGLE = PortGraph.build(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
BAGS = {"bags": [["a", "x", "b"], ["a", "y", "b"]]}
SPLIT = {"x": ["x"], "y": ["y"]}

JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
# mostly names the fixtures use, with a few of the wrong type and a
# lone surrogate, which JSON can spell but no output can encode
NAMES = st.sampled_from(
    ["a", "b", "c", "d", "p", "x", "y", "z", "", "\ud800", 0, 1.5, None, True, []]
)
INDICES = st.sampled_from(["1", "2", "3", "0", "-1", "01", " 1", "x", "1.0"])
ELEMENTS = st.integers(-1, 3) | st.sampled_from(["0", 1.0, True, None])
NAME_LISTS = st.lists(NAMES, max_size=6)


@st.composite
def near_misses(draw, fixtures, near):
    """A fixture with up to three fields dropped, replaced by a value
    close to a legal one, or replaced by any JSON value, and perhaps
    one unknown field added."""
    data = dict(draw(st.sampled_from(fixtures)))
    for field in draw(st.lists(st.sampled_from(sorted(near)), max_size=3, unique=True)):
        action = draw(st.sampled_from(["drop", "near", "any"]))
        if action == "drop":
            data.pop(field, None)
        else:
            data[field] = draw(near[field] if action == "near" else JSON)
    if draw(st.booleans()):
        data[draw(st.text(max_size=3))] = draw(JSON)
    return data


CONTEXTS = near_misses(
    [context_to_json(w) for w in (crossing_context(), hub_context(), WIRES)],
    {
        "vertices": NAME_LISTS,
        "edges": st.lists(st.lists(NAMES, max_size=3), max_size=6),
        "arity": st.integers(-2, 4) | st.sampled_from(["2", 2.0, True, None, 10**12]),
        "left": st.dictionaries(INDICES, NAMES, max_size=3),
        "right": st.dictionaries(INDICES, NAMES, max_size=3),
    },
)
GRAPHS = near_misses(
    [graph_to_json(g) for g in (TRIANGLE, encode_word("ab"), PortGraph.build(["a"], (), ["a"]))],
    {
        "vertices": NAME_LISTS,
        "edges": st.lists(st.lists(NAMES, max_size=3), max_size=6),
        "ports": NAME_LISTS,
        "labels": st.dictionaries(st.sampled_from(["a", "b", "w0"]), NAMES, max_size=3),
    },
)
RECOGNIZER_FIXTURES = [
    recognizer_to_json(r)
    for r in (reach_type_recognizer(1), parity_recognizer(1, ["g5"]), parity_recognizer(2, ["g5"]))
]
MONOIDS = near_misses(
    [r["monoid"] for r in RECOGNIZER_FIXTURES],
    {
        "table": st.lists(st.lists(ELEMENTS, max_size=3), max_size=3),
        "identity": ELEMENTS,
        "zero": ELEMENTS,
        "size": ELEMENTS,
    },
)


def small_arity(data) -> bool:
    """False for a recognizer of arity 3 or 4, whose alphabet is
    enumerated before the rest of the file is judged: that takes half
    a second at arity 3 and exhausts memory at 4.  Higher arities are
    refused at once."""
    arity = data.get("arity") if isinstance(data, dict) else None
    return not (type(arity) is int and 3 <= arity <= 4)


RECOGNIZERS = near_misses(
    RECOGNIZER_FIXTURES,
    {
        "monoid": MONOIDS,
        "arity": st.integers(-1, 2) | st.sampled_from(["1", 1.0, True, None, 5, 10**12]),
        "gen_map": st.dictionaries(st.sampled_from(["g0", "g5", "g13", "x"]), ELEMENTS, max_size=3),
        "accepting": st.lists(ELEMENTS, max_size=3),
    },
).filter(small_arity)
DECOMPOSITIONS = near_misses(
    [BAGS, {**BAGS, "pathwidth": 2}],
    {"bags": st.lists(NAME_LISTS, max_size=3), "pathwidth": ELEMENTS},
)
SPLITS = near_misses([SPLIT], {"x": NAME_LISTS, "y": NAME_LISTS})
# pieces of both grammars, so that joined text often gets far into a parse
TOKENS = st.sampled_from(
    ["E(", "S0(", "S1(", "lab:", "exists ", "forall ", "x", "x1", "y", ".", ",",
     "|", "&", "!", "(", ")", "=", " ", "finite@0{", "finite@1{", "}", ";",
     '{"vertices":["a"]}', '{"vertices":["a"],"ports":["a"]}', "(+)", "forget(",
     "add(", "perm[", "1", "]"]
)
TEXTS = st.lists(TOKENS, max_size=10).map("".join) | st.text(max_size=16)


def encoded(strategy):
    return strategy.map(lambda value: json.dumps(value).encode())


def files(near):
    return st.one_of(st.binary(max_size=24), encoded(JSON), encoded(near))


# each kind: what a file of that kind may hold, and the commands that
# read it, with "{}" standing for the file
KINDS = {
    "context": (
        files(CONTEXTS),
        [["beta", "{}"], ["bridges", "{}"], ["two-bridge", "{}"], ["two-bridge", "--json", "{}"],
         ["pathwidth", "{}"]],
    ),
    "graph": (
        files(GRAPHS),
        [["eval-formula", "{}", "!(exists x. exists y. S0(x,y))"], ["pathwidth", "{}"]],
    ),
    "recognizer": (files(RECOGNIZERS), [["decide", "--recognizer", "{}"]]),
    "decomposition": (
        files(DECOMPOSITIONS),
        [["dealternate", "{}", "@diamond", "--split", "@split"]],
    ),
    "split": (
        files(SPLITS),
        [["dealternate", "@bags", "@diamond", "--split", "{}"]],
    ),
    "text": (
        st.binary(max_size=16) | TEXTS.map(str.encode),
        [["eval-formula", "@triangle", "{}"], ["eval-expr", "@triangle", "{}"],
         ["compile", "{}", "--arity", "1"]],
    ),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    for name, text in [
        ("diamond", json.dumps(context_to_json(DIAMOND))),
        ("bags", json.dumps(BAGS)),
        ("split", json.dumps(SPLIT)),
        ("triangle", json.dumps(graph_to_json(TRIANGLE))),
    ]:
        (work / f"{name}.json").write_text(text)
    return work


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=250, database=None, deadline=None)
@given(data=st.data())
def test_inputs_exit_0_1_or_2(workdir, kind, data):
    contents, commands = KINDS[kind]
    path = workdir / "input"
    path.write_bytes(data.draw(contents))
    for command in commands:
        argv = [
            str(path) if arg == "{}"
            else str(workdir / f"{arg[1:]}.json") if arg.startswith("@")
            else arg
            for arg in command
        ]
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("error: ")
        out.getvalue().encode()
