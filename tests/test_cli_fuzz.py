"""Fuzzing the context-file boundary of the command line.

Whatever a context file holds (bytes that are not JSON, arbitrary JSON
values, or a valid context with some fields dropped, retyped or
added), `sepstar beta` and `sepstar two-bridge` must answer with exit
code 0, 1 or 2 and never reach the internal-error path.
"""

import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepstar.cli import main
from sepstar.contexts import Context, context_to_json, crossing_context, hub_context

WIRES = Context.build(
    ["a", "b", "c", "d", "p", "q", "r", "s"],
    [("a", "p"), ("p", "q"), ("q", "c"), ("b", "r"), ("r", "s"), ("s", "d")],
    2,
    {1: "a", 2: "b"},
    {1: "c", 2: "d"},
)
FIXTURES = [context_to_json(w) for w in (crossing_context(), hub_context(), WIRES)]
FIELDS = ["vertices", "edges", "arity", "left", "right"]

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
# mostly names the fixtures use, with a few of the wrong type
NAMES = st.sampled_from(["a", "b", "c", "d", "p", "z", "", 0, 1.5, None, True, []])
INDICES = st.sampled_from(["1", "2", "3", "0", "-1", "01", " 1", "x", "1.0"])
NEAR = {
    "vertices": st.lists(NAMES, max_size=6),
    "edges": st.lists(st.lists(NAMES, max_size=3), max_size=6),
    "arity": st.integers(-2, 4) | st.sampled_from(["2", 2.0, True, None, 10**12]),
    "left": st.dictionaries(INDICES, NAMES, max_size=3),
    "right": st.dictionaries(INDICES, NAMES, max_size=3),
}


@st.composite
def near_miss_contexts(draw):
    data = dict(draw(st.sampled_from(FIXTURES)))
    for field in draw(st.lists(st.sampled_from(FIELDS), max_size=3, unique=True)):
        action = draw(st.sampled_from(["drop", "near", "any"]))
        if action == "drop":
            data.pop(field, None)
        else:
            data[field] = draw(NEAR[field] if action == "near" else JSON)
    if draw(st.booleans()):
        data[draw(st.text(max_size=3))] = draw(JSON)
    return data


FILES = st.one_of(
    st.binary(max_size=24),
    JSON.map(lambda value: json.dumps(value).encode()),
    near_miss_contexts().map(lambda value: json.dumps(value).encode()),
)


@pytest.fixture(scope="module")
def context_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "context.json"


@settings(max_examples=400, database=None, deadline=None)
@given(content=FILES)
def test_context_files_exit_0_1_or_2(context_path, content):
    context_path.write_bytes(content)
    for argv in (["beta"], ["two-bridge"], ["two-bridge", "--json"]):
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv + [str(context_path)])
        assert code in (0, 1, 2), err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("error: ")
