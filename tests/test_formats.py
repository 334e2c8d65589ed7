"""The declared file shapes against what the library writes, and the
edge cases the loaders must keep accepting."""

import json
import random

import pytest

from sepstar.contexts import (
    ContextError,
    context_from_json,
    crossing_context,
    dump_context,
    enumerate_generators,
    hub_context,
    identity_context,
)
from sepstar.graphs import (
    CONTEXT_SHAPE,
    GRAPH_SHAPE,
    MONOID_SHAPE,
    RECOGNIZER_SHAPE,
    GraphError,
    PortGraph,
    _conform,
    dump_graph,
    encode_word,
    graph_from_json,
)
from sepstar.monoids import (
    FiniteMonoid,
    dump_recognizer,
    monoid_from_json,
    monoid_to_json,
    parity_recognizer,
    reach_type_recognizer,
    recognizer_from_json,
)

from helpers import complete_graph, graph_pool, path_graph, random_context, star_graph

rng = random.Random(20261018)
GRAPHS = [
    path_graph(4, 2),
    complete_graph(3, 1),
    star_graph(3),
    encode_word("abba"),
    PortGraph.build(["b", "a", "c"], [("a", "b"), ("b", "c")], ["c", "a"], {"b": "x"}),
    *graph_pool(3, 1),
]
CONTEXTS = [
    crossing_context(),
    hub_context(),
    identity_context(2),
    *enumerate_generators(1).contexts,
    *(random_context(rng, k, 5) for k in (1, 2, 3) for _ in range(10)),
]
RECOGNIZERS = [
    reach_type_recognizer(1),
    parity_recognizer(1, ["g5"]),
    parity_recognizer(2, ["g0", "g7"]),
]
MONOIDS = [r.monoid for r in RECOGNIZERS] + [FiniteMonoid.build([[0, 1], [1, 1]], 0, 1)]

KINDS = [
    ("graph", GRAPHS, dump_graph, GRAPH_SHAPE, graph_from_json),
    ("context", CONTEXTS, dump_context, CONTEXT_SHAPE, context_from_json),
    ("recognizer", RECOGNIZERS, dump_recognizer, RECOGNIZER_SHAPE, recognizer_from_json),
    ("monoid", MONOIDS, lambda m: json.dumps(monoid_to_json(m)), MONOID_SHAPE, monoid_from_json),
]


@pytest.mark.parametrize("kind, objects, dump, shape, load", KINDS, ids=[k[0] for k in KINDS])
def test_written_files_conform_and_load_back_equal(kind, objects, dump, shape, load):
    for obj in objects:
        data = json.loads(dump(obj))
        _conform(data, shape, AssertionError, kind)
        assert load(data) == obj


def test_shape_errors_name_the_place():
    bad = {"vertices": ["a", "b"], "edges": [["a", "b"], ["a"]]}
    with pytest.raises(GraphError, match=r"graph\.edges\[1\] must be a list of 2"):
        graph_from_json(bad)
    with pytest.raises(GraphError, match=r"graph\.vertices\[0\] must be a string"):
        graph_from_json({"vertices": [True]})
    with pytest.raises(GraphError, match=r"graph has unknown fields \['arity'\]"):
        graph_from_json({"vertices": ["a"], "arity": 1})
    with pytest.raises(GraphError, match=r"graph needs a 'vertices' field"):
        graph_from_json({})


def test_a_missing_field_takes_its_article():
    with pytest.raises(ContextError, match=r"^context needs an 'arity' field$"):
        context_from_json({"vertices": ["a"]})
    with pytest.raises(ContextError, match=r"^context needs a 'vertices' field$"):
        context_from_json({"arity": 1})


def test_edge_cases_stay_accepted():
    # a null zero means "no zero"
    m = monoid_from_json({"table": [[0]], "identity": 0, "zero": None})
    assert m.zero is None
    # interface keys are read with int(), which allows spaces
    w = context_from_json({"vertices": ["a"], "arity": 1, "left": {" 1": "a"}})
    assert w.left_map() == {1: "a"}
    with pytest.raises(ContextError, match="bad left index '1.0'"):
        context_from_json({"vertices": ["a"], "arity": 1, "left": {"1.0": "a"}})
