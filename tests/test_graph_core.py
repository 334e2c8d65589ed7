"""The graph core shared by port graphs and contexts.

Certificate bytes are pinned: generator ids (and every recognizer
``gen_map`` written against them) follow the order of the context
certificates, so any change to the canonical encoding renumbers the
alphabet.  The component labelling sites are cross-checked against
networkx on seeded random inputs.
"""

import hashlib
import random
from itertools import combinations

import networkx as nx
import pytest

from sepstar.contexts import (
    ContextError,
    ReachType,
    beta,
    canonical_rename_context,
    context_cert,
    dump_context,
    enumerate_generators,
    inner_components,
    reaches,
)
from sepstar.graphs import (
    PortGraph,
    canonical_cert,
    canonical_rename,
    connected_components,
    dump_graph,
    encode_word,
    nonport_classes,
)
from sepstar.pathdecomp import graph_pathwidth, is_caterpillar_forest

from helpers import random_context


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(4, "big"))
        h.update(chunk)
    return h.hexdigest()


def _petersen() -> PortGraph:
    outer = [(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
    spokes = [(f"o{i}", f"i{i}") for i in range(5)]
    inner = [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)]
    names = [f"o{i}" for i in range(5)] + [f"i{i}" for i in range(5)]
    return PortGraph.build(names, outer + spokes + inner)


FIXED_GRAPHS = [
    PortGraph.build(
        ["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")], ("b", "a"), {"c": "x"}
    ),
    PortGraph.build(
        [f"u{i}" for i in range(7)],
        [(f"u{i}", f"u{i + 1}") for i in range(6)] + [("u0", "u4"), ("u2", "u6")],
        ("u3", "u5"),
        {"u1": "a", "u6": "a", "u0": "b"},
    ),
    PortGraph.build(
        [f"c{i}" for i in range(6)],
        [(f"c{i}", f"c{(i + 1) % 6}") for i in range(6)],
        ("c2",),
    ),
    _petersen(),
    encode_word("abba"),
]


# sha256 digests recorded before the certificate code was last rewritten
PINS = {
    "width 1 certs": "c134e54711ba2acafebda64651c66e7b3c9c13f64efd0873bfbcd09d974137cb",
    "width 2 certs": "f0fdca27b59d7423604e59b7e81b762d87f8a5b9dd25fce366e82189c508654c",
    "letters": "bab3edeed04a3a9d57caabf6f23995c270533d0329b0bd94c767a50ed33c18b3",
    "renamed letters": "4bec517c939997e506c2983ca1dcfb4d9205d1b1ea442787a0bc3302e3d998b6",
    "graph certs": "495c927babaaaeaba7330e53a0f29ff0c90689f299152a29f6443669aeb3615f",
    "renamed graphs": "efc33dd9d7505be7e371f9371f19ae38a929bb6f9da56a1f9472e154e03b2d4f",
}


def test_context_certificates_are_pinned():
    for k in (1, 2):
        certs = [context_cert(w) for w in enumerate_generators(k).contexts]
        assert _digest(certs) == PINS[f"width {k} certs"]
    # the letters themselves are canonical renames, so this pins renaming too
    letters = [w for k in (1, 2) for w in enumerate_generators(k).contexts]
    assert _digest(dump_context(w).encode() for w in letters) == PINS["letters"]
    renamed = [
        dump_context(canonical_rename_context(w)).encode()
        for w in enumerate_generators(2).contexts
    ]
    assert _digest(renamed) == PINS["renamed letters"]


def test_graph_certificates_are_pinned():
    assert _digest(canonical_cert(g) for g in FIXED_GRAPHS) == PINS["graph certs"]
    renamed = [dump_graph(canonical_rename(g)).encode() for g in FIXED_GRAPHS]
    assert _digest(renamed) == PINS["renamed graphs"]


# ---------------------------------------------------------------------------
# networkx as an independent oracle


def _random_graph(rng, max_n, p, arity=0):
    n = rng.randint(max(1, arity), max_n)
    names = [f"n{i}" for i in range(n)]
    edges = [e for e in combinations(names, 2) if rng.random() < p]
    return PortGraph.build(names, edges, tuple(rng.sample(names, arity)))


def _nx(vertices, edges):
    h = nx.Graph()
    h.add_nodes_from(vertices)
    h.add_edges_from(edges)
    return h


def _parts(groups):
    return {frozenset(c) for c in groups}


def test_components_and_nonport_classes_match_networkx():
    rng = random.Random(7)
    for _ in range(300):
        g = _random_graph(rng, 9, rng.choice([0.1, 0.25, 0.5]), rng.randint(0, 3))
        h = _nx(g.vertices, g.edges)
        comps = connected_components(g)
        assert _parts(comps) == _parts(nx.connected_components(h))
        assert [min(c) for c in comps] == sorted(min(c) for c in comps)
        rest = h.subgraph(g.vertices - set(g.ports))
        assert _parts(nonport_classes(g)) == _parts(nx.connected_components(rest))


def test_inner_components_and_beta_match_networkx():
    rng = random.Random(11)
    for _ in range(300):
        w = random_context(rng, rng.randint(1, 3), 7)
        ports = w.port_vertices()
        # edges are linked when they share a non-port endpoint
        line = nx.Graph()
        line.add_nodes_from(w.edges)
        for e, f in combinations(sorted(w.edges), 2):
            if (set(e) & set(f)) - ports:
                line.add_edge(e, f)
        assert _parts(inner_components(w)) == _parts(nx.connected_components(line))

        h = _nx(w.vertices, w.edges)
        inner = w.vertices - ports
        refs = [(("L", i + 1), v) for i, v in enumerate(w.left) if v is not None]
        refs += [(("R", i + 1), v) for i, v in enumerate(w.right) if v is not None]
        expected = set()
        for (p, vp), (q, vq) in combinations(refs, 2):
            # an inner path: every intermediate vertex is a non-port
            if nx.has_path(h.subgraph(inner | {vp, vq}), vp, vq):
                expected.add((p, q) if p <= q else (q, p))
        expected |= {(p, p) for p, _ in refs}
        assert beta(w).reach == expected


def test_caterpillar_forest_matches_networkx():
    rng = random.Random(5)
    hits = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(1, 9)
        names = [f"n{i}" for i in range(n)]
        # a random forest plus, sometimes, one extra edge
        edges = {
            (names[rng.randrange(i)], names[i]) for i in range(1, n) if rng.random() < 0.8
        }
        if n > 2 and rng.random() < 0.3:
            u, v = rng.sample(names, 2)
            if (u, v) not in edges and (v, u) not in edges:
                edges.add((u, v))
        g = PortGraph.build(names, edges)
        expected = nx.is_forest(_nx(g.vertices, g.edges)) and graph_pathwidth(g) <= 1
        assert is_caterpillar_forest(g) == expected
        hits[expected] += 1
    assert min(hits.values()) > 20


# ---------------------------------------------------------------------------
# invariants that must survive ``python -O``


def test_inconsistent_reach_type_is_rejected():
    with pytest.raises(ContextError):  # persistent index undefined on the right
        ReachType(1, frozenset({1}), frozenset(), frozenset({1}), frozenset())
    with pytest.raises(ContextError):  # reach pair on an undefined reference
        ReachType(
            2, frozenset({1}), frozenset({1}), frozenset(), frozenset({(("L", 1), ("R", 2))})
        )
    one = frozenset({1})
    l1, r1 = ("L", 1), ("R", 1)
    wire = frozenset({(l1, l1), (r1, r1), (l1, r1)})
    assert reaches(ReachType(2, one, one, frozenset(), wire), l1, r1)
    for args in [
        # a pair written (larger, smaller), which `reaches` would miss
        (2, one, one, frozenset(), wire - {(l1, r1)} | {(r1, l1)}),
        # an index beyond the arity
        (2, frozenset({5}), one, frozenset(), wire),
        # a side other than L and R
        (2, one, one, frozenset(), wire | {(("X", 1), ("X", 1))}),
        # no reflexive pairs
        (2, one, one, frozenset(), frozenset({(l1, r1)})),
        # a persistent index without its L-R pair
        (2, one, one, one, frozenset({(l1, l1), (r1, r1)})),
    ]:
        with pytest.raises(ContextError):
            ReachType(*args)
