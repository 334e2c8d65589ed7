"""Core graph structure: validation, separators, width operations,
canonical forms (checked against a permutation-search oracle), JSON."""

import json
import random
import weakref
from itertools import combinations, product

import pytest

from sepstar.graphs import (
    GraphError,
    PortGraph,
    _search_canonical,
    add_port,
    canonical_cert,
    canonical_rename,
    connected_components,
    dump_graph,
    encode_word,
    forget,
    fuse,
    graph_from_json,
    graph_to_json,
    isomorphic,
    nonport_classes,
    permute,
    ports_only,
    prime_factors,
    separator_holds,
)

from helpers import (
    brute_isomorphic,
    complete_graph,
    cycle_graph,
    drop_last_port,
    graph_pool,
    graphs_on,
    path_graph,
    reference_small_canonical,
    star_graph,
    with_port,
)


def test_build_validation():
    with pytest.raises(GraphError):
        PortGraph.build([])  # empty
    with pytest.raises(GraphError):
        PortGraph.build(["a"], [("a", "a")])  # loop
    with pytest.raises(GraphError):
        PortGraph.build(["a"], [("a", "b")])  # dangling edge
    with pytest.raises(GraphError):
        PortGraph.build(["a", "b"], [], ["a", "a"])  # duplicate port
    with pytest.raises(GraphError):
        PortGraph.build(["a"], [], ["b"])  # port not a vertex
    with pytest.raises(GraphError):
        PortGraph.build(["a"], [], [], {"b": "x"})  # label off-graph
    g = PortGraph.build(["a", "b"], [("b", "a")], ["b"], {"a": "red"})
    assert g.arity == 1
    assert g.has_edge("a", "b") and g.has_edge("b", "a")
    assert g.label_of("a") == "red" and g.label_of("b") is None


def test_edges_are_normalised():
    g = PortGraph.build(["a", "b"], [("b", "a"), ("a", "b")])
    assert len(g.edges) == 1


def test_connected_components():
    g = PortGraph.build(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    comps = connected_components(g)
    assert sorted(sorted(c) for c in comps) == [["a", "b"], ["c", "d"]]
    assert len(connected_components(path_graph(5))) == 1


def test_separator_convention():
    p = path_graph(3)  # u0 - u1 - u2
    assert separator_holds(p, "u0", "u2", {"u1"})
    assert not separator_holds(p, "u0", "u2", set())
    assert not separator_holds(p, "u0", "u1", {"u2"})
    # x or y inside the separating set: always true
    assert separator_holds(p, "u1", "u2", {"u1"})
    assert separator_holds(p, "u0", "u0", {"u0"})
    # a vertex is never separated from itself otherwise
    assert not separator_holds(p, "u0", "u0", {"u1"})
    # S0 means different components
    g = PortGraph.build(["a", "b"], [])
    assert separator_holds(g, "a", "b", set())
    assert not separator_holds(g, "a", "a", set())


def test_separator_on_cycle_needs_two_vertices():
    c = cycle_graph(4)
    assert not separator_holds(c, "u0", "u2", {"u1"})
    assert separator_holds(c, "u0", "u2", {"u1", "u3"})


def test_fuse_identifies_ports_and_accumulates_edges():
    g = PortGraph.build(["x", "y"], [("x", "y")], ["x", "y"])
    h = PortGraph.build(["x", "y"], [("x", "y")], ["x", "y"])
    f = fuse(g, h)
    # both operands contribute the same port edge: still a simple graph
    assert len(f.vertices) == 2 and len(f.edges) == 1
    assert f.arity == 2


def test_fuse_keeps_nonports_apart():
    g = PortGraph.build(["p", "a"], [("p", "a")], ["p"])
    h = PortGraph.build(["p", "a"], [("p", "a")], ["p"])
    f = fuse(g, h)
    assert len(f.vertices) == 3 and len(f.edges) == 2
    assert isomorphic(f, PortGraph.build(["c", "l", "r"], [("c", "l"), ("c", "r")], ["c"]))


def test_fuse_arity_mismatch():
    with pytest.raises(GraphError):
        fuse(path_graph(2, arity=1), path_graph(2, arity=2))


def test_fuse_label_clash():
    g = PortGraph.build(["p"], [], ["p"], {"p": "red"})
    h = PortGraph.build(["p"], [], ["p"], {"p": "blue"})
    with pytest.raises(GraphError):
        fuse(g, h)
    assert fuse(g, PortGraph.build(["p"], [], ["p"], {"p": "red"})).labels


def test_forget_add_permute():
    g = path_graph(3, arity=2)
    assert forget(g).ports == ("u0",)
    with pytest.raises(GraphError):
        forget(path_graph(2))
    bigger = add_port(g)
    assert bigger.arity == 3
    assert bigger.neighbors(bigger.ports[-1]) == frozenset()
    swapped = permute(g, (2, 1))
    assert swapped.ports == ("u1", "u0")
    with pytest.raises(GraphError):
        permute(g, (1, 1))
    with pytest.raises(GraphError):
        permute(g, (1,))


def test_drop_last_port():
    g = add_port(path_graph(2, arity=1))
    assert isomorphic(drop_last_port(g), path_graph(2, arity=1))
    single = PortGraph.build(["a"], [], ["a"])
    with pytest.raises(GraphError):
        drop_last_port(single)


def test_with_port():
    g = path_graph(3, arity=1)
    assert with_port(g, "u2").ports == ("u0", "u2")
    with pytest.raises(GraphError):
        with_port(g, "u0")


def test_prime_factors_partition_nonports():
    # two pendant paths off port 1 plus an isolated vertex
    g = PortGraph.build(
        ["p", "a", "b", "c"],
        [("p", "a"), ("a", "b"), ("p", "c")],
        ["p"],
    )
    classes = nonport_classes(g)
    assert sorted(sorted(c) for c in classes) == [["a", "b"], ["c"]]
    factors = prime_factors(g)
    assert len(factors) == 2
    rebuilt = ports_only(g)
    for f in factors:
        rebuilt = fuse(rebuilt, f)
    assert isomorphic(rebuilt, g)


def test_prime_factors_of_ports_only_graph():
    g = complete_graph(3, arity=3)
    assert prime_factors(g) == ()
    assert isomorphic(ports_only(g), g)


def test_prime_factor_reconstruction_over_pool():
    for g in graph_pool(4, 2):
        factors = prime_factors(g)
        rebuilt = ports_only(g)
        for f in factors:
            rebuilt = fuse(rebuilt, f)
        assert isomorphic(rebuilt, g)


# --- canonical forms -------------------------------------------------------


def test_canonical_cert_agrees_with_brute_force_oracle():
    pool = graphs_on(3, 1) + graphs_on(4, 2)
    rng = random.Random(7)
    sample = rng.sample(pool, 60)
    for g in sample:
        h = rng.choice(pool)
        assert (canonical_cert(g) == canonical_cert(h)) == brute_isomorphic(g, h)


def test_canonical_cert_invariant_under_renaming():
    rng = random.Random(11)
    for g in rng.sample(graphs_on(5, 2), 60):
        names = sorted(g.vertices)
        image = names[:]
        rng.shuffle(image)
        # keep ports mapped to arbitrary positions but preserve order info
        m = dict(zip(names, image))
        h = PortGraph.build(
            image,
            [(m[u], m[v]) for (u, v) in g.edges],
            tuple(m[p] for p in g.ports),
            {m[v]: c for v, c in g.labels},
        )
        assert canonical_cert(g) == canonical_cert(h)


def test_canonical_cert_separates_label_and_port_variants():
    g = PortGraph.build(["a", "b"], [("a", "b")], ["a"])
    h = PortGraph.build(["a", "b"], [("a", "b")], ["b"])
    assert canonical_cert(g) == canonical_cert(h)  # symmetric: same class
    lab = PortGraph.build(["a", "b"], [("a", "b")], ["a"], {"b": "x"})
    assert canonical_cert(g) != canonical_cert(lab)
    two = PortGraph.build(["a", "b"], [("a", "b")], ["a", "b"])
    rev = PortGraph.build(["a", "b"], [("a", "b")], ["b", "a"])
    # port order matters, but these two are swappable by symmetry
    assert canonical_cert(two) == canonical_cert(rev)
    p = path_graph(3, arity=2)  # ports u0, u1 adjacent
    q = permute(p, (2, 1))
    assert canonical_cert(p) == canonical_cert(q) or isomorphic(p, q) == (
        canonical_cert(p) == canonical_cert(q)
    )


def test_canonical_cert_on_regular_lookalikes():
    # two triangles vs a six-cycle: degree sequences agree
    two_triangles = PortGraph.build(
        ["a", "b", "c", "d", "e", "f"],
        [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("d", "f")],
    )
    assert canonical_cert(two_triangles) != canonical_cert(cycle_graph(6))
    assert canonical_cert(complete_graph(7)) == canonical_cert(complete_graph(7))


def test_canonical_rename_is_stable():
    g = PortGraph.build(["left", "mid", "right"], [("left", "mid"), ("mid", "right")], ["mid"])
    r = canonical_rename(g)
    assert r.vertices == {"v0", "v1", "v2"}
    assert isomorphic(r, g)
    assert canonical_rename(r) == r


# labels holding the characters certificates are written with, the
# empty label, and plain ones they could be confused with
TRICKY_LABELS = [None, "", "x|v:y", "z", "x", "y|v:z", "#", "a#1", "\\", "\\p", "|", "\\e"]


def _tricky_graphs():
    for first, second in product(TRICKY_LABELS, repeat=2):
        labels = {v: c for v, c in (("a", first), ("b", second)) if c is not None}
        for edges, ports in product(([], [("a", "b")]), ((), ("a",))):
            yield PortGraph.build(["a", "b"], edges, ports, labels)


def test_certificates_are_injective_on_any_label():
    # equal certificates mean isomorphic graphs, whatever the labels hold
    graphs = list(_tricky_graphs())
    certs = [canonical_cert(g) for g in graphs]
    for (g, cg), (h, ch) in combinations(zip(graphs, certs), 2):
        assert (cg == ch) == brute_isomorphic(g, h), (g.labels, h.labels)


def test_canonical_rename_keeps_any_label():
    for g in _tricky_graphs():
        r = canonical_rename(g)
        assert sorted(c for _, c in r.labels) == sorted(c for _, c in g.labels)
        assert brute_isomorphic(r, g)
        assert canonical_rename(r) == r


def test_component_labellings_live_with_the_graph():
    g = path_graph(5)
    ref = weakref.ref(g)
    assert separator_holds(g, "u0", "u4", {"u2"})
    assert len(connected_components(g)) == 1
    del g
    assert ref() is None


def test_isomorphic_quick_rejects():
    assert not isomorphic(path_graph(3), path_graph(4))
    assert not isomorphic(path_graph(3, arity=1), path_graph(3, arity=2))
    assert not isomorphic(star_graph(3), path_graph(4))


# --- serialisation ---------------------------------------------------------


def test_json_round_trip_exact():
    g = PortGraph.build(
        ["b", "a", "c"], [("a", "b"), ("b", "c")], ["c", "a"], {"b": "x"}
    )
    assert graph_from_json(graph_to_json(g)) == g
    text = dump_graph(g)
    again = graph_from_json(json.loads(text))
    assert dump_graph(again) == text


def test_json_rejects_malformed():
    with pytest.raises(GraphError):
        graph_from_json({"edges": []})
    with pytest.raises(GraphError):
        graph_from_json({"vertices": ["a"], "edges": [["a"]]})
    with pytest.raises(GraphError):
        graph_from_json({"vertices": ["a"], "bogus": 1})
    with pytest.raises(GraphError):
        graph_from_json([1, 2])


def test_encode_word():
    g = encode_word("ab")
    assert len(g.vertices) == 3 and len(g.edges) == 2
    labels = g.label_map
    assert labels["w0"] == "mark"
    assert labels["w1"] == "a" and labels["w2"] == "b"
    # the anchor end is distinguishable: mirrored words differ
    assert not isomorphic(encode_word("ab"), encode_word("ba"))
    assert isomorphic(encode_word(""), PortGraph.build(["z"], [], (), {"z": "mark"}))


def _adjacency(n: int, edge_bits: int) -> list[int]:
    adj = [0] * n
    for bit, (u, v) in enumerate(combinations(range(n), 2)):
        if edge_bits >> bit & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


# colour keys whose sorted order is not the order listed
PALETTE = ("v:", "P000:", "v:x", "P001:")


def test_small_canonical_encoding_matches_the_string_search_exhaustively():
    # up to four vertices: every adjacency and every colour vector
    checked = 0
    for n in range(5):
        for edge_bits in range(1 << n * (n - 1) // 2):
            adj = _adjacency(n, edge_bits)
            for keys in product(PALETTE, repeat=n):
                keys = list(keys)
                assert _search_canonical(n, adj, keys) == reference_small_canonical(
                    n, adj, keys
                ), (adj, keys)
                checked += 1
    assert checked == 1 + 4 + 16 * 2 + 64 * 8 + 256 * 64


def test_small_canonical_encoding_matches_the_string_search_on_five_vertices():
    rng = random.Random(5)
    for _ in range(2000):
        adj = _adjacency(5, rng.getrandbits(10))
        colours = PALETTE[: rng.randint(1, 4)]
        keys = [rng.choice(colours) for _ in range(5)]
        assert _search_canonical(5, adj, keys) == reference_small_canonical(5, adj, keys)


def _compositions(n: int):
    """The tuples of positive sizes that add up to n."""
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first, *rest)


# five colour keys whose sorted order is not the order listed
FIVE_KEYS = ("v:", "P000:", "v:x", "P001:", "P002:")


def test_small_canonical_encoding_matches_the_string_search_on_every_five_vertex_graph():
    # every adjacency against one colour vector per tuple of class
    # sizes, the classes dealt to the vertices out of index order
    deal = (3, 0, 4, 1, 2)
    ranked = sorted(FIVE_KEYS)
    colourings = []
    for sizes in _compositions(5):
        classes = [c for c, size in enumerate(sizes) for _ in range(size)]
        colourings.append([ranked[classes[deal[v]]] for v in range(5)])
    assert len(colourings) == 16
    for edge_bits in range(1 << 10):
        adj = _adjacency(5, edge_bits)
        for keys in colourings:
            assert _search_canonical(5, adj, keys) == reference_small_canonical(
                5, adj, keys
            ), (adj, keys)
