"""Membership on index data: `member` against the reference that builds
every operand as a PortGraph, on every graph with at most four
vertices and on seeded arity-4 graphs with five; the work of a fuse;
operand certificates against `canonical_cert`; and the expression
syntax at arity 0."""

import random
from itertools import combinations, permutations

from sepstar import starfree
from sepstar.graphs import PortGraph, canonical_cert
from sepstar.starfree import (
    Add,
    And,
    Forget,
    Fuse,
    Not,
    Or,
    Permute,
    _operand_cert,
    all_graphs,
    finite,
    member,
    no_graphs,
    parse_expr,
    render_expr,
)

from helpers import graph_pool, graphs_on, reference_member


def ports_only(k, edges=()):
    names = [f"p{i}" for i in range(1, k + 1)]
    return PortGraph.build(names, [(names[i - 1], names[j - 1]) for i, j in edges], names)


def shuffled(g, rng):
    """g under shuffled vertex names."""
    names = [f"m{i}" for i in range(len(g.vertices))]
    rng.shuffle(names)
    ren = dict(zip(sorted(g.vertices), names))
    return PortGraph.build(
        names, [(ren[u], ren[v]) for u, v in g.edges], [ren[p] for p in g.ports]
    )


def every_graph(arity, rng):
    """Every graph on one to four vertices with the first names as
    ports, and each again under shuffled names, so that ports also sit
    between other vertices in name order."""
    return [h for n in range(max(arity, 1), 5) for g in graphs_on(n, arity)
            for h in (g, shuffled(g, rng))]


def fixed_expressions():
    """Expressions whose verdicts hang on one split: each port-port edge
    side of a fuse, forget/add/perm nested, and perm at arity 0."""
    edge = finite(2, [ports_only(2, [(1, 2)])])
    apart = finite(2, [ports_only(2)])
    single = finite(0, [PortGraph.build(["a"])])
    path = finite(3, [ports_only(3, [(1, 2), (2, 3)])])
    one_edge = finite(3, [ports_only(3, [(1, 2)])])
    path4 = finite(4, [ports_only(4, [(1, 2), (2, 3), (3, 4)])])
    apart4 = finite(4, [ports_only(4)])
    pendant = PortGraph.build(
        ["p1", "p2", "p3", "p4", "q"], [("p1", "q"), ("p1", "p2")], ["p1", "p2", "p3", "p4"]
    )
    return {
        2: [
            Fuse(edge, apart),  # the edge on the left only
            Fuse(apart, edge),  # on the right only
            Fuse(edge, edge),  # on both sides
            Fuse(apart, apart),
            Forget(Permute((2, 3, 1), Add(Fuse(edge, all_graphs(2))))),
        ],
        3: [
            Fuse(one_edge, path),
            Fuse(path, Add(apart)),
            Permute((3, 1, 2), Add(Forget(Fuse(path, all_graphs(3))))),
        ],
        0: [
            Permute((), Fuse(single, single)),
            Forget(Forget(Permute((2, 1), Fuse(edge, Not(apart))))),
        ],
        1: [Forget(Or(Fuse(edge, apart), Add(Add(Forget(Add(single))))))],
        4: [
            Fuse(path4, apart4),  # each edge of the path 1-2-3-4 on the left only
            Fuse(apart4, path4),  # on the right only
            Fuse(path4, path4),  # on both sides
            # 1-2 on both sides, 3-4 on the left only, 2-3 on the right only
            Fuse(
                finite(4, [ports_only(4, [(1, 2), (3, 4)])]),
                finite(4, [ports_only(4, [(1, 2), (2, 3)])]),
            ),
            # a pendant vertex at port 1 goes left with 1-2, and 3-4 right
            Fuse(finite(4, [pendant]), finite(4, [ports_only(4, [(3, 4)])])),
            Fuse(all_graphs(4), path4),
        ],
    }


def random_expression(rng, arity, depth):
    """A seeded expression in which fuses are three times as likely as
    any other operation, over literals and their complements."""
    if depth == 0 or rng.random() < 0.15:
        pool = list(graph_pool(4, arity))
        lit = finite(arity, rng.sample(pool, min(len(pool), rng.randrange(1, 4))))
        return Not(lit) if rng.random() < 0.5 else lit
    kind = rng.choice("!&|+++fap")
    if kind == "f" and arity <= 2:
        return Forget(random_expression(rng, arity + 1, depth - 1))
    if kind == "a" and arity >= 1:
        return Add(random_expression(rng, arity - 1, depth - 1))
    if kind in "fap":
        perm = list(range(1, arity + 1))
        rng.shuffle(perm)
        return Permute(tuple(perm), random_expression(rng, arity, depth - 1))
    if kind == "!":
        return Not(random_expression(rng, arity, depth - 1))
    node = {"&": And, "|": Or, "+": Fuse}[kind]
    lhs = random_expression(rng, arity, depth - 1)
    return node(lhs, random_expression(rng, arity, depth - 1))


def test_member_on_index_data_matches_the_portgraph_reference():
    rng = random.Random(16)
    fixed = fixed_expressions()
    verdicts = {True: 0, False: 0}
    for arity in range(4):
        graphs = every_graph(arity, rng)
        exprs = fixed[arity] + [random_expression(rng, arity, 4) for _ in range(10)]
        for e in exprs:
            memo = {}
            for g in graphs:
                got = member(g, e)
                assert got == reference_member(g, e, memo), (render_expr(e), g)
                verdicts[got] += 1
    # 2,728 members and 4,814 non-members at this seed
    assert min(verdicts.values()) > 2000, verdicts


def test_each_port_edge_side_of_a_fuse_is_found():
    left, right, both, neither, nested = fixed_expressions()[2]
    wire = ports_only(2, [(1, 2)])
    verdicts = [member(wire, e) for e in (left, right, both, neither)]
    assert verdicts == [True, True, True, False]
    assert not member(ports_only(2), left)
    # a wire with a fresh isolated port, rotated to (2, 3, 1), and its
    # first port forgotten: port 1 has one non-port neighbour and port 2
    # none
    assert member(PortGraph.build(["a", "b", "c"], [("a", "c")], ["a", "b"]), nested)
    assert not member(wire, nested)
    two_edges, _, _ = fixed_expressions()[3]
    assert member(ports_only(3, [(1, 2), (2, 3)]), two_edges)
    assert not member(ports_only(3, [(2, 3)]), two_edges)
    # at arity 4, each side alone and all three in one split
    left, right, both, mixed, pendant, under = fixed_expressions()[4]
    path = ports_only(4, [(1, 2), (2, 3), (3, 4)])
    assert all(member(path, e) for e in (left, right, both, mixed, under))
    short = ports_only(4, [(1, 2), (2, 3)])
    assert not any(member(short, e) for e in (left, right, both, mixed, under))
    assert not member(ports_only(4), both)
    # `mixed` needs 1-2 on both sides: without 2-3 or 3-4 no split works
    assert not member(ports_only(4, [(1, 2), (3, 4)]), mixed)
    assert not member(ports_only(4, [(2, 3), (3, 4)]), mixed)
    assert not member(ports_only(4, [(1, 2), (2, 3), (3, 4), (1, 4)]), mixed)
    assert member(ports_only(4, list(combinations(range(1, 5), 2))), under)
    hang = [("p1", "q"), ("p1", "p2")]
    names = ["p1", "p2", "p3", "p4", "q"]
    ports = ["p1", "p2", "p3", "p4"]
    assert member(PortGraph.build(names, hang + [("p3", "p4")], ports), pendant)
    assert not member(PortGraph.build(names, hang, ports), pendant)
    assert not member(PortGraph.build(names, hang[:1] + [("p3", "p4")], ports), pendant)


def test_member_at_arity_4_matches_the_portgraph_reference():
    # four ports carry up to six port-port edges, where the reference's
    # 3^m edge assignments and member's 2^(m+1) operand tests differ most
    rng = random.Random(31)
    graphs = every_graph(4, rng)
    graphs += [shuffled(g, rng) for g in rng.sample(graphs_on(5, 4), 60)]
    exprs = fixed_expressions()[4] + [random_expression(rng, 4, 3) for _ in range(8)]
    verdicts = {True: 0, False: 0}
    for e in exprs:
        memo = {}
        for g in graphs:
            got = member(g, e)
            assert got == reference_member(g, e, memo), (render_expr(e), g)
            verdicts[got] += 1
    # 506 members and 2,126 non-members at this seed
    assert min(verdicts.values()) > 400, verdicts


def test_a_fuse_tests_each_operand_once_per_edge_mask(monkeypatch):
    # the four-port complete graph has m = 6 port-port edges and one
    # split of its (no) non-port vertices: each operand is tested with
    # each of the 2^6 edge masks at most, where the 3^6 = 729 side
    # assignments took 730 and 1,459 calls
    calls = []
    holds = starfree._holds

    def counted(*args):
        calls.append(1)
        return holds(*args)

    monkeypatch.setattr(starfree, "_holds", counted)
    k4 = ports_only(4, list(combinations(range(1, 5), 2)))
    for e in (Fuse(no_graphs(4), all_graphs(4)), Fuse(all_graphs(4), no_graphs(4))):
        calls.clear()
        assert not member(k4, e)
        assert len(calls) <= 1 + 2 * 2**6, render_expr(e)


def test_arity_zero_permutation_round_trips():
    for e in (Permute((), all_graphs(0)), Permute((), Fuse(all_graphs(0), all_graphs(0)))):
        text = render_expr(e)
        assert text.startswith("perm[](")
        assert parse_expr(text) == e
    assert parse_expr("perm[ ](!finite@0{})") == Permute((), all_graphs(0))


def _operand_matches_canonical_cert(n, edges, ports):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    names = [f"x{v}" for v in range(n)]
    g = PortGraph.build(
        names, [(names[u], names[v]) for u, v in edges], [names[p] for p in ports]
    )
    assert _operand_cert.__wrapped__(tuple(adj), ports) == canonical_cert.__wrapped__(
        g
    ), (n, edges, ports)


def test_operand_certificate_matches_canonical_cert():
    # every graph on one to four vertices with every tuple of ports,
    # edges between ports included
    checked = 0
    for n in range(1, 5):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = [e for i, e in enumerate(pairs) if bits >> i & 1]
            for k in range(n + 1):
                for ports in permutations(range(n), k):
                    _operand_matches_canonical_cert(n, edges, ports)
                    checked += 1
    assert checked == 2 + 2 * 5 + 8 * 16 + 64 * 65
    # a seeded sample on five vertices, and a few above, where the
    # refinement search certifies
    rng = random.Random(21)
    for n in [5] * 600 + [6, 7] * 20:
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        ports = tuple(rng.sample(range(n), rng.randint(0, n)))
        _operand_matches_canonical_cert(n, edges, ports)
