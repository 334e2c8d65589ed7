"""Pathwidth search, instruction sequences, dealternation, and the
two-bridge factorisation."""

import random
from itertools import combinations

import pytest

from sepstar.contexts import (
    Context,
    bridges,
    compose_all,
    context_from_json,
    crossing_context,
    enumerate_generators,
    hub_context,
    identity_context,
    isomorphic_contexts,
    persistent_ports,
)
from sepstar.graphs import PortGraph
from sepstar.pathdecomp import (
    DecompositionError,
    OutOfScopeError,
    blocks_of,
    context_decomposition,
    context_pathwidth,
    dealternate,
    from_instructions,
    graph_pathwidth,
    instruction_width,
    is_caterpillar_forest,
    normalize,
    optimal_decomposition,
    pathwidth,
    to_instructions,
    two_bridge_decompose,
    validate_decomposition,
    width,
)

from helpers import (
    active_mask,
    brute_pathwidth,
    complete_graph,
    cycle_graph,
    graph_pool,
    path_graph,
    random_context,
    reference_decomposition,
    reference_gap_min_blocks,
    reference_low_overlap_parent,
    reference_normalize,
    reference_pathwidth_table,
    reference_validate_decomposition,
    star_graph,
    two_bridge_corpus,
)


def grid(rows: int, cols: int) -> PortGraph:
    names = {(r, c): f"g{r}_{c}" for r in range(rows) for c in range(cols)}
    edges = []
    for (r, c), v in names.items():
        if r + 1 < rows:
            edges.append((v, names[r + 1, c]))
        if c + 1 < cols:
            edges.append((v, names[r, c + 1]))
    return PortGraph.build(names.values(), edges)


def test_width_and_normalize():
    bags = [{"a", "b"}, {"b"}, {"b", "c", "d"}]
    assert width(bags) == 2
    assert normalize(bags) == [frozenset({"a", "b"}), frozenset({"b", "c", "d"})]
    assert normalize([{"a"}, {"a"}]) == [frozenset({"a"})]
    with pytest.raises(DecompositionError):
        width([])


def test_validate_decomposition_errors():
    verts = ["a", "b", "c", "d"]
    edges = [("a", "b"), ("b", "c"), ("c", "d")]

    def message(bags, edges=edges, first=(), last=()):
        with pytest.raises(DecompositionError) as err:
            validate_decomposition(bags, verts, edges, first, last)
        return str(err.value)

    assert message([]) == "a decomposition needs at least one bag"
    unknown = [{"a", "b", "x", "y"}, {"c", "d"}]
    assert message(unknown) == "unknown vertices in bags: ['x', 'y']"
    assert message([{"a", "b"}, {"b", "c"}]) == "vertices not covered: ['d']"
    broken = [{"a", "b"}, {"b"}, {"a", "c", "d"}]
    assert message(broken) == "vertex 'a' appears in a broken interval"
    # the first uncovered edge in the given order is the one reported
    bags = [{"a"}, {"b"}, {"c"}, {"d"}]
    assert message(bags) == "edge ('a', 'b') is not covered by any bag"
    assert message(bags, edges[::-1]) == "edge ('c', 'd') is not covered by any bag"
    # intervals that touch share a bag, intervals that only abut do not
    assert message([{"a", "b"}, {"b", "c"}, {"d"}]) == (
        "edge ('c', 'd') is not covered by any bag"
    )
    # an edge end outside the vertex set is in no bag
    assert message([{"a", "b", "c", "d"}], [("a", "z")]) == (
        "edge ('a', 'z') is not covered by any bag"
    )
    good = [{"a", "b"}, {"b", "c"}, {"c", "d"}]
    assert message(good, first={"c"}) == "left ports must be in the first bag"
    assert message(good, last={"b"}) == "right ports must be in the last bag"
    validate_decomposition(good, verts, edges, {"a", "b"}, {"d"})


def test_validate_decomposition_matches_the_reference():
    rng = random.Random(423)
    verts = [f"v{i}" for i in range(6)]
    outcomes = set()
    for _ in range(2000):
        edges = [p for p in combinations(verts, 2) if rng.random() < 0.3]
        # each vertex on a random interval of bags, then a few bits flipped
        bags = [set() for _ in range(rng.randint(0, 5))]
        for v in verts:
            if bags:
                i, j = sorted(rng.randrange(len(bags)) for _ in range(2))
                for bag in bags[i : j + 1]:
                    bag.add(v)
        for _ in range(rng.choice((0, 0, 1, 2))):
            if bags:
                rng.choice(bags).symmetric_difference_update({rng.choice(verts + ["x"])})
        first = set(rng.sample(verts, rng.randint(0, 2)))
        last = set(rng.sample(verts, rng.randint(0, 2)))
        results = []
        for check in (validate_decomposition, reference_validate_decomposition):
            try:
                check(bags, verts, edges, first, last)
                results.append(None)
            except DecompositionError as exc:
                results.append(str(exc))
        assert results[0] == results[1], (bags, edges, first, last)
        outcomes.add(results[0].split(" ")[0] if results[0] else None)
    # every kind of fault, and valid decompositions, came up
    assert outcomes == {None, "a", "unknown", "vertices", "vertex", "edge", "left", "right"}


def test_graph_pathwidth_anchors():
    assert graph_pathwidth(path_graph(5)) == 1
    assert graph_pathwidth(PortGraph.build(["v"])) == 0
    assert graph_pathwidth(cycle_graph(4)) == 2
    assert graph_pathwidth(cycle_graph(5)) == 2
    assert graph_pathwidth(complete_graph(4)) == 3
    assert graph_pathwidth(complete_graph(5)) == 4
    assert graph_pathwidth(star_graph(5)) == 1
    assert graph_pathwidth(grid(2, 3)) == 2
    assert graph_pathwidth(grid(3, 3)) == 3

    k23 = PortGraph.build(
        ["a", "b", "x", "y", "z"],
        [(u, v) for u in ("a", "b") for v in ("x", "y", "z")],
    )
    assert graph_pathwidth(k23) == 2

    # smallest tree that is not a caterpillar: three legs of length two
    spider = PortGraph.build(
        ["c", "l1", "l2", "m1", "m2", "r1", "r2"],
        [("c", "l1"), ("l1", "l2"), ("c", "m1"), ("m1", "m2"), ("c", "r1"), ("r1", "r2")],
    )
    assert graph_pathwidth(spider) == 2
    assert not is_caterpillar_forest(spider)

    # seven-vertex complete binary tree: removing leaves leaves a path
    tree = PortGraph.build(
        ["r", "a", "b", "aa", "ab", "ba", "bb"],
        [("r", "a"), ("r", "b"), ("a", "aa"), ("a", "ab"), ("b", "ba"), ("b", "bb")],
    )
    assert graph_pathwidth(tree) == 1
    assert is_caterpillar_forest(tree)

    two_triangles = PortGraph.build(
        ["a", "b", "c", "x", "y", "z"],
        [("a", "b"), ("b", "c"), ("a", "c"), ("x", "y"), ("y", "z"), ("x", "z")],
    )
    assert graph_pathwidth(two_triangles) == 2

    edgeless = PortGraph.build([f"v{i}" for i in range(4)])
    assert graph_pathwidth(edgeless) == 0


def test_pathwidth_with_pinned_ends():
    verts = ["a", "b", "c"]
    edges = [("a", "b"), ("b", "c")]
    assert pathwidth(verts, edges) == 1
    # forcing both endpoints into the first bag costs a full bag
    assert pathwidth(verts, edges, first={"a", "c"}) == 2
    assert pathwidth(verts, edges, first={"a"}, last={"c"}) == 1
    with pytest.raises(DecompositionError):
        pathwidth(verts, edges, first={"nope"})


def test_pathwidth_matches_brute_on_random_graphs():
    rng = random.Random(411)
    for _ in range(40):
        n = rng.randint(1, 6)
        verts = [f"v{i}" for i in range(n)]
        edges = [p for p in combinations(verts, 2) if rng.random() < 0.4]
        first = {v for v in verts if rng.random() < 0.25}
        last = {v for v in verts if rng.random() < 0.25}
        got = pathwidth(verts, edges, first, last)
        assert got == brute_pathwidth(verts, edges, first, last)
        bags = optimal_decomposition(verts, edges, first, last)
        validate_decomposition(bags, verts, edges, first, last)
        assert width(bags) == got


def test_context_pathwidth_matches_brute():
    rng = random.Random(412)
    for _ in range(25):
        w = random_context(rng, rng.randint(1, 2), 6)
        first = frozenset(w.left_map().values())
        last = frozenset(w.right_map().values())
        got = context_pathwidth(w)
        assert got == brute_pathwidth(w.vertices, w.edges, first, last)
        bags = context_decomposition(w)
        validate_decomposition(bags, w.vertices, w.edges, first, last)
        assert width(bags) == got


def test_subset_dp_costs_one_lookup_per_subset(monkeypatch):
    from sepstar import pathdecomp

    calls = []
    active = pathdecomp._Table.active

    def counting(table, m):
        calls.append(m)
        return active(table, m)

    monkeypatch.setattr(pathdecomp._Table, "active", counting)
    rng = random.Random(417)
    verts = [f"v{i}" for i in range(10)]
    edges = [p for p in combinations(verts, 2) if rng.random() < 0.3]
    first, last = {"v0", "v1"}, {"v2"}
    table = pathdecomp._pathwidth_table(verts, edges, first, last)
    assert len(table.free) == 8 and calls == []
    pathdecomp._decomposition(table, table.cost, verts, edges, first, last)
    assert len(calls) <= len(table.free) + 1
    for m in range(1 << 8):
        assert table.active(m) == active_mask(m | table.lmask, table.adj, table.rmask)


def _graph_as_context(rng, verts, edges, first, last):
    """The graph as a context with interfaces `first` and `last`.  A
    vertex on both sides keeps one slot; the other right ports take
    random free slots, often one a different left port holds."""
    left = {i + 1: v for i, v in enumerate(verts) if v in first}
    right = {i + 1: v for i, v in enumerate(verts) if v in first and v in last}
    slots = [s for s in range(1, len(verts) + 1) if s not in right]
    rng.shuffle(slots)
    for v in sorted(set(last) - set(first)):
        right[slots.pop()] = v
    return Context.build(verts, edges, len(verts), left, right)


def _check_against_reference(verts, edges, first, last):
    """The table's limit, every subset's cost up to the width plus one
    (a higher cost reads as the width plus two) and the bags equal those
    of the reference DP, and no level above the width is stored."""
    from sepstar import pathdecomp

    ref = reference_pathwidth_table(verts, edges, first, last)
    *_, limit, cost, parent = ref
    table = pathdecomp._pathwidth_table(verts, edges, first, last)
    capped = [min(c, limit + 1) for c in cost]
    assert (table.limit, list(table.cost)) == (limit, capped)
    assert len(table.cost.levels) == table.limit - table.cost.base + 1
    bags = optimal_decomposition(verts, edges, first, last)
    assert bags == reference_decomposition(ref, parent, first)
    return ref, table, bags


def test_subset_dp_matches_the_reference_table():
    from sepstar import pathdecomp

    _, _, bags = _check_against_reference([], [], set(), set())
    assert bags == [frozenset()] and pathwidth([], []) == -1
    rng = random.Random(418)
    for case in range(300):
        verts = [f"v{i}" for i in range(rng.randint(1, 11))]
        density = rng.random()
        edges = [p for p in combinations(verts, 2) if rng.random() < density]
        first = {v for v in verts if rng.random() < 0.3}
        last = {v for v in verts if rng.random() < 0.3}
        if case % 4 == 1:  # overlapping interfaces
            shared = rng.choice(verts)
            first.add(shared)
            last.add(shared)
        elif case % 4 == 2:  # empty interfaces
            first, last = set(), set()
        elif case % 4 == 3:  # no free vertices
            first = set(verts)
        ref, table, bags = _check_against_reference(verts, edges, first, last)
        w = _graph_as_context(rng, verts, edges, first, last)
        assert context_decomposition(w) == bags
        low = reference_decomposition(ref, reference_low_overlap_parent(w, ref), first)
        assert pathdecomp._low_overlap_decomposition(w, table, first, last) == low


def _same_as_reference(verts, edges, first=frozenset(), last=frozenset()):
    """The pathwidth, once `_check_against_reference` holds."""
    _, table, _ = _check_against_reference(verts, edges, first, last)
    return table.limit - 1


def test_level_sets_on_edge_cases():
    verts = [f"v{i}" for i in range(6)]
    path = list(zip(verts, verts[1:]))
    # no free vertices: the left interface is the one bag
    assert _same_as_reference(verts, path, set(verts), set()) == 5
    assert _same_as_reference(verts, path, set(verts), {"v2"}) == 5
    # every vertex a right port, with and without left ports
    assert _same_as_reference(verts, path, set(), set(verts)) == 5
    assert _same_as_reference(verts, path, {"v0", "v5"}, set(verts)) == 5
    # isolated vertices, alone and next to a path
    assert _same_as_reference(verts, []) == 0
    assert _same_as_reference(verts, path[:2], {"v5"}, {"v4"}) == 1
    # one vertex in both interfaces
    assert _same_as_reference(verts, path, {"v3"}, {"v3"}) == 2
    assert _same_as_reference(verts, path, {"v0", "v3"}, {"v3", "v5"}) == 2
    # one free vertex
    assert _same_as_reference(["a", "b"], [("a", "b")], {"a"}, set()) == 1
    assert _same_as_reference(["a"], [], set(), {"a"}) == 0


def test_levels_stop_at_the_width():
    from sepstar import pathdecomp

    verts = [f"v{i}" for i in range(6)]
    path = list(zip(verts, verts[1:]))
    table = pathdecomp._pathwidth_table(verts, path, set(), set())
    cost = table.cost
    assert (table.limit, cost.base, len(cost.levels)) == (2, 1, 2)
    # v0, v2 and v4 all wait for a neighbour: the reference cost is 4,
    # and above the width every cost reads as the width plus two
    assert reference_pathwidth_table(verts, path, set(), set())[7][0b10101] == 4
    assert cost[0b10101] == table.limit + 1
    assert list(cost.within(table.limit)) == [m for m in range(64) if cost[m] <= 2]
    with pytest.raises(ValueError, match="stored up to 2"):
        list(cost.within(table.limit + 1))
    with pytest.raises(IndexError):
        cost[64]


def test_level_sets_on_larger_graphs():
    rng = random.Random(419)
    verts = [f"v{i:02}" for i in range(14)]
    edges = [p for p in combinations(verts, 2) if rng.random() < 0.3]
    _same_as_reference(verts, edges)
    # 15 free vertices and three left ports, two of them right ports too
    verts = [f"v{i:02}" for i in range(18)]
    edges = [p for p in combinations(verts, 2) if rng.random() < 0.2]
    _same_as_reference(verts, edges, {"v00", "v01", "v02"}, {"v01", "v02", "v10", "v17"})


def test_exact_search_limit_counts_vertices_outside_the_left_interface():
    # 17 path vertices and 2 right-only ports: 19 vertices to order
    verts = [f"p{i:02}" for i in range(17)] + ["r1", "r2"]
    edges = list(zip(verts, verts[1:]))
    with pytest.raises(OutOfScopeError) as err:
        pathwidth(verts, edges, last={"r1", "r2"})
    assert str(err.value) == (
        "exact search handles at most 18 vertices outside the left interface, got 19"
    )
    # left ports do not count: 18 free vertices are searched, 19 are not
    ports = {"q1", "q2", "q3"}
    assert pathwidth(verts[:18] + sorted(ports), edges[:17], first=ports) == 2
    with pytest.raises(OutOfScopeError, match="got 19"):
        pathwidth(verts + sorted(ports), edges, first=ports)


@pytest.mark.parametrize(
    "edge, message",
    [
        (("a", "c"), "endpoint outside the vertices"),
        ((["a"], "b"), "endpoint outside the vertices"),
        (("a", "a"), "is a loop"),
        (("a", "b", "c"), "is not a pair"),
        (("a",), "is not a pair"),
        (7, "is not a pair"),
    ],
)
def test_exact_entry_points_refuse_bad_edges(edge, message):
    for search in (pathwidth, optimal_decomposition):
        with pytest.raises(DecompositionError, match=message):
            search(["a", "b"], [("a", "b"), edge])


def test_exact_entry_points_take_any_pair_and_no_graph():
    # an edge given as a list, or in either order, is the same edge
    bags = optimal_decomposition("abc", [("a", "b"), ("b", "c")])
    assert width(bags) == 1
    for edges in ([["a", "b"], ["b", "c"]], [("b", "a"), ("c", "b"), ("a", "b")]):
        assert pathwidth("abc", edges) == 1
        assert optimal_decomposition("abc", edges) == bags
    assert pathwidth([], []) == -1
    assert optimal_decomposition([], []) == [frozenset()]
    with pytest.raises(DecompositionError, match="port sets"):
        pathwidth("ab", [], first={"c"})


def _builds():
    from sepstar import pathdecomp

    return pathdecomp._build_table.cache_info().misses


def test_width_then_decomposition_build_one_table():
    from sepstar import pathdecomp

    pathdecomp._build_table.cache_clear()
    g = grid(3, 4)
    assert graph_pathwidth(g) == 3
    bags = optimal_decomposition(g.vertices, g.edges)
    assert width(bags) == 3 and _builds() == 1
    # the same graph with its edges reversed and reordered is no new graph
    edges = [(v, u) for u, v in reversed(sorted(g.edges))]
    assert optimal_decomposition(g.vertices, edges) == bags and _builds() == 1


def test_a_context_builds_one_table_per_direction():
    from sepstar import pathdecomp

    pathdecomp._build_table.cache_clear()
    w = parallel_wires_context()
    assert context_pathwidth(w) == 2
    bags = context_decomposition(w)
    validate_decomposition(bags, w.vertices, w.edges, *pathdecomp._interfaces(w))
    _check_factorisation(w, two_bridge_decompose(w))
    assert _builds() == 2


def test_a_changed_graph_builds_a_new_table():
    from sepstar import pathdecomp

    rng = random.Random(419)
    verts = [f"v{i}" for i in range(9)]
    edges = [p for p in combinations(verts, 2) if rng.random() < 0.4]
    first, last = {"v0", "v1"}, {"v2", "v3"}
    # one edge fewer, and the interfaces swapped
    variants = [(edges, first, last), (edges[1:], first, last), (edges, last, first)]
    pathdecomp._build_table.cache_clear()
    answers = [
        (pathwidth(verts, *v), optimal_decomposition(verts, *v)) for v in variants
    ]
    assert _builds() == len(variants)
    for v, answer in zip(variants, answers):
        pathdecomp._build_table.cache_clear()
        assert (pathwidth(verts, *v), optimal_decomposition(verts, *v)) == answer


def _table_fields(table):
    """A table as plain data: `_Levels` compares by identity."""
    cost = table.cost
    return table._replace(cost=(cost.base, cost.levels, cost.size))


def test_readers_leave_the_shared_table_as_built():
    from sepstar import pathdecomp

    rng = random.Random(420)
    verts = [f"v{i}" for i in range(10)]
    edges = [p for p in combinations(verts, 2) if rng.random() < 0.35]
    w = _graph_as_context(rng, verts, edges, {"v0", "v1", "v2"}, {"v1", "v3", "v4"})
    args = (w.vertices, w.edges, *pathdecomp._interfaces(w))
    table = pathdecomp._pathwidth_table(*args)
    for field in ("verts", "adj", "free", "lo", "hi"):
        assert isinstance(getattr(table, field), tuple), field
    assert isinstance(table.cost.levels, tuple)
    pathdecomp._decomposition(table, table.cost, *args)
    pathdecomp._low_overlap_decomposition(w, table, *args[2:])
    assert pathdecomp._pathwidth_table(*args) is table
    pathdecomp._build_table.cache_clear()
    fresh = pathdecomp._pathwidth_table(*args)
    assert fresh is not table and _table_fields(fresh) == _table_fields(table)


def test_context_pathwidth_anchors():
    for k in (1, 2, 3):
        assert context_pathwidth(identity_context(k)) == k - 1
    assert context_pathwidth(crossing_context()) == 2
    assert context_pathwidth(hub_context()) == 3


def test_generator_words_respect_the_width_bound():
    rng = random.Random(413)
    for k in (1, 2):
        alphabet = enumerate_generators(k)
        for _ in range(15):
            word = [rng.choice(alphabet.contexts) for _ in range(rng.randint(1, 5))]
            assert context_pathwidth(compose_all(word)) <= k


def test_caterpillar_forest_is_pathwidth_at_most_one():
    for g in graph_pool(5, 0):
        assert is_caterpillar_forest(g) == (graph_pathwidth(g) <= 1)
    # sparse random graphs, biased toward forests, on more vertices
    rng = random.Random(416)
    for _ in range(60):
        n = rng.randint(6, 8)
        verts = [f"v{i}" for i in range(n)]
        edges = [p for p in combinations(verts, 2) if rng.random() < 0.18]
        g = PortGraph.build(verts, edges)
        assert is_caterpillar_forest(g) == (graph_pathwidth(g) <= 1)


def test_instruction_round_trip():
    rng = random.Random(414)
    for _ in range(25):
        n = rng.randint(1, 6)
        verts = [f"v{i}" for i in range(n)]
        edges = [p for p in combinations(verts, 2) if rng.random() < 0.4]
        first = {v for v in verts if rng.random() < 0.3}
        last = {v for v in verts if rng.random() < 0.3}
        bags = optimal_decomposition(verts, edges, first, last)
        ins = to_instructions(bags, first, last)
        assert from_instructions(first, ins) == normalize(bags)
        assert instruction_width(first, ins) == width(bags)


def test_instruction_errors():
    with pytest.raises(DecompositionError):
        from_instructions(set(), [("add", "a"), ("add", "a")])
    with pytest.raises(DecompositionError):
        from_instructions(set(), [("remove", "a")])
    with pytest.raises(DecompositionError):
        from_instructions(
            set(), [("add", "a"), ("remove", "a"), ("add", "a")]
        )
    with pytest.raises(DecompositionError):
        from_instructions({"a"}, [("swap", "a")])


@pytest.mark.parametrize(
    "first, instructions",
    [
        (set(), [("swap", "a")]),
        (set(), [("remove", "a")]),
        ({"a"}, [("add", "a")]),
    ],
    ids=["unknown-op", "remove-absent", "add-twice"],
)
def test_instruction_width_rejects_what_replay_rejects(first, instructions):
    with pytest.raises(DecompositionError):
        instruction_width(first, instructions)


def test_interface_vertices_enter_late_and_leave_early():
    bags = [{"a", "x", "z"}, {"x", "z", "b"}]
    ins = to_instructions(bags, first={"a"}, last={"b"})
    # the right port b is added after its bag-mates, the left port a is
    # removed before anything else from its bag
    assert ins == [
        ("add", "x"),
        ("add", "z"),
        ("remove", "a"),
        ("add", "b"),
        ("remove", "x"),
        ("remove", "z"),
    ]


def test_blocks_of_counts_class_runs():
    kind = {"x1": "X", "x2": "X", "y1": "Y", "p": "P"}
    ins = [
        ("add", "x1"),
        ("add", "x2"),
        ("add", "p"),
        ("add", "y1"),
        ("remove", "y1"),
        ("remove", "x1"),
    ]
    assert blocks_of(ins, kind) == [("X", 2), ("P", 1), ("Y", 2), ("X", 1)]


def test_dealternate_hand_case():
    first = {"p"}
    kind = {"p": "P", "x1": "X", "y1": "Y"}
    ins = [("add", "x1"), ("add", "y1"), ("remove", "x1"), ("remove", "y1")]
    assert instruction_width(first, ins) == 2
    out = dealternate(ins, kind, first)
    assert instruction_width(first, out) == 1
    blocks = blocks_of(out, kind)
    assert len(blocks) == 2 and {c for c, _ in blocks} == {"X", "Y"}
    assert sorted(out) == sorted(ins)


def test_dealternate_keeps_pins_in_place():
    first = set()
    kind = {"x1": "X", "p1": "P"}
    ins = [("add", "x1"), ("add", "p1"), ("remove", "x1"), ("remove", "p1")]
    # the pin after one X-instruction cannot move, so nothing can change
    assert dealternate(ins, kind, first) == ins
    with pytest.raises(DecompositionError):
        dealternate([("add", "mystery")], {}, set())


def test_dealternate_accounts_for_pinned_adds():
    # The add of b sits between the two X-instructions; the stretch
    # after it must be costed with b alive.  Reordering y1's add before
    # x1's remove would hit five alive vertices, so the input order
    # (width 2) is already optimal and must come back unchanged.
    first = {"a"}
    kind = {"a": "P", "b": "P", "x1": "X", "y1": "Y"}
    ins = [
        ("add", "x1"),
        ("add", "b"),
        ("remove", "x1"),
        ("add", "y1"),
        ("remove", "a"),
        ("remove", "y1"),
    ]
    out = dealternate(ins, kind, first)
    assert instruction_width(first, out) == 2
    assert _pin_coordinates(out, kind) == _pin_coordinates(ins, kind)


def _pin_coordinates(instructions, kind):
    coords = []
    xi = yi = 0
    for ins in instructions:
        cls = kind[ins[1]]
        if cls == "X":
            xi += 1
        elif cls == "Y":
            yi += 1
        else:
            coords.append((xi, yi, ins))
    return coords


def _all_reorderings(instructions, kind):
    """Every interleaving that keeps the X order, the Y order, and each
    pinned instruction at its exact pair of class counts."""
    xs = [ins for ins in instructions if kind[ins[1]] == "X"]
    ys = [ins for ins in instructions if kind[ins[1]] == "Y"]
    pins = _pin_coordinates(instructions, kind)
    out = []

    def rec(xi, yi, pi, acc):
        while pi < len(pins) and pins[pi][0] == xi and pins[pi][1] == yi:
            acc = acc + [pins[pi][2]]
            pi += 1
        if xi == len(xs) and yi == len(ys):
            out.append(acc)
            return
        if xi < len(xs) and (pi == len(pins) or pins[pi][0] > xi):
            rec(xi + 1, yi, pi, acc + [xs[xi]])
        if yi < len(ys) and (pi == len(pins) or pins[pi][1] > yi):
            rec(xi, yi + 1, pi, acc + [ys[yi]])

    rec(0, 0, 0, [])
    return out


def _max_alive(first, instructions):
    return instruction_width(first, instructions) + 1


def _random_instruction_case(rng):
    n_x = rng.randint(1, 3)
    n_y = rng.randint(1, 4 - n_x)
    n_p = rng.randint(0, 2)
    first = {f"f{i}" for i in range(rng.randint(0, 2))}
    kind = {v: "P" for v in first}
    events = []
    for i in range(n_x):
        kind[f"x{i}"] = "X"
        events.append(f"x{i}")
    for i in range(n_y):
        kind[f"y{i}"] = "Y"
        events.append(f"y{i}")
    for i in range(n_p):
        kind[f"p{i}"] = "P"
        events.append(f"p{i}")
    slots = sorted(rng.random() for _ in range(2 * len(events)))
    rng.shuffle(events)
    timed = []
    for i, v in enumerate(events):
        timed.append((slots[2 * i], ("add", v)))
        timed.append((slots[2 * i + 1], ("remove", v)))
    for v in first:
        if rng.random() < 0.5:
            timed.append((rng.random(), ("remove", v)))
    timed.sort()
    return first, kind, [ins for _, ins in timed]


def test_dealternate_matches_exhaustive_search():
    rng = random.Random(415)
    for _ in range(30):
        first, kind, ins = _random_instruction_case(rng)
        out = dealternate(ins, kind, first)
        # legality: same multiset, same class subsequences, same pins
        assert sorted(out) == sorted(ins)
        for cls in ("X", "Y"):
            assert [i for i in out if kind[i[1]] == cls] == [
                i for i in ins if kind[i[1]] == cls
            ]
        assert _pin_coordinates(out, kind) == _pin_coordinates(ins, kind)
        from_instructions(first, out)  # still replayable

        rivals = _all_reorderings(ins, kind)
        assert any(r == out for r in rivals)
        best_width = min(_max_alive(first, r) for r in rivals)
        assert _max_alive(first, out) == best_width
        best_blocks = min(
            len(blocks_of(r, kind))
            for r in rivals
            if _max_alive(first, r) == best_width
        )
        assert len(blocks_of(out, kind)) == best_blocks
        assert _max_alive(first, out) <= _max_alive(first, ins)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DecompositionError as exc:
        return str(exc)


def test_gap_min_blocks_matches_the_reference():
    # random gaps, empty ones included, whose random costs and bounds
    # leave about half of them without a path under the bound
    from sepstar.pathdecomp import _gap_min_blocks

    rng = random.Random(416)
    infeasible = 0
    for _ in range(1500):
        i0, j0 = rng.randint(0, 3), rng.randint(0, 3)
        i1, j1 = i0 + rng.randint(0, 5), j0 + rng.randint(0, 5)
        costs = {
            (i, j): rng.randint(0, 4)
            for i in range(i0, i1 + 1)
            for j in range(j0, j1 + 1)
        }
        gap = (i0, j0, i1, j1, lambda i, j: costs[i, j], rng.randint(1, 4))
        want = _outcome(reference_gap_min_blocks, *gap)
        assert _outcome(_gap_min_blocks, *gap) == want
        infeasible += want == "no path satisfies the width bound"
    assert 300 < infeasible < 1200


def test_normalize_matches_the_reference():
    rng = random.Random(417)
    for _ in range(3000):
        bags = [
            {v for v in "abcd" if rng.random() < 0.5}
            for _ in range(rng.randint(0, 10))
        ]
        assert normalize(bags) == reference_normalize(bags)


def _check_factorisation(w, factors):
    assert factors, "empty factorisation"
    assert all(f.arity == w.arity for f in factors)
    assert isomorphic_contexts(compose_all(factors), w)
    base = len(persistent_ports(w))
    for f in factors:
        assert (
            len(f.vertices) <= w.arity + 1
            or len(persistent_ports(f)) > base
        )


def parallel_wires_context() -> Context:
    verts = ["a", "b", "c", "d", "p", "q", "r", "s"]
    edges = [
        ("a", "p"), ("p", "q"), ("q", "c"),
        ("b", "r"), ("r", "s"), ("s", "d"),
    ]
    return Context.build(verts, edges, 2, {1: "a", 2: "b"}, {1: "c", 2: "d"})


def test_two_bridge_parallel_wires():
    w = parallel_wires_context()
    assert len(bridges(w)) == 2
    factors = two_bridge_decompose(w)
    _check_factorisation(w, factors)
    assert all(len(f.vertices) <= 3 for f in factors)


def test_two_bridge_builds_one_table_per_direction(monkeypatch):
    from sepstar import pathdecomp

    built = []
    table = pathdecomp._pathwidth_table

    def counting(vertices, edges, first, last):
        built.append((frozenset(first), frozenset(last)))
        return table(vertices, edges, first, last)

    monkeypatch.setattr(pathdecomp, "_pathwidth_table", counting)
    w = parallel_wires_context()
    _check_factorisation(w, two_bridge_decompose(w))
    assert built == [
        (frozenset("ab"), frozenset("cd")),
        (frozenset("cd"), frozenset("ab")),
    ]


def test_two_bridge_tries_each_candidate_once(monkeypatch):
    from sepstar import pathdecomp

    tried = []
    factorise = pathdecomp._try_factorisation

    def spy(w, instructions, alive, cuts, *facts):
        # the attempt reads the sequence's own alive sets, and each cut
        # is a valley of them
        assert alive == pathdecomp._replay(frozenset(w.left_map().values()), instructions)
        assert all(len(alive[c]) <= w.arity for c in cuts)
        tried.append((tuple(instructions), tuple(sorted(set(cuts)))))
        return factorise(w, instructions, alive, cuts, *facts)

    monkeypatch.setattr(pathdecomp, "_try_factorisation", spy)
    for w in two_bridge_corpus():
        try:
            two_bridge_decompose(w)
        except DecompositionError:
            pass
    assert tried and len(set(tried)) == len(tried)


def test_two_bridge_replays_each_sequence_once(monkeypatch):
    from sepstar import pathdecomp

    calls = []
    replay = pathdecomp._replay

    def spy(first, instructions):
        calls.append(len(instructions))
        return replay(first, instructions)

    monkeypatch.setattr(pathdecomp, "_replay", spy)
    for w in two_bridge_corpus():
        try:
            two_bridge_decompose(w)
        except DecompositionError:
            pass
    # one replay per sequence, base or dealternated, and two inside each
    # `dealternate`; replaying once per attempt made 3,823
    assert len(calls) <= 300


def test_two_bridge_hub_at_larger_arity():
    h = hub_context()
    h3 = Context.build(h.vertices, h.edges, 3, h.left_map(), h.right_map())
    factors = two_bridge_decompose(h3)
    _check_factorisation(h3, factors)
    assert sorted(len(f.vertices) for f in factors) == [3, 3, 5]
    big = next(f for f in factors if len(f.vertices) == 5)
    assert persistent_ports(big)


def test_two_bridge_small_context_is_already_a_letter():
    x = crossing_context()
    x3 = Context.build(x.vertices, x.edges, 3, x.left_map(), x.right_map())
    factors = two_bridge_decompose(x3)
    assert factors == [x3]


def test_two_bridge_preconditions():
    # the crossing has two bridges but cannot be split at arity 2: both
    # slots stay claimed from each side across every interior point
    with pytest.raises(DecompositionError):
        two_bridge_decompose(crossing_context())
    # the hub needs width 3, so at arity 2 it is out of scope
    with pytest.raises(DecompositionError, match="pathwidth"):
        two_bridge_decompose(hub_context())
    wire = Context.build(
        ["a", "m", "b"], [("a", "m"), ("m", "b")], 1, {1: "a"}, {1: "b"}
    )
    with pytest.raises(DecompositionError, match="bridges"):
        two_bridge_decompose(wire)


def test_two_bridge_pendant_heavy_word():
    # regression: pendant vertices hanging off a right port must be
    # introduced after the left ports die, or no cut point survives
    alphabet = enumerate_generators(2)
    w = compose_all(
        [alphabet.by_id(g) for g in ("g213", "g170", "g174", "g168")]
    )
    assert len(bridges(w)) == 2
    _check_factorisation(w, two_bridge_decompose(w))


def test_two_bridge_dealternation_fallback(monkeypatch):
    # regression: no valley of either low-overlap sequence cuts this
    # context; only the dealternated sequence of one bridge's class does
    from sepstar import pathdecomp

    w = context_from_json({
        "vertices": ["t0", "t1", "t2", "t3", "t4", "t5", "t6"],
        "edges": [["t0", "t2"], ["t0", "t5"], ["t2", "t4"], ["t4", "t5"]],
        "arity": 2, "left": {"1": "t4", "2": "t3"}, "right": {"1": "t0", "2": "t1"},
    })
    assert len(bridges(w)) == 2
    reordered = []

    def spy(*args):
        reordered.append(dealternate(*args))
        return reordered[-1]

    monkeypatch.setattr(pathdecomp, "dealternate", spy)
    factors = two_bridge_decompose(w)
    _check_factorisation(w, factors)
    assert len(reordered) == 1
    assert sorted(len(f.vertices) for f in factors) == [2, 2, 3, 3, 3]


def test_two_bridge_random_generator_words():
    for k, seed, trials, maxlen, cap in ((2, 99, 800, 5, 30), (3, 77, 200, 3, 10)):
        alphabet = enumerate_generators(k)
        rng = random.Random(seed)
        cases = []
        seen = set()
        while len(cases) < cap and trials > 0:
            trials -= 1
            word = tuple(
                rng.choice(alphabet.ids) for _ in range(rng.randint(2, maxlen))
            )
            if word in seen:
                continue
            seen.add(word)
            w = compose_all([alphabet.by_id(g) for g in word])
            if len(w.vertices) <= k + 1 or len(bridges(w)) < 2:
                continue
            if context_pathwidth(w) > k:
                continue
            cases.append(w)
        assert len(cases) >= 5
        for w in cases:
            _check_factorisation(w, two_bridge_decompose(w))
