"""Formula syntax, evaluation, and the rank-r equivalence game.

The rank-1 oracle used here is independent of the game code: a rank-1
sentence (over any arity) can only assert a boolean combination of
"some vertex realises atomic type t with the ports", so two graphs are
rank-1 equivalent iff the same port atomic type holds and the same set
of extension types is realised.  We compute those type sets directly.
"""

import gc
import random
import weakref

import pytest

from sepstar.graphs import PortGraph, separator_holds
from sepstar.logic import (
    And,
    Edge,
    Eq,
    Exists,
    Forall,
    FormulaError,
    Label,
    Not,
    Or,
    Sep,
    ef_equivalent,
    eval_formula,
    free_vars,
    language_member,
    parse_formula,
    quantifier_rank,
    render_formula,
    sentence_holds,
)

from helpers import (
    cycle_graph,
    graphs_on,
    path_graph,
    reference_ef_equivalent,
    reference_eval,
)


# --- syntax ----------------------------------------------------------------


def test_parse_atoms():
    assert parse_formula("E(x,y)") == Edge("x", "y")
    assert parse_formula("x=y") == Eq("x", "y")
    assert parse_formula("lab:red(x)") == Label("x", "red")
    assert parse_formula("S0(x,y)") == Sep("x", "y", ())
    assert parse_formula("S2(x,y|u,v)") == Sep("x", "y", ("u", "v"))


def test_parse_precedence():
    f = parse_formula("x=y & y=z | E(x,z)")
    assert f == Or(And(Eq("x", "y"), Eq("y", "z")), Edge("x", "z"))
    f = parse_formula("!x=y & y=z")
    assert isinstance(f, And) and isinstance(f.operands[0], Not)
    f = parse_formula("exists x. x=y & E(x,y)")
    assert isinstance(f, Exists) and isinstance(f.sub, And)
    f = parse_formula("(exists x. x=y) & E(y,y)")
    assert isinstance(f, And)


def test_junctions_are_flat():
    a, b, c, d = (Eq(x, x) for x in "abcd")
    assert And(And(a, b), And(c, d)) == And(a, b, c, d)
    assert And(And(a, b), And(c, d)).operands == (a, b, c, d)
    assert hash(Or(a, Or(b, c))) == hash(Or(a, b, c))
    # an operand of the other kind stays whole
    assert Or(a, And(b, c)).operands == (a, And(b, c))
    assert And(a, b) != Or(a, b)
    for bad in [(), (a,)]:
        with pytest.raises(TypeError, match="two or more operands"):
            Or(*bad)


def test_parse_errors():
    for bad in [
        "E(x",
        "S2(x,y|z)",
        "S1(x,y)",
        "x =",
        "exists exists. x=y",
        "x=y extra",
        "",
        "lab:(x)",
    ]:
        with pytest.raises(FormulaError):
            parse_formula(bad)


def test_deep_formula_raises_formula_error():
    with pytest.raises(FormulaError, match="nested too deeply"):
        parse_formula("!" * 3000 + "(exists x. x = x)")


def test_render_round_trip():
    texts = [
        "E(x,y)",
        "S3(x,y|a,b,c)",
        "!(x=y | E(x,y)) & S0(x,y)",
        "exists x. forall y. E(x,y) | x=y",
        "forall z. !S1(x,y|z)",
        "lab:mark(w) & exists v. lab:a(v)",
    ]
    for t in texts:
        f = parse_formula(t)
        assert parse_formula(render_formula(f)) == f
    rng = random.Random(3)

    def random_formula(depth, vars_):
        if depth == 0:
            kind = rng.randrange(4)
            x, y = rng.choice(vars_), rng.choice(vars_)
            if kind == 0:
                return Edge(x, y)
            if kind == 1:
                return Eq(x, y)
            if kind == 2:
                zs = tuple(rng.choice(vars_) for _ in range(rng.randrange(3)))
                return Sep(x, y, zs)
            return Label(x, rng.choice("abc"))
        kind = rng.randrange(5)
        if kind == 0:
            return Not(random_formula(depth - 1, vars_))
        if kind == 1:
            return And(random_formula(depth - 1, vars_), random_formula(depth - 1, vars_))
        if kind == 2:
            return Or(random_formula(depth - 1, vars_), random_formula(depth - 1, vars_))
        v = f"v{rng.randrange(3)}"
        body = random_formula(depth - 1, vars_ + [v])
        return Exists(v, body) if kind == 3 else Forall(v, body)

    for _ in range(200):
        f = random_formula(rng.randrange(4), ["x", "y"])
        assert parse_formula(render_formula(f)) == f


def test_free_vars_and_rank():
    f = parse_formula("exists x. S1(x,y|z) & forall y. E(x,y)")
    assert free_vars(f) == {"y", "z"}
    assert quantifier_rank(f) == 2
    assert quantifier_rank(parse_formula("x=y")) == 0


# --- evaluation ------------------------------------------------------------


def test_eval_atoms_by_hand():
    g = PortGraph.build(["a", "b", "c"], [("a", "b"), ("b", "c")], [], {"a": "red"})
    assert eval_formula(g, parse_formula("E(x,y)"), {"x": "a", "y": "b"})
    assert not eval_formula(g, parse_formula("E(x,y)"), {"x": "a", "y": "c"})
    assert eval_formula(g, parse_formula("lab:red(x)"), {"x": "a"})
    assert not eval_formula(g, parse_formula("lab:red(x)"), {"x": "b"})
    assert eval_formula(g, parse_formula("S1(x,y|z)"), {"x": "a", "y": "c", "z": "b"})
    assert not eval_formula(g, parse_formula("S1(x,y|z)"), {"x": "a", "y": "b", "z": "c"})


def test_eval_requires_complete_valuation():
    g = path_graph(2)
    with pytest.raises(FormulaError):
        eval_formula(g, parse_formula("E(x,y)"), {"x": "u0"})
    with pytest.raises(FormulaError):
        eval_formula(g, parse_formula("E(x,y)"), {"x": "u0", "y": "nope"})


def test_quantifiers():
    g = path_graph(3)
    assert sentence_holds(g, parse_formula("exists x. exists y. E(x,y)"))
    assert not sentence_holds(g, parse_formula("forall x. forall y. x=y | E(x,y)"))
    assert sentence_holds(cycle_graph(3), parse_formula("forall x. exists y. E(x,y)"))
    with pytest.raises(FormulaError):
        sentence_holds(g, parse_formula("E(x,y)"))


def test_connectivity_sentence():
    connected = parse_formula("!(exists x. exists y. S0(x,y))")
    assert sentence_holds(path_graph(4), connected)
    assert not sentence_holds(
        PortGraph.build(["a", "b", "c"], [("a", "b")]), connected
    )
    assert sentence_holds(PortGraph.build(["only"], []), connected)


def test_language_member_uses_ports():
    g = PortGraph.build(["p", "leaf"], [("p", "leaf")], ["p"])
    has_nbr = parse_formula("exists y. E(x1,y)")
    assert language_member(g, has_nbr)
    lonely = PortGraph.build(["p", "other"], [], ["p"])
    assert not language_member(lonely, has_nbr)
    with pytest.raises(FormulaError):
        language_member(g, parse_formula("exists y. E(x2,y)"))


def test_eval_valuation_to_a_non_name_is_an_unknown_vertex():
    g = path_graph(2)
    for bad in (["u0"], 0, None, ("u0",)):
        with pytest.raises(FormulaError, match="to unknown vertex"):
            eval_formula(g, parse_formula("E(x,y)"), {"x": bad, "y": "u1"})


def test_shadowing_quantifier_takes_its_own_slot():
    # the inner x shadows the outer one; were both given one slot, z
    # would overwrite the outer x's vertex
    g = PortGraph.build(["a", "b", "c"], [("a", "b")])
    f = parse_formula(
        "exists y. exists x. exists x. exists z. (E(x,y) & !(z = x) & !E(z,y))"
    )
    assert sentence_holds(g, f) is True
    assert reference_eval(g, f, {}) is True
    g = PortGraph.build(["a", "b"], [("a", "b")])
    f = parse_formula("exists x. forall x. exists y. E(x,y)")
    assert sentence_holds(g, f) is True


def _random_formula(rng, scope, depth, binders=("x", "y", "z")):
    """A seeded formula over the variables in ``scope``: every atom kind,
    cuts that repeat a variable or hold x or y, and binders that often
    shadow a variable already in scope."""
    if depth == 0 or rng.random() < 0.15:
        x, y = rng.choice(scope), rng.choice(scope)
        kind = rng.randrange(7)
        if kind == 0:
            return Edge(x, y)
        if kind == 1:
            return Eq(x, y)
        if kind == 2:
            return Label(x, rng.choice("ab"))
        if kind == 3:
            return Sep(x, y, ())
        if kind == 4:
            return Sep(x, y, (rng.choice(scope),))
        if kind == 5:
            z = rng.choice(scope)
            return Sep(x, y, (z, z))
        return Sep(x, y, (rng.choice((x, y)), rng.choice(scope)))
    kind = rng.randrange(6)
    if kind == 0:
        return Not(_random_formula(rng, scope, depth - 1, binders))
    if kind in (1, 2):
        node = And if kind == 1 else Or
        return node(
            _random_formula(rng, scope, depth - 1, binders),
            _random_formula(rng, scope, depth - 1, binders),
        )
    var = rng.choice(binders)
    body = _random_formula(rng, scope + [var], depth - 1, binders)
    return (Exists if kind % 2 else Forall)(var, body)


def _formulas(seed, scope, count, rank):
    """``count`` seeded formulas of quantifier rank at most ``rank``."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        f = _random_formula(rng, scope, rng.randrange(2, 7))
        if quantifier_rank(f) <= rank:
            out.append(f)
    return out


# every graph on at most four vertices, unlabelled or with label "a" on
# any set of vertices
SMALL_LABELLED = [g for n in range(1, 5) for g in graphs_on(n, 0, ("a",))]


def test_sentences_match_the_reference_on_all_small_graphs():
    sentences = [
        (Exists if i % 2 else Forall)("x", f)
        for i, f in enumerate(_formulas(31, ["x"], 40, 2))
    ]
    sentences.append(parse_formula(
        "exists y. exists x. exists x. exists z. (E(x,y) & !(z = x) & !E(z,y))"
    ))
    assert sum(bool(g.labels) for g in SMALL_LABELLED) > len(SMALL_LABELLED) // 2
    verdicts = set()
    for f in sentences:
        for g in SMALL_LABELLED:
            got = sentence_holds(g, f)
            assert got == reference_eval(g, f, {}), (render_formula(f), g)
            verdicts.add(got)
    assert verdicts == {True, False}


def test_eval_formula_matches_the_reference_under_valuations():
    rng = random.Random(37)
    formulas = _formulas(41, ["x", "y", "u"], 60, 3)
    graphs = [g for n in range(1, 4) for g in graphs_on(n, 0, ("a",))]
    for f in formulas:
        free = sorted(free_vars(f))
        for g in graphs:
            names = sorted(g.vertices)
            valuation = {v: rng.choice(names) for v in free}
            # entries for variables that are not free are checked as
            # vertices and otherwise ignored, bound or not
            valuation["x"] = valuation.get("x", rng.choice(names))
            valuation["unused"] = rng.choice(names)
            got = eval_formula(g, f, valuation)
            assert got == reference_eval(g, f, valuation), (render_formula(f), g, valuation)


def test_language_member_matches_the_reference_with_ports_under_quantifiers():
    for k in (1, 2):
        ports = [f"x{i}" for i in range(1, k + 1)]
        formulas = _formulas(43 + k, ports, 40, 3)
        graphs = [g for n in range(k, 5) for g in graphs_on(n, k, ("a",) if n < 4 else ())]
        for f in formulas:
            for g in graphs:
                env = dict(zip(ports, g.ports))
                assert language_member(g, f) == reference_eval(g, f, env), (
                    render_formula(f), g)


def test_compiled_program_lives_as_long_as_its_formula():
    f = parse_formula("exists y. S1(y,y|y) & forall z. E(y,z) | y = z | S1(y,z|y)")
    assert sentence_holds(path_graph(3), f)
    assert sentence_holds(path_graph(3), parse_formula(render_formula(f)))
    dead = weakref.ref(f)
    del f
    gc.collect()
    assert dead() is None


# --- the equivalence game --------------------------------------------------


def _atom_vector(g, pinned):
    """Test-side atomic type: every atom over the pinned tuple."""
    out = []
    n = len(pinned)
    for i in range(n):
        out.append(("lab", i, dict(g.labels).get(pinned[i])))
        for j in range(n):
            out.append(("eq", i, j, pinned[i] == pinned[j]))
            out.append(("edge", i, j, g.has_edge(pinned[i], pinned[j])))
            for bits in range(1 << n):
                cut = {pinned[t] for t in range(n) if bits >> t & 1}
                out.append(
                    ("sep", i, j, bits, separator_holds(g, pinned[i], pinned[j], cut))
                )
    return tuple(out)


def _rank1_types(g):
    port_part = _atom_vector(g, g.ports)
    ext = frozenset(_atom_vector(g, g.ports + (v,)) for v in g.vertices)
    return (port_part, ext)


def test_rank1_against_type_oracle():
    rng = random.Random(19)
    pool = graphs_on(3, 1)
    seen_disagree = False
    for _ in range(150):
        g, h = rng.choice(pool), rng.choice(pool)
        expected = _rank1_types(g) == _rank1_types(h)
        assert ef_equivalent(g, h, 1) == expected
        seen_disagree |= not expected
    assert seen_disagree  # the sample exercised both outcomes


def test_single_vs_two_isolated_vertices():
    one = PortGraph.build(["a"], [])
    two = PortGraph.build(["a", "b"], [])
    # rank 1 cannot tell them apart: every vertex realises the same
    # atomic type (no edges, not separated from itself, same labels)
    assert ef_equivalent(one, two, 1)
    # rank 2 can: pin both vertices of the two-vertex graph; the
    # responses collapse to one vertex, and S0 plus equality disagree
    assert not ef_equivalent(one, two, 2)


def test_triangle_vs_path():
    c3 = cycle_graph(3)
    p3 = path_graph(3)
    assert ef_equivalent(c3, p3, 1)
    # rank 2 separates: pick the two path endpoints (non-adjacent,
    # distinct); any distinct pair in the triangle is adjacent
    assert not ef_equivalent(c3, p3, 2)
    assert not ef_equivalent(c3, p3, 3)


def test_equivalence_respects_isomorphism_and_rank_monotonicity():
    rng = random.Random(23)
    pool = graphs_on(3, 0)
    for _ in range(25):
        g = rng.choice(pool)
        names = sorted(g.vertices)
        image = names[:]
        rng.shuffle(image)
        m = dict(zip(names, image))
        h = PortGraph.build(image, [(m[u], m[v]) for u, v in g.edges], ())
        assert ef_equivalent(g, h, 3)
    for _ in range(40):
        g, h = rng.choice(pool), rng.choice(pool)
        if ef_equivalent(g, h, 2):
            assert ef_equivalent(g, h, 1)


def test_game_memo_is_freed_without_the_cycle_collector():
    p5, c5 = path_graph(5), cycle_graph(5)
    gc.collect()
    gc.disable()
    try:
        ef_equivalent(p5, c5, 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_game_arity_mismatch():
    with pytest.raises(FormulaError):
        ef_equivalent(path_graph(2, arity=1), path_graph(2), 1)


def _random_five(rng, arity, edges, labelled):
    """A 5-vertex graph with the given number of edges, names in random
    order so that index order differs from graph to graph."""
    names = [f"n{i}" for i in range(5)]
    rng.shuffle(names)
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1 :]]
    labels = {v: "a" for v in names[:2]} if labelled else {}
    return PortGraph.build(names, rng.sample(pairs, edges), names[-arity:][:arity], labels)


def test_game_matches_the_reference_on_five_vertex_pairs():
    rng = random.Random(47)
    outcomes = set()
    for trial in range(16):
        # equal edge counts and labels, so that many pairs survive the
        # first rounds; every fourth pair is a graph and itself
        arity, edges, labelled = trial % 3, rng.randrange(3, 8), trial % 5 == 1
        g = _random_five(rng, arity, edges, labelled)
        h = g if trial % 4 == 0 else _random_five(rng, arity, edges, labelled)
        for rank in range(4):
            want = reference_ef_equivalent(g, h, rank)
            assert ef_equivalent(g, h, rank) == want, (g, h, rank)
            assert ef_equivalent(h, g, rank) == want, (h, g, rank)
            outcomes.add((rank, want))
    assert {(r, w) for r in (1, 2) for w in (True, False)} <= outcomes


@pytest.mark.parametrize("rank", [1.5, 2.0, True, False, "2", None])
def test_game_rank_must_be_an_integer(rank):
    one_edge = path_graph(2)
    with pytest.raises(FormulaError, match="rank must be an integer"):
        ef_equivalent(one_edge, one_edge, rank)


def test_game_rank_must_be_nonnegative():
    with pytest.raises(FormulaError, match="nonnegative"):
        ef_equivalent(path_graph(2), path_graph(2), -1)
