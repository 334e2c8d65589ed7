"""Star-free expressions: arity checking, membership (against a raw
enumeration oracle), syntax round trips, and the formula compiler
(against direct formula evaluation)."""

import hashlib
import random

import pytest

from sepstar.graphs import PortGraph, add_port, forget, fuse, permute
from sepstar.logic import (
    Eq,
    Exists,
    Forall,
    FormulaError,
    Sep,
    eval_formula,
    free_vars,
    language_member,
    parse_formula,
    quantifier_rank,
    render_formula,
    sentence_holds,
)
from sepstar.logic import And as FAnd
from sepstar.logic import Edge as FEdge
from sepstar.logic import Not as FNot
from sepstar.logic import Or as FOr
from sepstar.starfree import (
    Add,
    And,
    ExprError,
    Finite,
    Forget,
    Fuse,
    Not,
    Or,
    Permute,
    all_graphs,
    compile_formula,
    expr_arity,
    finite,
    member,
    no_graphs,
    parse_expr,
    render_expr,
)

from helpers import brute_isomorphic, graph_pool, graphs_on, path_graph

# ---------------------------------------------------------------------------
# oracle: decide membership by enumerating over a pool of representatives.
# The pool holds one graph per isomorphism class up to a size bound; all
# inverse images needed for graphs of size <= bound stay within the bound,
# so the oracle is exact on pool members.


def oracle_member(g, e, max_n):
    if isinstance(e, Finite):
        return any(brute_isomorphic(g, m) for m in e.members)
    if isinstance(e, Not):
        return not oracle_member(g, e.sub, max_n)
    if isinstance(e, And):
        return all(oracle_member(g, sub, max_n) for sub in e.operands)
    if isinstance(e, Or):
        return any(oracle_member(g, sub, max_n) for sub in e.operands)
    if isinstance(e, Fuse):
        k = expr_arity(e)
        n = len(g.vertices)
        pool = graph_pool(max_n, k)
        for h1 in pool:
            if len(h1.vertices) > n:
                continue
            for h2 in pool:
                if len(h1.vertices) + len(h2.vertices) - k != n:
                    continue
                if not brute_isomorphic(fuse(h1, h2), g):
                    continue
                if oracle_member(h1, e.lhs, max_n) and oracle_member(h2, e.rhs, max_n):
                    return True
        return False
    if isinstance(e, Forget):
        k = expr_arity(e)
        for h in graph_pool(max_n, k + 1):
            if brute_isomorphic(forget(h), g) and oracle_member(h, e.sub, max_n):
                return True
        return False
    if isinstance(e, Add):
        k = expr_arity(e)
        for h in graph_pool(max_n, k - 1):
            if len(h.vertices) + 1 != len(g.vertices):
                continue
            if brute_isomorphic(add_port(h), g) and oracle_member(h, e.sub, max_n):
                return True
        return False
    if isinstance(e, Permute):
        for h in graph_pool(max_n, expr_arity(e)):
            if brute_isomorphic(permute(h, e.perm), g) and oracle_member(
                h, e.sub, max_n
            ):
                return True
        return False
    raise TypeError(e)


def _edge_graph(k, i, j):
    names = [f"p{t}" for t in range(1, k + 1)]
    return PortGraph.build(names, [(names[i - 1], names[j - 1])], names)


# ---------------------------------------------------------------------------


def test_finite_literal_normalisation():
    a = PortGraph.build(["a", "b"], [("a", "b")], ["a"])
    b = PortGraph.build(["x", "y"], [("y", "x")], ["x"])  # same class
    lit = finite(1, [a, b])
    assert len(lit.members) == 1
    with pytest.raises(ExprError):
        finite(1, [PortGraph.build(["a"], [])])  # arity mismatch
    with pytest.raises(ExprError):
        finite(0, [PortGraph.build(["a"], [], [], {"a": "red"})])  # labelled


def test_arity_computation_and_errors():
    assert expr_arity(all_graphs(2)) == 2
    assert expr_arity(Forget(all_graphs(2))) == 1
    assert expr_arity(Add(all_graphs(2))) == 3
    assert expr_arity(Permute((2, 1), all_graphs(2))) == 2
    with pytest.raises(ExprError):
        expr_arity(And(all_graphs(1), all_graphs(2)))
    with pytest.raises(ExprError):
        expr_arity(Forget(all_graphs(0)))
    with pytest.raises(ExprError):
        expr_arity(Permute((1, 3), all_graphs(2)))


def test_junctions_are_flat():
    one, none = all_graphs(1), no_graphs(1)
    e = Or(none, Or(none, one))
    assert e.operands == (none, none, one) and e == Or(none, none, one)
    assert member(PortGraph.build(["a"], [], ["a"]), e)
    assert not member(PortGraph.build(["a"], [], ["a"]), And(one, And(one, none)))
    with pytest.raises(ExprError, match="operands of And have arities 1 and 2"):
        And(one, one, all_graphs(2))
    with pytest.raises(TypeError, match="two or more operands"):
        And(one)


def test_member_arity_and_label_checks():
    g = PortGraph.build(["a"], [], ["a"])
    with pytest.raises(ExprError):
        member(g, all_graphs(0))
    with pytest.raises(ExprError):
        member(PortGraph.build(["a"], [], [], {"a": "c"}), all_graphs(0))


def test_member_basic_cases():
    e12 = _edge_graph(2, 1, 2)
    lit = finite(2, [e12])
    assert member(e12, lit)
    bare = PortGraph.build(["p", "q"], [], ["p", "q"])
    assert not member(bare, lit)
    assert member(bare, all_graphs(2))
    # fuse with "everything": adds arbitrary context around the edge
    has_edge = Fuse(lit, all_graphs(2))
    tri = PortGraph.build(
        ["p", "q", "r"], [("p", "q"), ("q", "r"), ("p", "r")], ["p", "q"]
    )
    assert member(tri, has_edge)
    spaced = PortGraph.build(["p", "q", "r"], [("p", "r"), ("r", "q")], ["p", "q"])
    assert not member(spaced, has_edge)


def test_member_forget_add_permute():
    # forget: some vertex could have been the missing port
    e = Forget(finite(2, [_edge_graph(2, 1, 2)]))
    assert member(path_graph(2, arity=1), e)
    assert not member(path_graph(3, arity=1), e)  # too many vertices
    # add: last port must be isolated
    e = Add(all_graphs(0))
    assert member(PortGraph.build(["a", "b"], [], ["b"]), e)
    assert not member(path_graph(2, arity=1), e)
    assert not member(PortGraph.build(["a"], [], ["a"]), e)
    # permute
    asym = PortGraph.build(["p", "q", "c"], [("p", "c")], ["p", "q"])
    lit = finite(2, [asym])
    swapped = permute(asym, (2, 1))
    assert member(swapped, Permute((2, 1), lit))
    assert not member(asym, Permute((2, 1), lit))


def test_member_fuse_splits_components_at_arity_zero():
    two = PortGraph.build(["a", "b"], [])
    single = finite(0, [PortGraph.build(["a"], [])])
    assert member(two, Fuse(single, single))
    assert not member(PortGraph.build(["a"], []), Fuse(single, single))
    connected_pair = PortGraph.build(["a", "b"], [("a", "b")])
    assert not member(connected_pair, Fuse(single, single))


def test_member_against_oracle_random_expressions():
    rng = random.Random(41)
    max_n = 4

    def random_expr(arity, depth):
        if depth == 0 or rng.random() < 0.3:
            pool = [g for g in graph_pool(max_n, arity) if len(g.vertices) <= 3]
            ms = rng.sample(pool, min(len(pool), rng.randrange(4)))
            return finite(arity, ms)
        kind = rng.randrange(7)
        if kind == 0:
            return Not(random_expr(arity, depth - 1))
        if kind == 1:
            return And(random_expr(arity, depth - 1), random_expr(arity, depth - 1))
        if kind == 2:
            return Or(random_expr(arity, depth - 1), random_expr(arity, depth - 1))
        if kind == 3:
            return Fuse(random_expr(arity, depth - 1), random_expr(arity, depth - 1))
        if kind == 4 and arity <= 2:
            return Forget(random_expr(arity + 1, depth - 1))
        if kind == 5 and arity >= 1:
            return Add(random_expr(arity - 1, depth - 1))
        if kind == 6 and arity >= 2:
            perm = list(range(1, arity + 1))
            rng.shuffle(perm)
            return Permute(tuple(perm), random_expr(arity, depth - 1))
        return Not(random_expr(arity, depth - 1))

    checked = 0
    for _ in range(30):
        arity = rng.randrange(3)
        e = random_expr(arity, 2)
        for g in rng.sample(graph_pool(max_n, arity), 6):
            assert member(g, e) == oracle_member(g, e, max_n)
            checked += 1
    assert checked == 180


# --- syntax ----------------------------------------------------------------


def test_expr_parse_render_round_trip():
    texts = [
        "!finite@0{}",
        "forget(add(!finite@0{}))",
        'finite@1{{"vertices":["a"],"ports":["a"]}}',
        "perm[2,1](!finite@2{}) & !finite@2{} | finite@2{}",
        "!finite@1{} (+) add(!finite@0{})",
    ]
    for t in texts:
        e = parse_expr(t)
        assert parse_expr(render_expr(e)) == e


def test_expr_parse_errors():
    for bad in [
        "finite@{",
        "finite@1{oops}",
        "perm[]()",
        "!",
        "forget(!finite@0{}",
        "!finite@0{} extra",
        "finite@1{} & finite@2{}",  # arity clash caught at parse
    ]:
        with pytest.raises(ExprError):
            parse_expr(bad)


def test_inline_graph_names_may_hold_syntax_characters():
    # JSON literals end where the decoder says, not at the first brace
    g = PortGraph.build(["a}", 'b;"', "c\\}"], [("a}", 'b;"'), ('b;"', "c\\}")], ["a}"])
    h = PortGraph.build(["{;", "x"], [], ["x"])
    e = Not(finite(1, [g, h]))
    text = render_expr(e)
    assert parse_expr(text) == e
    for bad in [
        'finite@1{{"vertices":["a}"],"ports":["a}"]',  # truncated
        "finite@1{" + '{"vertices":' + "[" * 100000 + "]" * 100000 + "}}",  # deep
    ]:
        with pytest.raises(ExprError):
            parse_expr(bad)


def test_expr_precedence():
    e = parse_expr("!finite@0{} (+) finite@0{} & finite@0{} | finite@0{}")
    assert isinstance(e, Or) and len(e.operands) == 2
    assert isinstance(e.operands[0], And)
    assert isinstance(e.operands[0].operands[0], Fuse)
    assert isinstance(e.operands[0].operands[0].lhs, Not)


# --- the compiler ----------------------------------------------------------


def test_compile_equality_and_edge_atoms():
    same = compile_formula(parse_formula("x1=x1"), 1)
    diff = compile_formula(parse_formula("x1=x2"), 2)
    for g in graph_pool(3, 1):
        assert member(g, same)
    for g in graph_pool(3, 2):
        assert not member(g, diff)
    edge = compile_formula(parse_formula("E(x1,x2)"), 2)
    for g in graph_pool(4, 2):
        assert member(g, edge) == g.has_edge(g.ports[0], g.ports[1])


def test_compile_rejects_bad_inputs():
    with pytest.raises(ExprError):
        compile_formula(parse_formula("E(x1,y)"), 1)
    with pytest.raises(ExprError):
        compile_formula(parse_formula("lab:a(x1)"), 1)


def test_compile_separator_atom():
    f = parse_formula("S1(x1,x2|x3)")
    e = compile_formula(f, 3)
    for g in graph_pool(4, 3):
        assert member(g, e) == language_member(g, f)


@pytest.mark.parametrize("text, arity", [
    ("S0(x1,x2)", 3),
    ("S0(x1,x2)", 4),
    ("S0(x2,x4)", 4),
    ("S1(x1,x2|x3)", 4),
    ("S1(x1,x4|x2)", 4),
    ("!S0(x1,x3)", 4),
])
def test_compile_separator_atom_with_other_free_ports(text, arity):
    # ports outside the cut other than the two ends may fall on either
    # side of the separation; every labelled graph of up to 5 vertices
    f = parse_formula(text)
    e = compile_formula(f, arity)
    for n in range(arity, 6):
        for g in graphs_on(n, arity):
            assert member(g, e) == language_member(g, f)


@pytest.mark.parametrize("arity", [-1, 1025, 10**8, 2.0, True, "2", None])
def test_compile_bounds_arity(monkeypatch, arity):
    # checked before anything is compiled: 10**8 would otherwise build
    # a list of 10**8 port names
    from sepstar import starfree

    monkeypatch.setattr(starfree, "_compile", lambda f, k: pytest.fail("compiled before the check"))
    with pytest.raises(ExprError, match="arity must be an integer in 0..1024"):
        compile_formula(parse_formula("E(x1,x2)"), arity)


def test_compile_accepts_the_largest_arity():
    e = compile_formula(parse_formula("E(x1,x2)"), 1024)
    assert expr_arity(e) == 1024


def test_compile_separator_degenerate_forms():
    # endpoint inside the cut: always true
    e = compile_formula(parse_formula("S1(x1,x1|x1)"), 1)
    for g in graph_pool(3, 1):
        assert member(g, e)
    # self-separation without membership: always false
    e = compile_formula(parse_formula("S1(x1,x1|x2)"), 2)
    for g in graph_pool(3, 2):
        assert not member(g, e)


def test_compile_quantifiers_small():
    f = parse_formula("exists y. E(x1,y)")
    e = compile_formula(f, 1)
    for g in graph_pool(4, 1):
        assert member(g, e) == language_member(g, f)


def test_compile_connectivity_sentence():
    f = parse_formula("!(exists x. exists y. S0(x,y))")
    e = compile_formula(f, 0)
    for g in graph_pool(4, 0):
        assert member(g, e) == language_member(g, f)


def random_formula(rng, arity, rank, bound=()):
    """A formula with free variables among x1..x{arity} and quantifier
    rank at most ``rank``.  Binders draw from a pool that includes the
    port variables, so some formulas rebind x1 or x2 and some shadow a
    variable bound further out."""
    names = [f"x{i}" for i in range(1, arity + 1)] + list(bound)
    roll = rng.random()
    if rank and (not names or roll < 0.35):
        var = rng.choice(["x1", "x2", "y", "z"])
        body = random_formula(rng, arity, rank - 1, bound + (var,))
        return rng.choice([Exists, Forall])(var, body)
    if roll < 0.45:
        return FNot(random_formula(rng, arity, rank, bound))
    if roll < 0.6:
        node = rng.choice([FAnd, FOr])
        return node(random_formula(rng, arity, rank, bound),
                    random_formula(rng, arity, rank, bound))
    x, y = rng.choice(names), rng.choice(names)
    if roll < 0.75:
        return FEdge(x, y)
    if roll < 0.85:
        return Eq(x, y)
    return Sep(x, y, tuple(rng.choice(names) for _ in range(rng.randrange(3))))


def test_compiler_output_is_pinned():
    # sha256 of the rendered compilations, one per line, recorded when
    # And and Or became n-ary: 33 lines lost the parentheses around a
    # nested operand of the same kind, and parsing each line of the
    # binary compiler gives the same expression; each one is also
    # checked against evaluation on every small graph
    rng = random.Random(4104)
    shapes = [(a, r) for a in range(4) for r in range(4 - a) if a + r]
    lines = []
    for i in range(500):
        arity, rank = shapes[i % len(shapes)]
        f = random_formula(rng, arity, rank)
        e = compile_formula(f, arity)
        for g in graph_pool(4, arity):
            assert member(g, e) == language_member(g, f)
        lines.append(render_expr(e))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "6b8c14f6d841be12ea7244c7a063d6c2b1a725d962ca4613ea058ff5ed6fc70d"


@pytest.mark.parametrize("n", [1000, 10000])
def test_long_chains_parse_evaluate_render_and_round_trip(n):
    # a chain is one node however long, so only nesting makes a tree
    # deep; its last operand decides, so every operand is evaluated
    edge = PortGraph.build(["a", "b"], [("a", "b")], ["a", "b"])
    apart = PortGraph.build(["a", "b"], [], ["a", "b"])
    for joiner, node, filler in ((" | ", FOr, "x1=x2"), (" & ", FAnd, "x1=x1")):
        f = parse_formula(joiner.join([filler] * (n - 1) + ["E(x1,x2)"]))
        assert isinstance(f, node) and len(f.operands) == n
        assert language_member(edge, f) and not language_member(apart, f)
        assert parse_formula(render_formula(f)) == f
        e = compile_formula(f, 2)
        assert len(e.operands) == n
        assert member(edge, e) and not member(apart, e)
    for joiner, node, filler, last in ((" | ", Or, "finite@2{}", "!finite@2{}"),
                                       (" & ", And, "!finite@2{}", "finite@2{}")):
        e = parse_expr(joiner.join([filler] * (n - 1) + [last]))
        assert isinstance(e, node) and len(e.operands) == n
        assert member(edge, e) is (node is Or)
        assert parse_expr(render_expr(e)) == e


def test_a_nest_of_junctions_costs_one_level_per_node():
    # walkers loop over a node's operands, so 250 alternating levels of
    # And and Or are no deeper for them than 250 levels of Not
    edge = PortGraph.build(["a", "b"], [("a", "b")], ["a", "b"])
    f, e = FEdge("x1", "x2"), all_graphs(2)
    for i in range(250):
        if i % 2:
            f, e = FAnd(Eq("x1", "x1"), f), And(e, all_graphs(2))
        else:
            f, e = FOr(Eq("x1", "x2"), f), Or(e, no_graphs(2))
    assert language_member(edge, f) and member(edge, e)
    # `==` on the trees themselves recurses through tuples of fields
    text = render_formula(f)
    assert render_formula(parse_formula(text)) == text
    text = render_expr(e)
    assert render_expr(parse_expr(text)) == text


def test_deep_expression_raises_expr_error():
    with pytest.raises(ExprError, match="nested too deeply"):
        parse_expr("!" * 3000 + "finite@0{}")


def _nested(node, innermost, depth=3000):
    for _ in range(depth):
        innermost = node(innermost)
    return innermost


DEEP_FORMULA = _nested(FNot, Exists("x", Eq("x", "x")))
DEEP_EXPR = _nested(Not, finite(0))
DOT = PortGraph.build(["a"])


@pytest.mark.parametrize("call, error", [
    (lambda: eval_formula(DOT, DEEP_FORMULA), FormulaError),
    (lambda: sentence_holds(DOT, DEEP_FORMULA), FormulaError),
    (lambda: language_member(DOT, DEEP_FORMULA), FormulaError),
    (lambda: compile_formula(DEEP_FORMULA, 0), ExprError),
    (lambda: member(DOT, DEEP_EXPR), ExprError),
    (lambda: render_formula(DEEP_FORMULA), FormulaError),
    (lambda: free_vars(DEEP_FORMULA), FormulaError),
    (lambda: quantifier_rank(DEEP_FORMULA), FormulaError),
    (lambda: render_expr(DEEP_EXPR), ExprError),
    # nodes take their arity from their operands when built, so there
    # is no tree left to walk
    (lambda: expr_arity(DEEP_EXPR), None),
], ids=["eval_formula", "sentence_holds", "language_member", "compile_formula", "member",
        "render_formula", "free_vars", "quantifier_rank", "render_expr", "expr_arity"])
def test_deep_trees_raise_the_library_error(call, error):
    # trees built in code never meet the parser's guard
    if error is None:
        assert call() == 0
        return
    with pytest.raises(error, match="nested too deeply"):
        call()
