"""Seeded inputs and checked tasks for the three workloads.

Each workload function runs in a fresh interpreter.  It imports
sepstar, builds its inputs from the seed, writes the CLI input files
into the work directory, and returns the fixed task list of one pass.
A task is ``(kind, thunk)``.  The thunk computes one verdict through
the library or the CLI and returns True when every check on the answer
holds.  Tasks call library functions through their module
(``L.language_member``) so that a tracer installed after set-up sees
the benchmark's own calls too.

Expected values that are not computed by an independent oracle are
fixed here: alphabet sizes, the recognizer size, the hub certificate
and the README's CLI outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from itertools import combinations

# filled by load_sepstar(); module objects, looked up at call time
G = L = S = C = M = P = CLI = None

ALPHABET_SIZES = {2: 219, 3: 6939}
RECOGNIZER_SIZE = {1: 7, 2: 127}

DISCONNECTED = "exists x. exists y. S0(x,y)"
CYCLE = "exists x. exists y. exists u. (E(y,x) & E(y,u) & !(x = u) & !S1(x,u|y))"
TREE = f"!({DISCONNECTED}) & !({CYCLE})"
CONNECTED = "!(exists x. exists y. S0(x,y))"
ACCEPTANCE = [
    (DISCONNECTED, 0),
    (CYCLE, 0),
    (TREE, 0),
    ("S0(x1,x2)", 2),
    ("E(x1,x2)", 2),
    ("S1(x1,x2|x3)", 3),
]
# (arity, rank) of the seeded formulas, three of each; arity + rank <= 3
# keeps the compiled expressions at arity <= 3, like the acceptance corpus
RANDOM_SHAPES = [(0, 3), (0, 2), (1, 2), (2, 1)] * 3

README_COMPILE = (
    'finite@2{{"edges":[["v0","v1"]],"ports":["v0","v1"],"vertices":["v0","v1"]}}'
    " (+) !finite@2{}"
)
README_BETA = (
    "arity: 2\nleft defined: 1, 2\nright defined: 1, 2\n"
    "persistent: none\nreach: L1-R2 L2-R1\n"
)
README_CERTIFY = (
    "non-star-freeness certificate\noracle: two-disjoint-paths\n"
    "values for powers 1..8: false, true, false, true, false, true, false, true\n"
    "strictly alternating from power 1\n"
)


class ExitMismatch(Exception):
    """The CLI ended with another exit code than the documented one."""


def load_sepstar():
    """Import every sepstar module; part of the timed set-up."""
    global G, L, S, C, M, P, CLI
    import sepstar.cli
    import sepstar.contexts
    import sepstar.graphs
    import sepstar.logic
    import sepstar.monoids
    import sepstar.pathdecomp
    import sepstar.starfree

    G, L, S = sepstar.graphs, sepstar.logic, sepstar.starfree
    C, M, P = sepstar.contexts, sepstar.monoids, sepstar.pathdecomp
    CLI = sepstar.cli


def cli(counts, argv, code, check=None):
    """Run ``sepstar.cli.main(argv)`` in-process.

    An exception escaping ``main`` ends the real command with exit
    code 1, so it counts as an exit-code mismatch like a wrong code.
    """
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            got = CLI.main(argv)
    except Exception as exc:
        counts["cli.exit_mismatches"] += 1
        raise ExitMismatch(f"{argv[0]} raised {type(exc).__name__}") from None
    if got != code:
        counts["cli.exit_mismatches"] += 1
        raise ExitMismatch(f"{argv[0]} exited {got}, expected {code}")
    try:
        return check is None or bool(check(out.getvalue()))
    except (ValueError, KeyError, TypeError):  # output not in the documented shape
        return False


def _write(work, name, data):
    path = os.path.join(work, name)
    with open(path, "w") as fh:
        fh.write(data if isinstance(data, str) else json.dumps(data))
    return path


# ---------------------------------------------------------------------------
# shared input builders


def all_graphs(arity, max_n=5):
    """Every labelled graph on n0..n{n-1}, n <= max_n, first `arity` as ports."""
    out = []
    for n in range(max(arity, 1), max_n + 1):
        names = [f"n{i}" for i in range(n)]
        pairs = list(combinations(names, 2))
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            out.append(G.PortGraph.build(names, edges, names[:arity]))
    return out


def random_graph(rng, n, density):
    """A graph on n vertices with exactly round(density * n(n-1)/2)
    edges, so that the seed moves the edges but not their number."""
    names = [f"v{i}" for i in range(n)]
    pairs = list(combinations(names, 2))
    return G.PortGraph.build(names, rng.sample(pairs, round(density * len(pairs))))


def relabel(rng, g):
    names = sorted(g.vertices)
    image = dict(zip(names, rng.sample(names, len(names))))
    return G.PortGraph.build(
        [image[v] for v in names], [(image[u], image[v]) for u, v in g.edges]
    )


def random_formula(rng, arity, rank):
    """A formula with `rank` nested quantifiers over E, = and S0-S2."""

    def atom(scope):
        a, b = rng.choice(scope), rng.choice(scope)
        kind = rng.choice(("E", "=", "S0", "S1", "S2"))
        if kind == "E":
            return f"E({a},{b})"
        if kind == "=":
            return f"{a} = {b}"
        if kind == "S0":
            return f"S0({a},{b})"
        zs = ",".join(rng.choice(scope) for _ in range(int(kind[1])))
        return f"{kind}({a},{b}|{zs})"

    def maybe_not(text):
        return f"!({text})" if rng.random() < 0.3 else f"({text})"

    def gen(scope, left):
        if left == 0:
            return f"{maybe_not(atom(scope))} {rng.choice('&|')} {maybe_not(atom(scope))}"
        var = f"y{rank - left + 1}"
        body = gen(scope + [var], left - 1)
        if rng.random() < 0.5:
            body = f"({body}) {rng.choice('&|')} {maybe_not(atom(scope + [var]))}"
        return f"{rng.choice(('exists', 'forall'))} {var}. ({body})"

    text = gen([f"x{i}" for i in range(1, arity + 1)], rank)
    return f"!({text})" if rng.random() < 0.3 else text


def two_wire_context(rng, n):
    """Width-2 context: wires a1..c1 and a2..c2 plus pendant vertices.

    Returns the context and the X/Y/P class map that puts each wire's
    inner and pendant vertices in its own class.  The context has two
    bridges and pathwidth 2.
    """
    inner = n - 4
    pendants = rng.randint(0, inner // 2)
    on_wire = inner - pendants
    k1 = rng.randint(0, on_wire)
    wire1 = ["a1"] + [f"x{i}" for i in range(k1)] + ["c1"]
    wire2 = ["a2"] + [f"y{i}" for i in range(on_wire - k1)] + ["c2"]
    edges = list(zip(wire1, wire1[1:])) + list(zip(wire2, wire2[1:]))
    kind = {v: "P" for v in ("a1", "a2", "c1", "c2")}
    kind.update({v: "X" for v in wire1[1:-1]})
    kind.update({v: "Y" for v in wire2[1:-1]})
    # single pendants only: with both wires alive, a pendant path of
    # two vertices would need a bag of four
    for j in range(pendants):
        host = rng.choice(wire1 + wire2)
        edges.append((host, f"q{j}"))
        kind[f"q{j}"] = "X" if host in wire1 else "Y"
    w = C.Context.build(kind, edges, 2, {1: "a1", 2: "a2"}, {1: "c1", 2: "c2"})
    return w, kind


def random_words(rng, size, lengths):
    """Words over g0..g{size-1} of the given lengths; the lengths do
    not depend on the seed."""
    return [[f"g{rng.randrange(size)}" for _ in range(n)] for n in lengths]


def spread_out(groups):
    """Merge lists so that each one is spread evenly over the result,
    keeping the order within each list."""
    keyed = [
        ((i + 0.5) / len(group), j, item)
        for j, group in enumerate(groups)
        for i, item in enumerate(group)
    ]
    return [item for _, _, item in sorted(keyed, key=lambda x: x[:2])]


def interleave(heavy, light):
    """Spread the light tasks evenly among the heavy ones, keeping both
    orders, so that latency samples span the whole pass."""
    out, done = [], 0
    for i, task in enumerate(heavy, 1):
        out.append(task)
        upto = len(light) * i // len(heavy)
        out += light[done:upto]
        done = upto
    return out


# ---------------------------------------------------------------------------
# answer checks shared by several tasks


def check_decomposition(bags, vertices, edges, width, first=frozenset(), last=frozenset()):
    """Bags form a valid decomposition of the stated width."""
    P.validate_decomposition(bags, vertices, edges, first, last)
    return max(len(b) for b in bags) - 1 == width


def check_factors(w, factors):
    """Factors recompose to w and each is a letter or gains persistence."""
    if not C.isomorphic_contexts(C.compose_all(factors), w):
        return False
    base = len(C.persistent_ports(w))
    return all(
        len(f.vertices) <= w.arity + 1 or len(C.persistent_ports(f)) > base
        for f in factors
    )


# ---------------------------------------------------------------------------
# the cross-layer set every workload runs


def fixtures(work):
    """The README and test-suite example files every workload shares."""
    crossing = C.crossing_context()
    hub = C.hub_context()
    wires = C.Context.build(
        ["a", "b", "c", "d", "p", "q", "r", "s"],
        [("a", "p"), ("p", "q"), ("q", "c"), ("b", "r"), ("r", "s"), ("s", "d")],
        2,
        {1: "a", 2: "b"},
        {1: "c", 2: "d"},
    )
    diamond = C.Context.build(
        ["a", "b", "x1", "y1"],
        [("a", "x1"), ("x1", "b"), ("a", "y1"), ("y1", "b")],
        1,
        {1: "a"},
        {1: "b"},
    )
    return {
        "triangle": _write(
            work,
            "triangle.json",
            {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["c", "a"]]},
        ),
        "crossing": _write(work, "crossing.json", C.dump_context(crossing)),
        "hub": _write(work, "hub.json", C.dump_context(hub)),
        "wires": _write(work, "wires.json", C.dump_context(wires)),
        "diamond": _write(work, "diamond.json", C.dump_context(diamond)),
        "diamond_bags": _write(
            work, "diamond_bags.json", {"bags": [["a", "x1", "b"], ["a", "y1", "b"]]}
        ),
        "diamond_split": _write(work, "diamond_split.json", {"x": ["x1"], "y": ["y1"]}),
    }


def diamond_dealternated(out):
    return json.loads(out)["bags"] == [["a", "b", "x1"], ["a", "b", "y1"]]


def cross_layer_tasks(files, counts):
    """One small call into every layer.

    Each workload stresses a few layers and bypasses the others; these
    tasks keep every layer's trace alive at a cost of a few tens of
    milliseconds per pass.
    """
    path3 = G.PortGraph.build(["a", "b", "c"], [("a", "b"), ("b", "c")])
    path3b = G.PortGraph.build(["u", "v", "w"], [("v", "u"), ("w", "v")])
    alternating6 = lambda out: out.endswith("strictly alternating from power 1\n")
    return [
        ("cross", lambda: L.ef_equivalent(path3, path3b, 2) is True),
        ("cross", lambda: cli(counts, ["eval-formula", files["triangle"], CONNECTED], 0,
                              lambda out: out == "true\n")),
        ("cross", lambda: cli(counts, ["eval-expr", files["triangle"], "!finite@0{}"], 0,
                              lambda out: out == "true\n")),
        ("cross", lambda: cli(counts, ["certify", "--oracle", "two-disjoint", "--context",
                                       files["hub"], "--max-power", "6"], 0, alternating6)),
        ("cross", lambda: M.reach_type_recognizer(1).monoid.size == RECOGNIZER_SIZE[1]),
        ("dense", lambda: cli(counts, ["pathwidth", files["triangle"]], 0,
                              lambda out: out == "2\n")),
        ("wire", lambda: cli(counts, ["two-bridge", "--json", files["wires"]], 0,
                             lambda out: all(len(f["vertices"]) <= 3
                                             for f in json.loads(out)["factors"]))),
        ("wire", lambda: cli(counts, ["dealternate", "--json", files["diamond_bags"],
                                      files["diamond"], "--split", files["diamond_split"]],
                             0, diamond_dealternated)),
    ]


# ---------------------------------------------------------------------------
# formulas: logic, starfree and graphs with heavy certificate reuse


def dag_size(e):
    seen = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for name in ("sub", "lhs", "rhs"):
            child = getattr(node, name, None)
            if child is not None:
                stack.append(child)
    return len(seen)


def formulas(seed, work, counts):
    rng = random.Random(f"formulas:{seed}")
    files = fixtures(work)
    # the acceptance formulas meet every graph on <= 5 vertices; the
    # seeded ones only those on <= 4, since their cost on 5 vertices
    # varies tenfold between seeds and would swamp the figures
    corpus = [(text, k, 5) for text, k in ACCEPTANCE]
    corpus += [(random_formula(rng, k, r), k, 4) for k, r in RANDOM_SHAPES]
    pools = {k: all_graphs(k) for k in sorted({k for _, k, _ in corpus})}
    tasks = []
    for text, k, max_n in corpus:
        f = L.parse_formula(text)
        compiled = {}

        def compile_task(f=f, k=k, compiled=compiled):
            e = S.compile_formula(f, k)
            compiled["e"] = e
            counts["starfree.compile.nodes"] += dag_size(e)
            return S.expr_arity(e) == k

        tasks.append(("compile", compile_task))
        for g in pools[k]:
            if len(g.vertices) > max_n:
                continue
            tasks.append(
                ("verdict", lambda g=g, f=f, c=compiled:
                 S.member(g, c["e"]) == L.language_member(g, f))
            )

    sentences = [(L.parse_formula(t), r) for t, r in ((DISCONNECTED, 2), (CYCLE, 3), (TREE, 3))]
    five = [g for g in pools[0] if len(g.vertices) == 5]
    for i in range(24):
        g = rng.choice(five)
        iso = i % 2 == 0
        h = relabel(rng, g) if iso else rng.choice(five)
        rank = 2 + i // 2 % 2

        def ef_task(g=g, h=h, rank=rank, iso=iso):
            same = L.ef_equivalent(g, h, rank)
            if same != L.ef_equivalent(h, g, rank):
                return False
            if iso and not same:
                return False
            # equivalent graphs agree on every sentence of rank <= rank
            return not same or all(
                L.language_member(g, s) == L.language_member(h, s)
                for s, r in sentences
                if r <= rank
            )

        tasks.append(("ef", ef_task))

    ports = {"vertices": ["u", "v"], "ports": ["u", "v"]}
    wire = _write(work, "wire.json", {**ports, "edges": [["u", "v"]]})
    apart = _write(work, "apart.json", {**ports, "edges": []})
    dots = _write(work, "two_dots.json", {"vertices": ["a", "b"], "edges": []})
    expr = _write(work, "edge.expr", README_COMPILE + "\n")
    tasks += [
        ("cli", lambda: cli(counts, ["eval-formula", files["triangle"], CONNECTED], 0,
                            lambda out: out == "true\n")),
        ("cli", lambda: cli(counts, ["eval-formula", dots, CONNECTED], 1,
                            lambda out: out == "false\n")),
        ("cli", lambda: cli(counts, ["compile", "E(x1,x2)", "--arity", "2"], 0,
                            lambda out: out == README_COMPILE + "\n")),
        ("cli", lambda: cli(counts, ["eval-expr", wire, expr], 0, lambda out: out == "true\n")),
        ("cli", lambda: cli(counts, ["eval-expr", apart, expr], 1,
                            lambda out: out == "false\n")),
    ]

    # exit-code probes: malformed input must exit 2 (bad input)
    labels_list = _write(work, "labels_list.json",
                         {"vertices": ["a", "b"], "edges": [["a", "b"]], "labels": ["a"]})
    string_arity = _write(work, "string_arity.json",
                          {"arity": "2", "vertices": ["a", "b"], "edges": [],
                           "left": {"1": "a"}, "right": {"1": "b"}})
    right_list = _write(work, "right_list.json",
                        {"arity": 1, "vertices": ["a", "b"], "edges": [["a", "b"]],
                         "left": {"1": "a"}, "right": ["b"]})
    deep = "!" * 3000 + "(exists x. x = x)"
    tasks += [
        ("probe", lambda: cli(counts, ["eval-formula", labels_list, CONNECTED], 2)),
        ("probe", lambda: cli(counts, ["beta", string_arity], 2)),
        ("probe", lambda: cli(counts, ["beta", right_list], 2)),
        ("probe", lambda: cli(counts, ["eval-formula", files["triangle"], deep], 2)),
    ]
    return tasks + cross_layer_tasks(files, counts)


# ---------------------------------------------------------------------------
# monoids: contexts and monoids, canonical labelling without reuse


def monoids(seed, work, counts):
    rng = random.Random(f"monoids:{seed}")
    files = fixtures(work)
    n2 = ALPHABET_SIZES[2]
    held = {}

    def recognizer_task():
        rec = M.reach_type_recognizer(2)
        held["rec"] = rec
        return rec.monoid.size == RECOGNIZER_SIZE[2]

    def decide_task():
        verdict = M.decide_aperiodic_mod_reachability(held["rec"])
        return verdict.aperiodic and verdict.witness is None

    heavy = [
        ("alphabet", lambda: len(C.enumerate_generators(2)) == n2),
        ("recognizer", recognizer_task),
        ("decide", decide_task),
    ]
    light = []

    def accepts_task(word):
        # the recognizer accepts exactly the words whose context links L1 to R1
        rt = C.beta(C.build_from_word(2, word))
        return M.recognizer_accepts(held["rec"], word) == C.reaches(rt, ("L", 1), ("R", 1))

    recognizer_words = [
        ("recognizer-word", lambda word=word: accepts_task(word))
        for word in random_words(rng, n2, [2 + i % 11 for i in range(50)])
    ]

    def parity_task(odd):
        verdict = M.decide_aperiodic_mod_reachability(M.parity_recognizer(2, odd))
        if verdict.aperiodic:
            return False
        # the witness has an odd count of marked letters and an idempotent
        # type, checked on concrete contexts rather than through beta_compose
        word = list(verdict.witness)
        once = C.beta(C.build_from_word(2, word))
        twice = C.beta(C.build_from_word(2, word + word))
        return sum(g in odd for g in word) % 2 == 1 and once == twice

    for _ in range(6):
        odd = sorted({f"g{rng.randrange(n2)}" for _ in range(rng.randint(1, 3))})
        light.append(("parity", lambda odd=odd: parity_task(odd)))

    def homomorphism_task(u, v):
        cu, cv = C.build_from_word(2, u), C.build_from_word(2, v)
        return C.beta(C.compose(cu, cv)) == C.beta_compose(C.beta(cu), C.beta(cv))

    # Enough light tasks that p50 and p90 fall among them, not among the
    # few long tasks.  The lengths of u run through 2..12 and those of v
    # make up 14 in total, so that these tasks all cost about the same:
    # the percentiles then lie inside one cluster, not on a slope where
    # the letters a seed draws would move them.
    lengths = [2 + i % 11 for i in range(800)]
    us = random_words(rng, n2, lengths)
    vs = random_words(rng, n2, [14 - n for n in lengths])
    for u, v in zip(us, vs):
        light.append(("word", lambda u=u, v=v: homomorphism_task(u, v)))

    def certify_task(power):
        cert = M.certify_non_star_free(C.hub_context(), "two-disjoint-paths", max_power=power)
        expected = tuple(p % 2 == 0 for p in range(1, power + 1))
        return cert is not None and cert.values == expected and cert.threshold == 1

    heavy += [
        ("certify", lambda: certify_task(8)),
        ("certify", lambda: certify_task(9)),
        # reachability alone cannot see the hub's parity
        ("certify", lambda: M.certify_non_star_free(
            C.hub_context(), "reach", x=C.crossing_context(), max_power=8) is None),
    ]

    ids = [f"g{i}" for i in range(n2)]
    parity = _write(work, "parity.json", {
        "monoid": {"table": [[0, 1], [1, 0]], "identity": 0},
        "arity": 2, "gen_map": {g: int(g in ("g0", "g5")) for g in ids}, "accepting": [1],
    })
    trivial = _write(work, "trivial.json", {
        "monoid": {"table": [[0]], "identity": 0},
        "arity": 2, "gen_map": {g: 0 for g in ids}, "accepting": [0],
    })

    def alphabet_json(out):
        data = json.loads(out)
        return [item["id"] for item in data] == [f"g{i}" for i in range(ALPHABET_SIZES[3])]

    heavy += [
        ("cli", lambda: cli(counts, ["beta", files["crossing"]], 0,
                            lambda out: out == README_BETA)),
        ("cli", lambda: cli(counts, ["decide", "--recognizer", parity], 1,
                            lambda out: "witness word: " in out)),
        ("cli", lambda: cli(counts, ["decide", "--recognizer", trivial, "--arity", "2"], 0,
                            lambda out: out.startswith("aperiodic modulo reachability\n"))),
        ("cli", lambda: cli(counts, ["certify", "--oracle", "two-disjoint", "--context",
                                     files["hub"], "--max-power", "8"], 0,
                            lambda out: out == README_CERTIFY)),
        ("cli", lambda: cli(counts, ["generators", "--arity", "2"], 0,
                            lambda out: out.startswith(f"{n2} generators at arity 2\n"))),
        ("cli", lambda: cli(counts, ["generators", "--arity", "3", "--json"], 0, alphabet_json)),
    ]
    # the recognizer-word tasks need the recognizer, built by the second
    # heavy task; at the end of the light list they come well after it
    light += cross_layer_tasks(files, counts) + recognizer_words
    return interleave(heavy, light)


# ---------------------------------------------------------------------------
# decompositions: pathdecomp on dense graphs and on width-2 wires


def decompositions(seed, work, counts):
    rng = random.Random(f"decompositions:{seed}")
    files = fixtures(work)
    # The subset DP doubles with each vertex, so the latencies form one
    # cluster per size.  The counts put the median in the middle of the
    # 10-vertex cluster and p90 in the 12-vertex one, not in a gap
    # between clusters where a few tasks more or less would move it.
    # Each size is spread over the pass and runs densities 0.15 to 0.5.
    sizes = {8: 10, 9: 20, 10: 100, 11: 20, 12: 20, 13: 3, 14: 1, 15: 1, 16: 1}
    schedule = [
        (n, 0.15 + 0.35 * i / max(count - 1, 1) if count > 1 else 0.3)
        for n, count in sizes.items()
        for i in range(count)
    ]
    by_size = {}

    def dense_task(g):
        pw = P.graph_pathwidth(g)
        bags = P.optimal_decomposition(g.vertices, g.edges)
        return check_decomposition(bags, g.vertices, g.edges, pw)

    for n, p in schedule:
        g = random_graph(rng, n, p)
        by_size.setdefault(n, []).append(("dense", lambda g=g: dense_task(g)))
    dense = spread_out(list(by_size.values()))

    decomposed = {}

    def wire_pathwidth_task(w):
        first = frozenset(w.left_map().values())
        last = frozenset(w.right_map().values())
        pw = P.context_pathwidth(w)
        bags = decomposed[w] = P.context_decomposition(w)
        return pw == 2 and check_decomposition(bags, w.vertices, w.edges, 2, first, last)

    def two_bridge_task(w):
        return len(C.bridges(w)) >= 2 and check_factors(w, P.two_bridge_decompose(w))

    def dealternate_task(w, kind):
        first = frozenset(w.left_map().values())
        last = frozenset(w.right_map().values())
        before = P.to_instructions(decomposed[w], first, last)
        after = P.dealternate(before, kind, first)
        if sorted(after) != sorted(before):
            return False
        if P.instruction_width(first, after) > P.instruction_width(first, before):
            return False
        bags = P.from_instructions(first, after)
        P.validate_decomposition(bags, w.vertices, w.edges, first, last)
        return True

    wires = []
    by_size = {}
    # the dealternate task reuses the bags of the pathwidth task before it
    for n in [10, 11, 12, 13, 14] * 2 + [10]:
        w, kind = two_wire_context(rng, n)
        wires.append(w)
        by_size.setdefault(n, []).append([
            ("wire", lambda w=w: wire_pathwidth_task(w)),
            ("wire", lambda w=w: two_bridge_task(w)),
            ("wire", lambda w=w, kind=kind: dealternate_task(w, kind)),
        ])
    rest = [task for triple in spread_out(list(by_size.values())) for task in triple]

    wire_file = _write(work, "wire_context.json", C.dump_context(wires[0]))
    graph_file = _write(work, "dense_graph.json", G.dump_graph(random_graph(rng, 12, 0.3)))

    def same_width(path):
        def check(out):
            g = G.load_graph(path)
            return out == f"{P.graph_pathwidth(g)}\n"
        return check

    rest += [
        ("dense", lambda: cli(counts, ["pathwidth", files["triangle"]], 0,
                              lambda out: out == "2\n")),
        ("dense", lambda: cli(counts, ["pathwidth", graph_file], 0, same_width(graph_file))),
        ("wire", lambda: cli(counts, ["pathwidth", wire_file], 0, lambda out: out == "2\n")),
        ("cli", lambda: cli(counts, ["bridges", "--json", files["crossing"]], 0,
                            lambda out: json.loads(out)["bridges"]
                            == [[["a", "d"]], [["b", "c"]]])),
        ("wire", lambda: cli(counts, ["two-bridge", wire_file, "--width", "2"], 0,
                             lambda out: out.split("\n", 1)[0].endswith(" factors"))),
        ("wire", lambda: cli(counts, ["dealternate", "--json", files["diamond_bags"],
                                      files["diamond"], "--split", files["diamond_split"]], 0,
                             diamond_dealternated)),
    ]
    return interleave(dense, rest + cross_layer_tasks(files, counts))


WORKLOADS = {"formulas": formulas, "monoids": monoids, "decompositions": decompositions}
