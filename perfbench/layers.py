"""Per-layer metrics of the traced run and the hooks that count them.

The layers are sepstar's seven modules.  Counts with unit ``count``
are exact: the same seed gives the same value bit for bit.  Times are
self times (a span minus its child spans) unless the name ends in
``.s``, which is inclusive time.
"""

from __future__ import annotations

# graphs' canonical labelling: PortGraph certificates and the shared
# ordering engine that contexts' certificates also run on
CANONICAL = ("graphs.canonical_cert", "graphs.canonical_order")
PATHWIDTH = (
    "pathdecomp.pathwidth",
    "pathdecomp.optimal_decomposition",
    "pathdecomp.graph_pathwidth",
    "pathdecomp.context_pathwidth",
    "pathdecomp.context_decomposition",
)


def hooks(tracer, contexts):
    """Counters that need more than a call count.

    ``contexts`` is sepstar.contexts before the tracer is installed, so
    its ``context_cert`` is still the cached original.
    """
    cert = contexts.context_cert

    def after(key, measure):
        def hook(fn):
            def inner(*args, **kwargs):
                out = fn(*args, **kwargs)
                tracer.add(key, measure(out))
                return out

            return inner

        return hook

    def alphabet(fn):
        # a cache miss of enumerate_generators is a real enumeration;
        # every candidate it certifies is a new context_cert miss
        def inner(k):
            enumerated = fn.cache_info().misses
            certified = cert.cache_info().misses
            out = fn(k)
            if fn.cache_info().misses > enumerated:
                tracer.add("contexts.alphabet.letters", len(out))
                certified = cert.cache_info().misses - certified
                tracer.add("contexts.alphabet.candidates", certified)
            return out

        return inner

    return {
        "logic._eval": lambda fn: tracer.counter("logic.eval.calls", fn),
        "contexts.enumerate_generators": alphabet,
        "monoids.reach_type_recognizer": after(
            "monoids.recognizer.elements", lambda rec: rec.monoid.size
        ),
        "monoids.decide_aperiodic_mod_reachability": after(
            "monoids.decide.pairs_explored", lambda verdict: verdict.pairs_explored
        ),
        # the subset DP keeps one entry per subset of the free vertices
        "pathdecomp._pathwidth_table": after(
            "pathdecomp.dp_states", lambda table: 1 << len(table[5])
        ),
        "pathdecomp.two_bridge_decompose": after("pathdecomp.two_bridge.factors", len),
    }


def calls(name):
    return lambda t, c: t.calls_of(name)


def count(key):
    return lambda t, c: c.get(key, 0)


def self_time(names, kinds=None):
    return lambda t, c: t.self_s(set(names), kinds)


def layer_self_time(layer):
    return lambda t, c: t.self_s({n for n in t.names if n.startswith(layer + ".")})


def inclusive(name):
    return lambda t, c: t.total_s(name)


def letters_per_candidate(t, c):
    candidates = c.get("contexts.alphabet.candidates", 0)
    return c.get("contexts.alphabet.letters", 0) / max(1, candidates)


def oracle_calls(t, c):
    return t.calls_of("monoids.oracle_inner_reach") + t.calls_of(
        "monoids.oracle_two_disjoint_paths"
    )


# name, unit, better, value from (tracer, exact counts)
METRICS = [
    ("graphs.canonical_cert.calls", "count", "lower", calls("graphs.canonical_cert")),
    ("graphs.canonical_cert.misses", "count", "lower", count("graphs.canonical_cert.misses")),
    ("graphs.canonical_cert.self_s", "s", "lower", self_time(CANONICAL)),
    ("graphs.separator_holds.calls", "count", "lower", calls("graphs.separator_holds")),
    ("graphs.self_s", "s", "lower", layer_self_time("graphs")),
    ("logic.eval.calls", "count", "lower", count("logic.eval.calls")),
    ("logic.ef_equivalent.self_s", "s", "lower", self_time(["logic.ef_equivalent"])),
    ("logic.self_s", "s", "lower", layer_self_time("logic")),
    ("starfree.compile.nodes", "count", "lower", count("starfree.compile.nodes")),
    ("starfree.fusion_splits.yielded", "count", "lower",
     count("starfree.fusion_splits.yielded")),
    ("starfree.member.self_s", "s", "lower", self_time(["starfree.member"])),
    ("contexts.beta_compose.calls", "count", "lower", calls("contexts.beta_compose")),
    ("contexts.beta_compose.self_s", "s", "lower", self_time(["contexts.beta_compose"])),
    ("contexts.compose.calls", "count", "lower", calls("contexts.compose")),
    ("contexts.compose.self_s", "s", "lower", self_time(["contexts.compose"])),
    ("contexts.context_cert.misses", "count", "lower", count("contexts.context_cert.misses")),
    ("contexts.alphabet.letters_per_candidate", "ratio", "higher", letters_per_candidate),
    ("monoids.recognizer.elements", "count", "lower", count("monoids.recognizer.elements")),
    ("monoids.decide.pairs_explored", "count", "lower",
     count("monoids.decide.pairs_explored")),
    ("monoids.oracle.calls", "count", "lower", oracle_calls),
    ("monoids.reach_type_recognizer.s", "s", "lower",
     inclusive("monoids.reach_type_recognizer")),
    ("monoids.certify.s", "s", "lower", inclusive("monoids.certify_non_star_free")),
    ("pathdecomp.dp_states", "count", "lower", count("pathdecomp.dp_states")),
    ("pathdecomp.pathwidth.dense.self_s", "s", "lower", self_time(PATHWIDTH, {"dense"})),
    ("pathdecomp.pathwidth.wire.self_s", "s", "lower", self_time(PATHWIDTH, {"wire"})),
    ("pathdecomp.two_bridge.factors", "count", "lower",
     count("pathdecomp.two_bridge.factors")),
    ("pathdecomp.two_bridge.self_s", "s", "lower",
     self_time(["pathdecomp.two_bridge_decompose"])),
    ("pathdecomp.dealternate.self_s", "s", "lower", self_time(["pathdecomp.dealternate"])),
    ("cli.main.calls", "count", "lower", calls("cli.main")),
    ("cli.main.self_s", "s", "lower", self_time(["cli.main"])),
    ("cli.exit_mismatches", "count", "lower", count("cli.exit_mismatches")),
]
OVERHEAD = ("trace.overhead_ratio", "ratio", "lower")
EXACT = [name for name, unit, _, _ in METRICS if unit == "count"]


def measure(tracer, counts):
    return {name: value(tracer, counts) for name, _, _, value in METRICS}
