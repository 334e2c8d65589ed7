"""Command-line front end over the documented JSON file formats.

Exit codes separate the ways a run can end: 0 for a computed
affirmative (or purely informational) result, 1 for a computed negative
verdict (formula false, non-membership, violation found, no
certificate, no factorisation), 2 for input errors, input nested too
deeply included, and 3 for an internal error, a bug in sepstar rather
than an answer, reported as ``internal error: <type>: <message>``.
Formula and expression arguments may be given as a file path or as
literal text.  All output is deterministic; ``--json`` switches every
subcommand to a machine-readable form.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .contexts import (
    ContextError,
    beta,
    bridges,
    build_from_word,
    context_from_json,
    context_to_json,
    dump_alphabet,
    dump_context,
    enumerate_generators,
    load_context,
    persistent_ports,
)
from .graphs import (
    BAGS_SHAPE,
    SPLIT_SHAPE,
    GraphError,
    _conform,
    _read_json,
    dump_graph,
    encode_word,
    graph_from_json,
    load_graph,
)
from .logic import FormulaError, language_member, parse_formula
from .monoids import MonoidError, certify_non_star_free, load_recognizer
from .monoids import decide_aperiodic_mod_reachability as _decide
from .pathdecomp import (
    DecompositionError,
    OutOfScopeError,
    blocks_of,
    context_decomposition,
    dealternate,
    from_instructions,
    instruction_width,
    normalize,
    optimal_decomposition,
    to_instructions,
    two_bridge_decompose,
    validate_decomposition,
    width,
)
from .starfree import ExprError, compile_formula, member, parse_expr, render_expr

__all__ = ["main"]

_INPUT_ERRORS = (
    GraphError,
    FormulaError,
    ExprError,
    ContextError,
    MonoidError,
    DecompositionError,
    OSError,
    UnicodeDecodeError,  # a formula or expression file that is not UTF-8
)


def _source(arg: str) -> str:
    """Accept a path to a text file or the text itself."""
    if os.path.isfile(arg):
        with open(arg) as fh:
            return fh.read()
    return arg


def _emit(args, lines, payload) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _bool_exit(value: bool) -> int:
    return 0 if value else 1


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_eval_formula(args) -> int:
    g = load_graph(args.graph)
    f = parse_formula(_source(args.formula))
    value = language_member(g, f)
    _emit(args, ["true" if value else "false"], {"value": value})
    return _bool_exit(value)


def _cmd_eval_expr(args) -> int:
    g = load_graph(args.graph)
    e = parse_expr(_source(args.expr))
    value = member(g, e)
    _emit(args, ["true" if value else "false"], {"value": value})
    return _bool_exit(value)


def _cmd_compile(args) -> int:
    f = parse_formula(_source(args.formula))
    e = compile_formula(f, args.arity)
    text = render_expr(e)
    _emit(args, [text], {"arity": args.arity, "expression": text})
    return 0


def _ref(r) -> str:
    side, i = r
    return f"{side}{i}"


def _cmd_beta(args) -> int:
    rt = beta(load_context(args.context))
    pairs = sorted(p for p in rt.reach if p[0] != p[1])
    lines = [
        f"arity: {rt.arity}",
        "left defined: " + (", ".join(map(str, sorted(rt.left_defined))) or "none"),
        "right defined: " + (", ".join(map(str, sorted(rt.right_defined))) or "none"),
        "persistent: " + (", ".join(map(str, sorted(rt.persistent))) or "none"),
        "reach: " + (" ".join(f"{_ref(p)}-{_ref(q)}" for p, q in pairs) or "none"),
    ]
    payload = {
        "arity": rt.arity,
        "left_defined": sorted(rt.left_defined),
        "right_defined": sorted(rt.right_defined),
        "persistent": sorted(rt.persistent),
        "reach": [[list(p), list(q)] for p, q in pairs],
    }
    _emit(args, lines, payload)
    return 0


def _cmd_bridges(args) -> int:
    brs = bridges(load_context(args.context))
    edge_lists = [sorted(sorted(e) for e in br) for br in brs]
    edge_lists.sort()
    lines = [f"bridges: {len(brs)}"]
    for i, edges in enumerate(edge_lists):
        body = ", ".join(f"{u}-{v}" for u, v in edges)
        lines.append(f"  bridge {i}: {body}")
    _emit(args, lines, {"count": len(brs), "bridges": edge_lists})
    return 0


def _cmd_pathwidth(args) -> int:
    data = _read_json(args.input, GraphError)
    # contexts require an arity and graphs have none
    if isinstance(data, dict) and "arity" in data:
        bags = context_decomposition(context_from_json(data))
    else:
        g = graph_from_json(data)
        bags = optimal_decomposition(g.vertices, g.edges)
    # the decomposition is checked against the search's width
    value = width(bags)
    payload = {"pathwidth": value, "bags": [sorted(b) for b in bags]}
    _emit(args, [str(value)], payload)
    return 0


def _cmd_generators(args) -> int:
    alphabet = enumerate_generators(args.arity)
    if args.json:
        sys.stdout.writelines(dump_alphabet(alphabet))
        return 0
    print(f"{len(alphabet)} generators at arity {args.arity}")
    for gid, (n, m) in zip(alphabet.ids, alphabet.sizes()):
        print(f"{gid}: {n} vertices, {m} edges")
    return 0


def _cmd_build_word(args) -> int:
    w = build_from_word(args.arity, args.ids)
    sys.stdout.write(dump_context(w))
    return 0


def _cmd_decide(args) -> int:
    rec = load_recognizer(args.recognizer)
    if args.arity is not None and args.arity != rec.arity:
        raise MonoidError(
            f"recognizer has arity {rec.arity}, but --arity {args.arity} was given"
        )
    verdict = _decide(rec)
    payload = {
        "aperiodic_mod_reachability": verdict.aperiodic,
        "arity": verdict.arity,
        "pairs_explored": verdict.pairs_explored,
        "witness": list(verdict.witness) if verdict.witness else None,
        "element": verdict.element,
    }
    if verdict.aperiodic:
        lines = [
            "aperiodic modulo reachability",
            f"pairs explored: {verdict.pairs_explored}",
        ]
    else:
        lines = [
            "violation found",
            f"witness word: {' '.join(verdict.witness)}",
            f"monoid element: {verdict.element}",
            f"pairs explored: {verdict.pairs_explored}",
        ]
    _emit(args, lines, payload)
    return _bool_exit(verdict.aperiodic)


_ORACLE_NAMES = {
    "reach": "reach",
    "two-disjoint": "two-disjoint-paths",
    "two-disjoint-paths": "two-disjoint-paths",
}


def _cmd_certify(args) -> int:
    w = load_context(args.context)
    x = load_context(args.left) if args.left else None
    y = load_context(args.right) if args.right else None
    oracle = _ORACLE_NAMES[args.oracle]
    cert = certify_non_star_free(w, oracle, x, y, args.max_power)
    if cert is None:
        _emit(
            args,
            [f"no certificate within {args.max_power} powers"],
            {"certificate": None, "oracle": oracle, "max_power": args.max_power},
        )
        return 1
    values = ", ".join("true" if v else "false" for v in cert.values)
    lines = [
        "non-star-freeness certificate",
        f"oracle: {cert.oracle}",
        f"values for powers 1..{cert.powers}: {values}",
        f"strictly alternating from power {cert.threshold}",
    ]
    payload = {
        "certificate": {
            "oracle": cert.oracle,
            "powers": cert.powers,
            "values": list(cert.values),
            "threshold": cert.threshold,
        }
    }
    _emit(args, lines, payload)
    return 0


def _cmd_dealternate(args) -> int:
    w = load_context(args.context)
    left = frozenset(w.left_map().values())
    right = frozenset(w.right_map().values())
    data = _read_json(args.decomposition, DecompositionError)
    _conform(data, BAGS_SHAPE, DecompositionError, "decomposition")
    bags = [frozenset(b) for b in data["bags"]]
    validate_decomposition(bags, w.vertices, w.edges, left, right)
    split = _read_json(args.split, DecompositionError)
    _conform(split, SPLIT_SHAPE, DecompositionError, "split")
    xs = set(split.get("x", ()))
    ys = set(split.get("y", ()))
    nonports = set(w.vertices) - w.port_vertices()
    if xs & ys:
        raise DecompositionError(f"split classes overlap: {sorted(xs & ys)}")
    if xs | ys != nonports:
        raise DecompositionError(
            "split must cover exactly the non-port vertices; "
            f"difference: {sorted((xs | ys) ^ nonports)}"
        )
    for u, v in sorted(w.edges):
        if (u in xs and v in ys) or (u in ys and v in xs):
            raise DecompositionError(f"edge {u}-{v} crosses the split")
    kind = {v: "X" if v in xs else "Y" if v in ys else "P" for v in w.vertices}
    ins = to_instructions(normalize(bags), left, right)
    out = dealternate(ins, kind, left)
    ranges = []
    pos = 0
    for cls, size in blocks_of(out, kind):
        ranges.append({"class": cls, "from": pos, "to": pos + size})
        pos += size
    payload = {
        "width": instruction_width(left, out),
        "bags": [sorted(b) for b in from_instructions(left, out)],
        "blocks": ranges,
    }
    lines = [f"width: {payload['width']}"]
    lines += [
        f"block {i}: {r['class']} instructions {r['from']}..{r['to']}"
        for i, r in enumerate(ranges)
    ]
    lines += ["bags: " + " | ".join(",".join(b) for b in payload["bags"])]
    _emit(args, lines, payload)
    return 0


def _cmd_two_bridge(args) -> int:
    w = load_context(args.context)
    if args.width is not None and args.width != w.arity:
        raise ContextError(
            f"context has arity {w.arity}; factorisation works inside the "
            f"width-{w.arity} algebra, not width {args.width}"
        )
    try:
        factors = two_bridge_decompose(w)
    except OutOfScopeError:
        raise  # an input error (exit 2), not a search that failed
    except DecompositionError as exc:
        _emit(args, [f"no factorisation: {exc}"], {"factors": None, "error": str(exc)})
        return 1
    lines = [f"{len(factors)} factors"]
    for i, f in enumerate(factors):
        pp = sorted(persistent_ports(f))
        lines.append(
            f"factor {i}: {len(f.vertices)} vertices, {len(f.edges)} edges, "
            f"persistent {pp or 'none'}"
        )
    _emit(args, lines, {"factors": [context_to_json(f) for f in factors]})
    return 0


def _cmd_encode_word(args) -> int:
    sys.stdout.write(dump_graph(encode_word(args.letters)))
    return 0


# ---------------------------------------------------------------------------
# parser wiring


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first `main` call and kept for
    the process.  It holds no handlers: `main` looks each up by command
    name when it runs."""
    parser = argparse.ArgumentParser(
        prog="sepstar",
        description="separator logic, star-free expressions, and the "
        "pathwidth context algebra",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("eval-formula", "evaluate a formula on a graph")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("formula", help="formula file or literal text")

    p = add("eval-expr", "test expression membership of a graph")
    p.add_argument("graph", help="graph JSON file")
    p.add_argument("expr", help="expression file or literal text")

    p = add("compile", "compile a formula to an expression")
    p.add_argument("formula", help="formula file or literal text")
    p.add_argument("--arity", type=int, required=True)

    p = add("beta", "reachability type of a context")
    p.add_argument("context", help="context JSON file")

    p = add("bridges", "bridges of a context")
    p.add_argument("context", help="context JSON file")

    p = add("pathwidth", "exact pathwidth of a graph or context")
    p.add_argument("input", help="graph or context JSON file")

    p = add("generators", "list the generator alphabet")
    p.add_argument("--arity", type=int, required=True)

    p = add("build-word", "compose generators by id")
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("ids", nargs="+", help="generator ids, e.g. g0 g3")

    p = add("decide", "decide aperiodicity modulo reachability")
    p.add_argument("--recognizer", required=True, help="recognizer JSON file")
    p.add_argument("--arity", type=int, help="cross-check the recognizer arity")

    p = add("certify", "search for a non-star-freeness certificate")
    p.add_argument("--oracle", required=True, choices=sorted(_ORACLE_NAMES))
    p.add_argument("--context", required=True, help="the pumped context w")
    p.add_argument("--left", help="context composed on the left of the powers")
    p.add_argument("--right", help="context composed on the right of the powers")
    p.add_argument("--max-power", type=int, default=8)

    p = add("dealternate", "reorder a decomposition's classes")
    p.add_argument("decomposition", help="JSON file with a 'bags' list")
    p.add_argument("context", help="context JSON file")
    p.add_argument("--split", required=True, help="JSON file with 'x' and 'y' lists")

    p = add("two-bridge", "factor a context with two bridges")
    p.add_argument("context", help="context JSON file")
    p.add_argument("--width", type=int, help="cross-check the algebra width")

    p = add("encode-word", "encode a word as a labelled path")
    p.add_argument("letters", help="the word, e.g. abba")

    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    # looked up at each call, so that a replaced `_cmd_*` function is
    # the one that runs
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # never 1, which would read as a computed negative verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
