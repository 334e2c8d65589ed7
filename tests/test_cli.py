"""Exit codes, output shapes, and error handling of the command line."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from sepstar.cli import main
from sepstar.contexts import (
    Context,
    build_from_word,
    context_from_json,
    context_to_json,
    crossing_context,
    dump_context,
    enumerate_generators,
    hub_context,
    isomorphic_contexts,
)
from sepstar.graphs import dump_graph, graph_from_json
from sepstar.monoids import dump_recognizer, parity_recognizer, reach_type_recognizer
from sepstar.starfree import Fuse, Or, expr_arity, parse_expr

TRIANGLE = {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["c", "a"]]}
TWO_DOTS = {"vertices": ["a", "b"], "edges": []}
CONNECTED = "!(exists x. exists y. S0(x,y))"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def graph_file(tmp_path, name, data):
    return write(tmp_path, name, json.dumps(data))


def test_eval_formula_exit_codes(tmp_path, capsys):
    tri = graph_file(tmp_path, "tri.json", TRIANGLE)
    dots = graph_file(tmp_path, "dots.json", TWO_DOTS)
    code, out, _ = run(capsys, ["eval-formula", tri, CONNECTED])
    assert code == 0 and out == "true\n"
    code, out, _ = run(capsys, ["eval-formula", dots, CONNECTED])
    assert code == 1 and out == "false\n"


def test_formula_argument_may_be_a_file(tmp_path, capsys):
    tri = graph_file(tmp_path, "tri.json", TRIANGLE)
    phi = write(tmp_path, "phi.txt", CONNECTED + "\n")
    code, out, _ = run(capsys, ["eval-formula", "--json", tri, phi])
    assert code == 0
    assert json.loads(out) == {"value": True}


def test_input_errors_exit_2(tmp_path, capsys):
    tri = graph_file(tmp_path, "tri.json", TRIANGLE)
    code, _, err = run(capsys, ["eval-formula", tri, "exists x."])
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, ["eval-formula", str(tmp_path / "gone.json"), "true"])
    assert code == 2 and "error:" in err
    bad = write(tmp_path, "bad.json", "{ nope")
    code, _, err = run(capsys, ["eval-formula", bad, CONNECTED])
    assert code == 2 and "JSON" in err
    assert main([]) == 2


def test_non_string_names_exit_2(tmp_path, capsys):
    cases = [
        {"vertices": ["a"], "edges": [["a", 1]]},
        {"vertices": ["a", ["b"]]},
        {"vertices": ["a", "b"], "edges": [["a", ["b"]]]},
        {"vertices": ["a", "b"], "ports": [["a"]]},
        {"arity": 1, "vertices": ["a", "b"], "left": {"1": ["a"]}, "right": {}},
    ]
    for data in cases:
        bad = graph_file(tmp_path, "bad.json", data)
        code, _, err = run(capsys, ["pathwidth", bad])
        assert code == 2 and err.startswith("error:"), data


def test_unreadable_json_exits_2(tmp_path, capsys):
    deep = write(tmp_path, "deep.json", "[" * 100000 + "]" * 100000)
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    for path in (deep, str(binary)):
        code, _, err = run(capsys, ["pathwidth", path])
        assert code == 2 and "not valid JSON" in err


def test_labels_must_be_an_object(tmp_path, capsys):
    bad = graph_file(
        tmp_path, "bad.json", {"vertices": ["a", "b"], "edges": [["a", "b"]], "labels": ["a"]}
    )
    code, _, err = run(capsys, ["eval-formula", bad, CONNECTED])
    assert code == 2 and "labels" in err


def test_interfaces_must_be_objects(tmp_path, capsys):
    bad = graph_file(
        tmp_path,
        "bad.json",
        {"arity": 1, "vertices": ["a", "b"], "edges": [["a", "b"]],
         "left": {"1": "a"}, "right": ["b"]},
    )
    code, _, err = run(capsys, ["beta", bad])
    assert code == 2 and "right" in err


def test_arity_must_be_an_integer(tmp_path, capsys):
    for arity in ("2", True):
        bad = graph_file(
            tmp_path,
            "bad.json",
            {"arity": arity, "vertices": ["a", "b"], "edges": [],
             "left": {"1": "a"}, "right": {"1": "b"}},
        )
        code, _, err = run(capsys, ["beta", bad])
        assert code == 2 and "arity" in err


def test_arity_is_bounded(tmp_path, capsys):
    # interfaces are arity-long tuples, so a huge arity is refused
    # before anything is allocated
    for arity in (1025, 10**12):
        bad = graph_file(tmp_path, "bad.json", {"arity": arity, "vertices": ["a"]})
        code, _, err = run(capsys, ["beta", bad])
        assert code == 2 and "arity must lie in 0..1024" in err
    code, _, err = run(capsys, ["generators", "--arity", "5000"])
    assert code == 2 and "arity in 1..4" in err


def test_alphabets_above_width_4_exit_2_at_once(tmp_path, capsys, monkeypatch):
    # width 5 has letters on six vertices, beyond the small canonical
    # forms, so the width is refused before a single key set is listed
    from sepstar import contexts

    def unreachable(*args):
        raise AssertionError("port key sets listed above width 4")

    monkeypatch.setattr(contexts, "_port_key_sets", unreachable, raising=True)
    rec = graph_file(tmp_path, "rec5.json", {
        "monoid": {"table": [[0]], "identity": 0},
        "arity": 5, "gen_map": {}, "accepting": [0],
    })
    for argv in (["generators", "--arity", "5"],
                 ["build-word", "--arity", "5", "g0"],
                 ["decide", "--recognizer", rec]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "") and "arity in 1..4, got 5" in err


GRAPH = {"vertices": ["a", "b"], "edges": [["a", "b"]], "ports": ["a"]}
CONTEXT = {"arity": 1, "vertices": ["a", "b"], "edges": [["a", "b"]],
           "left": {"1": "a"}, "right": {"1": "b"}}


@pytest.mark.parametrize("base, field, value", [
    (GRAPH, "ports", 5),
    (GRAPH, "edges", 7),
    (GRAPH, "vertices", "ab"),
    (CONTEXT, "edges", 7),
    (CONTEXT, "vertices", "ab"),
    # both keys name index 1; the later one must not silently win
    (CONTEXT, "left", {"1": "a", "01": "b"}),
], ids=["graph-ports", "graph-edges", "graph-vertices", "context-edges",
        "context-vertices", "context-left-index-twice"])
def test_graph_fields_must_be_lists(tmp_path, capsys, base, field, value):
    bad = graph_file(tmp_path, "bad.json", {**base, field: value})
    code, _, err = run(capsys, ["pathwidth", bad])
    assert code == 2 and field in err


REPEATED = '{"vertices": ["a", "b"], "edges": [], "vertices": ["a"]}'


@pytest.mark.parametrize("argv, key", [
    (["pathwidth", "{}"], "vertices"),
    (["beta", "{ctx}"], "1"),
    (["eval-expr", "{tri}", f"finite@0{{{REPEATED}}}"], "vertices"),
], ids=["graph-file", "context-file", "expression"])
def test_repeated_json_keys_exit_2(tmp_path, capsys, argv, key):
    paths = {
        "{}": write(tmp_path, "bad.json", REPEATED),
        "{ctx}": write(tmp_path, "ctx.json",
                       '{"arity": 1, "vertices": ["a", "b"], "left": {"1": "a", "1": "b"}}'),
        "{tri}": graph_file(tmp_path, "tri.json", TRIANGLE),
    }
    code, out, err = run(capsys, [paths.get(arg, arg) for arg in argv])
    assert (code, out) == (2, "") and f"key {key!r} is given twice" in err


def test_eval_expr(tmp_path, capsys):
    tri = graph_file(tmp_path, "tri.json", TRIANGLE)
    code, out, _ = run(capsys, ["eval-expr", tri, "!finite@0{}"])
    assert code == 0 and out == "true\n"
    code, out, _ = run(capsys, ["eval-expr", tri, "finite@0{}"])
    assert code == 1 and out == "false\n"
    # arity must match the number of ports on the graph
    code, _, err = run(capsys, ["eval-expr", tri, "!finite@2{}"])
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("command, innermost", [
    ("eval-formula", "(exists x. x = x)"),
    ("eval-expr", "finite@0{}"),
], ids=["eval-formula", "eval-expr"])
def test_deep_nesting_exits_2(tmp_path, capsys, command, innermost):
    tri = graph_file(tmp_path, "tri.json", TRIANGLE)
    code, _, err = run(capsys, [command, tri, "!" * 3000 + innermost])
    assert code == 2 and "nested too deeply" in err


def test_long_chain_compiles_as_one_node(capsys):
    # a chain is one n-ary node, so its length does not make it deep
    chain = " | ".join(["x1=x1"] * 3000)
    code, out, _ = run(capsys, ["compile", chain, "--arity", "1"])
    assert code == 0
    e = parse_expr(out)
    assert isinstance(e, Or) and len(e.operands) == 3000 and expr_arity(e) == 1


@pytest.mark.parametrize("arity", [11, 12])
def test_compile_separator_atom_at_high_arity(capsys, arity):
    # one fuse for each side of each of the arity - 2 other ports
    code, out, _ = run(capsys, ["compile", "S0(x1,x2)", "--arity", str(arity)])
    assert code == 0
    e = parse_expr(out)
    assert isinstance(e, Or) and len(e.operands) == 2 ** (arity - 2)
    assert all(isinstance(alt, Fuse) for alt in e.operands) and expr_arity(e) == arity


@pytest.mark.parametrize("arity", ["-1", "1025", "100000000"])
def test_compile_bounds_arity(capsys, monkeypatch, arity):
    # a compiled expression holds arity-long port lists, so an arity
    # outside 0..1024 is refused before anything is compiled
    from sepstar import starfree

    monkeypatch.setattr(starfree, "_compile", lambda f, k: pytest.fail("compiled before the check"))
    code, out, err = run(capsys, ["compile", "E(x1,x2)", "--arity", arity])
    assert (code, out) == (2, "")
    assert f"arity must be an integer in 0..1024, got {arity}" in err


def test_compile_output_feeds_eval_expr(tmp_path, capsys):
    code, out, _ = run(capsys, ["compile", "E(x1,x2)", "--arity", "2"])
    assert code == 0
    expr = write(tmp_path, "edge.expr", out)
    wire = graph_file(
        tmp_path,
        "wire.json",
        {"vertices": ["u", "v"], "edges": [["u", "v"]], "ports": ["u", "v"]},
    )
    apart = graph_file(
        tmp_path,
        "apart.json",
        {"vertices": ["u", "v"], "edges": [], "ports": ["u", "v"]},
    )
    assert run(capsys, ["eval-expr", wire, expr])[0] == 0
    assert run(capsys, ["eval-expr", apart, expr])[0] == 1


def test_beta_text_and_json(tmp_path, capsys):
    cross = write(tmp_path, "cross.json", dump_context(crossing_context()))
    code, out, _ = run(capsys, ["beta", cross])
    assert code == 0
    assert "reach: L1-R2 L2-R1" in out
    code, out, _ = run(capsys, ["beta", "--json", cross])
    data = json.loads(out)
    assert data["arity"] == 2
    assert data["persistent"] == []
    assert [["L", 1], ["R", 2]] in data["reach"]


def test_bridges_listing(tmp_path, capsys):
    cross = write(tmp_path, "cross.json", dump_context(crossing_context()))
    code, out, _ = run(capsys, ["bridges", "--json", cross])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2
    assert data["bridges"] == [[["a", "d"]], [["b", "c"]]]


def test_pathwidth_on_graph_and_context(tmp_path, capsys):
    tri = graph_file(tmp_path, "tri.json", TRIANGLE)
    code, out, _ = run(capsys, ["pathwidth", tri])
    assert code == 0 and out == "2\n"
    cross = write(tmp_path, "cross.json", dump_context(crossing_context()))
    code, out, _ = run(capsys, ["pathwidth", "--json", cross])
    data = json.loads(out)
    assert data["pathwidth"] == 2
    assert all(len(bag) <= 3 for bag in data["bags"])


def test_pathwidth_reads_contexts_without_interfaces(tmp_path, capsys):
    # contexts are told from graphs by their arity, which only they have
    edge = {"vertices": ["a", "b"], "edges": [["a", "b"]]}
    graph = graph_file(tmp_path, "graph.json", edge)
    context = graph_file(tmp_path, "context.json", {**edge, "arity": 1})
    expected = run(capsys, ["pathwidth", graph])
    assert expected[:2] == (0, "1\n")
    assert run(capsys, ["pathwidth", context]) == expected


def test_pathwidth_beyond_the_exact_limit_is_bad_input(tmp_path, capsys):
    # 17 path vertices and 2 right-only ports: 19 vertices to order
    names = [f"p{i:02}" for i in range(17)] + ["r1", "r2"]
    data = {
        "vertices": names,
        "edges": [list(e) for e in zip(names, names[1:])],
        "arity": 2,
        "right": {"1": "r1", "2": "r2"},
    }
    path = graph_file(tmp_path, "long.json", data)
    code, out, err = run(capsys, ["pathwidth", path])
    assert (code, out) == (2, "")
    assert "at most 18 vertices outside the left interface, got 19" in err


def test_pathwidth_builds_one_table(tmp_path, capsys, monkeypatch):
    from sepstar import pathdecomp

    built = []
    table = pathdecomp._pathwidth_table

    def counting(*args):
        built.append(args)
        return table(*args)

    monkeypatch.setattr(pathdecomp, "_pathwidth_table", counting)
    tri = graph_file(tmp_path, "tri.json", TRIANGLE)
    cross = write(tmp_path, "cross.json", dump_context(crossing_context()))
    for path, expected in ((tri, "2\n"), (cross, "2\n")):
        built.clear()
        code, out, _ = run(capsys, ["pathwidth", path])
        assert (code, out, len(built)) == (0, expected, 1)


def test_generators_listing(capsys):
    code, out, _ = run(capsys, ["generators", "--arity", "1"])
    assert code == 0
    assert out.startswith("14 generators at arity 1\n")
    code, out, _ = run(capsys, ["generators", "--arity", "1", "--json"])
    data = json.loads(out)
    assert [item["id"] for item in data][:3] == ["g0", "g1", "g2"]
    assert len(data) == 14


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_generators_output_is_the_whole_payload_format(arity, capsys, monkeypatch):
    # both formats are read off the certificates of a fresh alphabet,
    # whose letters no earlier caller has built
    from sepstar import cli, contexts

    alphabet = enumerate_generators(arity)
    letters = list(zip(alphabet.ids, alphabet.contexts))
    lines = [f"{len(alphabet)} generators at arity {arity}"]
    lines += [f"{gid}: {len(w.vertices)} vertices, {len(w.edges)} edges" for gid, w in letters]
    payload = [{"id": gid, **context_to_json(w)} for gid, w in letters]

    built = []
    decode = contexts._context_from_cert

    def counting(cert):
        built.append(cert)
        return decode(cert)

    monkeypatch.setattr(contexts, "_context_from_cert", counting)
    monkeypatch.setattr(cli, "enumerate_generators", enumerate_generators.__wrapped__)
    code, out, _ = run(capsys, ["generators", "--arity", str(arity)])
    assert (code, out, built) == (0, "\n".join(lines) + "\n", [])
    code, out, _ = run(capsys, ["generators", "--arity", str(arity), "--json"])
    assert (code, out) == (0, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    assert built == []


def test_build_word_round_trips(tmp_path, capsys):
    code, out, _ = run(capsys, ["build-word", "--arity", "1", "g5", "g5"])
    assert code == 0
    rebuilt = context_from_json(json.loads(out))
    assert isomorphic_contexts(rebuilt, build_from_word(1, ["g5", "g5"]))
    code, _, err = run(capsys, ["build-word", "--arity", "1", "g99"])
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("gid", ["g-1", "g03", "g\u0663"])
def test_build_word_rejects_ids_outside_the_alphabet(capsys, gid):
    # int() would read these as 13 (wrapping), 3 and 3
    code, out, err = run(capsys, ["build-word", "--arity", "1", gid])
    assert code == 2 and out == "" and "unknown generator id" in err


def test_encode_word_emits_marked_path(capsys):
    code, out, _ = run(capsys, ["encode-word", "ab"])
    assert code == 0
    g = graph_from_json(json.loads(out))
    assert sorted(g.label_map.values()) == ["a", "b", "mark"]
    assert len(g.edges) == 2


def test_decide_exit_codes(tmp_path, capsys):
    good = write(tmp_path, "beta1.json", dump_recognizer(reach_type_recognizer(1)))
    code, out, _ = run(capsys, ["decide", "--recognizer", good, "--arity", "1"])
    assert code == 0 and "aperiodic modulo reachability" in out
    bad = write(tmp_path, "par.json", dump_recognizer(parity_recognizer(1, ["g5"])))
    code, out, _ = run(capsys, ["decide", "--recognizer", bad])
    assert code == 1 and "witness word: g5" in out
    code, out, _ = run(capsys, ["decide", "--recognizer", bad, "--json"])
    data = json.loads(out)
    assert data["aperiodic_mod_reachability"] is False
    assert data["witness"] == ["g5"]
    code, _, err = run(capsys, ["decide", "--recognizer", bad, "--arity", "3"])
    assert code == 2 and "arity" in err


# `sepstar decide` output, byte for byte, recorded before types were
# multiplied through the alphabet's type graph
DECIDE_OUTPUTS = [
    ("trivial", [], 0, "aperiodic modulo reachability\npairs explored: 126\n"),
    ("trivial", ["--json"], 0,
     '{\n  "aperiodic_mod_reachability": true,\n  "arity": 2,\n  "element": null,\n'
     '  "pairs_explored": 126,\n  "witness": null\n}\n'),
    ("parity", [], 1,
     "violation found\nwitness word: g0 g181\nmonoid element: 1\npairs explored: 78\n"),
    ("parity", ["--json"], 1,
     '{\n  "aperiodic_mod_reachability": false,\n  "arity": 2,\n  "element": 1,\n'
     '  "pairs_explored": 78,\n  "witness": [\n    "g0",\n    "g181"\n  ]\n}\n'),
]


@pytest.mark.parametrize("name, flags, code, out", DECIDE_OUTPUTS)
def test_decide_output_is_pinned(tmp_path, capsys, name, flags, code, out):
    ids = enumerate_generators(2).ids
    recognizers = {
        "trivial": {"monoid": {"table": [[0]], "identity": 0}, "arity": 2,
                    "gen_map": dict.fromkeys(ids, 0), "accepting": [0]},
        "parity": json.loads(dump_recognizer(parity_recognizer(2, ["g181", "g193"]))),
    }
    rec = graph_file(tmp_path, "rec.json", recognizers[name])
    assert run(capsys, ["decide", "--recognizer", rec, *flags]) == (code, out, "")


PARITY = json.loads(dump_recognizer(parity_recognizer(1, ["g5"])))


@pytest.mark.parametrize("gid", ["hello", "g99"])
def test_decide_rejects_generators_outside_the_alphabet(tmp_path, capsys, gid):
    trivial = {"monoid": {"table": [[0]], "identity": 0}, "arity": 1, "accepting": [0]}
    gen_map = {f"g{i}": 0 for i in range(14)}
    extra = {**trivial, "gen_map": {**gen_map, gid: 0}}
    rec = write(tmp_path, "rec.json", json.dumps(extra))
    code, out, err = run(capsys, ["decide", "--recognizer", rec])
    assert (code, out) == (2, "")
    assert gid in err and "outside the width-1 alphabet" in err
    rec = write(tmp_path, "rec.json", json.dumps({**trivial, "gen_map": gen_map}))
    code, out, _ = run(capsys, ["decide", "--recognizer", rec])
    assert code == 0 and out.startswith("aperiodic modulo reachability")


@pytest.mark.parametrize("field, value", [
    ("arity", "1"),
    ("gen_map", [["g0", 0]]),
    ("accepting", 1),
    ("accepting", ["1"]),
    ("monoid", {**PARITY["monoid"], "table": [["0", "1"], ["1", "0"]]}),
    ("monoid", {**PARITY["monoid"], "table": ["01", "10"]}),
    ("monoid", {**PARITY["monoid"], "identity": "0"}),
    ("monoid", {**PARITY["monoid"], "zero": "1"}),
], ids=["arity", "gen_map", "accepting", "accepting-entry", "table-entries",
        "table-rows", "identity", "zero"])
def test_recognizer_files_reject_bad_types(tmp_path, capsys, field, value):
    bad = write(tmp_path, "bad.json", json.dumps({**PARITY, field: value}))
    code, _, err = run(capsys, ["decide", "--recognizer", bad])
    assert code == 2 and err.startswith("error:")


def test_certify_found_and_not_found(tmp_path, capsys):
    hub = write(tmp_path, "hub.json", dump_context(hub_context()))
    code, out, _ = run(
        capsys,
        ["certify", "--oracle", "two-disjoint", "--context", hub, "--max-power", "6"],
    )
    assert code == 0
    assert "strictly alternating from power 1" in out
    ident = Context.build(["a"], [], 1, {1: "a"}, {1: "a"})
    idf = write(tmp_path, "id.json", dump_context(ident))
    code, out, _ = run(
        capsys,
        ["certify", "--oracle", "reach", "--context", idf, "--max-power", "5"],
    )
    assert code == 1 and "no certificate" in out


def test_certify_reach_needs_port_1(tmp_path, capsys):
    empty = write(tmp_path, "empty.json", dump_context(Context.build(["a"], [], 0, {}, {})))
    code, out, err = run(capsys, ["certify", "--oracle", "reach", "--context", empty])
    assert (code, out) == (2, "")
    assert "needs arity at least 1" in err


@pytest.mark.parametrize(
    "arity, left, right, message",
    [
        (1, {1: "a"}, {1: "a"}, "the disjoint-paths oracle needs arity at least 2"),
        (2, {1: "a", 2: "b"}, {1: "a"}, "ports 1 and 2 must be defined on both sides"),
        (2, {2: "b"}, {1: "a", 2: "b"}, "ports 1 and 2 must be defined on both sides"),
    ],
)
def test_certify_two_disjoint_needs_ports_1_and_2(tmp_path, capsys, arity, left, right, message):
    w = Context.build(["a", "b"], [("a", "b")], arity, left, right)
    path = write(tmp_path, "w.json", dump_context(w))
    code, out, err = run(capsys, ["certify", "--oracle", "two-disjoint", "--context", path])
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("power", ["-3", "0", "4"])
def test_certify_needs_five_powers(tmp_path, capsys, power):
    # a certificate leaves four alternating steps after its threshold,
    # so fewer than five powers can never give one
    hub = write(tmp_path, "hub.json", dump_context(hub_context()))
    code, out, err = run(
        capsys,
        ["certify", "--oracle", "two-disjoint", "--context", hub, "--max-power", power],
    )
    assert (code, out) == (2, "")
    assert "max_power must be at least 5" in err


@pytest.mark.parametrize("power", ["1000001", "1000000000000"])
def test_certify_bounds_max_power(tmp_path, capsys, monkeypatch, power):
    # a certificate holds one value per power, so a huge bound is
    # refused before anything is composed
    from sepstar import monoids

    monkeypatch.setattr(monoids, "beta", lambda w: pytest.fail("composed before the check"))
    hub = write(tmp_path, "hub.json", dump_context(hub_context()))
    code, out, err = run(
        capsys,
        ["certify", "--oracle", "two-disjoint", "--context", hub, "--max-power", power],
    )
    assert (code, out) == (2, "")
    assert f"max_power must be at most 1,000,000, got {power}" in err


def dealternate_fixture(tmp_path):
    w = Context.build(
        ["a", "b", "x1", "y1"],
        [("a", "x1"), ("x1", "b"), ("a", "y1"), ("y1", "b")],
        1,
        {1: "a"},
        {1: "b"},
    )
    ctx = write(tmp_path, "w.json", dump_context(w))
    dec = write(
        tmp_path, "dec.json", json.dumps({"bags": [["a", "x1", "b"], ["a", "y1", "b"]]})
    )
    return ctx, dec


def test_dealternate_reports_blocks(tmp_path, capsys):
    ctx, dec = dealternate_fixture(tmp_path)
    split = write(tmp_path, "split.json", json.dumps({"x": ["x1"], "y": ["y1"]}))
    code, out, _ = run(capsys, ["dealternate", "--json", dec, ctx, "--split", split])
    assert code == 0
    data = json.loads(out)
    assert data["width"] == 2
    assert data["blocks"][0] == {"class": "X", "from": 0, "to": 1}
    assert data["blocks"][-1]["to"] == 6
    assert data["bags"] == [["a", "b", "x1"], ["a", "b", "y1"]]


def test_dealternate_rejects_bad_splits(tmp_path, capsys):
    ctx, dec = dealternate_fixture(tmp_path)
    partial = write(tmp_path, "partial.json", json.dumps({"x": ["x1"], "y": []}))
    code, _, err = run(capsys, ["dealternate", dec, ctx, "--split", partial])
    assert code == 2 and "non-port" in err
    # an edge between the classes makes reordering meaningless
    w = Context.build(
        ["a", "b", "x1", "y1"],
        [("a", "x1"), ("x1", "y1"), ("y1", "b")],
        1,
        {1: "a"},
        {1: "b"},
    )
    ctx2 = write(tmp_path, "w2.json", dump_context(w))
    dec2 = write(tmp_path, "dec2.json", json.dumps({"bags": [["a", "x1", "y1", "b"]]}))
    split = write(tmp_path, "split.json", json.dumps({"x": ["x1"], "y": ["y1"]}))
    code, _, err = run(capsys, ["dealternate", dec2, ctx2, "--split", split])
    assert code == 2 and "crosses the split" in err


def test_dealternate_names_the_least_crossing_edge_under_any_hash_seed(tmp_path):
    # four crossing edges: the message names the least, whatever order
    # the edge set iterates in (on CPython 3.11, these two seeds start
    # that order at p2-q2 and at p4-q4)
    pairs = [(f"p{i}", f"q{i}") for i in range(4, 0, -1)]
    w = Context.build(
        ["a", "b"] + [v for pair in pairs for v in pair],
        [e for x, y in pairs for e in (("a", x), (x, y), (y, "b"))],
        1,
        {1: "a"},
        {1: "b"},
    )
    ctx = write(tmp_path, "w.json", dump_context(w))
    dec = write(tmp_path, "dec.json", json.dumps({"bags": [["a", "b", *p] for p in pairs]}))
    split = write(tmp_path, "split.json", json.dumps(
        {"x": [x for x, _ in pairs], "y": [y for _, y in pairs]}
    ))
    src = str(Path(main.__code__.co_filename).resolve().parents[1])
    errs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "sepstar.cli", "dealternate", dec, ctx, "--split", split],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        errs.append(proc.stderr)
    assert errs[0] == errs[1]
    assert "edge p1-q1 crosses the split" in errs[0]


GOOD_BAGS = {"bags": [["a", "x", "b"], ["a", "y", "b"]]}
GOOD_SPLIT = {"x": ["x"], "y": ["y"]}
# one-letter names, so strings read as character sets would pass
ONE_LETTER = Context.build(
    ["a", "b", "x", "y"],
    [("a", "x"), ("x", "b"), ("a", "y"), ("y", "b")],
    1,
    {1: "a"},
    {1: "b"},
)


@pytest.mark.parametrize("bags, split", [
    ({"bags": [1, 2]}, GOOD_SPLIT),
    ({"bags": ["axb", "ayb"]}, GOOD_SPLIT),
    ({"bags": "axb"}, GOOD_SPLIT),
    (GOOD_BAGS, {"x": 5, "y": ["y"]}),
    (GOOD_BAGS, {"x": "x", "y": "y"}),
], ids=["int-bags", "string-bags", "string-bag-list", "int-class", "string-classes"])
def test_dealternate_rejects_malformed_files(tmp_path, capsys, bags, split):
    ctx = write(tmp_path, "w.json", dump_context(ONE_LETTER))
    dec = graph_file(tmp_path, "dec.json", bags)
    spl = graph_file(tmp_path, "split.json", split)
    code, _, err = run(capsys, ["dealternate", dec, ctx, "--split", spl])
    assert code == 2 and "must be a list" in err
    # the well-formed files go through
    dec = graph_file(tmp_path, "dec.json", GOOD_BAGS)
    spl = graph_file(tmp_path, "split.json", GOOD_SPLIT)
    assert run(capsys, ["dealternate", dec, ctx, "--split", spl])[0] == 0


@pytest.mark.parametrize("bags, split", [
    ({**GOOD_BAGS, "width": 2}, GOOD_SPLIT),
    (GOOD_BAGS, {**GOOD_SPLIT, "z": []}),
], ids=["decomposition", "split"])
def test_dealternate_rejects_unknown_fields(tmp_path, capsys, bags, split):
    ctx = write(tmp_path, "w.json", dump_context(ONE_LETTER))
    dec = graph_file(tmp_path, "dec.json", bags)
    spl = graph_file(tmp_path, "split.json", split)
    code, _, err = run(capsys, ["dealternate", dec, ctx, "--split", spl])
    assert code == 2 and "unknown fields" in err


def test_pathwidth_json_is_a_decomposition_file(tmp_path, capsys):
    ctx, _ = dealternate_fixture(tmp_path)
    code, out, _ = run(capsys, ["pathwidth", "--json", ctx])
    assert code == 0 and set(json.loads(out)) == {"bags", "pathwidth"}
    dec = write(tmp_path, "pathwidth.json", out)
    split = write(tmp_path, "split.json", json.dumps({"x": ["x1"], "y": ["y1"]}))
    code, out, _ = run(capsys, ["dealternate", dec, ctx, "--split", split])
    assert code == 0 and out.startswith("width: 2\n")


def test_names_must_encode(tmp_path, capsys):
    # JSON can spell a lone surrogate, which no output can print
    w = {"arity": 1, "vertices": ["a", "b", "\ud800"],
         "edges": [["a", "\ud800"], ["\ud800", "b"]],
         "left": {"1": "a"}, "right": {"1": "b"}}
    bad = graph_file(tmp_path, "bad.json", w)
    code, out, err = run(capsys, ["bridges", bad])
    assert (code, out) == (2, "") and "not valid Unicode" in err


def test_text_files_must_be_utf8(tmp_path, capsys):
    tri = graph_file(tmp_path, "tri.json", TRIANGLE)
    latin1 = tmp_path / "phi.txt"  # a formula file saved as Latin-1
    latin1.write_bytes("exists x. lab:\xe9(x)".encode("latin-1"))
    code, out, err = run(capsys, ["eval-formula", tri, str(latin1)])
    assert (code, out) == (2, "") and err.startswith("error: ")


def test_internal_errors_exit_3(tmp_path, capsys, monkeypatch):
    from sepstar import cli

    def broken(args):
        raise RuntimeError("table out of step")

    monkeypatch.setattr(cli, "_cmd_beta", broken)
    cross = write(tmp_path, "cross.json", dump_context(crossing_context()))
    code, out, err = run(capsys, ["beta", cross])
    assert (code, out) == (3, "")
    assert err == "internal error: RuntimeError: table out of step\n"


def test_every_subcommand_has_a_handler_and_every_handler_a_subcommand():
    import argparse

    from sepstar import cli

    sub = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    commands = {"_cmd_" + name.replace("-", "_") for name in sub.choices}
    handlers = {name for name, fn in vars(cli).items() if name.startswith("_cmd_") and callable(fn)}
    assert commands == handlers and len(commands) == 13


def test_parser_is_built_once_and_reads_handlers_at_each_call(capsys, monkeypatch):
    from sepstar import cli

    def usage_error():
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    def replaced(args):
        print(f"replaced {args.letters}")
        return 0

    cli._parser.cache_clear()
    # a handler replaced before the parser exists is the one that runs
    monkeypatch.setattr(cli, "_cmd_encode_word", replaced)
    assert run(capsys, ["encode-word", "ab"]) == (0, "replaced ab\n", "")
    monkeypatch.undo()
    fresh_help, fresh_error = run(capsys, []), usage_error()
    # and so is one replaced after
    monkeypatch.setattr(cli, "_cmd_encode_word", replaced)
    assert run(capsys, ["encode-word", "ba"]) == (0, "replaced ba\n", "")
    monkeypatch.undo()
    assert (run(capsys, []), usage_error()) == (fresh_help, fresh_error)
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 5)

    code, out, err = fresh_help
    assert code == 2 and err == "" and out.startswith("usage: sepstar [-h] command ...")
    code, out, err = fresh_error
    assert code == 2 and out == "" and err.startswith("usage: sepstar [-h] command ...")
    assert "invalid choice: 'no-such-command'" in err


def parallel_wires_file(tmp_path):
    w = Context.build(
        ["a", "b", "c", "d", "p", "q", "r", "s"],
        [("a", "p"), ("p", "q"), ("q", "c"), ("b", "r"), ("r", "s"), ("s", "d")],
        2,
        {1: "a", 2: "b"},
        {1: "c", 2: "d"},
    )
    return write(tmp_path, "wires.json", dump_context(w))


def test_two_bridge_success(tmp_path, capsys):
    wires = parallel_wires_file(tmp_path)
    code, out, _ = run(capsys, ["two-bridge", wires, "--width", "2"])
    assert code == 0
    assert out.splitlines()[0].endswith("factors")
    code, out, _ = run(capsys, ["two-bridge", "--json", wires])
    data = json.loads(out)
    assert all(len(f["vertices"]) <= 3 for f in data["factors"])


def test_two_bridge_negative_and_errors(tmp_path, capsys):
    cross = write(tmp_path, "cross.json", dump_context(crossing_context()))
    # pathwidth equals the arity, so the search runs, but no width-2
    # word builds the crossing
    code, out, _ = run(capsys, ["two-bridge", cross])
    assert code == 1 and "no factorisation" in out
    wires = parallel_wires_file(tmp_path)
    code, _, err = run(capsys, ["two-bridge", wires, "--width", "3"])
    assert code == 2 and "arity 2" in err
    hub = write(tmp_path, "hub.json", dump_context(hub_context()))
    code, _, err = run(capsys, ["two-bridge", hub])
    assert code == 2 and "pathwidth" in err
    wire = Context.build(["a", "b"], [("a", "b")], 1, {1: "a"}, {1: "b"})
    wiref = write(tmp_path, "wire.json", dump_context(wire))
    code, _, err = run(capsys, ["two-bridge", wiref])
    assert code == 2 and "bridges" in err


def test_two_bridge_builds_one_table_per_direction(tmp_path, capsys, monkeypatch):
    from sepstar import pathdecomp

    built = []
    table = pathdecomp._pathwidth_table

    def counting(*args):
        built.append(1)
        return table(*args)

    monkeypatch.setattr(pathdecomp, "_pathwidth_table", counting)
    wires = parallel_wires_file(tmp_path)
    code, out, _ = run(capsys, ["two-bridge", wires])
    assert code == 0 and out.splitlines()[0].endswith("factors")
    assert len(built) == 2


def test_two_bridge_beyond_the_exact_search_exits_2(tmp_path, capsys):
    # two ten-edge wires: 18 inner vertices plus two right ports are
    # free in the first direction, over the exact search's limit
    top = ["a"] + [f"t{i}" for i in range(9)] + ["c"]
    bottom = ["b"] + [f"u{i}" for i in range(9)] + ["d"]
    edges = list(zip(top, top[1:])) + list(zip(bottom, bottom[1:]))
    w = Context.build(top + bottom, edges, 2, {1: "a", 2: "b"}, {1: "c", 2: "d"})
    path = write(tmp_path, "long.json", dump_context(w))
    code, out, err = run(capsys, ["two-bridge", path])
    assert (code, out) == (2, "")
    assert "exact search" in err


def test_json_output_is_deterministic(tmp_path, capsys):
    cross = write(tmp_path, "cross.json", dump_context(crossing_context()))
    first = run(capsys, ["beta", "--json", cross])
    second = run(capsys, ["beta", "--json", cross])
    assert first == second


def test_module_entry_point(tmp_path):
    tri = graph_file(tmp_path, "tri.json", TRIANGLE)
    proc = subprocess.run(
        [sys.executable, "-m", "sepstar.cli", "eval-formula", tri, CONNECTED],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "true\n"


HELP_COMMANDS = ["eval-formula", "eval-expr", "compile", "beta", "bridges", "pathwidth",
                 "generators", "build-word", "decide", "certify", "dealternate", "two-bridge",
                 "encode-word"]


def test_every_subcommand_helps_and_the_bare_command_exits_2_in_fresh_interpreters():
    # each in its own interpreter, as a user starts it; the bare command
    # prints the usage and exits 2
    import argparse

    from sepstar import cli

    sub = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(HELP_COMMANDS) == sorted(sub.choices)
    src = str(Path(main.__code__.co_filename).resolve().parents[1])
    for argv in [[cmd, "--help"] for cmd in HELP_COMMANDS] + [[]]:
        proc = subprocess.run(
            [sys.executable, "-m", "sepstar.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == (0 if argv else 2), (argv, proc.stderr)
        assert proc.stdout.startswith("usage: sepstar"), argv


def readme_transcript():
    """The ``$ sepstar ...`` lines of the README's shell block, each
    with the output printed under it."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = next(b for b in re.findall(r"```sh\n(.*?)```", text, re.S) if "$ sepstar" in b)
    runs = []
    for line in block.splitlines(keepends=True):
        if line.startswith("$ "):
            runs.append((shlex.split(line[2:]), []))
        else:
            runs[-1][1].append(line)
    return [(argv, "".join(out)) for argv, out in runs]


def test_readme_transcript(tmp_path, capsys, monkeypatch):
    graph_file(tmp_path, "triangle.json", TRIANGLE)
    write(tmp_path, "crossing.json", dump_context(crossing_context()))
    write(tmp_path, "hub.json", dump_context(hub_context()))
    monkeypatch.chdir(tmp_path)
    transcript = readme_transcript()
    assert len(transcript) == 5
    for argv, expected in transcript:
        assert argv[0] == "sepstar"
        assert run(capsys, argv[1:]) == (0, expected, ""), argv
