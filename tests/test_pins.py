"""Pinned outputs: membership verdicts of compiled formulas, with bounds
on the `_holds` calls that decide them and on the leaves of the
canonical searches that certify their operands; long composites, their
reachability homomorphism and their linkage types, and the width-4
alphabet, which fix letter order and so the certificate bytes; and the
width-3 type monoid's closure, with bounds on its work and memory.

Each recipe runs in a child interpreter under ``PYTHONHASHSEED=0``: the
node memos and `_compile`'s cache outlive a test, so a count taken in
this process would start from whatever earlier tests left warm.  A
recipe with a memory bound limits the child's own address space.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sepstar

# compiles each (formula, arity, sizes) of argv[1] and checks it on
# every graph of each size with its first `arity` vertices as ports
RECIPE = """
import hashlib
import json
import sys
from itertools import combinations

from sepstar import starfree
from sepstar.graphs import PortGraph
from sepstar.logic import parse_formula

calls = 0
holds = starfree._holds

def counting(*args):
    global calls
    calls += 1
    return holds(*args)

starfree._holds = counting
verdicts = []
for text, k, sizes in json.loads(sys.argv[1]):
    e = starfree.compile_formula(parse_formula(text), k)
    for n in sizes:
        names = [f"v{i}" for i in range(n)]
        pairs = list(combinations(names, 2))
        for bits in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
            g = PortGraph.build(names, edges, names[:k])
            verdicts.append("1" if starfree.member(g, e) else "0")
print(json.dumps({
    "verdicts": len(verdicts),
    "members": verdicts.count("1"),
    "calls": calls,
    "sha256": hashlib.sha256("".join(verdicts).encode()).hexdigest(),
}))
"""


CHILD_ENV = {
    **os.environ,
    "PYTHONHASHSEED": "0",
    "PYTHONPATH": str(Path(sepstar.__file__).resolve().parents[1]),
}


def run_child(*argv, timeout=None) -> str:
    # a shell forks the interpreter: Linux keeps a process's peak RSS
    # across exec, so an interpreter started straight from this process
    # would report this process's peak as its own
    proc = subprocess.run(
        ["/bin/sh", "-c", '"$@"; exit $?', "sh", sys.executable, *argv],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def run_recipe(cases):
    return json.loads(run_child("-c", RECIPE, json.dumps(cases)))


@pytest.mark.parametrize("cases, sha256, bound", [
    # every graph of at most five vertices; the 3^m side enumeration
    # gave the same verdicts with 22,946 calls
    ([("E(x1,x2)", 2, [2, 3, 4, 5]), ("S1(x1,x2|x3)", 3, [3, 4, 5]),
      ("!(exists x. exists y. S0(x,y))", 0, [1, 2, 3, 4, 5])],
     "1b08c0e0c1c94ab22f5c0eba1948153ffd9712317d53e24a0dfa4b98518f8d4b", 17_223),
    # atoms with free ports besides their ends, which may fall on either
    # side; the set-partition translation made 797,989 calls
    ([("S0(x1,x2)", 4, [4, 5]), ("S1(x1,x4|x2)", 4, [4, 5])],
     "ba1745890aea2b18ad819889e2f588f2569f2d5a119547ca9d45ed4f5c5dc3cb", 250_000),
], ids=["small-graphs", "arity-4-separators"])
def test_compiled_membership_is_pinned(cases, sha256, bound):
    out = run_recipe(cases)
    assert out["sha256"] == sha256
    assert out["calls"] <= bound, f"{out['calls']} _holds calls, more than {bound:,}"


# decides E(x1,x2) at arity 2 on the underlying graph of a seeded
# width-2 word, its first two vertex names as the ports, and counts the
# leaves of the canonical searches that certify the operands
WORD_GRAPH_MEMBER = """
import json
import random

from sepstar import graphs
from sepstar.contexts import build_from_word, enumerate_generators
from sepstar.graphs import PortGraph
from sepstar.logic import language_member, parse_formula
from sepstar.starfree import compile_formula, member

ids = enumerate_generators(2).ids
rng = random.Random(4)
word = [rng.choices(ids, k=n) for n in range(11, 16)][-1]
w = build_from_word(2, word)
g = PortGraph.build(w.vertices, w.edges, sorted(w.vertices)[:2])
leaves = 0
triangle = graphs._triangle

def counting(adj, order):
    global leaves
    leaves += 1
    return triangle(adj, order)

graphs._triangle = counting
f = parse_formula("E(x1,x2)")
print(json.dumps({
    "vertices": len(g.vertices),
    "member": member(g, compile_formula(f, 2)),
    "language_member": language_member(g, f),
    "leaves": leaves,
}))
"""


def test_membership_on_a_37_vertex_word_graph_certifies_its_operands_in_few_leaves():
    out = json.loads(run_child("-c", WORD_GRAPH_MEMBER))
    assert out["vertices"] == 37
    assert out["member"] == out["language_member"]
    # 3,764 leaves; the search pruned by twins alone took 21,748, in
    # about 20 s
    assert out["leaves"] <= 4_000, f"{out['leaves']} leaves, more than 4,000"


@pytest.mark.parametrize("arity, word, sha256", [
    (2, [f"g{(i*37+11)%219}" for i in range(60)],
     "673de355fbf2de158ce5145cd0223d60318f78b583179caf77c35c2d26089707"),
    (3, [f"g{(i*511+7)%6939}" for i in range(40)],
     "f1579ac8d509297109d20a986747152bb03cf30910188859d1c215220c08880b"),
], ids=["width-2", "width-3"])
def test_long_build_word_outputs_are_pinned(arity, word, sha256):
    # past 100 vertices
    out = run_child("-m", "sepstar.cli", "build-word", "--arity", str(arity), *word)
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


# folds 2,000 seeded word pairs at widths 2 and 3, checks that beta is a
# homomorphism on each and checks every composite's dump against its
# pinned sha256 digest
WORD_FOLD = """
import hashlib
import random
import sys

from sepstar.contexts import (
    beta, beta_compose, build_from_word, compose, dump_context, enumerate_generators,
)

digest = hashlib.sha256()
pairs = 0
for k in (2, 3):
    ids = enumerate_generators(k).ids
    rng = random.Random(k)
    for _ in range(1000):
        u, v = (build_from_word(k, [rng.choice(ids) for _ in range(rng.randint(1, 30))])
                for _ in range(2))
        uv = compose(u, v)
        if beta(uv) != beta_compose(beta(u), beta(v)):
            sys.exit(f"beta is not a homomorphism on a width-{k} pair")
        for w in (u, v, uv):
            digest.update(dump_context(w).encode())
        pairs += 1
print(f"{pairs} word pairs, sha256 {digest.hexdigest()}")
# recorded when compose_all named every composite as it built it
if digest.hexdigest() != "f35fb5094bcf78800c5804fba02e1bd7c60e2f308b7c223f9adb591adb2a3f78":
    sys.exit("the composites differ from the pinned ones")
"""


# composes the linkage types of 600 seeded word pairs at widths 2 and 3,
# checks that linkage_compose is a homomorphism on each and checks the
# types against their pinned sha256 digest
LINKAGE = """
import hashlib
import random
import sys

from sepstar.contexts import (
    build_from_word, compose, enumerate_generators, linkage_compose, linkage_type,
)

digest = hashlib.sha256()
pairs = 0
for k in (2, 3):
    ids = enumerate_generators(k).ids
    rng = random.Random(k)
    for _ in range(300):
        u, v = (build_from_word(k, [rng.choice(ids) for _ in range(rng.randint(1, 6))])
                for _ in range(2))
        tu, tv = linkage_type(u), linkage_type(v)
        tuv = linkage_compose(tu, tv)
        if tuv != linkage_type(compose(u, v)):
            sys.exit(f"linkage_compose is not a homomorphism on a width-{k} pair")
        for t in (tu, tv, tuv):
            patterns = sorted(sorted(p) for p in t.patterns)
            digest.update((repr((t.arity, t.masks, patterns)) + "\\n").encode())
        pairs += 1
print(f"{pairs} word pairs, sha256 {digest.hexdigest()}")
# recorded when linkage types were computed on vertex names
if digest.hexdigest() != "7b26a560183f0eeff2472050839a1ed1619dd62985129135a1bef807d6aba7ec":
    sys.exit("the linkage types differ from the pinned ones")
"""


@pytest.mark.parametrize("recipe, pairs", [(WORD_FOLD, 2000), (LINKAGE, 600)],
                         ids=["word-fold", "linkage"])
def test_composites_of_seeded_word_pairs_are_pinned(recipe, pairs):
    assert run_child("-c", recipe).startswith(f"{pairs} word pairs, sha256 ")


# the limit of `ulimit -v 400000`, which a child interpreter sets on its
# own address space before it imports the library
LIMIT_AS = """
import resource

_, hard = resource.getrlimit(resource.RLIMIT_AS)
limit = 400_000 * 1024
resource.setrlimit(resource.RLIMIT_AS, (limit if hard == resource.RLIM_INFINITY else min(limit, hard), hard))
"""

# runs the CLI on the arguments of argv
LIMITED_CLI = LIMIT_AS + """
import sys

from sepstar.cli import main

sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("flags, sha256", [
    ((), "c8e888352de42e4cf97358a884d89e939f138be6e23b3a74ee0e21c8e77980a2"),
    (("--json",), "ef357d4586f5dacedc3ffd54df67ec2e2760415db7eb6fcae4a94c4945319107"),
], ids=["text", "json"])
def test_width_4_alphabet_is_pinned_under_a_400_mb_address_space_limit(flags, sha256):
    # the listing is read in chunks as it is written, so that this
    # process never holds all of it; `tail` keeps the end of the text
    # read so far, one byte too short to hold an id line's start, so
    # that a start cut at a chunk's end is counted once
    proc = subprocess.Popen(
        [sys.executable, "-c", LIMITED_CLI, "generators", "--arity", "4", *flags],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=CHILD_ENV,
    )
    mark = b'\n    "id": '
    digest, head, tail, ids = hashlib.sha256(), b"", b"", 0
    for chunk in iter(lambda: proc.stdout.read(1 << 20), b""):
        digest.update(chunk)
        head, text = head or chunk, tail + chunk
        ids += text.count(mark)
        tail = text[1 - len(mark) :]
    _, err = proc.communicate()
    assert proc.returncode == 0, err.decode()
    if flags:
        assert ids == 471_228 and tail.rstrip(b"\n").endswith(b"\n]")
    else:
        assert head.startswith(b"471228 generators at arity 4\n")
    assert digest.hexdigest() == sha256


# closes the width-3 type monoid through its type graph, counting the
# compositions, and checks its graph against its pinned sha256 digest
CLOSURE = LIMIT_AS + """
import hashlib
import json
import resource
import sys
import time

from sepstar import contexts, monoids

# the path the type recognizer runs: products through graph.step
graph = contexts.enumerate_generators(3).types
composed = 0
compose_codes = contexts._reach_compose

def counting(a, b, k):
    global composed
    composed += 1
    return compose_codes(a, b, k)

contexts._reach_compose = counting
start = time.process_time()
position, kept, steps, right = monoids._right_cayley(
    None, graph.letters, lambda a, g: g if a is None else graph.step(a, g)
)
seconds = time.process_time() - start
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
# the digest was recorded on type codes, when every product was
# composed, so type numbers are mapped back to their codes
digest = hashlib.sha256()
elements = [None if t is None else graph.codes[t] for t in sorted(position, key=position.get)]
kept = [graph.codes[t] for t in kept]
digest.update(json.dumps([elements, kept, steps], separators=(",", ":")).encode())
for row in right:
    digest.update(json.dumps(row, separators=(",", ":")).encode() + b"\\n")
print(f"{len(position)} elements, {len(kept)} kept, {composed} compositions, "
      f"{seconds:.1f} s of CPU, {peak_mb:.0f} MB peak RSS, sha256 {digest.hexdigest()}")
pinned = "33a3181cf90c0a3dc0d2ee9db66b9a1f875a5ac1c43532a9d1014f8bfc810cf0"
if (len(position), len(kept)) != (27143, 206) or digest.hexdigest() != pinned:
    sys.exit("the width-3 graph differs from the pinned one")
if composed > 100_000:
    sys.exit(f"{composed} compositions, more than 100,000")
if peak_mb > 150:
    sys.exit(f"{peak_mb:.0f} MB peak RSS, more than 150 MB")
"""


def test_width_3_closure_is_pinned_within_its_work_and_memory_bounds():
    out = run_child("-c", CLOSURE, timeout=300)
    assert out.startswith("27143 elements, 206 kept, ")
