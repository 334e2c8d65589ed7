"""Pinned outputs: membership verdicts of compiled formulas, with bounds
on the `_holds` calls that decide them, and long composites, their
reachability homomorphism and their linkage types, which fix letter
order and so the certificate bytes.

Each recipe runs in a child interpreter under ``PYTHONHASHSEED=0``: the
node memos and `_compile`'s cache outlive a test, so a count taken in
this process would start from whatever earlier tests left warm.
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


def run_child(*argv) -> str:
    src = str(Path(sepstar.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": src},
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
