"""Pinned membership verdicts of compiled formulas, with bounds on the
`_holds` calls that decide them.

Each recipe runs in a child interpreter under ``PYTHONHASHSEED=0``: the
node memos and `_compile`'s cache outlive a test, so a count taken in
this process would start from whatever earlier tests left warm.
"""

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


def run_recipe(cases):
    src = str(Path(sepstar.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", RECIPE, json.dumps(cases)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


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
