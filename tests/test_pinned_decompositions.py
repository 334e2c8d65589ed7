"""Pinned outputs of the exact pathwidth search and the two-bridge
factorisation.

The digests cover the chosen decompositions, not just their widths, so
any change in how the search breaks ties between optimal orders shows
up here.  Regenerate them only for a deliberate change of output.
"""

import hashlib
import json
import random
from itertools import combinations

from sepstar.contexts import compose_all, context_to_json, enumerate_generators
from sepstar.pathdecomp import (
    DecompositionError,
    context_decomposition,
    optimal_decomposition,
    pathwidth,
    two_bridge_decompose,
)

from helpers import two_bridge_corpus


def digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def bags_json(bags):
    return [sorted(b) for b in bags]


def test_pinned_graph_decompositions():
    rng = random.Random(4101)
    rows = []
    for _ in range(300):
        # shuffled names, so name order and creation order disagree
        verts = rng.sample("abcdefghijklmnopq", rng.randint(1, 12))
        edges = [p for p in combinations(verts, 2) if rng.random() < 0.35]
        first = sorted(v for v in verts if rng.random() < 0.2)
        last = sorted(v for v in verts if rng.random() < 0.2)
        rows.append(
            [
                pathwidth(verts, edges, first, last),
                bags_json(optimal_decomposition(verts, edges, first, last)),
            ]
        )
    assert digest(rows) == (
        "d0ee9f2c2fce0a8048324f2b65f2ccf9904ae42ddf3179acd787309af35d01b4"
    )


def test_pinned_word_decompositions():
    # mostly words with fewer than two bridges, whose error text is
    # pinned too; 16 width-2 and 38 width-3 words factor
    rows = []
    for k, seed, count, maxlen in ((2, 4102, 800, 5), (3, 4103, 300, 3)):
        alphabet = enumerate_generators(k)
        rng = random.Random(seed)
        for _ in range(count):
            word = [rng.choice(alphabet.ids) for _ in range(rng.randint(2, maxlen))]
            w = compose_all([alphabet.by_id(g) for g in word])
            try:
                factors = [context_to_json(f) for f in two_bridge_decompose(w)]
            except DecompositionError as exc:
                factors = str(exc)
            rows.append([word, bags_json(context_decomposition(w)), factors])
    assert digest(rows) == (
        "1ea2de668adf721972535581657802851b02fc3099ecd72f01b2e8cf166be203"
    )


def test_pinned_two_bridge_search_outcomes():
    # random contexts, some of which fail the search itself, so the
    # "no factorisation found" diagnostics are pinned along with the
    # factors and the out-of-scope errors
    rows = []
    for w in two_bridge_corpus():
        try:
            factors = [context_to_json(f) for f in two_bridge_decompose(w)]
        except DecompositionError as exc:
            factors = str(exc)
        rows.append([context_to_json(w), factors])
    failed = sum(
        isinstance(f, str) and f.startswith("no factorisation found") for _, f in rows
    )
    assert failed == 10
    assert digest(rows) == (
        "664f4a452f671448fd795f8e1044ff5f56248eedb5252c333cfd5a8633a5cf96"
    )
