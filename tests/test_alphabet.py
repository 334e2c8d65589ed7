"""The generator alphabet: pinned output, the brute-force oracle, and
the work the orbit-by-orbit generation does."""

import hashlib
import json
import random

import pytest

from sepstar import contexts, graphs
from sepstar.contexts import (
    Context,
    canonical_rename_context,
    context_cert,
    context_to_json,
    enumerate_generators,
)

from helpers import brute_generators, random_context, reference_canonical_names

# sha256 of the JSON list of letters, recorded from the brute-force
# enumeration before the orbit-by-orbit one replaced it
ALPHABET_DIGESTS = {
    1: (14, "5509cd37da5284492fe8b6bff36ca728e18f48ddbbc7c161b57bf751bb888f55"),
    2: (219, "353468dcef8462a6e1eca5a37dbd90e9f352db4742e441edf5ff33d679a83684"),
    3: (6939, "f3ab278bd0099bfc748c2bb2226d745aee965d76c7a5d75c9e9d00122fca2196"),
}


def _digest(alphabet):
    text = json.dumps([context_to_json(w) for w in alphabet.contexts])
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("k", sorted(ALPHABET_DIGESTS))
def test_alphabet_is_pinned(k):
    alphabet = enumerate_generators(k)
    assert (len(alphabet), _digest(alphabet)) == ALPHABET_DIGESTS[k]


@pytest.mark.parametrize("k", [1, 2])
def test_alphabet_matches_brute_force(k):
    fresh = enumerate_generators.__wrapped__(k)
    assert fresh == brute_generators(k)


def test_canonical_rename_reads_the_certificate():
    # the rename decoded from the certificate equals renaming the
    # vertices directly in the canonical order, up to 7 vertices
    rng = random.Random(5)
    for _ in range(200):
        w = random_context(rng, 3, 7)
        ren = reference_canonical_names(w, contexts._ctx_color_keys(w))
        expected = Context.build(
            ren.values(),
            [(ren[x], ren[y]) for x, y in w.edges],
            w.arity,
            {i: ren[v] for i, v in w.left_map().items()},
            {i: ren[v] for i, v in w.right_map().items()},
        )
        assert canonical_rename_context(w) == expected
        assert context_cert(expected) == context_cert(w)


def test_width_three_makes_one_canonical_search_per_letter(monkeypatch):
    calls = []
    search = graphs._search_canonical

    def counting(*args):
        calls.append(1)
        return search(*args)

    monkeypatch.setattr(graphs, "_search_canonical", counting)
    contexts.context_cert.cache_clear()
    letters = len(enumerate_generators.__wrapped__(3))
    assert letters == 6939
    assert len(calls) == letters
