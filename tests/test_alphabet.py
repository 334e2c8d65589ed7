"""The generator alphabet: pinned output, the brute-force oracle, and
the work the orbit-by-orbit generation does."""

import hashlib
import json
import random

import pytest

from sepstar import contexts, graphs
from sepstar.contexts import (
    Context,
    GeneratorAlphabet,
    build_from_word,
    canonical_rename_context,
    compose_all,
    context_cert,
    context_to_json,
    dump_alphabet,
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


def _counting_builds(monkeypatch):
    """The certificates `_context_from_cert` is called on from now on."""
    built = []
    decode = contexts._context_from_cert

    def counting(cert):
        built.append(cert)
        return decode(cert)

    monkeypatch.setattr(contexts, "_context_from_cert", counting)
    return built


def test_letters_are_built_on_demand_and_kept(monkeypatch):
    alphabet = enumerate_generators.__wrapped__(2)
    whole = tuple(contexts._context_from_cert(c) for c in alphabet.certs)
    built = _counting_builds(monkeypatch)
    g = alphabet.by_id("g7")
    assert alphabet.by_id("g7") is g is alphabet.contexts[7]
    assert (g, built) == (whole[7], [alphabet.certs[7]])
    # the letters index, slice and iterate like a tuple of all of them
    letters = alphabet.contexts
    for i in (0, 5, 218, -1, -219):
        assert letters[i] == whole[i]
    for part in (slice(None, 5), slice(-3, None), slice(10, 2, -3), slice(None, None, 50),
                 slice(300, 400)):
        assert letters[part] == whole[part]
    for i in (219, -220):
        with pytest.raises(IndexError):
            letters[i]
    assert (len(letters), tuple(letters)) == (219, whole)
    assert letters[7] is g


def test_build_from_word_builds_only_its_letters(monkeypatch):
    alphabet = enumerate_generators.__wrapped__(2)
    monkeypatch.setattr(contexts, "enumerate_generators", lambda k: alphabet)
    built = _counting_builds(monkeypatch)
    w = build_from_word(2, ["g5", "g40", "g5"])
    assert built == [alphabet.certs[5], alphabet.certs[40]]
    assert w == compose_all([alphabet.contexts[i] for i in (5, 40, 5)])


def test_an_empty_alphabet_dumps_as_json_does():
    assert "".join(dump_alphabet(GeneratorAlphabet(1, ()))) == json.dumps([], indent=2) + "\n"
