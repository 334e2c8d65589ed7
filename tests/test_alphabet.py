"""The generator alphabet: pinned output, the brute-force and orbit-walk
references, and the work that writing letters from their canonical
forms does."""

import hashlib
import json
import random
from collections import Counter

import pytest

from sepstar import cli, contexts, graphs
from sepstar.cli import main
from sepstar.contexts import (
    Context,
    ContextError,
    GeneratorAlphabet,
    beta,
    build_from_word,
    canonical_rename_context,
    compose_all,
    context_cert,
    context_to_json,
    crossing_context,
    dump_alphabet,
    enumerate_generators,
)
from sepstar.pathdecomp import context_pathwidth

from helpers import (
    brute_generators,
    random_context,
    reference_canonical_names,
    reference_generators,
)

# sha256 of the JSON list of letters, recorded from the brute-force
# enumeration before the orbit-by-orbit one replaced it
ALPHABET_DIGESTS = {
    1: (14, "5509cd37da5284492fe8b6bff36ca728e18f48ddbbc7c161b57bf751bb888f55"),
    2: (219, "353468dcef8462a6e1eca5a37dbd90e9f352db4742e441edf5ff33d679a83684"),
    3: (6939, "f3ab278bd0099bfc748c2bb2226d745aee965d76c7a5d75c9e9d00122fca2196"),
}
# sha256 of `sepstar generators --arity 4`, as the CI job pins it
WIDTH_FOUR_DIGEST = "c8e888352de42e4cf97358a884d89e939f138be6e23b3a74ee0e21c8e77980a2"


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


def test_width_four_listing_is_pinned(capsys, monkeypatch):
    # a fresh alphabet, so that its 471,228 certificates are freed after
    monkeypatch.setattr(cli, "enumerate_generators", enumerate_generators.__wrapped__)
    assert main(["generators", "--arity", "4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("471228 generators at arity 4\n")
    assert out.count("\n") == 1 + 471228
    assert hashlib.sha256(out.encode()).hexdigest() == WIDTH_FOUR_DIGEST


def test_canonical_rename_reads_the_certificate():
    # the rename decoded from the certificate equals renaming the
    # vertices directly in the canonical order, up to 7 vertices
    rng = random.Random(5)
    for _ in range(200):
        w = random_context(rng, 3, 7)
        ren = reference_canonical_names(w, contexts._port_keys(w.vertices, w.left, w.right))
        expected = Context.build(
            ren.values(),
            [(ren[x], ren[y]) for x, y in w.edges],
            w.arity,
            {i: ren[v] for i, v in w.left_map().items()},
            {i: ren[v] for i, v in w.right_map().items()},
        )
        assert canonical_rename_context(w) == expected
        assert context_cert(expected) == context_cert(w)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_alphabet_matches_the_orbit_walk(k):
    assert enumerate_generators.__wrapped__(k).certs == reference_generators(k).certs


def test_width_three_writes_canonical_triangles_once_per_class_sizes(monkeypatch):
    # no letter is searched for its canonical form; the triangles on n
    # vertices with m >= 2 inner ones are each tested once by the small
    # minimum, and with m <= 1 each triangle is its own minimum
    searches, minima = [], []
    search, minimum = graphs._search_canonical, graphs._small_minimum

    def counting_search(*args):
        searches.append(args)
        return search(*args)

    def counting_minimum(adj, pos, sizes):
        minima.append(sizes)
        return minimum(adj, pos, sizes)

    monkeypatch.setattr(graphs, "_search_canonical", counting_search)
    monkeypatch.setattr(graphs, "_small_minimum", counting_minimum)
    alphabet = enumerate_generators.__wrapped__(3)
    assert len(alphabet) == 6939 and searches == []
    shapes = set()
    for cert in alphabet.certs:
        _, keys, _ = graphs._decode_certificate(cert)
        shapes.add((len(keys), keys.count("L000R000")))
    expected = {(n, m): 2 ** (n * (n - 1) // 2) for n, m in shapes if m >= 2}
    assert len(minima) == sum(expected.values()) == 210
    assert Counter((sum(sizes), sizes[0]) for sizes in minima) == expected


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


def test_by_id_parses_each_id_once_and_rejects_non_ids(monkeypatch, capsys):
    alphabet = enumerate_generators.__wrapped__(2)
    for bad in ("g-1", "g03", "g\u0663", "g219", "x7", "g", "", " g7", "g7 ",
                7, None, b"g7", ["g7"], {"g": 7}):
        with pytest.raises(ContextError, match="unknown generator id"):
            alphabet.by_id(bad)
    assert alphabet._accepted == {}
    g = alphabet.by_id("g7")
    assert alphabet.by_id("g7") is g is alphabet.contexts[7]
    assert alphabet._accepted == {"g7": 7}
    # listing an alphabet looks no id up
    monkeypatch.setattr(GeneratorAlphabet, "by_id", None)
    assert main(["generators", "--arity", "2"]) == 0
    assert capsys.readouterr().out.startswith("219 generators at arity 2\n")


@pytest.mark.parametrize("k", [1, 2, 3])
def test_letter_types_are_read_off_certificates(k, monkeypatch):
    alphabet = enumerate_generators.__wrapped__(k)
    built = _counting_builds(monkeypatch)
    types = alphabet.types
    assert built == []
    codes = [beta(w)._code for w in alphabet.contexts]
    assert [types.codes[t] for t in types.letters] == codes
    # the distinct letter types come first, in the order they are met
    assert types.codes == list(dict.fromkeys(codes))


def test_pathwidth_2_does_not_make_a_width_2_word():
    # a word keeps each port on its index, and the crossing swaps its
    # two wires, which takes a third index
    crossing = crossing_context()
    assert context_pathwidth(crossing) == 2
    graph = enumerate_generators.__wrapped__(2).types
    t = 0
    while t < len(graph.codes):  # every type of a word, as it is met
        for g in range(graph.generators):
            graph.step(t, g)
        t += 1
    assert len(graph.codes) == 126
    assert beta(crossing) not in {graph.reach_type(t) for t in range(126)}


def test_build_from_word_builds_only_its_letters(monkeypatch):
    alphabet = enumerate_generators.__wrapped__(2)
    monkeypatch.setattr(contexts, "enumerate_generators", lambda k: alphabet)
    built = _counting_builds(monkeypatch)
    w = build_from_word(2, ["g5", "g40", "g5"])
    assert built == [alphabet.certs[5], alphabet.certs[40]]
    assert w == compose_all([alphabet.contexts[i] for i in (5, 40, 5)])


def test_an_empty_alphabet_dumps_as_json_does():
    assert "".join(dump_alphabet(GeneratorAlphabet(1, ()))) == json.dumps([], indent=2) + "\n"
