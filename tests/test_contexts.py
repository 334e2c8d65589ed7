"""Contexts: composition, bridges, reachability types and their
composition law, generator alphabets, fixtures, serialisation."""

import functools
import json
import random
import re

import pytest

from sepstar import contexts
from sepstar.contexts import (
    Context,
    ContextError,
    ReachType,
    beta,
    beta_compose,
    bridges,
    build_from_word,
    canonical_rename_context,
    compose,
    compose_all,
    context_cert,
    context_from_json,
    context_to_json,
    crossing_context,
    dump_context,
    enumerate_generators,
    hub_context,
    identity_context,
    inner_components,
    isomorphic_contexts,
    linkage_compose,
    linkage_type,
    persistent_ports,
    reaches,
)
from sepstar.graphs import _numbering

from helpers import (
    brute_linkage_patterns,
    random_context,
    reference_beta_compose,
    reference_compose,
    reference_linkage_compose,
    reference_linkage_type,
)


def _ctx(vertices, edges, arity, left, right):
    return Context.build(vertices, edges, arity, left, right)


def test_build_validation():
    with pytest.raises(ContextError):
        _ctx([], [], 1, {}, {})
    with pytest.raises(ContextError):
        _ctx(["a"], [("a", "a")], 1, {}, {})
    with pytest.raises(ContextError):
        _ctx(["a", "b"], [], 1, {1: "a", 2: "b"}, {})  # index out of range
    with pytest.raises(ContextError):
        _ctx(["a", "b"], [], 2, {1: "a", 2: "a"}, {})  # not injective
    with pytest.raises(ContextError):
        _ctx(["a", "b"], [], 2, {1: "a"}, {2: "a"})  # same vertex, two indices
    w = _ctx(["a", "b"], [("a", "b")], 2, {1: "a"}, {1: "a", 2: "b"})
    assert w.arity == 2
    assert persistent_ports(w) == {1}


def test_identity_and_full_left_interface():
    w = _ctx(["a", "b", "c"], [("a", "b"), ("b", "c")], 2, {1: "a", 2: "b"}, {1: "c"})
    assert isomorphic_contexts(compose(identity_context(2), w), w)
    assert isomorphic_contexts(compose(w, identity_context(2)), w) is False
    # right index 2 is undefined in w, so the identity's second vertex
    # survives as a stray ordinary vertex on the right composition
    right_comp = compose(w, identity_context(2))
    assert len(right_comp.vertices) == len(w.vertices) + 1


def test_compose_glues_by_index():
    u = _ctx(["a", "m"], [("a", "m")], 1, {1: "a"}, {1: "m"})
    v = _ctx(["x", "y"], [("x", "y")], 1, {1: "x"}, {1: "y"})
    w = compose(u, v)
    assert len(w.vertices) == 3 and len(w.edges) == 2
    assert persistent_ports(w) == frozenset()
    expected = _ctx(["1", "2", "3"], [("1", "2"), ("2", "3")], 1, {1: "1"}, {1: "3"})
    assert isomorphic_contexts(w, expected)


def test_compose_unmatched_interface_becomes_plain_vertex():
    u = _ctx(["a"], [], 1, {1: "a"}, {1: "a"})
    v = _ctx(["x"], [], 1, {}, {1: "x"})
    w = compose(u, v)
    # u's right vertex found no partner: it is ordinary now
    assert len(w.vertices) == 2
    assert w.left_map() == {1: w.left[0]}
    assert persistent_ports(w) == frozenset()


def test_compose_arity_mismatch():
    with pytest.raises(ContextError):
        compose(identity_context(1), identity_context(2))
    # a mismatch anywhere in a word raises where the reference fold does
    letters = list(enumerate_generators(2).contexts[:5])
    for pos in range(len(letters)):
        word = letters[:pos] + [identity_context(3)] + letters[pos + 1:]
        with pytest.raises(ContextError) as expected:
            functools.reduce(reference_compose, word)
        assert str(expected.value).startswith("compose needs equal arities, got ")
        with pytest.raises(ContextError, match=re.escape(str(expected.value))):
            compose_all(word)


def _core(w):
    return w.vertices, w.edges, w.left, w.right


@pytest.mark.parametrize("k", [1, 2, 3])
def test_compose_matches_the_union_find_reference(k):
    # words of alphabet letters (named v0, v1, ...) mixed with random
    # contexts (t0, t1, ...), so that sorting mixes both kinds of name
    letters = enumerate_generators(k).contexts
    rng = random.Random(k)
    for length in range(1, 17):
        for _ in range(8):
            word = [
                rng.choice(letters) if rng.random() < 0.7 else random_context(rng, k, 5)
                for _ in range(length)
            ]
            expected = functools.reduce(reference_compose, word)
            assert _core(compose_all(word)) == _core(expected)
            extra = rng.choice(letters)
            once_more = _core(reference_compose(expected, extra))
            assert _core(compose(compose_all(word), extra)) == once_more
            assert _core(compose_all(word + [extra])) == once_more
    if k == 1:
        return
    # long letter-only words reach three-digit names, where "z100" sorts
    # before "z11" and the string order of the names moves them again
    largest = 0
    for _ in range(8):
        word = [rng.choice(letters) for _ in range(rng.randint(40, 60))]
        expected = functools.reduce(reference_compose, word)
        assert _core(compose_all(word)) == _core(expected)
        largest = max(largest, len(expected.vertices))
    assert largest > 100


def test_cached_numbering_is_the_graph_numbering_past_100_vertices():
    # sorted-name order, not handle order: "z100" sorts before "z11"
    letters = enumerate_generators(2).contexts
    rng = random.Random(11)
    w = compose_all([rng.choice(letters) for _ in range(60)])
    adj, left, right, edges = w._indexed
    at, numbered = _numbering(w)
    assert len(w.vertices) > 100
    assert adj == numbered
    assert at["z100"] < at["z11"]
    names = sorted(w.vertices)
    assert len(adj) == len(names)
    assert tuple(None if i is None else names[i] for i in left) == w.left
    assert tuple(None if i is None else names[i] for i in right) == w.right
    assert {(names[x], names[y]) for x, y in edges} == w.edges


def test_a_context_is_numbered_once_however_often_it_is_used(monkeypatch):
    numbered = []
    fresh = contexts._numbering
    monkeypatch.setattr(contexts, "_numbering", lambda g: numbered.append(g) or fresh(g))
    # copies, so that no letter of the alphabet is numbered yet
    cross, hub = (_ctx(w.vertices, w.edges, 2, w.left_map(), w.right_map())
                  for w in (crossing_context(), hub_context()))
    u = compose_all([hub, cross] * 10)
    v = compose_all([cross, cross, hub] * 5)
    uv = compose(u, v)
    assert beta(uv) == beta_compose(beta(u), beta(v))
    assert beta(cross) == beta(cross)
    # a composite is born numbered; only the built operands are numbered
    for w in (cross, hub):
        assert sum(x is w for x in numbered) == 1
    for w in (u, v, uv):
        assert not any(x is w for x in numbered)
    assert len(numbered) == 2


_NAME_FIELDS = ("vertices", "edges", "left", "right")


def _words(k):
    """Seeded words over the width-k alphabet, the longest past 100
    vertices at widths 2 and 3."""
    letters = enumerate_generators(k).contexts
    rng = random.Random(40 + k)
    return [[rng.choice(letters) for _ in range(n)] for n in (1, 2, 3, 7, 12, 20, 60)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_composite_named_on_first_read_equals_a_built_copy(k):
    reads = {
        "==": lambda w, copy: w == copy and copy == w,
        "hash": lambda w, copy: hash(w) == hash(copy),
        "repr": lambda w, copy: repr(w) == repr(copy),
        "dump_context": lambda w, copy: dump_context(w).encode() == dump_context(copy).encode(),
    }
    largest = 0
    for word in _words(k):
        copy = functools.reduce(reference_compose, word)
        largest = max(largest, len(copy.vertices))
        for name, agree in reads.items():
            w = compose_all(word)
            if len(word) > 1:
                assert not set(_NAME_FIELDS) & set(vars(w)), name
            assert agree(w, copy), name
    assert largest > 100 or k == 1


def test_composing_and_typing_a_composite_leaves_it_unnamed():
    u, v = (compose_all(word) for word in _words(2)[4:6])
    uv = compose(u, v)
    letter = enumerate_generators(2).contexts[7]
    uvul = compose_all([uv, u, letter])
    assert beta_compose(beta(u), beta(v)) == beta(uv)
    assert beta_compose(beta_compose(beta(uv), beta(u)), beta(letter)) == beta(uvul)
    assert {w.arity for w in (u, v, uv, uvul)} == {2}
    for w in (u, v, uv, uvul):
        assert not set(_NAME_FIELDS) & set(vars(w))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_beta_of_a_word_matches_beta_of_a_built_copy(k):
    alphabet = enumerate_generators(k)
    rng = random.Random(20 + k)
    for _ in range(40):
        w = build_from_word(k, [rng.choice(alphabet.ids) for _ in range(rng.randint(1, 14))])
        compose(w, w)  # numbers w before beta reads it
        copy = _ctx(w.vertices, w.edges, k, w.left_map(), w.right_map())
        assert beta(w) == beta(copy)


def test_compose_all_of_one_operand_is_that_operand():
    w = random_context(random.Random(3), 2, 4)
    assert compose_all([w]) is w
    assert compose_all(iter([w])) is w


@pytest.mark.parametrize(
    "word, pos", [(["w", 5], 2), ([5, "w"], 1), ([5], 1), (["w", "w", None], 3)]
)
def test_compose_all_refuses_operands_that_are_not_contexts(word, pos):
    w = identity_context(2)
    word = [w if x == "w" else x for x in word]
    bad = word[pos - 1]
    with pytest.raises(ContextError, match=rf"operand {pos} is not a context: {bad!r}"):
        compose_all(word)


def test_compose_associative_up_to_isomorphism():
    rng = random.Random(5)
    for _ in range(60):
        k = rng.randint(1, 3)
        u, v, w = (random_context(rng, k, 4) for _ in range(3))
        assert isomorphic_contexts(
            compose(compose(u, v), w), compose(u, compose(v, w))
        )


def test_persistence_intersects_under_composition():
    rng = random.Random(9)
    for _ in range(120):
        k = rng.randint(1, 3)
        u, v = random_context(rng, k, 4), random_context(rng, k, 4)
        expected = persistent_ports(u) & persistent_ports(v)
        assert persistent_ports(compose(u, v)) == expected


def test_inner_components_and_bridges_on_fixtures():
    x = crossing_context()
    comps = inner_components(x)
    assert len(comps) == 2 and all(len(c) == 1 for c in comps)
    assert len(bridges(x)) == 2
    h = hub_context()
    comps = inner_components(h)
    sizes = sorted(len(c) for c in comps)
    assert sizes == [1, 1, 4]
    assert len(bridges(h)) == 3


def test_bridges_ignore_persistent_anchored_components():
    # p persists; a path hangs between p and the pure left port a
    w = _ctx(
        ["p", "a", "m", "c"],
        [("a", "m"), ("m", "p"), ("p", "c")],
        2,
        {1: "p", 2: "a"},
        {1: "p", 2: "c"},
    )
    comp = inner_components(w)
    assert len(comp) == 2  # {a-m, m-p} and {p-c}
    assert bridges(w) == ()  # both touch the persistent vertex p
    # same shape without persistence: the p-c edge now bridges
    w2 = _ctx(
        ["p", "a", "m", "c"],
        [("a", "m"), ("m", "p"), ("p", "c")],
        2,
        {1: "p", 2: "a"},
        {2: "c"},
    )
    assert [sorted(b) for b in bridges(w2)] == [[("c", "p")]]


def test_bridge_requires_both_sides():
    w = _ctx(
        ["l", "m", "r"],
        [("l", "m"), ("m", "r")],
        1,
        {1: "l"},
        {1: "r"},
    )
    assert len(bridges(w)) == 1
    lonely = _ctx(["l", "m"], [("l", "m")], 1, {1: "l"}, {})
    assert bridges(lonely) == ()


# --- reachability types ----------------------------------------------------


def test_beta_of_crossing():
    rt = beta(crossing_context())
    assert rt.left_defined == {1, 2} and rt.right_defined == {1, 2}
    assert rt.persistent == frozenset()
    assert reaches(rt, ("L", 1), ("R", 2))
    assert reaches(rt, ("L", 2), ("R", 1))
    assert not reaches(rt, ("L", 1), ("R", 1))
    assert not reaches(rt, ("L", 1), ("L", 2))


def test_beta_inner_paths_stop_at_ports():
    # l - m - r with m a *port* vertex: no inner path from l to r
    w = _ctx(
        ["l", "m", "r"],
        [("l", "m"), ("m", "r")],
        3,
        {1: "l", 2: "m"},
        {2: "m", 3: "r"},
    )
    rt = beta(w)
    assert reaches(rt, ("L", 1), ("L", 2))
    assert reaches(rt, ("L", 2), ("R", 3))
    assert not reaches(rt, ("L", 1), ("R", 3))
    assert rt.persistent == {2}
    assert reaches(rt, ("L", 2), ("R", 2))  # same vertex


def test_crossing_powers_alternate():
    x = crossing_context()
    w = x
    for n in range(1, 7):
        rt = beta(w)
        straight = reaches(rt, ("L", 1), ("R", 1)) and reaches(rt, ("L", 2), ("R", 2))
        swapped = reaches(rt, ("L", 1), ("R", 2)) and reaches(rt, ("L", 2), ("R", 1))
        if n % 2 == 0:
            assert straight and not swapped
        else:
            assert swapped and not straight
        w = compose(w, x)


def test_beta_compose_is_a_homomorphism():
    rng = random.Random(17)
    for _ in range(250):
        k = rng.randint(1, 3)
        u, v = random_context(rng, k, 4), random_context(rng, k, 4)
        assert beta(compose(u, v)) == beta_compose(beta(u), beta(v))


def _fields(rt):
    return rt.arity, rt.left_defined, rt.right_defined, rt.persistent, rt.reach


def test_type_codes_match_the_reference_composition_at_width_2():
    letters = list(dict.fromkeys(beta(w) for w in enumerate_generators(2).contexts))
    types, seen = list(letters), set(letters)
    for a in types:  # the list grows while it is walked
        for g in letters:
            b = reference_beta_compose(a, g)
            if b not in seen:
                seen.add(b)
                types.append(b)
    assert len(types) == 126
    for rt in types:
        checked = ReachType(2, rt.left_defined, rt.right_defined, rt.persistent, rt.reach)
        assert checked._code == rt._code
        assert _fields(ReachType._of_code(2, rt._code)) == _fields(rt)
    for a in types:
        for b in types:
            assert _fields(beta_compose(a, b)) == _fields(reference_beta_compose(a, b))


def test_type_codes_match_the_reference_composition_at_width_3():
    rng = random.Random(3)
    pool = list(dict.fromkeys(beta(w) for w in enumerate_generators(3).contexts))
    for _ in range(2000):
        a, b = rng.choice(pool), rng.choice(pool)
        composed = beta_compose(a, b)
        assert _fields(composed) == _fields(reference_beta_compose(a, b))
        pool.append(composed)


def test_reaches_reads_defined_references_only():
    rt = beta(_ctx(["a", "b"], [("a", "b")], 2, {1: "a"}, {1: "b"}))
    assert reaches(rt, ("L", 1), ("L", 1)) and reaches(rt, ("R", 1), ("L", 1))
    assert not reaches(rt, ("L", 2), ("L", 2))  # undefined
    for bad in [("L", 3), ("X", 1), ("L", "1")]:
        with pytest.raises(ContextError):
            reaches(rt, bad, bad)


def test_beta_compose_blocks_port_classes():
    # u: left1 - right1 wire; v: left1 and left2 joined to right1
    u = _ctx(["a", "b"], [("a", "b")], 2, {1: "a"}, {1: "b"})
    v = _ctx(
        ["x", "y", "m", "r"],
        [("x", "m"), ("m", "y"), ("y", "r")],
        2,
        {1: "x", 2: "y"},
        {1: "r"},
    )
    lhs = beta_compose(beta(u), beta(v))
    assert lhs == beta(compose(u, v))
    # composite left 2 is undefined; reach must only use defined refs
    assert all(
        ref[1] in (1, 2)
        and (ref[0] == "L") <= (ref[1] in lhs.left_defined)
        for pair in lhs.reach
        for ref in pair
    )


def test_hub_reach_type_is_idempotent():
    rt = beta(hub_context())
    assert beta_compose(rt, rt) == rt
    for p in [("L", 1), ("L", 2), ("R", 1), ("R", 2)]:
        for q in [("L", 1), ("L", 2), ("R", 1), ("R", 2)]:
            assert reaches(rt, p, q)


# --- linkage types ---------------------------------------------------------


def test_linkage_type_of_fixtures():
    # positions at width 2: L1 = 0, L2 = 1, R1 = 2, R2 = 3
    wires = linkage_type(crossing_context())
    straight, swapped = (0, 3), (1, 2)
    assert wires.patterns == {
        frozenset(),
        frozenset({straight}),
        frozenset({swapped}),
        frozenset({straight, swapped}),
    }
    hub = linkage_type(hub_context())
    assert len(hub.patterns) == 20
    # the hub is used at most once, so L1-R1 and L2-R2 never go together
    assert frozenset({(0, 2), (1, 3)}) not in hub.patterns
    # a persistent vertex is named by its left reference
    ident = linkage_type(identity_context(2))
    assert ident.masks == 0b11_11_11 and ident.patterns == {frozenset()}


def test_linkage_type_against_brute_enumeration():
    rng = random.Random(23)
    for _ in range(300):
        w = random_context(rng, rng.randint(1, 3), 7)
        assert linkage_type(w).patterns == brute_linkage_patterns(w)


@pytest.mark.parametrize("k, pairs", [(1, 100), (2, 300), (3, 100)])
def test_linkage_compose_is_a_homomorphism(k, pairs):
    rng = random.Random(31337 + k)
    ids = enumerate_generators(k).ids
    for _ in range(pairs):
        u = build_from_word(k, [rng.choice(ids) for _ in range(rng.randint(1, 3))])
        v = build_from_word(k, [rng.choice(ids) for _ in range(rng.randint(1, 3))])
        assert linkage_type(compose(u, v)) == linkage_compose(
            linkage_type(u), linkage_type(v)
        )


def test_linkage_compose_glues_every_width_2_pair_of_types():
    # one letter per linkage type; letters sharing a persistent index
    # reach the `across` case of the gluing, which random short words
    # meet only by chance
    letters = {}
    for w in enumerate_generators(2).contexts:
        letters.setdefault(linkage_type(w), w)
    assert len(letters) == 77
    for tu, u in letters.items():
        for tv, v in letters.items():
            assert linkage_compose(tu, tv) == linkage_type(compose(u, v))


def test_linkage_compose_on_random_contexts():
    rng = random.Random(19)
    for _ in range(250):
        k = rng.randint(1, 3)
        u, v = random_context(rng, k, 5), random_context(rng, k, 5)
        assert linkage_type(compose(u, v)) == linkage_compose(
            linkage_type(u), linkage_type(v)
        )
    with pytest.raises(ContextError):
        linkage_compose(linkage_type(hub_context()), linkage_type(identity_context(1)))


def _linkage_pairs():
    """Seeded operand pairs: random words at widths 1-3, random contexts
    with a persistent index, and the hub's powers dressed with the
    crossing on either side."""
    rng = random.Random(35)
    for k in (1, 2, 3):
        ids = enumerate_generators(k).ids
        for _ in range(60):
            yield tuple(
                build_from_word(k, [rng.choice(ids) for _ in range(rng.randint(1, 5))])
                for _ in range(2)
            )
    pairs = 0
    while pairs < 80:
        k = rng.randint(1, 3)
        u, v = random_context(rng, k, 6), random_context(rng, k, 6)
        if persistent_ports(u) and persistent_ports(v):
            pairs += 1
            yield u, v
    hub, cross = hub_context(), crossing_context()
    for m in range(1, 5):
        for x, y in ((None, None), (cross, None), (None, cross), (cross, cross)):
            yield compose_all([x] * (x is not None) + [hub] * m), compose_all(
                [hub] + [y] * (y is not None)
            )


def test_linkage_types_match_the_name_keyed_reference():
    def fields(t):
        return t.arity, t.masks, t.patterns

    for u, v in _linkage_pairs():
        tu, tv = linkage_type(u), linkage_type(v)
        for w, t in ((u, tu), (v, tv), (compose(u, v), linkage_type(compose(u, v)))):
            assert fields(t) == reference_linkage_type(w)
        assert fields(linkage_compose(tu, tv)) == reference_linkage_compose(tu, tv)


# --- generators ------------------------------------------------------------


def test_generator_alphabet_width_one_count():
    # hand count: one-vertex contexts give 4 classes (each side defined
    # or not); two-vertex contexts give 5 interface classes times
    # edge/no-edge = 10; total 14
    alphabet = enumerate_generators(1)
    assert len(alphabet) == 14
    assert len({context_cert(w) for w in alphabet.contexts}) == 14
    assert all(len(w.vertices) <= 2 for w in alphabet.contexts)
    assert alphabet.ids[:3] == ("g0", "g1", "g2")


def test_generator_alphabet_is_deterministic():
    a = enumerate_generators(1)
    again = enumerate_generators.__wrapped__(1)  # bypass the cache
    assert [context_cert(w) for w in a.contexts] == [
        context_cert(w) for w in again.contexts
    ]


@pytest.mark.parametrize("k", [0, 5, 1024, 10**12])
def test_generator_alphabet_width_is_bounded(k, monkeypatch):
    from sepstar import contexts

    def unreachable(*args):
        raise AssertionError("port key sets listed outside widths 1..4")

    monkeypatch.setattr(contexts, "_port_key_sets", unreachable, raising=True)
    with pytest.raises(ContextError, match=r"arity in 1\.\.4"):
        enumerate_generators(k)


@pytest.mark.parametrize("k", [True, "2", 2.0, None])
def test_generator_alphabet_width_must_be_an_integer(k, monkeypatch):
    from sepstar import contexts

    def unreachable(*args):
        raise AssertionError("port key sets listed for a width that is not an integer")

    monkeypatch.setattr(contexts, "_port_key_sets", unreachable, raising=True)
    with pytest.raises(ContextError, match="arity must be an integer"):
        enumerate_generators(k)


def test_alphabet_walk_leaves_the_certificate_cache_alone():
    # letters are written from their canonical forms, so listing them
    # puts nothing into context_cert's process-wide cache
    context_cert.cache_clear()
    assert len(enumerate_generators.__wrapped__(3)) == 6939
    assert context_cert.cache_info().currsize == 0


def test_generator_alphabet_width_two_contains_all_small_contexts():
    alphabet = enumerate_generators(2)
    assert all(len(w.vertices) <= 3 for w in alphabet.contexts)
    rng = random.Random(29)
    for _ in range(40):
        w = random_context(rng, 2, 3)
        assert any(isomorphic_contexts(w, g) for g in alphabet.contexts)


def test_build_from_word():
    alphabet = enumerate_generators(1)
    w = build_from_word(1, [alphabet.ids[0], alphabet.ids[1]])
    assert w.arity == 1
    with pytest.raises(ContextError):
        build_from_word(1, [])
    with pytest.raises(ContextError):
        build_from_word(1, ["g999"])
    with pytest.raises(ContextError):
        build_from_word(1, [identity_context(2)])


def test_crossing_needs_width_three_word():
    # an explicit four-letter width-3 word whose product is the
    # crossing wired through intermediate vertices
    f1 = _ctx(["a", "b", "u"], [("a", "u")], 3, {1: "a", 2: "b"}, {2: "b", 3: "u"})
    f2 = _ctx(["b", "u", "v"], [("b", "v")], 3, {2: "b", 3: "u"}, {3: "u", 1: "v"})
    f3 = _ctx(["u", "v", "c"], [("v", "c")], 3, {3: "u", 1: "v"}, {3: "u", 1: "c"})
    f4 = _ctx(["u", "c", "d"], [("u", "d")], 3, {3: "u", 1: "c"}, {1: "c", 2: "d"})
    w = compose_all([f1, f2, f3, f4])
    expected = _ctx(
        ["a", "b", "u", "v", "c", "d"],
        [("a", "u"), ("u", "d"), ("b", "v"), ("v", "c")],
        3,
        {1: "a", 2: "b"},
        {1: "c", 2: "d"},
    )
    assert isomorphic_contexts(w, expected)
    rt = beta(w)
    assert reaches(rt, ("L", 1), ("R", 2))
    assert reaches(rt, ("L", 2), ("R", 1))
    assert not reaches(rt, ("L", 1), ("R", 1))
    assert len(bridges(w)) == 2


# --- canonical form and serialisation --------------------------------------


def test_context_cert_invariant_under_renaming():
    rng = random.Random(31)
    for _ in range(60):
        w = random_context(rng, 2, 4)
        names = sorted(w.vertices)
        image = names[:]
        rng.shuffle(image)
        m = dict(zip(names, image))
        w2 = Context.build(
            image,
            [(m[x], m[y]) for (x, y) in w.edges],
            w.arity,
            {i: m[v] for i, v in w.left_map().items()},
            {i: m[v] for i, v in w.right_map().items()},
        )
        assert context_cert(w) == context_cert(w2)
        assert canonical_rename_context(w) == canonical_rename_context(w2)


def test_context_cert_distinguishes_interfaces():
    a = _ctx(["a", "b"], [("a", "b")], 1, {1: "a"}, {1: "b"})
    b = _ctx(["a", "b"], [("a", "b")], 1, {1: "a"}, {1: "a"})
    assert context_cert(a) != context_cert(b)


def test_context_json_round_trip():
    w = hub_context()
    data = context_to_json(w)
    again = context_from_json(json.loads(json.dumps(data)))
    assert again == w
    assert dump_context(again) == dump_context(w)


def test_context_json_errors():
    with pytest.raises(ContextError):
        context_from_json({"vertices": ["a"]})  # no arity
    with pytest.raises(ContextError):
        context_from_json(
            {"vertices": ["a"], "arity": 1, "left": {"x": "a"}}
        )
    with pytest.raises(ContextError):
        context_from_json({"vertices": ["a"], "arity": 1, "bogus": True})
