"""Monoid layer: tables, Green's relations, recognizers, the
aperiodicity decision, and semantic certification."""

import json
import random
import re
from itertools import product

import pytest

import sepstar.contexts as contexts
import sepstar.monoids as monoids
from sepstar.contexts import (
    Context,
    beta,
    beta_compose,
    build_from_word,
    compose,
    compose_all,
    context_cert,
    crossing_context,
    enumerate_generators,
    hub_context,
    identity_context,
    isomorphic_contexts,
    reaches,
)
from sepstar.monoids import (
    Certificate,
    FiniteMonoid,
    MonoidError,
    Recognizer,
    Verdict,
    certify_non_star_free,
    decide_aperiodic_mod_reachability,
    generated_submonoid,
    green_classes,
    is_aperiodic,
    is_aperiodic_element,
    monoid_from_json,
    monoid_to_json,
    oracle_inner_reach,
    oracle_two_disjoint_paths,
    parity_recognizer,
    reach_type_recognizer,
    recognizer_accepts,
    recognizer_from_json,
    recognizer_image,
    recognizer_to_json,
    syntactic_quotient,
    transition_monoid,
    validate_monoid,
)

from helpers import (
    audit_well_defined,
    brute_two_disjoint_paths,
    classify_infix_classes,
    reference_alternation_start,
    reference_right_cayley,
)

Z2 = FiniteMonoid.build([[0, 1], [1, 0]], 0)
# two-element semilattice: 1 absorbs
U1 = FiniteMonoid.build([[0, 1], [1, 1]], 0, zero=1)


def find_generator(k, ctx):
    """Generator id of the alphabet element isomorphic to ctx."""
    alphabet = enumerate_generators(k)
    cert = context_cert(ctx)
    for gid, w in zip(alphabet.ids, alphabet.contexts):
        if context_cert(w) == cert:
            return gid
    raise AssertionError("context is not a generator")


def test_build_rejects_bad_tables():
    with pytest.raises(MonoidError):
        FiniteMonoid.build([[0, 1]], 0)  # not square
    with pytest.raises(MonoidError):
        FiniteMonoid.build([[0, 1], [1, 2]], 0)  # entry out of range
    with pytest.raises(MonoidError):
        FiniteMonoid.build([[0, 1], [1, 0]], 1)  # 1 is not neutral
    with pytest.raises(MonoidError):
        FiniteMonoid.build([[0, 1], [1, 0]], 0, zero=1)  # 1 is not absorbing
    # right-neutral only: table[a][e] = a but table[e][a] wrong
    with pytest.raises(MonoidError):
        FiniteMonoid.build([[0, 0], [1, 1]], 0)
    # magma that is not associative: (1*1)*2 = 2 but 1*(1*2) = 1
    with pytest.raises(MonoidError) as err:
        FiniteMonoid.build([[0, 1, 2], [1, 0, 2], [2, 2, 1]], 0)
    assert "associativity" in str(err.value)


def test_mul_and_power():
    assert Z2.mul(1, 1) == 0
    assert Z2.power(1, 1) == 1
    assert Z2.power(1, 2) == 0
    assert Z2.power(1, 5) == 1
    assert U1.power(1, 3) == 1
    with pytest.raises(MonoidError):
        Z2.power(1, 0)


def test_aperiodicity_basics():
    # the nontrivial element of Z2 flips forever
    assert not is_aperiodic_element(Z2, 1)
    assert is_aperiodic_element(Z2, 0)
    assert not is_aperiodic(Z2)
    assert is_aperiodic(U1)
    # against the definition, with powers well past where they cycle
    for m in monoid_zoo():
        for a in range(m.size):
            powers = [m.power(a, t) for t in range(1, 2 * m.size + 3)]
            assert is_aperiodic_element(m, a) == any(
                x == y for x, y in zip(powers, powers[1:])
            )


def brute_green(m):
    """Green's relations straight from the definitions."""
    n = m.size
    rset = [frozenset(m.table[a][x] for x in range(n)) for a in range(n)]
    lset = [frozenset(m.table[x][a] for x in range(n)) for a in range(n)]
    jset = [
        frozenset(
            m.table[m.table[x][a]][y] for x in range(n) for y in range(n)
        )
        for a in range(n)
    ]
    return rset, lset, jset


def partition_of(class_ids):
    groups = {}
    for a, c in enumerate(class_ids):
        groups.setdefault(c, set()).add(a)
    return sorted(map(frozenset, groups.values()), key=sorted)


def partition_from_sets(sets):
    groups = {}
    for a, s in enumerate(sets):
        groups.setdefault(s, set()).add(a)
    return sorted(map(frozenset, groups.values()), key=sorted)


def monoid_zoo():
    yield Z2
    yield U1
    # flip-flop: identity plus two resets
    ff, _ = transition_monoid(2, {"a": (0, 0), "b": (1, 1)})
    yield ff
    # full transformation monoid on 3 states
    t3, _ = transition_monoid(3, {"c": (1, 2, 0), "s": (1, 0, 2), "m": (0, 0, 2)})
    assert t3.size == 27
    yield t3
    # a handful of random transition monoids
    import random

    rng = random.Random(20240811)
    for _ in range(6):
        letters = {
            name: tuple(rng.randrange(3) for _ in range(3)) for name in "ab"
        }
        yield transition_monoid(3, letters)[0]


def test_green_classes_match_definitions():
    for m in monoid_zoo():
        data = green_classes(m)
        rset, lset, jset = brute_green(m)
        assert partition_of(data.r_class) == partition_from_sets(rset)
        assert partition_of(data.l_class) == partition_from_sets(lset)
        assert partition_of(data.j_class) == partition_from_sets(jset)
        hset = [(rset[a], lset[a]) for a in range(m.size)]
        assert partition_of(data.h_class) == partition_from_sets(hset)
        for a in range(m.size):
            assert (a in data.idempotents) == (m.mul(a, a) == a)
            for b in range(m.size):
                assert data.j_below(a, b) == (a in jset[b])


def test_green_structure_facts():
    # H refines R and L; R and L refine J; H-classes inside one
    # J-class are equinumerous; an H-class with an idempotent is a
    # group.
    for m in monoid_zoo():
        data = green_classes(m)
        n = m.size
        for a in range(n):
            for b in range(n):
                if data.h_class[a] == data.h_class[b]:
                    assert data.r_class[a] == data.r_class[b]
                    assert data.l_class[a] == data.l_class[b]
                if data.r_class[a] == data.r_class[b]:
                    assert data.j_class[a] == data.j_class[b]
                if data.l_class[a] == data.l_class[b]:
                    assert data.j_class[a] == data.j_class[b]
        by_j = {}
        for a in range(n):
            by_j.setdefault(data.j_class[a], []).append(a)
        for members in by_j.values():
            h_sizes = {}
            for a in members:
                h_sizes[data.h_class[a]] = h_sizes.get(data.h_class[a], 0) + 1
            assert len(set(h_sizes.values())) == 1
        for e in data.idempotents:
            h_members = [a for a in range(n) if data.h_class[a] == data.h_class[e]]
            for a in h_members:
                for b in h_members:
                    assert data.h_class[m.mul(a, b)] == data.h_class[e]
                assert m.mul(e, a) == a and m.mul(a, e) == a
                assert any(
                    m.mul(a, b) == e and m.mul(b, a) == e for b in h_members
                )


def test_transition_monoid_swap_is_z2():
    m, gen_map = transition_monoid(2, {"s": (1, 0)})
    assert m.size == 2
    assert m.identity == 0
    assert not is_aperiodic(m)
    assert m.mul(gen_map["s"], gen_map["s"]) == 0


def test_transition_monoid_resets_give_flip_flop():
    m, gen_map = transition_monoid(2, {"a": (0, 0), "b": (1, 1)})
    assert m.size == 3
    assert is_aperiodic(m)
    a, b = gen_map["a"], gen_map["b"]
    # a reset wins from the right
    assert m.mul(a, b) == b
    assert m.mul(b, a) == a


def test_transition_monoid_rejects_bad_letters():
    with pytest.raises(MonoidError):
        transition_monoid(2, {"a": (0, 2)})
    with pytest.raises(MonoidError):
        transition_monoid(3, {"a": (0, 1)})


def test_generated_submonoid_shortest_words():
    m, gen_map = transition_monoid(4, {"x": (1, 2, 3, 0)})
    assert m.size == 4
    words = generated_submonoid(m, gen_map)
    x = gen_map["x"]
    assert words[m.identity] == ()
    assert words[x] == ("x",)
    assert words[m.mul(x, x)] == ("x", "x")
    # ties break by generator name: y duplicates x but sorts later
    words2 = generated_submonoid(m, {"x": x, "y": x})
    assert words2[x] == ("x",)


def test_recognizer_build_validation():
    with pytest.raises(MonoidError):
        Recognizer.build(Z2, 1, {"g0": 1}, {2})
    with pytest.raises(MonoidError):
        Recognizer.build(Z2, 1, {"g0": 5}, {1})
    with pytest.raises(MonoidError):
        Recognizer.build(Z2, 0, {"g0": 1}, {1})
    for arity in ("1", True):
        with pytest.raises(MonoidError):
            Recognizer.build(Z2, arity, {"g0": 1}, {1})


def test_parity_recognizer_counts_marked_letters():
    rec = parity_recognizer(1, ["g0"])
    assert recognizer_accepts(rec, ["g0"])
    assert not recognizer_accepts(rec, ["g0", "g0"])
    assert recognizer_accepts(rec, ["g0", "g1", "g0", "g0"])
    with pytest.raises(MonoidError):
        parity_recognizer(1, ["g99"])


def test_recognizer_image_requires_mapped_letters():
    rec = Recognizer.build(Z2, 1, {"g0": 1}, {1})
    assert recognizer_image(rec, ["g0"]) == 1
    with pytest.raises(MonoidError):
        recognizer_image(rec, ["g1"])


def test_reach_type_recognizer_accepts_linked_words():
    rec = reach_type_recognizer(1)
    # measured closure at width 1: six composable types plus the
    # adjoined identity
    assert rec.monoid.size == 7
    wire = find_generator(1, identity_context(1))
    left_only = find_generator(
        1, Context.build({"v"}, set(), 1, {1: "v"}, {})
    )
    right_only = find_generator(
        1, Context.build({"v"}, set(), 1, {}, {1: "v"})
    )
    assert recognizer_accepts(rec, [wire])
    assert recognizer_accepts(rec, [wire, wire, wire])
    assert not recognizer_accepts(rec, [left_only, right_only])


@pytest.mark.parametrize("k", [3, 4])
def test_reach_type_recognizer_stops_above_width_2(monkeypatch, k):
    # the width-3 table would hold about 7.4e8 entries, so the width is
    # refused before the alphabet is listed or the closure started
    fail = lambda *a, **kw: pytest.fail("enumerated or closed before the check")
    monkeypatch.setattr(monoids, "enumerate_generators", fail)
    monkeypatch.setattr(monoids, "_cayley_monoid", fail)
    with pytest.raises(MonoidError, match=f"up to width 2, got {k}.*ROADMAP item 1"):
        reach_type_recognizer(k)


@pytest.mark.parametrize("k, size", [(1, 7), (2, 127)])
def test_reach_type_recognizer_matches_all_pairs_reference(k, size):
    # reference: compose every pair of types, as a construction without
    # the Cayley graph would; element numbers beyond the generators are
    # free, so each element is named by its type
    rec = reach_type_recognizer(k)
    m = rec.monoid
    assert m.size == size and m.identity == 0
    gm = rec.gen_dict()
    alphabet = enumerate_generators(k)
    letter_type = {gid: beta(w) for gid, w in zip(alphabet.ids, alphabet.contexts)}
    type_of = {}
    for el, word in generated_submonoid(m, gm).items():
        if el != 0:
            rt = letter_type[word[0]]
            for gid in word[1:]:
                rt = beta_compose(rt, letter_type[gid])
            type_of[el] = rt
    assert sorted(type_of) == list(range(1, size))
    element_of = {rt: el for el, rt in type_of.items()}
    assert len(element_of) == size - 1
    for gid, rt in letter_type.items():
        assert gm[gid] == element_of[rt]
    for a in range(size):
        assert m.table[0][a] == a and m.table[a][0] == a
    for a, ra in type_of.items():
        row = m.table[a]
        for b, rb in type_of.items():
            assert row[b] == element_of[beta_compose(ra, rb)]
    linked = {el for el, rt in type_of.items() if reaches(rt, ("L", 1), ("R", 1))}
    assert rec.accepting == linked


@pytest.fixture
def fresh_alphabets():
    """Alphabets built for this test alone: their type graphs start
    empty, and whatever the test does to them stays in the test."""
    enumerate_generators.cache_clear()
    yield
    enumerate_generators.cache_clear()


def count_compositions(monkeypatch):
    """A list that grows by one per type composition; the type graph
    composes through `contexts._reach_compose`."""
    calls = []
    compose_codes = contexts._reach_compose

    def counting(a, b, k):
        calls.append(1)
        return compose_codes(a, b, k)

    monkeypatch.setattr(contexts, "_reach_compose", counting)
    return calls


def test_reach_type_recognizer_composes_once_per_element_and_generator(
    monkeypatch, fresh_alphabets
):
    calls = count_compositions(monkeypatch)
    rec = reach_type_recognizer(2)
    assert rec.monoid.size == 127
    # of the 126 * 30 products of a non-identity element by one of the
    # 30 letter types kept of 77, the closure deduces 2,830 from the
    # graph and composes 950 (test_right_cayley_matches_the_reference_on_letter_types
    # pins the 3,780 of composing them all); all 77 took 9,702 calls
    # and composing every pair 44,892
    assert len(calls) == 950
    # the recognizer writes its table into the type graph
    calls.clear()
    assert decide_aperiodic_mod_reachability(rec).aperiodic
    assert calls == []


def test_reach_type_recognizer_is_built_once_per_width(monkeypatch, fresh_alphabets):
    calls = count_compositions(monkeypatch)
    closures, right_cayley = [], monoids._right_cayley

    def counted(*args):
        closures.append(1)
        return right_cayley(*args)

    monkeypatch.setattr(monoids, "_right_cayley", counted)
    rec = reach_type_recognizer(2)
    assert (len(calls), len(closures)) == (950, 1)
    # a second call at the width reads the recognizer off its type graph
    assert reach_type_recognizer(2) == rec
    assert (len(calls), len(closures)) == (950, 1)
    # a rebuilt alphabet starts with an empty graph and builds again
    enumerate_generators.cache_clear()
    calls.clear()
    assert reach_type_recognizer(2) == rec
    assert (len(calls), len(closures)) == (950, 2)


def counting(mul):
    """``mul`` and a list that grows by one per call of it."""
    calls = []

    def counted(a, g):
        calls.append(1)
        return mul(a, g)

    return counted, calls


@pytest.mark.parametrize("k, composed, every", [(1, 25, 30), (2, 950, 3780)])
def test_right_cayley_matches_the_reference_on_letter_types(k, composed, every):
    # the closure `reach_type_recognizer` runs, on plain type codes;
    # the identity row multiplies nothing
    codes = [contexts._cert_code(c) for c in enumerate_generators(k).certs]

    def mul(a, g):
        return g if a is None else contexts._reach_compose(a, g, k)

    deduced, calls = counting(mul)
    reference, reference_calls = counting(mul)
    graph = monoids._right_cayley(None, codes, deduced)
    assert graph == reference_right_cayley(None, codes, reference)
    kept = len(graph[1])
    assert (len(calls) - kept, len(reference_calls) - kept) == (composed, every)
    assert every == (len(graph[0]) - 1) * kept


def compose_transformations(f, g):
    return tuple(g[q] for q in f)


def test_right_cayley_matches_the_reference_on_random_transition_monoids():
    rng = random.Random(29)
    deduced_any = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        letters = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        identity = tuple(range(n))
        mul, calls = counting(compose_transformations)
        graph = monoids._right_cayley(identity, letters, mul)
        assert graph == reference_right_cayley(identity, letters, compose_transformations)
        position, kept, _, _ = graph
        deduced_any += len(calls) < len(position) * len(kept)
    assert deduced_any > 100


def test_right_cayley_matches_the_reference_on_a_3000_element_cyclic_monoid():
    # one permutation with cycles of 8, 3 and 125 states generates a
    # cyclic group of order 3,000; a reset to state 0 adds the 8
    # constant maps onto its 8-cycle
    n = 136
    cycle = tuple([(q + 1) % 8 for q in range(8)]
                  + [8 + (q + 1) % 3 for q in range(3)]
                  + [11 + (q + 1) % 125 for q in range(125)])
    for letters in ([cycle], [cycle, (0,) * n]):
        identity = tuple(range(n))
        graph = monoids._right_cayley(identity, letters, compose_transformations)
        assert graph == reference_right_cayley(identity, letters, compose_transformations)
        assert len(graph[0]) == 3000 + 8 * (len(letters) - 1)
    m, gen_map = transition_monoid(n, {"a": cycle, "b": (0,) * n})
    assert m.size == 3008
    assert m.power(gen_map["a"], 3000) == m.identity != m.power(gen_map["a"], 1500)


def test_decide_composes_each_type_and_letter_once(monkeypatch, fresh_alphabets):
    calls = count_compositions(monkeypatch)
    ids = enumerate_generators(2).ids
    trivial = Recognizer.build(FiniteMonoid(((0,),), 0), 2, dict.fromkeys(ids, 0), {0})
    verdict = decide_aperiodic_mod_reachability(trivial)
    assert verdict == Verdict(True, 2, None, None, 126)
    # at most once per (type or identity, letter type); the closure
    # from scratch made 9,828 calls
    assert len(calls) <= 127 * 77
    calls.clear()
    assert decide_aperiodic_mod_reachability(trivial) == verdict
    assert calls == []


def test_decide_at_width_3_composes_no_more_than_it_explores(
    monkeypatch, fresh_alphabets
):
    # the width-3 type monoid has 27,143 elements; closing it through
    # the type graph takes about 2.5 s of CPU and 89 MB, so a search
    # must not close it up front
    calls = count_compositions(monkeypatch)
    verdict = decide_aperiodic_mod_reachability(parity_recognizer(3, ["g0"]))
    assert verdict == Verdict(False, 3, ("g0",), 1, 2351)
    assert len(calls) <= verdict.pairs_explored
    stored = sum(map(len, enumerate_generators(3).types.products))
    assert stored <= verdict.pairs_explored


def test_a_failed_witness_check_is_an_internal_error(tmp_path, capsys, fresh_alphabets):
    from sepstar.cli import main

    rec = parity_recognizer(2, ["g181", "g193"])
    graph = enumerate_generators(2).types
    g0, g181 = graph.letters[0], graph.letters[181]
    # one wrong entry: g0 g181, the first witness of this recognizer, now
    # gets the idempotent type of g0 alone
    graph.step(g0, g181)
    graph.products[g0][g181] = g0
    with pytest.raises(Exception) as failure:
        decide_aperiodic_mod_reachability(rec)
    assert not isinstance(failure.value, MonoidError)
    assert str(failure.value) == "witness type mismatch"
    path = tmp_path / "parity.json"
    path.write_text(monoids.dump_recognizer(rec))
    assert main(["decide", "--recognizer", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal error: ")


def test_syntactic_quotient_collapses_irrelevant_structure():
    # Klein four-group from two independent swaps; accepting ignores
    # the second swap, so the quotient is the two-element group.
    m, gen_map = transition_monoid(4, {"a": (1, 0, 3, 2), "b": (2, 3, 0, 1)})
    assert m.size == 4
    b = gen_map["b"]
    rec = Recognizer.build(m, 1, {"g0": gen_map["a"], "g1": b}, {m.identity, b})
    small = syntactic_quotient(rec)
    assert small.monoid.size == 2
    assert not is_aperiodic(small.monoid)
    # same language on all short words
    import itertools

    for n in range(4):
        for word in itertools.product(["g0", "g1"], repeat=n):
            assert recognizer_accepts(rec, word) == recognizer_accepts(small, word)
    # quotienting again changes nothing
    assert syntactic_quotient(small).monoid.size == 2


def test_decide_positive_on_reach_type_recognizer():
    # every idempotent reachability type maps to an idempotent monoid
    # element here, so no violation can exist
    verdict = decide_aperiodic_mod_reachability(reach_type_recognizer(1))
    assert verdict.aperiodic
    assert verdict.witness is None
    assert verdict.pairs_explored > 0


def test_decide_violation_on_parity():
    # the isolated-vertex generator has idempotent reachability type,
    # so odd/even counting of it is visible modulo reachability
    rec = parity_recognizer(1, ["g0"])
    verdict = decide_aperiodic_mod_reachability(rec)
    assert not verdict.aperiodic
    assert verdict.witness == ("g0",)
    assert verdict.element == 1
    g0 = enumerate_generators(1).by_id("g0")
    rt = beta(g0)
    assert beta_compose(rt, rt) == rt


# Verdicts recorded before the four closures were merged into one; the
# odd sets mark letters whose types are idempotent (a one-letter
# witness) or not (a two-letter one), or none at all.
PARITY_VERDICTS = [
    ((), True, None, None, 126),
    (("g0",), False, ("g0",), 1, 78),
    (("g101", "g38"), False, ("g38",), 1, 79),
    (("g149", "g24", "g93"), False, ("g24",), 1, 80),
    (("g181", "g193"), False, ("g0", "g181"), 1, 78),
    (("g105",), False, ("g0", "g105"), 1, 79),
    (("g102",), False, ("g0", "g102"), 1, 79),
]


@pytest.mark.parametrize("odd, aperiodic, witness, element, explored", PARITY_VERDICTS)
def test_decide_parity_verdicts_are_pinned(odd, aperiodic, witness, element, explored):
    verdict = decide_aperiodic_mod_reachability(parity_recognizer(2, odd))
    assert verdict == Verdict(aperiodic, 2, witness, element, explored)


# Arity-3 verdicts, recorded before types became codes
@pytest.mark.parametrize("odd, witness, explored", [
    (("g0",), ("g0",), 2351),
    (("g100", "g2000"), ("g100",), 2352),
])
def test_decide_arity_3_parity_verdicts_are_pinned(odd, witness, explored):
    verdict = decide_aperiodic_mod_reachability(parity_recognizer(3, odd))
    assert verdict == Verdict(False, 3, witness, 1, explored)


def test_decide_requires_total_gen_map():
    rec = Recognizer.build(Z2, 1, {"g0": 1}, {1})
    with pytest.raises(MonoidError):
        decide_aperiodic_mod_reachability(rec)


def test_audit_finds_parity_conflicts():
    # parity of isolated-vertex letters is not isomorphism-invariant:
    # g0 . wire is isomorphic to the two-vertex generator that adds a
    # stray vertex next to a persistent port, but only the first word
    # contains g0
    rec = parity_recognizer(1, ["g0"])
    conflicts = audit_well_defined(rec, 2)
    assert conflicts
    alphabet = enumerate_generators(1)
    for word1, word2 in conflicts:
        c1 = compose_all([alphabet.by_id(g) for g in word1])
        c2 = compose_all([alphabet.by_id(g) for g in word2])
        assert isomorphic_contexts(c1, c2)
        assert recognizer_image(rec, word1) != recognizer_image(rec, word2)


def test_audit_clean_on_reach_type_recognizer():
    # reachability types are isomorphism-invariant, so the type
    # recognizer always passes the audit
    assert audit_well_defined(reach_type_recognizer(1), 2) == []


def test_classify_infix_classes():
    rows = classify_infix_classes(parity_recognizer(1, ["g0"]))
    assert len(rows) == 1
    assert rows[0]["size"] == 2
    assert not rows[0]["aperiodic"]
    assert rows[0]["reachable"]
    ff, gen_map = transition_monoid(2, {"a": (0, 0), "b": (1, 1)})
    rec = Recognizer.build(ff, 1, {"g0": gen_map["a"]}, {gen_map["a"]})
    rows = classify_infix_classes(rec)
    # identity sits above the two resets; only the identity class and
    # the reset class touched by g0 words are reachable
    assert [r["aperiodic"] for r in rows] == [True, True]
    sizes = sorted(r["size"] for r in rows)
    assert sizes == [1, 2]


def test_disjoint_paths_oracle_hand_cases():
    parallel = Context.build(
        {"a", "b", "c", "d"},
        {("a", "c"), ("b", "d")},
        2,
        {1: "a", 2: "b"},
        {1: "c", 2: "d"},
    )
    assert oracle_two_disjoint_paths(parallel)
    assert not oracle_two_disjoint_paths(crossing_context())
    assert not oracle_two_disjoint_paths(hub_context())
    assert oracle_two_disjoint_paths(compose(hub_context(), hub_context()))
    with pytest.raises(MonoidError):
        oracle_two_disjoint_paths(identity_context(1))
    # undefined ports are rejected
    half = Context.build({"a", "b"}, set(), 2, {1: "a"}, {2: "b"})
    with pytest.raises(MonoidError):
        oracle_two_disjoint_paths(half)


def test_reach_oracle():
    assert oracle_inner_reach(identity_context(1))
    gap = Context.build({"a", "b"}, set(), 1, {1: "a"}, {1: "b"})
    assert not oracle_inner_reach(gap)


def test_width_3_types_alone_count_mod_2():
    # a swap made with the spare third slot: its type t has t^3 = t but
    # t^2 != t, so the L1-R1 language of width-3 words is not aperiodic
    swap = ["g504", "g590", "g632"]
    t = beta(build_from_word(3, swap))
    square = beta_compose(t, t)
    assert square != t and beta_compose(square, t) == t
    for m in range(1, 10):
        w = build_from_word(3, ["g47"] + swap * m + ["g37"])
        assert reaches(beta(w), ("L", 1), ("R", 1)) == (m % 2 == 0), m


def test_certify_hub_alternates():
    cert = certify_non_star_free(hub_context(), "two-disjoint-paths", max_power=8)
    assert isinstance(cert, Certificate)
    assert cert.threshold == 1
    assert cert.values == (False, True, False, True, False, True, False, True)


def test_linkage_oracle_matches_backtracking_on_hub_powers():
    hub = hub_context()
    power = hub
    for m in range(1, 9):
        assert oracle_two_disjoint_paths(power) == brute_two_disjoint_paths(power) == (
            m % 2 == 0
        )
        power = compose(power, hub)


DRESSINGS = [None, identity_context(2), crossing_context()]


@pytest.mark.parametrize("x", DRESSINGS, ids=["none", "identity", "crossing"])
@pytest.mark.parametrize("y", DRESSINGS, ids=["none", "identity", "crossing"])
def test_linkage_oracle_matches_backtracking_on_dressed_hub(x, y):
    expected = []
    for m in range(1, 7):
        parts = [x] * (x is not None) + [hub_context()] * m + [y] * (y is not None)
        full = compose_all(parts)
        expected.append(brute_two_disjoint_paths(full))
        assert oracle_two_disjoint_paths(full) == expected[-1]
    cert = certify_non_star_free(hub_context(), "two-disjoint-paths", x, y, max_power=6)
    assert cert is not None and cert.values == tuple(expected)


@pytest.mark.parametrize("k, count", [(2, 300), (3, 100)])
def test_linkage_oracle_matches_backtracking_on_words(k, count):
    rng = random.Random(4242 + k)
    ids = enumerate_generators(k).ids
    checked = 0
    while checked < count:
        u = build_from_word(k, [rng.choice(ids) for _ in range(rng.randint(1, 3))])
        v = build_from_word(k, [rng.choice(ids) for _ in range(rng.randint(1, 3))])
        w = compose(u, v)
        if None in w.left[:2] + w.right[:2]:
            continue
        assert oracle_two_disjoint_paths(w) == brute_two_disjoint_paths(w)
        checked += 1


def test_certify_work_is_independent_of_max_power(monkeypatch):
    calls = []

    def counted(t1, t2):
        calls.append(1)
        return contexts.linkage_compose(t1, t2)

    monkeypatch.setattr(monoids, "linkage_compose", counted)
    counts = []
    for power in (5, 8, 40, 200):
        calls.clear()
        cert = certify_non_star_free(hub_context(), "two-disjoint-paths", max_power=power)
        assert cert.values == tuple(m % 2 == 0 for m in range(1, power + 1))
        counts.append(len(calls))
    assert counts[0] > 0 and len(set(counts)) == 1


def test_alternation_start_matches_the_tail_search():
    for n in range(5, 13):
        for values in product((False, True), repeat=n):
            assert monoids._alternation_start(values) == reference_alternation_start(
                values
            )


def test_certify_composes_no_context(monkeypatch):
    def refuse(u, v):
        raise AssertionError("certify composed a concrete context")

    monkeypatch.setattr(contexts, "compose", refuse)
    # monoids imports no `compose` now; the patch still guards one added back
    monkeypatch.setattr(monoids, "compose", refuse, raising=False)
    for x, y in ((None, None), (identity_context(2), crossing_context())):
        cert = certify_non_star_free(hub_context(), "two-disjoint-paths", x, y, max_power=8)
        assert cert is not None and cert.threshold <= 2
        assert all(a != b for a, b in zip(cert.values[1:], cert.values[2:]))


def test_certify_rejects_non_idempotent_type():
    with pytest.raises(MonoidError):
        certify_non_star_free(crossing_context(), "two-disjoint-paths")


def test_certify_checks_the_disjoint_paths_ports_before_any_linkage_type(monkeypatch):
    # the product x . w^m . y takes its left interface from x (or w) and
    # its right one from y (or w), so dressings can supply the ports
    bare = Context.build(["a", "b"], [], 2, {}, {1: "a", 2: "b"})
    assert certify_non_star_free(bare, "two-disjoint-paths", x=identity_context(2)) is None

    def refuse(*args):
        raise AssertionError("a linkage type was computed")

    monkeypatch.setattr(monoids, "linkage_type", refuse)
    monkeypatch.setattr(monoids, "linkage_compose", refuse)
    for w in (identity_context(1), Context.build(["a"], [], 1, {}, {})):
        with pytest.raises(MonoidError, match="the disjoint-paths oracle needs arity at least 2"):
            certify_non_star_free(w, "two-disjoint-paths")
        with pytest.raises(MonoidError, match="the disjoint-paths oracle needs arity at least 2"):
            oracle_two_disjoint_paths(w)
    no_right_2 = Context.build(["a", "b", "c"], [("a", "c")], 2, {1: "a", 2: "b"}, {1: "c"})
    for x, w, y in (
        (None, no_right_2, None),
        (None, bare, None),
        (bare, hub_context(), None),
        (None, hub_context(), no_right_2),
        (identity_context(2), no_right_2, None),
    ):
        with pytest.raises(MonoidError, match="ports 1 and 2 must be defined on both sides"):
            certify_non_star_free(w, "two-disjoint-paths", x, y)
    with pytest.raises(MonoidError, match="ports 1 and 2 must be defined on both sides"):
        oracle_two_disjoint_paths(no_right_2)


def test_certify_returns_none_when_stable():
    # reachability-level oracles cannot alternate on idempotent types
    assert certify_non_star_free(hub_context(), "reach") is None
    squared = compose(crossing_context(), crossing_context())
    rt = beta(squared)
    assert beta_compose(rt, rt) == rt
    assert certify_non_star_free(squared, "two-disjoint-paths") is None
    with pytest.raises(MonoidError):
        certify_non_star_free(hub_context(), "no-such-oracle")


def test_certify_with_dressing():
    # dressing with identity contexts must not change the verdict
    cert = certify_non_star_free(
        hub_context(),
        "two-disjoint-paths",
        x=identity_context(2),
        y=identity_context(2),
        max_power=8,
    )
    assert cert is not None and cert.threshold == 1
    with pytest.raises(MonoidError):
        certify_non_star_free(hub_context(), "reach", x=identity_context(1))


def test_monoid_json_round_trip():
    for m in (Z2, U1):
        data = json.loads(json.dumps(monoid_to_json(m)))
        back = monoid_from_json(data)
        assert back == m
    with pytest.raises(MonoidError):
        monoid_from_json({"table": [[0]], "identity": 0, "bogus": 1})
    with pytest.raises(MonoidError):
        monoid_from_json({"identity": 0})
    with pytest.raises(MonoidError):
        monoid_from_json({"table": [[0]], "identity": 0, "size": 5})


def test_recognizer_json_round_trip():
    rec = parity_recognizer(1, ["g0"])
    back = recognizer_from_json(json.loads(json.dumps(recognizer_to_json(rec))))
    assert back == rec
    with pytest.raises(MonoidError):
        recognizer_from_json({"arity": 1})
    with pytest.raises(MonoidError):
        recognizer_from_json(
            {"monoid": monoid_to_json(Z2), "arity": 1, "gen_map": {}, "accepting": [], "x": 1}
        )


def test_validate_monoid_accepts_zoo():
    for m in monoid_zoo():
        validate_monoid(m)


def _square_of_z20():
    """Z20 x Z20, element 20a + b for the pair (a, b)."""
    return [
        [20 * ((x // 20 + y // 20) % 20) + (x + y) % 20 for y in range(400)]
        for x in range(400)
    ]


def test_validate_monoid_loads_a_400_element_table():
    m = monoid_from_json({"table": _square_of_z20(), "identity": 0})
    assert m.size == 400
    # Light's test checks (x*g)*y = x*(g*y) for the generators only
    assert monoids._generators(m) == [1, 20]


def test_validate_monoid_names_a_failing_triple():
    rng = random.Random(5)
    for _ in range(5):
        table = _square_of_z20()
        a, b = rng.randrange(1, 400), rng.randrange(1, 400)
        table[a][b] = (table[a][b] + rng.randrange(1, 400)) % 400
        with pytest.raises(MonoidError, match="associativity fails") as err:
            FiniteMonoid.build(table, 0)
        x, g, y = map(int, re.search(r"\((\d+),(\d+),(\d+)\)", str(err.value)).groups())
        assert table[table[x][g]][y] != table[x][table[g][y]]
