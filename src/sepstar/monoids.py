"""Finite monoids, recognizers over generator words, and the
aperiodicity machinery.

A recognizer assigns a monoid element to every generator of a width-k
alphabet; a word of generators is accepted when the product of its
letters lands in the accepting set.  The central decision procedure,
:func:`decide_aperiodic_mod_reachability`, searches the reachable
(monoid element, reachability type) pairs for a word whose reachability
type is idempotent while its monoid element generates a nontrivial
group - the pattern that separates genuinely periodic behaviour from
behaviour that only looks periodic because the interface wiring
changes.

Every monoid with a table is built by ``_right_cayley``, a closure
under right multiplication that takes its generators one at a time
and keeps only those the earlier ones do not already generate
(Froidure & Pin, 1997); the table is read off the right Cayley graph
it records.  The closure deduces most products from the graph by
Froidure & Pin's suffix deduction and composes only the rest.  The
reachability-type recognizer runs it through the alphabet's type
graph (``GeneratorAlphabet.types`` in `sepstar.contexts`), which
composes a type with a letter type the first time any search at that
width asks for it and looks the product up after that; at width 2 the
closure keeps 30 of the 77 letter types and composes 950 of the 3,780
products of an element by a kept type, and its finished table fills
the graph.  The lazy searches (the decision procedure over (element,
type) pairs, shortest words) run ``_closure``, one breadth-first
search over every generator, so that their words stay shortest over
the whole alphabet; the decision procedure multiplies types through
the same graph, and tests a type's idempotence by one composition
with itself.  Types are read only through the type API of
`sepstar.contexts`, never as codes.

`certify_non_star_free` complements the decision procedure on the
semantic side: it pumps a context with idempotent reachability type
and watches an oracle alternate.  Every oracle is a morphism into a
finite type plus a predicate on types (the reachability type for
``reach``, the linkage type of `sepstar.contexts` for
``two-disjoint-paths``), so the powers are pumped on types: no power
is built as a context, and the pumping stops at the first repeated
type, so its cost does not grow with the number of powers asked for.
"""

from __future__ import annotations

import json
from functools import reduce
from operator import or_

from .contexts import (
    Context,
    LinkageType,
    ReachType,
    beta,
    beta_compose,
    build_from_word,
    enumerate_generators,
    linkage_compose,
    linkage_type,
    reaches,
)
from .graphs import MONOID_SHAPE, RECOGNIZER_SHAPE, _conform, _flood, _read_json, _Value

__all__ = [
    "MonoidError",
    "FiniteMonoid",
    "validate_monoid",
    "is_aperiodic_element",
    "aperiodic_violations",
    "is_aperiodic",
    "GreenData",
    "green_classes",
    "transition_monoid",
    "generated_submonoid",
    "Recognizer",
    "recognizer_image",
    "recognizer_accepts",
    "syntactic_quotient",
    "reach_type_recognizer",
    "parity_recognizer",
    "Verdict",
    "decide_aperiodic_mod_reachability",
    "Certificate",
    "certify_non_star_free",
    "oracle_inner_reach",
    "oracle_two_disjoint_paths",
    "monoid_to_json",
    "monoid_from_json",
    "recognizer_to_json",
    "recognizer_from_json",
    "dump_recognizer",
    "load_recognizer",
]


class MonoidError(ValueError):
    """Raised for malformed monoids, recognizers, and queries."""


class FiniteMonoid(_Value):
    """Multiplication table over elements 0..n-1.

    ``table[a][b]`` is the product a*b.  ``zero``, when present, is an
    absorbing element.  Use :meth:`FiniteMonoid.build` on untrusted
    data; internal constructions (transition monoids, quotients) are
    associative by construction and skip the associativity check.
    """

    table: tuple[tuple[int, ...], ...]
    identity: int
    zero: int | None = None

    @staticmethod
    def build(table, identity: int, zero: int | None = None) -> "FiniteMonoid":
        if not isinstance(table, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) for row in table
        ):
            raise MonoidError("table must be a list of rows")
        m = FiniteMonoid(tuple(tuple(row) for row in table), identity, zero)
        validate_monoid(m)
        return m

    @property
    def size(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def power(self, a: int, m: int) -> int:
        if m < 1:
            raise MonoidError("powers start at 1")
        acc = a
        for _ in range(m - 1):
            acc = self.table[acc][a]
        return acc


def _is_element(x, n: int) -> bool:
    """True for an integer (not a bool) in range(n)."""
    return isinstance(x, int) and not isinstance(x, bool) and 0 <= x < n


def validate_monoid(m: FiniteMonoid) -> None:
    n = len(m.table)
    if n == 0:
        raise MonoidError("monoids are nonempty")
    for row in m.table:
        if len(row) != n or not all(_is_element(x, n) for x in row):
            raise MonoidError("table is not a square over element indices")
    if not _is_element(m.identity, n):
        raise MonoidError("identity index out of range")
    for a in range(n):
        if m.table[m.identity][a] != a or m.table[a][m.identity] != a:
            raise MonoidError(f"element {m.identity} is not neutral")
    if m.zero is not None:
        if not _is_element(m.zero, n):
            raise MonoidError("zero index out of range")
        for a in range(n):
            if m.table[m.zero][a] != m.zero or m.table[a][m.zero] != m.zero:
                raise MonoidError(f"element {m.zero} is not absorbing")
    # Light's test: the elements g with (x*g)*y = x*(g*y) for all x, y
    # are closed under the product, so checking a generating set is
    # enough; n^2 products per generator in place of n^3
    t = m.table
    for g in _generators(m):
        column = [row[g] for row in t]
        for x in range(n):
            left, right = t[column[x]], t[x]
            for y, gy in enumerate(t[g]):
                if left[y] != right[gy]:
                    raise MonoidError(f"associativity fails at ({x},{g},{y})")


def _generators(m: FiniteMonoid) -> list[int]:
    """A generating set: each element in turn that the ones taken so
    far do not reach from the identity."""
    return _right_cayley(m.identity, range(m.size), lambda x, g: m.table[x][g])[1]


def is_aperiodic_element(m: FiniteMonoid, a: int) -> bool:
    """True iff the powers of a stabilise: a^t = a^(t+1) for some t.
    Two of the first size + 1 powers coincide, so the least such t is
    at most the monoid's size."""
    x = a
    for _ in range(m.size + 1):
        y = m.table[x][a]
        if y == x:
            return True
        x = y
    return False


def aperiodic_violations(m: FiniteMonoid) -> tuple[int, ...]:
    return tuple(a for a in range(m.size) if not is_aperiodic_element(m, a))


def is_aperiodic(m: FiniteMonoid) -> bool:
    return not aperiodic_violations(m)


# ---------------------------------------------------------------------------
# Green's relations


class GreenData(_Value):
    """Equivalence class ids per element for the four relations, plus
    the ideal bitmasks the preorders are defined from."""

    r_class: tuple[int, ...]
    l_class: tuple[int, ...]
    h_class: tuple[int, ...]
    j_class: tuple[int, ...]
    idempotents: frozenset[int]
    right_ideal: tuple[int, ...]  # bitmask of aM
    left_ideal: tuple[int, ...]  # bitmask of Ma
    two_sided_ideal: tuple[int, ...]  # bitmask of MaM

    def j_below(self, a: int, b: int) -> bool:
        """a is an infix of b's ideal: a in MbM."""
        return bool(self.two_sided_ideal[b] >> a & 1)


def green_classes(m: FiniteMonoid) -> GreenData:
    n, t = m.size, m.table
    right = [sum(1 << x for x in set(t[a])) for a in range(n)]
    left = [sum(1 << x for x in {row[a] for row in t}) for a in range(n)]
    # MaM is the union of Mb over the b in aM
    two = [reduce(or_, (left[b] for b in range(n) if right[a] >> b & 1)) for a in range(n)]

    def classify(masks):
        ids: dict = {}
        return tuple(ids.setdefault(x, len(ids)) for x in masks)

    return GreenData(
        classify(right),
        classify(left),
        classify(zip(right, left)),
        classify(two),
        frozenset(a for a in range(n) if t[a][a] == a),
        tuple(right),
        tuple(left),
        tuple(two),
    )


# ---------------------------------------------------------------------------
# construction helpers


def _closure(seeds, gens, mul):
    """Breadth-first closure of ``seeds`` under right multiplication by
    ``gens``, a list of (name, element) pairs.  Lazily yields ``(element,
    parent, name)`` the first time each element is reached, parents
    before children; seeds come first, with name None."""
    index: set = set()
    queue: list = []
    for s in seeds:
        if s not in index:
            index.add(s)
            queue.append(s)
            yield s, None, None
    for a in queue:
        for name, g in gens:
            b = mul(a, g)
            if b not in index:
                index.add(b)
                queue.append(b)
                yield b, a, name


def _right_cayley(identity, candidates, mul):
    """The right Cayley graph of the monoid generated by ``candidates``
    around ``identity``, over a reduced generating set, closed one
    candidate at a time (Froidure & Pin, 1997).

    A candidate already in the closure of the ones kept so far is
    dropped.  Otherwise it is kept, every element met so far is
    multiplied by it and every new element by each kept generator.
    Most of those products are deduced from the graph rather than
    composed (Froidure & Pin's suffix deduction, as in East,
    Egri-Nagy, Mitchell & Péresse, 2019): each element x > 0 keeps its
    first letter b and a suffix u with x = kept[b]*u, so x*kept[j] is
    kept[b] times the element u*kept[j], found by walking that
    element's word from kept[b] along edges already in the graph.
    ``mul`` runs only when u is unknown or the walk meets an edge not
    yet in the graph: for 950 of the 3,780 products of the width-2
    type recognizer, and 86,436 of the 5,591,252 of the 27,143
    width-3 types.

    Returns (position, kept, steps, right): ``position`` numbers the
    elements in the order they are met, the identity as 0;
    steps[x - 1] = (p, j) when element x > 0 was first met as element p
    times kept[j]; right[a][j] is the position of element a times
    kept[j].

    The deduction rests on associativity, and a deduced entry is
    always an element already met, so for an associative ``mul`` the
    result is exactly that of composing every product: new elements,
    their numbers, ``kept`` and ``steps`` come only from real products.
    Light's test (`_generators`) runs this on an untrusted table, whose
    ``right`` it does not read: there too an element enters
    ``position`` only as a real product of an element already there
    and a kept candidate, so ``kept`` still generates the table and a
    non-associative table still fails the test."""
    position = {identity: 0}
    elements = [identity]
    kept: list = []
    steps: list[tuple[int, int]] = []
    right: list[list[int]] = [[]]
    # first[x] and suffix[x] for x > 0: x = kept[first[x]] * suffix[x],
    # the suffix None when it was not in the graph as x was met
    first: list = [None]
    suffix: list = [None]
    # lefts[b][r]: the position of kept[b] times element r
    lefts: list[dict[int, int]] = []

    def left(b, r):
        """kept[b] times element r, as right[left(b, p)][j] along r's
        steps (p, j), or None at the first edge not yet in the graph;
        iterative, since a word can be as long as the monoid."""
        memo = lefts[b]
        path = []
        while r not in memo:
            path.append(r)
            r = steps[r - 1][0]
        x = memo[r]
        for r in reversed(path):
            row, j = right[x], steps[r - 1][1]
            if j >= len(row):
                return None
            x = memo[r] = row[j]
        return x

    for c in candidates:
        if c in position:
            continue
        kept.append(c)
        # the loop also visits the rows that it appends
        for a, row in enumerate(right):
            b, u = first[a], suffix[a]
            tail = () if u is None else right[u]
            # while row a fills, only row a grows, and its columns from
            # len(row) on are missing, so len(tail) holds for the row
            deducible = len(tail)
            memo = lefts[b] if a else None
            for j in range(len(row), len(kept)):
                r = None
                if j < deducible:
                    r = tail[j]
                    x = memo.get(r)
                    if x is None:
                        x = left(b, r)
                    if x is not None:
                        row.append(x)
                        continue
                y = mul(elements[a], kept[j])
                x = position.get(y)
                if x is None:
                    x = position[y] = len(elements)
                    elements.append(y)
                    steps.append((a, j))
                    right.append([])
                    if a:
                        first.append(b)
                        suffix.append(r)
                    else:
                        first.append(j)
                        suffix.append(0)
                row.append(x)
            if not a:  # the identity row has just met the new generator
                lefts.append({0: row[-1]})
    return position, kept, steps, right


def _cayley_monoid(identity, candidates, mul):
    """The monoid generated by ``candidates`` around ``identity``, with
    its multiplication table read off `_right_cayley`'s graph: for
    b = p*g, a*b = (a*p)*g, so ``mul`` runs only inside the closure,
    and there only for the products it cannot deduce.

    Returns (position, monoid), ``position`` as in `_right_cayley`."""
    position, _, steps, right = _right_cayley(identity, candidates, mul)
    columns = [list(range(len(position)))]
    for p, j in steps:
        columns.append([right[a][j] for a in columns[p]])
    return position, FiniteMonoid(tuple(zip(*columns)), 0)


def transition_monoid(n_states: int, letters: dict[str, tuple[int, ...]]):
    """Monoid of state transformations generated by the letters.

    Returns (monoid, gen_map) where gen_map sends each letter to its
    element.  Transformations compose left to right: (f*g)(q) = g(f(q)).
    """
    for name, f in letters.items():
        if len(f) != n_states or any(not 0 <= q < n_states for q in f):
            raise MonoidError(f"letter {name!r} is not a transformation")
    gens = {name: tuple(f) for name, f in letters.items()}
    position, monoid = _cayley_monoid(
        tuple(range(n_states)),
        gens.values(),
        lambda f, g: tuple(g[q] for q in f),
    )
    return monoid, {name: position[f] for name, f in gens.items()}


def generated_submonoid(m: FiniteMonoid, generators: dict[str, int]):
    """Elements reachable from the generators, each with the shortest
    word producing it (ties broken lexicographically by generator
    name).  The identity is included with the empty word."""
    words: dict[int, tuple[str, ...]] = {}
    for b, a, name in _closure(
        [m.identity], sorted(generators.items()), lambda a, g: m.table[a][g]
    ):
        words[b] = () if name is None else words[a] + (name,)
    return words


# ---------------------------------------------------------------------------
# recognizers


class Recognizer(_Value):
    """A monoid morphism from width-`arity` generator words.

    ``gen_map`` must cover the whole generator alphabet, and name no
    other generator, for the decision procedures; partial maps are
    tolerated for evaluation only.  Keys of gen_map are generator ids
    ('g0', 'g1', ...).
    """

    monoid: FiniteMonoid
    arity: int
    gen_map: tuple[tuple[str, int], ...]
    accepting: frozenset[int]

    @staticmethod
    def build(monoid, arity, gen_map: dict, accepting) -> "Recognizer":
        for a in accepting:
            if not _is_element(a, monoid.size):
                raise MonoidError(f"accepting element {a!r} out of range")
        gm = {}
        for gid, el in gen_map.items():
            if not _is_element(el, monoid.size):
                raise MonoidError(f"generator {gid!r} maps out of range")
            gm[str(gid)] = el
        if not isinstance(arity, int) or isinstance(arity, bool):
            raise MonoidError(f"arity must be an integer, got {arity!r}")
        if arity < 1:
            raise MonoidError("recognizers need arity at least 1")
        return Recognizer(monoid, arity, tuple(sorted(gm.items())), frozenset(accepting))

    def gen_dict(self) -> dict[str, int]:
        return dict(self.gen_map)


def recognizer_image(rec: Recognizer, word) -> int:
    gm = rec.gen_dict()
    acc = rec.monoid.identity
    for gid in word:
        if gid not in gm:
            raise MonoidError(f"generator {gid!r} not mapped by the recognizer")
        acc = rec.monoid.mul(acc, gm[gid])
    return acc


def recognizer_accepts(rec: Recognizer, word) -> bool:
    return recognizer_image(rec, word) in rec.accepting


def syntactic_quotient(rec: Recognizer) -> Recognizer:
    """Collapse elements with identical two-sided behaviour relative to
    the accepting set.  The result recognises the same words with the
    smallest possible monoid for this morphism's image and acceptance."""
    m = rec.monoid
    n = m.size
    # the mask of the y with e*y accepted, for each e, and a's behaviour
    # is that mask at x*a for each x
    accepted = [sum(1 << y for y, e in enumerate(row) if e in rec.accepting) for row in m.table]
    behaviour = [tuple(accepted[row[a]] for row in m.table) for a in range(n)]
    ids: dict[tuple[int, ...], int] = {}
    cls = [ids.setdefault(b, len(ids)) for b in behaviour]
    size = len(ids)
    rep = [0] * size
    for a in range(n):
        rep[cls[a]] = a
    table = tuple(
        tuple(cls[m.table[rep[i]][rep[j]]] for j in range(size)) for i in range(size)
    )
    # the syntactic congruence is compatible with the product
    for a in range(n):
        for b in range(n):
            if cls[m.table[a][b]] != table[cls[a]][cls[b]]:
                raise MonoidError(f"quotient breaks the product at ({a},{b})")
    quotient = FiniteMonoid(table, cls[m.identity])
    accepting = frozenset(cls[a] for a in rec.accepting)
    for a in range(n):
        if (cls[a] in accepting) != (a in rec.accepting):
            raise MonoidError(f"quotient merges element {a} across acceptance")
    gen_map = {gid: cls[el] for gid, el in rec.gen_map}
    return Recognizer.build(quotient, rec.arity, gen_map, accepting)


# two canonical recognizers --------------------------------------------------


def reach_type_recognizer(k: int) -> Recognizer:
    """The reachability-type recognizer: elements are the closure of the
    generator types under composition plus an adjoined identity, element
    0 (no concrete context acts neutrally on all others, so the closure
    itself has no unit).  Built by `_cayley_monoid` through the
    alphabet's type graph, over the letter types that earlier ones do not
    already generate (30 of the 77 at width 2).  Types are composed only
    for the products of an element by a kept type that the closure
    cannot deduce (950 of the 3,780 at width 2), once per width: the
    graph keeps the recognizer.  The finished table is written into every
    row of the graph, so a later `decide_aperiodic_mod_reachability` at
    this width composes nothing.  Accepting: types linking left 1 to right 1.
    Built up to width 2: at width 3 the closure's 27,144 elements would
    need a table of about 7.4e8 entries."""
    if isinstance(k, int) and k > 2:
        raise MonoidError(
            f"the reachability-type recognizer is built up to width 2, got {k}; "
            "a width-3 table would hold about 7.4e8 entries (ROADMAP item 1)"
        )
    alphabet = enumerate_generators(k)
    graph = alphabet.types
    if graph.recognizer is not None:
        return graph.recognizer
    # None stands for the adjoined identity
    position, monoid = _cayley_monoid(
        None,
        graph.letters,
        lambda a, g: g if a is None else graph.step(a, g),
    )
    graph.record(list(position), monoid.table)
    gen_map = {gid: position[t] for gid, t in zip(alphabet.ids, graph.letters)}
    accepting = frozenset(
        i for t, i in position.items() if t is not None and _reach_holds(graph.reach_type(t))
    )
    graph.recognizer = Recognizer.build(monoid, k, gen_map, accepting)
    return graph.recognizer


def parity_recognizer(k: int, odd_ids) -> Recognizer:
    """Two-element group counting the marked generators mod 2.

    Deliberately *not* aperiodic: words that differ only in how many
    marked letters they use flip between accept and reject.  Used as
    the regression input for the decision procedure."""
    alphabet = enumerate_generators(k)
    odd = set(odd_ids)
    unknown = odd - set(alphabet.ids)
    if unknown:
        raise MonoidError(f"unknown generator ids: {sorted(unknown)}")
    table = ((0, 1), (1, 0))
    monoid = FiniteMonoid(table, 0)
    gen_map = {gid: (1 if gid in odd else 0) for gid in alphabet.ids}
    return Recognizer.build(monoid, k, gen_map, frozenset({1}))


# ---------------------------------------------------------------------------
# the decision procedure


class Verdict(_Value):
    """Outcome of the aperiodicity-modulo-reachability decision.

    ``witness`` is None for a positive verdict; otherwise a shortest
    generator word (ties broken by generator index, over one
    representative per (image, type) pair) whose reachability type is
    idempotent while its monoid image is not aperiodic."""

    aperiodic: bool
    arity: int
    witness: tuple[str, ...] | None
    element: int | None
    pairs_explored: int


def decide_aperiodic_mod_reachability(rec: Recognizer) -> Verdict:
    """Search the reachable (element, reachability type) pairs for an
    aperiodicity violation that survives the wiring abstraction.

    Generators with equal (image, type) pairs act identically, so the
    search runs over one representative per pair; the witness is then
    a genuinely shortest word.  Types are numbers in the alphabet's type
    graph: a type times a letter is one entry of the graph, composed the
    first time any search at this width asks for it and looked up after
    that.  A type number becomes a `ReachType` only to re-check a
    witness."""
    k = rec.arity
    alphabet = enumerate_generators(k)
    gm = rec.gen_dict()
    missing = [gid for gid in alphabet.ids if gid not in gm]
    unknown = sorted(set(gm) - set(alphabet.ids))
    for problem, gids in (
        ("does not map generators", missing),
        (f"maps generators outside the width-{k} alphabet", unknown),
    ):
        if gids:
            more = "..." if len(gids) > 4 else ""
            raise MonoidError(f"recognizer {problem} {gids[:4]}{more}")
    m = rec.monoid
    table = m.table
    graph = alphabet.types
    step = graph.step
    # one letter per (image, type) pair, the first by generator index
    letters: dict[tuple[int, int], str] = {}
    for gid, t in zip(alphabet.ids, graph.letters):
        letters.setdefault((gm[gid], t), gid)

    def mul(pair, letter):
        return table[pair[0]][letter[0]], step(pair[1], letter[1])

    words: dict[tuple[int, int], tuple[str, ...]] = {}
    gens = [(gid, key) for key, gid in letters.items()]
    for pair, parent, gid in _closure(letters, gens, mul):
        words[pair] = (letters[pair],) if gid is None else words[parent] + (gid,)
        el, t = pair
        if not is_aperiodic_element(m, el) and graph.idempotent(t):
            # every letter pair counts as explored before the first is tested
            explored = max(len(words), len(letters))
            return _violation_verdict(rec, words[pair], (el, graph.reach_type(t)), explored)
    return Verdict(True, rec.arity, None, None, len(words))


def _violation_verdict(rec, word, pair: tuple[int, ReachType], explored) -> Verdict:
    """The verdict for a witness word of the (element, type) pair,
    re-checked on the concrete semantics.  A failed re-check is a fault
    of the search, not of its input, so it raises RuntimeError."""
    el, rt = pair
    if beta(build_from_word(rec.arity, word)) != rt:
        raise RuntimeError("witness type mismatch")
    if recognizer_image(rec, word) != el:
        raise RuntimeError("witness image mismatch")
    if beta_compose(rt, rt) != rt or is_aperiodic_element(rec.monoid, el):
        raise RuntimeError("witness is not a violation")
    return Verdict(False, rec.arity, tuple(word), el, explored)


# ---------------------------------------------------------------------------
# semantic certification


class Certificate(_Value):
    """Evidence that an oracle keeps alternating along the powers of an
    idempotent-type context: values[i] is the oracle at power i+1, and
    from power `threshold` on the values strictly alternate."""

    oracle: str
    powers: int
    values: tuple[bool, ...]
    threshold: int


def _two_paths_hold(t: LinkageType) -> bool:
    """Some pattern puts left 1 and right 1 on one path component and
    left 2 and right 2 on another."""
    k = t.arity
    # left ports 1, 2 are positions 0, 1 (masks 1, 2) and t1, t2 name
    # right ports 1, 2; a flood over a forest's masks is one of its paths
    t1, t2 = (i if t.masks >> 2 * k + i & 1 else k + i for i in (0, 1))
    for forest in t.forests:
        one = _flood(forest, 1, ~0)
        if one >> t1 & 1 and not one & 2 and _flood(forest, 2, ~0) >> t2 & 1:
            return True
    return False


def _reach_holds(rt: ReachType) -> bool:
    """Left port 1 linked to right port 1 by an inner path."""
    return reaches(rt, ("L", 1), ("R", 1))


def oracle_inner_reach(ctx: Context) -> bool:
    """Left port 1 linked to right port 1 by an inner path."""
    return _reach_holds(beta(ctx))


def oracle_two_disjoint_paths(ctx: Context) -> bool:
    """Two vertex-disjoint paths: left 1 to right 1 and left 2 to
    right 2, read off the context's linkage type."""
    tau, _, holds = _two_paths_oracle(ctx, ctx)
    return holds(tau(ctx))


def _reach_oracle(first: Context, last: Context):
    """`oracle_inner_reach` on reachability types."""
    if first.arity < 1:
        raise MonoidError("the reach oracle needs arity at least 1")
    return beta, beta_compose, _reach_holds


def _two_paths_oracle(first: Context, last: Context):
    """`oracle_two_disjoint_paths` on linkage types, for products from ``first`` to ``last``."""
    if first.arity < 2:
        raise MonoidError("the disjoint-paths oracle needs arity at least 2")
    if None in first.left[:2] or None in last.right[:2]:
        raise MonoidError("ports 1 and 2 must be defined on both sides")
    return linkage_type, linkage_compose, _two_paths_hold


# a certificate holds one value per power, and the CLI prints them all
_MAX_POWER = 1_000_000

# Each oracle is a predicate on a finite type that composes like the
# contexts it abstracts: given a product's first and last factor, it
# returns (morphism, its composition, predicate).  The entries look the
# functions up when called, so they use the module's current bindings.
_ORACLES = {
    "reach": _reach_oracle,
    "two-disjoint-paths": _two_paths_oracle,
}


def certify_non_star_free(
    w: Context,
    oracle: str,
    x: Context | None = None,
    y: Context | None = None,
    max_power: int = 8,
) -> Certificate | None:
    """Evaluate the oracle on x . w^m . y for m = 1..max_power and look
    for persistent alternation.

    The powers are pumped on types, never on contexts: with tau the
    oracle's morphism, t_1 = tau(x) . tau(w), t_(m+1) = t_m . tau(w),
    and the value at power m is the predicate on t_m . tau(y).  The
    types are finitely many, so the sequence cycles from its first
    repeated t_m; composing stops there, and the cost is the index plus
    the period whatever ``max_power`` is.

    Requires beta(w) idempotent, so the interface abstraction of every
    power is the same and any alternation is invisible to reachability
    types.  Returns None when the observed values stabilise or the
    alternation starts too late to be convincing (threshold must leave
    at least four alternating steps, so ``max_power`` must be at least
    5; it is at most 1,000,000)."""
    if oracle not in _ORACLES:
        raise MonoidError(
            f"unknown oracle {oracle!r}; available: {sorted(_ORACLES)}"
        )
    if max_power < 5:
        raise MonoidError(
            f"max_power must be at least 5, got {max_power}"
        )
    if max_power > _MAX_POWER:
        raise MonoidError(f"max_power must be at most {_MAX_POWER:,}, got {max_power}")
    if x is not None and x.arity != w.arity:
        raise MonoidError("left dressing has wrong arity")
    if y is not None and y.arity != w.arity:
        raise MonoidError("right dressing has wrong arity")
    tau, mul, holds = _ORACLES[oracle](w if x is None else x, w if y is None else y)
    rt = beta(w)
    if beta_compose(rt, rt) != rt:
        raise MonoidError("the pumped context must have idempotent reachability type")
    step = tau(w)
    first = step if x is None else mul(tau(x), step)
    types, index = [first], {first: 0}
    repeat = None  # position in `types` of the first type met twice
    while repeat is None and len(types) < max_power:
        t = mul(types[-1], step)
        repeat = index.get(t)
        if repeat is None:
            index[t] = len(types)
            types.append(t)
    last = None if y is None else tau(y)
    values = [holds(t if last is None else mul(t, last)) for t in types]
    if repeat is not None:
        period = len(types) - repeat
        values += [values[repeat + i % period] for i in range(max_power - len(types))]
    threshold = _alternation_start(values)
    if threshold > max_power - 4:
        return None
    return Certificate(oracle, max_power, tuple(values), threshold)


def _alternation_start(values) -> int:
    """The least power m0 (1-based) from which ``values`` strictly
    alternates: one past the last pair of equal neighbours, or 1."""
    for i in range(len(values) - 1, 0, -1):
        if values[i] == values[i - 1]:
            return i + 1
    return 1


# ---------------------------------------------------------------------------
# serialisation


def monoid_to_json(m: FiniteMonoid) -> dict:
    out = {
        "size": m.size,
        "identity": m.identity,
        "table": [list(row) for row in m.table],
    }
    if m.zero is not None:
        out["zero"] = m.zero
    return out


def monoid_from_json(data) -> FiniteMonoid:
    _conform(data, MONOID_SHAPE, MonoidError, "monoid")
    m = FiniteMonoid.build(data["table"], data["identity"], data.get("zero"))
    if data.get("size", m.size) != m.size:
        raise MonoidError("declared size does not match the table")
    return m


def recognizer_to_json(rec: Recognizer) -> dict:
    return {
        "monoid": monoid_to_json(rec.monoid),
        "arity": rec.arity,
        "gen_map": {gid: el for gid, el in rec.gen_map},
        "accepting": sorted(rec.accepting),
    }


def recognizer_from_json(data) -> Recognizer:
    _conform(data, RECOGNIZER_SHAPE, MonoidError, "recognizer")
    return Recognizer.build(
        monoid_from_json(data["monoid"]),
        data["arity"],
        data["gen_map"],
        data["accepting"],
    )


def dump_recognizer(rec: Recognizer) -> str:
    return json.dumps(recognizer_to_json(rec), indent=2, sort_keys=True) + "\n"


def load_recognizer(path: str) -> Recognizer:
    return recognizer_from_json(_read_json(path, MonoidError))
