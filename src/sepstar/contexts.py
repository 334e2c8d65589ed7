"""Contexts: graphs with a left and a right port interface.

A context of width-index k has two partial injective maps from port
indices 1..k to vertices.  Composition glues the right interface of the
first operand to the left interface of the second, index by index;
interface vertices with no partner simply become ordinary vertices, so
composition is total.  A port index mapped to the same vertex on both
sides is *persistent*: that vertex survives the whole context.

The reachability type of a context records, for every pair of interface
references, whether they are linked by a path with no intermediate port
vertices ("inner" path).  Reachability types compose without looking at
the underlying graphs, which is what the recognizer machinery in
`sepstar.monoids` exploits.

A context is a vertex/edge core plus two interface tuples, so it runs
on the graph core of `sepstar.graphs`: the same validation, adjacency
cache, disjoint-set helper, canonical ordering engine, certificate
encoding and decoding, and JSON file reader.  Only the interface
handling and the colour keys that encode it live here; a context's
canonical rename is read back from its certificate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product

from .graphs import (
    CONTEXT_SHAPE,
    _adjacency,
    _certificate,
    _check_core,
    _conform,
    _decode_certificate,
    _DisjointSet,
    _read_json,
)

__all__ = [
    "ContextError",
    "Context",
    "ReachType",
    "identity_context",
    "compose",
    "compose_all",
    "persistent_ports",
    "inner_components",
    "bridges",
    "beta",
    "beta_compose",
    "reaches",
    "context_cert",
    "canonical_rename_context",
    "isomorphic_contexts",
    "GeneratorAlphabet",
    "enumerate_generators",
    "build_from_word",
    "crossing_context",
    "hub_context",
    "context_to_json",
    "context_from_json",
    "dump_context",
    "load_context",
]


class ContextError(ValueError):
    """Raised for malformed contexts and illegal compositions."""


# interfaces are arity-long tuples; the bound keeps a few bytes of
# input from asking for gigabytes
_MAX_ARITY = 1024


@dataclass(frozen=True)
class Context:
    """Immutable context; build instances with :meth:`Context.build`.

    ``left`` and ``right`` have one entry per port index (0-based
    internally, 1-based in all user-facing syntax); ``None`` marks an
    undefined index.
    """

    vertices: frozenset[str]
    edges: frozenset[tuple[str, str]]
    left: tuple[str | None, ...]
    right: tuple[str | None, ...]

    @staticmethod
    def build(vertices, edges, arity: int, left: dict, right: dict) -> "Context":
        vs, es = _check_core(vertices, edges, ContextError)
        if not isinstance(arity, int) or isinstance(arity, bool):
            raise ContextError(f"arity must be an integer, got {arity!r}")
        if not 0 <= arity <= _MAX_ARITY:
            raise ContextError(f"arity must lie in 0..{_MAX_ARITY}, got {arity}")

        def side(m: dict, name: str) -> tuple[str | None, ...]:
            out: list[str | None] = [None] * arity
            for key, v in m.items():
                try:
                    i = int(key)
                except (TypeError, ValueError):
                    raise ContextError(f"bad {name} index {key!r}") from None
                if not 1 <= i <= arity:
                    raise ContextError(f"{name} index {i} out of range 1..{arity}")
                if not isinstance(v, str) or v not in vs:
                    raise ContextError(f"{name} port {i} maps to unknown vertex {v!r}")
                out[i - 1] = v
            defined = [v for v in out if v is not None]
            if len(set(defined)) != len(defined):
                raise ContextError(f"{name} interface must be injective")
            return tuple(out)

        lt = side(left, "left")
        rt = side(right, "right")
        for i, v in enumerate(lt):
            if v is None:
                continue
            for j, w in enumerate(rt):
                if w == v and i != j:
                    raise ContextError(
                        f"vertex {v!r} is left port {i + 1} and right port {j + 1}"
                    )
        return Context(vs, es, lt, rt)

    @property
    def arity(self) -> int:
        return len(self.left)

    def left_map(self) -> dict[int, str]:
        return {i + 1: v for i, v in enumerate(self.left) if v is not None}

    def right_map(self) -> dict[int, str]:
        return {i + 1: v for i, v in enumerate(self.right) if v is not None}

    def port_vertices(self) -> frozenset[str]:
        return frozenset(v for v in self.left + self.right if v is not None)

    def neighbors(self, v: str) -> frozenset[str]:
        return _adjacency(self)[v]

    def __repr__(self) -> str:
        return (
            f"Context(n={len(self.vertices)}, m={len(self.edges)}, "
            f"left={self.left_map()}, right={self.right_map()})"
        )


def persistent_ports(w: Context) -> frozenset[int]:
    """Indices (1-based) whose left and right vertex coincide."""
    return frozenset(
        i + 1
        for i in range(w.arity)
        if w.left[i] is not None and w.left[i] == w.right[i]
    )


def identity_context(k: int) -> Context:
    if k < 1:
        raise ContextError("the identity context needs arity at least 1")
    names = {i + 1: f"p{i + 1}" for i in range(k)}
    return Context.build(names.values(), [], k, names, names)


# ---------------------------------------------------------------------------
# composition


def compose(u: Context, v: Context) -> Context:
    """Glue u's right interface to v's left interface.

    Total: where only one side defines an index, that vertex loses its
    port role.  Distinct operand vertices never collapse together
    (interfaces are injective), so the composite is again simple.
    """
    if u.arity != v.arity:
        raise ContextError(f"compose needs equal arities, got {u.arity}, {v.arity}")
    glued = _DisjointSet([("u", x) for x in u.vertices] + [("v", y) for y in v.vertices])
    for a, b in zip(u.right, v.left):
        if a is not None and b is not None:
            glued.union(("u", a), ("v", b))
    name_of = {nd: f"z{idx}" for idx, cls in enumerate(glued.classes()) for nd in cls}
    edges = [(name_of[("u", x)], name_of[("u", y)]) for (x, y) in u.edges]
    edges += [(name_of[("v", x)], name_of[("v", y)]) for (x, y) in v.edges]
    left = {i: name_of[("u", x)] for i, x in u.left_map().items()}
    right = {i: name_of[("v", y)] for i, y in v.right_map().items()}
    return Context.build(set(name_of.values()), edges, u.arity, left, right)


def compose_all(contexts) -> Context:
    """Left fold of compose; needs at least one operand."""
    items = list(contexts)
    if not items:
        raise ContextError("cannot compose an empty sequence")
    acc = items[0]
    for w in items[1:]:
        acc = compose(acc, w)
    return acc


# ---------------------------------------------------------------------------
# inner components and bridges


def inner_components(w: Context) -> tuple[frozenset[tuple[str, str]], ...]:
    """Partition the edges: two edges are together iff they are linked
    by shared non-port vertices (ports do not merge components).
    Components are ordered by their smallest edge."""
    ports = w.port_vertices()
    linked = _DisjointSet(w.edges)
    touching: dict[str, tuple[str, str]] = {}
    for e in w.edges:
        for x in e:
            if x not in ports:
                linked.union(e, touching.setdefault(x, e))
    return tuple(frozenset(c) for c in linked.classes())


def bridges(w: Context) -> tuple[frozenset[tuple[str, str]], ...]:
    """Inner components that span the context: they touch a left-port
    vertex and a right-port vertex and avoid persistent vertices.

    Components hanging off a persistent vertex do not count: a
    persistent vertex is available on both interfaces for free and
    never obstructs slicing the context into factors.
    """
    left_vs = frozenset(v for v in w.left if v is not None)
    right_vs = frozenset(v for v in w.right if v is not None)
    pers = frozenset(
        w.left[i - 1] for i in persistent_ports(w)
    )
    out = []
    for comp in inner_components(w):
        touched = {x for e in comp for x in e}
        if touched & pers:
            continue
        if touched & left_vs and touched & right_vs:
            out.append(comp)
    return tuple(out)


# ---------------------------------------------------------------------------
# reachability types

PortRef = tuple[str, int]  # ("L", i) or ("R", i), 1-based


def _norm_pair(p: PortRef, q: PortRef) -> tuple[PortRef, PortRef]:
    return (p, q) if p <= q else (q, p)


@dataclass(frozen=True)
class ReachType:
    """Interface-level abstraction of a context.

    ``reach`` holds unordered pairs of references linked by an inner
    path (no intermediate port vertices; length 0 allowed, so every
    persistent index links its own two references).  Reflexive pairs
    are stored for every defined reference.
    """

    arity: int
    left_defined: frozenset[int]
    right_defined: frozenset[int]
    persistent: frozenset[int]
    reach: frozenset[tuple[PortRef, PortRef]]

    def __post_init__(self):
        if not self.persistent <= self.left_defined & self.right_defined:
            raise ContextError("persistent indices must be defined on both sides")
        for (p, q) in self.reach:
            for side, i in (p, q):
                defined = self.left_defined if side == "L" else self.right_defined
                if i not in defined:
                    raise ContextError(f"reach pair uses undefined reference {(side, i)}")


def reaches(rt: ReachType, p: PortRef, q: PortRef) -> bool:
    return p == q or _norm_pair(p, q) in rt.reach


def beta(w: Context) -> ReachType:
    """The reachability type of a concrete context."""
    ports = w.port_vertices()
    inner = _DisjointSet(w.vertices - ports)
    for (x, y) in w.edges:
        if x not in ports and y not in ports:
            inner.union(x, y)
    adj = _adjacency(w)
    # the inner components each port vertex touches
    comp_sets = {
        p: frozenset(inner.find(x) for x in adj[p] if x not in ports) for p in ports
    }

    left, right = w.left_map(), w.right_map()
    refs = [(("L", i), v) for i, v in left.items()]
    refs += [(("R", j), v) for j, v in right.items()]
    pairs = set()
    for a, (p, vp) in enumerate(refs):
        for q, vq in refs[a:]:
            if vp == vq or vq in adj[vp] or comp_sets[vp] & comp_sets[vq]:
                pairs.add(_norm_pair(p, q))
    return ReachType(
        w.arity, frozenset(left), frozenset(right), persistent_ports(w), frozenset(pairs)
    )


def beta_compose(r1: ReachType, r2: ReachType) -> ReachType:
    """Compose two reachability types; matches beta of the composition.

    Interface references of the two operands are merged into classes
    (persistence links a context's own two references, gluing links
    right of the first to left of the second).  A class is a port of
    the composite iff it contains a left reference of the first operand
    or a right reference of the second.  Composite reachability is
    graph search over classes in which only non-port classes may be
    crossed.
    """
    if r1.arity != r2.arity:
        raise ContextError("reach types must have equal arity")
    nodes = (
        [("u", "L", i) for i in sorted(r1.left_defined)]
        + [("u", "R", i) for i in sorted(r1.right_defined)]
        + [("v", "L", i) for i in sorted(r2.left_defined)]
        + [("v", "R", i) for i in sorted(r2.right_defined)]
    )
    classes = _DisjointSet(nodes)
    find, union = classes.find, classes.union
    for i in r1.persistent:
        union(("u", "L", i), ("u", "R", i))
    for i in r2.persistent:
        union(("v", "L", i), ("v", "R", i))
    for i in r1.right_defined & r2.left_defined:
        union(("u", "R", i), ("v", "L", i))

    edges: dict[tuple, set[tuple]] = {find(nd): set() for nd in nodes}
    for side, rt in (("u", r1), ("v", r2)):
        for (p, q) in rt.reach:
            a, b = find((side, *p)), find((side, *q))
            edges[a].add(b)
            edges[b].add(a)

    is_port: dict[tuple, bool] = {r: False for r in edges}
    for nd in nodes:
        if nd[0] == "u" and nd[1] == "L":
            is_port[find(nd)] = True
        if nd[0] == "v" and nd[1] == "R":
            is_port[find(nd)] = True

    def cls(ref: PortRef) -> tuple:
        side, i = ref
        return find(("u", "L", i)) if side == "L" else find(("v", "R", i))

    out_refs = [("L", i) for i in sorted(r1.left_defined)] + [
        ("R", j) for j in sorted(r2.right_defined)
    ]
    reachable_from: dict[tuple, set[tuple]] = {}
    for ref in out_refs:
        start = cls(ref)
        if start in reachable_from:
            continue
        seen = {start}
        frontier = [start]
        reached = set()
        while frontier:
            c = frontier.pop()
            for nb in edges[c]:
                if nb in reached:
                    continue
                reached.add(nb)
                if not is_port[nb] and nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
        reachable_from[start] = reached

    pairs = set()
    for a in range(len(out_refs)):
        for b in range(a, len(out_refs)):
            p, q = out_refs[a], out_refs[b]
            cp, cq = cls(p), cls(q)
            if cp == cq or cq in reachable_from[cp]:
                pairs.add(_norm_pair(p, q))
    return ReachType(
        r1.arity,
        r1.left_defined,
        r2.right_defined,
        r1.persistent & r2.persistent,
        frozenset(pairs),
    )


# ---------------------------------------------------------------------------
# canonical forms


def _ctx_color_keys(w: Context) -> dict[str, str]:
    keys = {}
    lpos = {v: i + 1 for i, v in enumerate(w.left) if v is not None}
    rpos = {v: i + 1 for i, v in enumerate(w.right) if v is not None}
    for v in w.vertices:
        keys[v] = f"L{lpos.get(v, 0):03d}R{rpos.get(v, 0):03d}"
    return keys


@lru_cache(maxsize=None)
def context_cert(w: Context) -> bytes:
    """Equal for two contexts iff they are isomorphic (interfaces
    preserved index by index)."""
    return _certificate("c", w, _ctx_color_keys(w))


def _context_from_cert(cert: bytes) -> Context:
    """The context a certificate describes, its vertices named v0, v1,
    ... in canonical order, each with the ports its colour key names."""
    arity, keys, edges = _decode_certificate(cert)
    names = [f"v{i}" for i in range(len(keys))]
    left, right = {}, {}
    for v, key in zip(names, keys):
        i, j = map(int, key[1:].split("R"))  # as `_ctx_color_keys` wrote them
        if i:
            left[i] = v
        if j:
            right[j] = v
    edges = [(names[a], names[b]) for a, b in edges]
    return Context.build(names, edges, arity, left, right)


def canonical_rename_context(w: Context) -> Context:
    """Isomorphic copy with vertices named v0..v{n-1} in canonical order."""
    return _context_from_cert(context_cert(w))


def isomorphic_contexts(u: Context, v: Context) -> bool:
    if u.arity != v.arity or len(u.vertices) != len(v.vertices):
        return False
    return context_cert(u) == context_cert(v)


# ---------------------------------------------------------------------------
# the generator alphabet


@dataclass(frozen=True)
class GeneratorAlphabet:
    """Contexts with at most arity+1 vertices, one per isomorphism
    class, in a stable order with ids g0, g1, ..."""

    arity: int
    contexts: tuple[Context, ...]

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(f"g{i}" for i in range(len(self.contexts)))

    def by_id(self, gid: str) -> Context:
        if not gid.startswith("g"):
            raise ContextError(f"unknown generator id {gid!r}")
        try:
            idx = int(gid[1:])
            return self.contexts[idx]
        except (ValueError, IndexError):
            raise ContextError(f"unknown generator id {gid!r}") from None

    def __len__(self) -> int:
        return len(self.contexts)


def _orbits(items, group, act):
    """One representative per orbit of the permutation ``group`` on
    ``items``, each with its stabiliser: the first member of an orbit to
    come up is its representative, and every image of it is marked seen."""
    seen = set()
    for x in items:
        if x not in seen:
            images = [act(p, x) for p in group]
            seen.update(images)
            yield x, [p for p, y in zip(group, images) if y == x]


def _edge_image(p, edges):
    return frozenset((p[a], p[b]) if p[a] < p[b] else (p[b], p[a]) for a, b in edges)


def _interface_image(p, sides):
    return tuple(tuple(None if v is None else p[v] for v in side) for side in sides)


def _interface_pairs(k: int, n: int) -> list:
    """All (left, right) pairs of partial injections from port slots
    0..k-1 into vertices 0..n-1, None marking an undefined slot, in
    which no vertex is left port i and right port j for i != j."""
    sides = []
    for side in product([None, *range(n)], repeat=k):
        defined = [v for v in side if v is not None]
        if len(set(defined)) == len(defined):
            sides.append(side)
    return [
        (left, right)
        for left in sides
        for right in sides
        if all(
            v is None or v not in right or right[i] == v for i, v in enumerate(left)
        )
    ]


@lru_cache(maxsize=None)
def enumerate_generators(k: int) -> GeneratorAlphabet:
    """The width-k generator alphabet.

    Every context of pathwidth at most k factors into these (at most
    k+1 vertices each); conversely any product of them has pathwidth at
    most k.

    The alphabet is generated orbit by orbit, so only one context per
    isomorphism class is ever canonicalised.  For each n <= k+1 the edge
    sets on vertices 0..n-1 are split into orbits under all n!
    relabellings, and each orbit's representative keeps its automorphism
    group.  For each such graph, the conflict-free pairs of partial
    injective interfaces (no vertex is left port i and right port j for
    i != j) are split into orbits under that group.  Two contexts on the
    same vertex count are isomorphic exactly when their graphs are and
    an automorphism carries one pair of interfaces onto the other, so
    these orbits are the isomorphism classes.  Each representative is
    certified once and replaced by the canonical context its certificate
    describes; letters are ordered by vertex count, then certificate.
    """
    if not 1 <= k <= _MAX_ARITY:
        raise ContextError(f"generator alphabets need arity in 1..{_MAX_ARITY}")
    certs = []
    for n in range(1, k + 2):
        names = [f"v{i}" for i in range(n)]
        pairs = list(combinations(range(n), 2))
        edge_sets = (
            frozenset(e for i, e in enumerate(pairs) if bits >> i & 1)
            for bits in range(1 << len(pairs))
        )
        interfaces = _interface_pairs(k, n)

        def ports(side):
            return {i + 1: names[v] for i, v in enumerate(side) if v is not None}

        group = list(permutations(range(n)))
        for edges, automorphisms in _orbits(edge_sets, group, _edge_image):
            es = [(names[a], names[b]) for a, b in edges]
            for (lt, rt), _ in _orbits(interfaces, automorphisms, _interface_image):
                w = Context.build(names, es, k, ports(lt), ports(rt))
                certs.append((n, context_cert(w)))
    certs.sort()
    return GeneratorAlphabet(k, tuple(_context_from_cert(c) for _, c in certs))


def build_from_word(k: int, word) -> Context:
    """Compose generators by id ('g12') or inline Context objects."""
    alphabet = enumerate_generators(k)
    items = []
    for w in word:
        if isinstance(w, str):
            items.append(alphabet.by_id(w))
        elif isinstance(w, Context):
            if w.arity != k:
                raise ContextError("word letters must all have the target arity")
            items.append(w)
        else:
            raise ContextError(f"bad word letter {w!r}")
    return compose_all(items)


# ---------------------------------------------------------------------------
# fixtures


def crossing_context() -> Context:
    """Two disjoint wires that swap sides: left 1 connects to right 2's
    partner and vice versa.  Its reachability type squares to the
    identity pattern, which makes powers alternate."""
    return Context.build(
        ["a", "b", "c", "d"],
        [("a", "d"), ("b", "c")],
        2,
        {1: "a", 2: "b"},
        {1: "c", 2: "d"},
    )


def hub_context() -> Context:
    """The crossing plus a central hub adjacent to all four interface
    vertices.  All interface references reach each other, so the
    reachability type is idempotent, yet the parity of the number of
    copies decides whether two disjoint crossing-free paths exist."""
    return Context.build(
        ["a", "b", "c", "d", "z"],
        [("a", "d"), ("b", "c"), ("a", "z"), ("b", "z"), ("z", "c"), ("z", "d")],
        2,
        {1: "a", 2: "b"},
        {1: "c", 2: "d"},
    )


# ---------------------------------------------------------------------------
# serialisation


def context_to_json(w: Context) -> dict:
    return {
        "vertices": sorted(w.vertices),
        "edges": sorted([x, y] for (x, y) in w.edges),
        "arity": w.arity,
        "left": {str(i): v for i, v in w.left_map().items()},
        "right": {str(i): v for i, v in w.right_map().items()},
    }


def context_from_json(data) -> Context:
    _conform(data, CONTEXT_SHAPE, ContextError, "context")
    return Context.build(
        data["vertices"],
        data.get("edges", ()),
        data["arity"],
        data.get("left", {}),
        data.get("right", {}),
    )


def dump_context(w: Context) -> str:
    return json.dumps(context_to_json(w), indent=2, sort_keys=True) + "\n"


def load_context(path: str) -> Context:
    return context_from_json(_read_json(path, ContextError))
