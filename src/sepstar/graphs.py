"""Undirected graphs with an ordered tuple of distinguished ports.

Every other module builds on this one: formulas are evaluated on port
graphs, star-free expressions denote sets of them, and contexts are
port graphs with two interfaces.  The conventions that matter:

* graphs are simple (no loops, no multi-edges) and nonempty,
* ports are pairwise distinct vertices; their order is significant,
* vertices may carry an optional string label.

Isomorphism respects ports positionally and labels exactly.  The
canonical form is computed by colour refinement plus an
individualisation search, which is exact (not just a heuristic) and
fast at the sizes this library works with.

This module is also the graph core that contexts
(`sepstar.contexts`) and path decompositions (`sepstar.pathdecomp`)
reuse: the `_Value` base of the library's frozen value classes,
vertex/edge validation, the `_Core` base class that holds the
vertices and edges and computes each object's neighbour sets once, the
component labelling, the canonical search with its certificate
encoding and decoding, and the JSON file reader all live here and take
any object with ``vertices``, ``edges`` and ``arity``.  A canonical
rename is read back from the certificate.
"""

from __future__ import annotations

import json
import re
import reprlib
from functools import cached_property, lru_cache
from itertools import combinations, groupby, permutations, product
from operator import attrgetter

__all__ = [
    "GraphError",
    "PortGraph",
    "connected_components",
    "separator_holds",
    "fuse",
    "forget",
    "add_port",
    "permute",
    "ports_only",
    "prime_factors",
    "canonical_cert",
    "canonical_rename",
    "isomorphic",
    "graph_to_json",
    "graph_from_json",
    "dump_graph",
    "load_graph",
    "encode_word",
]


class GraphError(ValueError):
    """Raised for malformed graphs or illegal graph operations."""


# ---------------------------------------------------------------------------
# the shared core


class _Value:
    """Base of the library's frozen value classes: formulas, expressions,
    graphs, contexts, types, monoids and their results.

    A subclass names its fields by annotating them in its body, after
    those of its bases; a class attribute of the same name is the
    field's default, and fields with defaults come last.  From the
    fields the base gives positional construction, ``__match_args__``,
    ``==`` between objects of one class, field by field in order,
    ``hash`` over the tuple of the fields, a ``Name(field=value, ...)``
    repr and assignment that raises.  A value derived from the fields
    is no field: ``==``, ``hash`` and the repr do not see it.  Each
    class gets its ``==`` and ``hash`` as closures over its fields, so
    nothing is compiled when the library is imported.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        own = [n for n in vars(cls).get("__annotations__", ()) if n not in cls._fields]
        cls._fields = cls.__match_args__ = fields = cls._fields + tuple(own)
        cls._required = len(fields) - sum(hasattr(cls, n) for n in fields)
        if not fields:  # an abstract base, such as Formula
            return
        get = attrgetter(*fields)
        # a class of one field compares that field itself, in no tuple,
        # so a nest of such nodes costs the least stack per level; the
        # fields of any other class come as one tuple, compared in order
        one = len(fields) == 1

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            mine, theirs = get(self), get(other)
            return mine is theirs or mine == theirs

        def __hash__(self):
            return hash((get(self),) if one else get(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __init__(self, *values):
        fields = self._fields
        if len(values) != len(fields) and not self._required <= len(values) < len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, got {len(values)}")
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen value")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen value")


def _check_core(vertices, edges, error):
    """Validate a vertex/edge core and normalise edges to sorted pairs,
    raising the caller's exception class ``error``."""
    try:
        vs = frozenset(vertices)
    except TypeError:
        raise error("vertex names must be strings") from None
    if not vs:
        raise error("at least one vertex is required")
    for v in vs:
        if not isinstance(v, str):
            raise error(f"vertex names must be strings, got {v!r}")
    es = set()
    for (u, v) in edges:
        if not (isinstance(u, str) and isinstance(v, str) and u in vs and v in vs):
            raise error(f"edge ({u!r}, {v!r}) uses unknown vertices")
        if u == v:
            raise error(f"loop edge at {u!r}")
        es.add((u, v) if u < v else (v, u))
    return vs, frozenset(es)


class _Core(_Value):
    """The vertices and normalised edges a port graph and a context
    share, with the neighbour sets derived from them once per object."""

    vertices: frozenset[str]
    edges: frozenset[tuple[str, str]]

    @cached_property
    def adjacency(self) -> dict[str, frozenset[str]]:
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for (u, v) in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return {v: frozenset(ns) for v, ns in adj.items()}

    def neighbors(self, v: str) -> frozenset[str]:
        return self.adjacency[v]


def _unique_keys(pairs) -> dict:
    """A JSON object's pairs as a dict; raises ValueError on a key given
    twice, which a dict would keep silently as its last value."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"key {key!r} is given twice")
        out[key] = value
    return out


def _read_json(path: str, error):
    """Parse a JSON file, raising ``error`` when the text is not JSON or
    an object gives a key twice."""
    with open(path) as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:
            raise error(f"{path}: not valid JSON ({exc})") from None


# The file formats, declared once.  A shape reads like the data it
# describes: a type (``int`` excludes booleans, ``object`` admits any
# value and leaves it to ``build``), ``[shape]`` for a list,
# ``(shape, ...)`` for a list of fixed length, ``{str: shape}`` for an
# object with free keys, and ``{"name": shape}`` for a record whose
# names ending in ``?`` are optional and which admits no other name.
# The ``build`` methods behind the loaders still check what a shape
# cannot say: that names are known vertices, indices lie in range, and
# so on.
GRAPH_SHAPE = {
    "vertices": [str],
    "edges?": [(str, str)],
    "ports?": [str],
    "labels?": {str: str},
}
CONTEXT_SHAPE = {
    "vertices": [str],
    "edges?": [(str, str)],
    "arity": int,
    "left?": {str: str},
    "right?": {str: str},
}
# a null zero means "no zero"; a declared size must equal the table's
MONOID_SHAPE = {"table": [[int]], "identity": int, "zero?": object, "size?": object}
RECOGNIZER_SHAPE = {
    "monoid": MONOID_SHAPE,
    "arity": int,
    "gen_map": {str: int},
    "accepting": [int],
}
# `sepstar pathwidth --json` output doubles as a decomposition file
BAGS_SHAPE = {"bags": [[str]], "pathwidth?": int}
SPLIT_SHAPE = {"x?": [str], "y?": [str]}

# contexts' interfaces and compiled expressions' ports are arity-long;
# the bound keeps a few bytes of input from asking for gigabytes
_MAX_ARITY = 1024

_NOUNS = {str: "a string", int: "an integer", list: "a list", dict: "an object"}


def _conform(value, shape, error, where: str) -> None:
    """Check parsed JSON against a shape, raising ``error`` at the first
    mismatch with its path from ``where``, as in ``graph.edges[3]``."""
    if isinstance(shape, type):
        if not isinstance(value, (list, tuple) if shape is list else shape) or (
            shape is int and isinstance(value, bool)
        ):
            raise error(f"{where} must be {_NOUNS[shape]}, got {reprlib.repr(value)}")
        # JSON can spell a lone surrogate, but no output can print one
        if shape is str and any("\ud800" <= c <= "\udfff" for c in value):
            raise error(f"{where} is not valid Unicode, got {value!r}")
    elif isinstance(shape, dict) and str in shape:
        _conform(value, dict, error, where)
        for key, item in value.items():
            _conform(item, shape[str], error, f"{where}[{key!r}]")
    elif isinstance(shape, dict):
        _conform(value, dict, error, where)
        names = {name.rstrip("?"): name for name in shape}
        extra = sorted(set(value) - set(names))
        if extra:
            raise error(f"{where} has unknown fields {extra}")
        for name, key in names.items():
            if name in value:
                _conform(value[name], shape[key], error, f"{where}.{name}")
            elif name == key:
                article = "an" if name[0] in "aeiou" else "a"
                raise error(f"{where} needs {article} {name!r} field")
    else:
        _conform(value, list, error, where)
        subs = shape * len(value) if isinstance(shape, list) else shape
        if len(value) != len(subs):
            raise error(f"{where} must be a list of {len(subs)}, got {reprlib.repr(value)}")
        for i, (item, sub) in enumerate(zip(value, subs)):
            _conform(item, sub, error, f"{where}[{i}]")


class PortGraph(_Core):
    """Immutable graph with ports.

    Do not call the constructor with unnormalised data; use
    :meth:`PortGraph.build`, which validates and normalises.
    ``labels`` is stored as a sorted tuple of (vertex, label) pairs so
    the whole object is hashable.
    """

    ports: tuple[str, ...]
    labels: tuple[tuple[str, str], ...] = ()

    @staticmethod
    def build(
        vertices,
        edges=(),
        ports=(),
        labels=None,
    ) -> "PortGraph":
        vs, es = _check_core(vertices, edges, GraphError)
        pt = tuple(ports)
        for p in pt:
            if not isinstance(p, str) or p not in vs:
                raise GraphError(f"port {p!r} is not a vertex")
        if len(set(pt)) != len(pt):
            raise GraphError("ports must be pairwise distinct")
        lab = dict(labels or {})
        for v, c in lab.items():
            if v not in vs:
                raise GraphError(f"label on unknown vertex {v!r}")
            if not isinstance(c, str):
                raise GraphError(f"labels must be strings, got {c!r}")
        return PortGraph(vs, es, pt, tuple(sorted(lab.items())))

    @property
    def arity(self) -> int:
        return len(self.ports)

    @property
    def label_map(self) -> dict[str, str]:
        return dict(self.labels)

    def label_of(self, v: str) -> str | None:
        return dict(self.labels).get(v)

    def has_edge(self, u: str, v: str) -> bool:
        if u == v:
            return False
        return ((u, v) if u < v else (v, u)) in self.edges

    def __repr__(self) -> str:  # keep test failures readable
        return (
            f"PortGraph(n={len(self.vertices)}, m={len(self.edges)}, "
            f"ports={self.ports})"
        )


# ---------------------------------------------------------------------------
# connectivity and separators


def _numbering(g: _Core) -> tuple[dict[str, int], tuple[int, ...]]:
    """The index data of a graph core: its vertices numbered 0..n-1 in
    sorted-name order, as the number of each name (in that order), and
    the adjacency bitmask of each number."""
    at = {v: i for i, v in enumerate(sorted(g.vertices))}
    adj = [0] * len(at)
    for u, v in g.edges:
        adj[at[u]] |= 1 << at[v]
        adj[at[v]] |= 1 << at[u]
    return at, tuple(adj)


def _flood(adj, seed: int, alive: int) -> int:
    """The mask of the vertices that the vertices of the mask ``seed``
    reach in the subgraph induced on the mask ``alive``, which holds
    ``seed``: for one seed vertex, its component there."""
    reached = todo = seed
    while todo:
        v = todo.bit_length() - 1
        todo ^= 1 << v
        grow = adj[v] & alive & ~reached
        reached |= grow
        todo |= grow
    return reached


def _components(g: _Core, removed=()) -> tuple[frozenset[str], ...]:
    """The vertex sets of the components of g minus the vertices
    ``removed``, ordered by their smallest vertex name."""
    at, adj = _numbering(g)
    alive = (1 << len(at)) - 1 & ~sum({1 << at[v] for v in removed})
    out = []
    while alive:
        comp = _flood(adj, alive & -alive, alive)
        alive &= ~comp
        out.append(frozenset(v for v, i in at.items() if comp >> i & 1))
    return tuple(out)


def connected_components(g: PortGraph) -> tuple[frozenset[str], ...]:
    """Components as vertex sets, ordered by their smallest vertex name."""
    return _components(g)


def separator_holds(g: PortGraph, x: str, y: str, zs) -> bool:
    """Does the vertex set ``zs`` separate ``x`` from ``y``?

    Convention for the degenerate cases: the atom holds whenever x or y
    is itself in ``zs``; with x and y both outside ``zs`` it holds iff
    they lie in different components of the graph minus ``zs``.  In
    particular a vertex is never separated from itself by a set that
    does not contain it.
    """
    removed = frozenset(zs)
    for v in (x, y, *removed):
        if v not in g.vertices:
            raise GraphError(f"unknown vertex {v!r}")
    if x in removed or y in removed:
        return True
    at, adj = _numbering(g)
    alive = (1 << len(at)) - 1 & ~sum(1 << at[z] for z in removed)
    return not _flood(adj, 1 << at[x], alive) >> at[y] & 1


# ---------------------------------------------------------------------------
# the four width operations


def fuse(g: PortGraph, h: PortGraph) -> PortGraph:
    """Glue two graphs of equal arity along their ports, positionwise.

    Port i of the result is the identified pair (port i of g, port i of
    h); edges accumulate.  Non-port vertices of the operands are kept
    apart.  Labels must agree on identified ports.
    """
    if g.arity != h.arity:
        raise GraphError(f"fuse needs equal arities, got {g.arity} and {h.arity}")
    k = g.arity
    gmap = {}
    for v in g.vertices:
        gmap[v] = f"a.{v}"
    hmap = {}
    for v in h.vertices:
        hmap[v] = f"b.{v}"
    for i in range(k):
        name = f"p{i + 1}"
        gmap[g.ports[i]] = name
        hmap[h.ports[i]] = name
    glab = {gmap[v]: c for v, c in g.labels}
    hlab = {hmap[v]: c for v, c in h.labels}
    for v, c in hlab.items():
        if v in glab and glab[v] != c:
            raise GraphError(f"label clash on fused port {v!r}")
    glab.update(hlab)
    verts = set(gmap.values()) | set(hmap.values())
    edges = [(gmap[u], gmap[v]) for (u, v) in g.edges]
    edges += [(hmap[u], hmap[v]) for (u, v) in h.edges]
    ports = tuple(f"p{i + 1}" for i in range(k))
    return PortGraph.build(verts, edges, ports, glab)


def forget(g: PortGraph) -> PortGraph:
    """Demote the last port to an ordinary vertex."""
    if g.arity == 0:
        raise GraphError("forget on a graph with no ports")
    return PortGraph.build(g.vertices, g.edges, g.ports[:-1], dict(g.labels))


def add_port(g: PortGraph, name: str | None = None) -> PortGraph:
    """Append a fresh isolated vertex as a new last port."""
    if name is None:
        i = len(g.vertices)
        while f"q{i}" in g.vertices:
            i += 1
        name = f"q{i}"
    if name in g.vertices:
        raise GraphError(f"vertex {name!r} already present")
    return PortGraph.build(
        g.vertices | {name}, g.edges, g.ports + (name,), dict(g.labels)
    )


def permute(g: PortGraph, perm: tuple[int, ...]) -> PortGraph:
    """Reorder ports: new port i is old port perm[i] (1-based)."""
    if sorted(perm) != list(range(1, g.arity + 1)):
        raise GraphError(f"{perm!r} is not a permutation of 1..{g.arity}")
    ports = tuple(g.ports[i - 1] for i in perm)
    return PortGraph.build(g.vertices, g.edges, ports, dict(g.labels))


# ---------------------------------------------------------------------------
# factorisation


def ports_only(g: PortGraph) -> PortGraph | None:
    """The sub-graph induced on the ports, or None at arity 0."""
    if g.arity == 0:
        return None
    pset = set(g.ports)
    edges = {e for e in g.edges if e[0] in pset and e[1] in pset}
    labels = {v: c for v, c in g.labels if v in pset}
    return PortGraph.build(pset, edges, g.ports, labels)


def nonport_classes(g: PortGraph) -> tuple[frozenset[str], ...]:
    """Group non-port vertices: two are together iff connected in g minus
    ports.  Classes are ordered by their smallest vertex name."""
    return _components(g, g.ports)


def prime_factors(g: PortGraph) -> tuple[PortGraph, ...]:
    """Fuse-prime factors of g: one per class of non-port vertices.

    Each factor is induced on the ports plus one class (port-port edges
    included in every factor).  Fusing all factors, or the port
    skeleton alone when there are none, reconstructs g up to
    isomorphism.
    """
    classes = nonport_classes(g)
    out = []
    for cls in classes:
        keep = cls | set(g.ports)
        edges = {e for e in g.edges if e[0] in keep and e[1] in keep}
        labels = {v: c for v, c in g.labels if v in keep}
        out.append(PortGraph.build(keep, edges, g.ports, labels))
    return tuple(out)


# ---------------------------------------------------------------------------
# canonical forms

# The engine works on an indexed view: vertices 0..n-1, an adjacency
# bitmask per vertex, and a sortable colour key per vertex.  Ports and
# labels are baked into the colour keys, so plain colour-respecting
# isomorphism on the indexed view is exactly port-and-label-respecting
# isomorphism on the original graph.


def _refine_colors(n: int, adj: list[int], colors: list[int]) -> list[int]:
    while True:
        sigs = []
        for v in range(n):
            row = adj[v]
            nbr = sorted(colors[u] for u in range(n) if row >> u & 1)
            sigs.append((colors[v], tuple(nbr)))
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _encode(n: int, adj: list[int], keys: list[str], perm: list[int]) -> bytes:
    bits = []
    for i in range(n):
        for j in range(i + 1, n):
            bits.append("1" if adj[perm[i]] >> perm[j] & 1 else "0")
    payload = "|".join(keys[v] for v in perm) + "#" + "".join(bits)
    return payload.encode()


# Up to five vertices the encoding is the minimum over every
# colour-respecting order.  Such an order lists the colour classes in
# key order, so the text before ``#`` is the same for all of them, and
# the minimum is that of the upper triangle read as one integer, the
# first pair the most significant bit.  `_small_minimum` takes it over
# all orders at once, through tables filled on first use, one per tuple
# of colour-class sizes (a composition of n <= 5, 32 in all).
_SMALL_PAIRS = [list(combinations(range(n), 2)) for n in range(6)]
_SMALL_TABLES: dict[tuple[int, ...], tuple[list, list[list[int]]]] = {}


def _small_table(sizes: tuple[int, ...]) -> tuple[list, list[list[int]]]:
    """The colour-respecting orders for these class sizes, the first
    class varying slowest and each in `permutations` order, and a row
    for each output pair of `_SMALL_PAIRS`: at the two-bit mask of any
    two positions, the mask of the orders that put them at that pair."""
    table = _SMALL_TABLES.get(sizes)
    if table is None:
        orders = [()]
        for size in sizes:
            block = range(len(orders[0]), len(orders[0]) + size)
            orders = [o + p for o in orders for p in permutations(block)]
        n = len(orders[0])
        masks = [[0] * (1 << n) for _ in _SMALL_PAIRS[n]]
        for bit, o in enumerate(orders):
            for row, (a, b) in zip(masks, _SMALL_PAIRS[n]):
                row[1 << o[a] | 1 << o[b]] |= 1 << bit
        table = _SMALL_TABLES[sizes] = orders, masks
    return table


def _small_minimum(
    adj: list[int], pos: list[int], sizes: tuple[int, ...]
) -> tuple[str, list[int]]:
    """The least upper triangle over the colour-respecting orders of a
    graph on at most five vertices, as ``0``/``1`` text, and the first
    order to reach it, as vertices.  Position p holds vertex pos[p],
    the colour classes of the given sizes in key order.  One mask holds
    the orders still minimal; walking the pairs from the first, a
    pair's bit is 0 if some of them give it no edge, and they narrow
    to those."""
    orders, masks = _small_table(sizes)
    pairs = _SMALL_PAIRS[len(pos)]
    edges = [1 << i | 1 << j for i, j in pairs if adj[pos[i]] >> pos[j] & 1]
    alive = (1 << len(orders)) - 1
    tri = []
    for row in masks:
        if not alive & alive - 1:
            break  # one order is left, and the rest is read off it
        ones = 0
        for t in edges:
            ones |= row[t]
        zero = alive & ~ones  # the minimal orders that give no edge
        tri.append("0" if zero else "1")
        alive = zero or alive
    order = [pos[p] for p in orders[(alive & -alive).bit_length() - 1]]
    tri += ("1" if adj[order[a]] >> order[b] & 1 else "0" for a, b in pairs[len(tri) :])
    return "".join(tri), order


def _search_canonical(
    n: int, adj: list[int], keys: list[str]
) -> tuple[bytes, list[int]]:
    """The canonical encoding and a vertex ordering that attains it:
    the minimum over all colour-respecting orders up to five vertices
    (the first such order to reach it), over the leaves of the
    refinement search above that."""
    base = {k: i for i, k in enumerate(sorted(set(keys)))}
    init = [base[k] for k in keys]

    if n <= 5:
        # the colour classes in key order, each in index order
        pos = sorted(range(n), key=init.__getitem__)
        sizes = tuple(init.count(c) for c in range(len(base)))
        tri, order = _small_minimum(adj, pos, sizes)
        return ("|".join(keys[v] for v in pos) + "#" + tri).encode(), order

    best: tuple[bytes, list[int]] | None = None

    def rec(colors: list[int]) -> None:
        nonlocal best
        colors = _refine_colors(n, adj, colors)
        groups: dict[int, list[int]] = {}
        for v in range(n):
            groups.setdefault(colors[v], []).append(v)
        target = None
        for c in sorted(groups):
            if len(groups[c]) > 1:
                target = groups[c]
                break
        if target is None:
            perm = sorted(range(n), key=lambda v: colors[v])
            enc = _encode(n, adj, keys, perm)
            if best is None or enc < best[0]:
                best = (enc, perm)
            return
        # candidates up to swap automorphisms visible right now
        chosen: list[int] = []
        for u in target:
            dup = False
            for w in chosen:
                if adj[u] & ~(1 << w) == adj[w] & ~(1 << u):
                    dup = True
                    break
            if not dup:
                chosen.append(u)
        for u in chosen:
            child = [c * 2 for c in colors]
            child[u] -= 1
            rec(child)

    rec(init)
    return best  # type: ignore[return-value]


def _index_certificate(tag: str, arity: int, adj: list[int], keys: list[str]) -> bytes:
    """Certificate of the coloured graph on vertices 0..n-1 with
    adjacency bitmasks ``adj`` and colour keys ``keys``: ``tag;n;arity;``
    then the canonical encoding: the keys in canonical order joined by
    ``|``, ``#``, then the upper triangle of the adjacency matrix in that
    order.  `_search_canonical` makes it isomorphism-invariant, so two
    coloured graphs get equal certificates iff they are isomorphic."""
    enc, _ = _search_canonical(len(keys), adj, keys)
    return f"{tag};{len(keys)};{arity};".encode() + enc


def _certificate(tag: str, g, keys: dict[str, str]) -> bytes:
    """Certificate of a port graph or context coloured by ``keys``."""
    at, adj = _numbering(g)
    return _index_certificate(tag, g.arity, adj, [keys[v] for v in at])


def _decode_certificate(cert: bytes) -> tuple[int, list[str], list[tuple[int, int]]]:
    """Undo `_index_certificate`: the arity, the colour keys in canonical
    order, and the edges as pairs of positions in that order.  No key
    holds ``|`` or ``#``: `_graph_keys` escapes them in labels, and
    `sepstar.contexts` writes port indices only."""
    _, n, arity, encoding = cert.decode().split(";", 3)
    keys, bits = encoding.split("#")
    pairs = combinations(range(int(n)), 2)
    return int(arity), keys.split("|"), [e for e, b in zip(pairs, bits) if b == "1"]


# A label goes into its colour key with ``\``, ``|`` and ``#`` escaped,
# so that certificates split back into their keys, and the empty label
# is written ``\e``, apart from no label at all.
_LABEL_ESCAPES = str.maketrans({"\\": "\\\\", "|": "\\p", "#": "\\h"})
_LABEL_UNESCAPES = {"\\": "\\", "p": "|", "h": "#", "e": ""}


def _graph_keys(vertices, ports, labels: dict) -> dict:
    """The colour key of each vertex of a port graph, in the order of
    ``vertices``: its port position, if any, and its escaped label."""
    text = {v: c.translate(_LABEL_ESCAPES) if c else "\\e" for v, c in labels.items()}
    keys = {v: f"v:{text.get(v, '')}" for v in vertices}
    for i, p in enumerate(ports):
        keys[p] = f"P{i:03d}:{text.get(p, '')}"
    return keys


def _port_certificate(adj, ports) -> bytes:
    """The certificate of the unlabelled port graph on vertices 0..n-1
    with adjacency bitmasks ``adj`` and the given port indices, as
    `canonical_cert` gives it.  Up to five vertices it is written
    straight from the colour classes of `_graph_keys`, in key order:
    each port alone, in port order, then every other vertex."""
    n, k = len(adj), len(ports)
    if n > 5:
        keys = _graph_keys(range(n), ports, {})
        return _index_certificate("g", k, adj, list(keys.values()))
    pos = ports + tuple(v for v in range(n) if v not in ports)
    tri, _ = _small_minimum(adj, pos, (1,) * k + ((n - k,) if n > k else ()))
    keys = "|".join([f"P{i:03d}:" for i in range(k)] + ["v:"] * (n - k))
    return f"g;{n};{k};{keys}#{tri}".encode()


def _keyed_certificates(tag: str, arity: int, keys: list[str], triangles: dict) -> list[bytes]:
    """The certificate of each coloured graph, up to isomorphism, on the
    n <= 5 vertices whose colour keys, sorted, are ``keys``: the keys,
    ``#``, and each triangle that `_small_minimum` keeps, least among
    its images under the orders that permute each colour class.  The
    triangles depend only on the class sizes; ``triangles`` keeps them."""
    n = len(keys)
    sizes = tuple(len(list(run)) for _, run in groupby(keys))
    if sizes not in triangles:
        pairs = _SMALL_PAIRS[n]
        tris = ["".join(bits) for bits in product("01", repeat=len(pairs))]
        if len(sizes) < n:  # else there is one order, and it keeps them all
            kept = []
            for tri in tris:
                adj = [0] * n
                for (a, b), bit in zip(pairs, tri):
                    adj[a] |= int(bit) << b
                    adj[b] |= int(bit) << a
                if _small_minimum(adj, range(n), sizes)[0] == tri:
                    kept.append(tri)
            tris = kept
        triangles[sizes] = [tri.encode() for tri in tris]
    head = f"{tag};{n};{arity};{'|'.join(keys)}#".encode()
    return [head + tri for tri in triangles[sizes]]


@lru_cache(maxsize=None)
def canonical_cert(g: PortGraph) -> bytes:
    """A bytestring equal for two graphs iff they are isomorphic."""
    return _certificate("g", g, _graph_keys(g.vertices, g.ports, g.label_map))


def canonical_rename(g: PortGraph) -> PortGraph:
    """Isomorphic copy with vertices named v0..v{n-1} in canonical order,
    read back from its certificate."""
    arity, keys, edges = _decode_certificate(canonical_cert(g))
    names = [f"v{i}" for i in range(len(keys))]
    ports = [""] * arity
    labels = {}
    for v, key in zip(names, keys):
        head, text = key.split(":", 1)  # as `_graph_keys` wrote them
        if head != "v":
            ports[int(head[1:])] = v
        if text:
            labels[v] = re.sub(r"\\(.)", lambda m: _LABEL_UNESCAPES[m[1]], text)
    edges = [(names[a], names[b]) for a, b in edges]
    return PortGraph.build(names, edges, ports, labels)


def isomorphic(g: PortGraph, h: PortGraph) -> bool:
    if g.arity != h.arity or len(g.vertices) != len(h.vertices):
        return False
    if len(g.edges) != len(h.edges):
        return False
    if sorted(c for _, c in g.labels) != sorted(c for _, c in h.labels):
        return False
    return canonical_cert(g) == canonical_cert(h)


# ---------------------------------------------------------------------------
# serialisation

# Graph files are JSON objects of GRAPH_SHAPE.  dump_graph writes a
# canonical text form (sorted keys, sorted lists), so
# dump(load(dump(g))) == dump(g) byte for byte.


def graph_to_json(g: PortGraph) -> dict:
    out: dict = {
        "vertices": sorted(g.vertices),
        "edges": sorted([u, v] for (u, v) in g.edges),
        "ports": list(g.ports),
    }
    if g.labels:
        out["labels"] = {v: c for v, c in g.labels}
    return out


def graph_from_json(data) -> PortGraph:
    _conform(data, GRAPH_SHAPE, GraphError, "graph")
    return PortGraph.build(
        data["vertices"],
        data.get("edges", ()),
        data.get("ports", ()),
        data.get("labels"),
    )


def dump_graph(g: PortGraph) -> str:
    return json.dumps(graph_to_json(g), indent=2, sort_keys=True) + "\n"


def load_graph(path: str) -> PortGraph:
    return graph_from_json(_read_json(path, GraphError))


# ---------------------------------------------------------------------------
# words as graphs


def encode_word(word: str) -> PortGraph:
    """Encode a finite word as a labelled graph with no ports.

    An anchor vertex labelled 'mark' starts a path; the i-th path
    vertex after the anchor carries the i-th letter as its label.
    Deleting any single path vertex separates what comes before it from
    what comes after, which is how formulas can talk about letter
    order.
    """
    verts = ["w0"] + [f"w{i + 1}" for i in range(len(word))]
    edges = [(verts[i], verts[i + 1]) for i in range(len(word))]
    labels = {"w0": "mark"}
    for i, ch in enumerate(word):
        labels[f"w{i + 1}"] = ch
    return PortGraph.build(verts, edges, (), labels)
