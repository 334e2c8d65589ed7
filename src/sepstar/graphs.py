"""Undirected graphs with an ordered tuple of distinguished ports.

Every other module builds on this one: formulas are evaluated on port
graphs, star-free expressions denote sets of them, and contexts are
port graphs with two interfaces.  The conventions that matter:

* graphs are simple (no loops, no multi-edges) and nonempty,
* ports are pairwise distinct vertices; their order is significant,
* vertices may carry an optional string label.

Isomorphism respects ports positionally and labels exactly.  The
canonical form is computed by colour refinement plus an
individualisation search, which is exact (not just a heuristic).  The
search prunes by the automorphisms it finds, after McKay and Piperno:
a leaf equal to the first leaf sends it back to their common ancestor,
and on the first path a child in the orbit of a searched child is
skipped.  So a graph of many interchangeable parts, such as 12 disjoint
edges, takes a dozen leaves, not 12!.

This module is also the graph core that contexts
(`sepstar.contexts`) and path decompositions (`sepstar.pathdecomp`)
reuse: the `_Value` base of the library's frozen value classes,
vertex/edge validation, the `_Core` base class that holds the
vertices and edges and computes each object's neighbour sets once, the
component labelling, the JSON file reader and, on index data, the
canonical search with the one certificate codec: `_write_certificates`
writes every certificate and `_read_certificate` reads each back, a
canonical rename included.
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
        # written off a stack of the parts still to write, not by
        # recursion, so that a nest of values thousands deep has a repr
        out, todo = [], [self]
        while todo:
            x = todo.pop()
            if isinstance(x, str):
                out.append(x)
                continue
            if type(x) is tuple:
                parts, names, end = ["("], [""] * len(x), ",)" if len(x) == 1 else ")"
            else:
                parts, names, end = [f"{type(x).__qualname__}("], [f"{n}=" for n in x._fields], ")"
                x = [getattr(x, n) for n in x._fields]
            for i, (name, v) in enumerate(zip(names, x)):
                nested = type(v) is tuple or type(v).__repr__ is _Value.__repr__
                parts += [", " if i else "", name, v if nested else repr(v)]
            todo += reversed(parts + [end])
        return "".join(out)

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
    ports = tuple(f"p{i + 1}" for i in range(g.arity))
    gmap = {v: f"a.{v}" for v in g.vertices} | dict(zip(g.ports, ports))
    hmap = {v: f"b.{v}" for v in h.vertices} | dict(zip(h.ports, ports))
    glab = {gmap[v]: c for v, c in g.labels}
    hlab = {hmap[v]: c for v, c in h.labels}
    for v, c in hlab.items():
        if v in glab and glab[v] != c:
            raise GraphError(f"label clash on fused port {v!r}")
    edges = [(gmap[u], gmap[v]) for (u, v) in g.edges] + [(hmap[u], hmap[v]) for (u, v) in h.edges]
    return PortGraph.build(set(gmap.values()) | set(hmap.values()), edges, ports, glab | hlab)


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


def _refine_colors(nbrs: list[list[int]], colors: list[int], cells: list, near) -> None:
    """Refine the colouring ``colors`` in place to the stable one: each
    round splits every colour class by the sorted colours of its
    vertices' neighbours ``nbrs``, the parts in the order of those.  A
    colour is the position of its class in the order of the classes,
    and ``cells`` holds each class, in index order, at its colour, so a
    split moves no other class.  Only a class that holds a neighbour of
    a vertex whose class split can split in the next round; ``near``
    holds the colours of the classes that can split in the first."""
    while near:
        splits = []
        for c in near:
            if len(cells[c]) > 1:
                parts: dict[tuple[int, ...], list[int]] = {}
                for v in cells[c]:
                    parts.setdefault(tuple(sorted([colors[u] for u in nbrs[v]])), []).append(v)
                if len(parts) > 1:
                    splits.append((c, [parts[sig] for sig in sorted(parts)]))
        for c, parts in splits:
            for part in parts:
                cells[c] = part
                for v in part:
                    colors[v] = c
                c += len(part)
        near = {colors[u] for _, parts in splits for part in parts for v in part for u in nbrs[v]}


def _write_certificates(tag: str, arity: int, keys: list[str], triangles) -> list[bytes]:
    """The certificate ``tag;n;arity;keys#triangle`` of the coloured
    graph with the colour keys ``keys``, in canonical order, for each of
    the ``triangles``: ``g`` (port graph) or ``c`` (context), the vertex
    count, the arity, the keys joined by ``|`` and the upper triangle of
    the adjacency matrix in that order as ``0``/``1`` text.  Only this
    function writes the format and only `_read_certificate` reads it."""
    head = f"{tag};{len(keys)};{arity};{'|'.join(keys)}#".encode()
    return [head + tri.encode() for tri in triangles]


def _read_certificate(cert: bytes, part: str = "all"):
    """Undo `_write_certificates`: the arity, the colour keys in
    canonical order, and the edges as pairs of positions.  Readers of a
    whole alphabet take cheap parts: ``"sizes"``, the vertex and the
    edge count, and ``"split"``, the head before ``#`` and the triangle
    after it, as bytes, so that each distinct part is decoded once.  No
    key holds ``|`` or ``#``: `_graph_keys` escapes them in labels, and
    `sepstar.contexts._port_keys` writes numbers only."""
    head, _, tri = cert.partition(b"#")
    if part == "split":
        return head, tri
    if part == "sizes":
        return int(head.split(b";", 2)[1]), tri.count(b"1")
    _, n, arity, keys = head.decode().split(";", 3)
    pairs = combinations(range(int(n)), 2)
    return int(arity), keys.split("|"), [e for e, b in zip(pairs, tri.decode()) if b == "1"]


def _triangle(adj: list[int], order) -> str:
    """The upper triangle of the adjacency matrix with the vertices in
    ``order``, row by row, as ``0``/``1`` text."""
    n = len(order)
    # each vertex's bit in a row that is read most significant bit first
    bit = [0] * len(adj)
    for p, v in enumerate(order):
        bit[v] = 1 << n - 1 - p
    tri = 1  # a leading 1 keeps the leading zeros
    for a in range(n - 1):
        row, bits = adj[order[a]], 0
        while row:
            low = row & -row
            bits |= bit[low.bit_length() - 1]
            row ^= low
        width = n - 1 - a
        tri = tri << width | bits & (1 << width) - 1
    return bin(tri)[3:]


# A colour-respecting order lists the colour classes in key order, so
# its keys are the sorted keys, and a canonical form is the least
# triangle, read as one integer with the first pair the most significant
# bit.  Up to five vertices `_small_minimum` takes it over all orders at
# once, through tables filled on first use, one per tuple of
# colour-class sizes (a composition of n <= 5, 32 in all).
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
    rest = "".join("1" if adj[order[a]] >> order[b] & 1 else "0" for a, b in pairs[len(tri) :])
    return "".join(tri) + rest, order


def _search_canonical(n: int, adj: list[int], keys: list[str]) -> tuple[str, list[int]]:
    """The least triangle and the first order to reach it, over every
    colour-respecting order up to five vertices, and above that over
    the leaves of the refinement search, which keeps the key order of
    the colours, so that each leaf is a colour-respecting order.

    The search is pruned by the automorphisms it finds (McKay 1981;
    McKay & Piperno 2014).  A leaf with the first leaf's triangle maps
    the first leaf's order onto its own, an automorphism that fixes the
    vertices the two paths share: the search returns to their common
    ancestor, and at a node of the first path it skips a child in the
    orbit of a child already searched.  Every leaf pruned has the
    triangle of a leaf searched before it, so the least triangle and
    the first order to reach it are those of the unpruned search.  A
    node whose every colour class of two or more is a class of twins
    (vertices with equal neighbourhoods up to each other) is taken as
    its one leaf: below it, each class is individualised in index order
    and nothing else splits."""
    base = {k: i for i, k in enumerate(sorted(set(keys)))}
    init = [base[k] for k in keys]
    # the colour classes in key order, each in index order
    pos = sorted(range(n), key=init.__getitem__)

    if n <= 5:
        return _small_minimum(adj, pos, tuple(init.count(c) for c in range(len(base))))

    nbrs = [[u for u, bit in enumerate(bin(row)[:1:-1]) if bit == "1"] for row in adj]
    # the least vertex of each vertex's twin class: twins that are not
    # adjacent have equal rows, and adjacent ones equal rows with
    # themselves added; no vertex has twins of both kinds
    opened, closed = {}, {}
    for v in range(n):
        opened.setdefault(adj[v], v)
        closed.setdefault(adj[v] | 1 << v, v)
    twin = [min(opened[adj[v]], closed[adj[v] | 1 << v]) for v in range(n)]
    best: tuple[str, list[int]] | None = None
    first: tuple[str, list[int], list[int]] | None = None
    orbit = list(range(n))  # a union-find of the orbits of the automorphisms found

    def root(v: int) -> int:
        while orbit[v] != v:
            orbit[v] = v = orbit[orbit[v]]
        return v

    def rec(colors: list[int], cells: list, path: list[int], near) -> int:
        """Search below the node that individualised the vertices
        ``path``; return the depth of the node to go on at."""
        nonlocal best, first
        _refine_colors(nbrs, colors, cells, near)
        # the first class of two or more, and whether every such class
        # is a class of twins
        target, c, depth = None, 0, len(path)
        while c < n:
            cell = cells[c]
            c += len(cell)
            if len(cell) > 1:
                target = target or cell
                if any(twin[w] != twin[cell[0]] for w in cell):
                    break
        else:
            perm = sorted(range(n), key=colors.__getitem__)
            tri = _triangle(adj, perm)
            if first is None:
                first, best = (tri, perm, path), (tri, perm)
            elif tri == first[0]:
                for a, b in zip(first[1], perm):
                    orbit[root(a)] = root(b)
                return next(d for d, (a, b) in enumerate(zip(path, first[2])) if a != b)
            elif tri < best[0]:
                best = (tri, perm)
            return depth
        # candidates up to swap automorphisms visible right now
        chosen = {}
        for u in target:
            chosen.setdefault(twin[u], u)
        searched: list[int] = []
        for u in chosen.values():
            # every automorphism found so far fixes the first path's
            # vertices above the node it was found below
            if searched and first[2][:depth] == path and root(u) in map(root, searched):
                continue
            searched.append(u)
            # u first in its class, the rest after it
            c, child, kids = colors[u], colors[:], cells[:]
            kids[c], kids[c + 1] = [u], [w for w in target if w != u]
            for w in kids[c + 1]:
                child[w] = c + 1
            back = rec(child, kids, path + [u], {child[w] for w in nbrs[u]})
            if back < depth:
                return back
        return depth

    colors, cells, c = [0] * n, [None] * n, 0
    for _, run in groupby(pos, key=init.__getitem__):
        cells[c] = cell = list(run)
        for v in cell:
            colors[v] = c
        c += len(cell)
    rec(colors, cells, [], set(colors))
    return best  # type: ignore[return-value]


def _index_certificate(tag: str, arity: int, adj: list[int], keys: list[str]) -> bytes:
    """Certificate of the coloured graph on vertices 0..n-1 with
    adjacency bitmasks ``adj`` and colour keys ``keys``, written from its
    sorted keys and the least triangle of `_search_canonical`: two
    coloured graphs get equal certificates iff they are isomorphic."""
    tri, _ = _search_canonical(len(keys), adj, keys)
    return _write_certificates(tag, arity, sorted(keys), [tri])[0]


# A label goes into its colour key with ``\``, ``|`` and ``#`` escaped,
# so that certificates split back into their keys, and the empty label
# is written ``\e``, apart from no label at all.
_LABEL_ESCAPES = str.maketrans({"\\": "\\\\", "|": "\\p", "#": "\\h"})
_LABEL_UNESCAPES = {"\\": "\\", "p": "|", "h": "#", "e": ""}


def _graph_keys(n: int, ports, labels: dict) -> list[str]:
    """The colour key of each vertex 0..n-1 of a port graph with the
    port numbers ``ports`` and the labels keyed by number in ``labels``:
    its port position, if any, and its escaped label."""
    text = [""] * n
    for v, c in labels.items():
        text[v] = c.translate(_LABEL_ESCAPES) if c else "\\e"
    keys = [f"v:{t}" for t in text]
    for i, p in enumerate(ports):
        keys[p] = f"P{i:03d}:{text[p]}"
    return keys


# the sorted colour keys of each unlabelled graph on n <= 5 vertices with k ports
_PORT_KEYS = {(n, k): _graph_keys(n, range(k), {}) for n in range(6) for k in range(n + 1)}


def _port_certificate(adj, ports) -> bytes:
    """The certificate of the unlabelled port graph on vertices 0..n-1
    with adjacency bitmasks ``adj`` and the given port indices, as
    `canonical_cert` gives it.  Up to five vertices its triangle comes
    straight from the colour classes of `_graph_keys`, in key order:
    each port alone, in port order, then every other vertex."""
    n, k = len(adj), len(ports)
    if n > 5:
        return _index_certificate("g", k, adj, _graph_keys(n, ports, {}))
    pos = ports + tuple(v for v in range(n) if v not in ports)
    tri, _ = _small_minimum(adj, pos, (1,) * k + ((n - k,) if n > k else ()))
    return _write_certificates("g", k, _PORT_KEYS[n, k], [tri])[0]


def _keyed_certificates(tag: str, arity: int, keys: list[str], triangles: dict) -> list[bytes]:
    """The certificate of each coloured graph, up to isomorphism, on the
    n <= 5 vertices whose colour keys, sorted, are ``keys``: each
    triangle that `_small_minimum` keeps, least among its images under
    the orders that permute each colour class.  The triangles depend
    only on the class sizes; ``triangles`` keeps them."""
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
        triangles[sizes] = tris
    return _write_certificates(tag, arity, keys, triangles[sizes])


@lru_cache(maxsize=None)
def canonical_cert(g: PortGraph) -> bytes:
    """A bytestring equal for two graphs iff they are isomorphic."""
    at, adj = _numbering(g)
    keys = _graph_keys(len(at), [at[p] for p in g.ports], {at[v]: c for v, c in g.labels})
    return _index_certificate("g", g.arity, adj, keys)


def canonical_rename(g: PortGraph) -> PortGraph:
    """Isomorphic copy with vertices named v0..v{n-1} in canonical order,
    read back from its certificate."""
    arity, keys, edges = _read_certificate(canonical_cert(g))
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
