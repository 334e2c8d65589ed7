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
`sepstar.monoids` exploits.  Each type is also a small integer code:
three k-bit masks (left-defined, right-defined, persistent) and one
2k-bit reach row per reference.  A `ReachType` is its arity and its
code, decoded only when a field is read.  Each generator alphabet keeps
one type graph: its words' types numbered as they are met, and each
product of two types composed once, the first time it is asked for, and
stored with its left factor, so the closures and searches of
`sepstar.monoids` multiply types by lookup.  The linkage type is the
finer abstraction behind the disjoint-paths oracle: every linear forest
over the port vertices whose edges are inner paths with disjoint
interiors.  It carries the same three masks, names each port vertex by
a reference position and holds each forest as one neighbour mask per
position.  Both types compose by `_gluing`, which moves every reference
onto the node of its class in `compose`.

A context is a vertex/edge core plus two interface tuples, so it runs
on the graph core of `sepstar.graphs`: the same validation, core class
with its per-object neighbour sets, component labelling, canonical
search with its one certificate writer and reader, and JSON file
reader.  Only the interface handling and the colour keys that encode
it live here; a context's canonical rename is read back from its
certificate.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Sequence
from functools import cached_property, lru_cache
from itertools import combinations

from .graphs import (
    CONTEXT_SHAPE,
    _MAX_ARITY,
    _check_core,
    _components,
    _conform,
    _Core,
    _flood,
    _index_certificate,
    _keyed_certificates,
    _numbering,
    _read_certificate,
    _read_json,
    _Value,
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
    "LinkageType",
    "linkage_type",
    "linkage_compose",
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
    "dump_alphabet",
    "load_context",
]


class ContextError(ValueError):
    """Raised for malformed contexts and illegal compositions."""


# the alphabet grows by orders of magnitude with the width: 6,939
# letters at width 3 and 471,228 at width 4.  A width-k letter has at
# most k+1 vertices, so up to width 4 n <= 5, and the bit-parallel
# `graphs._small_minimum` always finds its canonical triangles
_MAX_ALPHABET_WIDTH = 4


class Context(_Core):
    """Immutable context; build instances with :meth:`Context.build`,
    which validates its input.  ``_make`` and ``_of_index`` are
    internal: they build unchecked, and the library calls them only
    for products of valid parts.

    ``left`` and ``right`` have one entry per port index (0-based
    internally, 1-based in all user-facing syntax); ``None`` marks an
    undefined index.  A composite from `compose_all` is made by
    ``_of_index`` on its numbers alone and named z0, z1, ...: the four
    name fields are written from its numbers the first time one is
    read, so equality, hashing, ``repr`` and serialisation see the
    names, while `arity`, `beta` and `compose_all` read only numbers.
    """

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
                if out[i - 1] is not None:  # keys such as "1" and "01"
                    raise ContextError(f"{name} index {i} is given twice")
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
        return Context._make(vs, es, lt, rt)

    @staticmethod
    def _make(vertices, edges, left, right) -> "Context":
        """The context on the frozensets ``vertices`` and ``edges``
        (normalised pairs) with the arity-long interface tuples ``left``
        and ``right``, unchecked."""
        return Context(vertices, edges, left, right)

    @staticmethod
    def _of_index(adj, left, right, edges) -> "Context":
        """The context whose `_indexed` form is ``(adj, left, right,
        edges)``, unchecked, on vertices named z0, z1, ...: number i is
        the i-th of those names in string order.  ``edges`` holds each
        edge once, as a pair of numbers (smaller, larger)."""
        w = object.__new__(Context)
        vars(w)["_indexed"] = adj, left, right, edges
        return w

    def __getattr__(self, field):
        # only a composite from `_of_index` lacks a field: it writes all
        # four from its numbers, which are ranks in sorted-name order
        index = vars(self).get("_indexed")
        if index is None or field not in ("vertices", "edges", "left", "right"):
            raise AttributeError(f"'Context' object has no attribute {field!r}")
        adj, left, right, edges = index
        names = sorted([f"z{i}" for i in range(len(adj))])
        vars(self).update(
            vertices=frozenset(names),
            edges=frozenset([(names[x], names[y]) for x, y in edges]),
            left=tuple([None if x is None else names[x] for x in left]),
            right=tuple([None if y is None else names[y] for y in right]),
        )
        return vars(self)[field]

    @cached_property
    def _indexed(self) -> tuple[tuple[int, ...], tuple, tuple, list]:
        """This context on numbers, made once per object: its vertices
        numbered in sorted-name order by `graphs._numbering`, as each
        number's adjacency mask, then the left and the right interface
        as a number or None per index, and the edges as pairs of numbers
        (smaller, larger).  `compose_all`, `beta` and `context_cert`
        read it; a composite from `compose_all` is born with it."""
        at, adj = _numbering(self)
        left, right = (tuple([None if v is None else at[v] for v in side])
                       for side in (self.left, self.right))
        return adj, left, right, [(at[x], at[y]) for x, y in self.edges]

    @property
    def arity(self) -> int:
        # read without writing the names of a composite
        left = vars(self).get("left")
        return len(self._indexed[1] if left is None else left)

    def left_map(self) -> dict[int, str]:
        return {i + 1: v for i, v in enumerate(self.left) if v is not None}

    def right_map(self) -> dict[int, str]:
        return {i + 1: v for i, v in enumerate(self.right) if v is not None}

    def port_vertices(self) -> frozenset[str]:
        return frozenset(v for v in self.left + self.right if v is not None)

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
    return compose_all((u, v))


def compose_all(contexts) -> Context:
    """Left fold of compose; needs at least one operand, each a Context.

    Each step names the composite so far's vertices z0, z1, ... in the
    string order of their names so far, then the next operand's
    unglued vertices, in sorted order, by the next names; a glued
    vertex takes its partner's name.  The fold reads each operand's
    cached numbering, in which sorted-name order is index order, and
    tracks the names on integer vertex handles.  The composite is born
    numbered: each handle's number is the rank of its name in string
    order, and `Context._of_index` makes it unchecked from its
    adjacency masks, interfaces and edges as numbers, writing its names
    only when they are read.  Composing valid operands keeps the
    interfaces injective, and a vertex that is left port i and right
    port j has i == j.
    """
    items = list(contexts)
    if not items:
        raise ContextError("cannot compose an empty sequence")
    first = items[0]
    if not isinstance(first, Context):
        raise ContextError(f"compose operand 1 is not a context: {first!r}")
    k = first.arity
    for pos, w in enumerate(items[1:], 2):
        if not isinstance(w, Context):
            raise ContextError(f"compose operand {pos} is not a context: {w!r}")
        if w.arity != k:
            raise ContextError(f"compose needs equal arities, got {k}, {w.arity}")
    if len(items) == 1:
        return first
    # holder[i] is the handle named z{i}; after each step the handles are
    # put in the string order of z0..z{n-1}, the order of 0..n-1 under
    # `str`, which moves nothing while n <= 10
    adj, left, right, edges = first._indexed
    n = len(adj)
    holder = list(range(n))
    edges = list(edges)
    by_name = None
    for w in items[1:]:
        adj, w_left, w_right, w_edges = w._indexed
        # the operand's vertex i is glued to handle[i]; the fresh ones,
        # in index order, are in sorted-name order and get the next handles
        handle = [None] * len(adj)
        for a, b in zip(right, w_left):
            if a is not None and b is not None:
                handle[b] = a
        for i, h in enumerate(handle):
            if h is None:
                handle[i] = n
                holder.append(n)
                n += 1
        edges += [(handle[x], handle[y]) for x, y in w_edges]
        right = [None if y is None else handle[y] for y in w_right]
        if n > 10:
            if by_name is None:
                by_name = sorted(range(sum(len(x._indexed[0]) for x in items)), key=str)
            holder = [holder[i] for i in by_name if i < n]
    # holder is now each number's handle; two operands can give the
    # same edge between glued vertices, and it is kept once
    number = [0] * n
    for i, h in enumerate(holder):
        number[h] = i
    adj = [0] * n
    pairs = []
    for x, y in edges:
        a, b = number[x], number[y]
        if a > b:
            a, b = b, a
        if not adj[a] >> b & 1:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
            pairs.append((a, b))
    # by induction over the steps, valid operands keep each interface
    # injective and each vertex on one index of both interfaces
    return Context._of_index(
        tuple(adj),
        tuple([None if x is None else number[x] for x in left]),
        tuple([None if y is None else number[y] for y in right]),
        pairs,
    )


# ---------------------------------------------------------------------------
# inner components and bridges


def inner_components(w: Context) -> tuple[frozenset[tuple[str, str]], ...]:
    """Partition the edges: two edges are together iff they are linked
    by shared non-port vertices (ports do not merge components).
    Components are ordered by their smallest edge."""
    ids = {v: i for i, comp in enumerate(_components(w, w.port_vertices())) for v in comp}
    groups: dict = {}
    for e in w.edges:
        # the component of a non-port endpoint, or a port-port edge alone
        groups.setdefault(ids.get(e[0], ids.get(e[1], e)), set()).add(e)
    return tuple(sorted(map(frozenset, groups.values()), key=min))


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


# A reachability type of arity k is also one integer, its code.  Bits
# 0..k-1 hold the left-defined indices, k..2k-1 the right-defined ones
# and 2k..3k-1 the persistent ones.  Then each reference in the order
# L1..Lk, R1..Rk has a 2k-bit row from bit 3k on, the references it
# reaches in the same order; the rows are symmetric and reflexive on
# the defined references.


def _ref_bit(ref, k: int) -> int:
    """The position of a reference among L1..Lk, R1..Rk."""
    try:
        side, i = ref
    except (TypeError, ValueError):
        raise ContextError(f"bad reference {ref!r}") from None
    if side not in ("L", "R") or not isinstance(i, int) or isinstance(i, bool):
        raise ContextError(f"bad reference {ref!r}")
    if not 1 <= i <= k:
        raise ContextError(f"reference {ref!r} out of range 1..{k}")
    return i - 1 if side == "L" else k + i - 1


def _index_mask(indices, k: int, name: str) -> int:
    mask = 0
    for i in indices:
        if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= k:
            raise ContextError(f"{name} index {i!r} out of range 1..{k}")
        mask |= 1 << (i - 1)
    return mask


def _bits(x: int) -> Iterator[int]:
    """The positions of the set bits of ``x``, lowest first."""
    while x:
        low = x & -x
        x ^= low
        yield low.bit_length() - 1


class ReachType(_Value):
    """Interface-level abstraction of a context.

    ``reach`` holds unordered pairs of references linked by an inner
    path (no intermediate port vertices; length 0 allowed, so every
    persistent index links its own two references), each written
    (smaller, larger).  Reflexive pairs are stored for every defined
    reference.  A type stores only its arity and its code, so equality
    and hashing are integer work; ``left_defined``, ``right_defined``,
    ``persistent`` and ``reach`` are decoded from the code when read.
    """

    arity: int
    _code: int

    def __init__(self, arity, left_defined, right_defined, persistent, reach):
        k = arity
        if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k <= _MAX_ARITY:
            raise ContextError(f"arity must be an integer in 0..{_MAX_ARITY}, got {k!r}")
        left = _index_mask(left_defined, k, "left-defined")
        right = _index_mask(right_defined, k, "right-defined")
        pers = _index_mask(persistent, k, "persistent")
        if pers & ~(left & right):
            raise ContextError("persistent indices must be defined on both sides")
        defined = left | right << k
        rows = [0] * (2 * k)
        for pair in reach:
            try:
                p, q = pair
            except (TypeError, ValueError):
                raise ContextError(f"bad reach pair {pair!r}") from None
            a, b = _ref_bit(p, k), _ref_bit(q, k)
            if a > b:
                raise ContextError(f"reach pair {pair!r} is not written (smaller, larger)")
            for ref, c in ((p, a), (q, b)):
                if not defined >> c & 1:
                    raise ContextError(f"reach pair uses undefined reference {ref}")
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        code = defined | pers << 2 * k
        for a, row in enumerate(rows):
            if defined >> a & 1 and not row >> a & 1:
                ref = ("L", a + 1) if a < k else ("R", a - k + 1)
                raise ContextError(f"defined reference {ref} lacks its reflexive pair")
            code |= row << 3 * k + 2 * k * a
        for i in range(k):
            if pers >> i & 1 and not rows[i] >> k + i & 1:
                raise ContextError(f"persistent index {i + 1} lacks its L-R pair")
        # frozen: the fields go straight into the instance dictionary
        vars(self).update(arity=k, _code=code)

    @classmethod
    def _of_code(cls, k: int, code: int) -> "ReachType":
        """The type of an arity-k code, unchecked: codes come from
        `beta`, a checked type or a composition of those."""
        rt = object.__new__(cls)
        vars(rt).update(arity=k, _code=code)
        return rt

    def _indices(self, which: int) -> frozenset[int]:
        """The indices set in one of the code's k-bit masks: 0 for the
        left-defined, 1 the right-defined and 2 the persistent ones."""
        k = self.arity
        bits = self._code >> which * k
        return frozenset([i for i in range(1, k + 1) if bits >> i - 1 & 1])

    left_defined = property(lambda self: self._indices(0))
    right_defined = property(lambda self: self._indices(1))
    persistent = property(lambda self: self._indices(2))

    @property
    def reach(self) -> frozenset[tuple[PortRef, PortRef]]:
        k = self.arity
        refs = [("L", i) for i in range(1, k + 1)] + [("R", i) for i in range(1, k + 1)]
        row_mask = (1 << 2 * k) - 1
        pairs = []
        for a, p in enumerate(refs):
            row = self._code >> 3 * k + 2 * k * a & row_mask
            pairs += [(p, refs[b]) for b in _bits(row >> a << a)]
        return frozenset(pairs)


def reaches(rt: ReachType, p: PortRef, q: PortRef) -> bool:
    """Whether p and q are linked by an inner path; an undefined
    reference reaches nothing, and a malformed one raises ContextError."""
    k = rt.arity
    return bool(rt._code >> 3 * k + 2 * k * _ref_bit(p, k) + _ref_bit(q, k) & 1)


def beta(w: Context) -> ReachType:
    """The reachability type of a concrete context."""
    adj, left, right, _ = w._indexed
    return ReachType._of_code(w.arity, _type_code(adj, left, right))


def _type_code(adj, left, right) -> int:
    """The type code of the context on vertices 0..n-1 with adjacency
    bitmasks ``adj`` and the interface lists ``left`` and ``right``, a
    vertex or None per index.  Two references are linked when they are
    one vertex, adjacent, or both next to one component of the
    non-port vertices."""
    k = len(left)
    refs = [(a, v) for a, v in enumerate(left + right) if v is not None]
    inner = (1 << len(adj)) - 1 & ~sum({1 << v for _, v in refs})
    code = _interface_masks(left, right)
    for a, v in refs:
        near = 1 << v | adj[v]
        touched = _flood(adj, adj[v] & inner, inner)
        while touched:
            x = touched.bit_length() - 1
            touched ^= 1 << x
            near |= adj[x]
        row = 0
        for b, u in refs:
            row |= (near >> u & 1) << b
        code |= row << 3 * k + 2 * k * a
    return code


def _interface_masks(left, right) -> int:
    """Bits 0..3k-1 of the type code of a context whose interfaces
    ``left`` and ``right`` hold a vertex or None for each of k indices:
    its left-defined, right-defined and persistent indices."""
    k = len(left)
    masks = 0
    for i, (x, y) in enumerate(zip(left, right)):
        if x is not None:
            masks |= 1 << i | (x == y) << 2 * k + i
        if y is not None:
            masks |= 1 << k + i
    return masks


def _gluing(h1: int, h2: int, k: int) -> tuple[int, ...]:
    """How `compose` glues the references of two arity-k operands, read
    from the three masks in the low 3k bits of their codes.

    The references of both operands are bits of one 3k-bit node space:
    the first operand's left references are nodes 0..k-1, its right
    references and the second operand's left references are the glued
    middle nodes k..2k-1, and the second operand's right references are
    nodes 2k..3k-1.  `_move` moves a bit onto the node of its class: a
    middle index persistent in the first operand joins its left node
    (``up``), one persistent only in the second joins its right node
    (``down``), a right index persistent in both joins its left node
    (``across``), and every other bit stays (``stay``).  Returns
    (stay, up, down, across, free, ports, masks): ``free`` holds the
    middle nodes left over, which are the classes that are not ports,
    ``ports`` the nodes of the composite's ports, and ``masks`` the
    composite's three masks.
    """
    mask = (1 << k) - 1
    k2 = 2 * k
    pers1, pers2 = h1 >> k2 & mask, h2 >> k2 & mask
    both = pers1 & pers2
    up = pers1 << k
    down = (pers2 & ~pers1) << k
    across = both << k2
    free = ((h1 >> k | h2) & mask & ~(pers1 | pers2)) << k
    left, right = h1 & mask, h2 >> k & mask
    ports = left | (right & ~both) << k2
    masks = left | right << k | both << k2
    return ~(up | down | across), up, down, across, free, ports, masks


def _move(x: int, k: int, stay: int, up: int, down: int, across: int) -> int:
    """Move every bit of the node set ``x`` onto the node of its class."""
    return x & stay | (x & up) >> k | (x & down) << k | (x & across) >> 2 * k


def _reach_compose(c1: int, c2: int, k: int) -> int:
    """The code of the composition of two arity-k codes.

    Each operand's reach rows become edges between the classes of
    `_gluing`.  Reachability across the classes that are not ports is
    Warshall's closure with only those nodes as pivots, and the
    composite's rows are read off at the port nodes.
    """
    stay, up, down, across, free, ports, out = _gluing(c1, c2, k)
    k2, k3 = 2 * k, 3 * k
    row_mask = (1 << k2) - 1
    adj = [0] * k3
    for code, shift in ((c1, 0), (c2, k)):
        defined = code & row_mask
        while defined:
            low = defined & -defined
            defined ^= low
            a = low.bit_length() - 1
            row = code >> k3 + k2 * a & row_mask
            node = _move(low << shift, k, stay, up, down, across).bit_length() - 1
            adj[node] |= _move(row << shift, k, stay, up, down, across)
    while free:
        low = free & -free
        free ^= low
        around = adj[low.bit_length() - 1]
        bits = around
        while bits:
            b = bits & -bits
            bits ^= b
            adj[b.bit_length() - 1] |= around

    mask = (1 << k) - 1
    both = out >> k2
    refs = out & row_mask
    while refs:
        low = refs & -refs
        refs ^= low
        a = low.bit_length() - 1
        node = _move(low if a < k else low << k, k, stay, up, down, across)
        reached = adj[node.bit_length() - 1] & ports
        row = reached & mask | reached >> k
        out |= (row | (row & both) << k) << k3 + k2 * a
    return out


def beta_compose(r1: ReachType, r2: ReachType) -> ReachType:
    """Compose two reachability types; matches beta of the composition.

    Runs on the operands' codes: interface references are glued into
    classes the way `compose` glues vertices, and composite
    reachability is a search over classes in which only non-port
    classes may be crossed.
    """
    if r1.arity != r2.arity:
        raise ContextError("types must have equal arity")
    return ReachType._of_code(r1.arity, _reach_compose(r1._code, r2._code, r1.arity))


# ---------------------------------------------------------------------------
# linkage types

class LinkageType(_Value):
    """Which systems of disjoint inner paths a context realises.

    ``masks`` is the low 3k bits of the context's reachability-type
    code: its left-defined, right-defined and persistent indices.  Each
    port vertex is named by its first reference position among L1..Lk,
    R1..Rk (0..2k-1, the order of the code's reach rows): i - 1 when
    it is left port i, so a persistent vertex takes its left position,
    and k + j - 1 when it is only right port j.  A pattern is a linear
    forest over these positions whose edges are inner paths (the
    interior avoids every port vertex) with pairwise disjoint
    interiors.  ``forests`` holds every pattern the context realises,
    the empty one included, as 2k neighbour masks, one per position;
    ``patterns`` decodes them to sets of pairs (smaller, larger).  A
    linear forest on 2k nodes has fewer than 2k edges, so the type is
    finite for every arity.
    """

    arity: int
    masks: int
    forests: frozenset[tuple[int, ...]]

    @property
    def patterns(self) -> frozenset[frozenset[tuple[int, int]]]:
        return frozenset(frozenset((p, q) for p, row in enumerate(f) for q in _bits(row) if p < q)
                         for f in self.forests)


def _splice(rows: list[int], drop: int) -> tuple[int, ...] | None:
    """Contract the nodes of the mask ``drop`` out of the linear forest
    with neighbour masks ``rows`` in place and return the masks: a node
    of degree 2 joins its two neighbours, and one of degree 1 gives None."""
    while drop:
        x = drop.bit_length() - 1
        drop ^= 1 << x
        a = rows[x] & -rows[x]
        b = rows[x] ^ a
        if a and not b:
            return None
        if b:
            rows[x] = 0
            rows[a.bit_length() - 1] ^= 1 << x | b
            rows[b.bit_length() - 1] ^= 1 << x | a
    return tuple(rows)


def linkage_type(w: Context) -> LinkageType:
    """The linkage type of a concrete context, found on its index form.

    Vertices are introduced one at a time, each taking the least room
    on the frontier (introduced non-port vertices with neighbours still
    to come).  The patterns so far are forests on slots: a port holds
    its position, a frontier vertex the least free slot above them.  A
    new vertex joins zero, one or two introduced neighbours of degree
    below 2 on different paths, and `_splice` contracts the vertices
    that leave the frontier, so no path is ever enumerated.
    """
    adj, left, right, _ = w._indexed
    k = len(left)
    slot = [0] * len(adj)
    for pos, v in reversed([*enumerate(left), *enumerate(right, k)]):
        if v is not None:
            slot[v] = pos  # a persistent vertex keeps its left position
    ports = sum({1 << v for v in left + right if v is not None})
    pending = [row.bit_count() for row in adj]  # neighbours still to come
    last = sum(1 << v for v, count in enumerate(pending) if count == 1)
    frontier = 0
    remaining = (1 << len(adj)) - 1

    def cost(v):
        joins = not ports >> v & 1 and pending[v] > 0
        leaves = (adj[v] & frontier & last).bit_count()
        return joins - leaves, pending[v] - adj[v].bit_count()

    # a vertex no introduced vertex neighbours costs (0, 0) if it is a
    # port or has no neighbours and (1, 0) otherwise, more than every
    # other: so the min is among the neighbours of introduced vertices
    # and those ports and lone vertices, unless there are none
    ready = ports | sum(1 << v for v, row in enumerate(adj) if not row)
    touched = 0
    patterns = {(0,) * 2 * k}
    while remaining:
        v = min(_bits((touched | ready) & remaining or remaining), key=cost)
        remaining ^= 1 << v
        touched |= adj[v]
        if not ports >> v & 1:  # the least slot no port or frontier vertex holds
            taken = sum((1 << slot[u] for u in _bits(frontier)), (1 << 2 * k) - 1)
            slot[v] = (~taken & taken + 1).bit_length() - 1
        s = slot[v]
        backs = [slot[u] for u in _bits(adj[v] & ~remaining)]
        for u in _bits(adj[v]):
            pending[u] -= 1
            last ^= (pending[u] < 2) << u  # 2 -> 1 joins, 1 -> 0 leaves
        leaving = (frontier | 1 << v) & ~ports
        frontier = sum(1 << u for u in _bits(leaving) if pending[u])
        drop = sum(1 << slot[u] for u in _bits(leaving & ~frontier))
        found = set()
        for p in patterns:
            base = list(p) + [0] * (s + 1 - len(p))
            ends = [a for a in backs if not base[a] & base[a] - 1]  # degree below 2
            choices = [[], *([a] for a in ends)]
            choices += [[a, b] for a, b in combinations(ends, 2)
                        if not _flood(base, 1 << a, ~0) >> b & 1]  # on different paths
            for joined in choices:
                rows = base[:]
                for a in joined:
                    rows[a] |= 1 << s
                    rows[s] |= 1 << a
                found.add(_splice(rows, drop))
        patterns = found - {None}
    return LinkageType(k, _interface_masks(left, right), frozenset(p[:2 * k] for p in patterns))


def linkage_compose(t1: LinkageType, t2: LinkageType) -> LinkageType:
    """Compose two linkage types; matches linkage_type of the composition.

    Each operand's forests are moved onto the classes of `_gluing` by
    `_move`, as `_reach_compose` moves reach rows.  A union of a forest
    of each operand is refused when it gives a class degree 3, ends a
    path at a class that is no port, or closes a cycle (a doubled edge
    is one of length 2): a used node no path end reaches.  `_splice`
    contracts the rest at the classes that are no ports, and port nodes
    0..k-1 and 2k..3k-1 become the composite's positions 0..2k-1.
    """
    if t1.arity != t2.arity:
        raise ContextError("types must have equal arity")
    k = t1.arity
    stay, up, down, across, free, _, masks = _gluing(t1.masks, t2.masks, k)

    def moved(t, shift):
        # each forest on the 3k class nodes, its used nodes and those of degree 2
        for f in t.forests:
            rows = [0] * 3 * k
            for p, row in enumerate(f):
                node = _move(1 << p + shift, k, stay, up, down, across)
                rows[node.bit_length() - 1] |= _move(row << shift, k, stay, up, down, across)
            used = sum(1 << n for n, row in enumerate(rows) if row)
            yield rows, used, sum(1 << n for n, row in enumerate(rows) if row & row - 1)

    mask = (1 << k) - 1
    forests = set()
    seconds = list(moved(t2, k))
    for rows1, used1, inner1 in moved(t1, 0):
        for rows2, used2, inner2 in seconds:
            ends = (used1 ^ used2) & ~(inner1 | inner2)
            if inner1 & used2 or used1 & inner2 or ends & free:
                continue
            rows = [a | b for a, b in zip(rows1, rows2)]
            if _flood(rows, ends, ~0) == used1 | used2:
                _splice(rows, free)
                forests.add(tuple(row & mask | row >> k for row in rows[:k] + rows[2 * k:]))
    return LinkageType(k, masks, frozenset(forests))


# ---------------------------------------------------------------------------
# canonical forms


def _port_keys(n: int, left, right) -> list[str]:
    """The colour key of each vertex 0..n-1 of the interfaces ``left``
    and ``right`` (a vertex number or None per index): the left and the
    right port index it holds, 0 for none."""
    held = [[0, 0] for _ in range(n)]
    for side, interface in enumerate((left, right)):
        for i, v in enumerate(interface, 1):
            if v is not None:
                held[v][side] = i
    return [f"L{i:03d}R{j:03d}" for i, j in held]


@lru_cache(maxsize=None)
def context_cert(w: Context) -> bytes:
    """Equal for two contexts iff they are isomorphic (interfaces
    preserved index by index).  Written from the context's own
    numbering, `Context._indexed`."""
    adj, left, right, _ = w._indexed
    return _index_certificate("c", len(left), adj, _port_keys(len(adj), left, right))


def _context_from_cert(cert: bytes) -> Context:
    """The context a certificate describes, its vertices named v0, v1,
    ... in canonical order, each with the ports its colour key names."""
    arity, keys, edges = _read_certificate(cert)
    names = [f"v{i}" for i in range(len(keys))]
    # a certificate comes from a valid context or from the alphabet's
    # distinct port keys, so it describes a valid one
    return Context._make(
        frozenset(names),
        frozenset((x, y) if x < y else (y, x)
                  for x, y in ((names[a], names[b]) for a, b in edges)),
        *_key_ports(arity, names, keys),
    )


def _key_ports(arity: int, names, keys) -> tuple[tuple, tuple]:
    """The left and the right interface, a name or None per index, that
    the colour keys of the vertices ``names`` describe."""
    sides = [None] * arity, [None] * arity
    for v, key in zip(names, keys):
        # as `_port_keys` wrote them
        for side, i in zip(sides, map(int, key[1:].split("R"))):
            if i:
                side[i - 1] = v
    return tuple(sides[0]), tuple(sides[1])


def canonical_rename_context(w: Context) -> Context:
    """Isomorphic copy with vertices named v0..v{n-1} in canonical order."""
    return _context_from_cert(context_cert(w))


def isomorphic_contexts(u: Context, v: Context) -> bool:
    if u.arity != v.arity or len(u.vertices) != len(v.vertices):
        return False
    return context_cert(u) == context_cert(v)


# ---------------------------------------------------------------------------
# the generator alphabet


class _Letters(Sequence):
    """The contexts that a tuple of certificates describes, read-only
    and indexed like a tuple; each is built on first access and kept."""

    def __init__(self, certs: tuple[bytes, ...]):
        self._certs = certs
        self._built: list[Context | None] = [None] * len(certs)

    def __len__(self) -> int:
        return len(self._certs)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self._certs))[i]))
        w = self._built[i]
        if w is None:
            w = self._built[i] = _context_from_cert(self._certs[i])
        return w


class GeneratorAlphabet(_Value):
    """Contexts with at most arity+1 vertices, one per isomorphism
    class, in a stable order with ids g0, g1, ...

    ``certs`` holds each letter's certificate.  A letter is built as a
    `Context` only when `by_id` or ``contexts`` asks for it, and is then
    kept for the alphabet's lifetime."""

    arity: int
    certs: tuple[bytes, ...]

    @cached_property
    def contexts(self) -> Sequence[Context]:
        return _Letters(self.certs)

    @cached_property
    def types(self) -> "_TypeGraph":
        """The reachability types of this alphabet's words, with their
        products filled in as they are first asked for."""
        return _TypeGraph(self)

    @cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple(f"g{i}" for i in range(len(self.certs)))

    @cached_property
    def _accepted(self) -> dict[str, int]:
        """The letter index of each id `by_id` has accepted, so an id is
        parsed once; only ids in use are held, not a width-4 table."""
        return {}

    def by_id(self, gid: str) -> Context:
        """The letter with id ``gid``, exactly as `ids` writes it: no
        sign, leading zero, space or non-ASCII digit."""
        try:
            idx = self._accepted.get(gid)
        except TypeError:  # unhashable, so not an id
            idx = None
        if idx is None:
            try:
                idx = int(gid[1:])
            except (TypeError, ValueError):
                idx = -1
            if not 0 <= idx < len(self.certs) or gid != f"g{idx}":
                raise ContextError(f"unknown generator id {gid!r}")
            self._accepted[gid] = idx
        return self.contexts[idx]

    def sizes(self) -> Iterator[tuple[int, int]]:
        """Each letter's vertex and edge count, read off its certificate."""
        for cert in self.certs:
            yield _read_certificate(cert, "sizes")

    def __len__(self) -> int:
        return len(self.certs)


def _cert_code(cert: bytes) -> int:
    """The type code of the context a certificate describes, read off
    its index data: no `Context` is built."""
    k, keys, edges = _read_certificate(cert)
    adj = [0] * len(keys)
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return _type_code(adj, *_key_ports(k, range(len(keys)), keys))


class _TypeGraph:
    """The Cayley graph of an alphabet's reachability types (Froidure &
    Pin, 1997), filled on first use.

    Types are numbered in the order they are met: ``codes[t]`` is the
    code of type t, `reach_type` its `ReachType`, and ``letters[i]`` the
    type of letter i.  The distinct letter types come first, as types
    0..generators-1.  ``products[t]`` maps a type u to the type of t
    times u, holding only the products `step` has composed or `record`
    has written, so a search touches only the types it reaches."""

    def __init__(self, alphabet: GeneratorAlphabet):
        self.arity = alphabet.arity
        self.codes: list[int] = []
        self.products: list[dict[int, int]] = []
        self._index: dict[int, int] = {}
        self.recognizer = None  # set by `monoids.reach_type_recognizer`
        self.letters = tuple(self._number(_cert_code(c)) for c in alphabet.certs)
        self.generators = len(self.codes)

    def _number(self, code: int) -> int:
        t = self._index.setdefault(code, len(self.codes))
        if t == len(self.codes):
            self.codes.append(code)
            self.products.append({})
        return t

    def reach_type(self, t: int) -> ReachType:
        """The reachability type numbered t."""
        return ReachType._of_code(self.arity, self.codes[t])

    def step(self, t: int, u: int) -> int:
        """The type of type t times type u, composed only the first time
        it is asked for."""
        known = self.products[t]
        v = known.get(u)
        if v is None:
            v = known[u] = self._number(_reach_compose(self.codes[t], self.codes[u], self.arity))
        return v

    def idempotent(self, t: int) -> bool:
        """Whether t times t is t."""
        return self.step(t, t) == t

    def record(self, types, table) -> None:
        """Store each type's products by the letter types, and its square,
        from a whole multiplication table: ``types[e]`` is the type of
        element e, or None for an adjoined identity, and ``table[a][b]``
        the element of a times b."""
        element = {t: e for e, t in enumerate(types)}
        columns = [(g, element[g]) for g in range(self.generators)]
        for e, t in enumerate(types):
            if t is not None:
                row = table[e]
                known = self.products[t]
                known.update((g, types[row[c]]) for g, c in columns)
                known[t] = types[row[e]]


def _port_key_sets(k: int) -> list[list[str]]:
    """Every set of colour keys that the port vertices of an arity-k
    interface pair take, each sorted.  Index i is unused, only a left
    port, only a right port, both on two vertices, or both on one, the
    one way a vertex can hold a left and a right index, so no two port
    vertices share a key."""
    sets: list[list[str]] = [[]]
    for i in range(k):
        held = (None,) * i + (0,)  # index i + 1 on vertex 0
        left, right, both = (_port_keys(1, *lr) for lr in ((held, ()), ((), held), (held, held)))
        sets = [s + c for s in sets for c in ([], left, right, left + right, both)]
    return [sorted(s) for s in sets]


@lru_cache(maxsize=None)
def enumerate_generators(k: int) -> GeneratorAlphabet:
    """The width-k generator alphabet.

    A letter has at most k+1 vertices, so words compose to pathwidth at
    most k.  A context with a vertex is a word's composite, up to
    isomorphism, exactly when it has a path decomposition into bags of
    at most k+1 vertices whose boundaries (neighbouring bags, and the
    end bags with their interfaces) give each vertex on them one index
    in 1..k: distinct within a boundary, kept along the vertex's bags,
    its own at a port.  Pathwidth k is not enough: `crossing_context()`
    has pathwidth 2, but its wires swap indices, so no width-2 word
    composes to it.

    Each letter's certificate is written from its canonical form, so
    no context is certified, built or compared.  A letter on n <= k+1
    vertices holds a set of distinct port keys (`_port_key_sets`) and
    n minus that many inner keys ``L000R000``, which sort first; each
    triangle least under the orders of its inner vertices
    (`graphs._keyed_certificates`) gives one isomorphism class.  The
    alphabet keeps the certificates, ordered by vertex count, then
    certificate, and builds a letter only when it is asked for.  A
    width that is not an integer in 1..4 raises ContextError before
    anything is listed.
    """
    if not isinstance(k, int) or isinstance(k, bool):
        raise ContextError(f"arity must be an integer, got {k!r}")
    if not 1 <= k <= _MAX_ALPHABET_WIDTH:
        raise ContextError(
            f"generator alphabets need arity in 1..{_MAX_ALPHABET_WIDTH}, got {k}"
        )
    triangles: dict = {}
    certs = []
    for ports in _port_key_sets(k):
        for n in range(max(len(ports), 1), k + 2):
            keys = _port_keys(n - len(ports), (), ()) + ports
            certs += _keyed_certificates("c", k, keys, triangles)
    certs.sort()  # by vertex count first: it is one digit, after "c;"
    return GeneratorAlphabet(k, tuple(certs))


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


def _field_json(value) -> str:
    """``value`` laid out as ``json.dumps(..., indent=2, sort_keys=True)``
    lays out a field of an object in a list."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n    ")


def dump_alphabet(alphabet: GeneratorAlphabet) -> Iterator[str]:
    """The text of ``json.dumps(payload, indent=2, sort_keys=True)``
    and a newline, in one piece per letter, for the payload
    ``[{"id": gid, **context_to_json(letter)}, ...]``.  Each piece is
    read off the letter's certificate, so no letter is built as a
    `Context` and no payload is held.  Letters share edge sets and lists
    of colour keys (the 471,228 letters of width 4 have 1,024 and
    1,263), so json's indented encoder, which is pure Python, lays out
    each once.  The texts are keyed by the two parts that
    `graphs._read_certificate` splits a certificate into, its head and
    its triangle, so a certificate is decoded only when one is new."""
    edge_text: dict[bytes, str] = {}
    key_text: dict[bytes, tuple[int, str]] = {}
    sep = "[\n  "
    for gid, cert in zip(alphabet.ids, alphabet.certs):
        head, tri = _read_certificate(cert, "split")
        if head not in key_text or tri not in edge_text:
            arity, keys, edges = _read_certificate(cert)
            if tri not in edge_text:
                pairs = sorted(sorted((f"v{a}", f"v{b}")) for a, b in edges)
                edge_text[tri] = _field_json(pairs)
            if head not in key_text:
                names = [f"v{i}" for i in range(len(keys))]
                left, right = (_field_json({str(i): v for i, v in enumerate(side, 1) if v})
                               for side in _key_ports(arity, names, keys))
                key_text[head] = arity, (
                    f'"left": {left},\n    "right": {right},\n'
                    f'    "vertices": {_field_json(sorted(names))}'
                )
        arity, ports = key_text[head]
        # the fields in sorted order, as sort_keys writes them
        yield (
            f'{sep}{{\n    "arity": {arity},\n    "edges": {edge_text[tri]},\n'
            f'    "id": "{gid}",\n    {ports}\n  }}'
        )
        sep = ",\n  "
    yield "\n]\n" if alphabet.certs else "[]\n"


def load_context(path: str) -> Context:
    return context_from_json(_read_json(path, ContextError))
