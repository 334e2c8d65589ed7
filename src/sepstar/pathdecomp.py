"""Path decompositions of graphs and contexts.

A path decomposition is a sequence of bags (vertex sets) such that
every vertex appears in a contiguous run of bags, every edge has both
endpoints in some bag, and - for contexts - the left ports sit in the
first bag and the right ports in the last.  Width is the largest bag
size minus one.

The module computes exact pathwidth by dynamic programming over vertex
subsets, converts decompositions to and from add/remove instruction
sequences, reorders instruction sequences so that two independent
vertex classes stop interleaving (`dealternate`), and factorises a
context with at least two bridges into pieces that are either small
enough to be alphabet letters or strictly more persistent
(`two_bridge_decompose`).
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from itertools import accumulate, combinations, islice, product
from typing import NamedTuple

from .contexts import (
    Context,
    ContextError,
    bridges,
    compose_all,
    isomorphic_contexts,
    persistent_ports,
)
from .graphs import PortGraph, connected_components

__all__ = [
    "DecompositionError",
    "OutOfScopeError",
    "width",
    "normalize",
    "validate_decomposition",
    "pathwidth",
    "optimal_decomposition",
    "graph_pathwidth",
    "context_pathwidth",
    "context_decomposition",
    "is_caterpillar_forest",
    "to_instructions",
    "from_instructions",
    "instruction_width",
    "blocks_of",
    "dealternate",
    "two_bridge_decompose",
]

# exact search keeps one table entry per subset of the free vertices
_EXACT_LIMIT = 18


class DecompositionError(ValueError):
    """Raised for malformed decompositions and failed factorisations."""


class OutOfScopeError(DecompositionError):
    """Raised when an input lies outside what a search handles (too
    many free vertices for the exact search; for `two_bridge_decompose`,
    fewer than two bridges or pathwidth above the arity), as opposed to
    a search that ran and failed."""


def width(bags) -> int:
    bags = list(bags)
    if not bags:
        raise DecompositionError("a decomposition needs at least one bag")
    return max(len(b) for b in bags) - 1


def normalize(bags) -> list[frozenset]:
    """Drop bags that are subsets of a neighbouring bag, repeatedly.  One
    pass from the left has the same result: a bag inside the last kept
    bag is skipped, and kept bags inside the new one are dropped."""
    out = []
    for bag in map(frozenset, bags):
        if not out or not bag <= out[-1]:
            while out and out[-1] <= bag:
                out.pop()
            out.append(bag)
    return out


def validate_decomposition(bags, vertices, edges, first=frozenset(), last=frozenset()):
    bags = [frozenset(b) for b in bags]
    if not bags:
        raise DecompositionError("a decomposition needs at least one bag")
    vertices = frozenset(vertices)
    # one pass over the bags: each vertex's first and last bag and how
    # many bags hold it
    start, end, count = {}, {}, {}
    for i, bag in enumerate(bags):
        for v in bag:
            start.setdefault(v, i)
            end[v] = i
            count[v] = count.get(v, 0) + 1
    unknown, missing = count.keys() - vertices, vertices - count.keys()
    if unknown:
        raise DecompositionError(f"unknown vertices in bags: {sorted(unknown)}")
    if missing:
        raise DecompositionError(f"vertices not covered: {sorted(missing)}")
    for v in vertices:
        if end[v] - start[v] + 1 != count[v]:
            raise DecompositionError(f"vertex {v!r} appears in a broken interval")
    # the intervals are unbroken, so a bag holds both ends of an edge
    # exactly when the ends' intervals overlap
    for u, v in edges:
        latest_start = max(start.get(u, len(bags)), start.get(v, len(bags)))
        if latest_start > min(end.get(u, -1), end.get(v, -1)):
            raise DecompositionError(f"edge {(u, v)!r} is not covered by any bag")
    if not frozenset(first) <= bags[0]:
        raise DecompositionError("left ports must be in the first bag")
    if not frozenset(last) <= bags[-1]:
        raise DecompositionError("right ports must be in the last bag")


# ---------------------------------------------------------------------------
# exact pathwidth
#
# Order the vertices outside `first` by introduction time.  After
# introducing a prefix S, the vertices that must stay in the current
# bag are those of S with a neighbour outside S, plus the members of
# `last`, which have to survive into the final bag.  Introducing the
# next vertex on top of S needs a bag of |active(S)| + 1, whichever
# vertex it is, so one number per prefix carries the whole recurrence:
#
#     cost[S] = max(g[S], |active(S)| + 1)
#     g[S]    = min over t in S of cost[S - t]
#
# where g[S] is the smallest largest bag over the orders of S (g of
# the empty prefix is |first|) and cost[S] counts the bag that comes
# after S too.  The pathwidth is g of the full set minus one.  This is
# the vertex-ordering DP of Bodlaender, Fomin, Koster, Kratsch and
# Thilikos (Theory Comput. Syst. 2012).
#
# Vertices are numbered with the free ones first, right ports before
# the others and each group by name, and the left ports above them.  A
# subset of the free vertices is then its own vertex mask, and on ties
# the lowest bit wins: the last vertex introduced is a right port when
# possible, since right ports stay alive to the end anyway and pulling
# them in early only lengthens the stretches where both interfaces are
# pinned alive together.
#
# The costs are computed bit-parallel, on Python integers used as sets
# of subsets: bit m stands for subset m.  S_v, the subsets holding free
# vertex v, is the pattern of 2^v clear and 2^v set bits repeated; it
# is built by doubling, since the closed form ALL // (2^(2^(v+1)) - 1)
# is a big-integer division that costs more than all the rest at 18
# vertices.  A vertex u is active in the subsets that hold it (all of
# them for a left port) except those that also hold every free
# neighbour of u; a right port is active wherever it is held.  Adding
# the active sets one vertex at a time into a thermometer gives T_j,
# the subsets with at least j active vertices.  The level
# F_c = {S : cost[S] <= c} is then the closure
#
#     F <- ~T_c & (F | union over v of (F & ~S_v) << 2^v)
#
# from F_(c-1) and the empty prefix (c is never below |first|): S
# costs at most c when its bag fits in c and some S - t costs at most
# c.  Each level takes O(f^2) big-integer operations in place of the
# f * 2^f interpreted steps of the recurrence run subset by subset.
# cost[S] is the least c whose level holds S.  The levels stop at the
# first c at which a predecessor of the full set enters F_c (at
# c = |first| when no vertex is free): that c is g of the full set,
# the width plus one, and no later level changes the answer.  So a
# cost up to the width plus one is exact, and a higher one reads as
# the width plus two.  The cap moves no choice of the walk back: a
# nonempty S of cost at most c has a predecessor of cost at most c,
# so along the walk the least cost among the predecessors is always
# read exactly.
#
# `_Levels` reads cost[S] off the levels, one bit per level.
# `_Table.active` gives active(S) in two lookups, one in a table of
# the neighbourhood of every subset of the low half of the free
# vertices and one for the high half; bags are rebuilt from it too.
# Nothing else is stored per subset: a walk back from the full set
# recovers each step from `cost` as the lowest-index vertex whose
# removal leaves the least cost, the vertex the min above picks.


def _neighbourhoods(rows):
    """nb[c] = the union of rows[i] over the bits i of c."""
    nb = [0] * (1 << len(rows))
    for c in range(1, len(nb)):
        low = c & -c
        nb[c] = nb[c ^ low] | rows[low.bit_length() - 1]
    return tuple(nb)


class _Levels(Sequence):
    """cost[m] of the comment above for every free subset m, read off
    the levels F_c for c = base, base + 1, ... up to the table's limit;
    a subset in none of them reads base + len(levels), the limit plus
    one."""

    def __init__(self, base, levels, size):
        self.base = base
        self.levels = tuple(level.to_bytes((size + 7) // 8, "little") for level in levels)
        self.size = size

    def __len__(self):
        return self.size

    def __getitem__(self, m):
        if not 0 <= m < self.size:
            raise IndexError(m)
        byte, bit = m >> 3, m & 7
        for c, level in enumerate(self.levels, self.base):
            if level[byte] >> bit & 1:
                return c
        return self.base + len(self.levels)

    def within(self, c):
        """The subsets m with cost[m] <= c, in increasing order, for c
        up to the last stored level."""
        if c >= self.base + len(self.levels):
            raise ValueError(
                f"levels are stored up to {self.base + len(self.levels) - 1}, not {c}"
            )
        level = self.levels[c - self.base] if c >= self.base else b""
        for byte, bits in enumerate(level):
            while bits:
                low = bits & -bits
                bits ^= low
                yield byte << 3 | low.bit_length() - 1


class _Table(NamedTuple):
    verts: tuple[str, ...]  # free vertices (right ports first), then left ports
    index: dict[str, int]
    adj: tuple[int, ...]  # adjacency row per vertex
    lmask: int
    rmask: int
    free: tuple[str, ...]  # the vertices outside `first`, verts[:len(free)]
    limit: int  # smallest largest bag over all orders: the width plus one
    cost: _Levels  # per free subset: cost[m] of the comment above, capped at limit + 1
    lo: tuple[int, ...]  # neighbourhood of each subset of the low free half
    hi: tuple[int, ...]  # neighbourhood of each subset of the high free half

    def active(self, m):
        """active(m) of the comment above, as a vertex mask."""
        h = len(self.free) // 2
        out = (len(self.cost) - 1) ^ m
        nb = self.lo[out & ((1 << h) - 1)] | self.hi[out >> h]
        return (m | self.lmask) & (self.rmask | nb)


def _pathwidth_table(vertices, edges, first, last) -> _Table:
    """The exact-pathwidth table of the graph on ``vertices`` and
    ``edges`` with left ports ``first`` and right ports ``last``.  The
    graph is checked and normalised here, and `_build_table` keeps the
    last table it built, so the width and then the decomposition of one
    graph or context share one table."""
    vertices = frozenset(vertices)
    first, last = frozenset(first), frozenset(last)
    if not first <= vertices or not last <= vertices:
        raise DecompositionError("port sets must be subsets of the vertices")
    return _build_table(vertices, _edge_set(vertices, edges), first, last)


def _edge_set(vertices: frozenset, edges) -> frozenset:
    """The edges as pairs sorted by name.  Raises DecompositionError on
    an edge that is not a pair, has an endpoint outside ``vertices`` or
    is a loop."""
    out = set()
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            raise DecompositionError(f"edge {e!r} is not a pair of vertices") from None
        try:
            known = u in vertices and v in vertices
        except TypeError:  # an unhashable endpoint is no vertex
            known = False
        if not known:
            raise DecompositionError(f"edge {e!r} has an endpoint outside the vertices")
        if u == v:
            raise DecompositionError(f"edge {e!r} is a loop")
        out.add((u, v) if u < v else (v, u))
    return frozenset(out)


# One entry: a graph's width and then its decomposition, or the two
# directions of a two-bridge search, are asked for one after another,
# and more entries save next to no builds.  Every caller shares the
# table it returns, so no caller writes to it.
@lru_cache(maxsize=1)
def _build_table(vertices, edges, first, last) -> _Table:
    verts = tuple(sorted(vertices, key=lambda v: (v in first, v not in last, v)))
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for u, v in edges:
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]
    lmask = sum(1 << index[v] for v in first)
    rmask = sum(1 << index[v] for v in last)
    free = verts[: len(verts) - len(first)]
    if len(free) > _EXACT_LIMIT:
        raise OutOfScopeError(
            f"exact search handles at most {_EXACT_LIMIT} vertices outside "
            f"the left interface, got {len(free)}"
        )

    f = len(free)
    size = 1 << f
    full = size - 1
    every = (1 << size) - 1  # the set of all subsets
    holds = []  # holds[v] = S_v: 2^v clear bits, 2^v set bits, repeated
    for v in range(f):
        pattern, span = ((1 << (1 << v)) - 1) << (1 << v), 2 << v
        while span < size:
            pattern |= pattern << span
            span <<= 1
        holds.append(pattern)
    at_least = [every]  # at_least[j]: the subsets with j or more active vertices
    for u in range(len(verts)):
        active = holds[u] if u < f else every
        if not rmask >> u & 1:
            nbrs = adj[u] & full
            if not nbrs:
                continue
            covered = every  # the subsets holding every free neighbour of u
            while nbrs:
                low = nbrs & -nbrs
                nbrs ^= low
                covered &= holds[low.bit_length() - 1]
            active &= ~covered
        at_least.append(at_least[-1] & active)
        for j in range(len(at_least) - 2, 0, -1):
            at_least[j] |= at_least[j - 1] & active
    grow = [(every ^ s, 1 << v) for v, s in enumerate(holds)]

    # bit full ^ 2^v for each free v: the subsets one step short of all
    preds = sum(1 << (full ^ 1 << v) for v in range(f))
    base = c = max(1, len(first))
    level, levels = 0, []
    while not level & preds if f else c <= len(first):
        fits = every ^ at_least[c] if c < len(at_least) else every
        level |= 1 & fits
        while True:
            before = level
            for out, step in grow:
                level |= (level & out) << step & fits
            if level == before:
                break
        levels.append(level)
        c += 1
    cost = _Levels(base, levels, size)
    limit = base + len(levels) - 1
    h = f // 2
    lo = _neighbourhoods(adj[:h])
    hi = _neighbourhoods(adj[h:f])
    return _Table(verts, index, tuple(adj), lmask, rmask, free, limit, cost, lo, hi)


def _best_removal(key, m):
    """The lowest bit of m whose removal leaves the least key."""
    best = m & -m
    least = key[m ^ best]
    bits = m ^ best
    while bits:
        low = bits & -bits
        bits ^= low
        k = key[m ^ low]
        if k < least:
            best, least = low, k
    return best


def _decomposition(table, key, vertices, edges, first, last):
    """Walk back from the full subset by `_best_removal` on the
    per-subset `key` to an introduction order and turn it into bags,
    checked against the table's width."""
    verts, limit = table.verts, table.limit
    order = []
    m = len(key) - 1
    while m:
        low = _best_removal(key, m)
        order.append(low)
        m ^= low
    bags = [frozenset(first)]
    for low in reversed(order):
        members = table.active(m) | low
        bags.append(frozenset(v for j, v in enumerate(verts) if members >> j & 1))
        m |= low
    bags = normalize(bags)
    validate_decomposition(bags, vertices, edges, first, last)
    if width(bags) != limit - 1:
        raise DecompositionError(
            f"rebuilt bags have width {width(bags)}, the search found {limit - 1}"
        )
    return bags


def pathwidth(vertices, edges, first=frozenset(), last=frozenset()) -> int:
    return _pathwidth_table(vertices, edges, first, last).limit - 1


def optimal_decomposition(vertices, edges, first=frozenset(), last=frozenset()):
    """A decomposition of minimum width, validated before returning."""
    table = _pathwidth_table(vertices, edges, first, last)
    return _decomposition(table, table.cost, vertices, edges, first, last)


def _interfaces(w: Context):
    return frozenset(w.left_map().values()), frozenset(w.right_map().values())


def graph_pathwidth(g: PortGraph) -> int:
    return pathwidth(g.vertices, g.edges)


def context_pathwidth(w: Context) -> int:
    return pathwidth(w.vertices, w.edges, *_interfaces(w))


def context_decomposition(w: Context):
    return optimal_decomposition(w.vertices, w.edges, *_interfaces(w))


def _low_overlap_decomposition(w: Context, table, first, last):
    """A minimum-width decomposition of a context that, among the
    optimal introduction orders, keeps each left port co-alive with the
    right port sharing its slot for as few steps as possible.

    Factor searches prefer such orders: a context can only be cut at a
    point where no slot is claimed from both sides at once, so the
    shorter those overlaps, the more cut points survive.

    ``first`` and ``last`` are the context's two interfaces as vertex
    sets, in either order, and ``table`` is their `_pathwidth_table`:
    a slot's overlap counts the same whichever side is left."""
    index, cost, limit = table.index, table.cost, table.limit
    pair_masks = [
        (1 << index[u], 1 << index[v])
        for u, v in zip(w.left, w.right)
        if u is not None and v is not None and u != v
    ]

    def step(m):
        a = table.active(m)
        return sum(1 for mu, mv in pair_masks if a & mu and a & mv)

    # a prefix lies on an order of width at most limit exactly when its
    # cost is at most limit; h[m] sums the overlaps along the best such
    # order, and is `above` on prefixes that lie on none
    above = (len(table.free) + 1) * len(pair_masks) + 1
    h = [above] * len(cost)
    h[0] = step(0)
    for m in cost.within(limit):
        if m:
            h[m] = h[m ^ _best_removal(h, m)] + step(m)
    return _decomposition(table, h, w.vertices, w.edges, first, last)


def is_caterpillar_forest(g: PortGraph) -> bool:
    """Acyclic, and removing the leaves of each component leaves a
    path.  Equivalent to pathwidth at most 1."""
    # a graph is a forest iff each component has one edge fewer than vertices
    if len(g.edges) != len(g.vertices) - len(connected_components(g)):
        return False
    adj = g.adjacency
    spine = {v for v in g.vertices if len(adj[v]) >= 2}
    return all(len(adj[v] & spine) <= 2 for v in spine)


# ---------------------------------------------------------------------------
# instruction sequences


def to_instructions(bags, first=frozenset(), last=frozenset()):
    """Flatten a bag sequence into add/remove instructions, starting
    from the left ports and ending at the right ports.  Removals come
    before additions at each bag boundary.  Vertices of ``first`` are
    removed ahead of other vertices and vertices of ``last`` are added
    after other vertices, so interface vertices stay alive for as short
    a stretch as the bag sequence allows; ties break alphabetically."""
    first = frozenset(first)
    last = frozenset(last)
    out = []
    prev = first
    for bag in list(bags) + [last]:
        bag = frozenset(bag)
        for v in sorted(prev - bag, key=lambda u: (u not in first, u)):
            out.append(("remove", v))
        for v in sorted(bag - prev, key=lambda u: (u in last, u)):
            out.append(("add", v))
        prev = bag
    return out


def _replay(first, instructions):
    """The alive set before each instruction and after the last one.
    Raises DecompositionError on an instruction that adds a vertex
    twice or after its removal, removes an absent vertex, or is neither
    an add nor a remove."""
    current = set(first)
    alive = [frozenset(current)]
    gone = set()
    for op, v in instructions:
        if op == "add":
            if v in current:
                raise DecompositionError(f"vertex {v!r} added twice")
            if v in gone:
                raise DecompositionError(f"vertex {v!r} added after removal")
            current.add(v)
        elif op == "remove":
            if v not in current:
                raise DecompositionError(f"vertex {v!r} removed while absent")
            current.discard(v)
            gone.add(v)
        else:
            raise DecompositionError(f"unknown instruction {op!r}")
        alive.append(frozenset(current))
    return alive


def from_instructions(first, instructions):
    """Replay instructions from the initial bag and return the
    normalized snapshot sequence."""
    return normalize(_replay(first, instructions))


def instruction_width(first, instructions) -> int:
    """The largest alive set of the replayed sequence minus one; the
    sequence is validated as in `from_instructions`."""
    return width(_replay(first, instructions))


def blocks_of(instructions, kind):
    """Maximal runs of instructions whose vertices share a class."""
    out = []
    for _, v in instructions:
        c = kind[v]
        if out and out[-1][0] == c:
            out[-1] = (c, out[-1][1] + 1)
        else:
            out.append((c, 1))
    return out


# ---------------------------------------------------------------------------
# dealternation
#
# Instructions on X-vertices and on Y-vertices may be reordered
# relative to each other (their own internal orders are kept, and
# instructions on other vertices stay pinned to their position in both
# orders).  Valid reorderings are monotone lattice paths through the
# pinned points; bag size at a lattice point is a sum of independent
# prefix contributions.  The first pass finds the smallest achievable
# maximum bag size, the second minimises the number of class blocks
# subject to that bound and reads its path off back-pointers.


def _gap_minimax(i0, j0, i1, j1, cost):
    table = {}
    for i in range(i0, i1 + 1):
        for j in range(j0, j1 + 1):
            here = cost(i, j)
            if i == i0 and j == j0:
                table[i, j] = here
                continue
            options = []
            if i > i0:
                options.append(table[i - 1, j])
            if j > j0:
                options.append(table[i, j - 1])
            table[i, j] = max(here, min(options))
    return table[i1, j1]


def _gap_min_blocks(i0, j0, i1, j1, cost, bound):
    # state: (i, j, last step class); None last = gap not started.  A
    # state under the bound pushes its block count to the next two (those
    # past the gap are never read), and each keeps the least count pushed
    # with the state that pushed it: on a tie the one of its own class,
    # whose run goes on, else the first, in the order X, Y, None
    UNSEEN = (float("inf"),)
    table = {(i0, j0, None): (0, None)}
    for i in range(i0, i1 + 1):
        for j in range(j0, j1 + 1):
            if cost(i, j) > bound:
                continue
            for last in ("X", "Y", None):
                here = (i, j, last)
                if here not in table:
                    continue
                blocks = table[here][0]
                step, key = blocks + (last != "X"), (i + 1, j, "X")
                held = table.get(key, UNSEEN)[0]
                if step < held or step == held and last == "X":
                    table[key] = step, here
                step, key = blocks + (last != "Y"), (i, j + 1, "Y")
                held = table.get(key, UNSEEN)[0]
                if step < held or step == held and last == "Y":
                    table[key] = step, here
    finals = {
        last: table[i1, j1, last][0]
        for last in ("X", "Y", None)
        if (i1, j1, last) in table
    }
    if not finals or cost(i1, j1) > bound:
        raise DecompositionError("no path satisfies the width bound")
    last = min(finals, key=lambda c: (finals[c], c is None, c))
    path, state = [], (i1, j1, last)
    while state[2]:
        path.append(state[2])
        state = table[state][1]
    return finals[last], path[::-1]


def dealternate(instructions, kind, first=frozenset()):
    """Reorder X-instructions against Y-instructions (other classes
    pinned) so that the maximum bag size is as small as possible and,
    subject to that, the instructions form as few X/Y blocks as
    possible.  Of those reorderings it returns the one that ends each
    stretch between pinned instructions with an X-instruction when it
    can and, read from that end, makes each block as long as it can.
    The result never has a larger maximum bag than the input
    sequence."""
    instructions = list(instructions)
    for op, v in instructions:
        if v not in kind:
            raise DecompositionError(f"vertex {v!r} missing from the class map")
    # one pass builds the X and Y lanes, each with its running net bag
    # change, and the gap corners: the pin opening each gap, its lattice
    # point, and the bag size once that pin has run, lanes aside
    xs, ys, netx, nety = [], [], [0], [0]
    corners = [(None, 0, 0, len(set(first)))]
    for ins in instructions:
        delta = 1 if ins[0] == "add" else -1
        cls = kind[ins[1]]
        if cls == "X":
            xs.append(ins)
            netx.append(netx[-1] + delta)
        elif cls == "Y":
            ys.append(ins)
            nety.append(nety[-1] + delta)
        elif cls == "P":
            corners.append((ins, len(xs), len(ys), corners[-1][3] + delta))
        else:
            raise DecompositionError(f"vertex {ins[1]!r} has unknown class {cls!r}")
    corners.append((None, len(xs), len(ys), None))
    gaps = [
        (pin, (i0, j0, i1, j1, lambda i, j, c=c: c + netx[i] + nety[j]))
        for (pin, i0, j0, c), (_, i1, j1, _) in zip(corners, corners[1:])
    ]
    best = max(_gap_minimax(*gap) for _, gap in gaps)

    out = []
    lanes = {"X": iter(xs), "Y": iter(ys)}
    for pin, gap in gaps:
        if pin:
            out.append(pin)
        _, path = _gap_min_blocks(*gap, best)
        out.extend(next(lanes[step]) for step in path)
    if len(out) != len(instructions):
        raise DecompositionError("reordering lost or duplicated instructions")
    if instruction_width(first, out) > instruction_width(first, instructions):
        raise DecompositionError("reordering widened the instruction sequence")
    return out


# ---------------------------------------------------------------------------
# two-bridge factorisation
#
# Cutting an instruction sequence at positions where at most `arity`
# vertices are alive yields candidate factors; each alive vertex gets
# one interface slot, constant across all the cuts it survives
# (a vertex that is both a left and a right port of a factor must use
# the same index on both sides).  The outermost cuts are forced to the
# original interface assignment.  A factorisation counts as progress
# when every factor either fits in arity+1 vertices or keeps some
# non-persistent vertex alive across its whole extent, which turns it
# persistent in the factor.
#
# On the low-overlap sequence of each direction, the search tries as
# cuts each valley (an interior cut with at most `arity` vertices
# alive), the first 128 pairs of valleys and all valleys at once; then,
# per bridge, the sequence dealternated with the bridge's inner
# vertices as class X, cut at its block boundaries each snapped to a
# valley at most two steps away: the first 64 choices of snaps.  Each
# (sequence, cuts) pair is tried once; the first that factors wins.
# Each sequence is replayed once, and every attempt on it reads its
# cuts and factors off those alive sets.  The mirror direction is the
# same context with the interfaces swapped in its table.


def _try_factorisation(w, instructions, alive, cuts, forced, persistent, diag):
    """The factors of ``w`` cut at the valleys ``cuts`` of
    ``instructions``, whose alive sets are ``alive``, or None with the
    reason appended to ``diag``.  ``forced`` maps each port vertex of
    ``w`` to its slot; ``persistent`` holds its persistent vertices."""
    k = w.arity
    m = len(instructions)
    bounds = [0, *cuts, m]

    # every factor must be small or carry a persistence witness
    spans = []
    for a, b in zip(bounds, bounds[1:]):
        verts = alive[a] | alive[b] | {v for _, v in instructions[a:b]}
        if len(verts) > k + 1 and not (alive[a] & alive[b]) - persistent:
            diag.append(
                f"segment {a}..{b} has {len(verts)} vertices and no spanning vertex"
            )
            return None
        spans.append(verts)

    # slot assignment: one run per vertex over the cuts where it is alive
    runs = {}
    for ci, c in enumerate(bounds):
        for v in alive[c]:
            lo, hi = runs.get(v, (ci, ci))
            runs[v] = (min(lo, ci), max(hi, ci))
    # a left port whose run reaches past cut 0 carries its slot along,
    # so two forced runs that overlap and share a slot cannot both win
    order = sorted(runs, key=lambda v: (runs[v][0], runs[v][1], v))
    slots = {}

    def overlap(u, v):
        (a1, b1), (a2, b2) = runs[u], runs[v]
        return a1 <= b2 and a2 <= b1

    def assign(pos):
        if pos == len(order):
            return True
        v = order[pos]
        choices = [forced[v]] if v in forced else range(1, k + 1)
        for s in choices:
            if any(
                slots.get(u) == s and overlap(u, v) for u in order[:pos]
            ):
                continue
            slots[v] = s
            if assign(pos + 1):
                return True
            del slots[v]
        return False

    # forced runs that never reach an interior cut only constrain the
    # outer boundaries, which is consistent by construction
    pinned = [v for v in order if v in forced]
    for u in pinned:
        for v in pinned:
            if u < v and forced[u] == forced[v] and overlap(u, v):
                diag.append(
                    f"slot {forced[u]} is pinned to both {u!r} and {v!r} "
                    "on overlapping stretches"
                )
                return None
    if not assign(0):
        diag.append("no slot assignment fits the cuts")
        return None

    # edges go to the first factor whose span sees both endpoints alive.
    # Each vertex is alive on one unbroken stretch, and an edge's
    # endpoints share an alive set (the bags were valid, and `dealternate`
    # moves no bridge vertex against its neighbours), so the first shared
    # one is the later of the endpoints' first ones, which `born` holds:
    # read from the end, each vertex's earliest index is written last
    born = {v: t for t in range(m, -1, -1) for v in alive[t]}
    positions = {(u, v): max(born[u], born[v]) for u, v in w.edges}
    factors = []
    for idx, (a, b) in enumerate(zip(bounds, bounds[1:])):
        edges = {e for e, t in positions.items() if a < t <= b or (idx == 0 and t == 0)}
        left = {slots[v]: v for v in alive[a]}
        right = {slots[v]: v for v in alive[b]}
        try:
            factors.append(Context.build(spans[idx], edges, k, left, right))
        except ContextError as exc:
            diag.append(f"segment {a}..{b} does not form a context: {exc}")
            return None
    fold = compose_all(factors)
    if not isomorphic_contexts(fold, w):
        diag.append("factor product is not isomorphic to the input")
        return None
    for f in factors:
        if len(f.vertices) > k + 1 and len(persistent_ports(f)) <= len(persistent):
            diag.append("a large factor gained no persistent ports")
            return None
    return factors


def _cut_candidates(w, instructions, first, brs, diag):
    """The (sequence, alive sets, sorted cuts) triples to try on one
    instruction sequence, lazily and in the order of the comment above;
    each sequence is replayed once from the left interface ``first``,
    and its cuts are valleys of its alive sets.  ``brs`` are the
    bridges of ``w``."""
    k = w.arity
    ports = w.port_vertices()
    seq = tuple(instructions)
    alive = _replay(first, seq)
    valleys = [c for c in range(1, len(seq)) if len(alive[c]) <= k]
    for c in valleys:
        yield seq, alive, (c,)
    for pair in islice(combinations(valleys, 2), 128):
        yield seq, alive, pair
    if valleys:
        yield seq, alive, tuple(valleys)
    for bridge in brs:
        x_verts = {v for e in bridge for v in e if v not in ports}
        if not x_verts:
            continue
        kind = {v: "X" if v in x_verts else "Y" for v in w.vertices - ports}
        kind.update(dict.fromkeys(ports, "P"))
        reordered = tuple(dealternate(seq, kind, first))
        alive = _replay(first, reordered)
        thin = {c for c in range(1, len(reordered)) if len(alive[c]) <= k}
        ends = list(accumulate(size for _, size in blocks_of(reordered, kind)))[:-1]
        near = ([c for c in (q, q - 1, q + 1, q - 2, q + 2) if c in thin] for q in ends)
        options = [opt for opt in near if opt]
        if not options:
            diag.append("no block boundary could be snapped to a thin point")
            continue
        for cuts in islice(product(*options), 64):
            yield reordered, alive, tuple(sorted(set(cuts)))


def two_bridge_decompose(w: Context):
    """Factor a context with at least two bridges into contexts that
    are each either small enough to be a single letter (at most
    arity+1 vertices) or have strictly more persistent ports than the
    input.  Raises OutOfScopeError when the context has fewer than two
    bridges or pathwidth above its arity, and DecompositionError with
    accumulated diagnostics when no attempted strategy works."""
    k = w.arity
    brs = bridges(w)
    if len(brs) < 2:
        raise OutOfScopeError(f"needs at least two bridges, found {len(brs)}")
    if len(w.vertices) <= k + 1:
        return [w]
    left_set, right_set = _interfaces(w)
    table = _pathwidth_table(w.vertices, w.edges, left_set, right_set)
    if table.limit - 1 > k:
        raise OutOfScopeError(
            "pathwidth exceeds the arity; not in the width-limited monoid"
        )
    diag: list[str] = []

    # each direction's table yields the optimal order that keeps the
    # slot overlaps shortest; the mirror's bags run right to left
    low = _low_overlap_decomposition(w, table, left_set, right_set)
    table = _pathwidth_table(w.vertices, w.edges, right_set, left_set)
    mirror_low = _low_overlap_decomposition(w, table, right_set, left_set)

    # `Context.build` gives a vertex on both sides the same index, so
    # the persistent vertices are the ones on both sides
    forced = {v: i for side in (w.left_map(), w.right_map()) for i, v in side.items()}
    persistent = left_set & right_set
    sequences = dict.fromkeys(
        tuple(to_instructions(bags, left_set, right_set))
        for bags in (low, mirror_low[::-1])
    )
    tried = set()
    for instructions in sequences:
        for seq, alive, cuts in _cut_candidates(w, instructions, left_set, brs, diag):
            if (seq, cuts) in tried:
                continue
            tried.add((seq, cuts))
            factors = _try_factorisation(w, seq, alive, cuts, forced, persistent, diag)
            if factors:
                return factors
    raise DecompositionError(
        "no factorisation found:\n  " + "\n  ".join(dict.fromkeys(diag))
    )
