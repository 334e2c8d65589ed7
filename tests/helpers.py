"""Shared brute-force oracles and small-graph generators for the tests.

Everything here is deliberately naive: permutation search for
isomorphism, exhaustive enumeration for graph families.  The library
under test must agree with these on small inputs.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import NamedTuple

from sepstar.graphs import GraphError, PortGraph


def brute_isomorphic(g: PortGraph, h: PortGraph) -> bool:
    """Isomorphism by trying every vertex bijection (ports pinned)."""
    if g.arity != h.arity or len(g.vertices) != len(h.vertices):
        return False
    grest = sorted(g.vertices - set(g.ports))
    hrest = sorted(h.vertices - set(h.ports))
    glab = dict(g.labels)
    hlab = dict(h.labels)
    for image in permutations(hrest):
        m = dict(zip(g.ports, h.ports))
        m.update(zip(grest, image))
        if any(glab.get(v) != hlab.get(m[v]) for v in g.vertices):
            continue
        ok = True
        for u, v in combinations(sorted(g.vertices), 2):
            if g.has_edge(u, v) != h.has_edge(m[u], m[v]):
                ok = False
                break
        if ok:
            return True
    return False


def graphs_on(n: int, arity: int, labels: tuple[str, ...] = ()) -> list[PortGraph]:
    """All graphs with exactly n named vertices, the first `arity` of
    which are the ports, over every edge set (and optional labellings).
    Not deduplicated up to isomorphism."""
    names = [f"n{i}" for i in range(n)]
    ports = tuple(names[:arity])
    pairs = list(combinations(names, 2))
    out = []
    labelings: list[dict[str, str]] = [{}]
    if labels:
        labelings = []
        options = [None, *labels]
        stack = [(0, {})]
        while stack:
            i, cur = stack.pop()
            if i == n:
                labelings.append(dict(cur))
                continue
            for c in options:
                nxt = dict(cur)
                if c is not None:
                    nxt[names[i]] = c
                stack.append((i + 1, nxt))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        for lab in labelings:
            out.append(PortGraph.build(names, edges, ports, lab))
    return out


class _DisjointSet:
    """Union-find over hashable items, with path halving."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b) -> bool:
        """Merge the classes of a and b; False if they were one already."""
        ra, rb = self.find(a), self.find(b)
        self.parent[ra] = rb
        return ra != rb

    def classes(self) -> list[list]:
        """Members of each class in insertion order, classes ordered by
        their smallest member."""
        out: dict = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return sorted(out.values(), key=min)


@lru_cache(maxsize=None)
def graph_pool(max_n: int, arity: int) -> tuple[PortGraph, ...]:
    """Unlabelled graphs with arity ports and up to max_n vertices,
    one representative per isomorphism class (via the brute oracle)."""
    reps: list[PortGraph] = []
    for n in range(max(arity, 1), max_n + 1):
        for g in graphs_on(n, arity):
            if not any(brute_isomorphic(g, r) for r in reps):
                reps.append(g)
    return tuple(reps)


def path_graph(n: int, arity: int = 0) -> PortGraph:
    names = [f"u{i}" for i in range(n)]
    edges = [(names[i], names[i + 1]) for i in range(n - 1)]
    return PortGraph.build(names, edges, tuple(names[:arity]))


def cycle_graph(n: int) -> PortGraph:
    names = [f"u{i}" for i in range(n)]
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    return PortGraph.build(names, edges)


def complete_graph(n: int, arity: int = 0) -> PortGraph:
    names = [f"u{i}" for i in range(n)]
    edges = list(combinations(names, 2))
    return PortGraph.build(names, edges, tuple(names[:arity]))


def star_graph(leaves: int) -> PortGraph:
    names = ["hub"] + [f"leaf{i}" for i in range(leaves)]
    edges = [("hub", leaf) for leaf in names[1:]]
    return PortGraph.build(names, edges)


def random_context(rng, k: int, max_n: int):
    """A random context of the given arity with up to max_n vertices."""
    from sepstar.contexts import Context, ContextError

    while True:
        n = rng.randint(1, max_n)
        verts = [f"t{i}" for i in range(n)]
        edges = [p for p in combinations(verts, 2) if rng.random() < 0.4]
        left = {}
        right = {}
        for i in range(1, k + 1):
            if rng.random() < 0.6:
                left[i] = rng.choice(verts)
            if rng.random() < 0.6:
                right[i] = rng.choice(verts)
        try:
            return Context.build(verts, edges, k, left, right)
        except ContextError:
            continue  # injectivity or compatibility failed; redraw


def two_bridge_corpus():
    """1,000 seeded random contexts of arity 2 or 3 on 6 to 12 vertices with
    sparse edges, so that many have two bridges and small pathwidth and
    the two-bridge search runs on them; some of those searches fail."""
    from sepstar.contexts import Context, ContextError

    rng = random.Random(4104)
    out = []
    while len(out) < 1000:
        k = rng.choice((2, 3))
        p = rng.uniform(0.1, 0.3)
        verts = [f"t{i}" for i in range(rng.randint(6, 12))]
        edges = [e for e in combinations(verts, 2) if rng.random() < p]
        left = {i: rng.choice(verts) for i in range(1, k + 1) if rng.random() < 0.8}
        right = {i: rng.choice(verts) for i in range(1, k + 1) if rng.random() < 0.8}
        try:
            out.append(Context.build(verts, edges, k, left, right))
        except ContextError:
            continue  # injectivity or compatibility failed; redraw
    return out


def _partial_injections(indices: list[int], verts: list[str]):
    """All injective partial maps from `indices` into `verts`."""
    if not indices:
        yield {}
        return
    first, rest = indices[0], indices[1:]
    for sub in _partial_injections(rest, verts):
        yield dict(sub)
        used = set(sub.values())
        for v in verts:
            if v not in used:
                yield {first: v, **sub}


def brute_generators(k: int):
    """The width-k generator alphabet by brute force: every labelled
    context on at most k+1 vertices is certified, and the first of each
    certificate is kept, canonically renamed, ordered by vertex count
    and then certificate; the alphabet holds the certificate of each
    renamed letter."""
    from sepstar.contexts import (
        Context,
        GeneratorAlphabet,
        canonical_rename_context,
        context_cert,
    )

    seen = {}
    idx_range = list(range(1, k + 1))
    for n in range(1, k + 2):
        verts = [f"v{i}" for i in range(n)]
        pairs = list(combinations(verts, 2))
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            for left in _partial_injections(idx_range, verts):
                for right in _partial_injections(idx_range, verts):
                    if any(
                        x == y and i != j
                        for i, x in left.items()
                        for j, y in right.items()
                    ):
                        continue
                    w = Context.build(verts, edges, k, left, right)
                    cert = context_cert(w)
                    if cert not in seen:
                        seen[cert] = canonical_rename_context(w)
    ordered = sorted(seen.values(), key=lambda w: (len(w.vertices), context_cert(w)))
    return GeneratorAlphabet(k, tuple(context_cert(w) for w in ordered))


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


def reference_generators(k: int):
    """The width-k generator alphabet, orbit by orbit.  For each n <=
    k+1 the edge sets on vertices 0..n-1 are split into orbits under all
    n! relabellings, and each orbit's representative keeps its
    automorphism group.  For each such graph, the conflict-free pairs of
    interfaces are split into orbits under that group, and each
    representative is certified once on its index data.  The reference
    for `enumerate_generators`, which writes the certificates straight
    from their canonical forms."""
    from sepstar.contexts import GeneratorAlphabet, _port_keys
    from sepstar.graphs import _index_certificate

    certs = []
    for n in range(1, k + 2):
        pairs = list(combinations(range(n), 2))
        edge_sets = (
            frozenset(e for i, e in enumerate(pairs) if bits >> i & 1)
            for bits in range(1 << len(pairs))
        )
        interfaces = _interface_pairs(k, n)
        group = list(permutations(range(n)))
        for edges, automorphisms in _orbits(edge_sets, group, _edge_image):
            adj = [0] * n
            for a, b in edges:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
            for (lt, rt), _ in _orbits(interfaces, automorphisms, _interface_image):
                keys = _port_keys(n, lt, rt)
                certs.append((n, _index_certificate("c", k, adj, keys)))
    certs.sort()
    return GeneratorAlphabet(k, tuple(c for _, c in certs))


def brute_two_disjoint_paths(ctx) -> bool:
    """Two vertex-disjoint paths, left 1 to right 1 and left 2 to
    right 2, by backtracking over the first path and a search for the
    second around it.  Exponential in the worst case; ports 1 and 2
    must be defined on both sides."""
    s1, s2 = ctx.left[0], ctx.left[1]
    t1, t2 = ctx.right[0], ctx.right[1]
    if len({s1, s2}) < 2 or len({t1, t2}) < 2:
        return False
    if s2 in (s1, t1) or t2 in (s1, t1):
        return False

    adj = {v: sorted(ctx.neighbors(v)) for v in ctx.vertices}

    def connected_avoiding(a, b, blocked):
        stack = [a]
        seen = {a}
        while stack:
            v = stack.pop()
            if v == b:
                return True
            for w in adj[v]:
                if w not in blocked and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    on_path = {s1}

    def search(v):
        if v == t1:
            return connected_avoiding(s2, t2, on_path)
        for w in adj[v]:
            if w in on_path or w in (s2, t2):
                continue
            on_path.add(w)
            if search(w):
                return True
            on_path.discard(w)
        return False

    return search(s1)


def brute_linkage_patterns(w):
    """The patterns of ``w``'s linkage type by listing every inner path
    (a simple path between two port vertices through non-port vertices
    only) and every set of them with disjoint interiors that forms a
    linear forest on the port vertices."""
    ports = w.port_vertices()
    paths = []  # (p, q, interior) with p < q
    for p in sorted(ports):
        stack = [(p, (p,))]
        while stack:
            v, walk = stack.pop()
            for u in sorted(w.neighbors(v)):
                if u in walk:
                    continue
                if u in ports:
                    if p < u:
                        paths.append((p, u, frozenset(walk[1:])))
                else:
                    stack.append((u, walk + (u,)))
    # each port vertex is named by its first position among L1..Lk, R1..Rk
    pos = {v: w.arity + j - 1 for j, v in w.right_map().items()}
    pos.update({v: i - 1 for i, v in w.left_map().items()})
    found = set()

    def extend(start, used, chosen):
        found.add(frozenset(tuple(sorted((pos[p], pos[q]))) for p, q in chosen))
        for i in range(start, len(paths)):
            p, q, interior = paths[i]
            trial = chosen + [(p, q)]
            if interior & used or not _is_linear_forest(trial):
                continue
            extend(i + 1, used | interior, trial)

    extend(0, frozenset(), [])
    return frozenset(found)


class ReferenceLinkage(NamedTuple):
    """A linkage type as the name-keyed reference writes it: its arity,
    its three interface masks and its patterns."""

    arity: int
    masks: int
    patterns: frozenset


def _reference_glue(edges, keep) -> list | None:
    """Contract the graph ``edges`` onto the nodes in ``keep``.

    The graph must be a linear forest in which every node of degree 1
    is kept; otherwise the result is None.  Each maximal run of
    unkept nodes between two kept ones becomes one edge between them,
    written (smaller, larger).
    """
    nbrs: dict = {}
    for a, b in edges:
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    ends = []
    for x, around in nbrs.items():
        if len(around) == 1:
            if x not in keep:
                return None
            ends.append(x)
        elif len(around) > 2:
            return None
    out = []
    walked = 0
    done = set()
    for x in ends:
        if x in done:
            continue
        last, prev, cur = x, x, nbrs[x][0]
        walked += 1
        while True:
            if cur in keep:
                out.append((last, cur) if last < cur else (cur, last))
                last = cur
            around = nbrs[cur]
            if len(around) == 1:
                break
            prev, cur = cur, around[1] if around[0] == prev else around[0]
            walked += 1
        done.add(cur)
    # every edge of a linear forest lies on a path between two ends
    return out if walked == len(edges) else None


def reference_linkage_type(w) -> ReferenceLinkage:
    """`linkage_type` on vertex names: a frontier search in which each
    new vertex takes zero, one or two edges back to introduced vertices
    and `_reference_glue` contracts the vertices that leave the
    frontier.  The reference for the search on neighbour masks."""
    from sepstar.contexts import _interface_masks

    ports = w.port_vertices()
    adj = w.adjacency
    pending = {v: len(adj[v]) for v in w.vertices}  # neighbours still to come
    frontier: set[str] = set()
    remaining = set(w.vertices)

    def cost(v):
        joins = v not in ports and pending[v] > 0
        leaves = sum(1 for u in adj[v] if u in frontier and pending[u] == 1)
        done = len(adj[v]) - pending[v]
        return joins - leaves, -done, v

    patterns: set[frozenset] = {frozenset()}
    while remaining:
        v = min(remaining, key=cost)
        remaining.discard(v)
        back = sorted(u for u in adj[v] if u not in remaining)
        for u in adj[v]:
            pending[u] -= 1
        frontier.add(v)
        frontier = {u for u in frontier if pending[u] and u not in ports}
        keep = ports | frontier
        choices = [[]] + [[(u, v)] for u in back]
        choices += [[(a, v), (b, v)] for a, b in combinations(back, 2)]
        patterns = {
            frozenset(glued)
            for pattern in patterns
            for extra in choices
            if (glued := _reference_glue([*pattern, *extra], keep)) is not None
        }

    k = w.arity
    pos = {v: k + j for j, v in enumerate(w.right) if v is not None}
    pos.update({v: i for i, v in enumerate(w.left) if v is not None})
    return ReferenceLinkage(
        k,
        _interface_masks(w.left, w.right),
        frozenset(
            frozenset(tuple(sorted((pos[a], pos[b]))) for a, b in p) for p in patterns
        ),
    )


def reference_linkage_compose(t1, t2) -> ReferenceLinkage:
    """`linkage_compose` on pattern pairs: each pattern's positions are
    renamed to the classes of `contexts._gluing` and every union is
    contracted by `_reference_glue`.  Takes any two types with
    ``arity``, ``masks`` and ``patterns``."""
    from sepstar.contexts import ContextError, _gluing, _move

    if t1.arity != t2.arity:
        raise ContextError("types must have equal arity")
    k = t1.arity
    stay, up, down, across, _, _, masks = _gluing(t1.masks, t2.masks, k)

    def name(node):
        n = _move(1 << node, k, stay, up, down, across).bit_length() - 1
        return n if n < k else n - k if n >= 2 * k else n + k

    firsts = [[(name(a), name(b)) for a, b in p] for p in t1.patterns]
    seconds = [[(name(a + k), name(b + k)) for a, b in p] for p in t2.patterns]
    keep = range(2 * k)
    patterns = set()
    for a in firsts:
        for b in seconds:
            glued = _reference_glue(a + b, keep)
            if glued is not None:
                patterns.add(frozenset(glued))
    return ReferenceLinkage(k, masks, frozenset(patterns))


def _is_linear_forest(edges) -> bool:
    """No vertex of degree 3 and no cycle (parallel edges count)."""
    import networkx as nx

    g = nx.MultiGraph(edges)
    return max(d for _, d in g.degree) <= 2 and nx.is_forest(g)


def brute_pathwidth(vertices, edges, first=frozenset(), last=frozenset()) -> int:
    """Reference search over all introduction orders.  Exponential; it
    shares nothing with the library's search but the problem statement."""
    verts = sorted(vertices)
    first = frozenset(first)
    last = frozenset(last)
    adj = {v: set() for v in verts}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    free = [v for v in verts if v not in first]
    best = None
    for perm in permutations(free):
        placed = set(first)
        high = len(first)
        for x in perm:
            active = {
                v for v in placed if v in last or any(n not in placed for n in adj[v])
            }
            high = max(high, len(active) + 1)
            placed.add(x)
        if best is None or high < best:
            best = high
    return best - 1


def active_mask(smask, adj, rmask):
    """The definition of the active set the exact-pathwidth DP reads:
    the vertices of smask that must stay in the bag, right ports and
    vertices with a neighbour outside smask."""
    out = smask & rmask
    bits = smask & ~rmask
    while bits:
        low = bits & -bits
        bits ^= low
        if adj[low.bit_length() - 1] & ~smask:
            out |= low
    return out


def reference_pathwidth_table(vertices, edges, first, last):
    """The exact-pathwidth subset DP in its plain form: every subset's
    active set from `active_mask`, the min over all free vertices, and
    the vertex introduced last stored per subset in ``parent``.

    Returns ``(verts, index, adj, lmask, rmask, free, limit, cost,
    parent)`` with the library table's vertex numbering, so that costs
    and decompositions compare entry for entry."""
    first = frozenset(first)
    last = frozenset(last)
    verts = sorted(vertices, key=lambda v: (v in first, v not in last, v))
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for u, v in edges:
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]
    lmask = sum(1 << index[v] for v in first)
    rmask = sum(1 << index[v] for v in last)
    free = verts[: len(verts) - len(first)]
    size = 1 << len(free)
    cost = [0] * size
    parent = [-1] * size
    g = len(first)
    for m in range(size):
        if m:
            g = None
            for t in range(len(free)):
                if m >> t & 1 and (g is None or cost[m ^ 1 << t] < g):
                    g = cost[m ^ 1 << t]
                    parent[m] = t
        cost[m] = max(g, active_mask(m | lmask, adj, rmask).bit_count() + 1)
    return verts, index, adj, lmask, rmask, free, g, cost, parent


def reference_low_overlap_parent(w, table):
    """Per free subset, the last vertex of the optimal order that keeps
    each left port co-alive with the different right port of its slot
    for the fewest steps, lowest index first on ties; ``table`` is the
    context's `reference_pathwidth_table`."""
    _, index, adj, lmask, rmask, free, limit, cost, _ = table
    left_map, right_map = w.left_map(), w.right_map()
    pair_masks = [
        (1 << index[left_map[p]], 1 << index[right_map[p]])
        for p in left_map
        if p in right_map and left_map[p] != right_map[p]
    ]

    def step(m):
        a = active_mask(m | lmask, adj, rmask)
        return sum(1 for mu, mv in pair_masks if a & mu and a & mv)

    h = [step(0)] + [0] * (len(cost) - 1)
    parent = [-1] * len(cost)
    for m in range(1, len(cost)):
        for t in range(len(free)):
            prev = m ^ 1 << t
            if m >> t & 1 and cost[prev] <= limit:
                if parent[m] < 0 or h[prev] < h[m]:
                    h[m] = h[prev]
                    parent[m] = t
        if parent[m] >= 0:
            h[m] += step(m)
    return parent


def reference_decomposition(table, parent, first):
    """The bags of the introduction order that ``parent`` walks back
    from the full subset, normalised."""
    from sepstar.pathdecomp import normalize

    verts, _, adj, lmask, rmask, _, _, cost, _ = table
    order = []
    m = len(cost) - 1
    while m:
        order.append(parent[m])
        m ^= 1 << parent[m]
    bags = [frozenset(first)]
    smask = lmask
    for i in reversed(order):
        members = active_mask(smask, adj, rmask) | 1 << i
        bags.append(frozenset(v for j, v in enumerate(verts) if members >> j & 1))
        smask |= 1 << i
    return normalize(bags)


def reference_validate_decomposition(bags, vertices, edges, first, last):
    """`validate_decomposition` in its plain form, scanning every bag
    per vertex and per edge; raises `DecompositionError` with the same
    message on the same first fault."""
    from sepstar.pathdecomp import DecompositionError

    bags = [frozenset(b) for b in bags]
    if not bags:
        raise DecompositionError("a decomposition needs at least one bag")
    vertices = frozenset(vertices)
    seen = frozenset().union(*bags)
    if seen - vertices:
        raise DecompositionError(f"unknown vertices in bags: {sorted(seen - vertices)}")
    if vertices - seen:
        raise DecompositionError(f"vertices not covered: {sorted(vertices - seen)}")
    for v in vertices:
        hits = [i for i, b in enumerate(bags) if v in b]
        if hits[-1] - hits[0] + 1 != len(hits):
            raise DecompositionError(f"vertex {v!r} appears in a broken interval")
    for u, v in edges:
        if not any(u in b and v in b for b in bags):
            raise DecompositionError(f"edge {(u, v)!r} is not covered by any bag")
    if not frozenset(first) <= bags[0]:
        raise DecompositionError("left ports must be in the first bag")
    if not frozenset(last) <= bags[-1]:
        raise DecompositionError("right ports must be in the last bag")


def reference_normalize(bags) -> list[frozenset]:
    """`normalize` by repeated removal: drop the first bag that is a
    subset of a neighbouring bag, and start the scan again."""
    out = [frozenset(b) for b in bags]
    changed = True
    while changed and len(out) > 1:
        changed = False
        for i, bag in enumerate(out):
            prev_ok = i > 0 and bag <= out[i - 1]
            next_ok = i + 1 < len(out) and bag <= out[i + 1]
            if prev_ok or next_ok:
                del out[i]
                changed = True
                break
    return out


def reference_gap_min_blocks(i0, j0, i1, j1, cost, bound):
    """`pathdecomp._gap_min_blocks` as a forward table of least block
    counts and a walk back through it: from each state it steps to the
    predecessor that continues the same class, else the other class,
    else the gap's start, whose count matches.  Returns the same
    (blocks, path) and raises the same `DecompositionError`."""
    from sepstar.pathdecomp import DecompositionError

    # state: (i, j, last step class); None last = gap not started
    INF = float("inf")
    table = {(i0, j0, None): 0}
    for i in range(i0, i1 + 1):
        for j in range(j0, j1 + 1):
            if cost(i, j) > bound:
                for last in ("X", "Y", None):
                    table.pop((i, j, last), None)
                continue
            for last in ("X", "Y", None):
                cur = table.get((i, j, last), INF)
                if cur is INF:
                    continue
                if i < i1:
                    step = cur + (0 if last == "X" else 1)
                    key = (i + 1, j, "X")
                    if step < table.get(key, INF):
                        table[key] = step
                if j < j1:
                    step = cur + (0 if last == "Y" else 1)
                    key = (i, j + 1, "Y")
                    if step < table.get(key, INF):
                        table[key] = step
    finals = {
        last: table[(i1, j1, last)]
        for last in ("X", "Y", None)
        if (i1, j1, last) in table
    }
    if not finals:
        raise DecompositionError("no path satisfies the width bound")
    best_last = min(finals, key=lambda c: (finals[c], c is None, c))
    path = []
    i, j, last = i1, j1, best_last
    blocks = finals[best_last]
    while (i, j) != (i0, j0):
        if last == "X":
            prev_candidates = [("X", 0), ("Y", 1), (None, 1)]
            pi, pj = i - 1, j
        else:
            prev_candidates = [("Y", 0), ("X", 1), (None, 1)]
            pi, pj = i, j - 1
        for prev_last, delta in prev_candidates:
            if table.get((pi, pj, prev_last), INF) == blocks - delta:
                path.append(last)
                i, j, last = pi, pj, prev_last
                blocks -= delta
                break
        else:
            raise DecompositionError("block reconstruction lost the table trail")
    path.reverse()
    return finals[best_last], path


def reference_compose(u, v):
    """`compose` as a union-find over the operands' tagged vertices,
    building and validating each composite: the reference for the
    fold of `compose_all` on plain data."""
    from sepstar.contexts import Context, ContextError

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


def _norm_pair(p, q):
    return (p, q) if p <= q else (q, p)


def _glued_refs(r1, r2) -> dict[tuple, tuple[str, int]]:
    """Merge the interface references of two reachability types
    composed r1 . r2 into classes, the way `compose` glues vertices:
    persistence links a type's own two references, gluing links right
    of the first to left of the second.

    Maps each reference ("u" or "v", "L" or "R", i) to the name of its
    class.  A class is a port of the composite iff it contains a left
    reference of the first operand or a right reference of the second;
    it is then named by its reference in the composite, ("L", i) before
    ("R", j).  Every other class is named ("~", n).
    """
    from sepstar.contexts import ContextError

    if r1.arity != r2.arity:
        raise ContextError("types must have equal arity")
    firsts = [("u", "L", i) for i in sorted(r1.left_defined)]
    lasts = [("v", "R", i) for i in sorted(r2.right_defined)]
    refs = (
        firsts
        + [("u", "R", i) for i in sorted(r1.right_defined)]
        + [("v", "L", i) for i in sorted(r2.left_defined)]
        + lasts
    )
    classes = _DisjointSet(refs)
    find, union = classes.find, classes.union
    for i in r1.persistent:
        union(("u", "L", i), ("u", "R", i))
    for i in r2.persistent:
        union(("v", "L", i), ("v", "R", i))
    for i in r1.right_defined & r2.left_defined:
        union(("u", "R", i), ("v", "L", i))
    names: dict = {}
    for nd in firsts + lasts:
        names.setdefault(find(nd), nd[1:])
    for nd in refs:
        names.setdefault(find(nd), ("~", len(names)))
    return {nd: names[find(nd)] for nd in refs}


def reference_beta_compose(r1, r2):
    """`beta_compose` as a graph search over the glued reference
    classes of `_glued_refs`, written on ReachType fields: the reference
    for the composition of type codes."""
    from sepstar.contexts import ReachType

    name = _glued_refs(r1, r2)
    edges: dict[tuple, set[tuple]] = {c: set() for c in name.values()}
    for side, rt in (("u", r1), ("v", r2)):
        for (p, q) in rt.reach:
            a, b = name[(side, *p)], name[(side, *q)]
            edges[a].add(b)
            edges[b].add(a)

    out_refs = [("L", i) for i in sorted(r1.left_defined)] + [
        ("R", j) for j in sorted(r2.right_defined)
    ]
    cls = [name[("u", *ref)] if ref[0] == "L" else name[("v", *ref)] for ref in out_refs]
    reachable_from: dict[tuple, set[tuple]] = {}
    for start in cls:
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
                if nb[0] == "~" and nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
        reachable_from[start] = reached

    pairs = set()
    for a in range(len(out_refs)):
        for b in range(a, len(out_refs)):
            cp, cq = cls[a], cls[b]
            if cp == cq or cq in reachable_from[cp]:
                pairs.add(_norm_pair(out_refs[a], out_refs[b]))
    return ReachType(
        r1.arity,
        r1.left_defined,
        r2.right_defined,
        r1.persistent & r2.persistent,
        frozenset(pairs),
    )


def reference_right_cayley(identity, candidates, mul):
    """`monoids._right_cayley` composing every product: ``mul`` runs
    once per (element, kept generator).  Returns the same (position,
    kept, steps, right)."""
    position = {identity: 0}
    elements = [identity]
    kept: list = []
    steps: list[tuple[int, int]] = []
    right: list[list[int]] = [[]]
    for c in candidates:
        if c in position:
            continue
        kept.append(c)
        # the loop also visits the rows that it appends
        for a, row in enumerate(right):
            x = elements[a]
            for j in range(len(row), len(kept)):
                b = mul(x, kept[j])
                if b not in position:
                    position[b] = len(elements)
                    elements.append(b)
                    steps.append((a, j))
                    right.append([])
                row.append(position[b])
    return position, kept, steps, right


def reference_alternation_start(values):
    """The threshold search `certify_non_star_free` used to run: the
    least m0 whose tail values[m0 - 1:] strictly alternates."""
    for m0 in range(1, len(values) + 1):
        tail = values[m0 - 1 :]
        if all(tail[i] != tail[i + 1] for i in range(len(tail) - 1)):
            return m0
    return None


def reference_canonical_names(g, keys: dict[str, str]) -> dict[str, str]:
    """The name v0..v{n-1} of each vertex of a port graph or context
    coloured by ``keys``, in the order `graphs._search_canonical` finds
    on its vertices numbered in name order."""
    from sepstar.graphs import _search_canonical

    vertices = sorted(g.vertices)
    idx = {v: i for i, v in enumerate(vertices)}
    adj = [sum(1 << idx[w] for w in g.adjacency[v]) for v in vertices]
    _, order = _search_canonical(len(vertices), adj, [keys[v] for v in vertices])
    return {vertices[i]: f"v{n}" for n, i in enumerate(order)}


def reference_search_canonical(n: int, adj: list[int], keys: list[str]):
    """The least triangle and the first order to reach it over every
    leaf of the refinement search, pruned only by twins (vertices with
    equal neighbourhoods): the reference for `graphs._search_canonical`
    above five vertices, which also prunes by the automorphisms it
    finds.  Each round of refinement ranks every vertex by its colour
    and the sorted colours of all its neighbours, read off its row."""
    base = {k: i for i, k in enumerate(sorted(set(keys)))}
    pairs = list(combinations(range(n), 2))
    best = None

    def refine(colors):
        while True:
            sigs = [
                (colors[v], tuple(sorted(colors[u] for u in range(n) if adj[v] >> u & 1)))
                for v in range(n)
            ]
            ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
            new = [ranking[s] for s in sigs]
            if new == colors:
                return colors
            colors = new

    def rec(colors):
        nonlocal best
        colors = refine(colors)
        groups: dict[int, list[int]] = {}
        for v in range(n):
            groups.setdefault(colors[v], []).append(v)
        target = next((groups[c] for c in sorted(groups) if len(groups[c]) > 1), None)
        if target is None:
            perm = sorted(range(n), key=lambda v: colors[v])
            tri = "".join("1" if adj[perm[a]] >> perm[b] & 1 else "0" for a, b in pairs)
            if best is None or tri < best[0]:
                best = (tri, perm)
            return
        chosen: list[int] = []
        for u in target:
            if all(adj[u] & ~(1 << w) != adj[w] & ~(1 << u) for w in chosen):
                chosen.append(u)
        for u in chosen:
            child = [c * 2 for c in colors]
            child[u] -= 1
            rec(child)

    rec([base[k] for k in keys])
    return best


def reference_small_canonical(n: int, adj: list[int], keys: list[str]):
    """The canonical triangle of a coloured graph on at most five
    vertices: every colour-respecting order is encoded as the keys in
    that order and the upper triangle as ``0``/``1`` characters, and the
    triangle of the first minimal encoding is kept with its order.  The
    reference for `graphs._search_canonical` up to five vertices."""
    base = {k: i for i, k in enumerate(sorted(set(keys)))}
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(base[keys[v]], []).append(v)
    orders = [[]]
    for c in sorted(groups):
        orders = [o + list(p) for o in orders for p in permutations(groups[c])]
    best = None
    for perm in orders:
        bits = "".join(
            "1" if adj[perm[i]] >> perm[j] & 1 else "0"
            for i, j in combinations(range(n), 2)
        )
        enc = ("|".join(keys[v] for v in perm), bits)
        if best is None or enc < best[0]:
            best = (enc, perm)
    (head, tri), perm = best
    # every colour-respecting order lists the keys sorted, so the
    # triangle alone decides
    assert head == "|".join(sorted(keys))
    return tri, perm


def reference_fusion_splits(g: PortGraph):
    """All ways to present g as fuse(h1, h2), up to isomorphism, as
    built PortGraphs: non-port classes grouped by the certificate of
    their prime factor, and each port-port edge on the left (0), the
    right (1) or both (2), the first edge's side varying fastest."""
    from itertools import product

    from sepstar.graphs import canonical_cert, prime_factors

    pset = set(g.ports)
    groups: dict[bytes, list[frozenset[str]]] = {}
    for factor in prime_factors(g):
        groups.setdefault(canonical_cert(factor), []).append(factor.vertices - pset)
    ordered = [groups[c] for c in sorted(groups)]
    port_edges = sorted(e for e in g.edges if e[0] in pset and e[1] in pset)
    class_edges = g.edges.difference(port_edges)

    def build(classes, side_edges):
        keep = pset.union(*classes)
        edges = {e for e in class_edges if e[0] in keep and e[1] in keep}
        return PortGraph.build(keep, edges | side_edges, g.ports)

    for takes in product(*(range(len(gr) + 1) for gr in ordered)):
        left = [c for gr, t in zip(ordered, takes) for c in gr[:t]]
        right = [c for gr, t in zip(ordered, takes) for c in gr[t:]]
        if not (pset or left) or not (pset or right):
            continue
        for sides in product((0, 1, 2), repeat=len(port_edges)):
            sides = sides[::-1]
            yield (
                build(left, {e for e, s in zip(port_edges, sides) if s != 1}),
                build(right, {e for e, s in zip(port_edges, sides) if s != 0}),
            )


def with_port(g: PortGraph, v: str) -> PortGraph:
    """Promote an existing non-port vertex to a new last port."""
    if v not in g.vertices or v in g.ports:
        raise GraphError(f"{v!r} is not a promotable vertex")
    return PortGraph.build(g.vertices, g.edges, g.ports + (v,), dict(g.labels))


def drop_last_port(g: PortGraph) -> PortGraph:
    """Delete the last port vertex entirely (inverse of add_port)."""
    if g.arity == 0:
        raise GraphError("no port to drop")
    v = g.ports[-1]
    rest = g.vertices - {v}
    if not rest:
        raise GraphError("dropping the port would empty the graph")
    edges = {e for e in g.edges if v not in e}
    labels = {w: c for w, c in g.labels if w != v}
    return PortGraph.build(rest, edges, g.ports[:-1], labels)


def reference_member(g: PortGraph, e, memo: dict) -> bool:
    """Membership decided on built PortGraphs: every operation is
    inverted by building and validating each operand, which is then
    certified with `canonical_cert`.  The reference for
    `starfree.member`.  ``memo`` maps (id of node, certificate) to a
    verdict, apart from the nodes' own memos."""
    from sepstar.graphs import canonical_cert, permute
    from sepstar.starfree import Add, And, Finite, Forget, Fuse, Not, Or, Permute

    key = (id(e), canonical_cert(g))
    if key in memo:
        return memo[key]
    match e:
        case Finite():
            res = key[1] in e.certs
        case Not(sub):
            res = not reference_member(g, sub, memo)
        case And(operands):
            res = all(reference_member(g, sub, memo) for sub in operands)
        case Or(operands):
            res = any(reference_member(g, sub, memo) for sub in operands)
        case Fuse(a, b):
            res = any(
                reference_member(h1, a, memo) and reference_member(h2, b, memo)
                for h1, h2 in reference_fusion_splits(g)
            )
        case Forget(sub):
            res = any(
                reference_member(with_port(g, v), sub, memo)
                for v in sorted(g.vertices - set(g.ports))
            )
        case Add(sub):
            last = g.ports[-1]
            if g.neighbors(last) or len(g.vertices) == 1:
                res = False
            else:
                res = reference_member(drop_last_port(g), sub, memo)
        case Permute(perm, sub):
            inv = [0] * len(perm)
            for pos, val in enumerate(perm):
                inv[val - 1] = pos + 1
            res = reference_member(permute(g, tuple(inv)), sub, memo)
    memo[key] = res
    return res


def reference_eval(g: PortGraph, f, env: dict[str, str]) -> bool:
    """Evaluate a formula by walking its tree on vertex names, copying
    the environment at every quantifier step and asking
    `separator_holds` once per separator atom.  The reference for the
    compiled evaluator of `sepstar.logic`."""
    from sepstar.graphs import separator_holds
    from sepstar.logic import And, Edge, Eq, Exists, Forall, Label, Not, Or, Sep

    match f:
        case Edge(x, y):
            return g.has_edge(env[x], env[y])
        case Eq(x, y):
            return env[x] == env[y]
        case Label(x, label):
            return g.label_of(env[x]) == label
        case Sep(x, y, zs):
            return separator_holds(g, env[x], env[y], {env[z] for z in zs})
        case Not(sub):
            return not reference_eval(g, sub, env)
        case And(operands):
            return all(reference_eval(g, sub, env) for sub in operands)
        case Or(operands):
            return any(reference_eval(g, sub, env) for sub in operands)
        case Exists(var, sub):
            return any(reference_eval(g, sub, {**env, var: v}) for v in sorted(g.vertices))
        case Forall(var, sub):
            return all(reference_eval(g, sub, {**env, var: v}) for v in sorted(g.vertices))
    raise TypeError(f"not a formula: {f!r}")


@lru_cache(maxsize=None)
def _reference_position_type(g: PortGraph, pinned: tuple[str, ...]) -> tuple:
    """Full atomic type of a tuple of pinned vertices, including every
    separator atom over subsets of the pinned tuple."""
    from sepstar.graphs import separator_holds

    n = len(pinned)
    eqs = tuple(
        pinned[i] == pinned[j] for i in range(n) for j in range(i + 1, n)
    )
    edges = tuple(
        g.has_edge(pinned[i], pinned[j]) for i in range(n) for j in range(i + 1, n)
    )
    labels = tuple(g.label_of(v) for v in pinned)
    seps = []
    for zbits in range(1 << n):
        cut = frozenset(pinned[t] for t in range(n) if zbits >> t & 1)
        for i in range(n):
            for j in range(i, n):
                seps.append(separator_holds(g, pinned[i], pinned[j], cut))
    return (eqs, edges, labels, tuple(seps))


def reference_ef_equivalent(g1: PortGraph, g2: PortGraph, rank: int) -> bool:
    """The rank-`rank` back-and-forth game played on vertex names, each
    position type computed by `separator_holds` calls.  The reference
    for `sepstar.logic.ef_equivalent`."""
    memo: dict[tuple, bool] = {}
    v1 = sorted(g1.vertices)
    v2 = sorted(g2.vertices)

    def play(p1: tuple[str, ...], p2: tuple[str, ...], r: int) -> bool:
        key = (frozenset(zip(p1, p2)), r)
        if key in memo:
            return memo[key]
        if _reference_position_type(g1, p1) != _reference_position_type(g2, p2):
            ok = False
        elif r == 0:
            ok = True
        else:
            ok = all(
                any(play(p1 + (a,), p2 + (b,), r - 1) for b in v2) for a in v1
            ) and all(
                any(play(p1 + (a,), p2 + (b,), r - 1) for a in v1) for b in v2
            )
        memo[key] = ok
        return ok

    return play(g1.ports, g2.ports, rank)


def audit_well_defined(rec, max_len: int):
    """Do isomorphic products get the same monoid image?

    Enumerates all generator words up to max_len (by length, then
    lexicographically) and reports pairs of words whose composed
    contexts are isomorphic but whose images differ.  An empty report
    means the recognizer factors through context isomorphism on this
    range."""
    from sepstar.contexts import Context, compose, context_cert, enumerate_generators

    alphabet = enumerate_generators(rec.arity)
    gm = rec.gen_dict()
    ids = [gid for gid in alphabet.ids if gid in gm]
    seen: dict[bytes, tuple[tuple[str, ...], int]] = {}
    conflicts = []
    level: list[tuple[tuple[str, ...], Context, int]] = []
    for gid in ids:
        w = alphabet.by_id(gid)
        level.append(((gid,), w, gm[gid]))
    for _ in range(max_len):
        next_level = []
        for word, ctx, el in level:
            cert = context_cert(ctx)
            if cert in seen:
                prev_word, prev_el = seen[cert]
                if prev_el != el:
                    conflicts.append((prev_word, word))
            else:
                seen[cert] = (word, el)
            if len(word) < max_len:
                for gid in ids:
                    g = alphabet.by_id(gid)
                    next_level.append(
                        (word + (gid,), compose(ctx, g), rec.monoid.mul(el, gm[gid]))
                    )
        level = next_level
    return conflicts


def classify_infix_classes(rec):
    """Summary of each infix (two-sided) class of the recognizer's
    monoid: size, whether it contains an idempotent, whether its
    group-like part is trivial, and whether the class is reachable as
    the image of a generator word."""
    from sepstar.monoids import generated_submonoid, green_classes, is_aperiodic_element

    m = rec.monoid
    green = green_classes(m)
    reachable = set()
    words = generated_submonoid(m, rec.gen_dict())
    for el in words:
        reachable.add(green.j_class[el])
    out = []
    n_classes = max(green.j_class) + 1
    for j in range(n_classes):
        members = [a for a in range(m.size) if green.j_class[a] == j]
        idems = [a for a in members if a in green.idempotents]
        aperiodic = all(is_aperiodic_element(m, a) for a in members)
        out.append(
            {
                "class": j,
                "size": len(members),
                "members": members,
                "idempotents": idems,
                "aperiodic": aperiodic,
                "reachable": j in reachable,
            }
        )
    return out
