"""Star-free expressions denoting sets of unlabelled port graphs.

The connectives are finite literals, boolean operations, and the four
width operations lifted to languages:

* ``finite@k{g1; g2; ...}``  - an explicit finite set,
* ``!e``, ``e & e``, ``e | e`` - complement (within arity k), meet, join;
  `And` and `Or` hold a flat tuple of two or more operands, so a chain
  of any length is one node,
* ``e (+) e``               - pointwise fuse,
* ``forget(e)``, ``add(e)``  - pointwise port removal / fresh port,
* ``perm[..](e)``           - port reordering.

Membership `member(g, e)` is decidable because every operation can be
inverted on a concrete graph: a fuse splits the classes of non-port
vertices between the operands, finitely many ways, and each operand
takes a set of port-port edges, the two sets covering all of them.  The
inversion runs on index data (adjacency bitmasks and port indices), so
no operand is built as a `PortGraph`; each is looked up by its canonical
certificate, the same bytes `canonical_cert` gives, in each node's memo.

`compile_formula` translates separator-logic formulas (without label
atoms) into equivalent expressions, so satisfaction of a formula can be
decided through expression membership.  A separator atom S(x, y | Z)
holds exactly when the graph is the fuse of a part in which every port
on y's side is isolated and a part in which every port on x's side is,
for some side of each other port outside Z: 2^(r-2) alternatives for r
ports outside Z.  A split into more sides needs none of its own, since
fusing parts that each isolate a port keeps the port isolated.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from itertools import product

from .graphs import (
    _MAX_ARITY,
    GraphError,
    PortGraph,
    _flood,
    _numbering,
    _port_certificate,
    _unique_keys,
    _Value,
    canonical_cert,
    canonical_rename,
    graph_from_json,
    graph_to_json,
)
from .logic import (
    And as FAnd,
    Edge as FEdge,
    Eq,
    Exists,
    Forall,
    Formula,
    FormulaError,
    Label,
    Not as FNot,
    Or as FOr,
    Sep,
    _flat,
    _free_vars,
    _joined,
    _nesting_guard,
    _Scanner,
)

__all__ = [
    "ExprError",
    "Expr",
    "Finite",
    "Not",
    "And",
    "Or",
    "Fuse",
    "Forget",
    "Add",
    "Permute",
    "finite",
    "all_graphs",
    "no_graphs",
    "expr_arity",
    "member",
    "parse_expr",
    "render_expr",
    "compile_formula",
]


class ExprError(ValueError):
    """Raised for ill-formed expressions and membership queries."""


class Expr(_Value):
    """Base of the expression nodes, which are frozen values.

    A node derives its ``arity`` from its operands when it is built, so
    an ill-formed tree raises ExprError at construction and never
    exists.  ``memo`` maps the certificate of each graph already tested
    against the node to the verdict.  Neither is a field, so equality,
    hashing and the repr see neither: a node's value is what it was
    built from.
    """

    def __init__(self, *fields):
        super().__init__(*fields)
        object.__setattr__(self, "arity", self._arity())
        object.__setattr__(self, "memo", {})


def _operand_arity(e) -> int:
    if not isinstance(e, Expr):
        raise TypeError(f"not an expression: {e!r}")
    return e.arity


class Finite(Expr):
    arity: int
    members: tuple[PortGraph, ...]  # canonical, deduplicated, sorted

    def __init__(self, arity: int, members: tuple[PortGraph, ...]):
        super().__init__(arity, members)
        object.__setattr__(self, "certs", frozenset(canonical_cert(g) for g in members))

    def _arity(self) -> int:
        return self.arity  # a field here


class Not(Expr):
    sub: Expr

    def _arity(self) -> int:
        return _operand_arity(self.sub)


def _common_arity(node: Expr, operands) -> int:
    """The arity of every one of the node's operands, which must agree."""
    ks = sorted({_operand_arity(e) for e in operands})
    if len(ks) > 1:
        arities = " and ".join(map(str, ks))
        raise ExprError(f"operands of {type(node).__name__} have arities {arities}")
    return ks[0]


class _Junction(Expr):
    operands: tuple[Expr, ...]

    def __init__(self, *operands: Expr):
        super().__init__(_flat(self, operands))

    def _arity(self) -> int:
        return _common_arity(self, self.operands)


class And(_Junction):
    pass


class Or(_Junction):
    pass


class Fuse(Expr):
    lhs: Expr
    rhs: Expr

    def _arity(self) -> int:
        return _common_arity(self, (self.lhs, self.rhs))


class Forget(Expr):
    sub: Expr

    def _arity(self) -> int:
        k = _operand_arity(self.sub)
        if k == 0:
            raise ExprError("forget applied at arity 0")
        return k - 1


class Add(Expr):
    sub: Expr

    def _arity(self) -> int:
        return _operand_arity(self.sub) + 1


class Permute(Expr):
    perm: tuple[int, ...]
    sub: Expr

    def _arity(self) -> int:
        k = _operand_arity(self.sub)
        if sorted(self.perm) != list(range(1, k + 1)):
            raise ExprError(f"perm{list(self.perm)} is not a permutation of 1..{k}")
        return k


def finite(arity: int, graphs=()) -> Finite:
    """Build a finite literal; members are stored up to isomorphism."""
    if arity < 0:
        raise ExprError("arity must be nonnegative")
    by_cert: dict[bytes, PortGraph] = {}
    for g in graphs:
        if g.arity != arity:
            raise ExprError(
                f"finite literal of arity {arity} given a graph of arity {g.arity}"
            )
        if g.labels:
            raise ExprError("star-free expressions range over unlabelled graphs")
        by_cert.setdefault(canonical_cert(g), canonical_rename(g))
    return Finite(arity, tuple(by_cert[c] for c in sorted(by_cert)))


@lru_cache(maxsize=None)
def all_graphs(arity: int) -> Expr:
    return Not(finite(arity))


@lru_cache(maxsize=None)
def no_graphs(arity: int) -> Expr:
    return finite(arity)


def expr_arity(e: Expr) -> int:
    """The common arity of all graphs the expression can denote.

    Every node checks its operands when it is built, which is the only
    place an expression can turn out ill-formed, so this reads a field.
    """
    return _operand_arity(e)


# ---------------------------------------------------------------------------
# membership
#
# Membership runs on index data: a graph is ``(adj, ports)``, the
# adjacency bitmask of each vertex 0..n-1 and the port vertices in port
# order.  Inverting an operation only moves masks and indices (a fuse's
# sets of port-port edges are bitmasks too), and every operand is
# certified on that data.  The certificate is the one `canonical_cert`
# gives an isomorphic PortGraph, so node memos and the certificates of
# finite literals agree.  Renumbering keeps the vertices in index order,
# so the operands come in the order of their vertex names in the input.


@lru_cache(maxsize=None)
def _operand_cert(adj: tuple[int, ...], ports: tuple[int, ...]) -> bytes:
    """The certificate of the unlabelled graph ``(adj, ports)``.  Kept
    for the process: the nodes of every expression test the same few
    thousand small operands over and over."""
    return _port_certificate(adj, ports)


def _induced(adj: tuple[int, ...], ports: tuple[int, ...], keep: int):
    """The subgraph on the vertices of the mask ``keep``, numbered in
    index order, with the given ports, which it must hold."""
    old = [v for v in range(len(adj)) if keep >> v & 1]
    new = {v: i for i, v in enumerate(old)}
    sub = tuple(sum(1 << new[w] for w in old if adj[v] >> w & 1) for v in old)
    return sub, tuple(new[p] for p in ports)


def _fuse_holds(adj: tuple[int, ...], ports: tuple[int, ...], a: Expr, b: Expr) -> bool:
    """Whether the graph is fuse(h1, h2) for some h1 in ``a`` and h2 in ``b``.

    The classes of non-port vertices (the components of the graph minus
    its ports) are distributed between the operands; classes whose prime
    factors are isomorphic are interchangeable, so only the multiplicity
    of each factor shape on the left matters.  Rather than send each of
    the m port-port edges left, right or both (3^m ways), a split holds
    when s | t is every edge for a mask s of edges that puts the left
    operand in ``a`` and a mask t that puts the right one in ``b``.
    """
    pmask = sum(1 << p for p in ports)
    groups: dict[bytes, list[int]] = {}
    rest = (1 << len(adj)) - 1 & ~pmask
    while rest:
        cls = _flood(adj, rest & -rest, rest)
        rest &= ~cls
        cert = _operand_cert(*_induced(adj, ports, pmask | cls))
        groups.setdefault(cert, []).append(cls)
    ordered = [groups[c] for c in sorted(groups)]
    # the port-port edges in vertex order, as pairs of port positions
    at = {p: i for i, p in enumerate(ports)}
    edges = sorted((u, w) for u in ports for w in ports if u < w and adj[u] >> w & 1)
    port_edges = [(at[u], at[w]) for u, w in edges]
    full = (1 << len(port_edges)) - 1
    base = tuple(row & ~pmask if pmask >> v & 1 else row for v, row in enumerate(adj))

    def holding(keep: int, e: Expr) -> list[int]:
        """The masks s for which the operand on the vertices of ``keep``
        plus the port-port edges in s is in e."""
        sub, sub_ports = _induced(base, ports, keep)
        found = []
        for s in range(full + 1):
            out = list(sub)
            for bit, (i, j) in enumerate(port_edges):
                if s >> bit & 1:
                    out[sub_ports[i]] |= 1 << sub_ports[j]
                    out[sub_ports[j]] |= 1 << sub_ports[i]
            if _holds(tuple(out), sub_ports, e):
                found.append(s)
        return found

    for takes in product(*(range(len(gr) + 1) for gr in ordered)):
        left = [c for gr, t in zip(ordered, takes) for c in gr[:t]]
        right = [c for gr, t in zip(ordered, takes) for c in gr[t:]]
        if not (ports or left) or not (ports or right):
            continue  # an operand would be the empty graph
        lhs = holding(pmask | sum(left), a)
        if not lhs:
            continue
        # B closed downwards edge by edge (a zeta transform, O(m 2^m)):
        # s | t == full for some t in B iff full ^ s lies below one
        below = set(holding(pmask | sum(right), b))
        for bit in range(len(port_edges)):
            below |= {t & ~(1 << bit) for t in below}
        if any(full ^ s in below for s in lhs):
            return True
    return False


@_nesting_guard(ExprError, "expression")
def member(g: PortGraph, e: Expr) -> bool:
    """Decide whether g belongs to the language of e."""
    if g.labels:
        raise ExprError("star-free expressions range over unlabelled graphs")
    k = _operand_arity(e)
    if g.arity != k:
        raise ExprError(f"graph has arity {g.arity}, expression has arity {k}")
    at, adj = _numbering(g)
    return _holds(adj, tuple(at[p] for p in g.ports), e)


def _holds(adj: tuple[int, ...], ports: tuple[int, ...], e: Expr) -> bool:
    return _member(adj, ports, _operand_cert(adj, ports), e)


def _member(adj: tuple[int, ...], ports: tuple[int, ...], cert: bytes, e: Expr) -> bool:
    hit = e.memo.get(cert)
    if hit is not None:
        return hit
    match e:
        case Finite():
            res = cert in e.certs
        case Not(sub):
            res = not _member(adj, ports, cert, sub)
        case And(operands) | Or(operands):
            # and stops at the first false operand, or at the first true one
            res = stop = isinstance(e, Or)
            for sub in operands:
                if _member(adj, ports, cert, sub) is stop:
                    break
            else:
                res = not stop
        case Fuse(a, b):
            res = _fuse_holds(adj, ports, a, b)
        case Forget(sub):
            res = any(
                _holds(adj, ports + (v,), sub) for v in range(len(adj)) if v not in ports
            )
        case Add(sub):
            last = ports[-1]
            if adj[last] or len(adj) == 1:
                res = False
            else:
                keep = (1 << len(adj)) - 1 & ~(1 << last)
                res = _holds(*_induced(adj, ports[:-1], keep), sub)
        case Permute(perm, sub):
            inv = [0] * len(perm)
            for pos, val in enumerate(perm):
                inv[val - 1] = pos
            res = _holds(adj, tuple(ports[i] for i in inv), sub)
        case _:
            raise TypeError(f"not an expression: {e!r}")
    e.memo[cert] = res
    return res


# ---------------------------------------------------------------------------
# concrete syntax
#
#   expr    := or
#   or      := and ('|' and)*
#   and     := fusion ('&' fusion)*
#   fusion  := unary ('(+)' unary)*
#   unary   := '!' unary | 'forget(' expr ')' | 'add(' expr ')'
#            | 'perm[' [N (',' N)*] '](' expr ')'
#            | 'finite@' N '{' [json (';' json)*] '}'
#            | '(' expr ')'


class _ExprParser(_Scanner):
    error_class = ExprError
    what = "expression"

    def top(self) -> Expr:
        return _joined(Or, self.chain(self.conj, "|"))

    def conj(self) -> Expr:
        return _joined(And, self.chain(self.fusion, "&"))

    def fusion(self) -> Expr:
        e, *rest = self.chain(self.unary, "(+)")
        for b in rest:
            e = Fuse(e, b)
        return e

    def unary(self) -> Expr:
        if self.peek() == "!":
            self.take("!")
            return Not(self.unary())
        if self.peek() == "(" and self.peek(3) != "(+)":
            self.take("(")
            e = self.top()
            self.take(")")
            return e
        for head, node in (("forget(", Forget), ("add(", Add)):
            if self.peek(len(head)) == head:
                self.take(head)
                e = self.top()
                self.take(")")
                return node(e)
        if self.peek(5) == "perm[":
            self.take("perm[")
            perm = ()  # the arity-0 permutation is `perm[]`
            if self.peek() != "]":
                perm = tuple(map(int, self.listing(r"[0-9]+", "a number")))
            self.take("]")
            self.take("(")
            e = self.top()
            self.take(")")
            return Permute(perm, e)
        if self.peek(7) == "finite@":
            self.take("finite@")
            arity = int(self.match(r"[0-9]+", "a number"))
            self.take("{")
            members = []
            while self.peek() != "}":
                members.append(self.json_graph())
                if self.peek() == ";":
                    self.take(";")
            self.take("}")
            return finite(arity, members)
        raise self.error("expected an expression")

    def json_graph(self) -> PortGraph:
        if self.peek() != "{":
            raise self.error("expected a JSON graph object")
        try:
            data, self.pos = json.JSONDecoder(object_pairs_hook=_unique_keys).raw_decode(
                self.text, self.pos
            )
        except (ValueError, RecursionError) as exc:
            raise self.error(f"bad JSON graph: {exc}") from None
        try:
            return graph_from_json(data)
        except GraphError as exc:
            raise self.error(str(exc))


def parse_expr(text: str) -> Expr:
    return _ExprParser(text).parse()


@_nesting_guard(ExprError, "expression")
def render_expr(e: Expr) -> str:
    """Concrete syntax; parse(render(e)) denotes the same language."""
    return _render_expr(e)


def _render_expr(e: Expr) -> str:
    def paren(x: Expr, loose: tuple[type, ...]) -> str:
        s = _render_expr(x)
        return f"({s})" if isinstance(x, loose) else s

    match e:
        case Finite(arity, members):
            body = "; ".join(
                json.dumps(graph_to_json(m), sort_keys=True, separators=(",", ":"))
                for m in members
            )
            return f"finite@{arity}{{{body}}}"
        case Not(sub):
            return f"!{paren(sub, (Or, And, Fuse))}"
        case And(operands) | Or(operands):
            loose = (Or,) if isinstance(e, And) else ()
            parts = []
            for x in operands:
                parts.append(paren(x, loose))
            return (" & " if isinstance(e, And) else " | ").join(parts)
        case Fuse(a, b):
            return f"{paren(a, (Or, And))} (+) {paren(b, (Or, And, Fuse))}"
        case Forget(sub):
            return f"forget({_render_expr(sub)})"
        case Add(sub):
            return f"add({_render_expr(sub)})"
        case Permute(perm, sub):
            return f"perm[{','.join(map(str, perm))}]({_render_expr(sub)})"
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# compiling formulas to expressions


@lru_cache(maxsize=None)
def _ports_only_graph(k: int, extra_edges: tuple = ()) -> PortGraph:
    names = [f"p{i}" for i in range(1, k + 1)]
    edges = [(names[i - 1], names[j - 1]) for (i, j) in extra_edges]
    return PortGraph.build(names, edges, names)


@lru_cache(maxsize=None)
def _isolated_port(p: int, k: int) -> Expr:
    """Arity-k graphs in which port p has no incident edges."""
    if k == 1:
        return Or(Add(all_graphs(0)), finite(1, [_ports_only_graph(1)]))
    if p == k:
        return Add(all_graphs(k - 1))
    perm = tuple(range(1, p)) + (k,) + tuple(range(p, k))
    return Permute(perm, Add(all_graphs(k - 1)))


def _isolating(ports: list[int], k: int) -> Expr:
    """Arity-k graphs in which each of the (ascending) ports is isolated."""
    return _joined(And, [_isolated_port(p, k) for p in ports])


def _var_index(v: str, k: int) -> int:
    m = re.fullmatch(r"x([0-9]+)", v)
    if not m or not 1 <= int(m.group(1)) <= k:
        raise ExprError(f"variable {v!r} is not a port variable x1..x{k}")
    return int(m.group(1))


def _rename(f: Formula, env: dict[str, str], fresh: list[int] | None = None) -> Formula:
    """Rename the free variables of f by ``env``; a binder shadows its
    own variable.  Given a ``fresh`` counter, every bound variable is
    renamed as well, to b1, b2, ... in the order the binders come, so
    that renaming the result later can capture nothing."""
    match f:
        case FEdge(x, y):
            return FEdge(env.get(x, x), env.get(y, y))
        case Eq(x, y):
            return Eq(env.get(x, x), env.get(y, y))
        case Label(x, lab):
            return Label(env.get(x, x), lab)
        case Sep(x, y, zs):
            return Sep(env.get(x, x), env.get(y, y), tuple(env.get(z, z) for z in zs))
        case FNot(sub):
            return FNot(_rename(sub, env, fresh))
        case FAnd(operands) | FOr(operands):
            return type(f)(*(_rename(sub, env, fresh) for sub in operands))
        case Exists(v, sub) | Forall(v, sub):
            if fresh is None:
                name = v
            else:
                fresh[0] += 1
                name = f"b{fresh[0]}"
            return type(f)(name, _rename(sub, {**env, v: name}, fresh))
    raise TypeError(f"not a formula: {f!r}")


@lru_cache(maxsize=None)
def _compile(f: Formula, k: int) -> Expr:
    match f:
        case Eq(x, y):
            i, j = _var_index(x, k), _var_index(y, k)
            return all_graphs(k) if i == j else no_graphs(k)
        case FEdge(x, y):
            i, j = _var_index(x, k), _var_index(y, k)
            if i == j:
                return no_graphs(k)
            lo, hi = min(i, j), max(i, j)
            return Fuse(
                finite(k, [_ports_only_graph(k, ((lo, hi),))]), all_graphs(k)
            )
        case Label():
            raise ExprError("label atoms have no expression translation")
        case Sep(x, y, zs):
            s, t = _var_index(x, k), _var_index(y, k)
            cut = frozenset(_var_index(z, k) for z in zs)
            if s in cut or t in cut:
                return all_graphs(k)
            if s == t:
                return no_graphs(k)
            # one fuse per way of putting each other free port on s's
            # side or t's: the part isolating the side that holds the
            # larger least port, then the part isolating the other side
            others = sorted(set(range(1, k + 1)) - cut - {s, t})
            alternatives = []
            for sides in product((0, 1), repeat=len(others)):
                blocks = ([s], [t])
                for p, side in zip(others, sides):
                    blocks[side].append(p)
                first, second = sorted(sorted(b) for b in blocks)
                alternatives.append(Fuse(_isolating(second, k), _isolating(first, k)))
            return _joined(Or, alternatives)
        case FNot(sub):
            return Not(_compile(sub, k))
        case FAnd(operands) | FOr(operands):
            node = And if isinstance(f, FAnd) else Or
            return node(*(_compile(sub, k) for sub in operands))
        case Exists(v, sub):
            fresh = f"x{k + 1}"
            branches = [Forget(_compile(_rename(sub, {v: fresh}), k + 1))]
            for i in range(1, k + 1):
                branches.append(_compile(_rename(sub, {v: f"x{i}"}), k))
            return _joined(Or, branches)
        case Forall(v, sub):
            return Not(_compile(Exists(v, FNot(sub)), k))
    raise TypeError(f"not a formula: {f!r}")


@_nesting_guard(ExprError, "formula")
def compile_formula(f: Formula, arity: int) -> Expr:
    """Equivalent star-free expression for f at the given arity.

    Free variables must be port variables x1..x{arity}; label atoms are
    rejected.  The result satisfies: member(g, compile_formula(f, k))
    iff language_member(g, f) for every unlabelled arity-k graph g.
    """
    if not isinstance(arity, int) or isinstance(arity, bool) or not 0 <= arity <= _MAX_ARITY:
        raise ExprError(f"arity must be an integer in 0..{_MAX_ARITY}, got {arity!r}")
    allowed = {f"x{i}" for i in range(1, arity + 1)}
    stray = _free_vars(f) - allowed
    if stray:
        raise ExprError(
            f"free variables {sorted(stray)} not of the form x1..x{arity}"
        )
    return _compile(_rename(f, {}, fresh=[0]), arity)
