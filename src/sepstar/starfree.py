"""Star-free expressions denoting sets of unlabelled port graphs.

The connectives are finite literals, boolean operations, and the four
width operations lifted to languages:

* ``finite@k{g1; g2; ...}``  - an explicit finite set,
* ``!e``, ``e & e``, ``e | e`` - complement (within arity k), meet, join,
* ``e (+) e``               - pointwise fuse,
* ``forget(e)``, ``add(e)``  - pointwise port removal / fresh port,
* ``perm[..](e)``           - port reordering.

Membership `member(g, e)` is decidable because every operation can be
inverted on a concrete graph: a fuse can only arise by splitting the
classes of non-port vertices and the port-port edges between the two
operands, and there are finitely many such splits.

`compile_formula` translates separator-logic formulas (without label
atoms) into equivalent expressions, so satisfaction of a formula can be
decided through expression membership.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .graphs import (
    GraphError,
    PortGraph,
    canonical_cert,
    canonical_rename,
    drop_last_port,
    fuse as fuse_graphs,
    graph_from_json,
    graph_to_json,
    nonport_classes,
    permute as permute_graph,
    with_port,
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
    _nesting_guard,
    _free_vars,
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


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Finite(Expr):
    arity: int
    members: tuple[PortGraph, ...]  # canonical, deduplicated, sorted


@dataclass(frozen=True)
class Not(Expr):
    sub: Expr


@dataclass(frozen=True)
class And(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Or(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Fuse(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Forget(Expr):
    sub: Expr


@dataclass(frozen=True)
class Add(Expr):
    sub: Expr


@dataclass(frozen=True)
class Permute(Expr):
    perm: tuple[int, ...]
    sub: Expr


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


@_nesting_guard(ExprError, "expression")
def expr_arity(e: Expr) -> int:
    """The common arity of all graphs the expression can denote.

    Raises ExprError when sub-expressions disagree, which is the only
    way an expression can be ill-formed.
    """
    return _expr_arity(e)


@lru_cache(maxsize=None)
def _expr_arity(e: Expr) -> int:
    match e:
        case Finite(arity, _):
            return arity
        case Not(sub) | Forget(sub) | Add(sub) | Permute(_, sub):
            k = _expr_arity(sub)
            if isinstance(e, Forget):
                if k == 0:
                    raise ExprError("forget applied at arity 0")
                return k - 1
            if isinstance(e, Add):
                return k + 1
            if isinstance(e, Permute):
                if sorted(e.perm) != list(range(1, k + 1)):
                    raise ExprError(
                        f"perm{list(e.perm)} is not a permutation of 1..{k}"
                    )
                return k
            return k
        case And(a, b) | Or(a, b) | Fuse(a, b):
            ka, kb = _expr_arity(a), _expr_arity(b)
            if ka != kb:
                raise ExprError(
                    f"operands of {type(e).__name__} have arities {ka} and {kb}"
                )
            return ka
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# membership


def _memo(e: Expr) -> dict:
    try:
        return object.__getattribute__(e, "_member_memo")
    except AttributeError:
        d: dict = {}
        object.__setattr__(e, "_member_memo", d)
        return d


@lru_cache(maxsize=None)
def _finite_certs(e: Finite) -> frozenset[bytes]:
    return frozenset(canonical_cert(g) for g in e.members)


def fusion_splits(g: PortGraph):
    """All ways to present g as fuse(h1, h2), up to isomorphism.

    The non-port vertex classes of g must be distributed between the
    operands and every port-port edge assigned to the left, the right,
    or both.  Classes with isomorphic induced factors are
    interchangeable, so only the multiplicity of each factor shape on
    the left matters.
    """
    k = g.arity
    pset = set(g.ports)
    classes = nonport_classes(g)
    groups: dict[bytes, list[frozenset[str]]] = {}
    for cls in classes:
        keep = cls | pset
        sub = PortGraph.build(
            keep,
            {e for e in g.edges if e[0] in keep and e[1] in keep},
            g.ports,
        )
        groups.setdefault(canonical_cert(sub), []).append(cls)
    ordered = [groups[c] for c in sorted(groups)]
    port_edges = sorted(e for e in g.edges if e[0] in pset and e[1] in pset)

    def build(side_classes, side_edges):
        verts = set(g.ports) | set().union(*side_classes) if side_classes else set(g.ports)
        if not verts:
            return None
        keep = verts
        edges = {
            e
            for e in g.edges
            if e[0] in keep and e[1] in keep and not (e[0] in pset and e[1] in pset)
        }
        edges.update(side_edges)
        return PortGraph.build(keep, edges, g.ports)

    counts = [len(gr) for gr in ordered]

    def rec_counts(i, left_sel):
        if i == len(ordered):
            yield list(left_sel)
            return
        for take in range(counts[i] + 1):
            yield from rec_counts(i + 1, left_sel + [take])

    for left_counts in rec_counts(0, []):
        left_classes = []
        right_classes = []
        for gr, take in zip(ordered, left_counts):
            left_classes.extend(gr[:take])
            right_classes.extend(gr[take:])
        for bits in range(3 ** len(port_edges)):
            sides = []
            b = bits
            for _ in port_edges:
                sides.append(b % 3)
                b //= 3
            left_edges = {e for e, s in zip(port_edges, sides) if s in (0, 2)}
            right_edges = {e for e, s in zip(port_edges, sides) if s in (1, 2)}
            h1 = build(left_classes, left_edges)
            h2 = build(right_classes, right_edges)
            if h1 is None or h2 is None:
                continue
            yield h1, h2


@_nesting_guard(ExprError, "expression")
def member(g: PortGraph, e: Expr) -> bool:
    """Decide whether g belongs to the language of e."""
    if g.labels:
        raise ExprError("star-free expressions range over unlabelled graphs")
    k = _expr_arity(e)
    if g.arity != k:
        raise ExprError(f"graph has arity {g.arity}, expression has arity {k}")
    return _member(g, e)


def _member(g: PortGraph, e: Expr) -> bool:
    cert = canonical_cert(g)
    memo = _memo(e)
    hit = memo.get(cert)
    if hit is not None:
        return hit
    match e:
        case Finite():
            res = cert in _finite_certs(e)
        case Not(sub):
            res = not _member(g, sub)
        case And(a, b):
            res = _member(g, a) and _member(g, b)
        case Or(a, b):
            res = _member(g, a) or _member(g, b)
        case Fuse(a, b):
            res = any(
                _member(h1, a) and _member(h2, b) for h1, h2 in fusion_splits(g)
            )
        case Forget(sub):
            res = any(
                _member(with_port(g, v), sub)
                for v in sorted(g.vertices - set(g.ports))
            )
        case Add(sub):
            last = g.ports[-1]
            if g.neighbors(last) or len(g.vertices) == 1:
                res = False
            else:
                res = _member(drop_last_port(g), sub)
        case Permute(perm, sub):
            inv = [0] * len(perm)
            for pos, val in enumerate(perm):
                inv[val - 1] = pos + 1
            res = _member(permute_graph(g, tuple(inv)), sub)
        case _:
            raise TypeError(f"not an expression: {e!r}")
    memo[cert] = res
    return res


# ---------------------------------------------------------------------------
# concrete syntax
#
#   expr    := or
#   or      := and ('|' and)*
#   and     := fusion ('&' fusion)*
#   fusion  := unary ('(+)' unary)*
#   unary   := '!' unary | 'forget(' expr ')' | 'add(' expr ')'
#            | 'perm[' N (',' N)* '](' expr ')'
#            | 'finite@' N '{' [json (';' json)*] '}'
#            | '(' expr ')'


class _ExprParser(_Scanner):
    error_class = ExprError
    what = "expression"

    def top(self) -> Expr:
        e = self.expr()
        _expr_arity(e)  # validate
        return e

    def expr(self) -> Expr:
        return self.chain(self.conj, "|", Or)

    def conj(self) -> Expr:
        return self.chain(self.fusion, "&", And)

    def fusion(self) -> Expr:
        return self.chain(self.unary, "(+)", Fuse)

    def unary(self) -> Expr:
        if self.peek() == "!":
            self.take("!")
            return Not(self.unary())
        if self.peek() == "(" and self.peek(3) != "(+)":
            self.take("(")
            e = self.expr()
            self.take(")")
            return e
        for head, node in (("forget(", Forget), ("add(", Add)):
            if self.peek(len(head)) == head:
                self.take(head)
                e = self.expr()
                self.take(")")
                return node(e)
        if self.peek(5) == "perm[":
            self.take("perm[")
            perm = tuple(map(int, self.listing(r"[0-9]+", "a number")))
            self.take("]")
            self.take("(")
            e = self.expr()
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
            data, self.pos = json.JSONDecoder().raw_decode(self.text, self.pos)
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
    def level(x: Expr) -> int:
        if isinstance(x, Or):
            return 0
        if isinstance(x, And):
            return 1
        if isinstance(x, Fuse):
            return 2
        return 3

    def wrap(x: Expr, need: int) -> str:
        s = _render_expr(x)
        return f"({s})" if level(x) < need else s

    match e:
        case Finite(arity, members):
            body = "; ".join(
                json.dumps(graph_to_json(m), sort_keys=True, separators=(",", ":"))
                for m in members
            )
            return f"finite@{arity}{{{body}}}"
        case Not(sub):
            return f"!{wrap(sub, 3)}"
        case And(a, b):
            return f"{wrap(a, 1)} & {wrap(b, 2)}"
        case Or(a, b):
            return f"{wrap(a, 0)} | {wrap(b, 1)}"
        case Fuse(a, b):
            return f"{wrap(a, 2)} (+) {wrap(b, 3)}"
        case Forget(sub):
            return f"forget({_render_expr(sub)})"
        case Add(sub):
            return f"add({_render_expr(sub)})"
        case Permute(perm, sub):
            return f"perm[{','.join(map(str, perm))}]({_render_expr(sub)})"
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# compiling formulas to expressions


def _set_partitions(items: list):
    """All partitions of `items` into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


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


def _var_index(v: str, k: int) -> int:
    m = re.fullmatch(r"x([0-9]+)", v)
    if not m or not 1 <= int(m.group(1)) <= k:
        raise ExprError(f"variable {v!r} is not a port variable x1..x{k}")
    return int(m.group(1))


def _subst(f: Formula, old: str, new: str) -> Formula:
    match f:
        case FEdge(x, y):
            return FEdge(new if x == old else x, new if y == old else y)
        case Eq(x, y):
            return Eq(new if x == old else x, new if y == old else y)
        case Label(x, lab):
            return Label(new if x == old else x, lab)
        case Sep(x, y, zs):
            return Sep(
                new if x == old else x,
                new if y == old else y,
                tuple(new if z == old else z for z in zs),
            )
        case FNot(sub):
            return FNot(_subst(sub, old, new))
        case FAnd(a, b):
            return FAnd(_subst(a, old, new), _subst(b, old, new))
        case FOr(a, b):
            return FOr(_subst(a, old, new), _subst(b, old, new))
        case Exists(v, sub):
            return f if v == old else Exists(v, _subst(sub, old, new))
        case Forall(v, sub):
            return f if v == old else Forall(v, _subst(sub, old, new))
    raise TypeError(f"not a formula: {f!r}")


def _alpha_normalise(f: Formula, env: dict[str, str], counter: list[int]) -> Formula:
    """Rename bound variables to b1, b2, ... so substitution is capture-free."""
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
            return FNot(_alpha_normalise(sub, env, counter))
        case FAnd(a, b):
            return FAnd(
                _alpha_normalise(a, env, counter), _alpha_normalise(b, env, counter)
            )
        case FOr(a, b):
            return FOr(
                _alpha_normalise(a, env, counter), _alpha_normalise(b, env, counter)
            )
        case Exists(v, sub) | Forall(v, sub):
            counter[0] += 1
            fresh = f"b{counter[0]}"
            body = _alpha_normalise(sub, {**env, v: fresh}, counter)
            return Exists(fresh, body) if isinstance(f, Exists) else Forall(fresh, body)
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
            rest = sorted(set(range(1, k + 1)) - cut)
            alternatives = []
            for part in _set_partitions(rest):
                blocks = [frozenset(b) for b in part]
                if len(blocks) < 2:
                    continue
                bs = next(b for b in blocks if s in b)
                if t in bs:
                    continue
                pieces = []
                for b in blocks:
                    isolated = [
                        _isolated_port(p, k)
                        for p in range(1, k + 1)
                        if p not in cut and p not in b
                    ]
                    piece = isolated[0]
                    for term in isolated[1:]:
                        piece = And(piece, term)
                    pieces.append(piece)
                acc = pieces[0]
                for piece in pieces[1:]:
                    acc = Fuse(acc, piece)
                alternatives.append(acc)
            if not alternatives:
                return no_graphs(k)
            out = alternatives[0]
            for alt in alternatives[1:]:
                out = Or(out, alt)
            return out
        case FNot(sub):
            return Not(_compile(sub, k))
        case FAnd(a, b):
            return And(_compile(a, k), _compile(b, k))
        case FOr(a, b):
            return Or(_compile(a, k), _compile(b, k))
        case Exists(v, sub):
            fresh = f"x{k + 1}"
            branches = [Forget(_compile(_subst(sub, v, fresh), k + 1))]
            for i in range(1, k + 1):
                branches.append(_compile(_subst(sub, v, f"x{i}"), k))
            out = branches[0]
            for br in branches[1:]:
                out = Or(out, br)
            return out
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
    if arity < 0:
        raise ExprError("arity must be nonnegative")
    allowed = {f"x{i}" for i in range(1, arity + 1)}
    stray = _free_vars(f) - allowed
    if stray:
        raise ExprError(
            f"free variables {sorted(stray)} not of the form x1..x{arity}"
        )
    normalised = _alpha_normalise(f, {}, [0])
    return _compile(normalised, arity)
