"""First-order logic over port graphs, with separator atoms.

Atoms: edges ``E(x,y)``, equality ``x=y``, labels ``lab:c(x)``, and the
separator family ``S0(x,y)``, ``Sn(x,y|z1,...,zn)``.  The separator
atom follows the convention in :func:`sepstar.graphs.separator_holds`.

Besides parsing and evaluation this module implements the rank-r
back-and-forth equivalence check (`ef_equivalent`): two graphs of equal
arity satisfy the same sentences of quantifier rank r (over this
vocabulary, with ports named by fixed constants) iff the duplicator
survives r rounds.  The atomic position type includes every separator
atom over the pinned vertices, which is what makes the game match the
separator vocabulary rather than plain first-order logic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, wraps

from .graphs import PortGraph, separator_holds

__all__ = [
    "Formula",
    "Edge",
    "Sep",
    "Eq",
    "Label",
    "Not",
    "And",
    "Or",
    "Exists",
    "Forall",
    "FormulaError",
    "parse_formula",
    "render_formula",
    "free_vars",
    "quantifier_rank",
    "eval_formula",
    "sentence_holds",
    "language_member",
    "ef_equivalent",
]


class FormulaError(ValueError):
    """Raised for syntax errors and ill-formed evaluations."""


class Formula:
    """Base class; subclasses are frozen dataclasses and hashable."""

    __slots__ = ()


@dataclass(frozen=True)
class Edge(Formula):
    x: str
    y: str


@dataclass(frozen=True)
class Sep(Formula):
    x: str
    y: str
    zs: tuple[str, ...]


@dataclass(frozen=True)
class Eq(Formula):
    x: str
    y: str


@dataclass(frozen=True)
class Label(Formula):
    x: str
    label: str


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Or(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    sub: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    sub: Formula


def _nesting_guard(error, what: str):
    """Decorator: running out of stack inside the function becomes
    ``error("<what> nested too deeply")``.  Parsers and evaluators
    recurse once per nesting level, so input thousands of operators
    deep is bad input, not a crash."""

    def guard(fn):
        @wraps(fn)
        def guarded(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except RecursionError:
                raise error(f"{what} nested too deeply") from None

        return guarded

    return guard


@_nesting_guard(FormulaError, "formula")
def free_vars(f: Formula) -> frozenset[str]:
    return _free_vars(f)


def _free_vars(f: Formula) -> frozenset[str]:
    match f:
        case Edge(x, y) | Eq(x, y):
            return frozenset((x, y))
        case Sep(x, y, zs):
            return frozenset((x, y, *zs))
        case Label(x, _):
            return frozenset((x,))
        case Not(sub):
            return _free_vars(sub)
        case And(a, b) | Or(a, b):
            return _free_vars(a) | _free_vars(b)
        case Exists(v, sub) | Forall(v, sub):
            return _free_vars(sub) - {v}
    raise TypeError(f"not a formula: {f!r}")


@_nesting_guard(FormulaError, "formula")
def quantifier_rank(f: Formula) -> int:
    return _quantifier_rank(f)


def _quantifier_rank(f: Formula) -> int:
    match f:
        case Edge() | Eq() | Sep() | Label():
            return 0
        case Not(sub):
            return _quantifier_rank(sub)
        case And(a, b) | Or(a, b):
            return max(_quantifier_rank(a), _quantifier_rank(b))
        case Exists(_, sub) | Forall(_, sub):
            return 1 + _quantifier_rank(sub)
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# concrete syntax


class _Scanner:
    """A cursor over the text of one grammar, skipping whitespace
    before every token.  Subclasses name their ``error_class`` and
    ``what`` and define ``top``, the rule for the whole text."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str) -> ValueError:
        return self.error_class(f"{msg} (at offset {self.pos})")

    def peek(self, n: int = 1) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos : self.pos + n]

    def take(self, tok: str) -> None:
        if self.peek(len(tok)) != tok:
            raise self.error(f"expected {tok!r}")
        self.pos += len(tok)

    def match(self, regex: str, what: str) -> str:
        self.peek()
        m = re.compile(regex).match(self.text, self.pos)
        if not m:
            raise self.error(f"expected {what}")
        self.pos = m.end()
        return m.group()

    def chain(self, operand, tok: str, node):
        """``operand (tok operand)*``, folded to the left by ``node``."""
        lhs = operand()
        while self.peek(len(tok)) == tok:
            self.take(tok)
            lhs = node(lhs, operand())
        return lhs

    def listing(self, regex: str, what: str) -> tuple[str, ...]:
        """``regex (',' regex)*``, as the tuple of the matched texts."""
        return self.chain(lambda: (self.match(regex, what),), ",", tuple.__add__)

    def parse(self):
        """The whole text as one ``top``; trailing input is an error."""
        node = _nesting_guard(self.error_class, self.what)(self.top)()
        if self.peek():
            raise self.error("trailing input")
        return node


#   formula  := or
#   or       := and ('|' and)*
#   and      := unary ('&' unary)*
#   unary    := '!' unary | 'exists' VAR '.' formula
#             | 'forall' VAR '.' formula | atom | '(' formula ')'
#   atom     := 'E(' VAR ',' VAR ')'
#             | 'S0(' VAR ',' VAR ')'
#             | 'S' N '(' VAR ',' VAR '|' VAR (',' VAR)* ')'
#             | 'lab:' NAME '(' VAR ')'
#             | VAR '=' VAR
#
# Quantifier bodies extend as far right as possible.

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"


class _Parser(_Scanner):
    error_class = FormulaError
    what = "formula"

    def top(self) -> Formula:
        return self.chain(self.conjunction, "|", Or)

    def conjunction(self) -> Formula:
        return self.chain(self.unary, "&", And)

    def unary(self) -> Formula:
        if self.peek() == "!":
            self.take("!")
            return Not(self.unary())
        if self.peek() == "(":
            self.take("(")
            f = self.top()
            self.take(")")
            return f
        w = self.match(_NAME, "a name")
        if w not in ("exists", "forall"):
            return self.atom(w)
        var = self.match(_NAME, "a name")
        if var in ("exists", "forall"):
            raise self.error(f"{var!r} is reserved")
        self.take(".")
        return (Exists if w == "exists" else Forall)(var, self.top())

    def atom(self, w: str) -> Formula:
        if w == "lab" and self.peek() == ":":
            self.take(":")
            label = self.match(_NAME, "a label")
            self.take("(")
            x = self.match(_NAME, "a name")
            self.take(")")
            return Label(x, label)
        m = re.fullmatch(r"E|S([0-9]+)", w)
        if m and self.peek() == "(":
            self.take("(")
            xy = self.listing(_NAME, "a name")
            zs = ()
            if m.group(1) and self.peek() == "|":
                self.take("|")
                zs = self.listing(_NAME, "a name")
            self.take(")")
            if len(xy) != 2:
                raise self.error(f"{w} takes two vertices, got {len(xy)}")
            if m.group(1) and len(zs) != int(m.group(1)):
                raise self.error(f"{w} expects {m.group(1)} cut vertices, got {len(zs)}")
            return Sep(*xy, zs) if m.group(1) else Edge(*xy)
        self.take("=")
        return Eq(w, self.match(_NAME, "a name"))


def parse_formula(text: str) -> Formula:
    return _Parser(text).parse()


@_nesting_guard(FormulaError, "formula")
def render_formula(f: Formula) -> str:
    """Concrete syntax for f; parse(render(f)) == f."""
    return _render_formula(f)


def _render_formula(f: Formula) -> str:
    def paren(sub: Formula, tight: bool) -> str:
        s = _render_formula(sub)
        need = isinstance(sub, (Or, Exists, Forall)) or (
            tight and isinstance(sub, And)
        )
        return f"({s})" if need else s

    match f:
        case Edge(x, y):
            return f"E({x},{y})"
        case Eq(x, y):
            return f"{x}={y}"
        case Label(x, label):
            return f"lab:{label}({x})"
        case Sep(x, y, zs):
            if zs:
                return f"S{len(zs)}({x},{y}|{','.join(zs)})"
            return f"S0({x},{y})"
        case Not(sub):
            s = _render_formula(sub)
            if isinstance(sub, (And, Or, Exists, Forall)):
                s = f"({s})"
            return f"!{s}"
        case And(a, b):
            return f"{paren(a, True)} & {paren(b, True)}"
        case Or(a, b):
            return f"{paren(a, False)} | {paren(b, False)}"
        case Exists(v, sub):
            return f"exists {v}. {_render_formula(sub)}"
        case Forall(v, sub):
            return f"forall {v}. {_render_formula(sub)}"
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# evaluation


@_nesting_guard(FormulaError, "formula")
def eval_formula(g: PortGraph, f: Formula, valuation=None) -> bool:
    """Evaluate f over g; `valuation` must cover the free variables."""
    env = dict(valuation or {})
    missing = _free_vars(f) - set(env)
    if missing:
        raise FormulaError(f"unassigned free variables: {sorted(missing)}")
    for var, v in env.items():
        if v not in g.vertices:
            raise FormulaError(f"valuation maps {var!r} to unknown vertex {v!r}")
    return _eval(g, f, env)


def _eval(g: PortGraph, f: Formula, env: dict[str, str]) -> bool:
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
            return not _eval(g, sub, env)
        case And(a, b):
            return _eval(g, a, env) and _eval(g, b, env)
        case Or(a, b):
            return _eval(g, a, env) or _eval(g, b, env)
        case Exists(var, sub):
            return any(_eval(g, sub, {**env, var: v}) for v in sorted(g.vertices))
        case Forall(var, sub):
            return all(_eval(g, sub, {**env, var: v}) for v in sorted(g.vertices))
    raise TypeError(f"not a formula: {f!r}")


@_nesting_guard(FormulaError, "formula")
def sentence_holds(g: PortGraph, f: Formula) -> bool:
    if _free_vars(f):
        raise FormulaError("not a sentence; free variables present")
    return _eval(g, f, {})


@_nesting_guard(FormulaError, "formula")
def language_member(g: PortGraph, f: Formula) -> bool:
    """Membership of g in the language of f, with free variable x{i}
    interpreted as port i of g."""
    allowed = {f"x{i + 1}" for i in range(g.arity)}
    stray = _free_vars(f) - allowed
    if stray:
        raise FormulaError(
            f"free variables {sorted(stray)} not of the form x1..x{g.arity}"
        )
    env = {f"x{i + 1}": p for i, p in enumerate(g.ports)}
    return _eval(g, f, {v: env[v] for v in _free_vars(f)})


# ---------------------------------------------------------------------------
# rank-r equivalence game


@lru_cache(maxsize=None)
def _position_type(g: PortGraph, pinned: tuple[str, ...]) -> tuple:
    """Full atomic type of a tuple of pinned vertices, including every
    separator atom over subsets of the pinned tuple."""
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


def ef_equivalent(g1: PortGraph, g2: PortGraph, rank: int) -> bool:
    """Duplicator wins the rank-`rank` game from the port position.

    Positions are memoised by the pinned correspondence as a *set* of
    vertex pairs, which is sound: everything the rest of the game can
    observe depends only on which vertices are pinned to which, not on
    the order or multiplicity of the pinning moves.
    """
    if g1.arity != g2.arity:
        raise FormulaError("graphs must have equal arity")
    if rank < 0:
        raise FormulaError("rank must be nonnegative")
    memo: dict[tuple, bool] = {}

    v1 = sorted(g1.vertices)
    v2 = sorted(g2.vertices)

    def play(p1: tuple[str, ...], p2: tuple[str, ...], r: int) -> bool:
        key = (frozenset(zip(p1, p2)), r)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if _position_type(g1, p1) != _position_type(g2, p2):
            memo[key] = False
            return False
        if r == 0:
            memo[key] = True
            return True
        ok = all(
            any(play(p1 + (a,), p2 + (b,), r - 1) for b in v2) for a in v1
        ) and all(
            any(play(p1 + (a,), p2 + (b,), r - 1) for a in v1) for b in v2
        )
        memo[key] = ok
        return ok

    try:
        return play(g1.ports, g2.ports, rank)
    finally:
        del play  # the closure refers to itself; free the memo now
