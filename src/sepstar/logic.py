"""First-order logic over port graphs, with separator atoms.

Atoms: edges ``E(x,y)``, equality ``x=y``, labels ``lab:c(x)``, and the
separator family ``S0(x,y)``, ``Sn(x,y|z1,...,zn)``.  The separator
atom follows the convention in :func:`sepstar.graphs.separator_holds`.
`And` and `Or` are n-ary: each holds a flat tuple of two or more
operands, so a chain ``a | b | c`` is one node however long it is, and
only the nesting of operators makes a formula deep.

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
from functools import wraps

from .graphs import PortGraph, _flood, _numbering, _Value

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


class Formula(_Value):
    """Base class; subclasses are frozen values and hashable.

    ``program`` is the formula compiled by `_program`, set on its first
    evaluation.  It is no field, so equality, hashing and the repr do
    not see it: a formula's value is what it was built from.
    """

    program = None


class Edge(Formula):
    x: str
    y: str


class Sep(Formula):
    x: str
    y: str
    zs: tuple[str, ...]


class Eq(Formula):
    x: str
    y: str


class Label(Formula):
    x: str
    label: str


class Not(Formula):
    sub: Formula


def _flat(node, operands) -> tuple:
    """The operands of the n-ary ``node``, an operand of its own kind
    spliced in: no `And` holds an `And`, and no `Or` an `Or`."""
    flat = tuple(y for x in operands for y in (x.operands if type(x) is type(node) else (x,)))
    if len(flat) < 2:
        raise TypeError(f"{type(node).__name__} takes two or more operands")
    return flat


def _joined(node, operands):
    """``node`` of the operands, or the only operand itself."""
    return node(*operands) if len(operands) > 1 else operands[0]


class _Junction(Formula):
    operands: tuple[Formula, ...]

    def __init__(self, *operands: Formula):
        # frozen: the field goes straight into the instance dictionary
        vars(self)["operands"] = _flat(self, operands)


class And(_Junction):
    pass


class Or(_Junction):
    pass


class Exists(Formula):
    var: str
    sub: Formula


class Forall(Formula):
    var: str
    sub: Formula


def _nesting_guard(error, what: str):
    """Decorator: running out of stack inside the function becomes
    ``error("<what> nested too deeply")``.  Parsers and evaluators
    recurse once per nesting level, so input thousands of operators
    deep is bad input, not a crash.  Evaluators and renderers loop over
    an n-ary node's operands: a generator or ``map`` would cost a second
    level of the stack per level of nesting."""

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
        case And(operands) | Or(operands):
            free = frozenset()
            for sub in operands:
                free |= _free_vars(sub)
            return free
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
        case And(operands) | Or(operands):
            rank = 0
            for sub in operands:
                rank = max(rank, _quantifier_rank(sub))
            return rank
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

    def chain(self, operand, tok: str) -> list:
        """``operand (tok operand)*``, as the list of the operands."""
        operands = [operand()]
        while self.peek(len(tok)) == tok:
            self.take(tok)
            operands.append(operand())
        return operands

    def listing(self, regex: str, what: str) -> tuple[str, ...]:
        """``regex (',' regex)*``, as the tuple of the matched texts."""
        return tuple(self.chain(lambda: self.match(regex, what), ","))

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
        return _joined(Or, self.chain(self.conjunction, "|"))

    def conjunction(self) -> Formula:
        return _joined(And, self.chain(self.unary, "&"))

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
    def paren(sub: Formula, loose: tuple[type, ...]) -> str:
        s = _render_formula(sub)
        return f"({s})" if isinstance(sub, loose) else s

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
            return f"!{paren(sub, (And, Or, Exists, Forall))}"
        case And(operands) | Or(operands):
            loose = (Exists, Forall) if isinstance(f, Or) else (Or, Exists, Forall)
            parts = []
            for sub in operands:
                parts.append(paren(sub, loose))
            return (" | " if isinstance(f, Or) else " & ").join(parts)
        case Exists(v, sub):
            return f"exists {v}. {_render_formula(sub)}"
        case Forall(v, sub):
            return f"forall {v}. {_render_formula(sub)}"
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# evaluation
#
# A formula is compiled once into nested closures, which run on index
# data: the vertices numbered 0..n-1 in sorted-name order, with an
# adjacency bitmask and a label per number, and an environment list
# with one slot per free variable (in sorted order) and then one per
# quantifier depth.  A quantifier takes the slot of its depth, not of
# the number of names in scope, so a binder that shadows an outer one
# of the same name gets a slot of its own.  The program is kept as long
# as the formula object lives.


class _Model:
    """One graph on index data for one evaluation or one game: the
    number of each vertex name, the adjacency bitmasks, the label of
    each number, and the component labellings and position types asked
    for so far."""

    __slots__ = ("at", "adj", "labels", "cuts", "types")

    def __init__(self, g: PortGraph):
        self.at, self.adj = _numbering(g)
        self.labels = [None] * len(self.adj)
        for v, c in g.labels:
            self.labels[self.at[v]] = c
        self.cuts: dict[int, list[int]] = {}
        self.types: dict[tuple[int, ...], tuple] = {}

    def components(self, cut: int) -> list[int]:
        """The labelling of the graph minus the vertices of the mask
        ``cut``: each vertex outside it maps to the mask of its
        component, each vertex in it to 0.  Made once per cut."""
        comp = self.cuts.get(cut)
        if comp is None:
            adj = self.adj
            comp = self.cuts[cut] = [0] * len(adj)
            rest = (1 << len(adj)) - 1 & ~cut
            while rest:
                bits = reached = _flood(adj, rest & -rest, rest)
                rest ^= reached
                while bits:
                    low = bits & -bits
                    comp[low.bit_length() - 1] = reached
                    bits ^= low
        return comp

    def position_type(self, pinned: tuple[int, ...]) -> tuple:
        """The full atomic type of a tuple of pinned vertices: their
        equalities, edges and labels, and every separator atom over
        subsets of the tuple (as its negation, "linked")."""
        hit = self.types.get(pinned)
        if hit is None:
            pairs = [(a, b) for i, a in enumerate(pinned) for b in pinned[i:]]
            cuts = [0]
            for v in pinned:
                cuts += [cut | 1 << v for cut in cuts]
            linked = []
            for cut in cuts:
                comp = self.components(cut)
                linked += [
                    not (cut >> a | cut >> b) & 1 and comp[a] == comp[b]
                    for a, b in pairs
                ]
            hit = self.types[pinned] = (
                tuple(a == b for a, b in pairs),
                tuple(self.adj[a] >> b & 1 for a, b in pairs),
                tuple(self.labels[v] for v in pinned),
                tuple(linked),
            )
        return hit


def _closure(f: Formula, scope: dict[str, int], depth: int, height: list[int]):
    """f as a function of a `_Model` and an environment list that
    returns a bool.  ``scope`` maps each variable in scope to its slot,
    ``depth`` is the slot of the next quantifier, and ``height[0]``
    grows to the length the environment needs."""
    match f:
        case Edge(x, y):
            i, j = scope[x], scope[y]
            return lambda m, env: m.adj[env[i]] >> env[j] & 1 == 1
        case Eq(x, y):
            i, j = scope[x], scope[y]
            return lambda m, env: env[i] == env[j]
        case Label(x, label):
            i = scope[x]
            return lambda m, env: m.labels[env[i]] == label
        case Sep(x, y, zs):
            i, j = scope[x], scope[y]
            cut = tuple(scope[z] for z in zs)

            def sep(m, env):
                # as `separator_holds`: a cut holding x or y separates
                a, b, mask = env[i], env[j], 0
                for s in cut:
                    mask |= 1 << env[s]
                if (mask >> a | mask >> b) & 1:
                    return True
                comp = m.components(mask)
                return comp[a] != comp[b]

            return sep
        case Not(sub):
            run = _closure(sub, scope, depth, height)
            return lambda m, env: not run(m, env)
        case And(operands) | Or(operands):
            runs = []
            for sub in operands:
                runs.append(_closure(sub, scope, depth, height))
            # and stops at the first false operand, or at the first true one
            stop = isinstance(f, Or)

            def junction(m, env):
                for run in runs:
                    if run(m, env) is stop:
                        return stop
                return not stop

            return junction
        case Exists(var, sub) | Forall(var, sub):
            height[0] = max(height[0], depth + 1)
            run = _closure(sub, {**scope, var: depth}, depth + 1, height)
            # exists stops at the first witness, forall at the first
            # counterexample
            stop = isinstance(f, Exists)

            def quantify(m, env):
                for v in range(len(m.adj)):
                    env[depth] = v
                    if run(m, env) is stop:
                        return stop
                return not stop

            return quantify
    raise TypeError(f"not a formula: {f!r}")


def _program(f: Formula) -> tuple[tuple[str, ...], int, object]:
    """f compiled, once per formula object: its free variables in sorted
    order, the length of its environment, and its closure."""
    prog = f.program
    if prog is None:
        free = tuple(sorted(_free_vars(f)))
        height = [len(free)]
        run = _closure(f, {v: i for i, v in enumerate(free)}, len(free), height)
        prog = (free, height[0], run)
        object.__setattr__(f, "program", prog)
    return prog


def _run(g: PortGraph, prog, valuation: dict[str, str]) -> bool:
    """Run a compiled formula on g, its free variables valued by name."""
    free, height, run = prog
    m = _Model(g)
    env = [0] * height
    for i, var in enumerate(free):
        env[i] = m.at[valuation[var]]
    return run(m, env)


@_nesting_guard(FormulaError, "formula")
def eval_formula(g: PortGraph, f: Formula, valuation=None) -> bool:
    """Evaluate f over g; `valuation` must cover the free variables."""
    prog = _program(f)
    env = dict(valuation or {})
    missing = set(prog[0]) - set(env)
    if missing:
        raise FormulaError(f"unassigned free variables: {sorted(missing)}")
    for var, v in env.items():
        if not isinstance(v, str) or v not in g.vertices:
            raise FormulaError(f"valuation maps {var!r} to unknown vertex {v!r}")
    return _run(g, prog, env)


@_nesting_guard(FormulaError, "formula")
def sentence_holds(g: PortGraph, f: Formula) -> bool:
    prog = _program(f)
    if prog[0]:
        raise FormulaError("not a sentence; free variables present")
    return _run(g, prog, {})


@_nesting_guard(FormulaError, "formula")
def language_member(g: PortGraph, f: Formula) -> bool:
    """Membership of g in the language of f, with free variable x{i}
    interpreted as port i of g."""
    prog = _program(f)
    env = {f"x{i + 1}": p for i, p in enumerate(g.ports)}
    stray = set(prog[0]).difference(env)
    if stray:
        raise FormulaError(
            f"free variables {sorted(stray)} not of the form x1..x{g.arity}"
        )
    return _run(g, prog, env)


# ---------------------------------------------------------------------------
# rank-r equivalence game


def ef_equivalent(g1: PortGraph, g2: PortGraph, rank: int) -> bool:
    """Duplicator wins the rank-`rank` game from the port position.

    Both graphs play on index data, and the atomic type of each tuple
    of pinned vertices is read from one component labelling per cut
    and kept for the rest of the call.  Positions are memoised by the
    pinned correspondence as a *set* of vertex pairs, which is sound:
    everything the rest of the game can observe depends only on which
    vertices are pinned to which, not on the order or multiplicity of
    the pinning moves.
    """
    if g1.arity != g2.arity:
        raise FormulaError("graphs must have equal arity")
    if isinstance(rank, bool) or not isinstance(rank, int):
        raise FormulaError(f"rank must be an integer, got {rank!r}")
    if rank < 0:
        raise FormulaError("rank must be nonnegative")
    m1, m2 = _Model(g1), _Model(g2)
    v1, v2 = range(len(m1.adj)), range(len(m2.adj))
    memo: dict[tuple, bool] = {}

    def play(p1: tuple[int, ...], p2: tuple[int, ...], r: int) -> bool:
        key = (frozenset(zip(p1, p2)), r)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if m1.position_type(p1) != m2.position_type(p2):
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
        return play(
            tuple(m1.at[p] for p in g1.ports), tuple(m2.at[p] for p in g2.ports), rank
        )
    finally:
        del play  # the closure refers to itself; free the memo now
