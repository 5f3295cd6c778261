"""Piecewise-smooth scalar expressions, interval-valued functions, and
subdifferential polytopes.

The grammar (sums, scales, smooth products/powers, abs/max/min) only
produces locally Lipschitz functions, so Clarke subdifferentials exist
everywhere.  They are computed as finitely generated polytopes by the
standard calculus rules; since some rules are inclusions only, every
polytope carries an ``exact`` flag saying whether its convex hull is
known to equal the Clarke set rather than merely contain it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

# Tie tolerance of max/min/abs: a branch counts as active when its value
# is within this absolute distance of the attained extremum.  It is
# distinct from Tolerances.tau_act, which decides constraint activity.
BRANCH_TOL = 1e-9

# Deepest expression the parser accepts: tree depth (nodes on the longest
# root-to-leaf path) and nesting of parentheses, functions and unary
# minus.  Node constructors allow twice this depth, the room that centre
# and half-width sums built from parsed endpoints need.  The parser takes
# at most six frames per nesting level and every recursive walker (with
# the generated == and hash) at most three per tree level, so both finish
# well inside Python's default recursion limit of 1000.
MAX_DEPTH = 100


class ExprError(ValueError):
    """Malformed expression (syntax, smoothness restriction, bad variable)."""


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------
#
# Every node carries three structural facts, set once at construction
# from its children's facts, never by walking a subtree:
#   smooth -- no abs/max/min node occurs in it;
#   vars   -- frozenset of the variable indices it uses;
#   depth  -- number of nodes on its longest root-to-leaf path.
# They are plain attributes, not dataclass fields, so they stay out of
# ==, hash, repr, __match_args__ and dataclasses.asdict.
#
# Walkers dispatch with ``match`` on the class attribute ``op``.  Class
# patterns (``case Sum(a, b)``) would read better, but CPython 3.11
# builds a set, a list and a tuple on every successful class match, which
# made scalar evaluation three times slower.

def _annotate(node: Expr, children: tuple[Expr, ...], smooth: bool = True,
              own: frozenset[int] = frozenset()) -> None:
    depth = 1 + max((c.depth for c in children), default=0)
    if depth > 2 * MAX_DEPTH:
        raise ExprError(f"expression is nested deeper than {2 * MAX_DEPTH} levels, twice "
                        f"the parse limit of {MAX_DEPTH} levels")
    object.__setattr__(node, "smooth", smooth and all(c.smooth for c in children))
    object.__setattr__(node, "vars", own.union(*(c.vars for c in children)))
    object.__setattr__(node, "depth", depth)


@dataclass(frozen=True)
class Expr:
    def __add__(self, other: "Expr") -> "Expr":
        return Sum(self, other)


@dataclass(frozen=True)
class Const(Expr):
    op = "const"
    value: float

    def __post_init__(self) -> None:
        _annotate(self, ())


@dataclass(frozen=True)
class Var(Expr):
    op = "var"
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ExprError(f"negative variable index {self.index}")
        _annotate(self, (), own=frozenset((self.index,)))


@dataclass(frozen=True)
class Sum(Expr):
    op = "sum"
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        _annotate(self, (self.left, self.right))


@dataclass(frozen=True)
class Scale(Expr):
    op = "scale"
    alpha: float
    operand: Expr

    def __post_init__(self) -> None:
        _annotate(self, (self.operand,))


@dataclass(frozen=True)
class Product(Expr):
    op = "product"
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if not (self.left.smooth and self.right.smooth):
            raise ExprError("nonsmooth factor in product")
        _annotate(self, (self.left, self.right))


@dataclass(frozen=True)
class Power(Expr):
    op = "power"
    base: Expr
    exponent: int

    def __post_init__(self) -> None:
        if self.exponent < 1:
            raise ExprError(f"power exponent must be a positive integer, got {self.exponent}")
        if not self.base.smooth:
            raise ExprError("nonsmooth base in power")
        _annotate(self, (self.base,))


@dataclass(frozen=True)
class Abs(Expr):
    op = "abs"
    operand: Expr

    def __post_init__(self) -> None:
        _annotate(self, (self.operand,), smooth=False)


@dataclass(frozen=True)
class Max(Expr):
    op = "max"
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        _annotate(self, (self.left, self.right), smooth=False)


@dataclass(frozen=True)
class Min(Expr):
    op = "min"
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        _annotate(self, (self.left, self.right), smooth=False)


def is_smooth(e: Expr) -> bool:
    """True iff no abs/max/min node occurs in e."""
    return e.smooth


def substitute(e: Expr, mapping: dict[int, Expr]) -> Expr:
    """Replace each Var(i) by mapping[i] (identity when absent)."""
    match e.op:
        case "var":
            return mapping.get(e.index, e)
        case "const":
            return e
        case "scale":
            return Scale(e.alpha, substitute(e.operand, mapping))
        case "power":
            return Power(substitute(e.base, mapping), e.exponent)
        case "abs":
            return Abs(substitute(e.operand, mapping))
        case "sum" | "product" | "max" | "min":
            return type(e)(substitute(e.left, mapping), substitute(e.right, mapping))
    raise TypeError(f"unknown node {type(e)!r}")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------
#
# expr   := term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := number | ident | '(' expr ')' | 'abs(' expr ')'
#         | 'max(' expr ',' expr ')' | 'min(' expr ',' expr ')'
#         | factor '^' posint
# ident  := 'u' digit+

class _Parser:
    def __init__(self, text: str, dim: int):
        self.text = text
        self.dim = dim
        self.pos = 0
        self.nesting = 0

    def error(self, msg: str) -> ExprError:
        return ExprError(f"{msg} at position {self.pos} in {self.text!r}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> Expr:
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing input")
        if e.depth > MAX_DEPTH:
            raise ExprError(f"expression is nested deeper than the limit of {MAX_DEPTH} levels")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            rhs = self.term()
            e = Sum(e, rhs if op == "+" else Scale(-1.0, rhs))
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek() == "*":
            self.pos += 1
            rhs = self.factor()
            e = self._product(e, rhs)
        return e

    def _product(self, a: Expr, b: Expr) -> Expr:
        # constant factors become scales so they stay legal next to
        # nonsmooth operands
        if isinstance(a, Const):
            return Scale(a.value, b)
        if isinstance(b, Const):
            return Scale(b.value, a)
        return Product(a, b)

    def factor(self) -> Expr:
        e = self.atom()
        while self.peek() == "^":
            self.pos += 1
            e = Power(e, self.posint())
        return e

    def posint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise self.error("expected positive integer exponent")
        return int(self.text[start:self.pos])

    def atom(self) -> Expr:
        # each parenthesis, function call or unary minus nests one atom in
        # another, so bounding the atom nesting bounds the parse recursion
        if self.nesting > MAX_DEPTH:
            raise self.error(f"expression is nested deeper than the limit of {MAX_DEPTH} levels")
        self.nesting += 1
        e = self._atom()
        self.nesting -= 1
        return e

    def _atom(self) -> Expr:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            e = self.expr()
            self.expect(")")
            return e
        if ch == "-":
            self.pos += 1
            operand = self.factor()
            if isinstance(operand, Const):
                return Const(-operand.value)
            return Scale(-1.0, operand)
        if ch.isdigit() or ch == ".":
            return Const(self.number())
        if ch.isalpha():
            return self.name()
        raise self.error("expected number, variable, or function")

    def number(self) -> float:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isdigit() or self.text[self.pos] == "."):
            self.pos += 1
        if self.pos < len(self.text) and self.text[self.pos] in "eE":
            save = self.pos
            self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos].isdigit():
                while self.pos < len(self.text) and self.text[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = save
        try:
            value = float(self.text[start:self.pos])
        except ValueError:
            raise self.error("bad numeric literal") from None
        if not math.isfinite(value):
            raise self.error("numeric literal overflows to infinity")
        return value

    def name(self) -> Expr:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        word = self.text[start:self.pos]
        if word in ("abs", "max", "min"):
            self.expect("(")
            a = self.expr()
            if word == "abs":
                self.expect(")")
                return Abs(a)
            self.expect(",")
            b = self.expr()
            self.expect(")")
            return Max(a, b) if word == "max" else Min(a, b)
        if word == "u":
            digits_start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if digits_start == self.pos:
                raise self.error("variable needs an index, e.g. u0")
            idx = int(self.text[digits_start:self.pos])
            if idx >= self.dim:
                raise self.error(f"unknown variable u{idx} (dim {self.dim})")
            return Var(idx)
        self.pos = start
        raise self.error(f"unknown identifier {word!r}")


def parse_expr(text: str, dim: int) -> Expr:
    """Parse an expression over variables u0..u{dim-1}."""
    if dim < 1:
        raise ExprError(f"dim must be positive, got {dim}")
    return _Parser(text, dim).parse()


def to_string(e: Expr) -> str:
    """Render e back into the grammar (parenthesized, unambiguous)."""
    match e.op:
        case "const":
            return repr(e.value)
        case "var":
            return f"u{e.index}"
        case "sum":
            return f"({to_string(e.left)} + {to_string(e.right)})"
        case "scale":
            return f"({e.alpha!r} * {to_string(e.operand)})"
        case "product":
            return f"({to_string(e.left)} * {to_string(e.right)})"
        case "power":
            return f"({to_string(e.base)})^{e.exponent}"
        case "abs":
            return f"abs({to_string(e.operand)})"
        case "max":
            return f"max({to_string(e.left)}, {to_string(e.right)})"
        case "min":
            return f"min({to_string(e.left)}, {to_string(e.right)})"
    raise TypeError(f"unknown node {type(e)!r}")


# ---------------------------------------------------------------------------
# Evaluation and gradients
# ---------------------------------------------------------------------------

def eval_expr(e: Expr, u: Sequence[float]) -> float:
    match e.op:
        case "const":
            return e.value
        case "var":
            return float(u[e.index])
        case "sum":
            return eval_expr(e.left, u) + eval_expr(e.right, u)
        case "scale":
            return e.alpha * eval_expr(e.operand, u)
        case "product":
            return eval_expr(e.left, u) * eval_expr(e.right, u)
        case "power":
            return eval_expr(e.base, u) ** e.exponent
        case "abs":
            return abs(eval_expr(e.operand, u))
        case "max":
            return max(eval_expr(e.left, u), eval_expr(e.right, u))
        case "min":
            return min(eval_expr(e.left, u), eval_expr(e.right, u))
    raise TypeError(f"unknown node {type(e)!r}")


def eval_points(e: Expr, pts: np.ndarray) -> np.ndarray:
    """Values (N,) of e at every row of the (N, n) point array.

    Bit-identical to ``eval_expr`` row by row: one numpy operation per
    node, Python's tie rule for max/min (the first argument wins ties,
    which decides between -0.0 and 0.0), and Python's own float ``**``
    for powers, since ``np.power`` can differ from it in the last bit.
    Floating-point warnings are silenced; callers check finiteness.
    """
    with np.errstate(all="ignore"):
        return _eval_points(e, np.asarray(pts, dtype=float))


def _eval_points(e: Expr, pts: np.ndarray) -> np.ndarray:
    match e.op:
        case "const":
            return np.full(pts.shape[0], e.value, dtype=float)
        case "var":
            return pts[:, e.index].copy()
        case "sum":
            return _eval_points(e.left, pts) + _eval_points(e.right, pts)
        case "scale":
            return e.alpha * _eval_points(e.operand, pts)
        case "product":
            return _eval_points(e.left, pts) * _eval_points(e.right, pts)
        case "power":
            base = _eval_points(e.base, pts)
            k = e.exponent
            return np.fromiter((x ** k for x in base.tolist()), dtype=float, count=base.size)
        case "abs":
            return np.abs(_eval_points(e.operand, pts))
        case "max":
            a, b = _eval_points(e.left, pts), _eval_points(e.right, pts)
            return np.where(b > a, b, a)
        case "min":
            a, b = _eval_points(e.left, pts), _eval_points(e.right, pts)
            return np.where(b < a, b, a)
    raise TypeError(f"unknown node {type(e)!r}")


def gradient(e: Expr, u: Sequence[float]) -> np.ndarray:
    """Gradient of a smooth expression (raises on nonsmooth nodes)."""
    n = len(u)
    match e.op:
        case "const":
            return np.zeros(n)
        case "var":
            g = np.zeros(n)
            g[e.index] = 1.0
            return g
        case "sum":
            return gradient(e.left, u) + gradient(e.right, u)
        case "scale":
            return e.alpha * gradient(e.operand, u)
        case "product":
            return eval_expr(e.left, u) * gradient(e.right, u) + eval_expr(e.right, u) * gradient(e.left, u)
        case "power":
            base = eval_expr(e.base, u)
            return e.exponent * base ** (e.exponent - 1) * gradient(e.base, u)
    raise ExprError(f"gradient of nonsmooth node {type(e).__name__}")


# ---------------------------------------------------------------------------
# Polytopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Polytope:
    """Convex hull of finitely many points; ``exact`` says the hull equals
    the Clarke set it represents (as opposed to a sound superset)."""

    dim: int
    generators: tuple[tuple[float, ...], ...]
    exact: bool

    def __post_init__(self) -> None:
        if not self.generators:
            raise ValueError("polytope needs at least one generator")
        for g in self.generators:
            if len(g) != self.dim:
                raise ValueError(f"generator {g} has wrong dimension (expected {self.dim})")

    def support(self, w: Sequence[float]) -> float:
        """max over generators of <g, w>."""
        warr = np.asarray(w, dtype=float)
        return max(float(np.dot(g, warr)) for g in self.generators)

    def hull_vertices(self) -> tuple[tuple[float, ...], ...]:
        """Generators with points in the hull of the rest removed
        (canonical set for comparing polytopes as sets).  A point is in
        the hull of the others when its distance to it is 0, up to a
        rounding slack of 1e-12."""
        from .certificates import hull_distance  # lazy: loading a problem needs no solver

        pts = list(dict.fromkeys(self.generators))
        keep = [p for i, p in enumerate(pts) if len(pts) == 1 or hull_distance(
            [Polytope(self.dim, tuple(tuple(np.subtract(q, p)) for q in pts[:i] + pts[i + 1:]),
                      True)]) > 1e-12]
        return tuple(keep) if keep else (pts[0],)


# ---------------------------------------------------------------------------
# Clarke subdifferential calculus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SubdiffInfo:
    gens: tuple[tuple[float, ...], ...]
    exact: bool
    # Clarke regularity of the function at the point, established
    # structurally; drives when sum/max rules attain equality.
    regular: bool
    smooth: bool


# Generator tuples are deduplicated with dict.fromkeys, which keeps the
# first-seen order; they are deliberately not hull-pruned.

def _minkowski(a: Sequence[tuple[float, ...]], b: Sequence[tuple[float, ...]]) -> tuple[tuple[float, ...], ...]:
    return tuple(dict.fromkeys(tuple(x + y for x, y in zip(ga, gb)) for ga in a for gb in b))


def _scale_gens(alpha: float, gens: Sequence[tuple[float, ...]]) -> tuple[tuple[float, ...], ...]:
    return tuple(dict.fromkeys(tuple(alpha * x for x in g) for g in gens))


def _union_gens(parts: Sequence[Sequence[tuple[float, ...]]]) -> tuple[tuple[float, ...], ...]:
    return tuple(dict.fromkeys(g for part in parts for g in part))


def _subdiff(e: Expr, u: Sequence[float]) -> _SubdiffInfo:
    if e.smooth:
        gens = (tuple(float(x) for x in gradient(e, u)),)
        return _SubdiffInfo(gens, exact=True, regular=True, smooth=True)
    match e.op:
        case "sum":
            a = _subdiff(e.left, u)
            b = _subdiff(e.right, u)
            # sum rule is an inclusion; equality when one side is smooth or
            # both are regular
            exact = a.exact and b.exact and (a.smooth or b.smooth or (a.regular and b.regular))
            return _SubdiffInfo(_minkowski(a.gens, b.gens), exact=exact,
                                regular=a.regular and b.regular, smooth=False)
        case "scale":
            a = _subdiff(e.operand, u)
            # scaling preserves exactness (Clarke sets scale exactly, also for
            # negative alpha); regularity survives only for alpha >= 0
            return _SubdiffInfo(_scale_gens(e.alpha, a.gens), exact=a.exact,
                                regular=a.regular and e.alpha >= 0.0, smooth=False)
        case "abs" | "max" | "min":
            return _max_like(e, u)
    raise TypeError(f"unknown node {type(e)!r}")


def _max_like(e: Expr, u: Sequence[float]) -> _SubdiffInfo:
    """max, min, and abs as max(a, -a).  The branch -a of abs is taken
    from a's value and subdifferential, exactly as evaluating and
    differentiating Scale(-1.0, a) would give them: a nested abs is then
    differentiated once per level, not twice."""
    is_min = e.op == "min"
    if e.op == "abs":
        va = eval_expr(e.operand, u)
        vb = -1.0 * va
        operands_smooth = e.operand.smooth
    else:
        va, vb = eval_expr(e.left, u), eval_expr(e.right, u)
        operands_smooth = e.left.smooth and e.right.smooth
    best = min(va, vb) if is_min else max(va, vb)
    on_a, on_b = (abs(v - best) <= BRANCH_TOL for v in (va, vb))
    if e.op != "abs":
        infos = [_subdiff(x, u) for x, on in ((e.left, on_a), (e.right, on_b)) if on]
    elif on_a or on_b:
        a = _subdiff(e.operand, u)
        # the smooth case of Scale(-1.0, a) when a is smooth, else its scale case
        neg = _SubdiffInfo(_scale_gens(-1.0, a.gens), exact=a.exact,
                           regular=operands_smooth, smooth=operands_smooth)
        infos = [info for info, on in ((a, on_a), (neg, on_b)) if on]
    else:
        infos = []
    gens = _union_gens([info.gens for info in infos])
    if len(infos) == 1:
        # only one branch is active: the function agrees with that branch
        # on a neighborhood, so its properties carry over unchanged
        info = infos[0]
        return _SubdiffInfo(gens, exact=info.exact, regular=info.regular,
                            smooth=info.smooth)
    if is_min:
        # min of smooth operands is exact via min(a,b) = -max(-a,-b) and
        # the symmetry of Clarke sets under negation, but it is not
        # regular, so it poisons enclosing sums/maxes
        exact = operands_smooth and all(i.exact for i in infos)
        return _SubdiffInfo(gens, exact=exact, regular=False, smooth=False)
    # max rule attains equality when the active pieces are regular
    regular = all(i.regular for i in infos)
    exact = regular and all(i.exact for i in infos)
    return _SubdiffInfo(gens, exact=exact, regular=regular, smooth=False)


def clarke_subdiff(e: Expr, u: Sequence[float]) -> Polytope:
    """Clarke subdifferential of e at u as a generator polytope.

    The hull always contains the Clarke set; ``exact`` is set when the
    applied calculus rules are known to attain equality.
    """
    pt = [float(x) for x in u]
    if any(not math.isfinite(x) for x in pt):
        raise ValueError(f"non-finite point {u}")
    info = _subdiff(e, pt)
    return Polytope(len(pt), info.gens, info.exact)


# ---------------------------------------------------------------------------
# Interval-valued functions
# ---------------------------------------------------------------------------

def _flatten(e: Expr, coeff: float, const: list[float], terms: dict[Expr, float]) -> None:
    # linear structure only: sums, scales, constants; everything else is
    # an opaque atom collected with its coefficient
    match e.op:
        case "const":
            const[0] += coeff * e.value
        case "sum":
            _flatten(e.left, coeff, const, terms)
            _flatten(e.right, coeff, const, terms)
        case "scale":
            _flatten(e.operand, coeff * e.alpha, const, terms)
        case _:
            terms[e] = terms.get(e, 0.0) + coeff


def linear_combination(parts: Sequence[tuple[float, Expr]]) -> Expr:
    """Canonical weighted sum with like atoms merged and zero terms dropped.

    Shared atoms between IVF endpoints cancel here, which keeps derived
    center/half-width subdifferentials tight (e.g. the half-width of
    [|u|, |u|+1] collapses to the constant 1/2).
    """
    const = [0.0]
    terms: dict[Expr, float] = {}
    for coeff, e in parts:
        _flatten(e, coeff, const, terms)
    out: Expr | None = None
    for atom, c in terms.items():
        if c == 0.0:
            continue
        piece = atom if c == 1.0 else Scale(c, atom)
        out = piece if out is None else Sum(out, piece)
    if const[0] != 0.0 or out is None:
        cnode = Const(const[0])
        out = cnode if out is None else Sum(out, cnode)
    return out


@dataclass(frozen=True)
class IVFunction:
    """Interval-valued function [lower(u), upper(u)] from endpoint
    expressions over dim variables."""

    lower: Expr
    upper: Expr
    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        hi = max(self.lower.vars | self.upper.vars, default=-1)
        if hi >= self.dim:
            raise ValueError(f"expression uses u{hi} but dim is {self.dim}")

    def value(self, u: Sequence[float]):
        from .interval import Interval

        lo = eval_expr(self.lower, u)
        hi = eval_expr(self.upper, u)
        if lo > hi:
            at = np.asarray(u, dtype=float).tolist()
            raise ValueError(f"IVF invalid at {at}: lower {lo} > upper {hi}")
        return Interval(lo, hi)

    def center(self, u: Sequence[float]) -> float:
        return (eval_expr(self.lower, u) + eval_expr(self.upper, u)) / 2.0

    def halfwidth(self, u: Sequence[float]) -> float:
        return (eval_expr(self.upper, u) - eval_expr(self.lower, u)) / 2.0

    # built once per function, on first use by a subdifferential
    @cached_property
    def center_expr(self) -> Expr:
        return linear_combination([(0.5, self.lower), (0.5, self.upper)])

    @cached_property
    def halfwidth_expr(self) -> Expr:
        return linear_combination([(0.5, self.upper), (-0.5, self.lower)])


def weak_gen_gradient(f: IVFunction, u: Sequence[float]) -> Polytope:
    """Weakly generalized gradient: co of the Clarke subdifferentials of
    the center and half-width functions."""
    pc = clarke_subdiff(f.center_expr, u)
    pw = clarke_subdiff(f.halfwidth_expr, u)
    gens = _union_gens([pc.generators, pw.generators])
    return Polytope(pc.dim, gens, pc.exact and pw.exact)
