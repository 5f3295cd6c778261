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
from typing import Iterable, Sequence

import numpy as np

# A max/min/abs branch counts as active when its value is within this
# absolute tolerance of the attained extremum.
TAU_ACT = 1e-9


class ExprError(ValueError):
    """Malformed expression (syntax, smoothness restriction, bad variable)."""


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Expr:
    def __add__(self, other: "Expr") -> "Expr":
        return Sum(self, other)


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ExprError(f"negative variable index {self.index}")


@dataclass(frozen=True)
class Sum(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Scale(Expr):
    alpha: float
    operand: Expr


@dataclass(frozen=True)
class Product(Expr):
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if not (is_smooth(self.left) and is_smooth(self.right)):
            raise ExprError("nonsmooth factor in product")


@dataclass(frozen=True)
class Power(Expr):
    base: Expr
    exponent: int

    def __post_init__(self) -> None:
        if self.exponent < 1:
            raise ExprError(f"power exponent must be a positive integer, got {self.exponent}")
        if not is_smooth(self.base):
            raise ExprError("nonsmooth base in power")


@dataclass(frozen=True)
class Abs(Expr):
    operand: Expr


@dataclass(frozen=True)
class Max(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Min(Expr):
    left: Expr
    right: Expr


def is_smooth(e: Expr) -> bool:
    """True iff no abs/max/min node occurs in e."""
    if isinstance(e, (Const, Var)):
        return True
    if isinstance(e, (Abs, Max, Min)):
        return False
    if isinstance(e, Scale):
        return is_smooth(e.operand)
    if isinstance(e, Power):
        return is_smooth(e.base)
    if isinstance(e, (Sum, Product)):
        return is_smooth(e.left) and is_smooth(e.right)
    raise TypeError(f"unknown node {type(e)!r}")


def max_var_index(e: Expr) -> int:
    """Largest variable index used, or -1 for constant expressions."""
    if isinstance(e, Const):
        return -1
    if isinstance(e, Var):
        return e.index
    if isinstance(e, Scale):
        return max_var_index(e.operand)
    if isinstance(e, Power):
        return max_var_index(e.base)
    if isinstance(e, Abs):
        return max_var_index(e.operand)
    return max(max_var_index(e.left), max_var_index(e.right))


def used_vars(e: Expr) -> set[int]:
    if isinstance(e, Const):
        return set()
    if isinstance(e, Var):
        return {e.index}
    if isinstance(e, Scale):
        return used_vars(e.operand)
    if isinstance(e, Power):
        return used_vars(e.base)
    if isinstance(e, Abs):
        return used_vars(e.operand)
    return used_vars(e.left) | used_vars(e.right)


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
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return f"u{e.index}"
    if isinstance(e, Sum):
        return f"({to_string(e.left)} + {to_string(e.right)})"
    if isinstance(e, Scale):
        return f"({e.alpha!r} * {to_string(e.operand)})"
    if isinstance(e, Product):
        return f"({to_string(e.left)} * {to_string(e.right)})"
    if isinstance(e, Power):
        return f"({to_string(e.base)})^{e.exponent}"
    if isinstance(e, Abs):
        return f"abs({to_string(e.operand)})"
    if isinstance(e, Max):
        return f"max({to_string(e.left)}, {to_string(e.right)})"
    if isinstance(e, Min):
        return f"min({to_string(e.left)}, {to_string(e.right)})"
    raise TypeError(f"unknown node {type(e)!r}")


# ---------------------------------------------------------------------------
# Evaluation and gradients
# ---------------------------------------------------------------------------

def eval_expr(e: Expr, u: Sequence[float]) -> float:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return float(u[e.index])
    if isinstance(e, Sum):
        return eval_expr(e.left, u) + eval_expr(e.right, u)
    if isinstance(e, Scale):
        return e.alpha * eval_expr(e.operand, u)
    if isinstance(e, Product):
        return eval_expr(e.left, u) * eval_expr(e.right, u)
    if isinstance(e, Power):
        return eval_expr(e.base, u) ** e.exponent
    if isinstance(e, Abs):
        return abs(eval_expr(e.operand, u))
    if isinstance(e, Max):
        return max(eval_expr(e.left, u), eval_expr(e.right, u))
    if isinstance(e, Min):
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
    if isinstance(e, Const):
        return np.full(pts.shape[0], e.value, dtype=float)
    if isinstance(e, Var):
        return pts[:, e.index].copy()
    if isinstance(e, Sum):
        return _eval_points(e.left, pts) + _eval_points(e.right, pts)
    if isinstance(e, Scale):
        return e.alpha * _eval_points(e.operand, pts)
    if isinstance(e, Product):
        return _eval_points(e.left, pts) * _eval_points(e.right, pts)
    if isinstance(e, Power):
        base = _eval_points(e.base, pts)
        k = e.exponent
        return np.fromiter((x ** k for x in base.tolist()), dtype=float, count=base.size)
    if isinstance(e, Abs):
        return np.abs(_eval_points(e.operand, pts))
    if isinstance(e, Max):
        a, b = _eval_points(e.left, pts), _eval_points(e.right, pts)
        return np.where(b > a, b, a)
    if isinstance(e, Min):
        a, b = _eval_points(e.left, pts), _eval_points(e.right, pts)
        return np.where(b < a, b, a)
    raise TypeError(f"unknown node {type(e)!r}")


def gradient(e: Expr, u: Sequence[float]) -> np.ndarray:
    """Gradient of a smooth expression (raises on nonsmooth nodes)."""
    n = len(u)
    if isinstance(e, Const):
        return np.zeros(n)
    if isinstance(e, Var):
        g = np.zeros(n)
        g[e.index] = 1.0
        return g
    if isinstance(e, Sum):
        return gradient(e.left, u) + gradient(e.right, u)
    if isinstance(e, Scale):
        return e.alpha * gradient(e.operand, u)
    if isinstance(e, Product):
        return eval_expr(e.left, u) * gradient(e.right, u) + eval_expr(e.right, u) * gradient(e.left, u)
    if isinstance(e, Power):
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

    def points(self) -> np.ndarray:
        return np.array(self.generators, dtype=float)

    def hull_vertices(self) -> tuple[tuple[float, ...], ...]:
        """Generators with points interior to the hull of the rest removed
        (canonical set for comparing polytopes as sets)."""
        pts = [np.array(g) for g in _dedupe(self.generators)]
        if len(pts) == 1:
            return (tuple(pts[0]),)
        if self.dim == 1:
            vals = sorted(p[0] for p in pts)
            lo, hi = vals[0], vals[-1]
            return ((lo,),) if lo == hi else ((lo,), (hi,))
        keep = []
        for i, p in enumerate(pts):
            others = [q for j, q in enumerate(pts) if j != i]
            if not _in_hull(p, others):
                keep.append(tuple(p))
        return tuple(keep) if keep else (tuple(pts[0]),)


def _dedupe(gens: Iterable[tuple[float, ...]]) -> list[tuple[float, ...]]:
    seen: list[tuple[float, ...]] = []
    for g in gens:
        if g not in seen:
            seen.append(g)
    return seen


def _in_hull(p: np.ndarray, pts: list[np.ndarray]) -> bool:
    from scipy.optimize import linprog

    k = len(pts)
    a_eq = np.vstack([np.array(pts).T, np.ones((1, k))])
    b_eq = np.concatenate([p, [1.0]])
    res = linprog(np.zeros(k), A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * k, method="highs")
    return bool(res.success)


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


def _single(vec: np.ndarray) -> tuple[tuple[float, ...], ...]:
    return (tuple(float(x) for x in vec),)


def _minkowski(a: Sequence[tuple[float, ...]], b: Sequence[tuple[float, ...]]) -> tuple[tuple[float, ...], ...]:
    # all pairwise sums, deliberately not hull-pruned
    out = []
    for ga in a:
        for gb in b:
            s = tuple(x + y for x, y in zip(ga, gb))
            if s not in out:
                out.append(s)
    return tuple(out)


def _scale_gens(alpha: float, gens: Sequence[tuple[float, ...]]) -> tuple[tuple[float, ...], ...]:
    out = []
    for g in gens:
        s = tuple(alpha * x for x in g)
        if s not in out:
            out.append(s)
    return tuple(out)


def _union_gens(parts: Sequence[Sequence[tuple[float, ...]]]) -> tuple[tuple[float, ...], ...]:
    out: list[tuple[float, ...]] = []
    for part in parts:
        for g in part:
            if g not in out:
                out.append(g)
    return tuple(out)


def _subdiff(e: Expr, u: Sequence[float], tau_act: float) -> _SubdiffInfo:
    if is_smooth(e):
        return _SubdiffInfo(_single(gradient(e, u)), exact=True, regular=True, smooth=True)

    if isinstance(e, Sum):
        a = _subdiff(e.left, u, tau_act)
        b = _subdiff(e.right, u, tau_act)
        # sum rule is an inclusion; equality when one side is smooth or
        # both are regular
        exact = a.exact and b.exact and (a.smooth or b.smooth or (a.regular and b.regular))
        return _SubdiffInfo(_minkowski(a.gens, b.gens), exact=exact,
                            regular=a.regular and b.regular, smooth=False)

    if isinstance(e, Scale):
        a = _subdiff(e.operand, u, tau_act)
        # scaling preserves exactness (Clarke sets scale exactly, also for
        # negative alpha); regularity survives only for alpha >= 0
        return _SubdiffInfo(_scale_gens(e.alpha, a.gens), exact=a.exact,
                            regular=a.regular and e.alpha >= 0.0, smooth=False)

    if isinstance(e, Abs):
        return _max_like(e.operand, Scale(-1.0, e.operand), u, tau_act, is_min=False)

    if isinstance(e, Max):
        return _max_like(e.left, e.right, u, tau_act, is_min=False)

    if isinstance(e, Min):
        return _max_like(e.left, e.right, u, tau_act, is_min=True)

    raise TypeError(f"unknown node {type(e)!r}")


def _max_like(left: Expr, right: Expr, u: Sequence[float], tau_act: float, is_min: bool) -> _SubdiffInfo:
    va = eval_expr(left, u)
    vb = eval_expr(right, u)
    best = min(va, vb) if is_min else max(va, vb)
    parts = []
    infos = []
    for v, operand in ((va, left), (vb, right)):
        if abs(v - best) <= tau_act:
            info = _subdiff(operand, u, tau_act)
            infos.append(info)
            parts.append(info.gens)
    gens = _union_gens(parts)
    if len(infos) == 1:
        # only one branch is active: the function agrees with that branch
        # on a neighborhood, so its properties carry over unchanged
        info = infos[0]
        return _SubdiffInfo(gens, exact=info.exact, regular=info.regular,
                            smooth=info.smooth)
    operands_smooth = is_smooth(left) and is_smooth(right)
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


def clarke_subdiff(e: Expr, u: Sequence[float], tau_act: float = TAU_ACT) -> Polytope:
    """Clarke subdifferential of e at u as a generator polytope.

    The hull always contains the Clarke set; ``exact`` is set when the
    applied calculus rules are known to attain equality.
    """
    pt = [float(x) for x in u]
    if any(not math.isfinite(x) for x in pt):
        raise ValueError(f"non-finite point {u}")
    info = _subdiff(e, pt, tau_act)
    return Polytope(len(pt), info.gens, info.exact)


# ---------------------------------------------------------------------------
# Interval-valued functions
# ---------------------------------------------------------------------------

def _flatten(e: Expr, coeff: float, const: list[float], terms: dict[Expr, float]) -> None:
    # linear structure only: sums, scales, constants; everything else is
    # an opaque atom collected with its coefficient
    if isinstance(e, Const):
        const[0] += coeff * e.value
    elif isinstance(e, Sum):
        _flatten(e.left, coeff, const, terms)
        _flatten(e.right, coeff, const, terms)
    elif isinstance(e, Scale):
        _flatten(e.operand, coeff * e.alpha, const, terms)
    else:
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
        hi = max(max_var_index(self.lower), max_var_index(self.upper))
        if hi >= self.dim:
            raise ValueError(f"expression uses u{hi} but dim is {self.dim}")

    def value(self, u: Sequence[float]):
        from .interval import Interval

        lo = eval_expr(self.lower, u)
        hi = eval_expr(self.upper, u)
        if lo > hi:
            raise ValueError(f"IVF invalid at {list(u)}: lower {lo} > upper {hi}")
        return Interval(lo, hi)

    def center(self, u: Sequence[float]) -> float:
        return (eval_expr(self.lower, u) + eval_expr(self.upper, u)) / 2.0

    def halfwidth(self, u: Sequence[float]) -> float:
        return (eval_expr(self.upper, u) - eval_expr(self.lower, u)) / 2.0

    @property
    def center_expr(self) -> Expr:
        return linear_combination([(0.5, self.lower), (0.5, self.upper)])

    @property
    def halfwidth_expr(self) -> Expr:
        return linear_combination([(0.5, self.upper), (-0.5, self.lower)])


def weak_gen_gradient(f: IVFunction, u: Sequence[float], tau_act: float = TAU_ACT) -> Polytope:
    """Weakly generalized gradient: co of the Clarke subdifferentials of
    the center and half-width functions."""
    pc = clarke_subdiff(f.center_expr, u, tau_act)
    pw = clarke_subdiff(f.halfwidth_expr, u, tau_act)
    gens = _union_gens([pc.generators, pw.generators])
    return Polytope(pc.dim, gens, pc.exact and pw.exact)
