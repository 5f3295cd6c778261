"""Brute-force grid oracle: canonical candidate generation plus the
exhaustive implication checks used to confirm derived guarantees.

Every domination question over a value table goes through one exact
kernel, ``dominated_by``: table row j dominates row i when
c_k(j) + s_k/2 < c_k(i) and w_k(j) + s_k/2 < w_k(i) for every objective k,
with the shift s_k = eps_k, or eps_k * ||z_j - z_i|| for the quasi
variant.  ``dominated`` answers "has row i any dominator?" for many rows
at once.  It runs the kernel on every candidate it tries, so it never
approximates; two prefilters only decide which candidates to try:

- The Pareto front.  ``ValueTable.front`` is the set M of minimal rows:
  every row has a row of M that is <= it in every centre and width.
  Floating-point addition is monotone (x <= y implies fl(x + h) <=
  fl(y + h)), so if row j dominates row i under a constant shift h, the
  front row f <= j does too: fl(f + h) <= fl(j + h) < i.  The front alone
  therefore decides every constant-shift (eps) question.  Shifts are
  non-negative, so fl(x + s) >= x and a dominator of row i lies strictly
  below it; a front row, being minimal, thus has no dominator at all.
- Lattice neighbours.  By the same inequality a quasi dominator of row i
  also dominates it strictly with no shift, and by the front argument
  some front row then does.  A row that no front row strictly dominates
  is thus quasi-minimal without a scan.  For the other rows the 3^n - 1
  rows next to it on the per-axis coordinate ranks are tried first,
  since their shifts are the smallest; a row for which none of them is a
  dominator is checked against every row that strictly dominates it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .expr import Expr, IVFunction, eval_points
from .problem import MIOProblem, as_epsilon, distances, require_feasible

GRID_CAP = 10**7
MAX_DIM = 4


class GridError(ValueError):
    pass


_DEFAULT_POINTS_PER_DIM = {1: 401, 2: 101, 3: 21, 4: 11}


def default_points_per_dim(n: int) -> int:
    if n not in _DEFAULT_POINTS_PER_DIM:
        raise GridError(f"brute-force grids are dishonest beyond dimension {MAX_DIM} (got {n})")
    return _DEFAULT_POINTS_PER_DIM[n]


@dataclass(frozen=True)
class GridSpec:
    points_per_dim: int

    def __post_init__(self) -> None:
        if self.points_per_dim < 2:
            raise GridError("points_per_dim must be >= 2")


def spec_for(problem: MIOProblem, points_per_dim: int | None = None) -> GridSpec:
    """The one grid rule for a problem: points_per_dim if given, else the
    grid of the problem's file, else the default for its dimension."""
    if points_per_dim is None:
        points_per_dim = problem.metadata.get("points_per_dim")
    if points_per_dim is None:
        points_per_dim = default_points_per_dim(problem.dim)
    return GridSpec(points_per_dim)


def check_grid(n: int, spec: GridSpec) -> None:
    """GridError unless n <= MAX_DIM and the n-dimensional grid of spec has <= GRID_CAP points."""
    if n > MAX_DIM:
        raise GridError(f"brute-force grids are dishonest beyond dimension {MAX_DIM} (got {n})")
    if spec.points_per_dim ** n > GRID_CAP:
        raise GridError(f"grid of {spec.points_per_dim ** n} points exceeds cap {GRID_CAP}")


def grid_points(box_lo: Sequence[float], box_hi: Sequence[float], spec: GridSpec) -> np.ndarray:
    """The (N, n) uniform inclusive grid over the box, in deterministic
    lexicographic order (the last axis varies fastest)."""
    check_grid(len(box_lo), spec)
    t = np.arange(spec.points_per_dim, dtype=float)
    axes = [lo + t * (hi - lo) / (spec.points_per_dim - 1) for lo, hi in zip(box_lo, box_hi)]
    # "ij" indexing raveled in C order varies the last axis fastest
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)


def feasible_rows(constraints: Sequence[Expr], pts: np.ndarray, tau: float) -> np.ndarray:
    """Indices of the rows of pts at which every constraint is <= tau.
    Each constraint is evaluated only where the earlier ones hold, as the
    short-circuiting scalar ``feasible`` does."""
    rows = np.arange(len(pts))
    for g in constraints:
        rows = rows[eval_points(g, pts[rows]) <= tau]
    return rows


def feasible_grid(problem: MIOProblem, spec: GridSpec) -> np.ndarray:
    """The (N, n) array of grid points satisfying the constraints (N may be 0)."""
    pts = grid_points(problem.box_lo, problem.box_hi, spec)
    return pts[feasible_rows(problem.constraints, pts, problem.tolerances.tau_feas)]


# ---------------------------------------------------------------------------
# Precomputed value tables and the domination primitive
# ---------------------------------------------------------------------------

@dataclass
class ValueTable:
    points: np.ndarray     # (N, n)
    centers: np.ndarray    # (m, N)
    widths: np.ndarray     # (m, N)

    @cached_property
    def cw(self) -> np.ndarray:
        """(N, 2, m): row i holds the centres and the widths at point i."""
        return np.ascontiguousarray(np.stack([self.centers.T, self.widths.T], axis=1))

    @cached_property
    def front(self) -> tuple[np.ndarray, np.ndarray]:
        """(front, cover): the indices M of the minimal centre/width rows,
        one per set of equal rows, and for every row i a row cover[i] of M
        that is <= it in every centre and width (cover[f] = f on M).

        Rows are taken in order of value sum, ties broken by the values:
        a row <= another row comes first, since floating-point sums are
        monotone too.  Each pass makes the first remaining row a front row
        and drops every remaining row it is <= to.  Values are finite."""
        flat = self.cw.reshape(len(self.points), 2 * len(self.centers))
        idx = np.lexsort((*flat.T[::-1], flat.sum(axis=1)))
        vals = flat[idx]
        cover = np.empty(len(flat), dtype=np.intp)
        front = []
        while idx.size:
            below = np.all(vals >= vals[0], axis=1)
            below[0] = True
            cover[idx[below]] = idx[0]
            front.append(idx[0])
            keep = ~below
            idx, vals = idx[keep], vals[keep]
        return np.array(front, dtype=np.intp), cover

    @cached_property
    def _lattice(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(keys, order, sorted keys, strides): each point's per-axis
        coordinate ranks, shifted by one and packed into one integer."""
        ranks = [np.unique(col, return_inverse=True) for col in self.points.T]
        strides = np.ones(len(ranks), dtype=np.int64)
        for a in range(len(ranks) - 2, -1, -1):
            strides[a] = strides[a + 1] * (len(ranks[a + 1][0]) + 2)
        keys = np.zeros(len(self.points), dtype=np.int64)
        for (_, inv), stride in zip(ranks, strides):
            keys += (inv.reshape(-1) + 1) * stride
        order = np.argsort(keys, kind="stable")
        return keys, order, keys[order], strides

    def _neighbours(self, rows: np.ndarray, offset: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """(j, found): for each row, the row whose coordinate ranks differ
        from its own by offset, where found.  Any row returned is only a
        candidate, so key overflow on huge irregular tables costs no
        correctness."""
        keys, order, sorted_keys, strides = self._lattice
        want = keys[rows] + int(np.dot(offset, strides))
        pos = np.minimum(np.searchsorted(sorted_keys, want), len(sorted_keys) - 1)
        return order[pos], sorted_keys[pos] == want


class IntervalError(ValueError):
    """An objective's interval is invalid (lower > upper) or has a
    non-finite endpoint at a point."""

    def __init__(self, objective: int, point: list, lower: float, upper: float):
        self.objective = objective
        self.point = point
        if math.isfinite(lower) and math.isfinite(upper):
            self.detail = f"lower {lower} > upper {upper}"
        else:
            self.detail = f"non-finite endpoint: lower {lower}, upper {upper}"
        super().__init__(f"IVF invalid at {point}: {self.detail}")


def endpoint_values(objectives: Sequence[IVFunction], pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper endpoint values (m, N) of every objective at every
    row of pts.  Raises IntervalError at the first point in order (and the
    lowest objective index there) whose interval is invalid or non-finite."""
    lower = np.array([eval_points(f.lower, pts) for f in objectives])
    upper = np.array([eval_points(f.upper, pts) for f in objectives])
    bad = (lower > upper) | ~np.isfinite(lower) | ~np.isfinite(upper)
    cols = np.flatnonzero(bad.any(axis=0))
    if cols.size:
        i = int(cols[0])
        k = int(np.flatnonzero(bad[:, i])[0])
        raise IntervalError(k, pts[i].tolist(), float(lower[k, i]), float(upper[k, i]))
    return lower, upper


def objective_table(objectives: Sequence[IVFunction], points: np.ndarray,
                    at: np.ndarray | None = None) -> ValueTable:
    """The table of the objectives' values at the rows of at (by default
    the points themselves), indexed by the rows of points."""
    lower, upper = endpoint_values(objectives, points if at is None else at)
    return ValueTable(points, (lower + upper) / 2.0, (upper - lower) / 2.0)


def value_table(problem: MIOProblem, pts) -> ValueTable:
    """The table at pts, an (N, n) array or a list of points such as [u]."""
    return objective_table(problem.objectives,
                           np.asarray(pts, dtype=float).reshape(len(pts), problem.dim))


# elements per temporary array of the blocked all-pairs comparisons
BLOCK = 2**15


def dominated_by(table: ValueTable, i, eps: np.ndarray, j=slice(None), *,
                 quasi: bool = False, strict: bool = True) -> np.ndarray:
    """Whether row j, after the handicap [0, s_k], CW-dominates row i in
    every objective k: c_k(j) + s_k/2 < c_k(i) and w_k(j) + s_k/2 < w_k(i)
    (<= when not strict), with s_k = eps_k, or eps_k * ||z_j - z_i|| when
    quasi.  Elementwise over the broadcast shapes of the row indices i and
    j; by default j is every row, giving the mask of i's dominators."""
    vi, vj = table.cw[i], table.cw[j]
    if quasi:
        dists = distances(table.points[j], table.points[i])
        half = (eps * dists[..., None] / 2.0)[..., None, :]
    else:
        half = eps / 2.0
    shifted = vj + half
    return np.all(shifted < vi if strict else shifted <= vi, axis=(-2, -1))


def dominators_of(table: ValueTable, row: ValueTable, eps: np.ndarray,
                  quasi: bool = False) -> np.ndarray:
    """Mask of the rows of table that strictly CW-dominate the one row of
    ``row`` after the handicap of ``dominated_by``.  That row need not be
    in the table: it joins it as the last row, and ``dominated_by``
    compares it with every other."""
    n = len(table.points)
    joined = ValueTable(np.vstack([table.points, row.points]),
                        np.hstack([table.centers, row.centers]),
                        np.hstack([table.widths, row.widths]))
    return dominated_by(joined, n, eps, slice(0, n), quasi=quasi)


def point_dominated(problem: MIOProblem, table: ValueTable, u: Sequence[float], eps=0.0,
                    quasi: bool = False) -> bool:
    """Whether some row of a value table of problem strictly CW-dominates
    the point u, which need not be a grid point, after the handicap
    [0, eps_k], or [0, eps_k * ||z - u||] when quasi.  With eps = 0 this
    is the negation of weak minimality, otherwise of weak eps- or weak
    eps-quasi-minimality, over the table's points.  The row of u is
    evaluated like every table row, so an invalid interval at u raises."""
    earr = as_epsilon(eps, problem.n_objectives)
    return bool(np.any(dominators_of(table, value_table(problem, [u]), earr, quasi)))


def _any_dominator(table: ValueTable, rows: np.ndarray, cands: np.ndarray,
                   eps: np.ndarray) -> np.ndarray:
    """For each of rows, whether some row of cands dominates it strictly
    under the constant shift eps."""
    out = np.zeros(rows.size, dtype=bool)
    step = max(1, BLOCK // max(1, cands.size * 2 * table.centers.shape[0]))
    for s in range(0, rows.size, step):
        out[s:s + step] = dominated_by(table, rows[s:s + step, None], eps,
                                       cands[None, :]).any(axis=1)
    return out


def dominated(table: ValueTable, eps, quasi: bool = False, rows=None) -> np.ndarray:
    """For each row (every row, or the given row indices), whether some
    table row strictly CW-dominates it after the handicap [0, eps_k], or
    [0, eps_k * distance] when quasi, for eps >= 0.  Exact; the module
    docstring says why the prefilters are."""
    eps = np.asarray(eps, dtype=float)
    idx = np.arange(len(table.points)) if rows is None else np.asarray(rows, dtype=np.intp)
    front, cover = table.front
    out = np.zeros(idx.size, dtype=bool)
    # a dominator lies strictly below its row (eps >= 0): front rows have none
    live = np.flatnonzero(cover[idx] != idx)
    if not quasi:
        out[live] = dominated_by(table, idx[live], eps, cover[idx[live]])
        live = live[~out[live]]
        out[live] = _any_dominator(table, idx[live], front, eps)
        return out
    # only rows with an unshifted strict dominator can have a quasi one
    live = live[dominated(table, np.zeros_like(eps), rows=idx[live])]
    # lattice neighbours first: theirs are the smallest shifts
    for offset in itertools.product((-1, 0, 1), repeat=table.points.shape[1]):
        if not live.size:
            break
        if not any(offset):
            continue
        j, found = table._neighbours(idx[live], offset)
        hit = np.zeros(live.size, dtype=bool)
        hit[found] = dominated_by(table, idx[live[found]], eps, j[found], quasi=True)
        out[live[hit]] = True
        live = live[~hit]
    # the rest against all their unshifted strict dominators
    zero = np.zeros_like(eps)
    for k in live:
        cands = np.flatnonzero(dominated_by(table, idx[k], zero))
        out[k] = np.any(dominated_by(table, idx[k], eps, cands, quasi=True))
    return out


def quasi_minimal_mask(problem: MIOProblem, table: ValueTable, eps) -> np.ndarray:
    """Membership of each table point in QM(F, table, eps)."""
    return ~dominated(table, as_epsilon(eps, problem.n_objectives), quasi=True)


def eps_minimal_mask(problem: MIOProblem, table: ValueTable, eps) -> np.ndarray:
    """Membership of each table point in M(F, table, eps)."""
    return ~dominated(table, as_epsilon(eps, problem.n_objectives))


# ---------------------------------------------------------------------------
# Implication checks
# ---------------------------------------------------------------------------

@dataclass
class Prop21Report:
    eps0: float
    checked: int               # quasi-minimal points examined
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_prop_2_1(problem: MIOProblem, eps0: float, spec: GridSpec) -> Prop21Report:
    """Exhaustive check that every grid point of QM(F, S, sqrt(eps0)*1)
    is eps0-minimal within the closed ball of radius sqrt(eps0).

    A violation would signal an implementation bug, not a math failure.
    """
    if not eps0 > 0:
        raise ValueError("eps0 must be > 0")
    pts = feasible_grid(problem, spec)
    report = Prop21Report(eps0=eps0, checked=0)
    if len(pts) == 0:
        return report
    table = value_table(problem, pts)
    root = float(np.sqrt(eps0))
    m = problem.n_objectives
    qm = np.flatnonzero(quasi_minimal_mask(problem, table, np.full(m, root)))
    report.checked = int(qm.size)
    eps_shift = np.full(m, eps0)
    # only rows with a dominator anywhere can have one in the ball
    for i in qm[dominated(table, eps_shift, rows=qm)]:
        in_ball = distances(table.points, table.points[i]) <= root
        hits = np.flatnonzero(dominated_by(table, i, eps_shift) & in_ball)
        if hits.size:
            j = int(hits[0])
            report.violations.append((table.points[i].tolist(), table.points[j].tolist()))
    return report


@dataclass
class Thm33Verdict:
    hypothesis_holds: bool
    witness: list | None       # hypothesis violator, if any
    conclusion_verified: bool  # u_bar in QM(F, grid, eps) when hypothesis holds


def check_thm_3_3(problem: MIOProblem, u_bar: Sequence[float], eps, spec: GridSpec) -> Thm33Verdict:
    """Verify sum(F^c + F^w)(u) + sum(eps_k)||u - u_bar|| >= sum(F^c + F^w)(u_bar)
    over the feasible grid; on success also confirm the conclusion that
    u_bar is weak eps-quasi-minimal on the grid."""
    earr = as_epsilon(eps, problem.n_objectives)
    if not np.any(earr > 0):
        raise ValueError("eps must be nonzero")
    require_feasible(problem, u_bar)
    table = value_table(problem, feasible_grid(problem, spec))
    u_arr = np.asarray(u_bar, dtype=float)
    bar = value_table(problem, [u_arr])
    merit = np.sum(table.centers + table.widths, axis=0)
    merit_bar = sum(c + w for c, w in zip(bar.centers[:, 0], bar.widths[:, 0]))
    dists = distances(table.points, u_arr)
    lhs = merit + float(np.sum(earr)) * dists
    bad = lhs < merit_bar
    if np.any(bad):
        j = int(np.flatnonzero(bad)[0])
        return Thm33Verdict(False, table.points[j].tolist(), False)
    # conclusion: u_bar in QM(F, grid, eps)
    ok = not np.any(dominators_of(table, bar, earr, quasi=True))
    return Thm33Verdict(True, None, ok)
