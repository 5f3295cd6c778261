"""Brute-force grid oracle: canonical candidate generation plus the
exhaustive implication checks used to confirm derived guarantees."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .expr import IVFunction, eval_points
from .problem import MIOProblem, as_epsilon, feasible

GRID_CAP = 10**7
MAX_DIM = 4


class GridError(ValueError):
    pass


def default_points_per_dim(n: int) -> int:
    if n == 1:
        return 401
    if n == 2:
        return 101
    if n == 3:
        return 21
    if n == 4:
        return 11
    raise GridError(f"brute-force grids are dishonest beyond dimension {MAX_DIM} (got {n})")


@dataclass(frozen=True)
class GridSpec:
    points_per_dim: int
    cap: int = GRID_CAP

    def __post_init__(self) -> None:
        if self.points_per_dim < 2:
            raise GridError("points_per_dim must be >= 2")


def spec_for(problem: MIOProblem, points_per_dim: int | None = None) -> GridSpec:
    return GridSpec(points_per_dim or default_points_per_dim(problem.dim))


def grid_points(box_lo: Sequence[float], box_hi: Sequence[float], spec: GridSpec) -> list[np.ndarray]:
    """Uniform inclusive grid, deterministic lexicographic order."""
    n = len(box_lo)
    if n > MAX_DIM:
        raise GridError(f"brute-force grids are dishonest beyond dimension {MAX_DIM} (got {n})")
    total = spec.points_per_dim ** n
    if total > spec.cap:
        raise GridError(f"grid of {total} points exceeds cap {spec.cap}")
    axes = []
    for lo, hi in zip(box_lo, box_hi):
        t = np.arange(spec.points_per_dim, dtype=float)
        axes.append(lo + t * (hi - lo) / (spec.points_per_dim - 1))
    # "ij" indexing raveled in C order varies the last axis fastest
    grid = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    return list(grid)


def grid_array(rows: list[np.ndarray], dim: int) -> np.ndarray:
    """The (N, dim) array of the rows that grid_points returns."""
    return np.concatenate(rows).reshape(len(rows), dim)


def feasible_grid(problem: MIOProblem, spec: GridSpec) -> list[np.ndarray]:
    """All grid points satisfying the constraints (may be empty)."""
    pts = grid_array(grid_points(problem.box_lo, problem.box_hi, spec), problem.dim)
    tau = problem.tolerances.tau_feas
    # each constraint is evaluated only where the earlier ones hold, as
    # the short-circuiting scalar ``feasible`` does
    for g in problem.constraints:
        pts = pts[eval_points(g, pts) <= tau]
    return list(pts)


# ---------------------------------------------------------------------------
# Precomputed value tables (the heavy scans are quadratic in grid size)
# ---------------------------------------------------------------------------

@dataclass
class ValueTable:
    points: np.ndarray     # (N, n)
    centers: np.ndarray    # (m, N)
    widths: np.ndarray     # (m, N)


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


def value_table(problem: MIOProblem, pts: Sequence[np.ndarray]) -> ValueTable:
    arr = np.array(pts, dtype=float).reshape(len(pts), problem.dim)
    lower, upper = endpoint_values(problem.objectives, arr)
    return ValueTable(arr, (lower + upper) / 2.0, (upper - lower) / 2.0)


def _dominators(table: ValueTable, idx: int, shifts: np.ndarray) -> np.ndarray:
    """Boolean mask of table points whose shifted values strictly
    CW-dominate point idx in every objective; shifts is (m,) or (m, N)."""
    cu = table.centers[:, idx][:, None]
    wu = table.widths[:, idx][:, None]
    if shifts.ndim == 1:
        shifts = shifts[:, None]
    dom_c = table.centers + shifts / 2.0 < cu
    dom_w = table.widths + shifts / 2.0 < wu
    return np.all(dom_c & dom_w, axis=0)


def quasi_minimal_mask(problem: MIOProblem, table: ValueTable, eps) -> np.ndarray:
    """Membership of each table point in QM(F, table, eps)."""
    earr = as_epsilon(eps, problem.n_objectives)
    n_pts = table.points.shape[0]
    out = np.empty(n_pts, dtype=bool)
    for i in range(n_pts):
        dists = np.linalg.norm(table.points - table.points[i], axis=1)
        shifts = earr[:, None] * dists[None, :]
        out[i] = not np.any(_dominators(table, i, shifts))
    return out


def eps_minimal_mask(problem: MIOProblem, table: ValueTable, eps) -> np.ndarray:
    """Membership of each table point in M(F, table, eps)."""
    earr = as_epsilon(eps, problem.n_objectives)
    n_pts = table.points.shape[0]
    out = np.empty(n_pts, dtype=bool)
    for i in range(n_pts):
        out[i] = not np.any(_dominators(table, i, earr))
    return out


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
    if eps0 <= 0:
        raise ValueError("eps0 must be > 0")
    pts = feasible_grid(problem, spec)
    report = Prop21Report(eps0=eps0, checked=0)
    if not pts:
        return report
    table = value_table(problem, pts)
    root = float(np.sqrt(eps0))
    m = problem.n_objectives
    qm = quasi_minimal_mask(problem, table, np.full(m, root))
    eps_shift = np.full(m, eps0)
    for i in np.flatnonzero(qm):
        report.checked += 1
        dists = np.linalg.norm(table.points - table.points[i], axis=1)
        in_ball = dists <= root
        dominated = _dominators(table, i, eps_shift) & in_ball
        if np.any(dominated):
            j = int(np.flatnonzero(dominated)[0])
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
    if not feasible(problem, u_bar):
        raise ValueError("u_bar must be feasible")
    pts = feasible_grid(problem, spec)
    table = value_table(problem, pts)
    u_arr = np.asarray(u_bar, dtype=float)
    merit = np.sum(table.centers + table.widths, axis=0)
    merit_bar = sum(f.center(u_arr) + f.halfwidth(u_arr) for f in problem.objectives)
    dists = np.linalg.norm(table.points - u_arr, axis=1)
    lhs = merit + float(np.sum(earr)) * dists
    bad = lhs < merit_bar
    if np.any(bad):
        j = int(np.flatnonzero(bad)[0])
        return Thm33Verdict(False, table.points[j].tolist(), False)
    # conclusion: u_bar in QM(F, grid, eps)
    from .problem import is_weak_eps_quasi_minimal

    ok = is_weak_eps_quasi_minimal(problem, u_arr, earr, pts)
    return Thm33Verdict(True, None, ok)
