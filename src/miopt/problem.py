"""MIOP data model, feasibility, active sets, and solution concepts.

Solution concepts are decided relative to an explicit finite candidate
set (normally a feasible grid): the quantifier "for all of S" is
undecidable for this function class, so every verdict is honest about
its discretization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .expr import Expr, IVFunction, eval_expr


@dataclass(frozen=True)
class Tolerances:
    tau_feas: float = 1e-9
    tau_act: float = 1e-6
    tau_solver: float = 1e-8

    def __post_init__(self) -> None:
        # NaN tau_feas makes every point infeasible; tau_solver < 0 refutes a zero residual
        for name, value in vars(self).items():
            if not 0 <= value < math.inf:
                raise ValueError(f"{name}: expected a finite number >= 0, got {value}")


DEFAULT_TOLERANCES = Tolerances()


def check_box(box_lo: Sequence[float], box_hi: Sequence[float], dim: int) -> None:
    """The box of a problem or game player: dim finite bounds in lo and hi, lo < hi on each axis."""
    if len(box_lo) != dim or len(box_hi) != dim:
        raise ValueError(f"expected {dim} bounds in lo and hi")
    for lo, hi in zip(box_lo, box_hi):
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            rule = "lo < hi" if math.isfinite(lo) and math.isfinite(hi) else "finite bounds"
            raise ValueError(f"box must have {rule}, got [{lo}, {hi}]")


@dataclass(frozen=True)
class MIOProblem:
    """Objectives F_k (interval-valued), constraints g_j <= 0, and a box
    bounding the oracle search."""

    dim: int
    objectives: tuple[IVFunction, ...]
    constraints: tuple[Expr, ...]
    box_lo: tuple[float, ...]
    box_hi: tuple[float, ...]
    name: str = ""
    tolerances: Tolerances = DEFAULT_TOLERANCES
    # original expression strings, kept for bit-exact round-trips
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not self.objectives:
            raise ValueError("need at least one objective")
        for f in self.objectives:
            if f.dim != self.dim:
                raise ValueError("objective dimension mismatch")
        for g in self.constraints:
            if max(g.vars, default=-1) >= self.dim:
                raise ValueError("constraint uses out-of-range variable")
        check_box(self.box_lo, self.box_hi, self.dim)

    @property
    def n_objectives(self) -> int:
        return len(self.objectives)

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)


class DescentError(ValueError):
    """A descent engine cannot run, or its result failed post-verification."""


class CertificateError(ValueError):
    """A certificate pipeline was given inputs it cannot decide on."""


class PremiseError(DescentError, CertificateError):
    """The operation's hypothesis fails at the supplied point.  One class
    for the descent engines and the certificate pipelines, caught by
    ``except DescentError`` and ``except CertificateError`` alike."""


def as_epsilon(eps, m: int) -> np.ndarray:
    """Validate a per-objective epsilon vector (scalars broadcast)."""
    arr = np.atleast_1d(np.asarray(eps, dtype=float))
    if arr.size == 1 and m > 1:
        arr = np.full(m, float(arr[0]))
    if arr.size != m:
        raise ValueError(f"epsilon has {arr.size} components, expected {m}")
    if not np.all(arr >= 0):
        raise ValueError("epsilon components must be >= 0")
    return arr


def distances(points, u) -> np.ndarray:
    """Euclidean distance from u to each row of points (a 0-d array for a
    single point).  Every distance that decides a verdict comes from here:
    the row-wise reduction, not ``np.linalg.norm`` of a flat vector, which
    is a BLAS dot product and can differ from it in the last bit."""
    return np.linalg.norm(np.asarray(points, dtype=float) - np.asarray(u, dtype=float), axis=-1)


def feasible(problem: MIOProblem, u: Sequence[float]) -> bool:
    """True iff g_j(u) <= tau_feas for every constraint."""
    tau = problem.tolerances.tau_feas
    return all(eval_expr(g, u) <= tau for g in problem.constraints)


def require_feasible(problem: MIOProblem, u: Sequence[float]) -> None:
    """Every check at a point takes the point in S as its premise."""
    if not feasible(problem, u):
        raise CertificateError(f"point {np.asarray(u, dtype=float).tolist()} is infeasible")


def active_set(problem: MIOProblem, u: Sequence[float]) -> tuple[int, ...]:
    """Indices (0-based) of constraints with |g_j(u)| <= tau_act."""
    tau = problem.tolerances.tau_act
    return tuple(j for j, g in enumerate(problem.constraints) if abs(eval_expr(g, u)) <= tau)


def _dominates(problem: MIOProblem, z: Sequence[float], u_cw: list[tuple[float, float]],
               shifts: np.ndarray) -> bool:
    """True iff F_k(z) + [0, shifts[k]] strictly CW-dominates F_k(u) for all k."""
    for k, f in enumerate(problem.objectives):
        cu, wu = u_cw[k]
        cz = f.center(z) + shifts[k] / 2.0
        wz = f.halfwidth(z) + shifts[k] / 2.0
        if not (cz < cu and wz < wu):
            return False
    return True


def _cw_at(problem: MIOProblem, u: Sequence[float]) -> list[tuple[float, float]]:
    return [(f.center(u), f.halfwidth(u)) for f in problem.objectives]


def is_weak_minimal(problem: MIOProblem, u: Sequence[float],
                    candidates: Iterable[Sequence[float]]) -> bool:
    """No candidate strictly CW-dominates u in every objective."""
    u_cw = _cw_at(problem, u)
    zero = np.zeros(problem.n_objectives)
    return not any(_dominates(problem, z, u_cw, zero) for z in candidates)


def is_weak_eps_minimal(problem: MIOProblem, u: Sequence[float], eps,
                        candidates: Iterable[Sequence[float]]) -> bool:
    """No candidate dominates u even after the handicap [0, eps_k]."""
    shifts = as_epsilon(eps, problem.n_objectives)
    u_cw = _cw_at(problem, u)
    return not any(_dominates(problem, z, u_cw, shifts) for z in candidates)


def is_weak_eps_quasi_minimal(problem: MIOProblem, u: Sequence[float], eps,
                              candidates: Iterable[Sequence[float]]) -> bool:
    """No candidate dominates u after the distance-scaled handicap
    [0, eps_k * ||z - u||]."""
    earr = as_epsilon(eps, problem.n_objectives)
    u_arr = np.asarray(u, dtype=float)
    u_cw = _cw_at(problem, u)
    for z in candidates:
        dist = float(distances(z, u_arr))
        if _dominates(problem, z, u_cw, earr * dist):
            return False
    return True


def restrict_to_ball(candidates, center: Sequence[float], radius: float) -> np.ndarray:
    """The (M, n) array of the candidate rows within the closed ball."""
    pts = np.asarray(candidates, dtype=float)
    return pts[distances(pts, center) <= radius]
