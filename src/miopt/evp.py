"""Constructive descent engines over the feasible grid.

These turn the existence arguments (descent chains and the
Ekeland-type fixed-point iteration) into terminating algorithms: the
grid is finite and every step strictly decreases the scalar merit
sum_k (F_k^c + F_k^w), so iteration always stops.  Each engine
post-verifies its returned point against the full feasible grid; the
verification is part of the operation, not optional.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .grid import GridSpec, ValueTable, dominated_by, feasible_grid, value_table
from .problem import DescentError, MIOProblem, PremiseError, as_epsilon, distances


@dataclass
class DescentTrace:
    iterates: list = field(default_factory=list)
    merits: list = field(default_factory=list)
    reason: str = ""


@dataclass
class EvpCertificate:
    point: np.ndarray
    a_holds: bool
    b_value: float
    b_bound: float
    c_holds: bool
    trace: DescentTrace

    @property
    def b_holds(self) -> bool:
        return self.b_value <= self.b_bound + 1e-12

    @property
    def all_hold(self) -> bool:
        return self.a_holds and self.b_holds and self.c_holds


def _start(table: ValueTable, u: Sequence[float] | None) -> tuple[int, Sequence[float]]:
    """The row of u on the table, and u; the first row when u is None."""
    if u is None:
        return 0, table.points[0]
    u_arr = np.asarray(u, dtype=float)
    dists = distances(table.points, u_arr)
    i = int(np.argmin(dists))
    if dists[i] > 1e-9:
        raise DescentError(f"point {list(u_arr)} is not on the feasible grid "
                           f"(nearest grid point at distance {dists[i]:.3g})")
    return i, u


def _prepare(problem: MIOProblem, spec: GridSpec) -> ValueTable:
    pts = feasible_grid(problem, spec)
    if len(pts) == 0:
        raise DescentError("feasible grid is empty")
    return value_table(problem, pts)


def _summed(table: ValueTable) -> tuple[ValueTable, np.ndarray]:
    """The one-objective table of sum_k F_k^c and sum_k F_k^w, and the
    merit sum_k (F_k^c + F_k^w) that every descent step decreases."""
    sums = ValueTable(table.points, np.sum(table.centers, axis=0)[None, :],
                      np.sum(table.widths, axis=0)[None, :])
    return sums, sums.centers[0] + sums.widths[0]


def _t_map(table: ValueTable, i: int, rate: float) -> np.ndarray:
    """T(u) without u: the grid points whose values plus the handicap
    [0, rate*||z - u||] weakly CW-dominate those at u = row i."""
    mask = dominated_by(table, i, np.full(table.centers.shape[0], rate), quasi=True, strict=False)
    mask[i] = False
    return mask


def _check_eps(earr: np.ndarray) -> None:
    if not float(np.sum(earr)) > 0:
        raise ValueError("eps must be nonzero")


def descent_eps_minimal(problem: MIOProblem, eps, spec: GridSpec,
                        start: Sequence[float] | None = None) -> tuple[np.ndarray, DescentTrace]:
    """Descend through A(u) = {z : sum F(z) + [0, sum eps] CW-dominates
    sum F(u)} until it empties; the endpoint is weak eps-minimal on the
    grid (per-objective domination implies sum domination).  The descent
    starts at ``start`` (a feasible grid point; by default the first one),
    which the trace's first iterate reports."""
    earr = as_epsilon(eps, problem.n_objectives)
    _check_eps(earr)
    table = _prepare(problem, spec)
    i, trace = _descent(table, earr, _start(table, start)[0])
    return table.points[i].copy(), trace


def _chain(table: ValueTable, merit: np.ndarray, i: int, step: Callable[[int], np.ndarray],
           reason: str, max_iters: int) -> tuple[int, DescentTrace]:
    """From row i, step to the least-merit row of the mask step(i) until
    the mask is empty, which the trace records as its reason; raise if it
    is still nonempty after max_iters masks."""
    trace = DescentTrace([table.points[i].copy()], [float(merit[i])])
    for _ in range(max_iters):
        cand = np.flatnonzero(step(i))
        if not cand.size:
            trace.reason = reason
            return i, trace
        i = int(cand[np.argmin(merit[cand])])
        trace.iterates.append(table.points[i].copy())
        trace.merits.append(float(merit[i]))
    raise DescentError("descent exceeded its guaranteed iteration bound")


def _descent(table: ValueTable, earr: np.ndarray, i: int) -> tuple[int, DescentTrace]:
    eps_sum = float(np.sum(earr))
    sums, merit = _summed(table)
    handicap = np.array([eps_sum])
    # each step drops sum F^w by more than eps_sum / 2
    max_iters = int(2.0 * sums.widths[0, i] / eps_sum) + 2
    i, trace = _chain(sums, merit, i, lambda j: dominated_by(sums, j, handicap), "A(u) empty",
                      max_iters)
    if np.any(dominated_by(table, i, earr)):
        raise DescentError("descent endpoint failed the grid eps-minimality check")
    return i, trace


def evp_descent(problem: MIOProblem, eps, spec: GridSpec,
                x0: Sequence[float] | None = None) -> tuple[np.ndarray, EvpCertificate]:
    """Ekeland-type iteration on the summed objective.

    Requires the premise that no grid point sum-dominates x0 with the
    handicap [0, sum eps]; returns a fixed point of the T-map with the
    (a)-(c) conclusions grid-verified.  The single-objective case uses the
    scalar bound sqrt(eps).  x0 is a feasible grid point, by default the
    first one.
    """
    earr = as_epsilon(eps, problem.n_objectives)
    _check_eps(earr)
    table = _prepare(problem, spec)
    _, cert = _evp(table, earr, *_start(table, x0))
    return cert.point, cert


def _evp(table: ValueTable, earr: np.ndarray, i0: int,
         x0: Sequence[float]) -> tuple[int, EvpCertificate]:
    eps_sum = float(np.sum(earr))
    rate = float(np.sum(np.sqrt(earr)))
    sums, merit = _summed(table)
    return _ekeland(sums, merit, i0, x0, np.array([eps_sum]), rate, eps_sum / rate,
                    "x0 violates the premise: some grid point sum-dominates it "
                    "(run descent_eps_minimal first)")


def _ekeland(table: ValueTable, merit: np.ndarray, i0: int, x0: Sequence[float],
             eps: np.ndarray, rate: float, b_bound: float,
             premise: str) -> tuple[int, EvpCertificate]:
    """The T-map descent from row i0 (the point x0), whose premise is that
    no row dominates it after the handicap eps: step to the least-merit
    point of T(u) until T(u) = {u}.  Any v != u in T(u) has strictly
    smaller merit, so no row repeats and the row count bounds the steps.
    The endpoint's (a) eps-minimality, (b) distance to x0 (at most
    b_bound) and (c) rate-quasi-minimality are checked on the table."""
    if np.any(dominated_by(table, i0, eps)):
        raise PremiseError(premise)
    i, trace = _chain(table, merit, i0, lambda j: _t_map(table, j, rate), "T(u) = {u}",
                      len(table.points))
    u_bar = table.points[i].copy()
    a_holds = not np.any(dominated_by(table, i, eps))
    c_holds = not np.any(dominated_by(table, i, np.full(eps.size, rate), quasi=True))
    return i, EvpCertificate(point=u_bar, a_holds=a_holds, b_value=float(distances(x0, u_bar)),
                             b_bound=b_bound, c_holds=c_holds, trace=trace)


def evp_descent_vector(problem: MIOProblem, epsilon: float, spec: GridSpec,
                       x0: Sequence[float] | None = None) -> tuple[np.ndarray, EvpCertificate]:
    """Componentwise Ekeland-type iteration (uniform epsilon).

    Premise: x0 is weak eps-minimal on the grid with eps = (epsilon,...).
    Returns u_bar with (a) grid eps-minimality, (b) ||x0 - u_bar|| <=
    sqrt(epsilon), (c) grid sqrt(epsilon)-quasi-minimality.  x0 defaults
    to the first feasible grid point.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be > 0")
    root = float(np.sqrt(epsilon))
    table = _prepare(problem, spec)
    _, merit = _summed(table)
    _, cert = _ekeland(table, merit, *_start(table, x0),
                       np.full(problem.n_objectives, float(epsilon)), root, root,
                       "x0 is not weak eps-minimal on the grid")
    return cert.point, cert


@dataclass
class QuasiExistenceReport:
    point: np.ndarray
    qm_verified: bool
    ball_check: bool | None   # Prop 2.1 ball check when eps is uniform
    descent_trace: DescentTrace
    evp_certificate: EvpCertificate


def quasi_existence(problem: MIOProblem, eps, spec: GridSpec) -> QuasiExistenceReport:
    """Run the descent chain then the Ekeland iteration; the result is
    grid-verified weak sqrt(eps)-quasi-minimal, with the extra ball
    check when eps is uniform."""
    earr = as_epsilon(eps, problem.n_objectives)
    _check_eps(earr)
    # one feasible grid and value table serve every stage
    table = _prepare(problem, spec)
    i0, d_trace = _descent(table, earr, 0)
    i, cert = _evp(table, earr, i0, table.points[i0])
    u_bar = cert.point

    qm_ok = not np.any(dominated_by(table, i, np.sqrt(earr), quasi=True))

    ball_check = None
    if np.all(earr == earr[0]) and earr[0] > 0:
        eps0 = float(earr[0])
        root = float(np.sqrt(eps0))
        in_ball = distances(table.points, u_bar) <= root
        ball_check = not np.any(dominated_by(table, i, np.full(len(earr), eps0)) & in_ball)
    return QuasiExistenceReport(point=u_bar, qm_verified=qm_ok, ball_check=ball_check,
                                descent_trace=d_trace, evp_certificate=cert)
