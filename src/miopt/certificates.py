"""KKT-type certificate machinery on one exact solver.

Every convex decision here is a least-distance program (LDP), and one
method answers them all: Lawson and Hanson's NNLS (Solving Least Squares
Problems, 1974, ch. 23), which ends after finitely many least-squares
solves, through their reduction of an LDP to one NNLS.

- KKT-type conditions and BCQ: whether some lam on the simplex and mu >= 0
  give ||sum lam_k x_k + sum mu_j z_j|| <= lam.b (b_k: objective k's
  radius), i.e. whether min ||z|| s.t. <g, z> >= b_k on objective k's
  generators g and <h, z> >= 0 on constraint generators h is >= 1.
- Generalized convexity: per sample, whether {Av <= b, ||v|| <= r} is
  feasible, i.e. whether the LDP min ||v|| s.t. Av <= b has ||v|| <= r.

Every verdict is checked apart from the solver.  A ``holds`` comes with
the multipliers or the direction that show it.  A ``fails`` comes with a
witness: for KKT, the unit vector y along the residual, with <g, y> > b_k
on objective k's generators and <h, y> >= 0 on the cone's, up to
rounding; for generalized convexity, a Farkas vector y >= 0 with
b.y + r ||A^T y|| < 0.  When neither check passes, the verdict is
``inconclusive``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .expr import Polytope, clarke_subdiff, eval_expr, eval_points, weak_gen_gradient
from .grid import GridSpec, feasible_grid, point_dominated, value_table
from .problem import (CertificateError, MIOProblem, PremiseError, active_set, as_epsilon,
                      distances, require_feasible, restrict_to_ball)

DEFAULT_BCQ_TAU = 1e-6
EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# The solver
# ---------------------------------------------------------------------------

def nnls(E: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, int]:
    """Lawson-Hanson NNLS: x >= 0 minimizing ||E x - f||, and the number
    of least-squares solves it took.

    The columns are scaled to unit norm first (x scales back), so the
    column that enters the passive set is the one most correlated with
    the residual, if positively; it is refused when its least-squares
    coefficient is not positive.  Every accepted step lowers the
    residual, so no passive set repeats and the loop ends; in floating
    point up to n steps in a row may leave it equal instead (a gain below
    its rounding that later steps can realize).  A^T (f - A x) rounds
    relative to ||f||: if its best entry is within that rounding of 0 and
    ||r|| above it, it is recomputed once from a basis of r's subspace,
    which rounds relative to ||r||.  A QR refit on the unscaled columns
    of the final support (not counted) ends the solve."""
    n = E.shape[1]
    norms = np.sqrt((E * E).sum(axis=0))
    norms[norms == 0.0] = 1.0
    A = E / norms
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    best = float(f @ f)
    rel = 10.0 * max(A.shape) * EPS
    tol = floor = rel * math.sqrt(best)
    dual = A.T @ f
    solves, recomputed, ties = 0, False, 0
    while True:
        dual[passive] = -np.inf
        t = int(dual.argmax())
        if not dual[t] > tol:
            if recomputed or not (dual[t] > -tol and passive.any() and math.sqrt(best) > floor):
                break
            q = np.linalg.qr(A[:, passive], mode="complete")[0][:, int(passive.sum()):]
            dual, tol, recomputed = A.T @ (q @ (q.T @ f)), rel * math.sqrt(best), True
            continue
        trial = passive.copy()
        trial[t] = True
        z = _least_squares(A, f, trial)
        solves += 1
        if not z[t] > 0.0:
            dual[t] = -np.inf   # refused until the next accepted step
            continue
        y = x
        while (z[trial] <= 0.0).any():
            # step from y towards z until the first passive coefficient hits 0
            blocked = (trial & (z <= 0.0)).nonzero()[0]
            ratios = y[blocked] / (y[blocked] - z[blocked])
            k = int(ratios.argmin())
            y = y + float(ratios[k]) * (z - y)
            y[blocked[k]] = 0.0
            trial &= y > 0.0
            z = _least_squares(A, f, trial)
            solves += 1
        r = f - A @ z
        rr = float(r @ r)
        ties = ties + 1 if rr == best else 0
        if not rr <= best or ties > n:
            break
        x, passive, best, dual = z, trial, rr, A.T @ r
        tol, recomputed = floor, False
    return _refit(E, f, x / norms), solves


def _least_squares(E: np.ndarray, f: np.ndarray, cols: np.ndarray) -> np.ndarray:
    z = np.zeros(E.shape[1])
    z[cols] = np.linalg.lstsq(E[:, cols], f, rcond=None)[0]
    return z


def _refit(E: np.ndarray, f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x, or the QR least-squares fit of f on the unscaled columns of E where
    x > 0 when that fit is finite, positive and closer to f.  On columns
    of very different scales the fit on scaled columns can stop short of
    the optimum of its own support by more than 1e-9."""
    support = x > 0.0
    q, r = np.linalg.qr(E[:, support])
    with np.errstate(all="ignore"):
        try:
            z = np.linalg.solve(r, q.T @ f)   # r is not square on a wide support
        except np.linalg.LinAlgError:
            return x
    if not (np.isfinite(z).all() and (z > 0.0).all()):
        return x
    y = np.zeros_like(x)
    y[support] = z
    return y if np.linalg.norm(E @ y - f) < np.linalg.norm(E @ x - f) else x


@dataclass
class MinNormResult:
    residual: float
    lam: np.ndarray               # simplex weights over objective polytopes
    mu: np.ndarray                # one nonnegative multiplier per constraint factor
    obj_witnesses: list           # one point per objective polytope
    con_witnesses: list           # one point per constraint polytope
    iterations: int               # least-squares solves of the NNLS
    mu_capped: bool
    point: np.ndarray             # sum_k lam_k x_k + sum_j mu_j z_j, of norm residual


def min_norm_over_multipliers(obj_polys: Sequence[Polytope], con_polys: Sequence[Polytope],
                              mu_max: float, b: Sequence[float] | None = None) -> MinNormResult:
    """Multipliers of y = sum_k lam_k x_k + sum_j mu_j z_j, with lam on the
    simplex, x_k in obj_polys[k], z_j in con_polys[j] and 0 <= mu_j <=
    mu_max (mu_max = inf for the cone), that meet ||y|| <= lam.b if any
    do; with equal b (the default), y is the point nearest the origin.

    It solves the LDP min ||z|| s.t. <g, z> >= b_k on the hull generators
    g of objective k and <h, z> >= 0 on the cone generators h as one NNLS
    with b / max(b) in its last row.  A finite cap makes each constraint
    factor the polytope mu_max * co({0} | Q_j): the hull generators are
    then every sum of an objective generator and one vertex per factor,
    and there is no cone."""
    if not obj_polys:
        raise CertificateError("need at least one objective polytope")
    if mu_max <= 0:
        raise CertificateError("mu_max must be > 0")
    dim = obj_polys[0].dim
    for p in list(obj_polys) + list(con_polys):
        if p.dim != dim:
            raise CertificateError("polytope dimensions do not match")

    obj = [np.array(p.generators, dtype=float) for p in obj_polys]
    con = [np.array(p.generators, dtype=float) for p in con_polys]
    gens = np.vstack(obj)
    rhs = np.repeat(np.ones(len(obj)) if b is None else b, [len(q) for q in obj])
    rhs = rhs / rhs.max() if rhs.max() > 0.0 else np.ones(len(gens))
    if math.isinf(mu_max):
        hull, cone = gens, np.vstack(con) if con else np.zeros((0, dim))
    else:
        # one hull generator per choice of objective generator and vertex per factor
        picks = np.array(list(itertools.product(range(len(gens)),
                                                *(range(len(q) + 1) for q in con))))
        hull, rhs = gens[picks[:, 0]], rhs[picks[:, 0]]
        for j, q in enumerate(con):
            hull = hull + np.vstack([np.zeros(dim), mu_max * q])[picks[:, j + 1]]
        cone = np.zeros((0, dim))
    e = np.vstack([np.hstack([hull.T, cone.T]), np.concatenate([rhs, np.zeros(len(cone))])])
    u, iters = nnls(e, np.eye(dim + 1)[dim])
    u /= u[:len(hull)].sum()
    if math.isinf(mu_max):
        lam_g, mu_g = u[:len(hull)], u[len(hull):]
    else:
        lam_g = np.bincount(picks[:, 0], u, len(gens))
        mu_g = np.concatenate([mu_max * np.bincount(picks[:, j + 1], u, len(q) + 1)[1:]
                               for j, q in enumerate(con)] + [np.zeros(0)])

    lam, obj_witnesses = _split(lam_g, obj)
    mu, con_witnesses = _split(mu_g, con)
    combo = sum(lk * w for lk, w in zip(lam, obj_witnesses))
    combo = combo + sum(mj * z for mj, z in zip(mu, con_witnesses))
    return MinNormResult(residual=float(np.linalg.norm(combo)), lam=lam, mu=mu,
                         obj_witnesses=obj_witnesses, con_witnesses=con_witnesses,
                         iterations=iters, mu_capped=bool((mu > mu_max * (1.0 - 1e-9)).any()),
                         point=combo)


def _split(weights: np.ndarray, parts: list) -> tuple[np.ndarray, list]:
    """Per-polytope multiplier (its generators' summed weight) and witness
    point (their weighted mean, or the first generator at weight 0), for
    weights listed polytope by polytope over the generator arrays parts."""
    totals, points, i = [], [], 0
    for q in parts:
        w = weights[i:i + len(q)]
        i += len(q)
        totals.append(float(w.sum()))
        points.append(w @ q / totals[-1] if totals[-1] > 0.0 else q[0])
    return np.array(totals), points


def hull_distance(polys: Sequence[Polytope]) -> float:
    """Distance from the origin to co(union of polys)."""
    return min_norm_over_multipliers(polys, [], mu_max=math.inf).residual


# ---------------------------------------------------------------------------
# Certificate reports
# ---------------------------------------------------------------------------

@dataclass
class CertificateReport:
    verdict: str                  # holds | fails | inconclusive
    residual: float
    lam: np.ndarray
    mu: np.ndarray                # length p, zero off the active set
    obj_witnesses: list
    con_witnesses: dict           # active index -> witness point
    exact: bool
    iterations: int
    threshold: float
    mu_capped: bool

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


def _subdiff_polys(problem: MIOProblem, u, con_indices):
    """Polytopes of every objective and of constraints con_indices at u, and if all are exact."""
    obj_polys = [weak_gen_gradient(f, u) for f in problem.objectives]
    con_polys = [clarke_subdiff(problem.constraints[j], u) for j in con_indices]
    exact = all(p.exact for p in obj_polys) and all(p.exact for p in con_polys)
    return obj_polys, con_polys, exact


def _report(problem: MIOProblem, res: MinNormResult, con_indices, verdict: str, exact: bool,
            threshold: float) -> CertificateReport:
    """Report of a min-norm solve whose multipliers mu sit on con_indices."""
    mu = np.zeros(problem.n_constraints)
    mu[list(con_indices)] = res.mu
    return CertificateReport(
        verdict=verdict, residual=res.residual, lam=res.lam, mu=mu,
        obj_witnesses=res.obj_witnesses, con_witnesses=dict(zip(con_indices, res.con_witnesses)),
        exact=exact, iterations=res.iterations, threshold=threshold,
        mu_capped=res.mu_capped)


def kkt_check(problem: MIOProblem, u_bar, radius: float = 0.0,
              cor41_eps=None) -> CertificateReport:
    """Membership of 0 in sum(lambda_k * dF_k) + sum(mu_j * dg_j) + r*B at
    a feasible point, with complementarity enforced structurally (mu is
    supported on the active set only) and no bound on mu.

    The radius r = radius + lambda.eps (eps = ``cor41_eps``, else 0)
    depends on the multipliers; one LDP with b_k = radius + eps_k +
    tau_solver picks them.  ``holds``: residual <= threshold = radius +
    lambda.eps + tau_solver at that lambda; ``fails``: exact
    subdifferentials and ``_separates``; else ``inconclusive``.
    """
    tol = problem.tolerances.tau_solver
    if not radius >= 0:
        raise CertificateError("radius must be >= 0")
    require_feasible(problem, u_bar)

    act = active_set(problem, u_bar)
    obj_polys, con_polys, exact = _subdiff_polys(problem, u_bar, act)
    earr = as_epsilon(0.0 if cor41_eps is None else cor41_eps, problem.n_objectives)
    b = radius + earr + tol
    res = min_norm_over_multipliers(obj_polys, con_polys, mu_max=math.inf, b=b)
    threshold = radius + float(np.dot(res.lam, earr)) + tol

    if res.residual <= threshold:
        verdict = "holds"
    elif exact and _separates(res.point / (res.residual or 1.0), obj_polys, con_polys, b, tol):
        verdict = "fails"
    else:
        # only a superset was refuted, or the residual's direction separates nothing
        verdict = "inconclusive"
    return _report(problem, res, act, verdict, exact, threshold)


def _separates(y, obj_polys, con_polys, b, tol: float) -> bool:
    """<g, y> > b_k on objective k's generators and <h, y> >= -tol ||h|| on the
    cone's: for ||y|| <= 1, every combination y' has ||y'|| >= <y', y> > lam.b."""
    gens = np.vstack([p.generators for p in obj_polys])
    cone = np.array([h for p in con_polys for h in p.generators]).reshape(-1, len(y))
    return bool((gens @ y > np.repeat(b, [len(p.generators) for p in obj_polys])).all()
                and (cone @ y >= -tol * np.linalg.norm(cone, axis=1)).all())


@dataclass
class BCQReport:
    holds: bool
    distance: float | None   # None when vacuous (no active constraints)
    active: tuple[int, ...]

    @property
    def vacuous(self) -> bool:
        return not self.active


def bcq_check(problem: MIOProblem, u) -> BCQReport:
    """Basic constraint qualification: after normalizing sum(mu) = 1, BCQ
    fails iff the origin lies in co(union of active-constraint
    subdifferentials).  Vacuously true with no active constraints."""
    require_feasible(problem, u)
    act = active_set(problem, u)
    if not act:
        return BCQReport(holds=True, distance=None, active=())
    polys = [clarke_subdiff(problem.constraints[j], u) for j in act]
    dist = hull_distance(polys)
    return BCQReport(holds=dist > DEFAULT_BCQ_TAU, distance=dist, active=act)


# ---------------------------------------------------------------------------
# eps-KKT searches
# ---------------------------------------------------------------------------

@dataclass
class SearchOutcome:
    verdict: str                  # holds | not-found-at-resolution
    point: np.ndarray | None
    report: CertificateReport | None
    points_scanned: int


def eps_kkt_thm_4_1(problem: MIOProblem, u_bar, eps, delta: float,
                    spec: GridSpec) -> SearchOutcome:
    """Search the ball grid around a weak eps-minimal point for x_delta
    whose KKT residual fits inside the radius (1/delta) * max(eps)."""
    earr = as_epsilon(eps, problem.n_objectives)
    if not np.any(earr > 0):
        raise ValueError("eps must be nonzero")
    if not delta > 0:
        raise ValueError("delta must be > 0")
    require_feasible(problem, u_bar)
    pts = feasible_grid(problem, spec)
    if point_dominated(problem, value_table(problem, pts), u_bar, earr):
        raise PremiseError("u_bar is not weak eps-minimal on the grid")
    ball = restrict_to_ball(pts, u_bar, delta)
    for z in ball:
        if not bcq_check(problem, z).holds:
            raise PremiseError(f"BCQ fails at grid point {z.tolist()} inside the ball")
    hit = _first_kkt_point(problem, ball, float(np.max(earr)) / delta)
    if hit is None:
        return SearchOutcome("not-found-at-resolution", None, None, len(ball))
    return SearchOutcome("holds", *hit, len(ball))


def _first_kkt_point(problem: MIOProblem, ball, radius: float):
    """(z, report) for the first point z of ball, in order, whose KKT
    check holds within radius; None when none does."""
    for z in ball:
        report = kkt_check(problem, z, radius=radius)
        if report.holds:
            return z, report
    return None


# ---------------------------------------------------------------------------
# Generalized convexity
# ---------------------------------------------------------------------------

@dataclass
class GenConvexReport:
    verdict: str                  # holds | fails | inconclusive
    samples_checked: int
    infeasible_samples: list = field(default_factory=list)
    stalled_samples: list = field(default_factory=list)   # neither witness checked out
    farkas: list = field(default_factory=list)   # one witness y per infeasible sample

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


def gen_convexity_check(problem: MIOProblem, u0, samples: Sequence) -> GenConvexReport:
    """Decide, for each sample u, whether a direction v exists with
    <w, v> <= F_k^c(u)-F_k^c(u0)+F_k^w(u)-F_k^w(u0) for every generator
    of the objective subdifferentials at u0, <z, v> <= g_j(u)-g_j(u0)
    for every constraint subdifferential generator, and ||v|| <= ||u-u0||
    (the unit-ball condition collapses to the norm bound).

    Written Av <= b, ||v|| <= r, a sample holds when the nearest v of
    the LDP min ||v|| s.t. Av <= b + tau_solver/2 meets Av <= b +
    tau_solver and ||v|| <= r + tau_solver (v = 0 where b >= -tau_solver,
    with no solve), and fails when the NNLS solution y is a Farkas
    witness, y >= 0 with b.y + r ||A^T y|| < 0, whose rows (y > 0) all
    come from exact polytopes; otherwise it is stalled.
    Values come from one value table, so an invalid interval at a sample
    or at u0 raises IntervalError."""
    tol = problem.tolerances.tau_solver
    require_feasible(problem, u0)
    u0_arr = np.asarray(u0, dtype=float)
    pts = np.asarray(samples, dtype=float).reshape(len(samples), problem.dim)

    polys = [weak_gen_gradient(f, u0_arr) for f in problem.objectives] + \
            [clarke_subdiff(g, u0_arr) for g in problem.constraints]
    a = np.array([g for p in polys for g in p.generators], dtype=float)
    owner = np.repeat(np.arange(len(polys)), [len(p.generators) for p in polys])
    # a superset's extra rows are no constraints of the true system
    exact_rows = np.array([p.exact for p in polys], dtype=bool)[owner]

    # column -1 is u0
    at = np.vstack([pts, u0_arr])
    table = value_table(problem, at)
    c, w = table.centers, table.widths
    g = np.array([eval_points(e, at) for e in problem.constraints]).reshape(-1, len(at))
    rhs = np.vstack([c[:, :-1] - c[:, -1:] + w[:, :-1] - w[:, -1:], g[:, :-1] - g[:, -1:]])
    b_rows = rhs[owner].T
    radii = distances(pts, u0_arr)

    report = GenConvexReport(verdict="holds", samples_checked=len(pts))
    f = np.eye(problem.dim + 1)[problem.dim]
    for i in np.flatnonzero(np.any(b_rows < -tol, axis=1)):
        b, r = b_rows[i], float(radii[i])
        # the LDP keeps half the slack, so its rounding fits in the rest
        y, _ = nnls(np.vstack([-a.T, -(b + tol / 2)]), f)
        aty = a.T @ y
        den = 1.0 + float((b + tol / 2) @ y)
        if den > 0.0:
            v = -aty / den
            if np.linalg.norm(v) <= r + tol and (a @ v <= b + tol).all():
                continue
        if ((y >= 0.0).all() and exact_rows[y > 0.0].all()
                and float(b @ y) + r * float(np.linalg.norm(aty)) < 0.0):
            report.infeasible_samples.append(pts[i].tolist())
            report.farkas.append(y)
        else:
            report.stalled_samples.append(pts[i].tolist())

    if report.infeasible_samples:
        report.verdict = "fails"
    elif report.stalled_samples:
        report.verdict = "inconclusive"
    return report


# ---------------------------------------------------------------------------
# Sufficiency pipeline (KKT + generalized convexity => quasi-minimal)
# ---------------------------------------------------------------------------

@dataclass
class SufficiencyReport:
    verdict: str                  # holds | hypothesis-failed | inconclusive
    kkt: CertificateReport | None
    gen_convex: GenConvexReport | None
    qm_confirmed: bool | None


def sufficiency_thm_4_3(problem: MIOProblem, u_bar, eps, spec: GridSpec) -> SufficiencyReport:
    """Check the multiplier condition (with eps-scaled ball slack) and
    generalized convexity at u_bar; when both hold, the point must be
    weak eps-quasi-minimal on the grid.  A grid counterexample at that
    stage is an implementation bug and raises."""
    earr = as_epsilon(eps, problem.n_objectives)
    if not np.any(earr > 0):
        raise ValueError("eps must be nonzero")
    require_feasible(problem, u_bar)

    # the grid every stage decides on; its table checks every interval first
    pts = feasible_grid(problem, spec)
    table = value_table(problem, pts)
    kkt = kkt_check(problem, u_bar, cor41_eps=earr)
    if not kkt.exact:
        return SufficiencyReport("inconclusive", None, None, None)
    # a hypothesis fails only where a stage certifies it: a separating
    # witness for the KKT check, a Farkas vector for generalized convexity
    gc = gen_convexity_check(problem, u_bar, pts) if kkt.holds else None
    stage = kkt if gc is None else gc
    if not stage.holds:
        verdict = "hypothesis-failed" if stage.verdict == "fails" else "inconclusive"
        return SufficiencyReport(verdict, kkt, gc, None)

    if point_dominated(problem, table, u_bar, earr, quasi=True):
        raise RuntimeError("sufficiency hypotheses hold but the grid refutes "
                           "quasi-minimality: implementation bug")
    return SufficiencyReport("holds", kkt, gc, True)


# ---------------------------------------------------------------------------
# Modified eps-KKT points
# ---------------------------------------------------------------------------

@dataclass
class ModKKTOutcome:
    verdict: str                  # holds | not-found-at-resolution
    point: np.ndarray | None
    report: CertificateReport | None
    complementarity_value: float | None   # sum(mu_j * g_j(x0))


def modified_eps_kkt(problem: MIOProblem, x0, epsilon: float, spec: GridSpec) -> ModKKTOutcome:
    """Search the sqrt(eps) ball around x0 for a point whose multiplier
    combination has norm <= sqrt(eps) while the same mu keeps
    sum(mu_j * g_j(x0)) >= -eps.  With eps = 0 this is exactly the KKT
    check at x0."""
    if not epsilon >= 0:
        raise ValueError("epsilon must be >= 0")
    tol = problem.tolerances.tau_solver
    require_feasible(problem, x0)
    x0_arr = np.asarray(x0, dtype=float)
    g_at_x0 = np.array([eval_expr(g, x0_arr) for g in problem.constraints])

    if epsilon == 0.0:
        report = kkt_check(problem, x0_arr)
        if report.holds:
            return ModKKTOutcome("holds", x0_arr, report, float(np.dot(report.mu, g_at_x0)))
        return ModKKTOutcome("not-found-at-resolution", None, report, None)

    root = float(np.sqrt(epsilon))
    candidates = restrict_to_ball(feasible_grid(problem, spec), x0_arr, root)
    all_j = tuple(range(problem.n_constraints))
    near_active = tuple(j for j in all_j if g_at_x0[j] >= -problem.tolerances.tau_act)
    # mu may sit on every constraint; after a sign miss at x0, retry on those
    # that cannot cause one (fewer constraints never lower the residual)
    subsets = (all_j,) if near_active == all_j else (all_j, near_active)
    for x in candidates:
        obj_polys, con_all, _ = _subdiff_polys(problem, x, all_j)
        for subset in subsets:
            con_polys = [con_all[j] for j in subset]
            res = min_norm_over_multipliers(obj_polys, con_polys, mu_max=math.inf)
            if res.residual > root + tol:
                break
            exact = all(p.exact for p in obj_polys) and all(p.exact for p in con_polys)
            report = _report(problem, res, subset, "holds", exact, root + tol)
            comp = float(np.dot(report.mu, g_at_x0))
            if comp >= -epsilon - tol:
                return ModKKTOutcome("holds", x, report, comp)
    return ModKKTOutcome("not-found-at-resolution", None, None, None)


# ---------------------------------------------------------------------------
# Approximate-KKT sequence verification
# ---------------------------------------------------------------------------

@dataclass
class SequenceEntry:
    i: int
    eps_i: float
    z_index: int | None
    z: np.ndarray | None
    y: np.ndarray | None
    residual: float | None
    ok: bool
    reason: str = ""


@dataclass
class SequenceReport:
    entries: list

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.entries)


def approx_kkt_sequence(problem: MIOProblem, u_bar, xs: Sequence, eps_seq: Sequence[float],
                        spec: GridSpec, inflate=None) -> SequenceReport:
    """Verify the approximate-KKT subsequence construction: pick z_i as
    the first tail point whose center/width gaps to u_bar fall below
    eps_i/2, then find y_i within sqrt(eps_i) of z_i whose multiplier
    residual is at most sqrt(eps_i) (widened by max(inflate) when the
    inflated-subdifferential mode is on).  The gaps come from one value
    table, so an invalid interval at any tail point raises IntervalError."""
    eps_arr = np.asarray(eps_seq, dtype=float)
    if not np.all(eps_arr > 0):
        raise ValueError("eps sequence entries must be > 0")
    require_feasible(problem, u_bar)
    xs_arr = [np.asarray(x, dtype=float) for x in xs]
    u_arr = np.asarray(u_bar, dtype=float)

    pts = feasible_grid(problem, spec)
    local_radius = float(np.max(distances(xs_arr, u_arr))) + float(np.sqrt(np.max(eps_arr)))
    local = restrict_to_ball(pts, u_arr, local_radius)
    if point_dominated(problem, value_table(problem, local), u_arr):
        raise PremiseError("u_bar is not locally weak minimal on the grid ball used")

    inflate_radius = 0.0 if inflate is None else \
        float(np.max(as_epsilon(inflate, problem.n_objectives)))

    # the tail points' centres and widths, and u_bar's in the last column
    seq = value_table(problem, xs_arr + [u_arr])
    gaps = np.maximum(np.abs(seq.centers[:, :-1] - seq.centers[:, -1:]),
                      np.abs(seq.widths[:, :-1] - seq.widths[:, -1:])).max(axis=0)
    entries = []
    start = 0
    for i, eps_i in enumerate(eps_arr):
        close = np.flatnonzero(gaps[start:] < eps_i / 2.0)
        if not close.size:
            entries.append(SequenceEntry(i, float(eps_i), None, None, None, None,
                                         False, "no tail point close enough"))
            continue
        start = z_index = start + int(close[0])
        z = xs_arr[z_index]
        root = float(np.sqrt(eps_i))
        hit = _first_kkt_point(problem, restrict_to_ball(pts, z, root), root + inflate_radius)
        if hit is None:
            entries.append(SequenceEntry(i, float(eps_i), z_index, z, None, None,
                                         False, "not-found-at-resolution"))
        else:
            entries.append(SequenceEntry(i, float(eps_i), z_index, z, hit[0],
                                         hit[1].residual, True))
    return SequenceReport(entries)
