"""KKT-type certificate machinery.

Membership conditions of the form 0 in sum(lambda_k * P_k) + sum(mu_j *
Q_j) + r*B are decided by a min-norm computation over the equivalent
convex body co(union P_k) + sum_j {t*v : t in [0, mu_max], v in Q_j}:
the ball term is never materialized, it is radius slack on the residual
(0 in C + r*B iff dist(0, C) <= r).

The solver is a pairwise conditional-gradient method with exact line
search; its linear-minimization oracle is plain generator enumeration,
and atom weights are kept so multipliers and witness subgradients can
be read back out of the final iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .expr import Polytope, clarke_subdiff, eval_expr, weak_gen_gradient
from .grid import GridSpec, feasible_grid, point_dominated, value_table
from .problem import (CertificateError, MIOProblem, PremiseError, active_set, as_epsilon,
                      distances, feasible, restrict_to_ball)

MAX_SOLVER_ITERS = 10**5
DEFAULT_BCQ_TAU = 1e-6


# ---------------------------------------------------------------------------
# Min-norm solver
# ---------------------------------------------------------------------------

@dataclass
class MinNormResult:
    residual: float
    lam: np.ndarray               # simplex weights over objective polytopes
    mu: np.ndarray                # one nonnegative multiplier per constraint factor
    obj_witnesses: list           # one point per objective polytope
    con_witnesses: list           # one point per constraint polytope
    iterations: int
    gap: float
    mu_capped: bool


def min_norm_over_multipliers(obj_polys: Sequence[Polytope], con_polys: Sequence[Polytope],
                              mu_max: float, tol: float = 1e-8) -> MinNormResult:
    """Approximately minimize ||x + sum_j t_j v_j|| with x in
    co(union of obj_polys), t_j in [0, mu_max], v_j in con_polys[j]."""
    if not obj_polys:
        raise CertificateError("need at least one objective polytope")
    if mu_max <= 0:
        raise CertificateError("mu_max must be > 0")
    dim = obj_polys[0].dim
    for p in list(obj_polys) + list(con_polys):
        if p.dim != dim:
            raise CertificateError("polytope dimensions do not match")

    # tagged union of objective generators
    v0 = [(k, np.asarray(g, dtype=float))
          for k, p in enumerate(obj_polys) for g in p.generators]
    # each constraint factor: {0} union mu_max * generators
    factors = [[np.zeros(dim)] + [mu_max * np.asarray(g, dtype=float) for g in p.generators]
               for p in con_polys]

    v0_vecs = [g for _, g in v0]

    def atom_vec(key):
        i0, choices = key
        v = v0_vecs[i0].copy()
        for j, c in enumerate(choices):
            if c:
                v += factors[j][c]
        return v

    start = (0, tuple(0 for _ in factors))
    weights: dict = {start: 1.0}
    vecs = {start: atom_vec(start)}

    gap = float("inf")
    it = 0
    for it in range(1, MAX_SOLVER_ITERS + 1):
        y = sum(w * vecs[a] for a, w in weights.items())
        # FW atom: per-factor linear minimization
        i0 = min(range(len(v0_vecs)), key=lambda i: float(np.dot(v0_vecs[i], y)))
        choices = []
        for j, ch in enumerate(factors):
            best = min(range(len(ch)), key=lambda c: float(np.dot(ch[c], y)))
            choices.append(best)
        s_key = (i0, tuple(choices))
        if s_key not in vecs:
            vecs[s_key] = atom_vec(s_key)
        s_vec = vecs[s_key]
        gap = float(np.dot(y, y - s_vec))
        if gap <= tol:
            break
        # away atom: worst active atom in the gradient direction
        v_key = max(weights, key=lambda a: float(np.dot(vecs[a], y)))
        d = s_vec - vecs[v_key]
        dd = float(np.dot(d, d))
        if dd == 0.0:
            break
        gamma = min(max(-float(np.dot(y, d)) / dd, 0.0), weights[v_key])
        if gamma == 0.0:
            break
        weights[s_key] = weights.get(s_key, 0.0) + gamma
        weights[v_key] -= gamma
        if weights[v_key] <= 1e-15:
            del weights[v_key]

    total = sum(weights.values())
    weights = {a: w / total for a, w in weights.items()}

    m = len(obj_polys)
    p = len(con_polys)
    lam = np.zeros(m)
    obj_parts = [np.zeros(dim) for _ in range(m)]
    mu = np.zeros(p)
    con_parts = [np.zeros(dim) for _ in range(p)]
    for (i0, choices), w in weights.items():
        k = v0[i0][0]
        lam[k] += w
        obj_parts[k] += w * v0_vecs[i0]
        for j, c in enumerate(choices):
            if c:
                mu[j] += w * mu_max
                con_parts[j] += w * factors[j][c]

    obj_witnesses = []
    for k in range(m):
        if lam[k] > 0:
            obj_witnesses.append(obj_parts[k] / lam[k])
        else:
            obj_witnesses.append(np.asarray(obj_polys[k].generators[0], dtype=float))
    con_witnesses = []
    for j in range(p):
        if mu[j] > 0:
            con_witnesses.append(con_parts[j] / mu[j])
        else:
            con_witnesses.append(np.asarray(con_polys[j].generators[0], dtype=float))

    combo = sum(lam[k] * obj_witnesses[k] for k in range(m)) + \
        sum(mu[j] * con_witnesses[j] for j in range(p))
    residual = float(np.linalg.norm(combo))
    mu_capped = bool(np.any(mu > mu_max * (1.0 - 1e-9)))
    return MinNormResult(residual=residual, lam=lam, mu=mu,
                         obj_witnesses=obj_witnesses, con_witnesses=con_witnesses,
                         iterations=it, gap=gap, mu_capped=mu_capped)


def hull_distance(polys: Sequence[Polytope]) -> float:
    """Distance from the origin to co(union of polys)."""
    return min_norm_over_multipliers(polys, [], mu_max=1.0).residual


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
    gap: float
    threshold: float
    mu_capped: bool
    tolerances: dict = field(default_factory=dict)

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
            threshold: float, tolerances: dict) -> CertificateReport:
    """Report of a min-norm solve whose multipliers mu sit on con_indices."""
    mu = np.zeros(problem.n_constraints)
    mu[list(con_indices)] = res.mu
    return CertificateReport(
        verdict=verdict, residual=res.residual, lam=res.lam, mu=mu,
        obj_witnesses=res.obj_witnesses, con_witnesses=dict(zip(con_indices, res.con_witnesses)),
        exact=exact, iterations=res.iterations, gap=res.gap, threshold=threshold,
        mu_capped=res.mu_capped, tolerances=tolerances)


def kkt_check(problem: MIOProblem, u_bar, radius: float = 0.0,
              cor41_eps=None) -> CertificateReport:
    """Membership of 0 in sum(lambda_k * dF_k) + sum(mu_j * dg_j) + r*B at
    a feasible point, with complementarity enforced structurally (mu is
    supported on the active set only).

    With ``cor41_eps`` the radius is multiplier-dependent: the residual
    must come in under sum(lambda_k * eps_k) for the recovered lambda.
    """
    tol = problem.tolerances.tau_solver
    cap = problem.tolerances.mu_max
    if radius < 0:
        raise CertificateError("radius must be >= 0")
    if not feasible(problem, u_bar):
        raise CertificateError(f"point {list(np.asarray(u_bar, dtype=float))} is infeasible")

    act = active_set(problem, u_bar)
    obj_polys, con_polys, exact = _subdiff_polys(problem, u_bar, act)
    res = min_norm_over_multipliers(obj_polys, con_polys, mu_max=cap, tol=tol)

    allowance = radius
    if cor41_eps is not None:
        earr = as_epsilon(cor41_eps, problem.n_objectives)
        allowance = radius + float(np.dot(res.lam, earr))
    threshold = allowance + tol

    verdict = "holds" if res.residual <= threshold else "fails"
    if verdict == "fails" and not exact:
        # only a superset was refuted; the true set may still contain 0
        verdict = "inconclusive"
    return _report(problem, res, act, verdict, exact, threshold,
                   {"tau_solver": tol, "mu_max": cap, "radius": radius})


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
    if not feasible(problem, u):
        raise CertificateError(f"point {list(np.asarray(u, dtype=float))} is infeasible")
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
    if delta <= 0:
        raise ValueError("delta must be > 0")
    pts = feasible_grid(problem, spec)
    if point_dominated(problem, value_table(problem, pts), u_bar, earr):
        raise PremiseError("u_bar is not weak eps-minimal on the grid")
    ball = restrict_to_ball(pts, u_bar, delta)
    for z in ball:
        bcq = bcq_check(problem, z)
        if not bcq.holds:
            raise PremiseError(f"BCQ fails at grid point {z.tolist()} inside the ball")
    radius = float(np.max(earr)) / delta
    for z in ball:
        report = kkt_check(problem, z, radius=radius)
        if report.holds:
            return SearchOutcome("holds", z, report, len(ball))
    return SearchOutcome("not-found-at-resolution", None, None, len(ball))


# ---------------------------------------------------------------------------
# Generalized convexity
# ---------------------------------------------------------------------------

@dataclass
class GenConvexReport:
    verdict: str                  # holds | fails | inconclusive
    samples_checked: int
    infeasible_samples: list = field(default_factory=list)
    stalled_samples: list = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


def _feasible_direction_1d(rows: list[tuple[float, float]], radius: float, tol: float) -> bool:
    lo, hi = -radius, radius
    for a, b in rows:
        if a > 1e-15:
            hi = min(hi, b / a)
        elif a < -1e-15:
            lo = max(lo, b / a)
        elif b < -tol:
            return False
    return lo <= hi + tol


def _feasible_direction_nd(rows_a: np.ndarray, rows_b: np.ndarray, radius: float,
                           tol: float, iters: int = 4000) -> str:
    """Projected subgradient on the max constraint violation over the
    ball ||v|| <= radius; returns holds/fails/inconclusive."""
    v = np.zeros(rows_a.shape[1])
    best = float("inf")
    for _ in range(iters):
        viol = rows_a @ v - rows_b
        i = int(np.argmax(viol))
        phi = float(viol[i])
        best = min(best, phi)
        if best <= tol:
            return "holds"
        g = rows_a[i]
        gg = float(np.dot(g, g))
        if gg == 0.0:
            break
        v = v - (phi / gg) * g
        nv = float(np.linalg.norm(v))
        if nv > radius:
            v = v * (radius / nv) if radius > 0 else np.zeros_like(v)
    if best <= tol:
        return "holds"
    return "fails" if best > 1e-3 else "inconclusive"


def gen_convexity_check(problem: MIOProblem, u0, samples: Sequence) -> GenConvexReport:
    """Decide, for each sample u, whether a direction v exists with
    <w, v> <= F_k^c(u)-F_k^c(u0)+F_k^w(u)-F_k^w(u0) for every generator
    of the objective subdifferentials at u0, <z, v> <= g_j(u)-g_j(u0)
    for every constraint subdifferential generator, and ||v|| <= ||u-u0||
    (the unit-ball condition collapses to the norm bound)."""
    tol = problem.tolerances.tau_solver
    if not feasible(problem, u0):
        raise CertificateError("u0 must be feasible")
    u0_arr = np.asarray(u0, dtype=float)
    n = problem.dim

    obj_rows = []   # (generator, objective index)
    for k, f in enumerate(problem.objectives):
        poly = weak_gen_gradient(f, u0_arr)
        for g in poly.generators:
            obj_rows.append((np.asarray(g, dtype=float), k))
    con_rows = []
    for j, g_expr in enumerate(problem.constraints):
        poly = clarke_subdiff(g_expr, u0_arr)
        for g in poly.generators:
            con_rows.append((np.asarray(g, dtype=float), j))

    f0 = [(f.center(u0_arr), f.halfwidth(u0_arr)) for f in problem.objectives]
    g0 = [eval_expr(g, u0_arr) for g in problem.constraints]

    report = GenConvexReport(verdict="holds", samples_checked=0)
    for u in samples:
        u_arr = np.asarray(u, dtype=float)
        report.samples_checked += 1
        radius = float(distances(u_arr, u0_arr))
        rhs_obj = [problem.objectives[k].center(u_arr) - f0[k][0]
                   + problem.objectives[k].halfwidth(u_arr) - f0[k][1]
                   for k in range(problem.n_objectives)]
        rhs_con = [eval_expr(problem.constraints[j], u_arr) - g0[j]
                   for j in range(problem.n_constraints)]
        rows = [(vec, rhs_obj[k]) for vec, k in obj_rows] + \
               [(vec, rhs_con[j]) for vec, j in con_rows]
        if n == 1:
            ok = _feasible_direction_1d([(float(vec[0]), b) for vec, b in rows], radius, tol)
            status = "holds" if ok else "fails"
        else:
            a = np.array([vec for vec, _ in rows])
            b = np.array([bb for _, bb in rows])
            status = _feasible_direction_nd(a, b, radius, tol)
        if status == "fails":
            report.infeasible_samples.append(u_arr.tolist())
        elif status == "inconclusive":
            report.stalled_samples.append(u_arr.tolist())

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

    kkt = kkt_check(problem, u_bar, cor41_eps=earr)
    if not kkt.exact:
        return SufficiencyReport("inconclusive", None, None, None)
    if not kkt.holds:
        return SufficiencyReport("hypothesis-failed", kkt, None, None)
    pts = feasible_grid(problem, spec)
    gc = gen_convexity_check(problem, u_bar, pts)
    if not gc.holds:
        verdict = "inconclusive" if gc.verdict == "inconclusive" else "hypothesis-failed"
        return SufficiencyReport(verdict, kkt, gc, None)

    if point_dominated(problem, value_table(problem, pts), u_bar, earr, quasi=True):
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
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    cap = problem.tolerances.mu_max
    tol = problem.tolerances.tau_solver
    if not feasible(problem, x0):
        raise CertificateError("x0 must be feasible")
    x0_arr = np.asarray(x0, dtype=float)

    if epsilon == 0.0:
        report = kkt_check(problem, x0_arr)
        comp = float(np.dot(report.mu, [eval_expr(g, x0_arr) for g in problem.constraints]))
        if report.holds:
            return ModKKTOutcome("holds", x0_arr, report, comp)
        return ModKKTOutcome("not-found-at-resolution", None, report, None)

    root = float(np.sqrt(epsilon))
    g_at_x0 = np.array([eval_expr(g, x0_arr) for g in problem.constraints])
    candidates = restrict_to_ball(feasible_grid(problem, spec), x0_arr, root)
    all_j = tuple(range(problem.n_constraints))
    near_active = tuple(j for j in all_j if g_at_x0[j] >= -problem.tolerances.tau_act)
    scanned = 0
    for x in candidates:
        scanned += 1
        # the definition allows multipliers on every constraint; if the
        # unrestricted solve breaks the sign condition at x0, retry with
        # mu confined to constraints that cannot break it
        for subset in (all_j, near_active):
            obj_polys, con_polys, exact = _subdiff_polys(problem, x, subset)
            res = min_norm_over_multipliers(obj_polys, con_polys, mu_max=cap, tol=tol)
            if res.residual > root + tol:
                continue
            report = _report(problem, res, subset, "holds", exact, root + tol,
                             {"tau_solver": tol, "mu_max": cap, "epsilon": epsilon})
            comp = float(np.dot(report.mu, g_at_x0))
            if comp < -epsilon - tol:
                continue
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
    inflated-subdifferential mode is on)."""
    eps_arr = np.asarray(eps_seq, dtype=float)
    if np.any(eps_arr <= 0):
        raise ValueError("eps sequence entries must be > 0")
    xs_arr = [np.asarray(x, dtype=float) for x in xs]
    u_arr = np.asarray(u_bar, dtype=float)

    pts = feasible_grid(problem, spec)
    local_radius = float(np.max(distances(xs_arr, u_arr))) + float(np.sqrt(np.max(eps_arr)))
    local = restrict_to_ball(pts, u_arr, local_radius)
    if point_dominated(problem, value_table(problem, local), u_arr):
        raise PremiseError("u_bar is not locally weak minimal on the grid ball used")

    inflate_radius = 0.0
    if inflate is not None:
        inflate_radius = float(np.max(as_epsilon(inflate, problem.n_objectives)))

    cw_bar = [(f.center(u_arr), f.halfwidth(u_arr)) for f in problem.objectives]
    entries = []
    start = 0
    for i, eps_i in enumerate(eps_arr):
        z_index = None
        for idx in range(start, len(xs_arr)):
            x = xs_arr[idx]
            close = all(abs(f.center(x) - cw_bar[k][0]) < eps_i / 2.0
                        and abs(f.halfwidth(x) - cw_bar[k][1]) < eps_i / 2.0
                        for k, f in enumerate(problem.objectives))
            if close:
                z_index = idx
                break
        if z_index is None:
            entries.append(SequenceEntry(i, float(eps_i), None, None, None, None,
                                         False, "no tail point close enough"))
            continue
        start = z_index
        z = xs_arr[z_index]
        root = float(np.sqrt(eps_i))
        found = None
        for y in restrict_to_ball(pts, z, root):
            report = kkt_check(problem, y, radius=root + inflate_radius)
            if report.holds:
                found = (y, report.residual)
                break
        if found is None:
            entries.append(SequenceEntry(i, float(eps_i), z_index, z, None, None,
                                         False, "not-found-at-resolution"))
        else:
            entries.append(SequenceEntry(i, float(eps_i), z_index, z, found[0],
                                         found[1], True))
    return SequenceReport(entries)
