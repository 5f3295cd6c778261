import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import nnls as scipy_nnls

import miopt
from miopt import (GridSpec, Polytope, approx_kkt_sequence, bcq_check, clarke_subdiff,
                   eps_kkt_thm_4_1, eval_expr, feasible_grid, gen_convexity_check,
                   hull_distance, kkt_check, min_norm_over_multipliers,
                   modified_eps_kkt, sufficiency_thm_4_3, weak_gen_gradient)
from miopt.certificates import CertificateError, PremiseError, nnls
from miopt.problem import active_set, feasible
from .conftest import make_problem

SPEC = GridSpec(401)


def poly1(*gens, exact=True):
    return Polytope(1, tuple((float(g),) for g in gens), exact)


# ---------------------------------------------------------------------------
# Min-norm solver
# ---------------------------------------------------------------------------

def test_min_norm_admits_half_half_multipliers():
    res = min_norm_over_multipliers([poly1(-1, 1), poly1(-2, 2)],
                                    [poly1(-1)], mu_max=1e3)
    assert res.residual <= 1e-8
    assert res.lam.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(res.mu >= 0)


def test_min_norm_segment_projection():
    seg = Polytope(2, ((1.0, 0.0), (0.0, 1.0)), True)
    res = min_norm_over_multipliers([seg], [], mu_max=1.0)
    assert res.residual == pytest.approx(np.sqrt(2) / 2, abs=1e-8)


def test_min_norm_origin_generator():
    res = min_norm_over_multipliers([poly1(3, 5), poly1(0, 7)], [], mu_max=1.0)
    assert res.residual <= 1e-8
    assert res.lam[1] == pytest.approx(1.0, abs=1e-6)


def test_min_norm_dimension_mismatch():
    with pytest.raises(CertificateError):
        min_norm_over_multipliers([poly1(1)], [Polytope(2, ((0.0, 0.0),), True)],
                                  mu_max=1.0)


def test_min_norm_residual_matches_witnesses():
    rng = np.random.default_rng(2)
    for _ in range(20):
        polys = [poly1(*rng.integers(-5, 6, size=rng.integers(1, 4)))
                 for _ in range(rng.integers(1, 4))]
        cons = [poly1(*rng.integers(-5, 6, size=rng.integers(1, 3)))
                for _ in range(rng.integers(0, 3))]
        res = min_norm_over_multipliers(polys, cons, mu_max=10.0)
        combo = sum(res.lam[k] * res.obj_witnesses[k] for k in range(len(polys)))
        combo = combo + sum(res.mu[j] * res.con_witnesses[j]
                            for j in range(len(cons)))
        assert np.linalg.norm(combo) == pytest.approx(res.residual, abs=1e-9)
        assert res.lam.sum() == pytest.approx(1.0, abs=1e-12)


def test_min_norm_matches_1d_enumeration():
    rng = np.random.default_rng(4)
    for _ in range(50):
        polys = [poly1(*rng.uniform(-4, 4, size=rng.integers(1, 5)))
                 for _ in range(rng.integers(1, 4))]
        res = min_norm_over_multipliers(polys, [], mu_max=1.0)
        gens = [g[0] for p in polys for g in p.generators]
        lo, hi = min(gens), max(gens)
        expected = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
        assert res.residual == pytest.approx(expected, abs=1e-8)


def test_min_norm_2d_hull_containing_the_origin():
    # 0 = ((-6, -3) + 3*(9, 1) + 21*(-1, 0)) / 25 lies inside the triangle; a
    # stopping rule on the squared gap left a residual of 9e-8 here
    tri = Polytope(2, ((-6.0, -3.0), (9.0, 1.0), (-1.0, 0.0)), True)
    assert hull_distance([tri]) <= 1e-12
    res = min_norm_over_multipliers([tri], [], mu_max=1e3)
    assert res.residual <= 1e-12
    assert res.obj_witnesses[0] == pytest.approx([0.0, 0.0], abs=1e-12)


def test_min_norm_cap_keeps_its_meaning():
    # 0 in co({1, 2}) + [0, cap] * co({0, -1e-4}) needs cap >= 1e4
    obj, con = [poly1(1, 2)], [poly1(-1e-4)]
    capped = min_norm_over_multipliers(obj, con, mu_max=1e3)
    assert capped.residual == pytest.approx(0.9, abs=1e-12)
    assert capped.mu_capped and capped.mu[0] == pytest.approx(1e3)
    cone = min_norm_over_multipliers(obj, con, mu_max=np.inf)
    assert cone.residual <= 1e-12 and not cone.mu_capped
    assert cone.mu[0] == pytest.approx(1e4, rel=1e-9)


def _dims_and_columns():
    return st.tuples(st.integers(1, 4), st.integers(1, 7))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_nnls_matches_scipy(data):
    m, n = data.draw(_dims_and_columns())
    e = data.draw(arrays(float, (m + 1, n), elements=st.floats(-5, 5, width=16)))
    f = data.draw(arrays(float, m + 1, elements=st.floats(-5, 5, width=16)))
    _assert_nnls_matches_scipy(e, f)


@pytest.mark.parametrize("last", [1.0, 0.75])
def test_nnls_matches_scipy_on_columns_of_very_different_scales(last):
    # draws of the test above: the fit on scaled columns left residuals of
    # 3.7e-9 and 2.1e-9 where scipy reaches 0
    tiny = 2.0 ** -24
    e = np.array([[0.0] * 5 + [-tiny], [-tiny] * 5 + [last]])
    _assert_nnls_matches_scipy(e, np.array([-1.0, -1.0]))


@pytest.mark.parametrize("e, f", [
    # a draw of the test above: column 4 alone leaves a residual of 1.6e-9,
    # and its correlation with the nearly parallel column 5 rounds to 0 when
    # computed from f - E x; scipy reaches 2e-25 through column 5
    ([[0.0, -0.81005859375, 0.1761474609375, 0.28955078125, 4.078125, 1.5791015625],
      [0.17041015625, 0.0, 3.86328125, 1.900390625, 5.960464477539063e-08, 0.0]],
     [0.1099853515625, 0.0]),
    # column 4 lowers ||r||^2 from 25 + 4e-15 to 25, so the bound relative
    # to ||r|| equals the one relative to ||f||: a solver that told the two
    # bounds apart by value recomputed the correlations forever
    ([[5.960464477539063e-08, 3.88671875, 2.701171875, 0.0, 0.0, 1.4912109375],
      [3.841796875, 5.0, -4.08203125, -4.53125, 5.960464477539063e-08, 0.8525390625]],
     [-5.0, 5.960464477539063e-08]),
    # the least-distance program of a KKT check whose second objective has
    # radius tau_solver alone: adding column 3 to column 1 gains 2e-17 in
    # ||r||^2, below its rounding, and only the steps after it reach the
    # optimum, 2.7e-9 lower in ||r||
    ([[0.0, 1.0, 0.0, 1.0], [-2.0, -1.0, -1.0, 1.0],
      [1.0, 1.0, 1e-8 / (1 + 1e-8), 1e-8 / (1 + 1e-8)]],
     [0.0, 0.0, 1.0]),
])
def test_nnls_matches_scipy_where_rounding_hides_the_optimum(e, f):
    _assert_nnls_matches_scipy(np.array(e), np.array(f))


def _assert_nnls_matches_scipy(e, f):
    x, _ = nnls(e, f)
    _, ref_norm = scipy_nnls(e, f)
    assert np.all(x >= 0.0)
    assert np.linalg.norm(e @ x - f) == pytest.approx(ref_norm, abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_min_norm_residual_matches_scipy_nnls(data):
    dim, n_obj = data.draw(_dims_and_columns())
    n_con = data.draw(st.integers(0, 3))
    gens = data.draw(arrays(float, (n_obj + n_con, dim), elements=st.floats(-5, 5, width=16)))
    obj = [Polytope(dim, tuple(map(tuple, gens[:n_obj])), True)]
    con = [Polytope(dim, (tuple(g),), True) for g in gens[n_obj:]]
    res = min_norm_over_multipliers(obj, con, mu_max=np.inf)
    # the same least-distance program on scipy's solver
    e = np.zeros((dim + 1, len(gens)))
    e[:dim] = gens.T
    e[dim, :n_obj] = 1.0
    u, _ = scipy_nnls(e, np.eye(dim + 1)[dim])
    ref = float(np.linalg.norm(e[:dim] @ u)) / float(np.sum(u[:n_obj]))
    assert res.residual == pytest.approx(ref, abs=1e-9)
    assert res.lam.sum() == pytest.approx(1.0, abs=1e-12) and np.all(res.mu >= 0.0)
    _assert_nearest_point(res, obj, con)


def _assert_nearest_point(res, obj, con, tol=1e-9):
    """The combination y of res's multipliers and witnesses is the point of
    co(obj) + cone(con) nearest the origin: <g, y> >= ||y||^2 on every
    objective generator g and <h, y> >= 0 on every cone generator h, up
    to rounding."""
    y = sum(lk * np.asarray(w) for lk, w in zip(res.lam, res.obj_witnesses))
    y = y + sum(mj * np.asarray(z) for mj, z in zip(res.mu, res.con_witnesses))
    ny = float(np.linalg.norm(y))
    assert ny == pytest.approx(res.residual, abs=1e-9)
    for g in (g for p in obj for g in p.generators):
        assert np.dot(g, y) >= ny * ny - tol * (1.0 + np.linalg.norm(g))
    for h in (h for p in con for h in p.generators):
        assert np.dot(h, y) >= -tol * np.linalg.norm(h)


# ---------------------------------------------------------------------------
# KKT / BCQ
# ---------------------------------------------------------------------------

def test_kkt_holds_at_abs_minimum(abs_problem):
    report = kkt_check(abs_problem, [0.0])
    assert report.holds
    assert report.residual <= 1e-9
    assert report.exact
    assert report.mu[1] == 0.0  # inactive constraint gets no multiplier


def test_kkt_unconstrained_stationary(quad_problem):
    report = kkt_check(quad_problem, [0.0])
    assert report.holds and report.residual <= 1e-12


def test_kkt_fails_off_minimum(quad_problem):
    report = kkt_check(quad_problem, [0.5])
    assert report.verdict == "fails"
    assert report.residual == pytest.approx(1.0, abs=1e-8)


def test_kkt_radius_slack(quad_problem):
    assert kkt_check(quad_problem, [0.5], radius=1.0).holds
    assert not kkt_check(quad_problem, [0.5], radius=0.5).holds


def test_kkt_infeasible_point_rejected(abs_problem):
    with pytest.raises(CertificateError):
        kkt_check(abs_problem, [-1.0])


def test_kkt_inexact_downgrades_fails():
    # min + abs in a sum makes the center polytope a strict superset at 0;
    # all its generators stay positive, so a refutation is unsafe
    lower = "min(u0, 2*u0) + abs(u0) + 10*u0"
    prob = make_problem(1, [(lower, lower + " + u0 + 1")], [], [-0.5], [1])
    report = kkt_check(prob, [0.0])
    assert not report.exact
    assert report.residual > 0.1
    assert report.verdict == "inconclusive"


MU_CAP = make_problem(1, [("u0", "3*u0+2")], ["-0.0001*u0"], [-1], [1])


def test_kkt_needs_no_multiplier_cap():
    # 0 = 1 + mu * (-1e-4) needs mu = 1e4, ten times the old default cap of 1e3
    report = kkt_check(MU_CAP, [0.0])
    assert report.holds and report.residual <= 1e-12
    assert report.mu[0] == pytest.approx(1e4, rel=1e-9)
    assert not report.mu_capped
    # the report echoes no tolerances: threshold carries the ones that decide it
    assert not hasattr(report, "tolerances")


def test_every_kkt_fails_carries_a_separating_witness():
    """The unit vector y along a ``fails`` report's own combination of
    multipliers and witnesses has <g, y> > b_k on every generator g of
    objective k, b_k = radius + eps_k + tau_solver, and <h, y> >= 0 up to
    rounding on every generator h of an active constraint, with the
    generators rebuilt from the calculus: no multipliers reach the
    threshold."""
    rng = np.random.default_rng(31)
    problems = [
        make_problem(1, [("u0^2", "3*u0^2")], [], [-1], [1]),
        make_problem(1, [("abs(u0)", "abs(u0)+1"), ("2*abs(u0)", "2*abs(u0)+2")],
                     ["-u0", "-u0-1"], [-2], [2]),
        make_problem(2, [("u0^2+abs(u1)", "2*u0^2+abs(u1)+1"), ("abs(u0-u1)", "abs(u0-u1)+1")],
                     ["u0+u1-1", "-u0"], [-1, -1], [1, 1]),
    ]
    failed = 0
    for prob in problems:
        for z in feasible_grid(prob, GridSpec(9)):
            for radius, eps in ((0.0, None), (float(rng.uniform(0, 0.5)), None),
                                (0.0, rng.uniform(0, 0.5, size=prob.n_objectives))):
                report = kkt_check(prob, z, radius=radius, cor41_eps=eps)
                if report.verdict != "fails":
                    continue
                failed += 1
                act = active_set(prob, z)
                y = sum(lk * np.asarray(w) for lk, w in zip(report.lam, report.obj_witnesses))
                y = y + sum(report.mu[j] * np.asarray(report.con_witnesses[j]) for j in act)
                assert np.linalg.norm(y) == pytest.approx(report.residual, abs=1e-9)
                y = y / report.residual
                b = radius + (0.0 if eps is None else eps) + prob.tolerances.tau_solver
                for k, f in enumerate(prob.objectives):
                    for g in weak_gen_gradient(f, z).generators:
                        assert np.dot(g, y) > np.broadcast_to(b, prob.n_objectives)[k]
                for j in act:
                    for h in clarke_subdiff(prob.constraints[j], z).generators:
                        assert np.dot(h, y) >= -1e-8 * np.linalg.norm(h)
    assert failed > 10


# objectives [u0, 3*u0] and [2*u0, 6*u0]: their generators are {2, 1} and
# {4, 2}, so lam = (1, 0) gives the nearest point, 1, and lam = (0, 1) gives 2
TWO_SLOPES = make_problem(1, [("u0", "3*u0"), ("2*u0", "6*u0")], [], [0], [1])


def test_cor41_radius_is_decided_over_every_lambda():
    # the residual 1 of the nearest point misses its radius 0, but lam = (0, 1)
    # brings residual 2 under the radius 5
    report = kkt_check(TWO_SLOPES, [0.5], cor41_eps=[0.0, 5.0])
    assert report.holds
    assert report.lam == pytest.approx([0.0, 1.0], abs=1e-12)
    assert report.residual == pytest.approx(2.0, abs=1e-12)
    assert report.threshold == pytest.approx(5.0 + 1e-8, abs=1e-12)
    # residual 2 - lam_0 against radius 0.5 (1 - lam_0): no lam reaches it
    assert kkt_check(TWO_SLOPES, [0.5], cor41_eps=[0.0, 0.5]).verdict == "fails"


def test_sufficiency_takes_the_lambda_that_meets_its_radius():
    rep = sufficiency_thm_4_3(TWO_SLOPES, [0.0], [0.0, 5.0], SPEC)
    assert rep.verdict == "holds"
    assert rep.kkt.lam == pytest.approx([0.0, 1.0], abs=1e-12)


def _segment_objective(p, q):
    """An interval objective whose weak generalized gradient is {p, q}
    everywhere: centre p.u and width q.u + sum|q|, which is >= 0 on
    [0, 1]^n."""
    centre = " + ".join(f"{c}*u{i}" for i, c in enumerate(p))
    width = " + ".join(f"{c}*u{i}" for i, c in enumerate(q)) + f" + {sum(map(abs, q))}"
    return f"({centre}) - ({width})", f"({centre}) + ({width})"


def _scan_minimum(polys, cone, eps, steps=501):
    """min over lam = (t, 1 - t) of dist(0, t P_0 + (1 - t) P_1 + cone(H))
    - lam.eps, each distance from scipy's NNLS."""
    dim = len(polys[0][0])
    h = np.array(cone, dtype=float).reshape(-1, dim)
    best = np.inf
    for t in np.linspace(0.0, 1.0, steps):
        gens = np.array([t * np.asarray(a) + (1 - t) * np.asarray(c)
                         for a in polys[0] for c in polys[1]])
        e = np.zeros((dim + 1, len(gens) + len(h)))
        e[:dim] = np.vstack([gens, h]).T
        e[dim, :len(gens)] = 1.0
        u, _ = scipy_nnls(e, np.eye(dim + 1)[dim])
        dist = float(np.linalg.norm(e[:dim] @ u)) / float(np.sum(u[:len(gens)]))
        best = min(best, dist - t * eps[0] - (1 - t) * eps[1])
    return best


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kkt_verdict_matches_a_lambda_scan(data):
    # two objectives, some eps_k = 0, a cone in some draws: the verdict must
    # agree with a fine scan of lam, up to the scan's resolution
    dim = data.draw(st.integers(1, 2))
    coord = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    polys = [data.draw(st.lists(coord, min_size=2, max_size=2)) for _ in range(2)]
    cone = data.draw(st.lists(coord, max_size=2))
    eps = data.draw(st.lists(st.sampled_from([0.0, 1.0, 3.0]), min_size=2, max_size=2))
    u = [0.5] * dim
    prob = make_problem(dim, [_segment_objective(*pq) for pq in polys],
                        [" + ".join(f"{c}*(u{i}-0.5)" for i, c in enumerate(h)) for h in cone],
                        [0.0] * dim, [1.0] * dim)
    report = kkt_check(prob, u, cor41_eps=eps)
    scan = _scan_minimum(polys, cone, eps)
    tau, band = prob.tolerances.tau_solver, 2e-2   # above the 501-step scan's error
    if report.verdict == "holds":
        assert scan <= tau + band
    elif report.verdict == "fails":
        assert scan > tau - 1e-9
    else:
        assert abs(scan - tau) <= band
    if scan < tau - band:
        assert report.holds


def test_bcq_examples(abs_problem):
    rep = bcq_check(abs_problem, [0.0])
    assert rep.holds and rep.distance == pytest.approx(1.0, abs=1e-8)
    assert rep.active == (0,)

    degenerate = make_problem(1, [("u0", "u0")], ["u0*u0"], [-1], [1])
    rep = bcq_check(degenerate, [0.0])
    assert not rep.holds

    interior = bcq_check(abs_problem, [1.0])
    assert interior.holds and interior.vacuous and interior.distance is None


def test_bcq_agrees_with_simplex_scan():
    rng = np.random.default_rng(9)
    for _ in range(25):
        # active constraints: a*u0 (gradient {a}) or c*abs(u0) ([-c, c])
        cons = []
        gens = []
        for _ in range(rng.integers(1, 4)):
            if rng.random() < 0.5:
                a = int(rng.integers(1, 6)) * (1 if rng.random() < 0.5 else -1)
                cons.append(f"{a}*u0")
                gens.append((a, a))
            else:
                c = int(rng.integers(1, 6))
                cons.append(f"{c}*abs(u0)")
                gens.append((-c, c))
        prob = make_problem(1, [("u0", "u0")], cons, [-1], [1])
        verdict = bcq_check(prob, [0.0]).holds
        # brute force over a 0.01-spaced multiplier simplex; with integer
        # generators the true hull distance is 0 or >= 1, while the scan
        # minimum is at most spacing * sum|gens| <= 0.15 when it is 0
        weights = np.linspace(0, 1, 101)
        if len(gens) == 1:
            simplex = [(1.0,)]
        elif len(gens) == 2:
            simplex = [(w, 1 - w) for w in weights]
        else:
            simplex = [(w1, w2, 1 - w1 - w2) for w1 in weights
                       for w2 in weights if w1 + w2 <= 1]
        scan_min = np.inf
        for mu in simplex:
            lo = sum(m * g[0] for m, g in zip(mu, gens))
            hi = sum(m * g[1] for m, g in zip(mu, gens))
            d = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
            scan_min = min(scan_min, d)
        assert verdict == (scan_min > 0.15)


def test_hull_distance():
    assert hull_distance([poly1(-1, 1)]) <= 1e-8
    assert hull_distance([poly1(2, 3)]) == pytest.approx(2.0, abs=1e-8)


# ---------------------------------------------------------------------------
# eps-KKT ball search
# ---------------------------------------------------------------------------

def test_eps_kkt_abs_problem(abs_problem):
    out = eps_kkt_thm_4_1(abs_problem, [0.0], [0.25, 0.25], 0.5, SPEC)
    assert out.verdict == "holds"
    assert out.point[0] == 0.0
    assert out.report.residual <= 0.5 + 1e-8


def test_eps_kkt_quad(quad_problem):
    out = eps_kkt_thm_4_1(quad_problem, [0.0], 0.1, 0.4, SPEC)
    assert out.verdict == "holds"
    assert abs(out.point[0]) <= 0.4
    assert out.report.residual <= 0.25 + 1e-8


def test_eps_kkt_premise_enforced(quad_problem):
    with pytest.raises(PremiseError):
        eps_kkt_thm_4_1(quad_problem, [1.0], 0.1, 0.4, SPEC)


# ---------------------------------------------------------------------------
# Generalized convexity
# ---------------------------------------------------------------------------

def test_gen_convexity_holds_on_convexity_problem(convexity_problem):
    samples = feasible_grid(convexity_problem, SPEC)
    rep = gen_convexity_check(convexity_problem, [0.0], samples)
    assert rep.holds
    assert rep.samples_checked == len(samples)
    assert not rep.infeasible_samples


def test_gen_convexity_same_point_sample(convexity_problem):
    rep = gen_convexity_check(convexity_problem, [0.0], [[0.0]])
    assert rep.holds


def test_gen_convexity_fails_on_concave_center():
    prob = make_problem(1, [("-u0^2", "-u0^2+1")], [], [-2], [2])
    rep = gen_convexity_check(prob, [0.0], [[1.0]])
    assert rep.verdict == "fails"
    assert rep.infeasible_samples == [[1.0]]


def test_gen_convexity_2d_path():
    prob = make_problem(2, [("u0^2+u1^2", "3*u0^2+3*u1^2")], [], [-1, -1], [1, 1])
    rep = gen_convexity_check(prob, [0.0, 0.0],
                              [[0.5, 0.5], [1.0, -1.0], [0.0, 0.25]])
    assert rep.holds


def test_gen_convexity_decides_a_thin_feasible_system():
    # at u = (1.5, -2) the rows a_j.v <= a_j.u of the four linear
    # constraints leave only v = u in the ball ||v|| <= ||u||; 4000 steps
    # of projected subgradient stopped short of it and reported fails
    cons = [(4, -2), (4, 1), (-4, -5), (3, 4)]
    prob = make_problem(2, [("0", "1")], [f"{a}*u0+{b}*u1" for a, b in cons], [-2, -2], [2, 2])
    u = np.array([1.5, -2.0])
    rep = gen_convexity_check(prob, [0.0, 0.0], [u])
    assert rep.verdict == "holds"
    for a in cons:
        assert np.dot(a, u) <= eval_expr(prob.constraints[cons.index(a)], u)


def test_every_gen_convexity_fails_carries_a_farkas_witness():
    concave = make_problem(1, [("-u0^2", "-u0^2+1")], [], [-2], [2])
    # at u = -0.5 the rows 4v <= -3.75 and 2v <= -3.75 need |v| >= 1.875 > 0.5
    steep = make_problem(1, [("2*u0-u0^2", "6*u0-3*u0^2+6")], [], [-1], [1])
    mixed = make_problem(2, [("u0^2-abs(u1)", "u0^2-abs(u1)+1"), ("-u0", "-u0+u1^2+0.1")],
                         ["u0+u1-1.5"], [-1, -1], [1, 1])
    for prob, u0, samples in ((concave, [0.0], feasible_grid(concave, GridSpec(9))),
                              (steep, [0.0], [[-0.5]]),
                              (mixed, [0.25, 0.0], feasible_grid(mixed, GridSpec(9)))):
        rep = gen_convexity_check(prob, u0, samples)
        assert rep.verdict == "fails"
        assert len(rep.farkas) == len(rep.infeasible_samples) > 0
        # rows rebuilt with the scalar evaluators, apart from the check
        rows = [(g, k) for k, f in enumerate(prob.objectives)
                for g in weak_gen_gradient(f, u0).generators]
        rows += [(g, prob.n_objectives + j) for j, e in enumerate(prob.constraints)
                 for g in clarke_subdiff(e, u0).generators]
        a = np.array([g for g, _ in rows])

        def value(i, u):
            if i < prob.n_objectives:
                f = prob.objectives[i]
                return f.center(u) + f.halfwidth(u)
            return eval_expr(prob.constraints[i - prob.n_objectives], u)

        for u, y in zip(rep.infeasible_samples, rep.farkas):
            b = np.array([value(i, u) - value(i, u0) for _, i in rows])
            r = float(np.linalg.norm(np.subtract(u, u0)))
            assert np.all(y >= 0.0)
            assert float(b @ y) + r * float(np.linalg.norm(a.T @ y)) < 0.0


def test_gen_convexity_refutes_nothing_with_a_superset():
    # the objective equals -0.5*u0, but its generators at 0 are the
    # superset {-0.5, 1.5, -2.5, 0} of the exact {-0.5, 0}: rows of a
    # superset refute nothing, while the exact rows give the same
    # refutation a witness
    f = "-0.5*u0 + abs(u0) - 0.5*abs(2*u0)"
    prob = make_problem(1, [(f, f)], [], [-1], [1])
    assert not weak_gen_gradient(prob.objectives[0], [0.0]).exact
    rep = gen_convexity_check(prob, [0.0], feasible_grid(prob, GridSpec(5)))
    assert rep.verdict == "inconclusive"
    assert rep.infeasible_samples == [] and [1.0] in rep.stalled_samples
    linear = make_problem(1, [("-0.5*u0", "-0.5*u0")], [], [-1], [1])
    assert gen_convexity_check(linear, [0.0], feasible_grid(linear, GridSpec(5))).verdict == "fails"


def test_a_verdict_needs_its_own_witness(monkeypatch):
    # solver answers that prove nothing: the first column alone, or zero
    def first_column(e, f):
        x = np.zeros(e.shape[1])
        x[0] = 1.0
        return x, 1

    monkeypatch.setattr(miopt.certificates, "nnls", first_column)
    # 0 is in co{-1, 0, 1}, but the nearest point -1 of the answer does
    # not separate 0 from that hull
    prob = make_problem(1, [("abs(u0)", "abs(u0)+1")], [], [-1], [1])
    assert kkt_check(prob, [0.0]).verdict == "inconclusive"
    monkeypatch.setattr(miopt.certificates, "nnls", lambda e, f: (np.zeros(e.shape[1]), 0))
    rep = gen_convexity_check(prob, [0.5], [[0.0]])
    assert rep.verdict == "inconclusive" and rep.stalled_samples == [[0.0]]
    monkeypatch.undo()
    assert kkt_check(prob, [0.0]).verdict == "holds"
    assert gen_convexity_check(prob, [0.5], [[0.0]]).verdict == "fails"


# ---------------------------------------------------------------------------
# Sufficiency
# ---------------------------------------------------------------------------

def test_sufficiency_holds(convexity_problem):
    rep = sufficiency_thm_4_3(convexity_problem, [0.0], [0.1, 0.1], SPEC)
    assert rep.verdict == "holds"
    assert rep.qm_confirmed


def test_sufficiency_quad_with_constraint():
    prob = make_problem(1, [("u0^2", "3*u0^2")], ["-u0"], [-1], [1])
    rep = sufficiency_thm_4_3(prob, [0.0], 0.5, SPEC)
    assert rep.verdict == "holds"


def test_sufficiency_hypothesis_failed(quad_problem):
    rep = sufficiency_thm_4_3(quad_problem, [0.5], 0.001, SPEC)
    assert rep.verdict == "hypothesis-failed"


INEXACT = ("min(u0, -u0) + abs(u0) + u0^2", "min(u0, -u0) + abs(u0) + u0^2 + 1")


def test_sufficiency_inexact_is_inconclusive():
    prob = make_problem(1, [INEXACT], [], [-1], [1])
    rep = sufficiency_thm_4_3(prob, [0.0], 0.1, GridSpec(101))
    assert rep.verdict == "inconclusive"


def test_sufficiency_infeasible_point_raises_even_when_inexact():
    prob = make_problem(1, [INEXACT], ["0.5-u0"], [-1], [1])
    with pytest.raises(CertificateError, match="infeasible"):
        sufficiency_thm_4_3(prob, [0.0], 0.1, GridSpec(101))


def test_sufficiency_builds_each_subdifferential_twice(monkeypatch, convexity_problem):
    calls = []
    real = miopt.certificates.weak_gen_gradient

    def counted(f, u):
        calls.append(f)
        return real(f, u)

    monkeypatch.setattr(miopt.certificates, "weak_gen_gradient", counted)
    assert sufficiency_thm_4_3(convexity_problem, [0.0], [0.1, 0.1], SPEC).verdict == "holds"
    # once for the multiplier condition, once for generalized convexity
    assert len(calls) == 2 * convexity_problem.n_objectives == 4


def test_tolerances_come_only_from_the_problem():
    removed = {
        kkt_check: ("mu_max", "tau_solver"),
        eps_kkt_thm_4_1: ("mu_max",), sufficiency_thm_4_3: ("mu_max",),
        modified_eps_kkt: ("mu_max",), approx_kkt_sequence: ("mu_max", "tau_solver"),
        gen_convexity_check: ("tau_solver",), feasible: ("tau_feas",), active_set: ("tau_act",),
        bcq_check: ("tau",), hull_distance: ("tol",), min_norm_over_multipliers: ("max_iter",),
    }
    for fn, names in removed.items():
        assert not set(names) & set(inspect.signature(fn).parameters), fn.__name__
    assert miopt.certificates.DEFAULT_BCQ_TAU == 1e-6


# ---------------------------------------------------------------------------
# Modified eps-KKT
# ---------------------------------------------------------------------------

def test_modkkt_constructive_case():
    prob = make_problem(1, [("u0^2", "3*u0^2")], ["-u0"], [-1], [1])
    out = modified_eps_kkt(prob, [0.1], 0.04, SPEC)
    assert out.verdict == "holds"
    assert abs(out.point[0]) <= 0.2 + 1e-12
    assert out.report.residual <= 0.2 + 1e-8
    assert out.complementarity_value >= -0.04 - 1e-8


def test_modkkt_zero_eps_reduces_to_kkt():
    prob = make_problem(1, [("u0^2", "3*u0^2")], ["-u0"], [-1], [1])
    out = modified_eps_kkt(prob, [0.0], 0.0, SPEC)
    assert out.verdict == "holds"
    assert out.point[0] == 0.0


def test_modkkt_not_found_at_resolution():
    prob = make_problem(1, [("u0^2", "3*u0^2")], ["-u0"], [-1], [1])
    out = modified_eps_kkt(prob, [0.5], 0.0025, SPEC)
    assert out.verdict == "not-found-at-resolution"
    assert out.point is None


def test_modkkt_zero_eps_agrees_with_kkt_on_random_points(quad_problem):
    rng = np.random.default_rng(21)
    pts = feasible_grid(quad_problem, SPEC)
    for _ in range(20):
        u = pts[int(rng.integers(0, len(pts)))]
        kkt = kkt_check(quad_problem, u)
        mod = modified_eps_kkt(quad_problem, u, 0.0, SPEC)
        assert kkt.holds == (mod.verdict == "holds")


# ---------------------------------------------------------------------------
# Approximate-KKT sequences
# ---------------------------------------------------------------------------

def test_sequence_on_abs_problem(abs_problem):
    xs = [[1.0 / i] for i in range(1, 401)]
    eps_seq = [1.0 / i**2 for i in range(1, 6)]
    rep = approx_kkt_sequence(abs_problem, [0.0], xs, eps_seq, SPEC)
    assert rep.all_ok
    for e in rep.entries:
        assert np.linalg.norm(e.z - e.y) <= np.sqrt(e.eps_i)
        assert e.residual <= np.sqrt(e.eps_i) + 1e-8
    # chosen indices are nondecreasing (subsequence construction)
    idx = [e.z_index for e in rep.entries]
    assert idx == sorted(idx)


def test_sequence_degenerate_constant(abs_problem):
    xs = [[0.0]] * 5
    rep = approx_kkt_sequence(abs_problem, [0.0], xs, [0.04, 0.01], SPEC)
    assert rep.all_ok
    for e in rep.entries:
        assert e.z[0] == 0.0


def test_sequence_inflation_widens_acceptance(abs_problem):
    xs = [[1.0 / i] for i in range(1, 401)]
    eps_seq = [1.0 / i**2 for i in range(1, 6)]
    base = approx_kkt_sequence(abs_problem, [0.0], xs, eps_seq, SPEC)
    inflated = approx_kkt_sequence(abs_problem, [0.0], xs, eps_seq, SPEC,
                                   inflate=[0.1, 0.1])
    for b, f in zip(base.entries, inflated.entries):
        if b.ok:
            assert f.ok


def test_sequence_picks_the_tail_points_of_the_scalar_evaluators(abs_problem):
    # z_i is the first tail point from z_(i-1) on whose centre and width
    # gaps to u_bar are all below eps_i / 2, as the scalar evaluators give them
    rng = np.random.default_rng(5)
    fs = abs_problem.objectives
    for _ in range(5):
        xs = [[float(x)] for x in rng.uniform(-0.2, 1.0, size=12)]
        eps_seq = sorted(rng.uniform(0.01, 1.0, size=4), reverse=True)
        rep = approx_kkt_sequence(abs_problem, [0.0], xs, eps_seq, GridSpec(41))
        start = 0
        for e, eps_i in zip(rep.entries, eps_seq):
            close = [idx for idx in range(start, len(xs))
                     if all(abs(f.center(xs[idx]) - f.center([0.0])) < eps_i / 2
                            and abs(f.halfwidth(xs[idx]) - f.halfwidth([0.0])) < eps_i / 2
                            for f in fs)]
            assert e.z_index == (close[0] if close else None)
            start = close[0] if close else start


def test_sequence_premise_enforced(quad_problem):
    with pytest.raises(PremiseError):
        approx_kkt_sequence(quad_problem, [0.5], [[0.5]], [0.01], SPEC)
