"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line so the
whole gate can be read off the terminal at a glance.
"""

import numpy as np
import pytest

from miopt import (GridSpec, Interval, add, bcq_check, check_prop_2_1,
                   clarke_subdiff, cw_leq, cw_lt, descent_eps_minimal,
                   eval_expr, evp_descent, evp_descent_vector, feasible,
                   feasible_grid, find_deviation, game_kkt, gh_diff,
                   hausdorff, is_w_eps_ne, is_w_eps_ne_direct, is_w_eps_qne,
                   is_w_eps_qne_direct, is_weak_eps_minimal,
                   is_weak_eps_quasi_minimal, is_weak_minimal, kkt_check,
                   min_norm_over_multipliers, modified_eps_kkt, norm,
                   scalar_mul, weak_gen_gradient)
from miopt.certificates import approx_kkt_sequence, gen_convexity_check
from miopt.expr import Polytope
from .conftest import make_problem

SPEC = GridSpec(401)


def _gate(capsys, label, body):
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"criterion {label}: FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {label}: pass")


def abs_pair_problem():
    return make_problem(
        1,
        [("abs(u0)", "abs(u0)+1"), ("2*abs(u0)", "2*abs(u0)+2")],
        ["-u0", "-u0-1"],
        [-2.0], [2.0])


def quad_problem_():
    return make_problem(1, [("u0^2", "3*u0^2")], [], [-1.0], [1.0])


def _dyadic(rng):
    return float(rng.integers(-256, 257)) / 16.0


def _rand_interval(rng):
    a, b = sorted((_dyadic(rng), _dyadic(rng)))
    return Interval(a, b)


# 1 -------------------------------------------------------------------------

def test_criterion_1_worked_example_kkt(capsys):
    def body():
        prob = abs_pair_problem()
        u = [0.0]
        report = kkt_check(prob, u)
        assert report.holds and report.residual <= 1e-9

        p1 = weak_gen_gradient(prob.objectives[0], u)
        p2 = weak_gen_gradient(prob.objectives[1], u)
        g1 = clarke_subdiff(prob.constraints[0], u)
        assert set(p1.hull_vertices()) == {(-1.0,), (1.0,)}
        assert set(p2.hull_vertices()) == {(-2.0,), (2.0,)}
        assert set(g1.hull_vertices()) == {(-1.0,)}
        assert p1.exact and p2.exact and g1.exact

        # the specific pair lambda=(1/2,1/2), mu=(1/2,0) is admissible:
        # 0 sits in (1/2)P1 + (1/2)P2 + (1/2){-1}
        sums = [0.5 * a[0] + 0.5 * b[0] + 0.5 * c[0]
                for a in p1.generators for b in p2.generators
                for c in g1.generators]
        residual = max(min(sums), -max(sums), 0.0)
        assert residual <= 1e-12

        bcq = bcq_check(prob, u)
        assert bcq.holds
    _gate(capsys, "1 (worked example: kkt/bcq/subdifferentials)", body)


# 2 -------------------------------------------------------------------------

def test_criterion_2_gen_convexity_example(capsys):
    def body():
        prob = make_problem(
            1,
            [("abs(u0)", "abs(u0)+1"), ("2*abs(u0)", "2*abs(u0)+1")],
            ["-u0"],
            [-2.0], [2.0])
        u0 = np.array([0.0])
        samples = feasible_grid(prob, SPEC)
        rep = gen_convexity_check(prob, u0, samples)
        assert rep.verdict == "holds"
        assert rep.infeasible_samples == []

        # the explicit witness direction v = u works at random samples
        rng = np.random.default_rng(2)
        obj_polys = [weak_gen_gradient(f, u0) for f in prob.objectives]
        con_polys = [clarke_subdiff(g, u0) for g in prob.constraints]
        for _ in range(10):
            u = np.array([rng.uniform(0.0, 2.0)])
            v = u - u0
            for k, poly in enumerate(obj_polys):
                rhs = (prob.objectives[k].center(u) - prob.objectives[k].center(u0)
                       + prob.objectives[k].halfwidth(u)
                       - prob.objectives[k].halfwidth(u0))
                assert poly.support(v) <= rhs + 1e-9
            for j, poly in enumerate(con_polys):
                rhs = eval_expr(prob.constraints[j], u) - \
                    eval_expr(prob.constraints[j], u0)
                assert poly.support(v) <= rhs + 1e-9
            assert np.linalg.norm(v) <= np.linalg.norm(u - u0) + 1e-12
    _gate(capsys, "2 (generalized convexity example with witness v=u)", body)


# 3 -------------------------------------------------------------------------

def test_criterion_3_interval_order_axioms(capsys):
    def body():
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            q, r, s = (_rand_interval(rng) for _ in range(3))
            alpha = abs(_dyadic(rng))

            # partial order
            assert cw_leq(q, q)
            if cw_leq(q, r) and cw_leq(r, q):
                assert q == r
            if cw_leq(q, r) and cw_leq(r, s):
                assert cw_leq(q, s)
            # translation invariance, both orders
            assert cw_leq(q, r) == cw_leq(add(q, s), add(r, s))
            assert cw_lt(q, r) == cw_lt(add(q, s), add(r, s))
            # addition compatibility
            if cw_leq(q, r) and cw_leq(s, r):
                assert cw_leq(add(q, s), add(r, r))
            if cw_lt(q, r) and cw_lt(s, r):
                assert cw_lt(add(q, s), add(r, r))
            # nonnegative scaling
            if cw_leq(q, r):
                assert cw_leq(scalar_mul(alpha, q), scalar_mul(alpha, r))

            # metric axioms and the norm identity
            assert hausdorff(q, q) == 0.0
            assert hausdorff(q, r) >= 0.0
            assert hausdorff(q, r) == hausdorff(r, q)
            assert (hausdorff(q, r) == 0.0) == (q == r)
            assert hausdorff(q, s) <= hausdorff(q, r) + hausdorff(r, s)
            assert norm(gh_diff(q, r)) == hausdorff(q, r)
    _gate(capsys, "3 (interval order and metric axioms, 10^4 dyadic triples)", body)


# 4 -------------------------------------------------------------------------

def _discretized_hausdorff(q, r, n=4001):
    qs = np.linspace(q.lo, q.hi, n)
    rs = np.linspace(r.lo, r.hi, n)
    d_qr = max(np.min(np.abs(rs - x)) for x in qs)
    d_rq = max(np.min(np.abs(qs - x)) for x in rs)
    return max(d_qr, d_rq)


def test_criterion_4_hausdorff_oracle(capsys):
    def body():
        rng = np.random.default_rng(4)
        for _ in range(1000):
            a, b = sorted(rng.uniform(-4, 4, size=2))
            c, d = sorted(rng.uniform(-4, 4, size=2))
            q, r = Interval(a, b), Interval(c, d)
            assert abs(hausdorff(q, r) - _discretized_hausdorff(q, r, 801)) <= 2e-3
    _gate(capsys, "4 (Hausdorff closed form vs discretized oracle)", body)


# 5 -------------------------------------------------------------------------

def test_criterion_5_quasi_implies_ball_eps_minimal(capsys):
    def body():
        for prob in (abs_pair_problem(), quad_problem_()):
            for eps0 in (0.01, 0.25):
                rep = check_prop_2_1(prob, eps0, SPEC)
                assert rep.ok
                assert rep.violations == []
                assert rep.checked > 0
    _gate(capsys, "5 (quasi-minimal => ball eps-minimal, zero violations)", body)


# 6 -------------------------------------------------------------------------

def test_criterion_6_descent_existence(capsys):
    def body():
        prob = quad_problem_()
        pts = feasible_grid(prob, SPEC)
        rng = np.random.default_rng(6)
        for _ in range(10):
            start = pts[int(rng.integers(len(pts)))]
            point, trace = descent_eps_minimal(prob, 0.5, SPEC, start)
            width_sum = 2 * sum(f.halfwidth(start) for f in prob.objectives)
            assert len(trace.iterates) - 1 <= 2 * width_sum / 0.5 + 1
            assert is_weak_eps_minimal(prob, point, 0.5, pts)
    _gate(capsys, "6 (descent terminates within bound, endpoint verified)", body)


# 7 -------------------------------------------------------------------------

def test_criterion_7_evp(capsys):
    def body():
        for prob in (abs_pair_problem(), quad_problem_()):
            m = prob.n_objectives
            for eps in (0.04, 0.25):
                earr = [eps] * m
                x0, _ = descent_eps_minimal(prob, earr, SPEC,
                                            feasible_grid(prob, SPEC)[0])
                u_bar, cert = evp_descent(prob, earr, SPEC, x0)
                assert cert.a_holds and cert.c_holds
                bound = (m * eps) / (m * np.sqrt(eps))
                assert cert.b_value <= bound + 1e-12
                assert np.linalg.norm(np.asarray(x0) - u_bar) <= bound + 1e-12

        # m = 1 reduction: the componentwise variant agrees with the
        # multiobjective path on a single-objective problem
        prob = quad_problem_()
        for eps in (0.04, 0.25):
            x0, _ = descent_eps_minimal(prob, [eps], SPEC,
                                        feasible_grid(prob, SPEC)[0])
            u1, c1 = evp_descent(prob, [eps], SPEC, x0)
            u2, c2 = evp_descent_vector(prob, eps, SPEC, x0)
            assert np.array_equal(u1, u2)
            assert c1.all_hold and c2.all_hold
    _gate(capsys, "7 (variational-principle certificates and m=1 reduction)", body)


# 8 -------------------------------------------------------------------------

def test_criterion_8_approx_kkt_sequence(capsys):
    def body():
        prob = abs_pair_problem()
        u_bar = [0.0]
        xs = [[1.0 / i] for i in range(1, 1701)]
        eps_seq = [1.0 / i ** 2 for i in range(1, 21)]

        base = approx_kkt_sequence(prob, u_bar, xs, eps_seq, SPEC)
        assert base.all_ok
        for entry in base.entries:
            root = np.sqrt(entry.eps_i)
            assert np.linalg.norm(entry.z - entry.y) <= root
            assert entry.residual <= root + 1e-8

        inflated = approx_kkt_sequence(prob, u_bar, xs, eps_seq, SPEC,
                                       inflate=(0.1, 0.1))
        for b, f in zip(base.entries, inflated.entries):
            if b.ok:
                assert f.ok
    _gate(capsys, "8 (approximate-KKT sequence with inflation mode)", body)


# 9 -------------------------------------------------------------------------

def _interval_of_factor(gens, cap):
    lo, hi = min(gens), max(gens)
    return min(0.0, cap * lo), max(0.0, cap * hi)


def test_criterion_9_solver_cross_check(capsys):
    def body():
        rng = np.random.default_rng(9)
        for _ in range(100):
            m = int(rng.integers(1, 4))
            p = int(rng.integers(0, 3))
            cap = float(rng.uniform(0.5, 5.0))
            obj = [Polytope(1, tuple((float(g),) for g in
                                     rng.uniform(-3, 3, size=rng.integers(1, 4))),
                            True) for _ in range(m)]
            con = [Polytope(1, tuple((float(g),) for g in
                                     rng.uniform(-3, 3, size=rng.integers(1, 4))),
                            True) for _ in range(p)]
            res = min_norm_over_multipliers(obj, con, mu_max=cap)
            # endpoint enumeration: the achievable set is one interval
            lo = min(g[0] for q in obj for g in q.generators)
            hi = max(g[0] for q in obj for g in q.generators)
            for q in con:
                flo, fhi = _interval_of_factor([g[0] for g in q.generators], cap)
                lo, hi = lo + flo, hi + fhi
            expected = max(lo, -hi, 0.0)
            assert abs(res.residual - expected) <= 1e-8

        # bcq_check vs a brute-force scan over simplex weights
        for _ in range(50):
            p = int(rng.integers(2, 5))
            slopes = [float(rng.integers(-3, 4)) or 1.0 for _ in range(p)]
            prob = make_problem(1, [("u0^2", "3*u0^2")],
                                [f"{a}*u0" for a in slopes], [-1.0], [1.0])
            rep = bcq_check(prob, [0.0])
            exact = max(min(slopes), -max(slopes), 0.0)
            assert abs(rep.distance - exact) <= 1e-8
            weights = _simplex_grid(p, np.linspace(0, 1, 101))
            scan_min = float(np.min(np.abs(weights @ np.asarray(slopes))))
            # integer slopes: the true distance is 0 or >= 1, so a 0.01
            # simplex mesh separates the two cases with a wide margin
            assert rep.holds == (scan_min > 0.5)
    _gate(capsys, "9 (min-norm vs enumeration; bcq vs simplex scan)", body)


def _simplex_grid(p, grid):
    if p == 1:
        return np.ones((1, 1))
    rest = _simplex_grid(p - 1, grid)
    blocks = [np.hstack([np.full((len(rest), 1), t), (1 - t) * rest])
              for t in grid]
    return np.vstack(blocks)


# 10 ------------------------------------------------------------------------

def test_criterion_10_game_suite(capsys, quad_game):
    def body():
        assert is_w_eps_ne(quad_game, [0.5, 0.5], 0.1)
        assert is_w_eps_qne(quad_game, [0.5, 0.5], 0.1)

        outcomes = game_kkt(quad_game, [0.5, 0.5], 0.1, mode="thm_5_2")
        assert all(o.report.holds and o.report.residual <= 1e-8
                   for o in outcomes)

        assert not is_w_eps_ne(quad_game, [0.0, 1.0], 0.01)
        deviations = [find_deviation(quad_game, i, [0.0, 1.0], 0.01)
                      for i in range(2)]
        assert any(d is not None for d in deviations)

        rng = np.random.default_rng(10)
        for _ in range(20):
            profile = rng.uniform(0, 1, size=2)
            eps = float(rng.choice([0.0, 0.01, 0.1, 1.0]))
            assert is_w_eps_ne(quad_game, profile, eps) == \
                is_w_eps_ne_direct(quad_game, profile, eps)
            assert is_w_eps_qne(quad_game, profile, eps) == \
                is_w_eps_qne_direct(quad_game, profile, eps)
    _gate(capsys, "10 (game equilibria, per-player kkt, deviation, two paths)", body)


# 11 ------------------------------------------------------------------------

def test_criterion_11_zero_eps_collapse(capsys):
    def body():
        rng = np.random.default_rng(11)
        for prob in (abs_pair_problem(), quad_problem_()):
            pts = feasible_grid(prob, SPEC)
            lo, hi = prob.box_lo[0], prob.box_hi[0]
            done = 0
            while done < 50:
                u = [float(rng.uniform(lo, hi))]
                if not feasible(prob, u):
                    continue
                done += 1
                base = is_weak_minimal(prob, u, pts)
                assert is_weak_eps_minimal(prob, u, 0.0, pts) == base
                assert is_weak_eps_quasi_minimal(prob, u, 0.0, pts) == base
                out = modified_eps_kkt(prob, u, 0.0, SPEC)
                kkt = kkt_check(prob, u)
                assert (out.verdict == "holds") == kkt.holds
    _gate(capsys, "11 (zero-eps collapse of predicates and modified KKT)", body)
