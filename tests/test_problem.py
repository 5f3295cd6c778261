import dataclasses

import numpy as np
import pytest

import miopt
from miopt import (GridSpec, active_set, as_epsilon, feasible, feasible_grid,
                   is_weak_eps_minimal, is_weak_eps_quasi_minimal,
                   is_weak_minimal, restrict_to_ball)
from miopt.problem import Tolerances, distances
from .conftest import make_problem


def test_model_validation():
    with pytest.raises(ValueError):
        make_problem(1, [], [], [-1], [1])
    with pytest.raises(ValueError):
        make_problem(1, [("u0", "u0")], [], [1], [-1])
    with pytest.raises(ValueError):
        make_problem(1, [("u1", "u1")], [], [-1], [1])


def test_as_epsilon():
    assert list(as_epsilon(0.5, 3)) == [0.5, 0.5, 0.5]
    assert list(as_epsilon([0.1, 0.2], 2)) == [0.1, 0.2]
    with pytest.raises(ValueError):
        as_epsilon([-0.1], 1)
    with pytest.raises(ValueError):
        as_epsilon([0.1, 0.2], 3)


def test_feasibility_examples(abs_problem):
    assert feasible(abs_problem, [0.0])
    assert not feasible(abs_problem, [-1.0])
    unconstrained = make_problem(1, [("u0", "u0")], [], [-1], [1])
    assert feasible(unconstrained, [0.3])


def test_active_set_examples(abs_problem):
    assert active_set(abs_problem, [0.0]) == (0,)
    assert active_set(abs_problem, [1.0]) == ()
    both = make_problem(1, [("u0^2", "u0^2")], ["u0^2", "-u0"], [-1], [1])
    assert active_set(both, [0.0]) == (0, 1)


def test_weak_minimal_abs_pair(abs_problem):
    pts = feasible_grid(abs_problem, GridSpec(401))
    assert is_weak_minimal(abs_problem, [0.0], pts)


def test_weak_minimal_quad(quad_problem):
    pts = feasible_grid(quad_problem, GridSpec(401))
    assert is_weak_minimal(quad_problem, [0.0], pts)
    assert not is_weak_minimal(quad_problem, [1.0], pts)


def test_constant_width_everything_weak_minimal():
    prob = make_problem(1, [("u0", "u0+1")], [], [-1], [1])
    pts = feasible_grid(prob, GridSpec(101))
    for u in (-1.0, 0.0, 0.5, 1.0):
        assert is_weak_minimal(prob, [u], pts)


def test_eps_shift_blocks_domination(quad_problem):
    pts = feasible_grid(quad_problem, GridSpec(401))
    assert not is_weak_eps_minimal(quad_problem, [1.0], 0.0, pts)
    # domination gap at u=1 vs 0: centers 2, widths 1; eps/2 > 1 kills it
    assert is_weak_eps_minimal(quad_problem, [1.0], 2.5, pts)


def test_quasi_scales_with_distance(quad_problem):
    pts = feasible_grid(quad_problem, GridSpec(401))
    # width gap to z is 1-z^2 over distance 1-z, approaching 4/2 as z -> 1
    assert not is_weak_eps_quasi_minimal(quad_problem, [1.0], 3.9, pts)
    assert is_weak_eps_quasi_minimal(quad_problem, [1.0], 4.0, pts)


def test_zero_eps_reduces_to_weak_minimal(quad_problem, abs_problem):
    rng = np.random.default_rng(17)
    for prob in (quad_problem, abs_problem):
        pts = feasible_grid(prob, GridSpec(201))
        lo, hi = prob.box_lo[0], prob.box_hi[0]
        for _ in range(25):
            u = [float(rng.uniform(lo, hi))]
            if not feasible(prob, u):
                continue
            base = is_weak_minimal(prob, u, pts)
            assert is_weak_eps_minimal(prob, u, 0.0, pts) == base
            assert is_weak_eps_quasi_minimal(prob, u, 0.0, pts) == base


def test_eps_monotonicity(quad_problem):
    pts = feasible_grid(quad_problem, GridSpec(201))
    rng = np.random.default_rng(23)
    for _ in range(25):
        u = [float(rng.uniform(-1, 1))]
        e1 = float(rng.uniform(0, 1))
        e2 = e1 + float(rng.uniform(0, 1))
        if is_weak_eps_minimal(quad_problem, u, e1, pts):
            assert is_weak_eps_minimal(quad_problem, u, e2, pts)


@pytest.mark.parametrize("call", [
    lambda prob: as_epsilon(np.nan, 1),
    lambda prob: as_epsilon([0.1, np.nan], 2),
    lambda prob: miopt.check_prop_2_1(prob, np.nan, GridSpec(11)),
    lambda prob: miopt.eps_kkt_thm_4_1(prob, [0.0], 0.1, np.nan, GridSpec(11)),
    lambda prob: miopt.kkt_check(prob, [0.0], radius=np.nan),
    lambda prob: miopt.approx_kkt_sequence(prob, [0.0], [[0.1]], [np.nan], GridSpec(11)),
    lambda prob: miopt.modified_eps_kkt(prob, [0.0], np.nan, GridSpec(11)),
    lambda prob: miopt.evp_descent_vector(prob, np.nan, GridSpec(11), [0.0]),
    lambda prob: Tolerances(tau_feas=np.nan),
    lambda prob: Tolerances(tau_solver=np.inf),
    lambda prob: dataclasses.replace(prob.tolerances, mu_max=-np.inf),
])
def test_nan_fails_the_range_checks(abs_problem, call):
    with pytest.raises(ValueError):
        call(abs_problem)


def test_restrict_to_ball():
    pts = [np.array([x]) for x in np.linspace(-1, 1, 21)]
    ball = restrict_to_ball(pts, [0.0], 0.35)
    assert [p[0] for p in ball] == pytest.approx([-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3])


def test_restrict_to_ball_uses_the_row_wise_distance():
    # radius = each point's own row-wise distance puts it on the sphere; the
    # BLAS dot product of np.linalg.norm on the flat difference differs from
    # that distance in the last bit for a few percent of such pairs
    rng = np.random.default_rng(0)
    center = rng.uniform(-1.0, 1.0, 2)
    pts = rng.uniform(-1.0, 1.0, (2000, 2))
    rows = np.linalg.norm(pts - center, axis=1)
    for z, radius in zip(pts, rows):
        assert len(restrict_to_ball([z], center, radius)) == 1
    # the same closed ball as the grid masks draw for every radius
    for radius in rows[:50]:
        kept = restrict_to_ball(list(pts), center, radius)
        assert np.array_equal(np.array(kept), pts[distances(pts, center) <= radius])
        assert np.array_equal(np.array(kept), pts[rows <= radius])
