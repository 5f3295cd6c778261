import itertools

import numpy as np
import pytest

from miopt import (GridError, GridSpec, check_prop_2_1, check_thm_3_3,
                   default_points_per_dim, feasible, feasible_grid,
                   grid_points, restrict_to_ball, spec_for, value_table)
from miopt.problem import distances
from .conftest import make_problem


def test_default_resolutions():
    assert default_points_per_dim(1) == 401
    assert default_points_per_dim(2) == 101
    assert default_points_per_dim(3) == 21
    assert default_points_per_dim(4) == 11
    with pytest.raises(GridError):
        default_points_per_dim(5)


def test_cap_enforced():
    prob = make_problem(2, [("u0", "u0")], [], [-1, -1], [1, 1])
    with pytest.raises(GridError):
        feasible_grid(prob, GridSpec(points_per_dim=4000, cap=10**6))


def test_feasible_grid_filter():
    prob = make_problem(1, [("u0", "u0")], ["-u0", "u0-1"], [-2], [2])
    pts = feasible_grid(prob, GridSpec(5))
    assert [p[0] for p in pts] == [0.0, 1.0]


def test_unconstrained_grid_is_full():
    prob = make_problem(1, [("u0", "u0")], [], [-2], [2])
    assert len(feasible_grid(prob, GridSpec(5))) == 5


def test_infeasible_model_gives_empty_grid():
    prob = make_problem(1, [("u0", "u0")], ["0*u0 + 1"], [-2], [2])
    assert feasible_grid(prob, GridSpec(5)).shape == (0, 1)


def _grid_array_of(a, n):
    """Whether a is a C-contiguous float64 array of shape (N, n)."""
    return (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.ndim == 2
            and a.shape[1] == n and a.flags.c_contiguous)


@pytest.mark.parametrize("dim,ppd,constraints", [
    (1, 41, ["u0 - 0.3"]),
    (2, 9, ["u0^2 + u1^2 - 1"]),
    (3, 5, ["u0*u1 - u2", "max(u0, u2) - 0.6"]),
])
def test_grid_functions_return_one_array_format(dim, ppd, constraints):
    # one format: (N, n) float arrays whose rows are, bit for bit, the
    # itertools.product grid, its scalar feasible filter and its scalar
    # distance filter
    prob = make_problem(dim, [("u0", "u0 + 1")], constraints, [-1.0] * dim, [1.0] * dim)
    spec = GridSpec(ppd)
    axes = [lo + np.arange(ppd, dtype=float) * (hi - lo) / (ppd - 1)
            for lo, hi in zip(prob.box_lo, prob.box_hi)]
    ref = np.array(list(itertools.product(*axes)))
    pts = grid_points(prob.box_lo, prob.box_hi, spec)
    assert _grid_array_of(pts, dim) and pts.tobytes() == ref.tobytes()

    feas = feasible_grid(prob, spec)
    ref_feas = np.array([p for p in ref if feasible(prob, p)])
    assert 0 < len(feas) < len(pts)
    assert _grid_array_of(feas, dim) and feas.tobytes() == ref_feas.tobytes()

    center = feas[len(feas) // 2]
    for radius in (0.0, 0.5, 10.0):
        ball = restrict_to_ball(feas, center, radius)
        ref_ball = np.array([z for z in feas if distances(z, center) <= radius])
        assert _grid_array_of(ball, dim) and ball.tobytes() == ref_ball.tobytes()
    assert restrict_to_ball(feas, center + 10.0, 0.5).shape == (0, dim)

    empty = feasible_grid(make_problem(dim, [("u0", "u0")], ["0*u0 + 1"],
                                       [-1.0] * dim, [1.0] * dim), spec)
    assert _grid_array_of(empty, dim) and empty.shape == (0, dim)
    assert restrict_to_ball(empty, center, 10.0).shape == (0, dim)


def test_grid_is_deterministic_and_inclusive():
    a = grid_points([-2.0, 0.0], [2.0, 1.0], GridSpec(5))
    b = grid_points([-2.0, 0.0], [2.0, 1.0], GridSpec(5))
    assert all((x == y).all() for x, y in zip(a, b))
    assert (a[0] == np.array([-2.0, 0.0])).all()
    assert (a[-1] == np.array([2.0, 1.0])).all()
    # lexicographic order
    flat = [tuple(p) for p in a]
    assert flat == sorted(flat)


def test_no_feasible_point_dropped(abs_problem):
    spec = GridSpec(101)
    pts = feasible_grid(abs_problem, spec)
    kept = {p[0] for p in pts}
    for p in grid_points(abs_problem.box_lo, abs_problem.box_hi, spec):
        assert (p[0] in kept) == feasible(abs_problem, p)


def test_value_table_matches_direct_evaluation(quad_problem):
    pts = feasible_grid(quad_problem, GridSpec(11))
    table = value_table(quad_problem, pts)
    for i, p in enumerate(pts):
        assert table.centers[0, i] == quad_problem.objectives[0].center(p)
        assert table.widths[0, i] == quad_problem.objectives[0].halfwidth(p)


@pytest.mark.parametrize("eps0", [0.01, 0.25])
def test_prop_2_1_no_violations(quad_problem, abs_problem, eps0):
    for prob in (quad_problem, abs_problem):
        report = check_prop_2_1(prob, eps0, GridSpec(401))
        assert report.ok
        assert report.checked > 0


def test_prop_2_1_empty_grid_vacuous():
    prob = make_problem(1, [("u0", "u0")], ["0*u0 + 1"], [-1], [1])
    report = check_prop_2_1(prob, 0.01, GridSpec(101))
    assert report.ok and report.checked == 0


def test_thm_3_3_holds_on_quad(quad_problem):
    verdict = check_thm_3_3(quad_problem, [0.0], 0.3, GridSpec(401))
    assert verdict.hypothesis_holds
    assert verdict.conclusion_verified


def test_thm_3_3_hypothesis_fails_on_linear():
    prob = make_problem(1, [("u0", "u0+1")], [], [-1], [1])
    verdict = check_thm_3_3(prob, [0.0], 0.1, GridSpec(401))
    assert not verdict.hypothesis_holds
    assert verdict.witness == [-1.0]


def test_thm_3_3_large_eps_slack(quad_problem):
    verdict = check_thm_3_3(quad_problem, [0.0], 1000.0, GridSpec(101))
    assert verdict.hypothesis_holds and verdict.conclusion_verified


def test_spec_for_uses_problem_dim(quad_problem):
    assert spec_for(quad_problem).points_per_dim == 401
    assert spec_for(quad_problem, 51).points_per_dim == 51
