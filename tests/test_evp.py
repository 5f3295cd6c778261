import numpy as np
import pytest

from miopt import (GridSpec, descent_eps_minimal, evp_descent,
                   evp_descent_vector, feasible_grid, is_weak_eps_minimal,
                   is_weak_eps_quasi_minimal, quasi_existence)
from miopt.evp import DescentError, PremiseError
from .conftest import make_problem

SPEC = GridSpec(401)


def test_descent_terminates_and_verifies(quad_problem):
    point, trace = descent_eps_minimal(quad_problem, 0.5, SPEC, [1.0])
    pts = feasible_grid(quad_problem, SPEC)
    assert is_weak_eps_minimal(quad_problem, point, 0.5, pts)
    # guaranteed bound: each step drops the width sum by > eps/2
    assert len(trace.iterates) - 1 <= 2 * 1.0 / 0.5 + 1
    # strict merit decrease by at least the eps sum per step
    for a, b in zip(trace.merits, trace.merits[1:]):
        assert b <= a - 0.5


def test_descent_from_minimal_start_stays_put(quad_problem):
    point, trace = descent_eps_minimal(quad_problem, 0.5, SPEC, [0.0])
    assert point[0] == 0.0
    assert len(trace.iterates) == 1
    assert trace.reason == "A(u) empty"


def test_descent_constant_width_moves_by_center():
    prob = make_problem(1, [("u0", "u0+1")], [], [-1], [1])
    point, _ = descent_eps_minimal(prob, 0.5, SPEC, [1.0])
    pts = feasible_grid(prob, SPEC)
    assert is_weak_eps_minimal(prob, point, 0.5, pts)


def test_descent_rejects_off_grid_start(quad_problem):
    with pytest.raises(DescentError):
        descent_eps_minimal(quad_problem, 0.5, SPEC, [0.00017])


def test_evp_certificate_on_abs_problem(abs_problem):
    # widths are constant, so no point is ever strictly sum-dominated and
    # the premise holds everywhere on the grid
    u_bar, cert = evp_descent(abs_problem, [0.25, 0.25], SPEC, [0.4])
    assert cert.a_holds and cert.c_holds
    assert cert.b_value <= 0.5 / (2 * np.sqrt(0.25)) + 1e-12
    assert cert.all_hold


def test_evp_premise_rejected_at_dominated_start(quad_problem):
    with pytest.raises(PremiseError):
        evp_descent(quad_problem, 0.04, SPEC, [1.0])


def test_evp_fixed_point_returns_x0(quad_problem):
    u_bar, cert = evp_descent(quad_problem, 0.04, SPEC, [0.0])
    assert u_bar[0] == 0.0
    assert cert.all_hold


def test_evp_bound_on_quad(quad_problem):
    x0, _ = descent_eps_minimal(quad_problem, 0.04, SPEC, [0.1])
    u_bar, cert = evp_descent(quad_problem, 0.04, SPEC, x0)
    assert cert.all_hold
    assert np.linalg.norm(x0 - u_bar) <= 0.04 / 0.2 + 1e-12


def test_evp_t_map_nesting(quad_problem):
    """Points reachable from a T-map member stay inside the original map."""
    from miopt.evp import _prepare, _summed, _t_map

    sums, _ = _summed(_prepare(quad_problem, GridSpec(41)))
    rate = float(np.sqrt(0.25))
    for i in (0, 10, 25, 40):
        t_i = _t_map(sums, i, rate)
        for j in np.flatnonzero(t_i):
            t_j = _t_map(sums, int(j), rate)
            assert not np.any(t_j & ~t_i)


def test_evp_vector_on_abs_problem(abs_problem):
    u_bar, cert = evp_descent_vector(abs_problem, 0.25, SPEC, [0.0])
    assert u_bar[0] == 0.0
    assert cert.all_hold
    assert cert.b_value <= np.sqrt(0.25)


def test_evp_vector_premise_enforced(quad_problem):
    with pytest.raises(PremiseError):
        evp_descent_vector(quad_problem, 0.04, SPEC, [1.0])


def test_evp_vector_verifies_quasi(quad_problem):
    x0, _ = descent_eps_minimal(quad_problem, 0.04, SPEC, [0.15])
    u_bar, cert = evp_descent_vector(quad_problem, 0.04, SPEC, x0)
    assert cert.all_hold
    pts = feasible_grid(quad_problem, SPEC)
    assert is_weak_eps_quasi_minimal(quad_problem, u_bar, 0.2, pts)


def test_quasi_existence_quad(quad_problem):
    rep = quasi_existence(quad_problem, 0.01, SPEC)
    assert rep.qm_verified
    assert rep.ball_check is True


def test_quasi_existence_abs_pair(abs_problem):
    rep = quasi_existence(abs_problem, [0.25, 0.25], SPEC)
    assert rep.qm_verified
    assert rep.ball_check is True


def test_quasi_existence_single_point():
    prob = make_problem(1, [("u0", "u0")], ["u0", "-u0"], [-1], [1])
    rep = quasi_existence(prob, 0.01, GridSpec(101))
    assert rep.point[0] == 0.0
    assert rep.qm_verified
