"""The array evaluator against the scalar one: bit-identical values, the
grid layers built on it, and load-time rejection of non-finite models."""

import copy
import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miopt import GridSpec, IVFunction, MIOProblem, feasible, feasible_grid, grid_points, value_table
from miopt.cli import main
from miopt.expr import (Abs, Const, Max, Min, Power, Product, Scale, Sum, Var, eval_expr,
                        eval_points, parse_expr)
from miopt.grid import IntervalError
from miopt.io import SchemaError, problem_from_dict
from .conftest import ABS_PROBLEM_JSON, make_problem

DIM = 3
COORDS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                   st.floats(-2.0, 2.0, allow_nan=False))
CONSTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-3.0, 3.0))
LEAVES = st.one_of(CONSTS.map(Const), st.integers(0, DIM - 1).map(Var))

SMOOTH = st.recursive(LEAVES, lambda sub: st.one_of(
    st.builds(Sum, sub, sub),
    st.builds(Scale, CONSTS, sub),
    st.builds(Product, sub, sub),
    st.builds(Power, sub, st.integers(1, 7))), max_leaves=6)

EXPRS = st.recursive(SMOOTH, lambda sub: st.one_of(
    st.builds(Sum, sub, sub),
    st.builds(Scale, CONSTS, sub),
    st.builds(Abs, sub),
    st.builds(Max, sub, sub),
    st.builds(Min, sub, sub)), max_leaves=8)

POINTS = st.lists(st.tuples(*[COORDS] * DIM), min_size=1, max_size=40).map(
    lambda rows: np.array(rows, dtype=float))


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def _scalar(e, pts):
    return [eval_expr(e, p) for p in pts]


@settings(max_examples=300, deadline=None)
@given(EXPRS, POINTS)
def test_eval_points_is_bit_identical_to_eval_expr(e, pts):
    try:
        expected = _scalar(e, pts)
    except OverflowError:
        with pytest.raises(OverflowError):
            eval_points(e, pts)
        return
    got = eval_points(e, pts)
    assert got.shape == (len(pts),)
    assert np.array_equal(_bits(got), _bits(expected))


@pytest.mark.parametrize("k", range(1, 8))
def test_power_matches_python_float_pow(k):
    pts = np.random.default_rng(k).uniform(-2.0, 2.0, size=(2000, 1))
    got = eval_points(Power(Var(0), k), pts)
    assert np.array_equal(_bits(got), _bits([x ** k for x in pts[:, 0].tolist()]))


@pytest.mark.parametrize("e", [Max(Const(0.0), Const(-0.0)), Max(Const(-0.0), Const(0.0)),
                               Min(Const(0.0), Const(-0.0)), Min(Const(-0.0), Const(0.0)),
                               Max(Var(0), Scale(-1.0, Var(0))), Abs(Var(0))])
def test_signed_zero_ties_follow_python(e):
    pts = np.array([[0.0], [-0.0]])
    assert np.array_equal(_bits(eval_points(e, pts)), _bits(_scalar(e, pts)))


def test_overflow_is_silent_and_matches_scalar():
    e = Scale(1e300, Product(Var(0), Scale(1e300, Var(0))))
    pts = np.array([[0.0], [1.0], [-1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = eval_points(Sum(e, Scale(-1.0, e)), pts)
    assert np.array_equal(_bits(got), _bits(_scalar(Sum(e, Scale(-1.0, e)), pts)))
    assert got[0] == 0.0 and np.isnan(got[1]) and np.isnan(got[2])


# ---------------------------------------------------------------------------
# Grid layers
# ---------------------------------------------------------------------------

def _old_value_table(problem, pts):
    """Reference table: a per-point loop over scalar eval_expr."""
    m = problem.n_objectives
    centers = np.empty((m, len(pts)))
    widths = np.empty((m, len(pts)))
    for i, p in enumerate(pts):
        for k, f in enumerate(problem.objectives):
            lo = eval_expr(f.lower, p)
            hi = eval_expr(f.upper, p)
            if lo > hi:
                raise ValueError((k, list(p)))
            centers[k, i] = (lo + hi) / 2.0
            widths[k, i] = (hi - lo) / 2.0
    return centers, widths


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(EXPRS, SMOOTH), min_size=1, max_size=3), POINTS)
def test_value_table_matches_scalar_loop(endpoints, pts):
    objectives = tuple(IVFunction(lo, Sum(lo, Abs(w)), DIM) for lo, w in endpoints)
    problem = MIOProblem(DIM, objectives, (), (-2.0,) * DIM, (2.0,) * DIM)
    try:
        centers, widths = _old_value_table(problem, pts)
    except (OverflowError, ValueError):
        return
    if not (np.all(np.isfinite(centers)) and np.all(np.isfinite(widths))):
        return
    table = value_table(problem, list(pts))
    assert np.array_equal(_bits(table.centers), _bits(centers))
    assert np.array_equal(_bits(table.widths), _bits(widths))
    assert np.array_equal(table.points, pts)


def test_value_table_names_first_invalid_point():
    # objective 1 fails first in grid order, objective 0 later
    problem = make_problem(1, [("u0", "0.5"), ("-u0", "0")], [], [-1.0], [1.0])
    pts = grid_points(problem.box_lo, problem.box_hi, GridSpec(5))
    with pytest.raises(ValueError) as old:
        _old_value_table(problem, pts)
    with pytest.raises(IntervalError) as new:
        value_table(problem, pts)
    assert (new.value.objective, new.value.point) == old.value.args[0]


@pytest.mark.parametrize("dim,ppd,constraints", [
    (2, 41, ["u0^2 + u1^2 - 1", "-u0 + 0.1*u1"]),
    (2, 101, ["max(u0, u1) - 0.3", "abs(u0) - 0.9"]),
    (3, 21, ["u0*u1 - u2^3", "min(u0, -u2) + 0.5"]),
])
def test_feasible_grid_matches_scalar_filter(dim, ppd, constraints):
    problem = make_problem(dim, [("u0", "u0 + 1")], constraints, [-1.0] * dim, [1.0] * dim)
    spec = GridSpec(ppd)
    expected = [p for p in grid_points(problem.box_lo, problem.box_hi, spec)
                if feasible(problem, p)]
    got = feasible_grid(problem, spec)
    assert 0 < len(got) < ppd ** dim
    assert np.array_equal(np.array(got), np.array(expected))


def test_grid_points_match_itertools_product():
    lo, hi, ppd = [-2.0, 0.0, 0.3], [2.0, 1.0, 0.7], 7
    axes = [a + np.arange(ppd, dtype=float) * (b - a) / (ppd - 1) for a, b in zip(lo, hi)]
    expected = np.array([np.array(p) for p in itertools.product(*axes)])
    assert np.array_equal(np.array(grid_points(lo, hi, GridSpec(ppd))), expected)


# ---------------------------------------------------------------------------
# Load-time validity
# ---------------------------------------------------------------------------

def _old_witness_message(d, where="problem"):
    """Reference load-time check: a per-point loop over scalar eval_expr."""
    spec = GridSpec(d["grid"]["points_per_dim"])
    for p in grid_points(d["box"]["lo"], d["box"]["hi"], spec):
        for k, od in enumerate(d["objectives"]):
            lo = eval_expr(parse_expr(od["lower"], d["dim"]), p)
            hi = eval_expr(parse_expr(od["upper"], d["dim"]), p)
            if lo > hi:
                return (f"{where}: objective {k} invalid at grid point {p.tolist()}: "
                        f"lower {lo} > upper {hi}")
    return None


@pytest.mark.parametrize("objectives", [
    [{"lower": "u0", "upper": "0"}],
    [{"lower": "abs(u0)", "upper": "abs(u0)+1"}, {"lower": "u0^3", "upper": "0.25*u0"}],
    [{"lower": "0.1*u0", "upper": "u0"}, {"lower": "-u0", "upper": "0"}],
])
def test_load_witness_message_unchanged(objectives):
    d = copy.deepcopy(ABS_PROBLEM_JSON)
    d["objectives"] = objectives
    expected = _old_witness_message(d)
    assert expected is not None
    with pytest.raises(SchemaError) as exc_info:
        problem_from_dict(d)
    assert str(exc_info.value) == expected


def test_non_finite_literal_rejected():
    d = copy.deepcopy(ABS_PROBLEM_JSON)
    d["objectives"][0] = {"lower": "1e400*u0", "upper": "1e400*u0"}
    with pytest.raises(SchemaError, match=r"objectives\[0\].lower.*infinity"):
        problem_from_dict(d)


@pytest.mark.parametrize("lower,upper,what", [
    ("1e300*u0*1e300", "1e300*u0*1e300", "upper -inf"),
    ("1e300*u0*1e300 - 1e300*u0*1e300", "0*u0", "lower nan"),
])
def test_non_finite_value_rejected_with_witness(lower, upper, what):
    d = copy.deepcopy(ABS_PROBLEM_JSON)
    d["objectives"][0] = {"lower": lower, "upper": upper}
    with pytest.raises(SchemaError) as exc_info:
        problem_from_dict(d)
    msg = str(exc_info.value)
    # the first grid point in order is u0 = -2, where 1e300*u0*1e300 overflows
    assert msg.startswith("problem: objective 0 invalid at grid point [-2.0]: non-finite")
    assert what in msg


def test_overflow_at_load_is_schema_error():
    d = copy.deepcopy(ABS_PROBLEM_JSON)
    d["objectives"][0] = {"lower": "u0^100000", "upper": "u0^100000 + 1"}
    with pytest.raises(SchemaError, match="load-time grid"):
        problem_from_dict(d)


def test_box_dimension_mismatch_is_schema_error():
    d = copy.deepcopy(ABS_PROBLEM_JSON)
    d["box"] = {"lo": [-2, -2], "hi": [2, 2]}
    with pytest.raises(SchemaError, match="box"):
        problem_from_dict(d)


# ---------------------------------------------------------------------------
# Exit codes of the probe files
# ---------------------------------------------------------------------------

def _write(tmp_path, lower, upper, constraints=()):
    d = copy.deepcopy(ABS_PROBLEM_JSON)
    d["objectives"] = [{"lower": lower, "upper": upper}]
    d["constraints"] = list(constraints)
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(d))
    return str(path)


@pytest.mark.parametrize("lower,upper,constraints", [
    ("1e400*u0", "1e400*u0 + 1", []),            # non-finite literal
    ("u0^100000", "u0^100000 + 1", []),          # overflow on the load-time grid
    ("1e300*u0*1e300", "1e300*u0*1e300", []),    # non-finite value at load
    ("u0", "u0 + 1", ["(u0 + 2)^100000"]),      # overflow after load
])
def test_cli_exits_3_on_arithmetic_failures(tmp_path, capsys, lower, upper, constraints):
    path = _write(tmp_path, lower, upper, constraints)
    assert main(["verify", "--problem", path, "--point=0.5", "--concept", "weak-min"]) == 3
    assert "error:" in capsys.readouterr().err
