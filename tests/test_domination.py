"""The domination primitive against brute force: the prefiltered masks,
the Prop 2.1 reports and the evp / Thm 3.3 post-verifications give the
answers of an all-pairs scan and of the scalar ``problem.is_weak_*``."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import miopt
from miopt import (GridSpec, ValueTable, approx_kkt_sequence, check_prop_2_1, check_thm_3_3,
                   eps_minimal_mask, evp_descent, evp_descent_vector, feasible_grid,
                   is_weak_eps_minimal, is_weak_eps_quasi_minimal, is_weak_minimal,
                   quasi_existence, quasi_minimal_mask, restrict_to_ball,
                   sufficiency_thm_4_3, value_table)
from miopt.certificates import CertificateError, eps_kkt_thm_4_1
from miopt.cli import main
from miopt.evp import DescentError, descent_eps_minimal
from miopt.game import (find_deviation, game_kkt, game_sufficiency, is_w_eps_ne,
                        is_w_eps_ne_direct, is_w_eps_qne, is_w_eps_qne_direct)
from miopt.grid import dominated, dominated_by, first_dominator
from miopt.problem import _cw_at, _dominates, distances, feasible
from .conftest import ABS_PROBLEM_JSON, make_problem


# ---------------------------------------------------------------------------
# Brute-force reference: every row against every row
# ---------------------------------------------------------------------------

def ref_dominators(table, i, shifts):
    """Rows whose values plus shifts / 2 ((m,) or (m, N)) strictly
    CW-dominate row i in every objective."""
    if shifts.ndim == 1:
        shifts = shifts[:, None]
    dom_c = table.centers + shifts / 2.0 < table.centers[:, i][:, None]
    dom_w = table.widths + shifts / 2.0 < table.widths[:, i][:, None]
    return np.all(dom_c & dom_w, axis=0)


def ref_quasi_mask(table, earr):
    out = np.empty(len(table.points), dtype=bool)
    for i in range(len(out)):
        dists = np.linalg.norm(table.points - table.points[i], axis=1)
        out[i] = not ref_dominators(table, i, earr[:, None] * dists[None, :]).any()
    return out


def ref_eps_mask(table, earr):
    return np.array([not ref_dominators(table, i, earr).any() for i in range(len(table.points))],
                    dtype=bool)


def ref_prop21(problem, eps0, spec):
    pts = feasible_grid(problem, spec)
    if len(pts) == 0:
        return 0, []
    table = value_table(problem, pts)
    root = float(np.sqrt(eps0))
    m = problem.n_objectives
    checked, violations = 0, []
    for i in np.flatnonzero(ref_quasi_mask(table, np.full(m, root))):
        checked += 1
        in_ball = np.linalg.norm(table.points - table.points[i], axis=1) <= root
        hits = np.flatnonzero(ref_dominators(table, i, np.full(m, eps0)) & in_ball)
        if hits.size:
            violations.append((table.points[i].tolist(), table.points[int(hits[0])].tolist()))
    return checked, violations


# ---------------------------------------------------------------------------
# Generated tables: lattice and scattered points, duplicate rows, exact ties
# ---------------------------------------------------------------------------

VALUES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
                   st.floats(0.0, 3.0, allow_nan=False))
LATTICE = st.integers(-3, 3).map(lambda k: k * 0.25)
SCATTERED = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def tables(draw, max_rows=30):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    rows = draw(st.integers(1, max_rows))
    coord = draw(st.sampled_from([LATTICE, SCATTERED]))
    pool = draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=rows))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=rows, max_size=rows))
    points = np.array([pool[k] for k in picks], dtype=float).reshape(rows, n)
    centers = draw(arrays(float, (m, rows), elements=VALUES))
    widths = draw(arrays(float, (m, rows), elements=VALUES))
    if draw(st.booleans()):
        # duplicate value rows at different points
        src = draw(st.lists(st.integers(0, rows - 1), min_size=rows, max_size=rows))
        centers, widths = centers[:, src], widths[:, src]
    return ValueTable(points, centers, widths)


def epsilons(m):
    return st.one_of(
        st.just(np.zeros(m)),
        st.sampled_from([0.1, 0.25, 0.5, 1.0, 3.0]).map(lambda e: np.full(m, e)),
        arrays(float, (m,), elements=st.one_of(st.just(0.0), st.floats(0.0, 2.0))))


_PROBLEMS = {}


def shape_problem(n, m):
    """A problem of dimension n with m objectives; the masks use only its shape."""
    if (n, m) not in _PROBLEMS:
        _PROBLEMS[n, m] = make_problem(n, [("u0", "u0+1")] * m, [], [-1.0] * n, [1.0] * n)
    return _PROBLEMS[n, m]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_masks_equal_brute_force(data):
    table = data.draw(tables())
    n, m = table.points.shape[1], table.centers.shape[0]
    eps = data.draw(epsilons(m))
    prob = shape_problem(n, m)
    assert np.array_equal(quasi_minimal_mask(prob, table, eps), ref_quasi_mask(table, eps))
    assert np.array_equal(eps_minimal_mask(prob, table, eps), ref_eps_mask(table, eps))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_dominated_on_a_subset_of_rows(data):
    table = data.draw(tables())
    m = table.centers.shape[0]
    eps = data.draw(epsilons(m))
    rows = np.array(data.draw(st.lists(st.integers(0, len(table.points) - 1), max_size=10)),
                    dtype=np.intp)
    assert np.array_equal(dominated(table, eps, rows=rows), ~ref_eps_mask(table, eps)[rows])
    assert np.array_equal(dominated(table, eps, quasi=True, rows=rows),
                          ~ref_quasi_mask(table, eps)[rows])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_front_covers_every_row(data):
    table = data.draw(tables())
    front, cover = table.front
    flat = table.cw.reshape(len(table.points), -1)
    assert np.array_equal(cover[front], front)
    assert set(cover.tolist()) <= set(front.tolist())
    assert np.all(flat[cover] <= flat)
    # the front is exactly the minimal rows, one per set of equal rows
    below = np.all(flat[front][:, None, :] <= flat[front][None, :, :], axis=2)
    assert np.array_equal(below, np.eye(len(front), dtype=bool))
    minimal = ~np.any(np.all(flat[:, None, :] <= flat[None, :, :], axis=2)
                      & np.any(flat[:, None, :] < flat[None, :, :], axis=2), axis=0)
    assert np.array_equal(np.unique(flat[minimal], axis=0), np.unique(flat[front], axis=0))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_dominated_by_matches_reference_rows(data):
    table = data.draw(tables())
    m = table.centers.shape[0]
    eps = data.draw(epsilons(m))
    i = data.draw(st.integers(0, len(table.points) - 1))
    dists = np.linalg.norm(table.points - table.points[i], axis=1)
    assert np.array_equal(dominated_by(table, i, eps), ref_dominators(table, i, eps))
    assert np.array_equal(dominated_by(table, i, eps, quasi=True),
                          ref_dominators(table, i, eps[:, None] * dists[None, :]))


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("quasi", [False, True])
def test_one_and_two_point_tables(rows, quasi):
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])[:rows]
    table = ValueTable(pts, np.array([[1.0, 0.0]])[:, :rows], np.array([[1.0, 0.5]])[:, :rows])
    got = dominated(table, np.array([0.5]), quasi=quasi)
    # row 1 beats row 0 by 1 in the centre and 0.5 in the width, each
    # more than the half-shift 0.25
    assert got.tolist() == [rows == 2, False][:rows]


def test_empty_table():
    table = ValueTable(np.zeros((0, 2)), np.zeros((1, 0)), np.zeros((1, 0)))
    assert dominated(table, np.zeros(1)).size == 0
    assert dominated(table, np.zeros(1), quasi=True).size == 0


def test_front_is_computed_once_per_table():
    table = ValueTable(np.array([[0.0], [1.0]]), np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
    assert table.front is table.front


# ---------------------------------------------------------------------------
# Generated problems on dyadic grids: Prop 2.1 and the post-verifications
# ---------------------------------------------------------------------------

TERMS = ["u{k}", "abs(u{k})", "abs(u{k}-0.5)", "max(u{k},0)", "u{k}^2"]


@st.composite
def problems(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))

    def expr():
        parts = []
        for k in range(n):
            coef = draw(st.sampled_from([0, 1, 2, 0.5]))
            if coef:
                parts.append(f"{coef}*" + draw(st.sampled_from(TERMS)).format(k=k))
        return "+".join(parts) or "0*u0"

    objectives = []
    for _ in range(m):
        lower = expr()
        width = draw(st.sampled_from(["0", "0.5", "abs(u0)", "0.25*u0^2"]))
        objectives.append((lower, f"{lower}+{width}"))
    constraints = draw(st.sampled_from([[], ["u0-0.5"], ["-u0-0.75"]]))
    return make_problem(n, objectives, constraints, [-1.0] * n, [1.0] * n)


def grid_spec(draw, prob):
    # steps of 1/2 or 1/4: distances need no rounding before the square root
    return GridSpec(draw(st.sampled_from([5, 9] if prob.dim < 3 else [5])))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_prop_2_1_report_equals_brute_force(data):
    prob = data.draw(problems())
    spec = grid_spec(data.draw, prob)
    eps0 = data.draw(st.sampled_from([0.01, 0.0625, 0.25, 1.0]))
    report = check_prop_2_1(prob, eps0, spec)
    assert (report.checked, report.violations) == ref_prop21(prob, eps0, spec)


def draw_point(data, prob, pts):
    """A grid point, or a dyadic point between grid points (feasible or not)."""
    if len(pts) and data.draw(st.booleans()):
        return pts[data.draw(st.integers(0, len(pts) - 1))]
    return np.array(data.draw(st.lists(st.integers(-16, 16), min_size=prob.dim,
                                       max_size=prob.dim))) / 16.0


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_thm_3_3_conclusion_equals_scalar_predicate(data):
    prob = data.draw(problems())
    spec = grid_spec(data.draw, prob)
    pts = feasible_grid(prob, spec)
    if len(pts) == 0:
        return
    u_bar = draw_point(data, prob, pts)
    if not feasible(prob, u_bar):
        u_bar = pts[0]
    eps = np.full(prob.n_objectives, data.draw(st.sampled_from([0.25, 1.0, 8.0])))
    verdict = check_thm_3_3(prob, u_bar, eps, spec)
    if verdict.hypothesis_holds:
        assert verdict.conclusion_verified == is_weak_eps_quasi_minimal(prob, u_bar, eps, pts)


def test_thm_3_3_off_grid_point_equals_scalar_predicate():
    prob = make_problem(1, [("abs(u0-0.3)", "abs(u0-0.3)+0.5")], [], [-1.0], [1.0])
    spec = GridSpec(9)
    pts = feasible_grid(prob, spec)
    for u in (0.3, 0.2, -0.1):
        verdict = check_thm_3_3(prob, [u], 10.0, spec)
        assert verdict.hypothesis_holds
        assert verdict.conclusion_verified == is_weak_eps_quasi_minimal(prob, [u], 10.0, pts)
        # the point query over the same grid gives the same answer
        row = first_dominator(value_table(prob, np.vstack([pts, [u]])), np.full(1, 10.0),
                              quasi=True)
        assert verdict.conclusion_verified == (row is None)


def point_query_case(data):
    """A problem, a point u, candidates (every grid point, a subset of
    them, or none), an eps and whether the handicap is quasi."""
    prob = data.draw(problems())
    spec = grid_spec(data.draw, prob)
    pts = feasible_grid(prob, spec)
    u = draw_point(data, prob, pts)
    picks = data.draw(st.sampled_from(["all", "some", "none"]))
    if picks == "some" and len(pts):
        cands = [pts[k] for k in sorted(set(data.draw(
            st.lists(st.integers(0, len(pts) - 1), max_size=len(pts)))))]
    else:
        cands = pts if picks == "all" else []
    return prob, u, cands, data.draw(epsilons(prob.n_objectives)), data.draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_point_query_equals_scalar_predicates(data):
    prob, u, cands, eps, quasi = point_query_case(data)
    scalar = is_weak_eps_quasi_minimal if quasi else is_weak_eps_minimal
    # the queried point is the table's last row
    table = value_table(prob, list(cands) + [u])
    assert (first_dominator(table, eps, quasi) is None) == scalar(prob, u, eps, cands)
    if not np.any(eps):
        zero = np.zeros(prob.n_objectives)
        assert (first_dominator(table, zero) is None) == is_weak_minimal(prob, u, cands)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_point_query_returns_the_first_scalar_dominator(data):
    prob, u, cands, eps, quasi = point_query_case(data)
    u_cw = _cw_at(prob, u)
    want = next((k for k, z in enumerate(cands)
                 if _dominates(prob, z, u_cw, eps * float(distances(z, u)) if quasi else eps)),
                None)
    assert first_dominator(value_table(prob, list(cands) + [u]), eps, quasi) == want


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_evp_flags_equal_scalar_predicates(data):
    prob = data.draw(problems())
    spec = grid_spec(data.draw, prob)
    pts = feasible_grid(prob, spec)
    if len(pts) == 0:
        return
    m = prob.n_objectives
    eps = data.draw(st.sampled_from([0.0625, 0.25, 1.0]))
    rep = quasi_existence(prob, np.full(m, eps), spec)
    root = float(np.sqrt(eps))
    assert rep.qm_verified == is_weak_eps_quasi_minimal(prob, rep.point, np.full(m, root), pts)
    ball = restrict_to_ball(pts, rep.point, root)
    assert rep.ball_check == is_weak_eps_minimal(prob, rep.point, np.full(m, eps), ball)

    # the pipeline in one call equals its stages run one by one
    u_bar, cert = evp_descent(prob, np.full(m, eps), spec, rep.descent_trace.iterates[-1])
    assert np.array_equal(u_bar, rep.point)
    assert cert.trace.merits == rep.evp_certificate.trace.merits

    x0 = pts[data.draw(st.integers(0, len(pts) - 1))]
    if is_weak_eps_minimal(prob, x0, np.full(m, eps), pts):
        u_bar, cert = evp_descent_vector(prob, eps, spec, x0)
        assert cert.a_holds == is_weak_eps_minimal(prob, u_bar, np.full(m, eps), pts)
        assert cert.c_holds == is_weak_eps_quasi_minimal(prob, u_bar, np.full(m, root), pts)
    else:
        with pytest.raises(miopt.PremiseError):
            evp_descent_vector(prob, eps, spec, x0)


# ---------------------------------------------------------------------------
# Every certificate, game and verify path decides with the grid kernel
# ---------------------------------------------------------------------------

def test_no_production_path_uses_the_scalar_oracle(monkeypatch, abs_problem, convexity_problem,
                                                   quad_game, abs_problem_file):
    def scalar(*args):
        raise AssertionError("scalar domination oracle called")

    monkeypatch.setattr(miopt.problem, "_dominates", scalar)
    spec = GridSpec(401)
    assert eps_kkt_thm_4_1(abs_problem, [0.0], [0.25, 0.25], 0.5, spec).verdict == "holds"
    assert sufficiency_thm_4_3(convexity_problem, [0.0], [0.1, 0.1], spec).verdict == "holds"
    xs = [[1.0 / i] for i in range(1, 401)]
    assert approx_kkt_sequence(abs_problem, [0.0], xs, [0.25, 0.0625], spec).all_ok
    assert check_thm_3_3(abs_problem, [0.0], 0.1, spec).conclusion_verified
    for profile, eps in (([0.5, 0.5], 0.1), ([0.0, 1.0], 0.01)):
        ne = is_w_eps_ne(quad_game, profile, eps)
        qne = is_w_eps_qne(quad_game, profile, eps)
        assert is_w_eps_ne_direct(quad_game, profile, eps) == ne
        assert is_w_eps_qne_direct(quad_game, profile, eps) == qne
        assert (find_deviation(quad_game, 0, profile, eps) is None) == (profile[0] == 0.5)
    assert all(out.report is not None for out in game_kkt(quad_game, [0.5, 0.5], 0.1))
    assert all(out.search is not None
               for out in game_kkt(quad_game, [0.5, 0.5], 0.1, mode="thm_5_1", delta=0.5))
    assert game_sufficiency(quad_game, [0.5, 0.5], 0.1).verdict == "holds"
    for concept in ("weak-min", "weak-eps-min", "weak-eps-qmin"):
        argv = ["verify", "--problem", abs_problem_file, "--point", "0", "--concept", concept,
                "--eps", "0.1,0.1"]
        assert main(argv) == 0


@pytest.fixture
def off_grid_invalid_file(tmp_path):
    """Valid on the load-time grid (401 points), invalid within 1e-7 of
    0.301, which the 2001-point grid comes within 7e-17 of."""
    doc = {"dim": 1, "objectives": [{"lower": "0", "upper": "abs(u0-0.301)-0.0000001"}],
           "constraints": [], "box": {"lo": [-1], "hi": [1]}}
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["verify", "--point=0.3", "--concept=weak-min"],
    ["epskkt", "--point=0.3", "--eps=0.1", "--delta=0.5"],
    ["prop21", "--eps0=0.01"],
    ["quasi", "--eps=0.1"],
    ["genconvex", "--point=0.3"],
    ["sufficiency", "--point=0.3", "--eps=0.1"],
])
def test_invalid_interval_on_the_scanned_grid_exits_3(off_grid_invalid_file, capsys, argv):
    assert main(argv + ["--problem", off_grid_invalid_file]) in (0, 1, 2)
    capsys.readouterr()
    assert main(argv + ["--problem", off_grid_invalid_file, "--grid", "2001"]) == 3
    assert "IVF invalid at [0.30099999999999993]" in capsys.readouterr().err


def test_invalid_interval_at_a_sequence_tail_point_exits_3(off_grid_invalid_file, capsys):
    # z_1 is the first tail point, 0.45: the invalid 0.301 is never picked,
    # but every tail point is evaluated
    argv = ["seqkkt", "--problem", off_grid_invalid_file, "--grid=5", "--point=0.5",
            "--eps-seq=0.25"]
    assert main(argv + ["--xs=0.45"]) == 0
    capsys.readouterr()
    assert main(argv + ["--xs=0.45;0.301"]) == 3
    assert "IVF invalid at [0.301]" in capsys.readouterr().err


def test_invalid_interval_at_the_queried_point_exits_3(off_grid_invalid_file, capsys):
    # each point check evaluates its grid and the point as one table; at
    # 0.301 sufficiency's KKT stage holds, so its convexity stage reads u
    for argv in (["verify", "--concept=weak-min"], ["thm33", "--eps=0.1"],
                 ["epskkt", "--eps=0.1", "--delta=0.5"], ["sufficiency", "--eps=0.1"],
                 ["genconvex"]):
        assert main(argv[:1] + ["--problem", off_grid_invalid_file, "--point=0.301"]
                    + argv[1:]) == 3, argv
        assert "IVF invalid at [0.301]" in capsys.readouterr().err


def test_sufficiency_reads_the_points_interval_after_its_kkt_stage(tmp_path, capsys,
                                                                   monkeypatch):
    # F is no interval at u = 0.35 only, where the KKT stage fails (residual
    # 0.5): the convexity stage, the first to read u's values, never runs
    doc = {"dim": 1, "objectives": [{"lower": "1.01 - 1000*(u0-0.35)^2 + 2*u0 - 0.7",
                                     "upper": "1 + 3*u0 - 1.05"}],
           "box": {"lo": [0], "hi": [1]}, "grid": {"points_per_dim": 11}}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    assert main(["kkt", "--problem", str(path), "--point=0.35"]) == 1
    capsys.readouterr()
    assert main(["sufficiency", "--problem", str(path), "--point=0.35", "--eps=0.1"]) == 1
    assert capsys.readouterr().out.startswith("sufficiency: hypothesis-failed")
    # a grid row's invalid interval is raised before any stage, also at u
    prob = make_problem(1, [(doc["objectives"][0]["lower"].replace("0.35", "0.3")
                             .replace("0.7", "0.6"), "1 + 3*u0 - 0.9")], [], [0.0], [1.0])
    monkeypatch.setattr(miopt.certificates, "kkt_check", None)
    with pytest.raises(miopt.grid.IntervalError, match=r"IVF invalid at \[0.3\]"):
        sufficiency_thm_4_3(prob, [0.3], 0.1, GridSpec(11))


# ---------------------------------------------------------------------------
# One PremiseError for every module
# ---------------------------------------------------------------------------

def test_premise_error_is_one_class():
    assert miopt.PremiseError is miopt.evp.PremiseError is miopt.certificates.PremiseError
    assert issubclass(miopt.PremiseError, DescentError)
    assert issubclass(miopt.PremiseError, CertificateError)


def test_premise_error_raised_by_every_module(quad_problem, quad_game):
    spec = GridSpec(401)
    raises = [
        lambda: evp_descent(quad_problem, 0.04, spec, [1.0]),                      # evp
        lambda: eps_kkt_thm_4_1(quad_problem, [1.0], 0.1, 0.4, spec),              # certificates
        lambda: game_kkt(quad_game, [0.0, 1.0], 0.01, mode="thm_5_2"),             # game
    ]
    for call in raises:
        with pytest.raises(miopt.PremiseError):
            call()
        with pytest.raises(DescentError):
            call()
        with pytest.raises(CertificateError):
            call()


def test_all_zero_eps_is_refused_before_any_premise(quad_problem, quad_game):
    """Every theorem that needs eps > 0 refuses an all-zero eps with one
    message, also where the premise would fail: quad at 1 and the profile
    (0, 1) are not minimal."""
    spec = GridSpec(401)
    calls = [
        lambda e: check_thm_3_3(quad_problem, [1.0], e, spec),
        lambda e: eps_kkt_thm_4_1(quad_problem, [1.0], e, 0.4, spec),
        lambda e: sufficiency_thm_4_3(quad_problem, [1.0], e, spec),
        lambda e: descent_eps_minimal(quad_problem, e, spec, [1.0]),
        lambda e: evp_descent(quad_problem, e, spec, [1.0]),
        lambda e: quasi_existence(quad_problem, e, spec),
        lambda e: game_kkt(quad_game, [0.0, 1.0], e, mode="thm_5_2"),
        lambda e: game_kkt(quad_game, [0.0, 1.0], e, mode="thm_5_1", delta=0.4),
    ]
    for call, eps in itertools.product(calls, (0.0, [0.0])):
        with pytest.raises(ValueError, match="^eps must be nonzero$") as exc:
            call(eps)
        assert exc.type is ValueError


# ---------------------------------------------------------------------------
# CLI: vector values with a leading minus sign
# ---------------------------------------------------------------------------

@pytest.fixture
def wide_abs_file(tmp_path):
    doc = dict(ABS_PROBLEM_JSON, constraints=["-u0-1"])
    path = tmp_path / "abs.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["kkt", "--point", "-0.5"],
    ["kkt", "--point", "-0.5", "--cor41-eps", "-0.0,0.1"],
    ["verify", "--point", "-0.5", "--concept", "weak-eps-min", "--eps", "0.1,0.1"],
    ["exist", "--eps", "0.1", "--start", "-0.5"],
    ["evp", "--eps", "0.1", "--x0", "-0.5"],
    ["seqkkt", "--point", "0", "--xs", "-0.5;-0.25", "--eps-seq", "0.5,0.25"],
])
def test_cli_accepts_negative_vector_values(wide_abs_file, tmp_path, argv):
    bare = [argv[0], "--problem", wide_abs_file] + argv[1:]
    glued = [argv[0], "--problem", wide_abs_file]
    for flag, value in zip(argv[1::2], argv[2::2]):
        glued.append(f"{flag}={value}")
    out_bare, out_glued = tmp_path / "bare.json", tmp_path / "glued.json"
    code = main(bare + ["--json", str(out_bare)])
    assert code in (0, 1, 2)
    assert main(glued + ["--json", str(out_glued)]) == code
    first = json.loads(out_bare.read_text())
    second = json.loads(out_glued.read_text())
    first.pop("elapsed_seconds"), second.pop("elapsed_seconds")
    assert first == second


def test_cli_negative_point_on_two_dimensions(tmp_path, capsys):
    doc = {"dim": 2, "objectives": [{"lower": "abs(u0)+abs(u1)", "upper": "abs(u0)+abs(u1)+1"}],
           "constraints": [], "box": {"lo": [-1, -1], "hi": [1, 1]}, "grid": {"points_per_dim": 11}}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    assert main(["kkt", "--problem", str(path), "--point", "-0.3,0.1"]) in (0, 1)
    assert "point: [-0.3, 0.1]" in capsys.readouterr().out
