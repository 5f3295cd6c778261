import copy
import json
import os
import re
import subprocess
import sys

import pytest

import miopt
from miopt import Game, MIOProblem, eval_expr
from miopt.cli import build_parser, main
from miopt.io import (SchemaError, game_from_dict, load, problem_from_dict,
                      save, serialize)
from .conftest import ABS_PROBLEM_JSON, QUAD_GAME_JSON


def test_load_problem_file(abs_problem_file):
    prob = load(abs_problem_file)
    assert isinstance(prob, MIOProblem)
    assert prob.dim == 1
    assert prob.name == "abs-pair"
    assert prob.n_objectives == 2
    assert len(prob.constraints) == 2
    assert prob.metadata["points_per_dim"] == 401
    assert eval_expr(prob.objectives[0].upper, [0.5]) == 1.5


def test_load_game_file(quad_game_file):
    game = load(quad_game_file)
    assert isinstance(game, Game)
    assert game.n_players == 2
    assert game.profile_dim == 2
    assert game.players[0].points_per_dim == 101


def test_unknown_field_named():
    d = copy.deepcopy(ABS_PROBLEM_JSON)
    d["extra_thing"] = 1
    with pytest.raises(SchemaError, match="extra_thing"):
        problem_from_dict(d)


def test_unknown_nested_field_named():
    d = copy.deepcopy(ABS_PROBLEM_JSON)
    d["objectives"][0]["midpoint"] = "u0"
    with pytest.raises(SchemaError, match="midpoint"):
        problem_from_dict(d)


def test_unknown_player_field_named():
    d = copy.deepcopy(QUAD_GAME_JSON)
    d["players"][1]["color"] = "blue"
    with pytest.raises(SchemaError, match="color"):
        game_from_dict(d)


def test_bad_expression_reports_path():
    d = copy.deepcopy(ABS_PROBLEM_JSON)
    d["objectives"][1]["lower"] = "abs(u0"
    with pytest.raises(SchemaError, match=r"objectives\[1\].lower"):
        problem_from_dict(d)


def test_invalid_interval_rejected_with_witness():
    d = copy.deepcopy(ABS_PROBLEM_JSON)
    d["objectives"][0] = {"lower": "u0", "upper": "0"}
    with pytest.raises(SchemaError, match="lower") as exc_info:
        problem_from_dict(d)
    # the message carries a concrete grid point where lower > upper
    assert "grid point" in str(exc_info.value)


def test_missing_required_field():
    d = copy.deepcopy(ABS_PROBLEM_JSON)
    del d["box"]
    with pytest.raises(SchemaError, match="box"):
        problem_from_dict(d)


def test_problem_round_trip_bit_exact(tmp_path, abs_problem_file):
    prob = load(abs_problem_file)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    save(prob, str(out1))
    reloaded = load(str(out1))
    save(reloaded, str(out2))
    assert out1.read_text() == out2.read_text()
    # the original expression strings survive verbatim
    d = json.loads(out1.read_text())
    assert d["objectives"] == ABS_PROBLEM_JSON["objectives"]
    assert d["constraints"] == ABS_PROBLEM_JSON["constraints"]


def test_game_round_trip_bit_exact(tmp_path, quad_game_file):
    game = load(quad_game_file)
    out1 = tmp_path / "g1.json"
    out2 = tmp_path / "g2.json"
    save(game, str(out1))
    save(load(str(out1)), str(out2))
    assert out1.read_text() == out2.read_text()
    d = json.loads(out1.read_text())
    assert d["players"][0]["objectives"] == \
        QUAD_GAME_JSON["players"][0]["objectives"]


def test_serialize_without_sources():
    from .conftest import make_problem

    prob = make_problem(1, [("u0^2", "3*u0^2")], ["-u0"], [-1], [1])
    d = serialize(prob)
    reparsed = problem_from_dict(d)
    assert eval_expr(reparsed.objectives[0].upper, [0.5]) == 0.75


def test_tolerance_echo_and_override():
    d = copy.deepcopy(ABS_PROBLEM_JSON)
    d["tolerances"] = {"tau_act": 1e-4}
    prob = problem_from_dict(d)
    assert prob.tolerances.tau_act == 1e-4
    assert prob.tolerances.tau_feas == 1e-9
    assert serialize(prob)["tolerances"]["tau_act"] == 1e-4


def test_bad_tolerance_field():
    d = copy.deepcopy(ABS_PROBLEM_JSON)
    d["tolerances"] = {"tau_typo": 1e-4}
    with pytest.raises(SchemaError, match="tau_typo"):
        problem_from_dict(d)


@pytest.mark.parametrize("where,value,field", [
    ("box", {"lo": [-2], "hi": [float("inf")]}, "box.hi[0]"),
    ("box", {"lo": [float("nan")], "hi": [2]}, "box.lo[0]"),
    ("tolerances", {"tau_feas": float("nan")}, "tolerances.tau_feas"),
    ("tolerances", {"tau_act": float("-inf")}, "tolerances.tau_act"),
    ("epsilon", [0.1, float("inf")], "epsilon[1]"),
])
def test_non_finite_file_field_is_named(tmp_path, where, value, field):
    # json reads NaN and Infinity; a box or tolerance built from them gave
    # NaN grid points or turned every point infeasible
    d = copy.deepcopy(ABS_PROBLEM_JSON)
    d[where] = value
    path = tmp_path / "p.json"
    path.write_text(json.dumps(d))
    assert ("NaN" in path.read_text()) or ("Infinity" in path.read_text())
    with pytest.raises(SchemaError, match=re.escape(f"p.json.{field}: expected a finite number")):
        load(str(path))


def test_non_finite_player_box_is_named():
    d = copy.deepcopy(QUAD_GAME_JSON)
    d["players"][1]["box"]["hi"] = [float("nan")]
    with pytest.raises(SchemaError, match=re.escape("game.players[1].box.hi[0]: expected a finite")):
        game_from_dict(d)


def test_not_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(SchemaError):
        load(str(p))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_verify_holds(abs_problem_file, capsys):
    code = main(["verify", "--problem", abs_problem_file,
                 "--point", "0", "--concept", "weak-min"])
    assert code == 0
    assert "verify: holds" in capsys.readouterr().out


@pytest.fixture
def quad_problem_file(tmp_path):
    d = {"dim": 1, "name": "quad",
         "objectives": [{"lower": "u0^2", "upper": "3*u0^2"}],
         "box": {"lo": [-1], "hi": [1]}, "grid": {"points_per_dim": 401}}
    path = tmp_path / "quad.json"
    path.write_text(json.dumps(d))
    return str(path)


def test_cli_verify_fails(quad_problem_file, capsys):
    code = main(["verify", "--problem", quad_problem_file,
                 "--point", "1", "--concept", "weak-min"])
    assert code == 1
    assert "verify: fails" in capsys.readouterr().out


def test_cli_kkt_holds_at_minimum(abs_problem_file, tmp_path, capsys):
    report_path = tmp_path / "kkt.json"
    code = main(["kkt", "--problem", abs_problem_file, "--point", "0",
                 "--json", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["command"] == "kkt"
    assert report["verdict"] == "holds"
    assert report["residual"] <= 1e-9
    assert abs(sum(report["lambda"]) - 1.0) <= 1e-12
    assert set(report["config"]) == {"tolerances", "points_per_dim"}
    assert report["config"]["tolerances"]["tau_solver"] == 1e-8


@pytest.mark.parametrize("eps, verdict, code", [("0,5", "holds", 0), ("0,0.5", "fails", 1)])
def test_cli_cor41_eps_takes_the_lambda_that_meets_its_radius(tmp_path, eps, verdict, code):
    # at 0.5 the nearest point, lam = (1, 0), has residual 1 > 0; lam = (0, 1)
    # has residual 2, which eps = (0, 5) admits and eps = (0, 0.5) does not
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "dim": 1, "objectives": [{"lower": "u0", "upper": "3*u0"},
                                 {"lower": "2*u0", "upper": "6*u0"}],
        "box": {"lo": [0], "hi": [1]}}))
    report_path = tmp_path / "kkt.json"
    assert main(["kkt", "--problem", str(path), "--point=0.5", f"--cor41-eps={eps}",
                 "--json", str(report_path)]) == code
    report = json.loads(report_path.read_text())
    assert report["verdict"] == verdict
    if code == 0:
        assert report["lambda"] == pytest.approx([0.0, 1.0], abs=1e-12)
        assert report["residual"] == pytest.approx(2.0, abs=1e-12)


def test_cli_kkt_fails_off_minimum(quad_problem_file, capsys):
    code = main(["kkt", "--problem", quad_problem_file, "--point", "0.5"])
    assert code == 1


@pytest.mark.parametrize("model, point, verdict, code", [
    ("abs_problem_file", "0", "holds", 0), ("quad_problem_file", "0.5", "fails", 1)])
def test_cli_closed_stdout_keeps_the_exit_code_and_the_report(request, tmp_path, model,
                                                              point, verdict, code):
    # the reader of stdout has left before the verdict is printed
    report_path = tmp_path / "report.json"
    src = os.path.dirname(os.path.dirname(os.path.abspath(miopt.__file__)))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "miopt.cli", "kkt", "--problem",
                               request.getfixturevalue(model), "--point", point,
                               "--json", str(report_path)],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
    finally:
        os.close(write_end)
    assert proc.returncode == code
    assert proc.stderr == ""
    assert json.loads(report_path.read_text())["verdict"] == verdict


def test_cli_bcq(abs_problem_file, capsys):
    assert main(["bcq", "--problem", abs_problem_file, "--point", "0"]) == 0
    out = capsys.readouterr().out
    assert "distance" in out


def test_cli_infeasible_point_is_usage_error(abs_problem_file, capsys):
    code = main(["bcq", "--problem", abs_problem_file, "--point", "-1.5"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_cli_missing_file(capsys):
    assert main(["bcq", "--problem", "/nope/missing.json", "--point", "0"]) == 3


def test_cli_wrong_model_kind(quad_game_file, capsys):
    assert main(["kkt", "--problem", quad_game_file, "--point", "0,0"]) == 3


def test_cli_modkkt_not_found_is_inconclusive(quad_problem_file, capsys):
    # far from any stationary point with a tiny ball: nothing to find
    code = main(["modkkt", "--problem", quad_problem_file,
                 "--point", "1.0", "--eps", "0.0001"])
    assert code == 2
    assert "not-found-at-resolution" in capsys.readouterr().out


def test_cli_exist_descends(abs_problem_file, capsys):
    code = main(["exist", "--problem", abs_problem_file,
                 "--eps", "0.25,0.25", "--start", "2"])
    assert code == 0


def test_cli_prop21(abs_problem_file):
    assert main(["prop21", "--problem", abs_problem_file, "--eps0", "0.25"]) == 0


def test_cli_thm33(abs_problem_file):
    assert main(["thm33", "--problem", abs_problem_file,
                 "--point", "0", "--eps", "0.25,0.25"]) == 0


def test_cli_grid_override(abs_problem_file, tmp_path):
    report_path = tmp_path / "v.json"
    code = main(["verify", "--problem", abs_problem_file, "--point", "0",
                 "--concept", "weak-min", "--grid", "41",
                 "--json", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["config"]["points_per_dim"] == 41


def test_cli_tolerance_override(abs_problem_file, tmp_path):
    report_path = tmp_path / "k.json"
    main(["kkt", "--problem", abs_problem_file, "--point", "0",
          "--tau-act", "1e-4", "--json", str(report_path)])
    report = json.loads(report_path.read_text())
    assert report["config"]["tolerances"]["tau_act"] == 1e-4


NEGATIVE_TAU = {"dim": 1, "objectives": [{"lower": "u0^2", "upper": "3*u0^2"}],
                "box": {"lo": [-1], "hi": [1]}}


def test_negative_file_tolerance_exits_3_naming_the_field(tmp_path, capsys):
    # it loaded, and kkt refuted the stationary point 0 with threshold -1
    path = tmp_path / "p.json"
    path.write_text(json.dumps(dict(NEGATIVE_TAU, tolerances={"tau_solver": -1})))
    assert main(["kkt", "--problem", str(path), "--point", "0"]) == 3
    assert capsys.readouterr().err == (f"error: {path}.tolerances.tau_solver: "
                                       "expected a finite number >= 0, got -1.0\n")


def test_negative_tolerance_flag_exits_3(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(NEGATIVE_TAU))
    assert main(["kkt", "--problem", str(path), "--point", "0", "--tau-solver", "-1"]) == 3
    assert "tau_solver: expected a finite number >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["abs_problem_file", "quad_game_file"])
def test_file_with_the_retired_mu_max_loads_and_saves_without_it(request, tmp_path, model):
    # every file the io.save of earlier releases wrote carries tolerances.mu_max
    with open(request.getfixturevalue(model), encoding="utf-8") as fh:
        d = json.load(fh)
    d["tolerances"] = {"tau_feas": 1e-9, "tau_act": 1e-4, "tau_solver": 1e-8, "mu_max": 1000.0}
    path = tmp_path / "old.json"
    path.write_text(json.dumps(d))
    loaded = load(str(path))
    assert loaded.tolerances.tau_act == 1e-4
    save(loaded, str(tmp_path / "new.json"))
    saved = json.loads((tmp_path / "new.json").read_text())
    assert saved["tolerances"] == {"tau_feas": 1e-9, "tau_act": 1e-4, "tau_solver": 1e-8}
    # it is still read as a number
    d["tolerances"]["mu_max"] = float("nan")
    path.write_text(json.dumps(d))
    with pytest.raises(SchemaError, match=re.escape("tolerances.mu_max: expected a finite")):
        load(str(path))


@pytest.mark.parametrize("argv", [
    ["kkt", "--problem", "p.json"],
    ["kkt", "--problem", "p.json", "--point", "0", "--radius", "abc"],
    ["nosuch"],
    [],
    ["kkt", "--problem", "p.json", "--point", "0", "--mu-max", "50"],
])
def test_usage_errors_exit_3(argv, capsys):
    # argparse exits 2, the code of inconclusive
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("error: miopt")


def test_help_exits_0_and_lists_no_mu_max(capsys):
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    for argv in [[]] + [[name] for name in commands]:
        with pytest.raises(SystemExit) as exc_info:
            main(argv + ["--help"])
        assert exc_info.value.code == 0
        assert "--mu-max" not in capsys.readouterr().out


def test_cli_infeasible_point_message_prints_plain_floats(tmp_path, capsys):
    doc = {"dim": 1, "objectives": [{"lower": "u0", "upper": "u0+1"}],
           "constraints": ["0.5-u0"], "box": {"lo": [-1], "hi": [1]}}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    for command in ("kkt", "bcq"):
        assert main([command, "--problem", str(path), "--point", "0"]) == 3
        assert "error: point [0.0] is infeasible" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--point=0", "--concept=weak-eps-min", "--eps=nan"],
    ["verify", "--point=0", "--concept=weak-min", "--grid=0"],
    ["verify", "--point=nan", "--concept=weak-min"],
    ["prop21", "--eps0=nan"],
    ["seqkkt", "--point=0", "--xs=0.1;0", "--eps-seq=nan,0.1"],
    ["seqkkt", "--point=0", "--xs=inf;0", "--eps-seq=0.1"],
    ["epskkt", "--point=0", "--eps=0.1", "--delta=nan"],
    ["modkkt", "--point=0", "--eps=nan"],
    ["kkt", "--point=0", "--radius=nan"],
    ["kkt", "--point=0", "--radius=inf"],
    ["kkt", "--point=0", "--tau-act=nan"],
    ["kkt", "--point=0", "--cor41-eps=-inf"],
    ["exist", "--eps=0.1", "--start=inf"],
])
def test_cli_non_finite_number_is_usage_error(abs_problem_file, capsys, argv):
    # each gave a verdict (or exit 2) computed from NaN, or ignored --grid=0
    assert main(argv[:1] + ["--problem", abs_problem_file] + argv[1:]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_cli_game_verify_holds(quad_game_file, capsys):
    code = main(["game-verify", "--game", quad_game_file, "--point", "0.5,0.5",
                 "--concept", "ne", "--eps", "0.1"])
    assert code == 0


def test_cli_game_verify_reports_deviation(quad_game_file, capsys):
    code = main(["game-verify", "--game", quad_game_file, "--point", "0,1",
                 "--concept", "ne", "--eps", "0.01"])
    assert code == 1
    assert "improving deviation: player 0" in capsys.readouterr().out


def test_cli_game_kkt(quad_game_file, tmp_path):
    report_path = tmp_path / "gk.json"
    code = main(["game-kkt", "--game", quad_game_file, "--point", "0.5,0.5",
                 "--eps", "0.1", "--json", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert len(report["players"]) == 2
    assert all(p["residual"] <= 1e-8 for p in report["players"])


def test_cli_game_sufficiency(quad_game_file):
    assert main(["game-sufficiency", "--game", quad_game_file,
                 "--point", "0.5,0.5", "--eps", "0.1"]) == 0


def test_cli_seqkkt(abs_problem_file):
    xs = ";".join(str(1.0 / i) for i in range(1, 120))
    eps = ",".join(str(1.0 / i ** 2) for i in range(1, 4))
    assert main(["seqkkt", "--problem", abs_problem_file, "--point", "0",
                 "--xs", xs, "--eps-seq", eps]) == 0


# ---------------------------------------------------------------------------
# One schema: a problem and a game player are read by the same block reader
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind, field, value", [
    ("problem", "variables", 5),
    ("problem", "variables", "u"),
    ("problem", "variables", ["u", 1]),
    ("problem", "name", ["x"]),
    ("game", "name", {"a": 1}),
])
def test_name_and_variables_have_one_type(tmp_path, kind, field, value):
    # variables=5 was a TypeError traceback (exit 1); the others loaded and saved
    d = copy.deepcopy(ABS_PROBLEM_JSON if kind == "problem" else QUAD_GAME_JSON)
    d[field] = value
    path = tmp_path / "m.json"
    path.write_text(json.dumps(d))
    expected = "a list of strings" if field == "variables" else "a string"
    with pytest.raises(SchemaError) as exc_info:
        load(str(path))
    # the path prefix is added once
    assert str(exc_info.value) == f"{path}.{field}: expected {expected}"


def test_variables_of_the_wrong_type_exit_3(tmp_path, capsys):
    d = dict(copy.deepcopy(ABS_PROBLEM_JSON), variables=5)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(d))
    assert main(["verify", "--problem", str(path), "--point", "0", "--concept", "weak-min"]) == 3
    assert capsys.readouterr().err == f"error: {path}.variables: expected a list of strings\n"


def test_variables_and_name_round_trip():
    d = dict(copy.deepcopy(ABS_PROBLEM_JSON), variables=["x"])
    prob = problem_from_dict(d)
    assert prob.metadata["variables"] == ["x"]
    assert serialize(prob)["variables"] == ["x"]
    assert serialize(prob)["name"] == "abs-pair"


@pytest.mark.parametrize("block, field, message", [
    ({"box": {"lo": [1], "hi": [0]}}, "box", "box must have lo < hi, got [1.0, 0.0]"),
    ({"box": {"lo": [0], "hi": [0]}}, "box", "box must have lo < hi, got [0.0, 0.0]"),
    ({"grid": {"points_per_dim": 1}}, "grid.points_per_dim", "expected at least 2, got 1"),
    ({"grid": {"points_per_dim": 0}}, "grid.points_per_dim", "expected at least 2, got 0"),
    ({"dim": 5}, "dim", "grids cover dimensions 1 to 4, got 5"),
    ({"grid": {"points_per_dim": 10**8}}, "grid.points_per_dim",
     "grid of 100000000 points exceeds cap 10000000"),
])
@pytest.mark.parametrize("kind", ["problem", "player"])
def test_bad_block_is_rejected_at_load_for_both_kinds(tmp_path, kind, block, field, message):
    # a player's flipped box loaded and made every profile infeasible, and its
    # one-point, 5-D or oversized grid failed at the first query; a problem's
    # grid failed with a GridError that named no field
    if kind == "problem":
        d = copy.deepcopy(ABS_PROBLEM_JSON)
        d.update(block)
        where = "m.json"
    else:
        d = copy.deepcopy(QUAD_GAME_JSON)
        d["players"][1].update(block)
        where = "m.json.players[1]"
    path = tmp_path / "m.json"
    path.write_text(json.dumps(d))
    with pytest.raises(SchemaError) as exc_info:
        load(str(path))
    assert str(exc_info.value) == f"{tmp_path / where}.{field}: {message}"


# ---------------------------------------------------------------------------
# One grid rule: --grid, else the file's grid, else the default
# ---------------------------------------------------------------------------

def test_spec_for_reads_the_files_grid(tmp_path):
    from miopt.grid import GridError, spec_for

    path = tmp_path / "p.json"
    path.write_text(json.dumps(dict(ABS_PROBLEM_JSON, grid={"points_per_dim": 51})))
    prob = load(str(path))
    assert spec_for(prob).points_per_dim == 51
    assert spec_for(prob, 41).points_per_dim == 41
    with pytest.raises(GridError):
        spec_for(prob, 0)
    # and without a grid in the file, the default for the dimension
    del_grid = {k: v for k, v in ABS_PROBLEM_JSON.items() if k != "grid"}
    assert spec_for(problem_from_dict(del_grid)).points_per_dim == 401
    assert serialize(prob)["grid"] == {"points_per_dim": 51}


@pytest.mark.parametrize("argv, ppd", [([], 51), (["--grid", "41"], 41)])
def test_cli_grid_is_the_flag_else_the_files(tmp_path, argv, ppd):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(dict(ABS_PROBLEM_JSON, grid={"points_per_dim": 51})))
    report_path = tmp_path / "v.json"
    assert main(["verify", "--problem", str(path), "--point", "0", "--concept", "weak-min",
                 "--json", str(report_path)] + argv) == 0
    assert json.loads(report_path.read_text())["config"]["points_per_dim"] == ppd


@pytest.mark.parametrize("workload", ["scan", "certify", "game", "cli"])
def test_benchmark_problem_files_carry_the_default_grid(workload):
    # spec_for reads a file's grid, so a generated file with any other grid
    # would change what the benchmark measures
    from miopt.grid import default_points_per_dim, spec_for
    from perfbench import gen

    for seed in (1, 2, 3):
        for variant in (0, 1):
            docs = getattr(gen, f"{workload}_inputs")(seed, variant)["docs"]
            for doc in docs.values():
                if "players" in doc:
                    continue
                ppd = default_points_per_dim(doc["dim"])
                assert doc["grid"] == {"points_per_dim": ppd}
                assert spec_for(problem_from_dict(doc)).points_per_dim == ppd
