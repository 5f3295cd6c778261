"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def _canon(x):
    return json.dumps(x, sort_keys=True, default=lambda a: np.asarray(a).tolist())


@pytest.mark.parametrize("make", [gen.scan_inputs, gen.certify_inputs, gen.game_inputs,
                                  gen.cli_inputs])
def test_generator_is_deterministic_per_seed(make):
    def inputs(seed, variant=0):
        inp = make(seed, variant)
        return _canon(inp["docs"]), _canon(inp.get("tasks")), _canon(inp.get("runs"))

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)
    assert inputs(7) != inputs(7, variant=1)


def test_scan_feasible_count_does_not_depend_on_seed():
    counts = set()
    for seed in (1, 2, 3):
        fam = gen.scan_inputs(seed)["families"]["p3"]
        counts.add(int(fam.feasible_mask(gen.grid_array(3, 21)).sum()))
    assert max(counts) - min(counts) <= 0.01 * max(counts)


def test_generator_survives_a_small_feasible_set():
    # on this seed a kink moved onto an active constraint leaves fewer
    # feasible grid points than the random queries ask for
    inp = gen.certify_inputs(612, 1)
    assert len(inp["tasks"]) == len(gen.certify_inputs(612, 0)["tasks"])


def test_generated_problems_use_the_default_tolerances():
    for make in (gen.scan_inputs, gen.certify_inputs, gen.cli_inputs):
        for doc in make(3)["docs"].values():
            assert "tolerances" not in doc
            for player in doc.get("players", ()):
                assert "tolerances" not in player


def test_generated_files_load():
    import miopt

    inp = gen.certify_inputs(5)
    for doc in inp["docs"].values():
        miopt.io.problem_from_dict(json.loads(json.dumps(doc)))
    for doc in gen.game_inputs(5)["docs"].values():
        miopt.io.game_from_dict(json.loads(json.dumps(doc)))


# ---------------------------------------------------------------------------
# Output checks catch planted wrong verdicts
# ---------------------------------------------------------------------------

@pytest.fixture
def abs_pair():
    import miopt

    return miopt.io.problem_from_dict(json.loads(json.dumps(gen.ABS_PAIR)))


def test_certificate_check_accepts_a_true_certificate(abs_pair):
    import miopt

    rep = miopt.certificates.kkt_check(abs_pair, [0.0])
    assert rep.verdict == "holds"
    assert checks.certificate_error(rep) is None


def test_certificate_check_catches_wrong_verdicts(abs_pair):
    import dataclasses

    import miopt

    quad = miopt.io.problem_from_dict(json.loads(json.dumps(gen.QUAD)))
    rep = miopt.certificates.kkt_check(quad, [0.5])
    assert rep.verdict == "fails"
    assert checks.certificate_error(rep) is None
    planted = dataclasses.replace(rep, verdict="holds")
    assert "residual" in checks.certificate_error(planted)
    good = miopt.certificates.kkt_check(abs_pair, [0.0])
    off_simplex = dataclasses.replace(good, lam=good.lam * 2)
    assert "simplex" in checks.certificate_error(off_simplex)
    negative_mu = dataclasses.replace(good, mu=-np.ones_like(good.mu))
    assert checks.certificate_error(negative_mu)


def _task(kind, key, **args):
    return workloads.Task(0, kind, key, args)


def test_known_answer_and_cli_exit_checks(tmp_path):
    wl = workloads.Workload({}, [])
    ck = checks.Checker(None, wl, 0)
    report = tmp_path / "r.json"
    report.write_text(json.dumps({"verdict": "fails"}))
    t = _task("cli", "x", report=str(report), known=None)
    assert ck.check(t, 1) is None
    assert "exit code" in ck.check(t, 0)
    t = _task("cli", "x", report=str(report), known="holds")
    assert "expected" in ck.check(t, 1)


def test_mask_check_catches_a_flipped_entry(abs_pair):
    import miopt

    spec = miopt.grid.GridSpec(41)
    pts = miopt.grid.feasible_grid(abs_pair, spec)
    table = miopt.grid.value_table(abs_pair, pts)
    mask = miopt.grid.eps_minimal_mask(abs_pair, table, [0.1, 0.1])
    wl = workloads.Workload({}, [], models={"p": abs_pair})
    t = _task("eps_mask", "p", eps=[0.1, 0.1])
    assert checks.Checker(miopt, wl, 0).check(t, (pts, mask)) is None
    wrong = ~mask
    assert checks.Checker(miopt, wl, 0).check(t, (pts, wrong)) is not None


def test_game_paths_must_agree():
    point = np.array([0.5, 0.5])
    tasks = [workloads.Task(0, "ne", "g", {"point": point}),
             workloads.Task(1, "ne_direct", "g", {"point": point})]
    wl = workloads.Workload({}, tasks)
    assert checks.pass_checks(wl, [True, True], {}) == {}
    assert set(checks.pass_checks(wl, [True, False], {})) == {0, 1}


# ---------------------------------------------------------------------------
# Self time on a synthetic span tree
# ---------------------------------------------------------------------------

def _tree():
    # task 1: root [0, 100] with children a [10, 40] (grandchild [15, 25])
    # and b [50, 90]; task 2: root [200, 260] with overlapping children
    return [
        Span(0, "bench.x", 0, 100, None, 1),
        Span(1, "grid.a", 10, 40, 0, 1),
        Span(2, "expr.c", 15, 25, 1, 1),
        Span(3, "certificates.b", 50, 90, 0, 1),
        Span(4, "bench.y", 200, 260, None, 2),
        Span(5, "io.load", 210, 230, 4, 2),
        Span(6, "io.save", 220, 250, 4, 2),
    ]


def test_self_time_subtracts_the_union_of_children():
    selfs = tracing.self_times(_tree())
    assert selfs == {0: 100 - 30 - 40, 1: 30 - 10, 2: 10, 3: 40,
                     4: 60 - 40, 5: 20, 6: 30}


def test_self_times_add_up_to_each_task_span():
    # a single-threaded recorder never overlaps siblings
    spans = _tree()[:4] + [Span(4, "bench.y", 200, 260, None, 2),
                           Span(5, "io.load", 210, 230, 4, 2),
                           Span(6, "io.save", 230, 250, 4, 2)]
    selfs = tracing.self_times(spans)
    assert tracing.task_self_mismatches(spans, selfs) == []
    assert sum(selfs[i] for i in (0, 1, 2, 3)) == 100
    broken = spans + [Span(7, "grid.z", 95, 130, 0, 1)]   # leaks out of its parent
    assert tracing.task_self_mismatches(broken, tracing.self_times(broken)) == [1]


def test_layer_metrics_on_synthetic_spans():
    spans = _tree()
    spans[1].name, spans[1].counts = "grid.value_table", {"evals": 10}
    m = tracing.layer_metrics(spans)
    assert m["grid.value_table_ms"] == 30 / 1e6
    assert m["expr.eval_ns"] == 3.0
    assert m["grid.self_ms"] == 20 / 1e6
    assert m["bench.self_ms"] == (30 + 20) / 1e6
    assert m["io.load_ms"] == 20 / 1e6


def test_recorder_nests_and_grafts():
    rec = tracing.Recorder()
    rec.task = 3
    outer = rec.begin("bench.t")
    inner = rec.begin("grid.feasible_grid")
    rec.end(inner)
    child = [Span(0, "cli.import", outer.start, outer.start, None, None),
             Span(1, "io.load", outer.start, outer.start, 0, None)]
    rec.graft(child, outer)
    rec.end(outer)
    by_name = {s.name: s for s in rec.spans}
    assert by_name["grid.feasible_grid"].parent == outer.id
    assert by_name["cli.import"].parent == outer.id
    assert by_name["io.load"].parent == by_name["cli.import"].id
    assert {s.task for s in rec.spans} == {3}
    assert len({s.id for s in rec.spans}) == len(rec.spans)
