"""Task lists of the four workloads and the calls each task makes into
``miopt``.

A workload is built from a seed: its input documents are written as
files, loaded with ``miopt.io.load``, and each task receives only the
loaded problem or game and its generated arguments.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import gen

WORKLOADS = ("scan", "certify", "game", "cli")


@dataclass
class Task:
    id: int
    kind: str
    key: str                     # input file the task reads
    args: dict = field(default_factory=dict)


@dataclass
class Workload:
    files: dict                  # key -> path of the input file
    tasks: list
    models: dict = field(default_factory=dict)     # key -> loaded model


def _write(workdir, docs):
    files = {}
    for key, doc in docs.items():
        path = os.path.join(workdir, f"{key}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        files[key] = path
    return files


def _tasks(specs):
    return [Task(i, kind, key, args) for i, (kind, key, args) in enumerate(specs)]


def _cli_tasks(inp, files, workdir):
    """One task per miopt subcommand, each writing a --json report, the
    in-process game predicate queries, and an io.save -> io.load round
    trip of every input file."""
    specs = []
    for n, (key, argv, verdict) in enumerate(inp["runs"]):
        flag = "--game" if key in ("game", "quad_game") else "--problem"
        report = os.path.join(workdir, f"report{n}.json")
        # README and fixture cases are known answers; the rest are planted
        expect = "known" if key in ("abs_pair", "quad_game") else "planted"
        specs.append(("cli", key, {"argv": argv[:1] + [flag, files[key]] + argv[1:]
                                   + ["--json", report], "report": report, expect: verdict}))
    specs += inp["tasks"]
    for key in files:
        specs.append(("roundtrip", key, {"copy": os.path.join(workdir, f"{key}.copy.json")}))
    return _tasks(specs)


# passes cycle over this many independently generated inputs per seed, so
# that one unlucky input moves the median over passes by at most one place
VARIANTS = {"scan": 1, "certify": 4, "game": 4, "cli": 2}


def build(name: str, seed: int, variant: int, workdir: str) -> Workload:
    make = {"scan": gen.scan_inputs, "certify": gen.certify_inputs,
            "game": gen.game_inputs, "cli": gen.cli_inputs}[name]
    inp = make(seed, variant)
    os.makedirs(workdir)
    files = _write(workdir, inp["docs"])
    tasks = _cli_tasks(inp, files, workdir) if name == "cli" else _tasks(inp["tasks"])
    return Workload(files, tasks)


# ---------------------------------------------------------------------------
# Running one task
# ---------------------------------------------------------------------------

class Runner:
    """Runs tasks against ``miopt`` (imported by the caller from the
    checkout's src).  With a span recorder set, every task gets a
    ``bench.<kind>`` span and cli tasks run under the span-recording shim
    ``cli_child.py``, whose spans are grafted under a ``cli.process`` span."""

    def __init__(self, miopt, env: dict, cli_child: str):
        self.m = miopt
        self.env = env
        self.cli_child = cli_child
        self.rec = None
        self.child_rss_kb = 0

    def load(self, wl: Workload) -> None:
        wl.models = {k: self.m.io.load(p) for k, p in wl.files.items()}

    def run(self, wl: Workload, t: Task):
        return getattr(self, f"_{t.kind}")(wl.models.get(t.key), t.args)

    # scan ------------------------------------------------------------------
    def _prop21(self, p, a):
        return self.m.grid.check_prop_2_1(p, a["eps0"], self.m.grid.spec_for(p))

    def _mask(self, p, fn, eps):
        pts = self.m.grid.feasible_grid(p, self.m.grid.spec_for(p))
        table = self.m.grid.value_table(p, pts)
        return pts, fn(p, table, eps)

    def _quasi_mask(self, p, a):
        return self._mask(p, self.m.grid.quasi_minimal_mask, a["eps"])

    def _eps_mask(self, p, a):
        return self._mask(p, self.m.grid.eps_minimal_mask, a["eps"])

    def _thm33(self, p, a):
        return self.m.grid.check_thm_3_3(p, a["point"], a["eps"], self.m.grid.spec_for(p))

    def _quasi_existence(self, p, a):
        return self.m.evp.quasi_existence(p, a["eps"], self.m.grid.spec_for(p))

    # certify ---------------------------------------------------------------
    def _kkt(self, p, a):
        return self.m.certificates.kkt_check(p, a["point"])

    def _kkt_cor41(self, p, a):
        return self.m.certificates.kkt_check(p, a["point"], cor41_eps=a["eps"])

    def _bcq(self, p, a):
        return self.m.certificates.bcq_check(p, a["point"])

    def _eps_kkt(self, p, a):
        return self.m.certificates.eps_kkt_thm_4_1(p, a["point"], a["eps"], a["delta"],
                                                   self.m.grid.spec_for(p))

    def _kkt_sequence(self, p, a):
        return self.m.certificates.approx_kkt_sequence(p, a["point"], a["xs"], a["eps_seq"],
                                                       self.m.grid.spec_for(p))

    def _sufficiency(self, p, a):
        return self.m.certificates.sufficiency_thm_4_3(p, a["point"], a["eps"],
                                                       self.m.grid.GridSpec(a["ppd"]))

    def _modified_kkt(self, p, a):
        return self.m.certificates.modified_eps_kkt(p, a["point"], a["epsilon"],
                                                    self.m.grid.spec_for(p))

    def _genconvex(self, p, a):
        return self.m.certificates.gen_convexity_check(p, a["point"], a["samples"])

    # game ------------------------------------------------------------------
    def _ne(self, g, a):
        return self.m.game.is_w_eps_ne(g, a["point"], a["eps"])

    def _ne_direct(self, g, a):
        return self.m.game.is_w_eps_ne_direct(g, a["point"], a["eps"])

    def _qne(self, g, a):
        return self.m.game.is_w_eps_qne(g, a["point"], a["eps"])

    def _qne_direct(self, g, a):
        return self.m.game.is_w_eps_qne_direct(g, a["point"], a["eps"])

    def _game_kkt_5_2(self, g, a):
        return self.m.game.game_kkt(g, a["point"], a["eps"], mode="thm_5_2")

    def _game_kkt_5_1(self, g, a):
        return self.m.game.game_kkt(g, a["point"], a["eps"], mode="thm_5_1", delta=a["delta"])

    def _game_sufficiency(self, g, a):
        return self.m.game.game_sufficiency(g, a["point"], a["eps"])

    # cli -------------------------------------------------------------------
    def _cli(self, model, a):
        spans = a["report"] + ".spans"
        if self.rec is None:
            cmd = [sys.executable, "-m", "miopt.cli"] + a["argv"]
        else:
            cmd = [sys.executable, self.cli_child, spans] + a["argv"]
            span = self.rec.begin("cli.process")
        with open(a["report"] + ".stderr", "w", encoding="utf-8") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if self.rec is not None:
            self.rec.end(span)
            self.rec.graft(self.rec.read(spans), span)
            os.remove(spans)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return proc.returncode

    def _roundtrip(self, model, a):
        self.m.io.save(model, a["copy"])
        again = self.m.io.load(a["copy"])
        return model, again


def time_pass(runner: Runner, wl: Workload, task_base: int = 0):
    """One closed-loop pass: the next task starts when the previous one
    has finished.  Returns (per-task seconds, outputs, errors by task id)."""
    rec = runner.rec
    times, outputs, errors = [], [], {}
    for t in wl.tasks:
        if rec is not None:
            rec.task = task_base + t.id
            span = rec.begin(f"bench.{t.kind}")
        t0 = time.perf_counter()
        try:
            out = runner.run(wl, t)
        except Exception as exc:  # a raising task is a failed task, reported by id
            out = None
            errors[t.id] = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        if rec is not None:
            rec.end(span)
            rec.task = None
        outputs.append(out)
    return times, outputs, errors
