"""In-memory span recorder, the wrappers that put spans around the public
functions of each ``miopt`` module, and the per-layer metrics derived
from the spans.

A span has a name, a start and an end (``time.perf_counter_ns``, which is
CLOCK_MONOTONIC on Linux and so comparable across processes), a parent
span and a task id.  Spans stay in memory until the run ends.  A span's
self time is its duration minus the part of it that its child spans
cover; over one task the self times of all its spans add up to the task
span exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("grid", "expr", "problem", "evp", "certificates", "game", "io", "cli")


@dataclass
class Span:
    id: int
    name: str
    start: int
    end: int
    parent: int | None
    task: int | None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """Single-threaded span stack; ``spans`` lists spans in start order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next = 0
        self.task: int | None = None

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(self._next, name, time.perf_counter_ns(), 0, parent, self.task)
        self._next += 1
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def graft(self, spans: list[Span], parent: Span) -> None:
        """Attach spans recorded in another process under ``parent``."""
        base = self._next
        for s in spans:
            self.spans.append(Span(base + s.id, s.name, s.start, s.end,
                                   parent.id if s.parent is None else base + s.parent,
                                   parent.task, s.counts))
        self._next = base + 1 + max((s.id for s in spans), default=0)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.__dict__ for s in self.spans], fh)

    @staticmethod
    def read(path: str) -> list[Span]:
        with open(path, encoding="utf-8") as fh:
            return [Span(**d) for d in json.load(fh)]


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals,
    clipped to the span."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = s.duration - covered
    return out


def task_self_mismatches(spans: list[Span], selfs: dict[int, int]) -> list[int]:
    """Tasks whose spans' self times do not add up to the task span."""
    by_task: dict[int, list[Span]] = {}
    for s in spans:
        if s.task is not None:
            by_task.setdefault(s.task, []).append(s)
    bad = []
    for task, group in by_task.items():
        roots = [s for s in group if s.parent is None or s.parent not in
                 {g.id for g in group}]
        if sum(selfs[s.id] for s in group) != sum(r.duration for r in roots):
            bad.append(task)
    return bad


# ---------------------------------------------------------------------------
# Instrumentation: wrap public functions of each miopt module
# ---------------------------------------------------------------------------

def _deviation_points(args, kwargs, out):
    game, i = args[0], args[1]
    pl = game.players[i]
    from miopt.game import player_spec

    ppd = player_spec(game, i).points_per_dim
    if out is None:
        return {"deviation_points": ppd ** pl.dim}
    idx = 0
    for d in range(pl.dim):
        step = (pl.box_hi[d] - pl.box_lo[d]) / (ppd - 1)
        idx = idx * ppd + int(round((float(out[d]) - pl.box_lo[d]) / step))
    return {"deviation_points": idx + 1}


def _validity_points(args, kwargs, out):
    from miopt.game import Game, player_spec

    if isinstance(out, Game):
        n = sum(player_spec(out, i).points_per_dim ** pl.dim
                for i, pl in enumerate(out.players))
    else:
        n = out.metadata["points_per_dim"] ** out.dim
    return {"validity_points": n}


def _candidates(args, kwargs, out):
    return {"candidates": len(kwargs.get("candidates", args[-1]))}


# module -> function -> counter(args, kwargs, result) giving the span's counts
TARGETS = {
    "grid": {
        "grid_points": lambda a, k, o: {"points": len(o)},
        "feasible_grid": lambda a, k, o: {"feasible_points": len(o)},
        "value_table": lambda a, k, o: {"evals": 2 * o.centers.size},
        "quasi_minimal_mask": lambda a, k, o: {"pairs": len(o) ** 2},
        "eps_minimal_mask": lambda a, k, o: {"pairs": len(o) ** 2},
        "check_prop_2_1": lambda a, k, o: {"checked": o.checked},
        "check_thm_3_3": None,
    },
    "problem": {
        "is_weak_minimal": _candidates,
        "is_weak_eps_minimal": _candidates,
        "is_weak_eps_quasi_minimal": _candidates,
        "restrict_to_ball": lambda a, k, o: {"ball": len(o)},
    },
    "expr": {
        "weak_gen_gradient": lambda a, k, o: {"generators": len(o.generators),
                                              "inexact": int(not o.exact)},
        "clarke_subdiff": lambda a, k, o: {"generators": len(o.generators),
                                           "inexact": int(not o.exact)},
    },
    "evp": {
        "descent_eps_minimal": lambda a, k, o: {"steps": len(o[1].iterates) - 1},
        "evp_descent": lambda a, k, o: {"steps": len(o[1].trace.iterates) - 1},
        "evp_descent_vector": lambda a, k, o: {"steps": len(o[1].trace.iterates) - 1},
        "quasi_existence": None,
    },
    "certificates": {
        "min_norm_over_multipliers": lambda a, k, o: {"iters": o.iterations,
                                                      "mu_capped": int(o.mu_capped)},
        "hull_distance": None,
        "kkt_check": lambda a, k, o: {"mu_capped_fails": int(o.verdict == "fails"
                                                              and o.mu_capped)},
        "bcq_check": None,
        "eps_kkt_thm_4_1": lambda a, k, o: {"found": int(o.verdict == "holds")},
        "modified_eps_kkt": lambda a, k, o: {"found": int(o.verdict == "holds")},
        "approx_kkt_sequence": lambda a, k, o: {"found": sum(e.ok for e in o.entries)},
        "gen_convexity_check": lambda a, k, o: {"samples": o.samples_checked,
                                                "stalled": len(o.stalled_samples)},
        "sufficiency_thm_4_3": None,
    },
    "game": {
        "fix_opponents": None,
        "find_deviation": _deviation_points,
        "is_w_eps_ne": None,
        "is_w_eps_qne": None,
        "is_w_eps_ne_direct": None,
        "is_w_eps_qne_direct": None,
        "game_kkt": None,
        "game_sufficiency": None,
    },
    "io": {
        "load": _validity_points,
        "save": None,
    },
}


def _wrap(rec: Recorder, name: str, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.end(span)
        if counter is not None:
            span.counts = counter(args, kwargs, out)
        return out
    return wrapper


def instrument(rec: Recorder):
    """Replace every TARGETS function, in every miopt module namespace that
    holds it, by a span-recording wrapper; returns a function that undoes it."""
    importlib.import_module("miopt.cli")
    namespaces = [m for name, m in sys.modules.items()
                  if (name == "miopt" or name.startswith("miopt.")) and m is not None]
    undo = []
    for mod_name, funcs in TARGETS.items():
        mod = sys.modules[f"miopt.{mod_name}"]
        for fname, counter in funcs.items():
            orig = getattr(mod, fname)
            wrapped = _wrap(rec, f"{mod_name}.{fname}", orig, counter)
            for ns in namespaces:
                for attr, val in list(vars(ns).items()):
                    if val is orig:
                        setattr(ns, attr, wrapped)
                        undo.append((ns, attr, orig))

    def restore():
        for ns, attr, orig in reversed(undo):
            setattr(ns, attr, orig)
    return restore


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# name -> unit; the order is the order of the report
LAYER_METRICS = {
    "grid.quasi_mask_ms": "ms", "grid.eps_mask_ms": "ms", "grid.prop21_ms": "ms",
    "grid.thm33_ms": "ms", "grid.pairs": "count", "grid.pair_ns": "ns",
    "grid.prop21_checked": "count", "grid.feasible_grid_ms": "ms",
    "grid.value_table_ms": "ms", "grid.points": "count", "grid.feasible_points": "count",
    "expr.eval_ns": "ns", "expr.subdiff_us": "us", "expr.generators": "count",
    "expr.inexact_frac": "ratio",
    "problem.predicate_ms": "ms", "problem.candidates": "count",
    "evp.quasi_existence_ms": "ms", "evp.descent_steps": "count", "evp.evp_steps": "count",
    "certificates.kkt_ms": "ms", "certificates.min_norm_ms": "ms",
    "certificates.solver_iters_p50": "count", "certificates.solver_iters_max": "count",
    "certificates.mu_capped_fails": "count", "certificates.bcq_ms": "ms",
    "certificates.search_ms": "ms", "certificates.ball_points": "count",
    "certificates.search_hit_ratio": "ratio", "certificates.genconvex_ms": "ms",
    "certificates.genconvex_samples": "count", "certificates.genconvex_stalled": "count",
    "game.reduce_ms": "ms", "game.ne_ms": "ms", "game.ne_direct_ms": "ms",
    "game.deviation_points": "count", "game.kkt_ms": "ms", "game.sufficiency_ms": "ms",
    "io.load_ms": "ms", "io.save_ms": "ms", "io.validity_points": "count",
    "cli.process_ms": "ms", "cli.import_ms": "ms",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "bench.self_ms": "ms", "bench.planted_misses": "count",
    "trace.spans": "count", "trace.self_mismatch": "count",
    "trace.overhead_s": "s", "trace.overhead_frac": "ratio",
}

_SEARCHES = ("certificates.eps_kkt_thm_4_1", "certificates.modified_eps_kkt",
             "certificates.approx_kkt_sequence")
_SUBDIFF = ("expr.weak_gen_gradient", "expr.clarke_subdiff")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (trace.overhead_* are filled in
    by the caller, which also ran the pass untraced)."""
    by_id = {s.id: s for s in spans}

    def has_ancestor(s, names):
        p = s.parent
        while p is not None and p in by_id:
            if by_id[p].name in names:
                return True
            p = by_id[p].parent
        return False

    def outer(names):
        names = (names,) if isinstance(names, str) else names
        return [s for s in spans if s.name in names and not has_ancestor(s, names)]

    def ms(names):
        return sum(s.duration for s in outer(names)) / 1e6

    def count(names, key):
        names = (names,) if isinstance(names, str) else names
        return sum(s.counts.get(key, 0) for s in spans if s.name in names)

    selfs = self_times(spans)
    masks = ("grid.quasi_minimal_mask", "grid.eps_minimal_mask")
    pairs = count(masks, "pairs")
    evals = count("grid.value_table", "evals")
    subdiff = outer(_SUBDIFF)
    subdiff_tasks = {s.task for s in subdiff}
    iters = [s.counts["iters"] for s in spans if s.name == "certificates.min_norm_over_multipliers"]
    searches = outer(_SEARCHES)
    ball = sum(s.counts.get("ball", 0) for s in spans
               if s.name == "problem.restrict_to_ball" and has_ancestor(s, _SEARCHES))
    predicates = ("problem.is_weak_minimal", "problem.is_weak_eps_minimal",
                  "problem.is_weak_eps_quasi_minimal")

    out = {
        "grid.quasi_mask_ms": ms("grid.quasi_minimal_mask"),
        "grid.eps_mask_ms": ms("grid.eps_minimal_mask"),
        "grid.prop21_ms": ms("grid.check_prop_2_1"),
        "grid.thm33_ms": ms("grid.check_thm_3_3"),
        "grid.pairs": pairs,
        "grid.pair_ns": ms(masks) * 1e6 / pairs if pairs else 0.0,
        "grid.prop21_checked": count("grid.check_prop_2_1", "checked"),
        "grid.feasible_grid_ms": ms("grid.feasible_grid"),
        "grid.value_table_ms": ms("grid.value_table"),
        "grid.points": count("grid.grid_points", "points"),
        "grid.feasible_points": count("grid.feasible_grid", "feasible_points"),
        "expr.eval_ns": ms("grid.value_table") * 1e6 / evals if evals else 0.0,
        "expr.subdiff_us": (sum(s.duration for s in subdiff) / 1e3 / len(subdiff_tasks)
                            if subdiff_tasks else 0.0),
        "expr.generators": sum(s.counts["generators"] for s in subdiff),
        "expr.inexact_frac": (sum(s.counts["inexact"] for s in subdiff) / len(subdiff)
                              if subdiff else 0.0),
        "problem.predicate_ms": ms(predicates),
        "problem.candidates": count(predicates, "candidates"),
        "evp.quasi_existence_ms": ms("evp.quasi_existence"),
        "evp.descent_steps": count("evp.descent_eps_minimal", "steps"),
        "evp.evp_steps": count(("evp.evp_descent", "evp.evp_descent_vector"), "steps"),
        "certificates.kkt_ms": ms("certificates.kkt_check"),
        "certificates.min_norm_ms": ms("certificates.min_norm_over_multipliers"),
        "certificates.solver_iters_p50": statistics.median(iters) if iters else 0,
        "certificates.solver_iters_max": max(iters, default=0),
        "certificates.mu_capped_fails": count("certificates.kkt_check", "mu_capped_fails"),
        "certificates.bcq_ms": ms("certificates.bcq_check"),
        "certificates.search_ms": ms(_SEARCHES),
        "certificates.ball_points": ball,
        "certificates.search_hit_ratio": (sum(s.counts.get("found", 0) for s in searches) / ball
                                          if ball else 0.0),
        "certificates.genconvex_ms": ms("certificates.gen_convexity_check"),
        "certificates.genconvex_samples": count("certificates.gen_convexity_check", "samples"),
        "certificates.genconvex_stalled": count("certificates.gen_convexity_check", "stalled"),
        "game.reduce_ms": ms("game.fix_opponents"),
        "game.ne_ms": ms(("game.is_w_eps_ne", "game.is_w_eps_qne")),
        "game.ne_direct_ms": ms(("game.is_w_eps_ne_direct", "game.is_w_eps_qne_direct")),
        "game.deviation_points": count("game.find_deviation", "deviation_points"),
        "game.kkt_ms": ms("game.game_kkt"),
        "game.sufficiency_ms": ms("game.game_sufficiency"),
        "io.load_ms": ms("io.load"),
        "io.save_ms": ms("io.save"),
        "io.validity_points": count("io.load", "validity_points"),
        "cli.process_ms": ms("cli.process"),
        "cli.import_ms": ms("cli.import"),
    }
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_ms"] = sum(selfs[s.id] for s in spans if s.layer == layer) / 1e6
    out["trace.spans"] = len(spans)
    out["trace.self_mismatch"] = len(task_self_mismatches(spans, selfs))
    return out
