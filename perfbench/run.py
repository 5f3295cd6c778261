"""miopt benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload {scan,certify,game,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from the
checkout's ``src``.  The seed generates the inputs (``gen.py``), which are
written as problem and game files under ``.perfbench_work/`` and loaded
with ``miopt.io.load``.  The workload's task list then runs as a closed
loop with one client, pass after pass, cycling over a few inputs generated
from the seed, until the passes have measured ``--seconds`` and every
input had a pass (with ``--trace 1`` untraced and traced passes
alternate).  Every output is checked outside the timed region.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  The lines before it print every
metric with its unit and sample count, the failed-task share, and each
failed task.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_FIRST = 3         # fresh interpreters before the first pass; one more after each
                        # untraced pass, so the samples spread over the whole run
TASK_STRIDE = 100_000   # task ids of generated input v start at v * TASK_STRIDE in spans

# fresh interpreter: import miopt plus io.load of every input file
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import miopt.io
for path in sys.argv[1:]:
    miopt.io.load(path)
print(repr(time.perf_counter() - t0))
"""

END_TO_END = {"setup_s": "s", "wall_s": "s", "task_p50_ms": "ms", "task_p90_ms": "ms",
              "peak_rss_mb": "MB"}
P90_MIN_TASKS = 100     # task_p90_ms needs at least 10 tasks of a pass beyond it


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = SRC
    return env


def measure_setup(files: list[str], env: dict, repeats: int) -> list[float]:
    out = []
    for _ in range(repeats):
        res = subprocess.run([sys.executable, "-c", SETUP_CODE, *files], env=env,
                             capture_output=True, text=True, check=True)
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


def p90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def main(argv=None) -> int:
    env = child_env()
    # before numpy is first imported
    os.environ.update({k: env[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                           "MKL_NUM_THREADS")})
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "miopt", "__init__.py")):
        print(f"error: no miopt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import miopt
    import miopt.cli  # noqa: F401  (the tracer wraps names in every module)
    if os.path.dirname(os.path.abspath(miopt.__file__)) != os.path.join(SRC, "miopt"):
        print(f"error: imported miopt from {miopt.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import checks
    import tracing

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return run(args, workdir, env, miopt, workloads, checks, tracing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass   # another run still uses it


def run(args, workdir, env, miopt, workloads, checks, tracing) -> int:
    wls = [workloads.build(args.workload, args.seed, v, os.path.join(workdir, f"v{v}"))
           for v in range(workloads.VARIANTS[args.workload])]
    setup_files = list(wls[0].files.values())
    setup = measure_setup(setup_files, env, SETUP_FIRST)
    runner = workloads.Runner(miopt, env, os.path.join(HERE, "cli_child.py"))
    checkers = []
    for v, wl in enumerate(wls):
        runner.load(wl)
        checkers.append(checks.Checker(miopt, wl, args.seed, v))

    walls, p50s, p90s = [], [], []
    traced_walls, layer_runs = [], []
    references, first_bad, problems = {}, {}, {}
    attempted = failed = 0
    while True:
        traced = args.trace == 1 and len(traced_walls) < len(walls)
        v = (len(walls) - traced) % len(wls)
        wl = wls[v]
        restore = None
        if traced:
            # one recorder per cycle over the generated inputs
            if v == 0:
                cycle_rec = tracing.Recorder()
            runner.rec = cycle_rec
            restore = tracing.instrument(runner.rec)
        t0 = time.perf_counter()
        try:
            times, outputs, errors = workloads.time_pass(runner, wl, task_base=v * TASK_STRIDE)
        finally:
            wall = time.perf_counter() - t0
            if restore is not None:
                restore()
                runner.rec = None
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # checks: outside the timed region
        digests = [checks.digest(o) for o in outputs]
        bad = dict(errors)
        if v not in references:
            references[v] = digests
            for t, out in zip(wl.tasks, outputs):
                if t.id not in bad:
                    try:
                        err = checkers[v].check(t, out)
                    except Exception as exc:  # an output the check cannot read fails its task
                        err = f"check raised {type(exc).__name__}: {exc}"
                    if err:
                        bad[t.id] = err
            bad.update(checks.pass_checks(wl, outputs, errors))
            first_bad[v] = {k: msg for k, msg in bad.items() if k not in errors}
        else:
            bad.update(first_bad[v])
            for t, d, ref in zip(wl.tasks, digests, references[v]):
                if d != ref and t.id not in bad:
                    bad[t.id] = "output differs from the first pass over the same inputs"
        for tid, msg in bad.items():
            problems.setdefault((v, tid), msg)
        attempted += len(wl.tasks)
        failed += len(bad)
        if traced:
            traced_walls.append(wall)
            if v == len(wls) - 1:
                layer_runs.append(tracing.layer_metrics(cycle_rec.spans))
        else:
            walls.append(wall)
            p50s.append(statistics.median(times))
            p90s.append(p90(times))
            setup += measure_setup(setup_files, env, 1)
        # every input gets an untraced pass; a traced run ends after whole
        # cycles, at least two, so that their counts can be compared
        if (sum(walls) + sum(traced_walls) >= args.seconds and len(walls) >= len(wls)
                and (args.trace == 0 or (len(traced_walls) == len(walls)
                                         and len(layer_runs) >= 2
                                         and len(walls) % len(wls) == 0))):
            break

    correct = failed == 0
    if args.workload == "cli":
        rss_kb = runner.child_rss_kb
    n_tasks = len(wls[0].tasks)
    # p90 is defined only on workloads with enough tasks per pass (certify, game)
    reported = {k: u for k, u in END_TO_END.items()
                if k != "task_p90_ms" or n_tasks >= P90_MIN_TASKS}
    values = {"setup_s": statistics.median(setup), "wall_s": statistics.median(walls),
              "task_p50_ms": 1e3 * statistics.median(p50s),
              "task_p90_ms": 1e3 * statistics.median(p90s), "peak_rss_mb": rss_kb / 1024.0}
    per_pass = f"median over {len(walls)} passes ({len(wls)} generated inputs)"
    samples = {"setup_s": f"median of {len(setup)} fresh interpreters",
               "wall_s": per_pass,
               "task_p50_ms": f"{per_pass} of the median of {n_tasks} tasks",
               "task_p90_ms": f"{per_pass} of the p90 of {n_tasks} tasks",
               "peak_rss_mb": "cli subprocesses" if args.workload == "cli" else "this process"}
    print(f"workload {args.workload}, seed {args.seed}: {n_tasks} tasks per pass, "
          "closed loop, one client")
    for name, unit in reported.items():
        print(f"  {name} = {values[name]:.6g} {unit}  ({samples[name]})")
    if "task_p90_ms" not in reported:
        print(f"  task_p90_ms not reported: {n_tasks} tasks per pass, fewer than {P90_MIN_TASKS}")
    print(f"  failed_frac = {failed / attempted:.6g} ratio  ({failed} of {attempted} task runs)")
    for (v, tid), msg in sorted(problems.items()):
        t = wls[v].tasks[tid]
        print(f"  FAILED input {v} task {tid} ({t.kind} on {t.key}): {msg}")
    misses = {(v, tid): msg for v, ck in enumerate(checkers)
              for tid, msg in ck.planted_misses.items()}
    print(f"  planted answers missed: {len(misses)}")
    for (v, tid), msg in sorted(misses.items()):
        t = wls[v].tasks[tid]
        print(f"  PLANTED MISS input {v} task {tid} ({t.kind} on {t.key}): {msg}")

    if args.trace == 1:
        # per-layer metrics total one traced pass over each generated input;
        # the median is over such cycles (at least two), whose counts must
        # repeat exactly: the inputs are the same
        metrics = {}
        for name, unit in tracing.LAYER_METRICS.items():
            if name.startswith("trace.overhead") or name == "bench.planted_misses":
                continue
            vals = [r[name] for r in layer_runs]
            if unit == "count" and len(set(vals)) > 1:
                correct = False
                print(f"  COUNT MISMATCH {name}: {vals}")
            metrics[name] = {"value": statistics.median(vals), "unit": unit}
        if any(r["trace.self_mismatch"] for r in layer_runs):
            correct = False
        metrics["bench.planted_misses"] = {"value": len(misses), "unit": "count"}
        k = len(wls)
        cycles = range(0, len(walls), k)
        untraced = statistics.median(sum(walls[c:c + k]) for c in cycles)
        overhead = statistics.median(sum(traced_walls[c:c + k]) - sum(walls[c:c + k])
                                     for c in cycles)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.overhead_frac"] = {"value": overhead / untraced, "unit": "ratio"}
        print(f"  per-layer metrics: one traced pass over each of the {k} generated inputs, "
              f"median over {len(layer_runs)} such cycles")
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in reported.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
