"""Command-line front end.

Exit codes: 0 the verdict holds, 1 it fails, 2 inconclusive (grid
resolution or solver limits), 3 usage or model error.  ``main`` loads
the model once, parses --point against its dimension and hands both to
the subcommand's handler; every problem report echoes the effective
tolerances and grid resolution, and --json writes the full
machine-readable report.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
import time

import numpy as np

from . import certificates, evp, game as game_mod, grid as grid_mod, io as io_mod
from .game import Game
from .grid import GridSpec
from .problem import MIOProblem, Tolerances, as_epsilon, require_feasible

_EXIT = {"holds": 0, "fails": 1, "inconclusive": 2,
         "not-found-at-resolution": 2, "hypothesis-failed": 1}


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 3 through main, not argparse's 2 (inconclusive)
        raise UsageError(f"{self.prog}: {message}")


def _to_jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(x) for x in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _to_jsonable(dataclasses.asdict(obj))
    return obj


def _parse_vector(text: str, what: str = "eps") -> np.ndarray:
    """Comma-separated finite numbers: every vector option is read here."""
    try:
        vals = np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise UsageError(f"--{what}: expected comma-separated numbers, got {text!r}")
    if not np.isfinite(vals).all():
        raise UsageError(f"--{what}: expected finite numbers, got {text!r}")
    return vals


def _parse_point(text: str, dim: int, what: str = "point") -> np.ndarray:
    vals = _parse_vector(text, what)
    if len(vals) != dim:
        raise UsageError(f"--{what}: expected {dim} coordinates, got {len(vals)}")
    return vals


def _check_finite(args) -> None:
    """Every float option (--radius, --delta, --eps0, the tolerances)."""
    for name, val in vars(args).items():
        if isinstance(val, float) and not math.isfinite(val):
            raise UsageError(f"--{name.replace('_', '-')}: expected a finite number, got {val}")


def _load(args) -> tuple[MIOProblem | Game, GridSpec | None]:
    """The model of --problem or --game, which must be the kind the command
    needs; a problem gets the tolerance flags and its grid (None for a game)."""
    need = "game" if "game" in args else "problem"
    path = getattr(args, need)
    model = io_mod.load(path)
    have = "game" if isinstance(model, Game) else "problem"
    if have != need:
        raise UsageError(f"{path} is a {have} file; this command needs a {need}")
    if need == "game":
        return model, None
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(Tolerances)
                 if getattr(args, f.name) is not None}
    tolerances = dataclasses.replace(model.tolerances, **overrides)
    model = dataclasses.replace(model, tolerances=tolerances)
    return model, grid_mod.spec_for(model, args.grid)


def _report_line(report: certificates.CertificateReport) -> dict:
    return {"verdict": report.verdict, "residual": report.residual,
            "threshold": report.threshold, "lambda": report.lam,
            "mu": report.mu, "objective_witnesses": report.obj_witnesses,
            "constraint_witnesses": report.con_witnesses, "exact": report.exact,
            "iterations": report.iterations, "mu_capped": report.mu_capped}


# ---------------------------------------------------------------------------
# Command handlers: each gets the parsed arguments (--point already a
# vector), the loaded model and its grid (None for a game), and returns
# (verdict, payload)
# ---------------------------------------------------------------------------

# verify --concept -> (whether it takes --eps, whether the handicap is quasi)
_CONCEPTS = {"weak-min": (False, False), "weak-eps-min": (True, False),
             "weak-eps-qmin": (True, True)}


def _cmd_verify(args, problem, spec):
    require_feasible(problem, args.point)
    pts = grid_mod.feasible_grid(problem, spec)
    takes_eps, quasi = _CONCEPTS[args.concept]
    eps = np.zeros(problem.n_objectives)
    if takes_eps:
        if args.eps is None:
            raise UsageError(f"--eps is required for concept {args.concept}")
        eps = as_epsilon(_parse_vector(args.eps), problem.n_objectives)
    j = grid_mod.first_dominator(grid_mod.value_table(problem, np.vstack([pts, args.point])),
                                 eps, quasi)
    payload = {"concept": args.concept, "point": args.point, "grid_size": len(pts)}
    if j is not None:
        payload["dominator"] = pts[j]
    return ("holds" if j is None else "fails"), payload


def _cmd_exist(args, problem, spec):
    start = _parse_point(args.start, problem.dim, "start") if args.start else None
    point, trace = evp.descent_eps_minimal(problem, _parse_vector(args.eps), spec, start)
    return "holds", {"point": point, "start": trace.iterates[0] if start is None else start,
                     "iterations": len(trace.iterates) - 1,
                     "merits": trace.merits}


def _cmd_evp(args, problem, spec):
    x0 = _parse_point(args.x0, problem.dim, "x0") if args.x0 else None
    if args.vector:
        earr = _parse_vector(args.eps)
        if earr.size != 1:
            raise UsageError("--vector mode takes a single scalar --eps")
        point, cert = evp.evp_descent_vector(problem, float(earr[0]), spec, x0)
    else:
        point, cert = evp.evp_descent(problem, _parse_vector(args.eps), spec, x0)
    verdict = "holds" if cert.all_hold else "fails"
    return verdict, {"point": point, "x0": cert.trace.iterates[0] if x0 is None else x0,
                     "a_holds": cert.a_holds, "b_value": cert.b_value,
                     "b_bound": cert.b_bound, "b_holds": cert.b_holds,
                     "c_holds": cert.c_holds}


def _cmd_quasi(args, problem, spec):
    rep = evp.quasi_existence(problem, _parse_vector(args.eps), spec)
    ok = rep.qm_verified and rep.ball_check is not False
    verdict = "holds" if ok else "fails"
    return verdict, {"point": rep.point, "qm_verified": rep.qm_verified,
                     "ball_check": rep.ball_check,
                     "certificate": {"a": rep.evp_certificate.a_holds,
                                     "b_value": rep.evp_certificate.b_value,
                                     "b_bound": rep.evp_certificate.b_bound,
                                     "c": rep.evp_certificate.c_holds}}


def _cmd_thm33(args, problem, spec):
    verdict_obj = grid_mod.check_thm_3_3(problem, args.point, _parse_vector(args.eps), spec)
    if not verdict_obj.hypothesis_holds:
        return "fails", {"hypothesis_holds": False, "witness": verdict_obj.witness}
    verdict = "holds" if verdict_obj.conclusion_verified else "fails"
    return verdict, {"hypothesis_holds": True,
                     "conclusion_verified": verdict_obj.conclusion_verified}


def _cmd_kkt(args, problem, spec):
    cor41 = None if args.cor41_eps is None else _parse_vector(args.cor41_eps, "cor41-eps")
    report = certificates.kkt_check(problem, args.point, radius=args.radius, cor41_eps=cor41)
    return report.verdict, {**_report_line(report), "point": args.point}


def _cmd_epskkt(args, problem, spec):
    outcome = certificates.eps_kkt_thm_4_1(problem, args.point, _parse_vector(args.eps),
                                           args.delta, spec)
    payload = {"points_scanned": outcome.points_scanned}
    if outcome.point is not None:
        payload["x_delta"] = outcome.point
        payload["certificate"] = _report_line(outcome.report)
    return outcome.verdict, payload


def _cmd_bcq(args, problem, spec):
    rep = certificates.bcq_check(problem, args.point)
    verdict = "holds" if rep.holds else "fails"
    return verdict, {"distance": rep.distance, "active_set": list(rep.active),
                     "vacuous": rep.vacuous}


def _cmd_genconvex(args, problem, spec):
    samples = grid_mod.feasible_grid(problem, spec)
    rep = certificates.gen_convexity_check(problem, args.point, samples)
    return rep.verdict, {"samples_checked": rep.samples_checked,
                         "infeasible_samples": rep.infeasible_samples,
                         "stalled_samples": rep.stalled_samples}


def _cmd_sufficiency(args, problem, spec):
    rep = certificates.sufficiency_thm_4_3(problem, args.point, _parse_vector(args.eps), spec)
    payload = {"qm_confirmed": rep.qm_confirmed}
    if rep.kkt is not None:
        payload["kkt"] = _report_line(rep.kkt)
    return rep.verdict, payload


def _cmd_modkkt(args, problem, spec):
    earr = _parse_vector(args.eps)
    if earr.size != 1:
        raise UsageError("modkkt takes a single scalar --eps")
    outcome = certificates.modified_eps_kkt(problem, args.point, float(earr[0]), spec)
    payload = {"complementarity_value": outcome.complementarity_value}
    if outcome.point is not None:
        payload["x_eps"] = outcome.point
    if outcome.report is not None:
        payload["certificate"] = _report_line(outcome.report)
    return outcome.verdict, payload


def _cmd_seqkkt(args, problem, spec):
    xs = [_parse_point(chunk, problem.dim, "xs")
          for chunk in args.xs.split(";") if chunk.strip()]
    if not xs:
        raise UsageError("--xs must list at least one point")
    eps_seq = _parse_vector(args.eps_seq, "eps-seq")
    inflate = None if args.inflate is None else _parse_vector(args.inflate, "inflate")
    rep = certificates.approx_kkt_sequence(problem, args.point, xs, eps_seq, spec,
                                           inflate=inflate)
    if rep.all_ok:
        verdict = "holds"
    elif any(e.reason == "not-found-at-resolution" for e in rep.entries):
        verdict = "inconclusive"
    else:
        verdict = "fails"
    entries = [{"i": e.i, "eps": e.eps_i, "z_index": e.z_index, "z": e.z,
                "y": e.y, "residual": e.residual, "ok": e.ok, "reason": e.reason}
               for e in rep.entries]
    return verdict, {"entries": entries}


def _cmd_prop21(args, problem, spec):
    rep = grid_mod.check_prop_2_1(problem, args.eps0, spec)
    verdict = "holds" if rep.ok else "fails"
    return verdict, {"eps0": rep.eps0, "checked": rep.checked,
                     "violations": rep.violations}


def _cmd_game_verify(args, game, spec):
    dev = game_mod.first_deviation(game, args.point, _parse_vector(args.eps),
                                   quasi=args.concept == "qne")
    payload = {"concept": args.concept, "point": args.point}
    if dev is not None:
        payload["deviation"] = {"player": dev[0], "strategy": dev[1]}
    return ("holds" if dev is None else "fails"), payload


def _cmd_game_kkt(args, game, spec):
    eps = _parse_vector(args.eps)
    outcomes = game_mod.game_kkt(game, args.point, eps, mode=args.mode, delta=args.delta)
    per_player, verdicts = [], []
    for out in outcomes:
        if out.report is not None:
            per_player.append({"player": out.player, **_report_line(out.report)})
            verdicts.append(out.report.verdict)
        else:
            entry = {"player": out.player, "verdict": out.search.verdict}
            if out.search.point is not None:
                entry["x_delta"] = out.search.point
                entry["certificate"] = _report_line(out.search.report)
            per_player.append(entry)
            verdicts.append(out.search.verdict)
    if all(v == "holds" for v in verdicts):
        verdict = "holds"
    elif any(v == "fails" for v in verdicts):
        verdict = "fails"
    else:
        verdict = "inconclusive"
    return verdict, {"mode": args.mode, "players": per_player}


def _cmd_game_sufficiency(args, game, spec):
    eps = _parse_vector(args.eps)
    rep = game_mod.game_sufficiency(game, args.point, eps)
    return rep.verdict, {"per_player": rep.per_player,
                         "qne_confirmed": rep.qne_confirmed}


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", required=True, help="problem JSON file")
    p.add_argument("--grid", type=int, default=None, help="points per dimension")
    for f in dataclasses.fields(Tolerances):
        p.add_argument(f"--{f.name.replace('_', '-')}", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="miopt",
        description="Verification toolkit for multiobjective interval-valued "
                    "optimization problems and games.")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, handler, help_text, game=False, point=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if game:
            p.add_argument("--game", required=True, help="game JSON file")
        else:
            _add_problem_flags(p)
        p.add_argument("--json", dest="json_path", default=None,
                       help="write the full report as JSON to this path")
        if point:
            p.add_argument("--point", required=True)
        return p

    p = cmd("verify", _cmd_verify, "check a solution concept at a point")
    p.add_argument("--concept", required=True, choices=list(_CONCEPTS))
    p.add_argument("--eps", default=None)

    p = cmd("exist", _cmd_exist, "descend to a weak eps-minimal grid point", point=False)
    p.add_argument("--eps", required=True)
    p.add_argument("--start", default=None)

    p = cmd("evp", _cmd_evp, "Ekeland-type descent with (a)-(c) certificate", point=False)
    p.add_argument("--eps", required=True)
    p.add_argument("--x0", default=None)
    p.add_argument("--vector", action="store_true",
                   help="componentwise variant (scalar eps)")

    p = cmd("quasi", _cmd_quasi, "existence pipeline for weak sqrt(eps)-quasi-minimal points",
            point=False)
    p.add_argument("--eps", required=True)

    p = cmd("thm33", _cmd_thm33, "distance-penalized minimality implies quasi-minimality")
    p.add_argument("--eps", required=True)

    p = cmd("kkt", _cmd_kkt, "multiplier certificate at a point")
    p.add_argument("--radius", type=float, default=0.0)
    p.add_argument("--cor41-eps", dest="cor41_eps", default=None,
                   help="accept a residual up to radius + sum(lambda_k * eps_k) "
                        "for some lambda; the report carries that lambda")

    p = cmd("epskkt", _cmd_epskkt, "search a delta-ball for an approximate KKT point")
    p.add_argument("--eps", required=True)
    p.add_argument("--delta", type=float, required=True)

    cmd("bcq", _cmd_bcq, "basic constraint qualification at a point")
    cmd("genconvex", _cmd_genconvex, "generalized convexity at a point over the grid")

    p = cmd("sufficiency", _cmd_sufficiency, "KKT + generalized convexity => quasi-minimality")
    p.add_argument("--eps", required=True)

    p = cmd("modkkt", _cmd_modkkt, "modified eps-KKT point search")
    p.add_argument("--eps", required=True)

    p = cmd("seqkkt", _cmd_seqkkt, "approximate KKT sequence verification")
    p.add_argument("--xs", required=True,
                   help="semicolon-separated sequence points, e.g. '1;0.5;0.25'")
    p.add_argument("--eps-seq", dest="eps_seq", required=True,
                   help="comma-separated positive eps values")
    p.add_argument("--inflate", default=None,
                   help="per-objective subdifferential inflation radii")

    p = cmd("prop21", _cmd_prop21, "quasi-minimal => ball eps-minimal implication scan",
            point=False)
    p.add_argument("--eps0", type=float, required=True)

    p = cmd("game-verify", _cmd_game_verify, "equilibrium predicate for a profile", game=True)
    p.add_argument("--concept", required=True, choices=["ne", "qne"])
    p.add_argument("--eps", required=True)

    p = cmd("game-kkt", _cmd_game_kkt, "per-player multiplier certificates", game=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--mode", default="thm_5_2", choices=["thm_5_1", "thm_5_2"])
    p.add_argument("--delta", type=float, default=None)

    p = cmd("game-sufficiency", _cmd_game_sufficiency, "per-player sufficiency pipeline",
            game=True)
    p.add_argument("--eps", required=True)

    return parser


# options that take comma- or semicolon-separated numbers
_VECTOR_FLAGS = ("--point", "--eps", "--start", "--x0", "--xs", "--eps-seq",
                 "--inflate", "--cor41-eps")
_NEGATIVE = re.compile(r"-\.?\d")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """argparse reads a value such as -0.3,0.1 as an unknown flag; join a
    vector option to its value when the value starts with a minus sign."""
    out = []
    for tok in argv:
        if out and out[-1] in _VECTOR_FLAGS and _NEGATIVE.match(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(_attach_negative_values(argv))
        t0 = time.monotonic()
        _check_finite(args)
        model, spec = _load(args)
        if "point" in args:
            args.point = _parse_point(args.point, model.profile_dim if spec is None else model.dim)
        verdict, payload = args.handler(args, model, spec)
        report = {"command": args.command, "verdict": verdict,
                  "elapsed_seconds": time.monotonic() - t0, **payload}
        if spec is not None:
            report["config"] = {"tolerances": model.tolerances,
                                "points_per_dim": spec.points_per_dim}
        report = _to_jsonable(report)
        # the report goes first: it must not depend on a reader of stdout
        if args.json_path:
            with open(args.json_path, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2)
                fh.write("\n")
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    lines = [f"{args.command}: {verdict}"]
    for key in ("residual", "threshold", "distance", "point", "x_delta", "x_eps", "dominator"):
        if key in report and report[key] is not None:
            lines.append(f"  {key}: {report[key]}")
    if "lambda" in report:
        lines.append(f"  lambda: {report['lambda']}  mu: {report['mu']}")
    if "deviation" in report:
        dev = report["deviation"]
        lines.append(f"  improving deviation: player {dev['player']} -> {dev['strategy']}")
    if "config" in report:
        lines.append(f"  config: {report['config']}")
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:
        # the reader closed stdout: the verdict stands, and stdout goes to
        # devnull so that the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return _EXIT.get(verdict, 2)


if __name__ == "__main__":
    sys.exit(main())
