"""Problem/game JSON files.

Validation is strict: unknown fields are errors (named by path), every
expression must parse, and interval validity (lower <= upper) is
confirmed on the load-time grid with a witness point on failure.
Original expression strings are kept so load -> serialize -> load is
bit-exact.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Any

from .expr import ExprError, IVFunction, parse_expr, to_string
from .grid import GridSpec, IntervalError, default_points_per_dim, endpoint_values, grid_points
from .problem import DEFAULT_TOLERANCES, MIOProblem, Tolerances

if TYPE_CHECKING:
    from .game import Game


class SchemaError(ValueError):
    """File does not match the expected schema; message names the field."""


_TOL_FIELDS = ("tau_feas", "tau_act", "tau_solver", "mu_max")
_PROBLEM_FIELDS = {"dim", "name", "variables", "objectives", "constraints",
                   "box", "grid", "tolerances", "epsilon"}
_GAME_FIELDS = {"name", "players", "tolerances"}
_PLAYER_FIELDS = {"dim", "objectives", "constraints", "box", "grid"}


def _check_fields(d: dict, allowed: set[str], path: str) -> None:
    if not isinstance(d, dict):
        raise SchemaError(f"{path}: expected an object")
    for key in d:
        if key not in allowed:
            raise SchemaError(f"{path}: unknown field {key!r}")


def _require(d: dict, key: str, path: str) -> Any:
    if key not in d:
        raise SchemaError(f"{path}: missing required field {key!r}")
    return d[key]


def _int_field(value: Any, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{path}: expected an integer")
    return value


def _float(value: Any, path: str) -> float:
    """A finite number: json reads NaN and Infinity too."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SchemaError(f"{path}: expected a number")
    if not math.isfinite(float(value)):
        raise SchemaError(f"{path}: expected a finite number, got {value}")
    return float(value)


def _float_list(value: Any, path: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise SchemaError(f"{path}: expected a list of numbers")
    return tuple(_float(x, f"{path}[{i}]") for i, x in enumerate(value))


def _parse(text: Any, dim: int, path: str):
    if not isinstance(text, str):
        raise SchemaError(f"{path}: expected an expression string")
    try:
        return parse_expr(text, dim)
    except ExprError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _tolerances(d: dict | None, path: str) -> Tolerances:
    if d is None:
        return DEFAULT_TOLERANCES
    _check_fields(d, set(_TOL_FIELDS), path)
    return Tolerances(**{key: _float(d[key], f"{path}.{key}") for key in _TOL_FIELDS if key in d})


def _grid_ppd(d: dict | None, dim: int, path: str) -> int:
    if d is None:
        return default_points_per_dim(dim)
    _check_fields(d, {"points_per_dim"}, path)
    return _int_field(_require(d, "points_per_dim", path), f"{path}.points_per_dim")


def _objectives(raw: Any, dim: int, path: str):
    if not isinstance(raw, list) or not raw:
        raise SchemaError(f"{path}: expected a non-empty list")
    functions = []
    sources = []
    for k, od in enumerate(raw):
        opath = f"{path}[{k}]"
        _check_fields(od, {"lower", "upper"}, opath)
        lo_src = _require(od, "lower", opath)
        hi_src = _require(od, "upper", opath)
        lower = _parse(lo_src, dim, f"{opath}.lower")
        upper = _parse(hi_src, dim, f"{opath}.upper")
        functions.append(IVFunction(lower, upper, dim))
        sources.append({"lower": lo_src, "upper": hi_src})
    return tuple(functions), sources


def _constraints(raw: Any, dim: int, path: str):
    if raw is None:
        return (), []
    if not isinstance(raw, list):
        raise SchemaError(f"{path}: expected a list of expression strings")
    exprs = tuple(_parse(src, dim, f"{path}[{j}]") for j, src in enumerate(raw))
    return exprs, list(raw)


def _check_validity(objectives, box_lo, box_hi, ppd: int, where: str) -> None:
    try:
        endpoint_values(objectives, grid_points(box_lo, box_hi, GridSpec(ppd)))
    except IntervalError as exc:
        raise SchemaError(f"{where}: objective {exc.objective} invalid at grid point "
                          f"{exc.point}: {exc.detail}") from exc
    except ArithmeticError as exc:
        raise SchemaError(f"{where}: objectives cannot be evaluated on the "
                          f"load-time grid: {exc}") from exc


def problem_from_dict(d: dict, path: str = "problem") -> MIOProblem:
    _check_fields(d, _PROBLEM_FIELDS, path)
    dim = _int_field(_require(d, "dim", path), f"{path}.dim")
    objectives, obj_src = _objectives(_require(d, "objectives", path), dim,
                                      f"{path}.objectives")
    constraints, con_src = _constraints(d.get("constraints"), dim,
                                        f"{path}.constraints")
    box = _require(d, "box", path)
    _check_fields(box, {"lo", "hi"}, f"{path}.box")
    box_lo = _float_list(_require(box, "lo", f"{path}.box"), f"{path}.box.lo")
    box_hi = _float_list(_require(box, "hi", f"{path}.box"), f"{path}.box.hi")
    tolerances = _tolerances(d.get("tolerances"), f"{path}.tolerances")
    ppd = _grid_ppd(d.get("grid"), dim, f"{path}.grid")
    if len(box_lo) != dim or len(box_hi) != dim:
        raise SchemaError(f"{path}.box: expected {dim} bounds in lo and hi")
    _check_validity(objectives, box_lo, box_hi, ppd, path)
    metadata = {"objective_sources": obj_src, "constraint_sources": con_src,
                "points_per_dim": ppd}
    if "epsilon" in d:
        metadata["epsilon"] = _float_list(d["epsilon"], f"{path}.epsilon")
    if "variables" in d:
        metadata["variables"] = list(d["variables"])
    try:
        return MIOProblem(dim=dim, objectives=objectives, constraints=constraints,
                          box_lo=box_lo, box_hi=box_hi, name=d.get("name", ""),
                          tolerances=tolerances, metadata=metadata)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def game_from_dict(d: dict, path: str = "game") -> Game:
    # games are imported here, not at module level: loading a problem
    # file needs no game (nor the certificate layer that games import)
    from .game import Game, Player

    _check_fields(d, _GAME_FIELDS, path)
    raw_players = _require(d, "players", path)
    if not isinstance(raw_players, list) or len(raw_players) < 2:
        raise SchemaError(f"{path}.players: expected a list of at least 2 players")
    dims = []
    for i, pd in enumerate(raw_players):
        _check_fields(pd, _PLAYER_FIELDS, f"{path}.players[{i}]")
        dims.append(_int_field(_require(pd, "dim", f"{path}.players[{i}]"),
                               f"{path}.players[{i}].dim"))
    total = sum(dims)

    players = []
    sources = []
    offset = 0
    for i, pd in enumerate(raw_players):
        ppath = f"{path}.players[{i}]"
        objectives, obj_src = _objectives(_require(pd, "objectives", ppath),
                                          total, f"{ppath}.objectives")
        constraints, con_src = _constraints(pd.get("constraints"), total,
                                            f"{ppath}.constraints")
        box = _require(pd, "box", ppath)
        _check_fields(box, {"lo", "hi"}, f"{ppath}.box")
        box_lo = _float_list(_require(box, "lo", f"{ppath}.box"), f"{ppath}.box.lo")
        box_hi = _float_list(_require(box, "hi", f"{ppath}.box"), f"{ppath}.box.hi")
        ppd = None
        if pd.get("grid") is not None:
            ppd = _grid_ppd(pd["grid"], dims[i], f"{ppath}.grid")
        try:
            players.append(Player(dim=dims[i], objectives=objectives,
                                  constraints=constraints, box_lo=box_lo,
                                  box_hi=box_hi, points_per_dim=ppd))
        except ValueError as exc:
            raise SchemaError(f"{ppath}: {exc}") from exc
        sources.append({"objectives": obj_src, "constraints": con_src})
        offset += dims[i]

    tolerances = _tolerances(d.get("tolerances"), f"{path}.tolerances")
    try:
        return Game(players=tuple(players), name=d.get("name", ""),
                    tolerances=tolerances,
                    metadata={"player_sources": sources})
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def load(path: str) -> MIOProblem | Game:
    """Load a problem or game file (games are detected by 'players')."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(d, dict):
        raise SchemaError(f"{path}: top level must be an object")
    if "players" in d:
        return game_from_dict(d, path)
    return problem_from_dict(d, path)


def _tol_dict(t: Tolerances) -> dict:
    return {k: getattr(t, k) for k in _TOL_FIELDS}


def serialize(model: MIOProblem | Game) -> dict:
    """Inverse of loading; stored source strings are reused verbatim."""
    if not isinstance(model, MIOProblem):
        sources = model.metadata.get("player_sources")
        players = []
        for i, pl in enumerate(model.players):
            if sources is not None:
                obj = sources[i]["objectives"]
                con = sources[i]["constraints"]
            else:
                obj = [{"lower": to_string(f.lower), "upper": to_string(f.upper)}
                       for f in pl.objectives]
                con = [to_string(g) for g in pl.constraints]
            entry = {"dim": pl.dim, "objectives": obj, "constraints": con,
                     "box": {"lo": list(pl.box_lo), "hi": list(pl.box_hi)}}
            if pl.points_per_dim is not None:
                entry["grid"] = {"points_per_dim": pl.points_per_dim}
            players.append(entry)
        out: dict = {"players": players, "tolerances": _tol_dict(model.tolerances)}
        if model.name:
            out["name"] = model.name
        return out

    obj_src = model.metadata.get("objective_sources")
    con_src = model.metadata.get("constraint_sources")
    if obj_src is None:
        obj_src = [{"lower": to_string(f.lower), "upper": to_string(f.upper)}
                   for f in model.objectives]
    if con_src is None:
        con_src = [to_string(g) for g in model.constraints]
    out = {"dim": model.dim, "objectives": obj_src, "constraints": con_src,
           "box": {"lo": list(model.box_lo), "hi": list(model.box_hi)},
           "grid": {"points_per_dim": model.metadata.get(
               "points_per_dim", default_points_per_dim(model.dim))},
           "tolerances": _tol_dict(model.tolerances)}
    if model.name:
        out["name"] = model.name
    if "epsilon" in model.metadata:
        out["epsilon"] = list(model.metadata["epsilon"])
    if "variables" in model.metadata:
        out["variables"] = list(model.metadata["variables"])
    return out


def save(model: MIOProblem | Game, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialize(model), fh, indent=2)
        fh.write("\n")
