"""Problem/game JSON files.

Validation is strict: unknown fields are errors (named by path), every
expression must parse, and interval validity (lower <= upper) is
confirmed on the load-time grid with a witness point on failure.
Original expression strings are kept so load -> serialize -> load is
bit-exact.  A problem and each game player are the same block
(objectives, constraints, box, grid), read and checked by one reader.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, fields
from typing import TYPE_CHECKING, Any

from .expr import ExprError, IVFunction, parse_expr, to_string
from .grid import (MAX_DIM, GridError, GridSpec, IntervalError, check_grid, endpoint_values,
                   grid_points, spec_for)
from .problem import DEFAULT_TOLERANCES, MIOProblem, Tolerances, check_box

if TYPE_CHECKING:
    from .game import Game, Player


class SchemaError(ValueError):
    """File does not match the expected schema; message names the field."""


_TOL_FIELDS = tuple(f.name for f in fields(Tolerances))
# a problem and each game player are one block of these fields
_BLOCK_FIELDS = {"dim", "objectives", "constraints", "box", "grid"}
_PROBLEM_FIELDS = _BLOCK_FIELDS | {"name", "variables", "tolerances", "epsilon"}
_GAME_FIELDS = {"name", "players", "tolerances"}


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


def _name(d: dict, path: str) -> str:
    name = d.get("name", "")
    if not isinstance(name, str):
        raise SchemaError(f"{path}.name: expected a string")
    return name


def _parse(text: Any, n_vars: int, path: str):
    if not isinstance(text, str):
        raise SchemaError(f"{path}: expected an expression string")
    try:
        return parse_expr(text, n_vars)
    except ExprError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _tolerances(d: dict | None, path: str) -> Tolerances:
    if d is None:
        return DEFAULT_TOLERANCES
    # files written before mu_max was retired carry it: checked, then dropped
    _check_fields(d, {*_TOL_FIELDS, "mu_max"}, path)
    values = {key: _float(value, f"{path}.{key}") for key, value in d.items()}
    try:
        return Tolerances(**{key: values[key] for key in _TOL_FIELDS if key in values})
    except ValueError as exc:
        raise SchemaError(f"{path}.{exc}") from exc


def _dim(d: dict, allowed: set[str], path: str) -> int:
    _check_fields(d, allowed, path)
    dim = _int_field(_require(d, "dim", path), f"{path}.dim")
    if not 1 <= dim <= MAX_DIM:
        raise SchemaError(f"{path}.dim: grids cover dimensions 1 to {MAX_DIM}, got {dim}")
    return dim


def _read_block(d: dict, dim: int, n_vars: int, path: str) -> tuple[dict, int | None, dict]:
    """The block of a problem, or of a game player, whose own variables
    number dim: its objectives and constraints over n_vars variables (a
    player's are over the whole profile), as MIOProblem/Player keyword
    arguments; the file's points per dimension (None without a grid); and
    the source strings."""
    raw = _require(d, "objectives", path)
    if not isinstance(raw, list) or not raw:
        raise SchemaError(f"{path}.objectives: expected a non-empty list")
    objectives, obj_src = [], []
    for k, od in enumerate(raw):
        opath = f"{path}.objectives[{k}]"
        _check_fields(od, {"lower", "upper"}, opath)
        src = {key: _require(od, key, opath) for key in ("lower", "upper")}
        objectives.append(IVFunction(*(_parse(s, n_vars, f"{opath}.{key}")
                                       for key, s in src.items()), n_vars))
        obj_src.append(src)
    con_src = [] if d.get("constraints") is None else d["constraints"]
    if not isinstance(con_src, list):
        raise SchemaError(f"{path}.constraints: expected a list of expression strings")
    constraints = tuple(_parse(s, n_vars, f"{path}.constraints[{j}]")
                        for j, s in enumerate(con_src))

    box = _require(d, "box", path)
    _check_fields(box, {"lo", "hi"}, f"{path}.box")
    box_lo, box_hi = (_float_list(_require(box, key, f"{path}.box"), f"{path}.box.{key}")
                      for key in ("lo", "hi"))
    try:
        check_box(box_lo, box_hi, dim)
    except ValueError as exc:
        raise SchemaError(f"{path}.box: {exc}") from exc

    ppd = None
    if d.get("grid") is not None:
        _check_fields(d["grid"], {"points_per_dim"}, f"{path}.grid")
        ppd = _int_field(_require(d["grid"], "points_per_dim", f"{path}.grid"),
                         f"{path}.grid.points_per_dim")
        if ppd < 2:
            raise SchemaError(f"{path}.grid.points_per_dim: expected at least 2, got {ppd}")
        try:
            check_grid(dim, GridSpec(ppd))
        except GridError as exc:
            raise SchemaError(f"{path}.grid.points_per_dim: {exc}") from exc
    block = {"dim": dim, "objectives": tuple(objectives), "constraints": constraints,
             "box_lo": box_lo, "box_hi": box_hi}
    return block, ppd, {"objectives": obj_src, "constraints": list(con_src)}


def _check_validity(problem: MIOProblem, spec: GridSpec, where: str) -> None:
    try:
        endpoint_values(problem.objectives, grid_points(problem.box_lo, problem.box_hi, spec))
    except IntervalError as exc:
        raise SchemaError(f"{where}: objective {exc.objective} invalid at grid point "
                          f"{exc.point}: {exc.detail}") from exc
    except ArithmeticError as exc:
        raise SchemaError(f"{where}: objectives cannot be evaluated on the "
                          f"load-time grid: {exc}") from exc


def problem_from_dict(d: dict, path: str = "problem") -> MIOProblem:
    dim = _dim(d, _PROBLEM_FIELDS, path)
    block, ppd, sources = _read_block(d, dim, dim, path)
    tolerances = _tolerances(d.get("tolerances"), f"{path}.tolerances")
    metadata = {"sources": sources, "points_per_dim": ppd}
    if "epsilon" in d:
        metadata["epsilon"] = _float_list(d["epsilon"], f"{path}.epsilon")
    if "variables" in d:
        variables = d["variables"]
        if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
            raise SchemaError(f"{path}.variables: expected a list of strings")
        metadata["variables"] = list(variables)
    name = _name(d, path)
    try:
        problem = MIOProblem(**block, name=name, tolerances=tolerances, metadata=metadata)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    spec = spec_for(problem)
    metadata["points_per_dim"] = spec.points_per_dim
    _check_validity(problem, spec, path)
    return problem


def game_from_dict(d: dict, path: str = "game") -> Game:
    # games are imported here, not at module level: loading a problem
    # file needs no game (nor the certificate layer that games import)
    from .game import Game, Player

    _check_fields(d, _GAME_FIELDS, path)
    raw_players = _require(d, "players", path)
    if not isinstance(raw_players, list) or len(raw_players) < 2:
        raise SchemaError(f"{path}.players: expected a list of at least 2 players")
    paths = [f"{path}.players[{i}]" for i in range(len(raw_players))]
    dims = [_dim(pd, _BLOCK_FIELDS, ppath) for pd, ppath in zip(raw_players, paths)]

    players, sources = [], []
    for pd, dim, ppath in zip(raw_players, dims, paths):
        block, ppd, player_sources = _read_block(pd, dim, sum(dims), ppath)
        try:
            players.append(Player(**block, points_per_dim=ppd))
        except ValueError as exc:
            raise SchemaError(f"{ppath}: {exc}") from exc
        sources.append(player_sources)

    tolerances = _tolerances(d.get("tolerances"), f"{path}.tolerances")
    name = _name(d, path)
    try:
        return Game(players=tuple(players), name=name, tolerances=tolerances,
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


def _write_block(block: MIOProblem | Player, sources: dict | None,
                 points_per_dim: int | None) -> dict:
    """Inverse of _read_block: the stored source strings verbatim, else
    the expressions printed back."""
    if sources is None:
        sources = {"objectives": [{"lower": to_string(f.lower), "upper": to_string(f.upper)}
                                  for f in block.objectives],
                   "constraints": [to_string(g) for g in block.constraints]}
    out = {"dim": block.dim, **sources,
           "box": {"lo": list(block.box_lo), "hi": list(block.box_hi)}}
    if points_per_dim is not None:
        out["grid"] = {"points_per_dim": points_per_dim}
    return out


def serialize(model: MIOProblem | Game) -> dict:
    """Inverse of loading; stored source strings are reused verbatim."""
    if isinstance(model, MIOProblem):
        out = _write_block(model, model.metadata.get("sources"),
                           spec_for(model).points_per_dim)
    else:
        sources = model.metadata.get("player_sources", [None] * model.n_players)
        out = {"players": [_write_block(pl, src, pl.points_per_dim)
                           for pl, src in zip(model.players, sources)]}
    out["tolerances"] = asdict(model.tolerances)
    if model.name:
        out["name"] = model.name
    for key in ("epsilon", "variables"):
        if key in model.metadata:
            out[key] = list(model.metadata[key])
    return out


def save(model: MIOProblem | Game, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialize(model), fh, indent=2)
        fh.write("\n")
