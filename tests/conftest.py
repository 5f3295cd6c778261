import json

import pytest
from hypothesis import settings

from miopt import IVFunction, MIOProblem, parse_expr

# a failing hypothesis test prints the @reproduce_failure blob of its draw
settings.register_profile("miopt", print_blob=True)
settings.load_profile("miopt")


def make_problem(dim, objectives, constraints, box_lo, box_hi, name=""):
    """Build a problem from expression strings."""
    objs = tuple(IVFunction(parse_expr(lo, dim), parse_expr(hi, dim), dim)
                 for lo, hi in objectives)
    cons = tuple(parse_expr(g, dim) for g in constraints)
    return MIOProblem(dim=dim, objectives=objs, constraints=cons,
                      box_lo=tuple(box_lo), box_hi=tuple(box_hi), name=name)


def count_calls(monkeypatch, name: str) -> list:
    """The argument tuples of every call of the miopt function name, which
    is replaced in every miopt module namespace that holds it."""
    import importlib
    import sys

    for mod in ("expr", "grid", "certificates", "game", "cli"):
        importlib.import_module(f"miopt.{mod}")
    modules = [mod for mod_name, mod in sys.modules.items() if mod_name.startswith("miopt.")]
    orig = next(getattr(mod, name) for mod in modules if hasattr(mod, name))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for mod in modules:
        if getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.fixture
def abs_problem():
    """Two abs-type interval objectives with linear constraints; the
    constrained minimum sits at 0 with active constraint -u0."""
    return make_problem(
        1,
        [("abs(u0)", "abs(u0)+1"), ("2*abs(u0)", "2*abs(u0)+2")],
        ["-u0", "-u0-1"],
        [-2.0], [2.0],
        name="abs-pair")


@pytest.fixture
def quad_problem():
    """F = [u^2, 3u^2] on the box [-1, 1], unconstrained."""
    return make_problem(1, [("u0^2", "3*u0^2")], [], [-1.0], [1.0],
                        name="quad")


@pytest.fixture
def convexity_problem():
    """Abs-type objectives with a single linear constraint; generalized
    convexity holds at 0 with the witness direction v = u."""
    return make_problem(
        1,
        [("abs(u0)", "abs(u0)+1"), ("2*abs(u0)", "2*abs(u0)+1")],
        ["-u0"],
        [-2.0], [2.0],
        name="abs-convexity")


ABS_PROBLEM_JSON = {
    "dim": 1,
    "name": "abs-pair",
    "objectives": [
        {"lower": "abs(u0)", "upper": "abs(u0)+1"},
        {"lower": "2*abs(u0)", "upper": "2*abs(u0)+2"},
    ],
    "constraints": ["-u0", "-u0-1"],
    "box": {"lo": [-2], "hi": [2]},
    "grid": {"points_per_dim": 401},
}

QUAD_GAME_JSON = {
    "name": "quadratic-2p",
    "players": [
        {
            "dim": 1,
            "objectives": [{"lower": "(u0-u1)^2", "upper": "3*(u0-u1)^2"}],
            "constraints": [],
            "box": {"lo": [0], "hi": [1]},
            "grid": {"points_per_dim": 101},
        },
        {
            "dim": 1,
            "objectives": [{"lower": "(u1-u0)^2", "upper": "3*(u1-u0)^2"}],
            "constraints": [],
            "box": {"lo": [0], "hi": [1]},
            "grid": {"points_per_dim": 101},
        },
    ],
}


@pytest.fixture
def abs_problem_file(tmp_path):
    path = tmp_path / "abs.json"
    path.write_text(json.dumps(ABS_PROBLEM_JSON))
    return str(path)


@pytest.fixture
def quad_game_file(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(QUAD_GAME_JSON))
    return str(path)


@pytest.fixture
def quad_game():
    from miopt.io import game_from_dict

    return game_from_dict(QUAD_GAME_JSON)
