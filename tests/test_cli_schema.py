"""README's example invocations, run on README's problem file and the
conftest game: each exits with its verdict's code and writes a --json
report with a pinned set of top-level keys."""

import json
import pathlib
import re
import shlex

import pytest

from miopt.cli import main
from .conftest import QUAD_GAME_JSON

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()

_EXIT = {"holds": 0, "fails": 1, "inconclusive": 2,
         "not-found-at-resolution": 2, "hypothesis-failed": 1}

_COMMON = {"command", "verdict", "elapsed_seconds"}
_PROBLEM = _COMMON | {"config"}
_CERTIFICATE = {"residual", "threshold", "lambda", "mu", "objective_witnesses",
                "constraint_witnesses", "exact", "iterations", "gap", "mu_capped"}

KEYS = {
    "verify": _PROBLEM | {"concept", "point", "grid_size"},
    "exist": _PROBLEM | {"point", "start", "iterations", "merits"},
    "evp": _PROBLEM | {"point", "x0", "a_holds", "b_value", "b_bound", "b_holds", "c_holds"},
    "quasi": _PROBLEM | {"point", "qm_verified", "ball_check", "certificate"},
    "kkt": _PROBLEM | _CERTIFICATE | {"point"},
    "bcq": _PROBLEM | {"distance", "active_set", "vacuous"},
    "epskkt": _PROBLEM | {"points_scanned", "x_delta", "certificate"},
    "genconvex": _PROBLEM | {"samples_checked", "infeasible_samples", "stalled_samples"},
    "sufficiency": _PROBLEM | {"qm_confirmed", "kkt"},
    "modkkt": _PROBLEM | {"complementarity_value", "x_eps", "certificate"},
    "seqkkt": _PROBLEM | {"entries"},
    "prop21": _PROBLEM | {"eps0", "checked", "violations"},
    "thm33": _PROBLEM | {"hypothesis_holds", "conclusion_verified"},
    "game-verify": _COMMON | {"concept", "point"},
    "game-kkt": _COMMON | {"mode", "players"},
    "game-sufficiency": _COMMON | {"per_player", "qne_confirmed"},
}


def _block(after: str, lang: str) -> str:
    start = README.index(after)
    return re.search(rf"```{lang}\n(.*?)```", README[start:], re.S).group(1)


EXAMPLES = [line for line in _block("Example invocations:", "sh").splitlines() if line]


def test_readme_examples_cover_every_subcommand():
    assert len(EXAMPLES) == 18
    assert {shlex.split(line)[1] for line in EXAMPLES} == set(KEYS)


@pytest.mark.parametrize("line", EXAMPLES)
def test_readme_example_report_schema(tmp_path, line):
    problem = tmp_path / "p.json"
    problem.write_text(_block("A problem file looks like:", "json"))
    game = tmp_path / "g.json"
    game.write_text(json.dumps(QUAD_GAME_JSON))
    files = {"p.json": str(problem), "g.json": str(game)}
    argv = [files.get(tok, tok) for tok in shlex.split(line)[1:]]
    report_path = tmp_path / "report.json"
    code = main(argv + ["--json", str(report_path)])
    report = json.loads(report_path.read_text())
    assert code == _EXIT[report["verdict"]]
    assert set(report) == KEYS[argv[0]]
