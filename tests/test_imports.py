"""What importing the package loads: ``import miopt`` loads no module,
loading a problem or game file loads only the modules that loading runs,
and the lazily resolved names are the objects the package has always
exported."""

import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import miopt
from .conftest import ABS_PROBLEM_JSON, QUAD_GAME_JSON

SRC = os.path.dirname(os.path.dirname(os.path.abspath(miopt.__file__)))

# every public name of the package, by the module it comes from, as the
# package exported them when it imported all of its modules eagerly
EXPORTED = {
    "certificates": "BCQReport CertificateError CertificateReport GenConvexReport "
                    "MinNormResult ModKKTOutcome SearchOutcome SequenceReport "
                    "SufficiencyReport approx_kkt_sequence bcq_check eps_kkt_thm_4_1 "
                    "gen_convexity_check hull_distance kkt_check min_norm_over_multipliers "
                    "modified_eps_kkt sufficiency_thm_4_3",
    "evp": "DescentError DescentTrace EvpCertificate PremiseError QuasiExistenceReport "
           "descent_eps_minimal evp_descent evp_descent_vector quasi_existence",
    "expr": "Abs Const Expr ExprError IVFunction Max Min Polytope Power Product Scale Sum "
            "Var clarke_subdiff eval_expr gradient is_smooth linear_combination "
            "parse_expr to_string weak_gen_gradient",
    "game": "Game GameError Player find_deviation fix_opponents game_kkt game_sufficiency "
            "is_w_eps_ne is_w_eps_ne_direct is_w_eps_qne is_w_eps_qne_direct "
            "profile_feasible",
    "grid": "GridError GridSpec Prop21Report Thm33Verdict ValueTable check_prop_2_1 "
            "check_thm_3_3 default_points_per_dim eps_minimal_mask feasible_grid "
            "grid_points quasi_minimal_mask spec_for value_table",
    "interval": "Interval ZERO add cw_leq cw_lt gh_diff hausdorff norm scalar_mul",
    "io": "SchemaError load problem_from_dict game_from_dict save serialize",
    "problem": "DEFAULT_TOLERANCES MIOProblem Tolerances active_set as_epsilon feasible "
               "is_weak_eps_minimal is_weak_eps_quasi_minimal is_weak_minimal "
               "restrict_to_ball",
}
# the modules whose public functions perfbench/tracing.py wraps after
# importing miopt.cli
TRACED = ("grid", "problem", "expr", "evp", "certificates", "game", "io")


def _loaded_after(code: str, *args: str) -> set[str]:
    """The miopt modules loaded in a fresh interpreter after running code."""
    code += "\nimport sys\nprint(' '.join(m for m in sys.modules if m.startswith('miopt.')))"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


def test_import_miopt_loads_no_module():
    assert _loaded_after("import miopt") == set()


def test_loading_a_problem_loads_only_the_load_path(tmp_path):
    path = tmp_path / "abs.json"
    path.write_text(json.dumps(ABS_PROBLEM_JSON))
    loaded = _loaded_after("import sys, miopt.io\nmiopt.io.load(sys.argv[1])", str(path))
    assert {"miopt.io", "miopt.grid", "miopt.problem", "miopt.expr"} <= loaded
    assert not loaded & {"miopt.certificates", "miopt.evp", "miopt.game", "miopt.cli"}


def test_loading_a_game_loads_no_certificate_code(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(QUAD_GAME_JSON))
    loaded = _loaded_after("import sys, miopt.io\nmiopt.io.load(sys.argv[1])", str(path))
    assert {"miopt.io", "miopt.grid", "miopt.problem", "miopt.expr", "miopt.game"} <= loaded
    assert not loaded & {"miopt.certificates", "miopt.evp", "miopt.cli"}


def test_the_runtime_loads_no_scipy(tmp_path):
    path = tmp_path / "abs.json"
    path.write_text(json.dumps(ABS_PROBLEM_JSON))
    code = ("import sys, miopt.cli, miopt.io\n"
            "p = miopt.io.load(sys.argv[1])\n"
            "assert miopt.kkt_check(p, [0.0]).holds\n"
            "assert miopt.Polytope(2, ((0, 0), (1, 0), (0, 1), (0.25, 0.25)), True)"
            ".hull_vertices() == ((0, 0), (1, 0), (0, 1))\n"
            "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code, str(path)], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []


def test_import_cli_loads_every_traced_module():
    assert {f"miopt.{m}" for m in TRACED} <= _loaded_after("import miopt.cli")


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_exported_names_are_the_modules_objects(module):
    mod = getattr(miopt, module)
    assert mod is sys.modules[f"miopt.{module}"]
    for name in EXPORTED[module].split():
        assert getattr(miopt, name) is getattr(mod, name), name


def test_star_import_binds_the_exported_names_and_modules():
    ns = {}
    exec("from miopt import *", ns)
    names = {n for n in ns if n != "__builtins__"}
    expected = set(EXPORTED) | {n for names in EXPORTED.values() for n in names.split()}
    assert names == expected
    assert expected <= set(dir(miopt))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        miopt.nope
    assert miopt.cli is sys.modules["miopt.cli"]


def test_readme_qualified_names_resolve():
    """Every miopt.<module>.<name> that README.md names exists; a name
    followed by * (``miopt.problem.is_weak_*``) is a pattern and is left out."""
    readme = (pathlib.Path(SRC).parent / "README.md").read_text(encoding="utf-8")
    names = set(re.findall(r"\bmiopt\.(\w+)\.(\w+)\b(?!\*)", readme))
    assert ("grid", "first_dominator") in names
    missing = [f"miopt.{mod}.{name}" for mod, name in sorted(names)
               if not hasattr(importlib.import_module(f"miopt.{mod}"), name)]
    assert missing == []
