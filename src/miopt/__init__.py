"""Verification-first toolkit for multiobjective interval-valued
optimization problems (MIOPs) and the associated noncooperative games.

Everything is organized around checkable certificates: solution
concepts are decided against explicit finite candidate grids,
subdifferentials are finitely generated polytopes with exactness
tracking, and every KKT-type condition reduces to a min-norm
computation whose multipliers and witnesses are reported.

Importing the package imports none of its modules.  Each exported name
and each ``miopt.<module>`` attribute imports its module on first use
(PEP 562), so loading a problem file pays only for the modules that
loading runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "certificates": (
        "BCQReport", "CertificateError", "CertificateReport", "GenConvexReport",
        "MinNormResult", "ModKKTOutcome", "SearchOutcome", "SequenceReport",
        "SufficiencyReport", "approx_kkt_sequence", "bcq_check", "eps_kkt_thm_4_1",
        "gen_convexity_check", "hull_distance", "kkt_check",
        "min_norm_over_multipliers", "modified_eps_kkt", "sufficiency_thm_4_3"),
    "evp": (
        "DescentError", "DescentTrace", "EvpCertificate", "PremiseError",
        "QuasiExistenceReport", "descent_eps_minimal", "evp_descent",
        "evp_descent_vector", "quasi_existence"),
    "expr": (
        "Abs", "Const", "Expr", "ExprError", "IVFunction", "Max", "Min", "Polytope",
        "Power", "Product", "Scale", "Sum", "Var", "clarke_subdiff", "eval_expr",
        "gradient", "is_smooth", "linear_combination", "parse_expr", "to_string",
        "weak_gen_gradient"),
    "game": (
        "Game", "GameError", "Player", "find_deviation", "fix_opponents", "game_kkt",
        "game_sufficiency", "is_w_eps_ne", "is_w_eps_ne_direct", "is_w_eps_qne",
        "is_w_eps_qne_direct", "profile_feasible"),
    "grid": (
        "GridError", "GridSpec", "Prop21Report", "Thm33Verdict", "ValueTable",
        "check_prop_2_1", "check_thm_3_3", "default_points_per_dim",
        "eps_minimal_mask", "feasible_grid", "grid_points", "quasi_minimal_mask",
        "spec_for", "value_table"),
    "interval": (
        "Interval", "ZERO", "add", "cw_leq", "cw_lt", "gh_diff", "hausdorff", "norm",
        "scalar_mul"),
    "io": ("SchemaError", "load", "problem_from_dict", "game_from_dict", "save",
           "serialize"),
    "problem": (
        "DEFAULT_TOLERANCES", "MIOProblem", "Tolerances", "active_set", "as_epsilon",
        "feasible", "is_weak_eps_minimal", "is_weak_eps_quasi_minimal",
        "is_weak_minimal", "restrict_to_ball"),
}

# exported name -> the module it is taken from
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = frozenset(_EXPORTS) | {"cli"}

# what ``from miopt import *`` binds: every exported name and every
# module above (the CLI stays out: star-importing should not load it)
__all__ = sorted(_ORIGIN.keys() | _EXPORTS.keys())


def __getattr__(name: str):
    if name in _MODULES:
        return _import_module(f"{__name__}.{name}")
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _ORIGIN.keys() | _MODULES)
