"""The expression IR: structural facts set once per node, the depth limit,
substitution, generator deduplication and the cached centre/half-width
expressions."""

import dataclasses
import inspect
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miopt import expr as X
from miopt.cli import main
from miopt.expr import (MAX_DEPTH, Abs, Const, ExprError, IVFunction, Max, Min, Power,
                        Product, Scale, Sum, Var, clarke_subdiff, eval_expr, eval_points,
                        parse_expr, substitute, to_string, weak_gen_gradient)
from miopt.io import load, save
from .test_eval_points import DIM, EXPRS, POINTS


# ---------------------------------------------------------------------------
# Facts against a reference walker
# ---------------------------------------------------------------------------

def _children(e):
    return [getattr(e, f.name) for f in dataclasses.fields(e)
            if isinstance(getattr(e, f.name), X.Expr)]


def _reference_facts(e):
    """(smooth, vars, depth) by walking the whole subtree."""
    kids = [_reference_facts(c) for c in _children(e)]
    own_smooth = not isinstance(e, (Abs, Max, Min))
    own_vars = {e.index} if isinstance(e, Var) else set()
    return (own_smooth and all(k[0] for k in kids),
            own_vars.union(*(k[1] for k in kids)),
            1 + max((k[2] for k in kids), default=0))


def _facts(e):
    return (e.smooth, set(e.vars), e.depth)


def _all_nodes(e):
    yield e
    for c in _children(e):
        yield from _all_nodes(c)


@settings(max_examples=300, deadline=None)
@given(EXPRS)
def test_facts_match_reference_walker(e):
    for node in _all_nodes(e):
        assert _facts(node) == _reference_facts(node)
        assert isinstance(node.vars, frozenset)
        assert X.is_smooth(node) == node.smooth


@settings(max_examples=100, deadline=None)
@given(EXPRS, EXPRS)
def test_facts_of_derived_expressions(a, b):
    f = IVFunction(a, Sum(a, Abs(b)), DIM)
    for e in (f.center_expr, f.halfwidth_expr, substitute(a, {0: Const(0.5), 1: Var(2)})):
        for node in _all_nodes(e):
            assert _facts(node) == _reference_facts(node)


def test_facts_stay_out_of_dataclass_protocols():
    e = parse_expr("max(u0, 2*u1) + u0^2", 2)
    same = parse_expr("max(u0, 2*u1) + u0^2", 2)
    assert e == same and hash(e) == hash(same) and e is not same
    assert [f.name for f in dataclasses.fields(Sum)] == ["left", "right"]
    assert Sum.__match_args__ == ("left", "right")
    assert Var.__match_args__ == ("index",)
    for word in ("smooth", "vars", "depth"):
        assert word not in repr(e)
    assert dataclasses.asdict(Sum(Var(0), Const(1.0))) == {"left": {"index": 0},
                                                           "right": {"value": 1.0}}
    assert dataclasses.replace(Scale(2.0, Var(1)), alpha=3.0).vars == frozenset({1})


def test_validation_reads_the_children_facts():
    with pytest.raises(ExprError, match="nonsmooth factor"):
        Product(Var(0), Sum(Const(1.0), Abs(Var(0))))
    with pytest.raises(ExprError, match="nonsmooth base"):
        Power(Scale(2.0, Max(Var(0), Var(1))), 2)
    assert Product(Var(0), Power(Var(1), 3)).smooth


def test_variable_range_checks_read_the_facts():
    with pytest.raises(ValueError, match="uses u2 but dim is 2"):
        IVFunction(Var(0), Sum(Var(2), Const(1.0)), 2)
    assert IVFunction(Const(0.0), Const(1.0), 1).dim == 1


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(EXPRS, POINTS)
def test_substitute_agrees_with_evaluating_at_the_mapped_point(e, pts):
    # u0 -> u2, u1 -> the constant 0.25, u2 kept: evaluating the result at
    # p equals evaluating e at (p2, 0.25, p2)
    out = substitute(e, {0: Var(2), 1: Const(0.25)})
    assert out.vars <= {2}
    for p in pts[:5]:
        q = [p[2], 0.25, p[2]]
        try:
            expected = eval_expr(e, q)
        except OverflowError:
            continue
        got = eval_expr(out, p)
        assert np.float64(got).view(np.int64) == np.float64(expected).view(np.int64)


def test_substitute_keeps_node_types():
    e = parse_expr("min(abs(u0), u1) + max(u1, -u0) * 1 + (u0*u1)^2", 2)
    assert substitute(e, {}) == e
    assert to_string(substitute(e, {1: Var(0)})) == to_string(e).replace("u1", "u0")


# ---------------------------------------------------------------------------
# Generator deduplication keeps the first-seen order
# ---------------------------------------------------------------------------

def _list_dedupe(items):
    out = []
    for g in items:
        if g not in out:
            out.append(g)
    return tuple(out)


GENS = st.lists(st.tuples(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0]),
                          st.sampled_from([0.0, -0.0, 1.0, 3.0])), min_size=1, max_size=12)


def _bits(gens):
    return [tuple(np.float64(x).view(np.int64).item() for x in g) for g in gens]


@settings(max_examples=300, deadline=None)
@given(GENS, GENS, st.sampled_from([1.0, -1.0, 0.0, 0.5, -2.0]))
def test_dedupe_matches_list_membership(a, b, alpha):
    sums = [tuple(x + y for x, y in zip(ga, gb)) for ga in a for gb in b]
    assert _bits(X._minkowski(a, b)) == _bits(_list_dedupe(sums))
    scaled = [tuple(alpha * x for x in g) for g in a]
    assert _bits(X._scale_gens(alpha, a)) == _bits(_list_dedupe(scaled))
    assert _bits(X._union_gens([a, b])) == _bits(_list_dedupe(a + b))


# ---------------------------------------------------------------------------
# abs as max(a, -a), with a differentiated once
# ---------------------------------------------------------------------------

def _info_bits(info):
    return _bits(info.gens), info.exact, info.regular, info.smooth


@settings(max_examples=200, deadline=None)
@given(EXPRS, POINTS)
def test_abs_subdiff_equals_max_with_the_negated_operand(e, pts):
    # the explicit max(a, -1.0 * a) differentiates both branches separately
    for u in pts.tolist():
        try:
            expected = _info_bits(X._subdiff(Max(e, Scale(-1.0, e)), u))
        except (ArithmeticError, ValueError):
            continue
        assert _info_bits(X._subdiff(Abs(e), u)) == expected


@pytest.mark.parametrize("inner, kink", [("u0", 0.0), ("3*u0 - 1.5", 0.5)])
def test_nested_abs_subdiff_calls_grow_linearly(monkeypatch, inner, kink):
    # every level ties at the kink
    calls = []
    original = X._subdiff

    def counting(e, u):
        calls.append(e)
        return original(e, u)

    monkeypatch.setattr(X, "_subdiff", counting)
    counts = []
    e = parse_expr(inner, 1)
    slope = float(X.gradient(e, [kink])[0])
    for depth in range(1, 17):
        e = Abs(e)
        calls.clear()
        p = clarke_subdiff(e, [kink])
        counts.append(len(calls))
        assert set(p.generators) == {(slope,), (-slope,)}
    # one call per abs level and one for the smooth operand
    assert counts == list(range(2, 18))


# ---------------------------------------------------------------------------
# Cached centre and half-width, one branch tolerance
# ---------------------------------------------------------------------------

def test_center_and_halfwidth_built_once_per_function():
    f = IVFunction(parse_expr("abs(u0)", 1), parse_expr("abs(u0) + 1", 1), 1)
    assert f.center_expr is f.center_expr
    assert f.halfwidth_expr is f.halfwidth_expr
    assert f.halfwidth_expr == Const(0.5)
    assert f == IVFunction(parse_expr("abs(u0)", 1), parse_expr("abs(u0) + 1", 1), 1)
    assert weak_gen_gradient(f, [0.0]).generators == ((1.0,), (-1.0,), (0.0,))


def test_branch_tolerance_is_a_module_constant():
    assert X.BRANCH_TOL == 1e-9
    assert not hasattr(X, "TAU_ACT")
    for fn in (clarke_subdiff, weak_gen_gradient):
        assert "tau_act" not in inspect.signature(fn).parameters
    # a branch within BRANCH_TOL of the maximum is active
    p = clarke_subdiff(parse_expr("max(u0, 0.0000000005)", 1), [0.0])
    assert set(p.generators) == {(1.0,), (0.0,)}
    p = clarke_subdiff(parse_expr("max(u0, 0.000000002)", 1), [0.0])
    assert p.generators == ((0.0,),)


# ---------------------------------------------------------------------------
# Depth limit
# ---------------------------------------------------------------------------

def _sum(terms):
    return "+".join(["u0"] * terms)


def _parens(levels):
    return "(" * levels + "u0" + ")" * levels


def _nested_max(depth):
    # depth - 1 max nodes over the leaf u0; every level ties at u0 = 0
    return "max(" * (depth - 1) + "u0" + ", 0)" * (depth - 1)


def _problem_file(path, objectives):
    doc = {"dim": 1, "objectives": [{"lower": lo, "upper": hi} for lo, hi in objectives],
           "box": {"lo": [0], "hi": [1]}, "grid": {"points_per_dim": 11}}
    path.write_text(json.dumps(doc))
    return str(path)


def test_tree_depth_fact_and_limit():
    assert parse_expr(_sum(MAX_DEPTH), 1).depth == MAX_DEPTH
    assert parse_expr(_nested_max(MAX_DEPTH), 1).depth == MAX_DEPTH
    assert parse_expr(_parens(MAX_DEPTH), 1).depth == 1
    with pytest.raises(ExprError, match=f"limit of {MAX_DEPTH} levels"):
        parse_expr(_sum(MAX_DEPTH + 1), 1)
    with pytest.raises(ExprError, match=f"limit of {MAX_DEPTH} levels"):
        parse_expr(_parens(MAX_DEPTH + 1), 1)
    with pytest.raises(ExprError, match=f"limit of {MAX_DEPTH} levels"):
        parse_expr("-" * (MAX_DEPTH + 1) + "1", 1)
    # constructors leave twice the room, for sums derived from endpoints
    deep = parse_expr(_sum(MAX_DEPTH), 1)
    for _ in range(MAX_DEPTH):
        deep = Abs(deep)
    assert deep.depth == 2 * MAX_DEPTH
    assert eval_expr(deep, [1.0]) == MAX_DEPTH and clarke_subdiff(deep, [1.0]).exact
    assert deep == Abs(deep.operand) and hash(deep) == hash(Abs(deep.operand))
    with pytest.raises(ExprError, match=f"parse limit of {MAX_DEPTH} levels"):
        Abs(deep)


def test_expressions_at_the_limit_work_end_to_end(tmp_path):
    objectives = [(_nested_max(MAX_DEPTH), _sum(MAX_DEPTH)),
                  (_parens(MAX_DEPTH), _parens(MAX_DEPTH - 1) + " + 1")]
    path = _problem_file(tmp_path / "deep.json", objectives)
    prob = load(path)
    lower = prob.objectives[0].lower
    assert lower.depth == MAX_DEPTH and prob.objectives[0].upper.depth == MAX_DEPTH
    pts = np.array([[0.0], [0.5], [1.0]])
    assert eval_points(lower, pts).tolist() == [0.0, 0.5, 1.0]
    assert eval_points(prob.objectives[0].upper, pts).tolist() == [0.0, MAX_DEPTH * 0.5,
                                                                    float(MAX_DEPTH)]
    p = clarke_subdiff(lower, [0.0])
    assert set(p.generators) == {(1.0,), (0.0,)} and p.exact
    assert weak_gen_gradient(prob.objectives[0], [0.0]).exact
    for e in (lower, prob.objectives[0].upper):
        assert parse_expr(to_string(e), 1) == e
    copy = str(tmp_path / "copy.json")
    save(prob, copy)
    assert load(copy) == prob
    assert main(["kkt", "--problem", path, "--point", "0"]) in (0, 1)


@pytest.mark.parametrize("lower", [_sum(MAX_DEPTH + 1), _sum(1200),
                                   _parens(MAX_DEPTH + 1), _parens(400),
                                   _nested_max(MAX_DEPTH + 1), "-" * 600 + "u0"])
def test_cli_rejects_expressions_past_the_limit(tmp_path, capsys, lower):
    path = _problem_file(tmp_path / "deep.json", [(lower, "u0 + 1000")])
    assert main(["kkt", "--problem", path, "--point", "0.5"]) == 3
    assert f"limit of {MAX_DEPTH} levels" in capsys.readouterr().err
