import itertools
import json

import numpy as np
import pytest

from miopt import (Game, GameError, IVFunction, Player, eval_expr,
                   find_deviation, fix_opponents, is_w_eps_ne,
                   is_w_eps_ne_direct, is_w_eps_qne, is_w_eps_qne_direct,
                   parse_expr)
from miopt.certificates import PremiseError
from miopt.game import first_deviation, game_kkt, game_sufficiency, profile_feasible
from .conftest import count_calls


def make_player(dim_total, objectives, constraints, box_lo, box_hi, ppd=None):
    objs = tuple(IVFunction(parse_expr(lo, dim_total), parse_expr(hi, dim_total),
                            dim_total) for lo, hi in objectives)
    cons = tuple(parse_expr(g, dim_total) for g in constraints)
    return Player(dim=len(box_lo), objectives=objs, constraints=cons,
                  box_lo=tuple(box_lo), box_hi=tuple(box_hi), points_per_dim=ppd)


@pytest.fixture
def abs_game():
    """Per-player losses [|u_i - c_i|, |u_i - c_i| + 1] with -u_i <= 0."""
    p0 = make_player(2, [("abs(u0 - 0.5)", "abs(u0 - 0.5) + 1")], ["-u0"],
                     [0.0], [1.0], ppd=101)
    p1 = make_player(2, [("abs(u1 - 0.25)", "abs(u1 - 0.25) + 1")], ["-u1"],
                     [0.0], [1.0], ppd=101)
    return Game(players=(p0, p1), name="abs-game")


def test_game_validation_rejects_shared_constraints():
    p0 = make_player(2, [("u0", "u0")], ["u1 - u0"], [0.0], [1.0])
    p1 = make_player(2, [("u1", "u1")], [], [0.0], [1.0])
    with pytest.raises(GameError):
        Game(players=(p0, p1))


def test_game_needs_two_players():
    p0 = make_player(1, [("u0", "u0")], [], [0.0], [1.0])
    with pytest.raises(GameError):
        Game(players=(p0,))


def test_fix_opponents_substitution(quad_game):
    prob = fix_opponents(quad_game, 0, [0.3, 0.5])
    assert prob.dim == 1
    f = prob.objectives[0]
    for y in (0.0, 0.25, 0.5, 1.0):
        assert eval_expr(f.lower, [y]) == (y - 0.5) ** 2
        assert eval_expr(f.upper, [y]) == 3 * (y - 0.5) ** 2


def test_fix_opponents_independent_loss_unchanged(abs_game):
    prob = fix_opponents(abs_game, 0, [0.5, 0.9])
    for y in (0.0, 0.5, 1.0):
        assert eval_expr(prob.objectives[0].lower, [y]) == abs(y - 0.5)


def test_fix_opponents_three_players():
    players = tuple(
        make_player(3, [(f"(u{i} - u{(i + 1) % 3})^2",
                         f"(u{i} - u{(i + 1) % 3})^2 + 1")], [],
                    [0.0], [1.0], ppd=11)
        for i in range(3))
    game = Game(players=players)
    prob = fix_opponents(game, 0, [0.0, 0.25, 0.75])
    assert prob.dim == 1
    assert eval_expr(prob.objectives[0].lower, [1.0]) == (1.0 - 0.25) ** 2


def test_quadratic_game_equilibrium(quad_game):
    assert is_w_eps_ne(quad_game, [0.5, 0.5], 0.1)
    assert is_w_eps_qne(quad_game, [0.5, 0.5], 0.1)


def test_quadratic_game_large_eps_trivializes(quad_game):
    assert is_w_eps_ne(quad_game, [0.0, 1.0], 10.0)


def test_quadratic_game_deviation(quad_game):
    assert not is_w_eps_ne(quad_game, [0.0, 1.0], 0.01)
    dev = find_deviation(quad_game, 0, [0.0, 1.0], 0.01)
    assert dev is not None
    assert (dev[0] - 1.0) ** 2 < (0.0 - 1.0) ** 2


def test_infeasible_profile_rejected(abs_game):
    with pytest.raises(GameError):
        is_w_eps_ne(abs_game, [-0.5, 0.5], 0.1)
    assert not profile_feasible(abs_game, [-0.5, 0.5])


def ref_find_deviation(game, i, u_bar, eps, quasi=False):
    """Point-by-point scalar reference: the first grid row of player i
    that is feasible and strictly improves every loss past the handicap."""
    from miopt.game import grid_points, player_spec

    u_arr = np.asarray(u_bar, dtype=float)
    pl = game.players[i]
    start = game.block_start(i)
    ui = game.block(i, u_arr)
    eps = np.broadcast_to(np.asarray(eps, dtype=float), (len(pl.objectives),))
    base = [(f.center(u_arr), f.halfwidth(u_arr)) for f in pl.objectives]
    for y in grid_points(pl.box_lo, pl.box_hi, player_spec(game, i)):
        profile = u_arr.copy()
        profile[start:start + pl.dim] = y
        if any(eval_expr(g, profile) > game.tolerances.tau_feas for g in pl.constraints):
            continue
        scale = float(np.linalg.norm((y - ui)[None, :], axis=1)[0]) if quasi else 1.0
        if all(f.center(profile) + eps[k] * scale / 2.0 < base[k][0]
               and f.halfwidth(profile) + eps[k] * scale / 2.0 < base[k][1]
               for k, f in enumerate(pl.objectives)):
            return y
    return None


@pytest.fixture
def constrained_game():
    """Two objectives per player, a constraint that cuts each player's
    grid, and losses that couple the blocks."""
    p0 = make_player(3, [("abs(u0-u2)", "2*abs(u0-u2)+u1^2"), ("u0^2", "3*u0^2+abs(u1)")],
                     ["u0-0.75"], [-1.0], [1.0], ppd=33)
    p1 = make_player(3, [("(u1-u0)^2+abs(u2)", "2*(u1-u0)^2+3*abs(u2)+0.5")],
                     ["u1^2+u2^2-1"], [-1.0, -1.0], [1.0, 1.0], ppd=9)
    return Game(players=(p0, p1))


def test_find_deviation_equals_scalar_reference(quad_game, abs_game, constrained_game):
    rng = np.random.default_rng(7)
    for game in (quad_game, abs_game, constrained_game):
        for _ in range(12):
            profile = rng.uniform(0, 0.5, size=game.profile_dim)
            eps = float(rng.choice([0.0, 0.01, 0.05, 0.2]))
            for i in range(game.n_players):
                for quasi in (False, True):
                    got = find_deviation(game, i, profile, eps, quasi)
                    want = ref_find_deviation(game, i, profile, eps, quasi)
                    assert (got is None) == (want is None)
                    if got is not None:
                        assert np.array_equal(got, want)
            assert is_w_eps_ne(game, profile, eps) == is_w_eps_ne_direct(game, profile, eps)
            assert is_w_eps_qne(game, profile, eps) == is_w_eps_qne_direct(game, profile, eps)


def test_two_code_paths_agree(quad_game, abs_game):
    rng = np.random.default_rng(31)
    for game in (quad_game, abs_game):
        for _ in range(10):
            profile = rng.uniform(0, 1, size=2)
            eps = float(rng.choice([0.0, 0.01, 0.1, 1.0]))
            assert is_w_eps_ne(game, profile, eps) == \
                is_w_eps_ne_direct(game, profile, eps)
            assert is_w_eps_qne(game, profile, eps) == \
                is_w_eps_qne_direct(game, profile, eps)


def _first_direct_deviation(game, profile, eps, quasi):
    for i in range(game.n_players):
        dev = find_deviation(game, i, profile, eps, quasi)
        if dev is not None:
            return i, dev
    return None


def _lattice_profiles(quad_game, abs_game, constrained_game):
    """(game, profile) for the feasible profiles of a small lattice of each fixture game."""
    lattices = [(quad_game, np.linspace(0, 1, 6)), (abs_game, np.linspace(0, 1, 6)),
                (constrained_game, np.linspace(-1, 1, 5))]
    for game, axis in lattices:
        for profile in itertools.product(axis, repeat=game.profile_dim):
            if profile_feasible(game, profile):
                yield game, profile


def test_first_deviation_is_the_first_direct_deviation(quad_game, abs_game, constrained_game):
    """The reduction query behind both predicates and game-verify returns
    the player and strategy of the independent path's first deviation."""
    outcomes = set()
    for game, profile in _lattice_profiles(quad_game, abs_game, constrained_game):
        for eps, quasi in itertools.product((0.0, 0.01, 0.1), (False, True)):
            got = first_deviation(game, profile, eps, quasi)
            want = _first_direct_deviation(game, profile, eps, quasi)
            assert (got is None) == (want is None)
            if got is not None:
                assert got[0] == want[0]
                assert np.array_equal(got[1], want[1])
                outcomes.add(got[0])
            else:
                outcomes.add(None)
    assert outcomes == {None, 0, 1}


def test_game_kkt_premise_is_the_equilibrium_query(quad_game, abs_game, constrained_game):
    """Thm 5.2's premise is first_deviation(..., quasi=True): game_kkt names
    the player and strategy that query returns, and runs where it returns None."""
    players = set()
    for game, profile in _lattice_profiles(quad_game, abs_game, constrained_game):
        for eps in (0.01, 0.1):
            dev = first_deviation(game, profile, eps, quasi=True)
            if dev is None:
                assert len(game_kkt(game, profile, eps)) == game.n_players
                continue
            with pytest.raises(PremiseError) as exc:
                game_kkt(game, profile, eps)
            assert str(exc.value) == (f"player {dev[0]}: profile is not a weak eps-quasi "
                                      f"equilibrium on its grid: strategy {dev[1].tolist()} "
                                      "dominates it")
            players.add(dev[0])
    assert players == {0, 1}


def test_game_kkt_checks_every_players_eps_before_the_premise(constrained_game):
    # player 0 (two objectives) deviates at this profile, but the eps
    # vector does not fit player 1 (one objective)
    profile, eps = [0.5, 0.0, 0.0], [0.01, 0.01]
    assert first_deviation(constrained_game, profile, eps, quasi=True)[0] == 0
    with pytest.raises(ValueError, match="^epsilon has 2 components, expected 1$"):
        game_kkt(constrained_game, profile, eps)


def test_game_kkt_interior_equilibrium(quad_game):
    outcomes = game_kkt(quad_game, [0.5, 0.5], 0.1, mode="thm_5_2")
    assert len(outcomes) == 2
    for out in outcomes:
        assert out.report.holds
        assert out.report.residual <= 1e-8
        assert np.all(out.report.mu == 0)


def test_game_kkt_premise_enforced(quad_game):
    with pytest.raises(PremiseError):
        game_kkt(quad_game, [0.0, 1.0], 0.01, mode="thm_5_2")


def test_game_kkt_boundary_multiplier(abs_game):
    """Player at the constraint boundary picks up a positive multiplier."""
    p0 = make_player(2, [("u0", "2*u0")], ["-u0"], [0.0], [1.0], ppd=101)
    p1 = make_player(2, [("abs(u1 - 0.5)", "abs(u1 - 0.5) + 1")], ["-u1"],
                     [0.0], [1.0], ppd=101)
    game = Game(players=(p0, p1))
    outcomes = game_kkt(game, [0.0, 0.5], 0.5, mode="thm_5_2")
    rep = outcomes[0].report
    assert rep.holds
    assert rep.mu[0] > 0


def _two_slopes_game():
    """Player 0 has objectives [u0, 3*u0] and [2*u0, 6*u0], whose
    generators {2, 1} and {4, 2} put the nearest point at lam = (1, 0)."""
    p0 = make_player(2, [("u0", "3*u0"), ("2*u0", "6*u0")], [], [0.0], [1.0], ppd=101)
    p1 = make_player(2, [("u1^2", "u1^2 + 1"), ("u1^2", "2*u1^2 + 1")], [], [0.0], [1.0],
                     ppd=101)
    return Game(players=(p0, p1))


def test_game_kkt_takes_the_lambda_that_meets_its_radius():
    # player 0's residual is 1 at lam = (1, 0), over its radius 0, and 2 at
    # lam = (0, 1), under its radius 5
    rep = game_kkt(_two_slopes_game(), [0.5, 0.0], [0.0, 5.0], mode="thm_5_2")[0].report
    assert rep.holds
    assert rep.lam == pytest.approx([0.0, 1.0], abs=1e-12)


def test_game_sufficiency_takes_the_lambda_that_meets_its_radius():
    assert game_sufficiency(_two_slopes_game(), [0.0, 0.0], [0.0, 5.0]).verdict == "holds"


def test_game_kkt_ball_mode(quad_game):
    outcomes = game_kkt(quad_game, [0.5, 0.5], 0.1, mode="thm_5_1", delta=0.4)
    for out in outcomes:
        assert out.search.verdict == "holds"


def test_game_kkt_mode_validation(quad_game):
    with pytest.raises(GameError):
        game_kkt(quad_game, [0.5, 0.5], 0.1, mode="thm_5_1")
    with pytest.raises(GameError):
        game_kkt(quad_game, [0.5, 0.5], 0.1, mode="nope")


def test_game_sufficiency_holds(abs_game):
    rep = game_sufficiency(abs_game, [0.5, 0.25], 0.1)
    assert rep.verdict == "holds"
    assert rep.qne_confirmed


def test_game_sufficiency_quadratic(quad_game):
    rep = game_sufficiency(quad_game, [0.5, 0.5], 0.1)
    assert rep.verdict == "holds"


def test_game_sufficiency_hypothesis_failed(quad_game):
    rep = game_sufficiency(quad_game, [0.0, 1.0], 0.001)
    assert rep.verdict == "hypothesis-failed"


@pytest.mark.parametrize("query", [is_w_eps_ne, is_w_eps_qne, first_deviation])
def test_equilibrium_queries_evaluate_each_player_once(monkeypatch, constrained_game, query):
    counts = {name: count_calls(monkeypatch, name)
              for name in ("fix_opponents", "endpoint_values", "feasible_grid", "value_table")}
    query(constrained_game, [0.5, 0.0, 0.0], 0.01)
    assert {name: len(calls) for name, calls in counts.items()} == \
        {"fix_opponents": 0, "endpoint_values": 2, "feasible_grid": 0, "value_table": 0}


def test_game_kkt_checks_the_profile_once(monkeypatch, quad_game):
    counts = {name: count_calls(monkeypatch, name)
              for name in ("fix_opponents", "_checked_profile", "endpoint_values")}
    game_kkt(quad_game, [0.5, 0.5], 0.1)
    # thm_5_2 reads its premise from the checked values: one problem per
    # player, for its subdifferentials, and no second evaluation
    assert {name: len(calls) for name, calls in counts.items()} == \
        {"fix_opponents": 2, "_checked_profile": 1, "endpoint_values": 2}


def test_game_sufficiency_builds_each_player_problem_and_grid_once(monkeypatch, quad_game):
    counts = {name: count_calls(monkeypatch, name)
              for name in ("fix_opponents", "weak_gen_gradient", "feasible_grid")}
    assert game_sufficiency(quad_game, [0.5, 0.5], 0.1).verdict == "holds"
    # per player: one problem, and one objective polytope each for the KKT
    # check and the convexity check; the grid is the profile check's
    assert {name: len(calls) for name, calls in counts.items()} == \
        {"fix_opponents": 2, "weak_gen_gradient": 4, "feasible_grid": 0}


@pytest.mark.parametrize("query", [
    lambda g: game_kkt(g, [0.5, 0.5], 0.1),
    lambda g: game_kkt(g, [0.5, 0.5], 0.1, mode="thm_5_1", delta=0.4),
    lambda g: game_sufficiency(g, [0.5, 0.5], 0.1),
], ids=["kkt-thm_5_2", "kkt-thm_5_1", "sufficiency"])
def test_game_certificates_evaluate_each_player_once(monkeypatch, quad_game, query):
    counts = {name: count_calls(monkeypatch, name)
              for name in ("endpoint_values", "feasible_grid", "value_table")}
    query(quad_game)
    assert {name: len(calls) for name, calls in counts.items()} == \
        {"endpoint_values": 2, "feasible_grid": 0, "value_table": 0}
    # each over the player's 101 grid points and the profile, in its last row
    assert [len(pts) for _, pts in counts["endpoint_values"]] == [102, 102]


@pytest.fixture
def superset_game():
    """Player 0's second constraint is -1 everywhere, so never active, and
    its subdifferential at u0 = 0 is a superset; player 1's objective is
    -0.5*u1, with a superset at u1 = 0."""
    f = "-0.5*u1 + abs(u1) - 0.5*abs(2*u1)"
    p0 = make_player(2, [("u0", "u0+1")], ["-u0", "abs(u0) - 0.5*abs(2*u0) - 1"],
                     [0.0], [1.0], ppd=11)
    p1 = make_player(2, [(f, f)], [], [-1.0], [1.0], ppd=11)
    return Game(players=(p0, p1))


def _label(rep) -> str:
    if rep.kkt is None:
        return "inexact"
    if not rep.kkt.holds:
        return f"kkt-{rep.kkt.verdict}"
    if not rep.gen_convex.holds:
        return f"genconvex-{rep.gen_convex.verdict}"
    return "ok"


def test_game_sufficiency_is_thm_4_3_per_player(quad_game, abs_game, constrained_game,
                                                superset_game):
    from miopt.certificates import sufficiency_thm_4_3
    from miopt.game import player_spec

    rng = np.random.default_rng(3)
    cases = [(quad_game, [0.5, 0.5], 0.1), (quad_game, [0.0, 1.0], 0.001),
             (abs_game, [0.5, 0.25], 0.1), (abs_game, [0.5, 0.0], 0.1),
             (superset_game, [0.0, 0.0], 0.1), (superset_game, [0.5, 0.0], 0.1)]
    cases += [(constrained_game, list(rng.uniform(0, 0.5, size=3)), eps)
              for eps in (0.05, 0.5, 5.0)]
    seen = set()
    for game, profile, eps in cases:
        rep = game_sufficiency(game, profile, eps)
        players = [sufficiency_thm_4_3(fix_opponents(game, i, profile), game.block(i, profile),
                                       np.full(len(game.players[i].objectives), eps),
                                       player_spec(game, i))
                   for i in range(game.n_players)]
        assert rep.per_player == [(i, _label(p)) for i, p in enumerate(players)]
        verdicts = {p.verdict for p in players}
        want = ("inconclusive" if "inconclusive" in verdicts else
                "hypothesis-failed" if "hypothesis-failed" in verdicts else "holds")
        assert rep.verdict == want
        assert rep.qne_confirmed is (True if want == "holds" else None)
        if want == "holds":
            assert is_w_eps_qne(game, profile, eps)
        seen.update(label for _, label in rep.per_player)
    assert seen == {"ok", "inexact", "kkt-fails", "genconvex-fails", "genconvex-inconclusive"}


def test_game_sufficiency_needs_no_exact_inactive_constraint(superset_game):
    # player 0's inactive superset no longer stops it before the KKT
    # stage; its rows then refute nothing in the convexity check
    rep = game_sufficiency(superset_game, [0.0, 0.0], 0.1)
    assert rep.per_player == [(0, "genconvex-inconclusive"), (1, "inexact")]
    assert rep.verdict == "inconclusive"


# ---------------------------------------------------------------------------
# Interval validity on each player's grid
# ---------------------------------------------------------------------------

def _game_doc(lower, upper, lo, hi, points=21):
    """A two-player game whose player-0 objective is [lower, upper]."""
    return {"players": [
        {"dim": 1, "objectives": [{"lower": lower, "upper": upper}],
         "box": {"lo": [lo], "hi": [hi]}, "grid": {"points_per_dim": points}},
        {"dim": 1, "objectives": [{"lower": "(u1-u0)^2", "upper": "3*(u1-u0)^2"}],
         "box": {"lo": [lo], "hi": [hi]}, "grid": {"points_per_dim": 21}}]}


INVALID_GAMES = [
    # lower > upper everywhere; the first point of player 0's grid names it
    (_game_doc("u0+1", "u0", 0, 1), [0.0, 0.0],
     r"objective 0 invalid at profile \[0\.0, 0\.0\]: lower 1\.0 > upper 0\.0"),
    # overflows to inf on player 0's grid, not at the queried profile
    (_game_doc("u0^200*1e300", "u0^200*1e300+1", -3, 3), [0.0, 0.0],
     r"objective 0 invalid at profile \[-3\.0, 0\.0\]: non-finite endpoint"),
    # Python's float power raises instead of overflowing
    (_game_doc("u0^2000", "u0^2000+1", -3, 3), [0.0, 0.0],
     "objectives cannot be evaluated on the player's grid"),
    # valid on player 0's 11-point grid, inverted only at the queried
    # u0 = 0.35 between two of its points
    (_game_doc("1.01 - 1000*(u0-0.35)^2", "1", 0, 1, points=11), [0.35, 0.5],
     r"objective 0 invalid at profile \[0\.35, 0\.5\]: lower 1\.01 > upper 1\.0"),
]
INVALID_IDS = ["inverted", "overflow", "power-overflow", "off-grid-profile"]


@pytest.mark.parametrize("doc, profile, message", INVALID_GAMES, ids=INVALID_IDS)
def test_invalid_player_interval_rejected_before_any_verdict(doc, profile, message):
    from miopt.io import game_from_dict

    game = game_from_dict(doc)
    for check in (is_w_eps_ne, is_w_eps_qne, first_deviation, is_w_eps_ne_direct,
                  is_w_eps_qne_direct, game_kkt, game_sufficiency):
        with pytest.raises(GameError, match=f"^player 0: {message}"):
            check(game, profile, 0.1)


@pytest.mark.parametrize("doc, profile, message", INVALID_GAMES, ids=INVALID_IDS)
@pytest.mark.parametrize("argv", [["game-verify", "--concept=ne"], ["game-verify", "--concept=qne"],
                                  ["game-kkt"], ["game-sufficiency"]],
                         ids=["ne", "qne", "kkt", "sufficiency"])
def test_cli_invalid_player_interval_exits_3(tmp_path, capsys, doc, profile, message, argv):
    from miopt.cli import main

    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    point = ",".join(map(str, profile))
    assert main(argv + ["--game", str(path), f"--point={point}", "--eps=0.1"]) == 3
    assert "player 0" in capsys.readouterr().err


def test_interval_check_covers_the_rows_a_constraint_cuts():
    # player 0's objective is inverted only where u0 > 0.75, which its
    # constraint cuts from its feasible grid
    p0 = make_player(2, [("(u0-u1)^2 + max(u0 - 0.75, 0)", "(u0-u1)^2")], ["u0 - 0.75"],
                     [0.0], [1.0], ppd=11)
    p1 = make_player(2, [("(u1-u0)^2", "(u1-u0)^2 + 1")], [], [0.0], [1.0], ppd=11)
    game = Game(players=(p0, p1))
    for check in (is_w_eps_ne, is_w_eps_qne, first_deviation, is_w_eps_ne_direct,
                  is_w_eps_qne_direct, game_kkt, game_sufficiency):
        with pytest.raises(GameError, match=r"^player 0: objective 0 invalid at profile \[0\.8, "):
            check(game, [0.5, 0.5], 0.1)


def test_interval_check_fixes_the_other_blocks_at_the_profile():
    # player 1's objective is invalid only where u0 > 0.5
    p0 = make_player(2, [("(u0-u1)^2", "(u0-u1)^2 + 1")], [], [0.0], [1.0], ppd=11)
    p1 = make_player(2, [("u0 + u1", "u1 + 0.5")], [], [0.0], [1.0], ppd=11)
    game = Game(players=(p0, p1))
    is_w_eps_ne(game, [0.5, 0.5], 0.1)  # valid everywhere at u0 = 0.5: no error
    with pytest.raises(GameError, match=r"player 1: objective 0 invalid at profile \[0\.6, 0\.0\]"):
        is_w_eps_ne(game, [0.6, 0.5], 0.1)
