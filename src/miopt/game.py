"""Noncooperative game layer over per-player interval-valued losses.

A game is verified, never solved: every equilibrium concept reduces to
unilateral deviations, so each check is a per-player MIOP obtained by
freezing the opponents' blocks.  Per-player grids are independent and
the product grid is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .expr import Const, Expr, IVFunction, Var, eval_expr, substitute
from .grid import (GridSpec, IntervalError, default_points_per_dim, dominators_of,
                   endpoint_values, feasible_grid, feasible_rows, grid_points,
                   objective_table, point_dominated, value_table)
from .problem import DEFAULT_TOLERANCES, MIOProblem, PremiseError, Tolerances, as_epsilon, check_box

if TYPE_CHECKING:
    from .certificates import CertificateReport, SearchOutcome


class GameError(ValueError):
    pass


@dataclass(frozen=True)
class Player:
    """One player's block: strategy dimension, own-block constraints and
    box, and loss objectives written over the full profile."""

    dim: int
    objectives: tuple[IVFunction, ...]
    constraints: tuple[Expr, ...]
    box_lo: tuple[float, ...]
    box_hi: tuple[float, ...]
    points_per_dim: int | None = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("player dim must be >= 1")
        if not self.objectives:
            raise ValueError("player needs at least one objective")
        check_box(self.box_lo, self.box_hi, self.dim)


@dataclass(frozen=True)
class Game:
    players: tuple[Player, ...]
    name: str = ""
    tolerances: Tolerances = DEFAULT_TOLERANCES
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if len(self.players) < 2:
            raise GameError("a game needs at least 2 players")
        total = self.profile_dim
        for i, pl in enumerate(self.players):
            block = set(range(self.block_start(i), self.block_start(i) + pl.dim))
            for f in pl.objectives:
                if f.dim != total:
                    raise GameError(f"player {i} objective must be over the "
                                    f"profile dimension {total}")
            for g in pl.constraints:
                bad = g.vars - block
                if bad:
                    raise GameError(f"player {i} constraint uses variables "
                                    f"{sorted(bad)} outside its own block "
                                    "(shared constraints are not supported)")
                if max(g.vars, default=-1) >= total:
                    raise GameError("constraint variable out of range")

    @property
    def n_players(self) -> int:
        return len(self.players)

    @property
    def profile_dim(self) -> int:
        return sum(p.dim for p in self.players)

    def block_start(self, i: int) -> int:
        return sum(p.dim for p in self.players[:i])

    def block(self, i: int, profile: Sequence[float]) -> np.ndarray:
        s = self.block_start(i)
        return np.asarray(profile, dtype=float)[s:s + self.players[i].dim]


def player_spec(game: Game, i: int) -> GridSpec:
    pl = game.players[i]
    return GridSpec(pl.points_per_dim or default_points_per_dim(pl.dim))


def fix_opponents(game: Game, i: int, u_bar: Sequence[float]) -> MIOProblem:
    """Player i's MIOP with every other block frozen at u_bar: own
    variables are renumbered to u0..u{n_i-1}, opponents' become constants."""
    u_arr = np.asarray(u_bar, dtype=float)
    if u_arr.shape != (game.profile_dim,):
        raise GameError(f"profile must have dimension {game.profile_dim}")
    if not 0 <= i < game.n_players:
        raise GameError(f"no player {i}")
    pl = game.players[i]
    start = game.block_start(i)
    mapping: dict[int, Expr] = {}
    for j in range(game.profile_dim):
        if start <= j < start + pl.dim:
            mapping[j] = Var(j - start)
        else:
            mapping[j] = Const(float(u_arr[j]))
    objectives = tuple(
        IVFunction(substitute(f.lower, mapping), substitute(f.upper, mapping), pl.dim)
        for f in pl.objectives)
    constraints = tuple(substitute(g, mapping) for g in pl.constraints)
    return MIOProblem(dim=pl.dim, objectives=objectives, constraints=constraints,
                      box_lo=pl.box_lo, box_hi=pl.box_hi,
                      name=f"{game.name or 'game'}/player{i}",
                      tolerances=game.tolerances)


def profile_feasible(game: Game, u_bar: Sequence[float]) -> bool:
    u_arr = np.asarray(u_bar, dtype=float)
    tau = game.tolerances.tau_feas
    for i, pl in enumerate(game.players):
        ui = game.block(i, u_arr)
        lo = np.asarray(pl.box_lo)
        hi = np.asarray(pl.box_hi)
        if np.any(ui < lo - tau) or np.any(ui > hi + tau):
            return False
        if any(eval_expr(g, u_arr) > tau for g in pl.constraints):
            return False
    return True


def _checked_profile(game: Game, u_bar) -> np.ndarray:
    """u_bar as an array, once it is a feasible profile at which every
    player's objectives are valid intervals (finite, lower <= upper) over
    that player's grid with the other blocks fixed at u_bar.  A problem
    file gets the same interval check at load; a game cannot, since its
    joint grid is the product of the players' grids."""
    u_arr = np.asarray(u_bar, dtype=float)
    if u_arr.shape != (game.profile_dim,):
        raise GameError(f"profile must have dimension {game.profile_dim}")
    if not profile_feasible(game, u_arr):
        raise GameError("profile is infeasible for some player")
    for i, pl in enumerate(game.players):
        try:
            endpoint_values(pl.objectives, _deviations(game, i, u_arr)[1])
        except IntervalError as exc:
            raise GameError(f"player {i}: objective {exc.objective} invalid at "
                            f"profile {exc.point}: {exc.detail}") from exc
        except ArithmeticError as exc:
            raise GameError(f"player {i}: objectives cannot be evaluated on the "
                            f"player's grid: {exc}") from exc
    return u_arr


def _deviations(game: Game, i: int, u_arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(own, profiles): player i's grid, and u_arr with player i's block
    replaced by each of its rows."""
    pl = game.players[i]
    own = grid_points(pl.box_lo, pl.box_hi, player_spec(game, i))
    profiles = np.repeat(u_arr[None, :], len(own), axis=0)
    start = game.block_start(i)
    profiles[:, start:start + pl.dim] = own
    return own, profiles


# ---------------------------------------------------------------------------
# Equilibrium predicates: reduction path (canonical)
# ---------------------------------------------------------------------------

def is_w_eps_ne(game: Game, u_bar, eps) -> bool:
    """Every player's strategy is weak eps-minimal against the frozen
    opponents on that player's own grid."""
    return _every_player(game, u_bar, eps, quasi=False)


def is_w_eps_qne(game: Game, u_bar, eps) -> bool:
    """Same with the distance-scaled handicap [0, eps_k * ||u_i - y_i||]."""
    return _every_player(game, u_bar, eps, quasi=True)


def _every_player(game: Game, u_bar, eps, quasi: bool) -> bool:
    u_arr = _checked_profile(game, u_bar)
    for i in range(game.n_players):
        prob = fix_opponents(game, i, u_arr)
        table = value_table(prob, feasible_grid(prob, player_spec(game, i)))
        if point_dominated(prob, table, game.block(i, u_arr), eps, quasi):
            return False
    return True


# ---------------------------------------------------------------------------
# Equilibrium predicates: direct profile scan (independent code path)
# ---------------------------------------------------------------------------

def find_deviation(game: Game, i: int, u_bar, eps, quasi: bool = False):
    """First grid deviation y_i of player i that strictly improves every
    loss objective past the handicap; None if no such deviation exists.

    Works directly on the full-profile expressions, without the
    fix_opponents reduction: they are evaluated at every feasible
    deviation profile, and quasi distances are taken in player i's own
    block."""
    u_arr = np.asarray(u_bar, dtype=float)
    pl = game.players[i]
    earr = as_epsilon(eps, len(pl.objectives))
    own, profiles = _deviations(game, i, u_arr)
    rows = feasible_rows(pl.constraints, profiles, game.tolerances.tau_feas)
    table = objective_table(pl.objectives, own[rows], profiles[rows])
    at_u = objective_table(pl.objectives, game.block(i, u_arr)[None, :], u_arr[None, :])
    hits = np.flatnonzero(dominators_of(table, at_u, earr, quasi))
    return own[rows[hits[0]]] if hits.size else None


def is_w_eps_ne_direct(game: Game, u_bar, eps) -> bool:
    return _no_deviation(game, u_bar, eps, quasi=False)


def is_w_eps_qne_direct(game: Game, u_bar, eps) -> bool:
    return _no_deviation(game, u_bar, eps, quasi=True)


def _no_deviation(game: Game, u_bar, eps, quasi: bool) -> bool:
    u_arr = _checked_profile(game, u_bar)
    return all(find_deviation(game, i, u_arr, eps, quasi) is None
               for i in range(game.n_players))


# ---------------------------------------------------------------------------
# Per-player certificates
# ---------------------------------------------------------------------------

@dataclass
class PlayerOutcome:
    player: int
    report: CertificateReport | None = None
    search: SearchOutcome | None = None


def game_kkt(game: Game, u_bar, eps, mode: str = "thm_5_2",
             delta: float | None = None) -> list[PlayerOutcome]:
    """Per-player multiplier certificates at an equilibrium profile.

    mode "thm_5_2": each player must be at a weak eps-quasi equilibrium;
    runs kkt_check with the multiplier-dependent radius sum(lam_k*eps_k).
    mode "thm_5_1": each player must be at a weak eps equilibrium; runs
    the ball-grid search with radius (1/delta)*max(eps).
    """
    # imported here: loading a game file needs no certificate code
    from .certificates import eps_kkt_thm_4_1, kkt_check

    u_arr = _checked_profile(game, u_bar)
    if mode not in ("thm_5_1", "thm_5_2"):
        raise GameError(f"unknown mode {mode!r}")
    if mode == "thm_5_1" and (delta is None or not delta > 0):
        raise GameError("mode thm_5_1 needs delta > 0")

    outcomes = []
    for i in range(game.n_players):
        earr = as_epsilon(eps, len(game.players[i].objectives))
        if not np.any(earr > 0):
            raise ValueError("eps must be nonzero")
        prob = fix_opponents(game, i, u_arr)
        spec = player_spec(game, i)
        ui = game.block(i, u_arr)
        if mode == "thm_5_2":
            table = value_table(prob, feasible_grid(prob, spec))
            if point_dominated(prob, table, ui, earr, quasi=True):
                raise PremiseError(f"player {i}: profile is not a weak "
                                   "eps-quasi equilibrium on its grid")
            report = kkt_check(prob, ui, cor41_eps=earr)
            outcomes.append(PlayerOutcome(player=i, report=report))
        else:
            search = eps_kkt_thm_4_1(prob, ui, earr, delta, spec)
            outcomes.append(PlayerOutcome(player=i, search=search))
    return outcomes


@dataclass
class GameSufficiencyReport:
    verdict: str                  # holds | hypothesis-failed | inconclusive
    per_player: list = field(default_factory=list)
    qne_confirmed: bool | None = None


def game_sufficiency(game: Game, u_bar, eps) -> GameSufficiencyReport:
    """Thm 4.3 per player: ``sufficiency_thm_4_3`` on each player's MIOP
    with the opponents fixed at u_bar, over that player's grid.  A player
    holds only after its grid check, the one ``is_w_eps_qne`` makes for
    it (a counterexample there raises), so when every player holds the
    profile is a weak eps-quasi equilibrium.  The verdict is ``inconclusive`` if some player's is,
    else ``hypothesis-failed`` if some player's is, else ``holds``."""
    from .certificates import sufficiency_thm_4_3

    u_arr = _checked_profile(game, u_bar)
    per_player, verdicts = [], set()
    for i in range(game.n_players):
        earr = as_epsilon(eps, len(game.players[i].objectives))
        rep = sufficiency_thm_4_3(fix_opponents(game, i, u_arr), game.block(i, u_arr), earr,
                                  player_spec(game, i))
        if rep.kkt is None:
            label = "inexact"
        elif not rep.kkt.holds:
            label = f"kkt-{rep.kkt.verdict}"
        elif not rep.gen_convex.holds:
            label = f"genconvex-{rep.gen_convex.verdict}"
        else:
            label = "ok"
        per_player.append((i, label))
        verdicts.add(rep.verdict)
    verdict = next((v for v in ("inconclusive", "hypothesis-failed") if v in verdicts), "holds")
    return GameSufficiencyReport(verdict, per_player, True if verdict == "holds" else None)
