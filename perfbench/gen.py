"""Seeded inputs for the four workloads.

Every input is a plain JSON document (the problem and game file format
of ``miopt.io``) plus query points, built with numpy from the seed alone;
nothing here imports miopt.  The seed draws coefficients, kink locations
and query points.  The shape of each family (dimension, number of
objectives m, constraint count, kink density, eps size, grid size and the
number of feasible grid points) is fixed per slot, so that two seeds ask
for the same amount of work and the run-to-run spread of a timing stays
small.

Why each workload exists:

- ``scan``: whole-grid checks (quasi/eps masks, Prop 2.1, Thm 3.3, the
  EVP existence pipeline) at the default grids.  The quadratic domination
  scans do more than 90% of the work and the min-norm solver does none.
  Constant-shift (eps) and distance-scaled (quasi) masks both appear, so
  a fast path for one that slows the other shows.
- ``certify``: point queries (KKT, BCQ, eps-KKT searches, sequences,
  sufficiency, generalized convexity).  Subdifferential construction, the
  min-norm solver and the generalized-convexity test do the work; the
  quadratic scans do none.
- ``game``: equilibrium predicates by both code paths plus per-player
  certificates.  Scalar per-point expression evaluation dominates
  (``fix_opponents``, ``feasible_grid``, ``find_deviation``), with no
  value table.
- ``cli``: ``miopt`` subprocesses over problem and game files plus
  ``io.save`` -> ``io.load`` round trips.  Process start, file load with
  its validity scan and report writes dominate; the only workload that
  measures the ``cli`` layer and ``io`` writes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BOX = (-1.0, 1.0)
DEFAULT_PPD = {1: 401, 2: 101, 3: 21, 4: 11}

# Known-answer cases from the package README and test fixtures.
ABS_PAIR = {
    "dim": 1, "name": "abs-pair",
    "objectives": [{"lower": "abs(u0)", "upper": "abs(u0)+1"},
                   {"lower": "2*abs(u0)", "upper": "2*abs(u0)+2"}],
    "constraints": ["-u0", "-u0-1"],
    "box": {"lo": [-2], "hi": [2]}, "grid": {"points_per_dim": 401},
}
QUAD = {
    "dim": 1, "name": "quad",
    "objectives": [{"lower": "u0^2", "upper": "3*u0^2"}],
    "constraints": [], "box": {"lo": [-1], "hi": [1]},
    "grid": {"points_per_dim": 401},
}
# ROADMAP item 2's mu-cap probe: KKT holds at 0 only with mu of about
# 1.8e4, above the default cap of 1000, so the current solver reports a
# false ``fails`` with ``mu_capped``.  It is the same for every seed.
MU_CAP = {
    "dim": 1, "name": "mu-cap",
    "objectives": [{"lower": "u0", "upper": "3*u0+2"}],
    "constraints": ["-0.0001*u0"], "box": {"lo": [-1], "hi": [1]},
    "grid": {"points_per_dim": 401},
}
QUAD_GAME = {
    "name": "quadratic-2p",
    "players": [
        {"dim": 1, "objectives": [{"lower": "(u0-u1)^2", "upper": "3*(u0-u1)^2"}],
         "constraints": [], "box": {"lo": [0], "hi": [1]}, "grid": {"points_per_dim": 101}},
        {"dim": 1, "objectives": [{"lower": "(u1-u0)^2", "upper": "3*(u1-u0)^2"}],
         "constraints": [], "box": {"lo": [0], "hi": [1]}, "grid": {"points_per_dim": 101}},
    ],
}


def axis(ppd: int, lo: float = BOX[0], hi: float = BOX[1]) -> np.ndarray:
    """Grid coordinates, computed exactly as ``miopt.grid.grid_points`` does."""
    return lo + np.arange(ppd, dtype=float) * (hi - lo) / (ppd - 1)


def grid_array(dim: int, ppd: int) -> np.ndarray:
    """All grid points in lexicographic order, shape (ppd**dim, dim)."""
    ax = axis(ppd)
    mesh = np.meshgrid(*([ax] * dim), indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, dim)


def num(x: float) -> str:
    return repr(float(x))


def lin(coefs, const: float = 0.0, offset: int = 0) -> str:
    """Render sum_i coefs[i]*u{offset+i} + const in the expression grammar."""
    out = ""
    for i, c in enumerate(coefs):
        if c == 0.0:
            continue
        term = f"{num(abs(c))}*u{offset + i}"
        out += (("-" if c < 0 else "+") if out else ("-" if c < 0 else "")) + term
    if const != 0.0 or not out:
        out += ("-" if const < 0 else ("+" if out else "")) + num(abs(const))
    return out


def _feasible(pts: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    return np.all(pts @ q.T - r <= 1e-9, axis=1)


@dataclass
class Family:
    """One seeded problem: its JSON document, its linear constraints
    q u - r <= 0, one kink (grid point) per objective, and the points that
    concave kinks pass through."""

    doc: dict
    q: np.ndarray
    r: np.ndarray
    kinks: list
    inexact_points: list

    @property
    def dim(self) -> int:
        return self.doc["dim"]

    def feasible_mask(self, pts: np.ndarray) -> np.ndarray:
        return _feasible(pts, self.q, self.r)


def _round(x, digits=3):
    return np.round(np.asarray(x, dtype=float), digits)


def _constraint_rows(rng, n, p, pts, feasible_frac):
    """p linear constraints whose offsets sit between two sorted values of
    q.u over the grid, so the feasible share is fixed by feasible_frac."""
    q = np.zeros((p, n))
    r = np.zeros(p)
    keep = np.ones(len(pts), dtype=bool)
    share = feasible_frac ** (1.0 / p) if p else 1.0
    for j in range(p):
        while True:
            row = _round(rng.uniform(-1.0, 1.0, n), 2)
            if n == 1:
                # alternate signs so two constraints bound an interval
                row = np.abs(row) * (1.0 if j % 2 == 0 else -1.0)
            if np.linalg.norm(row) > 0.3 and (n == 1 or all(
                    abs(np.dot(row, q[i])) < 0.95 * np.linalg.norm(row) * np.linalg.norm(q[i])
                    for i in range(j))):
                break
        vals = np.sort(pts[keep] @ row)
        k = int(round(share * len(vals)))
        k = min(max(k, 1), len(vals) - 1)
        r[j] = 0.5 * (vals[k - 1] + vals[k])
        q[j] = row
        keep &= _feasible(pts, row[None, :], r[j:j + 1])
    return q, r


def _objective(rng, n, kink, extra_kinks, inexact_at, tilt=0.3):
    """Interval objective [L, L + W] whose lower and upper endpoints are
    minimized at ``kink`` (abs terms dominate the linear tilt there).
    ``extra_kinks`` adds max(.,0) terms that vanish near the kink;
    ``inexact_at`` adds a concave -abs term through those points, where the
    Clarke sum rule is only an inclusion."""
    a = _round(rng.uniform(0.6, 1.5, n))
    b = _round(rng.uniform(0.2, 1.0, n))
    t = _round(rng.uniform(-tilt, tilt, n))
    s = float(_round(rng.uniform(0.05, 0.3)))
    lower = "+".join(f"{num(a[i])}*abs({lin([1.0], -kink[i], offset=i)})" for i in range(n))
    lower += "+" + lin(t)
    for _ in range(extra_kinks):
        w = _round(rng.uniform(-1.0, 1.0, n), 2)
        e = float(np.dot(w, kink)) + 0.6
        lower += f"+{num(float(_round(rng.uniform(0.1, 0.4))))}*max({lin(w, -e)},0)"
    for p in inexact_at:
        w = _round(rng.uniform(-1.0, 1.0, n), 2)
        w[0] = 1.0
        e = float(np.dot(w, p))
        lower += f"-{num(float(_round(rng.uniform(0.05, 0.15))))}*abs({lin(w, -e)})"
    width = "+".join(f"{num(b[i])}*abs({lin([1.0], -kink[i], offset=i)})" for i in range(n))
    upper = f"{lower}+{width}+{num(s)}"
    return {"lower": lower, "upper": upper}


def problem_family(rng, name, n, m, p, ppd=None, feasible_frac=0.6,
                   extra_kinks=0, n_inexact=0, shared_kink=False,
                   active_at_kink=False) -> Family:
    """A seeded problem over the box [-1, 1]^n.

    shared_kink puts every objective's kink on one feasible grid point,
    which then minimizes the summed merit (a planted Thm 3.3 point).
    active_at_kink moves constraint 0 onto the first kink, so that kink is
    a planted minimizer with an active constraint.  n_inexact puts concave
    kinks through that many random feasible grid points."""
    ppd = ppd or DEFAULT_PPD[n]
    pts = grid_array(n, ppd)
    q, r = _constraint_rows(rng, n, p, pts, feasible_frac)
    feas = np.flatnonzero(_feasible(pts, q, r))
    # kinks away from the box edge so abs terms see both sides
    inner = feas[np.all(np.abs(pts[feas]) <= 0.8, axis=1)]
    picks = rng.choice(inner, size=1 if shared_kink else m, replace=False)
    kinks = [pts[i] for i in picks] * (m if shared_kink else 1)
    if active_at_kink and p:
        # the kink furthest along q0 becomes active; the others stay feasible
        kinks.sort(key=lambda k: -float(np.dot(q[0], k)))
        r[0] = float(np.dot(q[0], kinks[0]))
        feas = np.flatnonzero(_feasible(pts, q, r))
    inexact_points = [pts[i] for i in rng.choice(feas, size=n_inexact, replace=False)]
    objectives = [_objective(rng, n, kinks[k], extra_kinks, inexact_points) for k in range(m)]
    doc = {
        "dim": n, "name": name, "objectives": objectives,
        "constraints": [lin(q[j], -r[j]) for j in range(p)],
        "box": {"lo": [BOX[0]] * n, "hi": [BOX[1]] * n},
        "grid": {"points_per_dim": ppd},
    }
    return Family(doc, q, r, kinks, inexact_points)


def random_feasible(rng, fam: Family, ppd: int, count: int) -> list[np.ndarray]:
    pts = grid_array(fam.dim, ppd)
    feas = np.flatnonzero(fam.feasible_mask(pts))
    # a kink moved onto an active constraint can leave fewer feasible points
    return [pts[i] for i in rng.choice(feas, size=count, replace=len(feas) < count)]


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------

def scan_inputs(seed: int, variant: int = 0) -> dict:
    """Problems at the default grids with a fixed feasible-point count,
    sized so that a run fits two passes of about 6 s."""
    rng = np.random.default_rng([seed, variant, 1])
    fams = {
        "p2_shared": problem_family(rng, "scan-2d-shared", 2, 2, 2, feasible_frac=0.43,
                                    extra_kinks=1, shared_kink=True),
        "p2": problem_family(rng, "scan-2d", 2, 3, 1, feasible_frac=0.35, extra_kinks=2),
        "p3": problem_family(rng, "scan-3d", 3, 2, 1, feasible_frac=0.65, extra_kinks=1),
        "p4": problem_family(rng, "scan-4d", 4, 2, 2, feasible_frac=0.3),
    }
    shared = fams["p2_shared"]
    far = random_feasible(rng, shared, DEFAULT_PPD[2], 1)[0]
    tasks = [
        ("prop21", "p2", {"eps0": 0.01}),
        ("quasi_mask", "p3", {"eps": [0.2, 0.2]}),
        ("eps_mask", "p2_shared", {"eps": [0.05, 0.05]}),
        ("eps_mask", "p3", {"eps": [0.1, 0.1]}),
        ("eps_mask", "p4", {"eps": [0.02, 0.02]}),
        # the shared kink minimizes the summed merit, so Thm 3.3's hypothesis holds
        ("thm33", "p2_shared", {"point": shared.kinks[0], "eps": [0.05, 0.05],
                                "merit_minimizer": True}),
        ("thm33", "p2_shared", {"point": far, "eps": [0.05, 0.05], "merit_minimizer": False}),
        ("quasi_existence", "p2", {"eps": [0.04, 0.04, 0.04]}),
    ]
    return {"docs": {k: f.doc for k, f in fams.items()}, "tasks": tasks, "families": fams}


# certify families: (dimension, objectives m, constraints, extra kinks,
# concave kinks, first kink on an active constraint)
CERTIFY_SHAPES = {
    "c1a": (1, 2, 1, 1, 0, True), "c1b": (1, 3, 2, 2, 1, False),
    "c1c": (1, 1, 1, 1, 0, True), "c1d": (1, 2, 0, 2, 0, False),
    "c1e": (1, 1, 0, 1, 1, False), "c1f": (1, 3, 1, 1, 0, True),
    "c1g": (1, 2, 2, 2, 1, False), "c1h": (1, 1, 2, 0, 0, True),
    # no 2-D kink sits on an active constraint: there the solver runs to
    # its 10^5-iteration cap (seconds per query) on about one seed in six,
    # which no timing could average out (ROADMAP item 2)
    "c2a": (2, 2, 1, 1, 0, False), "c2b": (2, 3, 2, 2, 2, False),
    "c2c": (2, 1, 0, 1, 0, False),
}


def certify_inputs(seed: int, variant: int = 0) -> dict:
    """Point queries: about half at planted minimizers (kinks, a kink on an
    active constraint, concave kinks), half at random feasible grid points.

    The mix is fixed so that the task-latency percentiles fall inside
    bands of one kind of query, each drawn from several families: cheap
    BCQ checks, then KKT solves (the median), then 1-D searches and
    sufficiency checks (the p90), and a few 2-D searches and
    generalized-convexity checks above them."""
    rng = np.random.default_rng([seed, variant, 2])
    docs = {"abs_pair": ABS_PAIR, "quad": QUAD, "mu_cap": MU_CAP}
    tasks = [("kkt", "abs_pair", {"point": np.zeros(1), "known": "holds"}),
             ("kkt", "quad", {"point": np.zeros(1), "known": "holds"}),
             ("bcq", "abs_pair", {"point": np.zeros(1), "known": "holds"}),
             ("kkt", "mu_cap", {"point": np.zeros(1), "planted": "holds"})]
    for key, (n, m, p, extra, inexact, active) in CERTIFY_SHAPES.items():
        # a smaller 2-D feasible set keeps the grid premise checks of the
        # searches from crowding out the solver work
        fam = problem_family(rng, f"cert-{key}", n, m, p, feasible_frac=0.6 if n == 1 else 0.35,
                             extra_kinks=extra, n_inexact=inexact, active_at_kink=active)
        docs[key] = fam.doc
        eps = [0.05 if n == 1 else 0.1] * m
        n_points = 6 if n == 1 else 9
        # planted minimizers at the kinks (the first may sit on an active
        # constraint) and at the concave kinks; random feasible grid points
        planted = fam.kinks + fam.inexact_points
        rand = random_feasible(rng, fam, DEFAULT_PPD[n], n_points)
        points = planted + rand[:max(len(planted), n_points - len(planted))]
        for i, pt in enumerate(points):
            # every objective's kink minimizes that objective: KKT holds there
            planted_verdict = "holds" if i < len(fam.kinks) else None
            tasks.append(("kkt", key, {"point": pt, "planted": planted_verdict}))
            tasks.append(("kkt_cor41", key, {"point": pt, "eps": eps}))
            tasks.append(("bcq", key, {"point": pt}))
        kink = fam.kinks[0]
        # a sequence approaching the kink from a seeded direction at fixed
        # distances, so its grid balls have the same size for every seed
        direction = rng.normal(size=n)
        direction /= np.linalg.norm(direction)
        seq = {"point": kink, "xs": [kink + d * direction for d in (0.3, 0.15, 0.05, 0.0)],
               "eps_seq": [0.25, 0.04, 0.01]}
        if n == 1:
            # searches over wide balls form the band that holds the p90
            for e, delta in ((0.05, 0.1), (0.05, 0.3), (0.02, 0.4), (0.05, 0.4), (0.1, 0.4),
                             (0.2, 0.4)):
                tasks.append(("eps_kkt", key, {"point": kink, "eps": [e] * m, "delta": delta,
                                               "planted": "holds"}))
            tasks.append(("sufficiency", key, {"point": kink, "eps": eps, "ppd": 101}))
            tasks.append(("kkt_sequence", key, seq))
            # the ball holds about 20 grid points; away from a minimizer every
            # one is a failing solve (in 2-D their cost swings 50x by seed)
            tasks.append(("modified_kkt", key, {"point": kink, "epsilon": 0.0025,
                                                "planted": "holds"}))
            tasks.append(("modified_kkt", key, {"point": rand[0], "epsilon": 0.0025}))
            continue
        tasks.append(("eps_kkt", key, {"point": kink, "eps": eps, "delta": 0.1,
                                       "planted": "holds"}))
        if m > 1:
            tasks.append(("kkt_sequence", key, seq))
        # Generalized convexity passes at once at the kink of a single
        # objective; with several objectives most samples run the 4000-step
        # heuristic, so those get a small sample grid.
        pts = grid_array(2, 41 if m == 1 else 5)
        tasks.append(("genconvex", key, {"point": kink, "samples": pts[fam.feasible_mask(pts)]}))
    return {"docs": docs, "tasks": tasks}


def game_family(rng, name, dims, ms, ppds, n_constraints):
    """A seeded game with a planted equilibrium x*: at x*_-i every loss of
    player i is minimized at x*_i (the opponents enter through a coupling
    term that vanishes at x*).  Returns (doc, x*, per-player feasibility)."""
    total = sum(dims)
    starts = np.cumsum([0] + list(dims))[:-1]
    x_star = np.concatenate([axis(ppd)[rng.integers(ppd // 5, ppd - ppd // 5, size=d)]
                             for d, ppd in zip(dims, ppds)])
    players, cons_data = [], []
    for i, (d, m, ppd, p) in enumerate(zip(dims, ms, ppds, n_constraints)):
        own = list(range(starts[i], starts[i] + d))
        others = [j for j in range(total) if j not in own]
        objectives = []
        for k in range(m):
            terms_lo, terms_w = [], []
            for t, j in enumerate(own):
                coup = np.zeros(total)
                coup[j] = 1.0
                coup[others] = _round(rng.uniform(-0.5, 0.5, len(others)), 2)
                inner = lin(coup, -float(np.dot(coup, x_star)))
                a, b = float(_round(rng.uniform(0.5, 1.5))), float(_round(rng.uniform(0.2, 1.0)))
                if (k + t) % 2 == 0:
                    terms_lo.append(f"{num(a)}*abs({inner})")
                    terms_w.append(f"{num(b)}*abs({inner})")
                else:
                    terms_lo.append(f"{num(a)}*({inner})^2")
                    terms_w.append(f"{num(b)}*({inner})^2")
            lower = "+".join(terms_lo)
            upper = f"{lower}+{'+'.join(terms_w)}+{num(float(_round(rng.uniform(0.05, 0.3))))}"
            objectives.append({"lower": lower, "upper": upper})
        q = np.zeros((p, d))
        r = np.zeros(p)
        strs = []
        for c in range(p):
            q[c] = _round(rng.uniform(-1.0, 1.0, d), 2)
            q[c][0] = q[c][0] if abs(q[c][0]) > 0.3 else 0.5
            xi = x_star[own]
            # a 1-D player's first constraint is active at x*
            r[c] = float(np.dot(q[c], xi)) + (0.0 if d == 1 and c == 0 else 0.3)
            coefs = np.zeros(total)
            coefs[own] = q[c]
            strs.append(lin(coefs, -r[c]))
        cons_data.append((q, r))
        players.append({"dim": d, "objectives": objectives, "constraints": strs,
                        "box": {"lo": [BOX[0]] * d, "hi": [BOX[1]] * d},
                        "grid": {"points_per_dim": ppd}})
    return {"name": name, "players": players}, x_star, cons_data


def _random_profile(rng, dims, ppds, cons_data):
    blocks = []
    for d, ppd, (q, r) in zip(dims, ppds, cons_data):
        pts = grid_array(d, ppd)
        blocks.append(pts[rng.choice(np.flatnonzero(_feasible(pts, q, r)))])
    return np.concatenate(blocks)


GAME_SHAPES = {
    # key: (block dims, objectives per player, points per dim, constraints per player)
    "g2_1d": ((1, 1), (2, 1), (101, 101), (1, 0)),
    "g3_1d": ((1, 1, 1), (1, 2, 1), (101, 101, 101), (1, 1, 0)),
    "g2_2d": ((2, 2), (1, 2), (21, 21), (1, 0)),
    "g3_mixed": ((2, 1, 1), (2, 1, 1), (21, 101, 101), (1, 0, 1)),
}


def game_inputs(seed: int, variant: int = 0) -> dict:
    """Planted equilibria, one-step perturbations of them, and random
    feasible profiles; certificates only at the planted equilibria."""
    rng = np.random.default_rng([seed, variant, 3])
    docs = {"quad_game": QUAD_GAME}
    tasks = [(kind, "quad_game", {"point": np.array([0.5, 0.5]), "eps": [0.1],
                                  "known": True})
             for kind in ("ne", "ne_direct", "qne", "qne_direct")]
    for key, (dims, ms, ppds, ncons) in GAME_SHAPES.items():
        doc, x_star, cons_data = game_family(rng, f"game-{key}", dims, ms, ppds, ncons)
        docs[key] = doc
        eps = [0.05]
        profiles = [(x_star, True)]
        starts = np.cumsum([0] + list(dims))
        while len(profiles) < 4:
            prof = x_star.copy()
            j = int(rng.integers(len(prof)))
            prof[j] = min(max(prof[j] + rng.choice([-0.04, 0.04]), BOX[0]), BOX[1])
            i = int(np.searchsorted(starts, j, side="right")) - 1
            q, r = cons_data[i]
            if _feasible(prof[None, starts[i]:starts[i + 1]], q, r)[0]:
                profiles.append((prof, None))
        profiles += [(_random_profile(rng, dims, ppds, cons_data), None) for _ in range(4)]
        for prof, planted in profiles:
            for kind in ("ne", "ne_direct", "qne", "qne_direct"):
                tasks.append((kind, key, {"point": prof, "eps": eps, "planted": planted}))
        for kind in ("game_kkt_5_2", "game_kkt_5_1", "game_sufficiency"):
            tasks.append((kind, key, {"point": x_star, "eps": [0.05], "delta": 0.05,
                                      "planted": "holds"}))
    return {"docs": docs, "tasks": tasks}


def cli_inputs(seed: int, variant: int = 0) -> dict:
    """Problem and game files and the miopt subcommands run on them, each
    with the verdict it must give (None: not known in advance), plus
    in-process game predicate queries by both code paths, whose answers
    must agree."""
    rng = np.random.default_rng([seed, variant, 4])
    # one kink shared by both objectives minimizes the summed merit, so it
    # meets the premise of the evp subcommand
    p1 = problem_family(rng, "cli-1d", 1, 2, 1, extra_kinks=1, shared_kink=True,
                        active_at_kink=True)
    p2 = problem_family(rng, "cli-2d", 2, 2, 1)
    g_shape = ((1, 1), (1, 2), (101, 101), (1, 0))
    g_doc, g_star, g_cons = game_family(rng, "cli-game", *g_shape)
    docs = {"abs_pair": ABS_PAIR, "mu_cap": MU_CAP, "p1": p1.doc, "p2": p2.doc,
            "quad_game": QUAD_GAME, "game": g_doc}
    k1, k2 = p1.kinks[0], p2.kinks[0]
    r1 = random_feasible(rng, p1, 401, 1)[0]
    r2 = random_feasible(rng, p2, 101, 1)[0]
    e1, e2 = "0.05,0.05", "0.1,0.1"

    def pt(p):
        # passed as --flag=value: argparse reads a bare "-0.3,0.1" as a flag
        return ",".join(repr(float(x)) for x in np.atleast_1d(p))

    # a sequence approaching the kink at fixed distances, as on certify
    xs = ";".join(pt(k1 + d) for d in (0.3, 0.15, 0.05, 0.0))
    runs = [
        ("abs_pair", ["kkt", "--point=0"], "holds"),
        ("abs_pair", ["verify", "--point=0", "--concept=weak-min"], "holds"),
        ("mu_cap", ["kkt", "--point=0"], "holds"),
        ("p1", ["verify", f"--point={pt(k1)}", "--concept=weak-eps-min", f"--eps={e1}"], "holds"),
        ("p1", ["kkt", f"--point={pt(k1)}"], "holds"),
        ("p1", ["kkt", f"--point={pt(r1)}", f"--cor41-eps={e1}"], None),
        ("p1", ["bcq", f"--point={pt(k1)}"], "holds"),
        ("p1", ["epskkt", f"--point={pt(k1)}", f"--eps={e1}", "--delta=0.1"], "holds"),
        ("p1", ["modkkt", f"--point={pt(k1)}", "--eps=0.0025"], "holds"),
        ("p1", ["exist", f"--eps={e1}"], "holds"),
        ("p1", ["evp", f"--eps={e1}", f"--x0={pt(k1)}"], "holds"),
        ("p1", ["seqkkt", f"--point={pt(k1)}", f"--xs={xs}", "--eps-seq=0.25,0.04,0.01"], None),
        ("p2", ["verify", f"--point={pt(r2)}", "--concept=weak-eps-qmin", f"--eps={e2}"], None),
        ("p2", ["kkt", f"--point={pt(k2)}"], "holds"),
        ("p2", ["kkt", f"--point={pt(r2)}"], None),
        ("p2", ["prop21", "--eps0=0.01", "--grid=21"], "holds"),
        # most samples of a two-objective problem run the 4000-step heuristic
        ("p2", ["genconvex", f"--point={pt(k2)}", "--grid=5"], None),
        ("p2", ["sufficiency", f"--point={pt(k2)}", f"--eps={e2}", "--grid=5"], None),
        ("quad_game", ["game-verify", "--point=0.5,0.5", "--concept=ne",
                       "--eps=0.1"], "holds"),
        ("game", ["game-verify", f"--point={pt(g_star)}", "--concept=qne",
                  "--eps=0.05"], "holds"),
        ("game", ["game-kkt", f"--point={pt(g_star)}", "--eps=0.05"], "holds"),
        ("game", ["game-sufficiency", f"--point={pt(g_star)}", "--eps=0.05"], None),
    ]
    g_random = _random_profile(rng, g_shape[0], g_shape[2], g_cons)
    # both game predicate paths on the known quadratic game and at a random
    # profile of the generated one; few, so that the median task stays a
    # miopt subprocess
    queries = [("quad_game", np.array([0.5, 0.5]), [0.1], "known", True,
                ("ne", "ne_direct", "qne", "qne_direct")),
               ("game", g_random, [0.05], "planted", None, ("ne", "ne_direct"))]
    tasks = [(kind, key, {"point": point, "eps": eps, expect: answer})
             for key, point, eps, expect, answer, kinds in queries for kind in kinds]
    return {"docs": docs, "runs": runs, "tasks": tasks}
