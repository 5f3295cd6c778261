"""Output checks.  They run outside the timed region, and every problem
they find counts the task as failed; nothing is filtered out.

Each check takes the task, its output and the loaded model and returns an
error string or None.  ``pass_checks`` also checks what only a whole pass
shows (the two game predicate paths agree).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

_EXIT = {"holds": 0, "fails": 1, "hypothesis-failed": 1, "inconclusive": 2,
         "not-found-at-resolution": 2}
FLOAT_SLACK = 1e-9


def certificate_error(rep, radius: float = 0.0, cor41_eps=None, tol: float = 1e-8):
    """Recompute a KKT-type certificate from its multipliers and witnesses.

    For ``holds``: lambda lies on the simplex, mu >= 0 and is zero off the
    constraints that have witnesses, the threshold is radius (+ lambda.eps
    with cor41) + tol, and ||sum lambda_k w_k + sum mu_j z_j|| is at most
    the threshold.  For ``fails`` the recomputed residual must exceed the
    threshold and the subdifferentials must be exact; ``inconclusive``
    needs an inexact subdifferential."""
    lam = np.asarray(rep.lam, dtype=float)
    mu = np.asarray(rep.mu, dtype=float)
    combo = sum(lam[k] * np.asarray(w, dtype=float) for k, w in enumerate(rep.obj_witnesses))
    for j, z in rep.con_witnesses.items():
        combo = combo + mu[j] * np.asarray(z, dtype=float)
    residual = float(np.linalg.norm(combo))
    if np.any(lam < -FLOAT_SLACK) or abs(float(lam.sum()) - 1.0) > 1e-9:
        return f"lambda {lam.tolist()} is not on the simplex"
    if np.any(mu < 0):
        return f"mu {mu.tolist()} has a negative entry"
    off = [j for j in range(len(mu)) if j not in rep.con_witnesses and mu[j] != 0]
    if off:
        return f"mu nonzero on constraints {off} without witnesses"
    allowance = radius + (float(np.dot(lam, cor41_eps)) if cor41_eps is not None else 0.0)
    if abs(rep.threshold - (allowance + tol)) > 1e-12:
        return f"threshold {rep.threshold} != {allowance + tol}"
    if abs(residual - rep.residual) > 1e-9:
        return f"reported residual {rep.residual} != recomputed {residual}"
    if rep.verdict == "holds" and residual > rep.threshold + FLOAT_SLACK:
        return f"holds with residual {residual} > threshold {rep.threshold}"
    if rep.verdict == "fails" and (residual <= rep.threshold or not rep.exact):
        return f"fails with residual {residual} (threshold {rep.threshold}, exact {rep.exact})"
    if rep.verdict == "inconclusive" and rep.exact:
        return "inconclusive with exact subdifferentials"
    return None


class Checker:
    """Known answers (README and test-fixture cases) fail a task when
    missed.  Planted answers of generated inputs are counted in
    ``planted_misses`` instead: the current solver misses a few of them (it
    stalls or hits its iteration cap), and the count is what a better
    solver should bring to zero."""

    def __init__(self, miopt, wl, seed: int, variant: int = 0):
        self.m = miopt
        self.wl = wl
        self.rng = np.random.default_rng([seed, variant, 99])
        self.planted_misses: dict[int, str] = {}

    def check(self, t, out):
        return getattr(self, f"_{t.kind}")(t, out, self.wl.models.get(t.key))

    def _expect(self, t, verdict):
        known = t.args.get("known")
        if known is not None and verdict != known:
            return f"expected {known!r}, got {verdict!r}"
        planted = t.args.get("planted")
        if planted is not None and verdict != planted:
            self.planted_misses[t.id] = f"expected {planted!r}, got {verdict!r}"
        return None

    # scan ------------------------------------------------------------------
    def _oracle_mask(self, t, out, p, predicate):
        """The mask agrees with the scalar predicate on a seeded sample of
        points, members and non-members alike."""
        pts, mask = out
        if len(mask) != len(pts):
            return "mask length differs from the feasible grid"
        members, others = np.flatnonzero(mask), np.flatnonzero(~mask)
        if len(members) == 0:
            return "empty mask: the merit minimizer is always a member"
        sample = list(self.rng.choice(members, size=min(2, len(members)), replace=False))
        sample += list(self.rng.choice(others, size=min(2, len(others)), replace=False))
        for i in sample:
            if predicate(p, pts[i], t.args["eps"], pts) != bool(mask[i]):
                return f"mask disagrees with the scalar oracle at {pts[i].tolist()}"
        return None

    def _quasi_mask(self, t, out, p):
        return self._oracle_mask(t, out, p, self.m.problem.is_weak_eps_quasi_minimal)

    def _eps_mask(self, t, out, p):
        return self._oracle_mask(t, out, p, self.m.problem.is_weak_eps_minimal)

    def _prop21(self, t, out, p):
        if not out.ok or out.checked < 1:
            return f"Prop 2.1 report: ok={out.ok}, checked={out.checked}"
        return None

    def _thm33(self, t, out, p):
        if out.hypothesis_holds and not out.conclusion_verified:
            return "Thm 3.3 hypothesis holds but the conclusion was not verified"
        if t.args["merit_minimizer"] and not out.hypothesis_holds:
            return f"planted merit minimizer fails the hypothesis (witness {out.witness})"
        return None

    def _quasi_existence(self, t, out, p):
        c = out.evp_certificate
        if not (out.qm_verified and out.ball_check is not False and c.all_hold):
            return (f"EVP flags: qm={out.qm_verified} ball={out.ball_check} "
                    f"a={c.a_holds} b={c.b_holds} c={c.c_holds}")
        return None

    # certify ---------------------------------------------------------------
    def _kkt(self, t, out, p):
        return certificate_error(out, tol=p.tolerances.tau_solver) or self._expect(t, out.verdict)

    def _kkt_cor41(self, t, out, p):
        return certificate_error(out, cor41_eps=np.asarray(t.args["eps"], dtype=float),
                                 tol=p.tolerances.tau_solver)

    def _bcq(self, t, out, p):
        if out.vacuous:
            return None if out.holds and out.distance is None else "vacuous BCQ must hold"
        if out.holds != (out.distance > 1e-6):
            return f"BCQ verdict {out.holds} disagrees with distance {out.distance}"
        return self._expect(t, "holds" if out.holds else "fails")

    def _eps_kkt(self, t, out, p):
        if out.verdict != "holds":
            return self._expect(t, out.verdict)
        delta = t.args["delta"]
        if np.linalg.norm(np.asarray(out.point) - t.args["point"]) > delta + FLOAT_SLACK:
            return "x_delta lies outside the delta ball"
        return certificate_error(out.report, radius=max(t.args["eps"]) / delta,
                                 tol=p.tolerances.tau_solver)

    def _kkt_sequence(self, t, out, p):
        last = -1
        for e in out.entries:
            if e.z_index is not None:
                if e.z_index < last:
                    return "sequence indices go backwards"
                last = e.z_index
            if e.ok:
                root = float(np.sqrt(e.eps_i))
                if np.linalg.norm(np.asarray(e.y) - np.asarray(e.z)) > root + FLOAT_SLACK:
                    return f"entry {e.i}: y is outside the sqrt(eps) ball"
                if e.residual > root + p.tolerances.tau_solver + FLOAT_SLACK:
                    return f"entry {e.i}: residual {e.residual} > sqrt(eps)"
        return None

    def _sufficiency(self, t, out, p):
        if out.verdict not in ("holds", "hypothesis-failed", "inconclusive"):
            return f"unknown verdict {out.verdict}"
        if out.kkt is not None:
            err = certificate_error(out.kkt, cor41_eps=np.asarray(t.args["eps"], dtype=float),
                                    tol=p.tolerances.tau_solver)
            if err:
                return err
        if out.verdict == "holds" and not (out.kkt.holds and out.gen_convex.holds
                                           and out.qm_confirmed):
            return "sufficiency holds without both hypotheses and the QM confirmation"
        return None

    def _modified_kkt(self, t, out, p):
        if out.verdict != "holds":
            return self._expect(t, out.verdict)
        eps = t.args["epsilon"]
        root = float(np.sqrt(eps))
        if np.linalg.norm(np.asarray(out.point) - t.args["point"]) > root + FLOAT_SLACK:
            return "x_eps lies outside the sqrt(eps) ball"
        if out.complementarity_value < -eps - p.tolerances.tau_solver:
            return f"complementarity {out.complementarity_value} < -eps"
        return certificate_error(out.report, radius=root, tol=p.tolerances.tau_solver)

    def _genconvex(self, t, out, p):
        if out.samples_checked != len(t.args["samples"]):
            return f"checked {out.samples_checked} of {len(t.args['samples'])} samples"
        expect = ("fails" if out.infeasible_samples else
                  "inconclusive" if out.stalled_samples else "holds")
        return None if out.verdict == expect else f"verdict {out.verdict} != {expect}"

    # game ------------------------------------------------------------------
    def _predicate(self, t, out, g):
        return self._expect(t, out)

    _ne = _ne_direct = _qne = _qne_direct = _predicate

    def _game_kkt_5_2(self, t, out, g):
        eps = np.asarray(t.args["eps"], dtype=float)
        for o in out:
            if o.report.verdict != "holds":
                return self._expect(t, o.report.verdict)
            err = certificate_error(o.report, cor41_eps=np.broadcast_to(eps, o.report.lam.shape),
                                    tol=g.tolerances.tau_solver)
            if err:
                return f"player {o.player}: {err}"
        return None

    def _game_kkt_5_1(self, t, out, g):
        for o in out:
            if o.search.verdict != "holds":
                return self._expect(t, o.search.verdict)
            err = certificate_error(o.search.report, radius=max(t.args["eps"]) / t.args["delta"],
                                    tol=g.tolerances.tau_solver)
            if err:
                return f"player {o.player}: {err}"
        return None

    def _game_sufficiency(self, t, out, g):
        if out.verdict == "holds" and not out.qne_confirmed:
            return "game sufficiency holds without the QNE confirmation"
        return None

    # cli -------------------------------------------------------------------
    def _cli(self, t, code, model):
        try:
            with open(t.args["report"], encoding="utf-8") as fh:
                verdict = json.load(fh)["verdict"]
        except (OSError, ValueError, KeyError) as exc:
            return f"exit {code}, no readable report ({exc})"
        if _EXIT.get(verdict, 2) != code:
            return f"exit code {code} does not match verdict {verdict!r}"
        return self._expect(t, verdict)

    def _roundtrip(self, t, out, model):
        first, again = out
        io = self.m.io
        if io.serialize(first) != io.serialize(again):
            return "load -> save -> load changed the model"
        with open(t.args["copy"], "rb") as fh:
            saved = fh.read()
        io.save(again, t.args["copy"])
        with open(t.args["copy"], "rb") as fh:
            if fh.read() != saved:
                return "a second save is not byte-identical"
        return None


def pass_checks(wl, outputs, errors) -> dict:
    """The reduction and direct game predicates agree on every profile."""
    bad = {}
    by_query: dict = {}
    for t, out in zip(wl.tasks, outputs):
        if t.kind in ("ne", "ne_direct", "qne", "qne_direct") and t.id not in errors:
            concept = t.kind.replace("_direct", "")
            by_query.setdefault((t.key, concept, tuple(t.args["point"])), []).append((t, out))
    for pair in by_query.values():
        if len({out for _, out in pair}) > 1:
            for t, _ in pair:
                bad[t.id] = "reduction and direct predicate paths disagree"
    return bad


def digest(out) -> str:
    """Hash of a task output; passes over the same inputs must repeat it."""
    h = hashlib.sha256()
    _feed(h, out)
    return h.hexdigest()


def _feed(h, x) -> None:
    if isinstance(x, np.ndarray):
        h.update(repr((x.dtype.str, x.shape)).encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif dataclasses.is_dataclass(x):
        h.update(type(x).__name__.encode())
        for f in dataclasses.fields(x):
            _feed(h, getattr(x, f.name))
    elif isinstance(x, (list, tuple)):
        h.update(b"[")
        for v in x:
            _feed(h, v)
        h.update(b"]")
    elif isinstance(x, dict):
        h.update(b"{")
        for k in sorted(x, key=repr):
            _feed(h, k)
            _feed(h, x[k])
        h.update(b"}")
    else:
        h.update(repr(x).encode())
