"""Wave-front tracking: piecewise-constant evolution with exact jump speeds.

Every physical front (shock, contact, or rarefaction piece) is an exact
solution of the jump conditions, so mass is conserved exactly and the
Rankine-Hugoniot audit holds to solver tolerance at all times.  Rarefactions
are chains of jumps of strength at most delta at their secant speed.

A scalar Riemann problem is solved exactly for f interpolated at the states
delta*Z (Dafermos 1972): its pieces are the chords of the convex or concave
envelope of f through u_l, u_r and the grid states between them.  Runs from
data on delta*Z meet only grid states, so two of them contract in L1 to
roundoff; off-grid data values stay nodes.

A system Riemann problem takes one strength solve (`riemann.solve_strengths`)
with every family one jump, and a second one only when a rarefaction is
split, its jumps made by the same shock-curve Newton as genuine shocks.
With rho_np > 0 the families weaker than rho_np are then dropped, and one
non-physical front carries the mismatch.

Riemann pieces are `riemann.JumpWave`s and a `Front` is a `JumpWave` at a
`Fraction` position; `PiecewiseConstantFn.from_fronts` draws an epoch, as
it draws the lines of an exact fan in `verify.FanView`.

Collision times are compared in exact rational arithmetic (front positions
are Fractions, snapped to float resolution after each event so denominators
stay bounded); simultaneous events resolve leftmost first.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import ConfigError, FrontExplosion, RiemannFailure
from .models import GENUINELY_NONLINEAR, FluxModel, eigenvalues
from .piecewise import PiecewiseConstantFn
from .riemann import (STRENGTH_FLOOR, JumpWave, _compose, _field_classes,
                      _lower_hull_indices, solve_strengths)


@dataclass(frozen=True, kw_only=True)
class Front(JumpWave):
    """A jump of a front-tracking epoch, at position pos at the epoch start."""

    pos: Fraction

    @property
    def strength(self):
        return float(np.linalg.norm(self.u_r - self.u_l))

    def position(self, t, t0):
        return float(self.pos) + self.speed * (t - t0)


@dataclass(frozen=True)
class Epoch:
    t: float
    fronts: tuple


@dataclass
class FrontTrackingSolution:
    model_name: str
    T: float
    epochs: list
    events: list
    np_total: float
    background: np.ndarray

    def epoch_at(self, t):
        k = bisect.bisect_right(self.epochs, t + 1e-14, key=lambda ep: ep.t) - 1
        return self.epochs[max(k, 0)]

    def state(self, t) -> PiecewiseConstantFn:
        ep = self.epoch_at(t)
        left = ep.fronts[0].u_l if ep.fronts else self.background
        return PiecewiseConstantFn.from_fronts(
            left, [f.position(t, ep.t) for f in ep.fronts],
            [f.u_r for f in ep.fronts])

    def total_nonphysical_strength(self):
        """Total strength of the non-physical fronts alive at T."""
        return float(sum(f.strength for f in self.epochs[-1].fronts
                         if f.kind == "non-physical"))


# ---------------------------------------------------------------------------
# approximate Riemann solvers producing front pieces

def _scalar_pieces(model, u_l, u_r, delta):
    """The chords, in order from u_l, of the convex (u_l < u_r) or concave
    envelope of f through u_l, u_r and the states delta*k strictly between
    them, less those within STRENGTH_FLOOR of an end.  A chord is a shock
    where f' does not increase across it, else a rarefaction front."""
    lo, hi = sorted((float(u_l[0]), float(u_r[0])))
    grid = delta * np.arange(math.floor(lo / delta), math.ceil(hi / delta) + 1)
    nodes = np.concatenate([[lo], grid[(grid - lo >= STRENGTH_FLOOR)
                                       & (hi - grid >= STRENGTH_FLOOR)], [hi]])
    fs = model.f(nodes[:, None])[:, 0]
    sign = 1 if u_l[0] < u_r[0] else -1  # traverse from u_l
    hull = _lower_hull_indices(nodes, sign * fs)[::sign]
    us = nodes[hull]
    slopes = model.jac(us[:, None])[:, 0, 0]
    speeds = np.diff(fs[hull]) / np.diff(us)
    return [JumpWave("shock" if slopes[j] >= slopes[j + 1] else "rarefaction", 0,
                     us[j:j + 1], us[j + 1:j + 2], float(speeds[j]))
            for j in range(us.size - 1)]


def _splits(fields, sig, delta):
    """Jumps per family: the rarefaction side of a GNL family is split into
    jumps of strength at most delta (with 2% slack), anything else is one."""
    return [max(1, int(math.ceil(abs(s) * 1.02 / delta)))
            if (fields[i].tag == GENUINELY_NONLINEAR and s > 0) else 1
            for i, s in enumerate(sig)]


def _system_pieces(model, u_l, u_r, delta, fields, rho_np, lam_hat):
    """Front pieces for a system Riemann problem.  Every piece is RH-exact;
    when families weaker than rho_np are dropped, one non-physical front at
    lam_hat carries the mismatch."""
    sig = solve_strengths(model, u_l, u_r, fields, splits=[1] * model.n)
    splits = _splits(fields, sig, delta)
    if max(splits) > 1:
        sig = solve_strengths(model, u_l, u_r, fields, splits=splits)
    weak = (STRENGTH_FLOOR <= np.abs(sig)) & (np.abs(sig) < rho_np)
    state, pieces = _compose(model, u_l, np.where(weak, 0.0, sig), fields, splits)
    if weak.any() and np.linalg.norm(u_r - state) >= STRENGTH_FLOOR:
        pieces.append(JumpWave("non-physical", None, state, u_r, lam_hat))
    return pieces


def approximate_riemann_pieces(model, u_l, u_r, delta, fields=None,
                               rho_np=0.0, lam_hat=None):
    """JumpWave pieces ordered by speed; with rho_np > 0, system families
    weaker than rho_np merge into one non-physical front at lam_hat."""
    if np.linalg.norm(np.asarray(u_r) - np.asarray(u_l)) < STRENGTH_FLOOR:
        return []
    if model.n == 1:
        return _scalar_pieces(model, u_l, u_r, delta)
    if fields is None:
        raise RiemannFailure("system front tracking needs field classes")
    return _system_pieces(model, u_l, u_r, delta, fields, rho_np, lam_hat)


# ---------------------------------------------------------------------------
# the run

def _pieces_to_fronts(pieces, pos, u_l, u_r):
    """Materialize pieces at a common position, forcing exact end chaining."""
    fronts = [Front(**vars(w), pos=pos) for w in pieces]
    if fronts:
        # force the outer chain onto the original neighbor states
        fronts[0] = replace(fronts[0], u_l=u_l)
        fronts[-1] = replace(fronts[-1], u_r=u_r)
    return fronts


def front_tracking_run(model: FluxModel, data, cfg) -> FrontTrackingSolution:
    """Track fronts of a piecewise-constant profile until time T.

    data must be a PiecewiseConstantFn with finitely many jumps.  cfg needs
    delta (rarefaction accuracy, and the state grid of a scalar model);
    rho_np > 0 enables merging of weak interaction products into
    non-physical fronts at speed lam_hat = 1 + max characteristic speed over
    the data.  Fronts move on the whole line, so periodic boundaries are
    refused.
    """
    if not isinstance(data, PiecewiseConstantFn):
        raise ConfigError("front tracking needs PiecewiseConstantFn data")
    if cfg.boundary == "periodic":
        raise ConfigError("front_tracking_run needs constant boundaries")
    delta = cfg.delta
    rho_np = cfg.rho_np
    cap = cfg.front_cap
    T = cfg.T

    fields = None
    lam_hat = None
    if model.n > 1:
        fields = _field_classes(model, data.vals.min(axis=0), data.vals.max(axis=0))
        lam_hat = 1.0 + max(float(np.max(np.abs(eigenvalues(model, u))))
                            for u in data.vals)

    fronts = []
    for j, x in enumerate(data.xs):
        u_l, u_r = data.vals[j], data.vals[j + 1]
        pieces = approximate_riemann_pieces(model, u_l, u_r, delta,
                                            fields=fields)
        fronts.extend(_pieces_to_fronts(pieces, Fraction(float(x)), u_l, u_r))
    fronts.sort(key=lambda f: (f.pos, f.speed))

    t = Fraction(0)
    epochs = [Epoch(0.0, tuple(fronts))]
    events = []
    np_total = 0.0
    T_frac = Fraction(float(T))
    max_events = 20 * max(cap, 1)

    while True:
        if len(fronts) > cap:
            raise FrontExplosion(f"front count {len(fronts)} exceeds cap {cap}")
        if len(events) > max_events:
            raise FrontExplosion(f"event count exceeds {max_events}")
        # earliest collision, leftmost on ties
        best = None
        for m in range(len(fronts) - 1):
            vl, vr = fronts[m].speed, fronts[m + 1].speed
            if vl <= vr:
                continue
            gap = fronts[m + 1].pos - fronts[m].pos
            tc = t + gap / (Fraction(vl) - Fraction(vr))
            if tc >= T_frac:
                continue
            p_cand = fronts[m].pos + Fraction(vl) * (tc - t)
            if best is None or tc < best[0] or (tc == best[0] and p_cand < best[1]):
                best = (tc, p_cand, m)
        if best is None:
            break
        tc, p_exact, m = best
        # advance everything to the exact event time, then snap
        fronts = [replace(f, pos=Fraction(float(f.pos + Fraction(f.speed) * (tc - t))))
                  for f in fronts]
        t = Fraction(float(tc))
        p = fronts[m].pos
        lo = m
        while lo > 0 and fronts[lo - 1].pos == p:
            lo -= 1
        hi = m + 1
        while hi + 1 < len(fronts) and fronts[hi + 1].pos == p:
            hi += 1
        incoming = fronts[lo:hi + 1]
        u_l, u_r = incoming[0].u_l, incoming[-1].u_r
        pieces = approximate_riemann_pieces(model, u_l, u_r, delta,
                                            fields=fields, rho_np=rho_np,
                                            lam_hat=lam_hat)
        outgoing = _pieces_to_fronts(pieces, p, u_l, u_r)
        np_strength = sum(f.strength for f in outgoing if f.kind == "non-physical")
        np_total += np_strength
        fronts = fronts[:lo] + outgoing + fronts[hi + 1:]
        events.append({"t": float(t), "x": float(p),
                       "in": len(incoming), "out": len(outgoing),
                       "np_strength": float(np_strength)})
        epochs.append(Epoch(float(t), tuple(fronts)))

    return FrontTrackingSolution(model.name, T, epochs, events, np_total,
                                 data.vals[0].copy())
