"""Wave-front tracking: piecewise-constant evolution with exact jump speeds.

Every physical front (shock, contact, or rarefaction piece) is an exact
solution of the jump conditions, so mass is conserved exactly and the
Rankine-Hugoniot audit holds to solver tolerance at all times.  Rarefactions
are approximated by chains of jumps of strength at most delta traveling at
their exact two-state (secant) speed; for systems the chain states are
produced by the same shock-curve Newton as genuine shocks.

Collision times are compared in exact rational arithmetic (front positions
are Fractions, snapped to float resolution after each event so denominators
stay bounded); simultaneous events resolve leftmost first.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import (ConfigError, FrontExplosion, NonClassifiedField,
                     RiemannFailure)
from .models import (GENUINELY_NONLINEAR, LINEARLY_DEGENERATE, FluxModel,
                     classify_field, eigenvalues)
from .piecewise import PiecewiseConstantFn
from .riemann import (_compose, _damped_newton, solve_riemann_scalar,
                      solve_strengths)

STRENGTH_FLOOR = 1e-13


@dataclass(frozen=True)
class Front:
    pos: Fraction
    speed: float
    family: Optional[int]
    u_l: np.ndarray
    u_r: np.ndarray
    kind: str  # shock | rarefaction | contact | non-physical

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
        if not ep.fronts:
            return PiecewiseConstantFn.constant(self.background)
        xs, vals = [], [ep.fronts[0].u_l]
        prev = -np.inf
        for f in ep.fronts:
            x = f.position(t, ep.t)
            if x <= prev:
                # stacked fronts at an event instant: keep the last value
                vals[-1] = f.u_r
                continue
            xs.append(x)
            vals.append(f.u_r)
            prev = x
        return PiecewiseConstantFn(np.array(xs), np.stack(vals))

    def total_nonphysical_strength(self, t=None):
        ep = self.epochs[-1] if t is None else self.epoch_at(t)
        return float(sum(f.strength for f in ep.fronts if f.kind == "non-physical"))


# ---------------------------------------------------------------------------
# approximate Riemann solvers producing front pieces

def _scalar_pieces(model, u_l, u_r, delta):
    fan = solve_riemann_scalar(model, u_l, u_r)
    pieces = []
    for w in fan.waves:
        if w.kind == "shock":
            pieces.append(("shock", 0, w.u_l, w.u_r, w.speed))
        else:
            a, b = float(w.u_l[0]), float(w.u_r[0])
            k = max(1, int(math.ceil(abs(b - a) / delta - 1e-12)))
            pts = np.linspace(a, b, k + 1)
            fp = model.f(pts[:, None])[:, 0]
            for m in range(k):
                speed = (fp[m + 1] - fp[m]) / (pts[m + 1] - pts[m])
                pieces.append(("rarefaction", 0,
                               np.array([pts[m]]), np.array([pts[m + 1]]),
                               float(speed)))
    return pieces


def _splits(fields, sig, delta):
    """Jumps per family: the rarefaction side of a GNL family is split into
    jumps of strength at most delta (with 2% slack), anything else is one."""
    return [max(1, int(math.ceil(abs(s) * 1.02 / delta)))
            if (fields[i].tag == GENUINELY_NONLINEAR and s > 0) else 1
            for i, s in enumerate(sig)]


def _chain(model, u_l, sig, fields, splits):
    """End state and (kind, family, u_l, u_r, speed) pieces of the chained
    Lax curves; every adjacent state pair solves the jump conditions."""
    state, waves = _compose(model, u_l, sig, fields, splits, tol=1e-14,
                            floor=STRENGTH_FLOOR)
    return state, [(w.kind, w.family, w.u_l, w.u_r, w.speed) for w in waves]


def _system_pieces(model, u_l, u_r, delta, fields):
    """Front pieces for a system Riemann problem, all of them RH-exact."""
    sig0 = solve_strengths(model, u_l, u_r, fields, tol=1e-12,
                           rarefaction_as_shocks=True)
    splits = _splits(fields, sig0, delta)

    def G(sig):
        return _chain(model, u_l, sig, fields, splits)[0] - u_r

    sig = _damped_newton(G, sig0, 1e-12, 1e-9, 25, RiemannFailure,
                         "chained-strength")
    _, pieces = _chain(model, u_l, sig, fields, splits)
    return pieces, sig


def _merge_weak_waves(model, u_l, u_r, pieces, sig, fields, rho_np, lam_hat, delta):
    """Replace families weaker than rho_np by one non-physical front."""
    weak = [i for i in range(model.n)
            if STRENGTH_FLOOR <= abs(sig[i]) < rho_np]
    if not weak:
        return pieces, 0.0
    strong_sig = sig.copy()
    for i in weak:
        strong_sig[i] = 0.0
    state, strong_pieces = _chain(model, u_l, strong_sig, fields,
                                  _splits(fields, strong_sig, delta))
    np_strength = float(np.linalg.norm(u_r - state))
    if np_strength < STRENGTH_FLOOR:
        return strong_pieces, 0.0
    strong_pieces.append(("non-physical", None, state, u_r, lam_hat))
    return strong_pieces, np_strength


def approximate_riemann_pieces(model, u_l, u_r, delta, fields=None,
                               rho_np=0.0, lam_hat=None, allow_np=False):
    """(kind, family, u_l, u_r, speed) tuples, ordered by speed."""
    if np.linalg.norm(np.asarray(u_r) - np.asarray(u_l)) < STRENGTH_FLOOR:
        return []
    if model.n == 1:
        return _scalar_pieces(model, u_l, u_r, delta)
    if fields is None:
        raise RiemannFailure("system front tracking needs field classes")
    pieces, sig = _system_pieces(model, u_l, u_r, delta, fields)
    if allow_np and rho_np > 0.0:
        pieces, _ = _merge_weak_waves(
            model, u_l, u_r, pieces, sig, fields, rho_np, lam_hat, delta)
    return pieces


# ---------------------------------------------------------------------------
# the run

def _pieces_to_fronts(pieces, pos, u_l, u_r):
    """Materialize pieces at a common position, forcing exact end chaining."""
    fronts = []
    if not pieces:
        return fronts
    for kind, fam, a, b, speed in pieces:
        fronts.append(Front(pos, float(speed), fam, a, b, kind))
    # force the outer chain onto the original neighbor states
    first, last = fronts[0], fronts[-1]
    fronts[0] = replace(first, u_l=u_l)
    fronts[-1] = replace(fronts[-1], u_r=u_r)
    return fronts


def front_tracking_run(model: FluxModel, data, cfg) -> FrontTrackingSolution:
    """Track fronts of a piecewise-constant profile until time T.

    data must be a PiecewiseConstantFn with finitely many jumps.  cfg needs
    delta (rarefaction accuracy); rho_np > 0 enables merging of weak
    interaction products into non-physical fronts at speed
    lam_hat = 1 + max characteristic speed over the data.
    """
    if not isinstance(data, PiecewiseConstantFn):
        raise ConfigError("front tracking needs PiecewiseConstantFn data")
    delta = cfg.delta
    rho_np = cfg.rho_np
    cap = cfg.front_cap
    T = cfg.T

    fields = None
    lam_hat = None
    if model.n > 1:
        lo = data.vals.min(axis=0)
        hi = data.vals.max(axis=0)
        mid = 0.5 * (lo + hi)
        samples = [lo, hi, mid, 0.5 * (lo + mid), 0.5 * (hi + mid)]
        fields = [classify_field(model, i, samples) for i in range(model.n)]
        for fc in fields:
            if fc.tag not in (GENUINELY_NONLINEAR, LINEARLY_DEGENERATE):
                raise NonClassifiedField(
                    f"family {fc.family} is neither GNL nor LD on the data hull")
        lam_hat = 1.0 + max(float(np.max(np.abs(eigenvalues(model, u))))
                            for u in data.vals)

    fronts = []
    for j, x in enumerate(data.xs):
        u_l, u_r = data.vals[j], data.vals[j + 1]
        pieces = approximate_riemann_pieces(model, u_l, u_r, delta,
                                            fields=fields, allow_np=False)
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
        moved = []
        for f in fronts:
            newpos = Fraction(float(f.pos + Fraction(f.speed) * (tc - t)))
            moved.append(replace(f, pos=newpos))
        fronts = moved
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
                                            lam_hat=lam_hat, allow_np=True)
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
