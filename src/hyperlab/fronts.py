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

Riemann pieces are `riemann.JumpWave`s, and a `Front` is a `JumpWave` born
at an event point and time snapped to floats.  The run is event driven: a
front is never rebuilt, so the same object is in every epoch it lives
through, and a heap holds the exact rational time and point where each
approaching adjacent pair meets.  An event takes in the neighbours whose
snapped position then is the snapped event point, pushes only the pairs next
to its outgoing fronts, and drops popped pairs no longer adjacent; ties go
leftmost, then to the earlier push.  `FrontTrackingSolution.lines` draws an
epoch, as `verify.FanView.lines` draws a fan, at positions stepped in floats
from the epoch before, so fronts of equal speed keep their gap.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import ConfigError, FrontExplosion, RiemannFailure
from .models import GENUINELY_NONLINEAR, FluxModel, eigenvalues
from .piecewise import PiecewiseConstantFn
from .riemann import (STRENGTH_FLOOR, JumpWave, _compose, _envelope, _field_classes,
                      solve_strengths)


@dataclass(frozen=True, kw_only=True)
class Front(JumpWave):
    """A jump of a front-tracking run, born at position pos at time t0: both
    are snapped to floats at birth and held as Fractions, for the exact
    meeting times of the event heap.  It is unchanged until an event ends it."""

    pos: Fraction
    t0: Fraction

    @property
    def strength(self):
        return float(np.linalg.norm(self.u_r - self.u_l))


@dataclass(frozen=True, eq=False)  # by identity: `lines` groups times by epoch
class Epoch:
    t: float
    fronts: tuple
    xs: tuple  # where the fronts are drawn at t


@dataclass
class FrontTrackingSolution:
    T: float
    epochs: list
    events: list
    np_total: float
    background: np.ndarray

    def epoch_at(self, t):
        k = bisect.bisect_right(self.epochs, t + 1e-14, key=lambda ep: ep.t) - 1
        return self.epochs[max(k, 0)]

    def lines(self, ts):
        """(left, positions (times, fronts), rights) per epoch of the ascending ts."""
        for ep, run in itertools.groupby(ts, key=self.epoch_at):
            t = np.array(list(run), dtype=float)[:, None]
            speeds = np.array([f.speed for f in ep.fronts])
            yield (ep.fronts[0].u_l if ep.fronts else self.background,
                   np.array(ep.xs) + speeds * (t - ep.t), [f.u_r for f in ep.fronts])

    def state(self, t) -> PiecewiseConstantFn:
        (left, xs, rights), = self.lines([t])
        return PiecewiseConstantFn.from_fronts(left, xs[0], rights)

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
    fs, hull = _envelope(model, nodes, u_l[0] < u_r[0])
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
    sig, _, pieces = solve_strengths(model, u_l, u_r, fields, splits=[1] * model.n)
    splits = _splits(fields, sig, delta)
    if max(splits) > 1:
        sig, _, pieces = solve_strengths(model, u_l, u_r, fields, splits=splits)
    weak = (STRENGTH_FLOOR <= np.abs(sig)) & (np.abs(sig) < rho_np)
    if weak.any():
        state, pieces = _compose(model, u_l, np.where(weak, 0.0, sig), fields, splits)
        if np.linalg.norm(u_r - state) >= STRENGTH_FLOOR:
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

def _pieces_to_fronts(pieces, pos, t0, u_l, u_r):
    """Fronts born at (pos, t0), the outer ones ending exactly on u_l, u_r."""
    fronts = [Front(**vars(w), pos=pos, t0=t0) for w in pieces]
    if fronts:
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
    cap, T = cfg.front_cap, Fraction(float(cfg.T))
    fields = lam_hat = None
    if model.n > 1:
        fields = _field_classes(model, data.vals.min(axis=0), data.vals.max(axis=0))
        lam_hat = 1.0 + max(float(np.max(np.abs(eigenvalues(model, u))))
                            for u in data.vals)

    fronts = []
    for j, x in enumerate(data.xs):
        u_l, u_r = data.vals[j], data.vals[j + 1]
        pieces = approximate_riemann_pieces(model, u_l, u_r, cfg.delta, fields=fields)
        fronts += _pieces_to_fronts(pieces, Fraction(float(x)), Fraction(0), u_l, u_r)

    epochs = [Epoch(0.0, tuple(fronts), tuple(float(f.pos) for f in fronts))]
    events, np_total = [], 0.0
    max_events = 20 * max(cap, 1)
    heap, serial = [], itertools.count()

    def push(k, now):
        # when and where fronts[k] meets fronts[k + 1], if before T; at the earliest now
        a, b = fronts[k], fronts[k + 1]
        if a.speed > b.speed:
            va, vb = Fraction(a.speed), Fraction(b.speed)
            tc = max(now, (b.pos - a.pos + va * a.t0 - vb * b.t0) / (va - vb))
            if tc < T:
                heapq.heappush(heap, (tc, a.pos + va * (tc - a.t0), next(serial), a, b))

    def snapped(f, t):
        return float(f.pos + Fraction(f.speed) * (t - f.t0))

    for k in range(len(fronts) - 1):
        push(k, Fraction(0))
    while True:
        if len(fronts) > cap:
            raise FrontExplosion(f"front count {len(fronts)} exceeds cap {cap}")
        if len(events) > max_events:
            raise FrontExplosion(f"event count exceeds {max_events}")
        # earliest collision, leftmost on ties; a pair no longer adjacent is stale
        while heap:
            tc, x, _, a, b = heapq.heappop(heap)
            m = next((k for k, f in enumerate(fronts) if f is a), -1)
            if 0 <= m < len(fronts) - 1 and fronts[m + 1] is b:
                break
        else:
            break
        t, p = float(tc), float(x)
        lo, hi = m, m + 1
        while lo > 0 and snapped(fronts[lo - 1], tc) == p:
            lo -= 1
        while hi + 1 < len(fronts) and snapped(fronts[hi + 1], tc) == p:
            hi += 1
        u_l, u_r = fronts[lo].u_l, fronts[hi].u_r
        pieces = approximate_riemann_pieces(model, u_l, u_r, cfg.delta, fields=fields,
                                            rho_np=cfg.rho_np, lam_hat=lam_hat)
        outgoing = _pieces_to_fronts(pieces, Fraction(p), Fraction(t), u_l, u_r)
        np_strength = sum(f.strength for f in outgoing if f.kind == "non-physical")
        np_total += np_strength
        # stepped in floats, so fronts of equal speed keep their drawn gap
        xs = [xd + f.speed * (t - epochs[-1].t) for xd, f in zip(epochs[-1].xs, fronts)]
        xs[lo:hi + 1] = [p] * len(outgoing)
        fronts[lo:hi + 1] = outgoing
        for k in range(max(lo - 1, 0), min(lo + len(outgoing), len(fronts) - 1)):
            push(k, tc)
        events.append({"t": t, "x": p, "in": hi + 1 - lo, "out": len(outgoing),
                       "np_strength": float(np_strength)})
        epochs.append(Epoch(t, tuple(fronts), tuple(xs)))

    return FrontTrackingSolution(cfg.T, epochs, events, np_total, data.vals[0].copy())
