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

A system Riemann problem takes one strength solve with every family one
jump: one Newton on the chain of the n jumps' RH conditions
(`riemann._rh_chain`), with Broyden over composed jumps where the chain's
root is refused.  The chain runs over rows, so the run solves many problems
in one call.  The data's jumps are one call at t = 0.  A pending pair's
Riemann problem, from its left front's u_l to its right front's u_r, is
fixed when the pair is pushed.  So when a popped pair has no solve yet, the
run solves it and every other live pending pair not solved yet in one call,
and keeps each row until its pair's event.  The rest of the pieces is made
at that event, the Broyden fallback of a refused row included, so an error
is raised only at an event that uses the pair; a pair that goes stale
drops its row unused.  An event with more than two incoming fronts solves
alone, and a scalar model's pieces are made at the event.  A problem takes
a second solve only when a rarefaction is split: Broyden over composed
jumps, made by the same shock-curve Newton as genuine shocks.  With rho_np >
0 the families weaker than rho_np are then dropped, and one non-physical
front carries the mismatch.

Riemann pieces are `riemann.JumpWave`s, and a `Front` is a `JumpWave` born
at an event point and time snapped to floats.  The run is event driven: a
front is never rebuilt, so the same object is in every epoch it lives
through, and a heap holds the time and point where each approaching
adjacent pair meets.  Exact arithmetic is used only there, on integer ratios
of the fronts' floats: the meeting time and point, their cut at now and T,
and where a neighbour is at the event time.  A heap key leads with the
correctly rounded float time and point, so the floats order events unless
they tie, and a tie is decided exactly.  An event takes in the neighbours
whose snapped position then is the snapped event point, pushes only the
pairs next to its outgoing fronts, and drops popped pairs no longer
adjacent; ties go leftmost, then to the earlier push.  An `Epoch` holds
where its fronts are drawn at its start and their speeds as float64 arrays,
and `Epoch.at` is the one rule that moves them: the run steps each epoch's
drawing to the next event by it, so fronts of equal speed keep their drawn
gap, and `FrontTrackingSolution.lines` draws an epoch by it, as
`verify.FanView.lines` draws a fan.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FrontExplosion
from .models import GENUINELY_NONLINEAR, FluxModel, eigenvalues
from .piecewise import PiecewiseConstantFn, hold_index
from .riemann import (STRENGTH_FLOOR, JumpWave, _chained_strengths, _compose, _envelope,
                      _field_classes, _rh_chain, solve_strengths)


@dataclass(frozen=True, kw_only=True)
class Front(JumpWave):
    """A jump of a front-tracking run, born at position pos at time t0, both
    floats snapped at birth.  Its line pos + speed (t - t0) is taken exactly
    where the event heap needs it, as a ratio of integers.  It is unchanged
    until an event ends it."""

    pos: float
    t0: float

    @property
    def strength(self):
        return float(np.linalg.norm(self.u_r - self.u_l))


@dataclass(frozen=True, eq=False)  # by identity: `lines` groups times by epoch
class Epoch:
    """The fronts alive from time t to the next event, with xs where they
    are drawn at t and their speeds, float64 arrays in front order."""

    t: float
    fronts: tuple
    xs: np.ndarray
    speeds: np.ndarray

    def at(self, t):
        """Where the fronts are drawn at time t, a scalar or a column of times."""
        return self.xs + self.speeds * (t - self.t)


@dataclass
class FrontTrackingSolution:
    T: float
    epochs: list
    events: list
    np_total: float
    background: np.ndarray

    def epoch_at(self, t):
        return self.epochs[hold_index(self.epochs, t, key=lambda ep: ep.t)]

    def lines(self, ts):
        """(left, positions (times, fronts), rights) per epoch of the ascending
        ts, the positions drawn by `Epoch.at` from the epoch's start."""
        for ep, run in itertools.groupby(ts, key=self.epoch_at):
            t = np.array(list(run), dtype=float)[:, None]
            yield (ep.fronts[0].u_l if ep.fronts else self.background,
                   ep.at(t), [f.u_r for f in ep.fronts])

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


def _system_pieces(model, u_l, u_r, delta, fields, rho_np, lam_hat, first):
    """Front pieces for a system Riemann problem from `first`, its strength
    solve with every family one jump.  Every piece is RH-exact; when
    families weaker than rho_np are dropped, one non-physical front at
    lam_hat carries the mismatch."""
    sig, _, pieces = first
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
        raise ConfigError("system front tracking needs field classes")
    return _system_pieces(model, u_l, u_r, delta, fields, rho_np, lam_hat,
                          solve_strengths(model, u_l, u_r, fields, splits=[1] * model.n))


# ---------------------------------------------------------------------------
# the run

def _pieces_to_fronts(pieces, pos, t0, u_l, u_r):
    """Fronts born at (pos, t0), the outer ones ending exactly on u_l, u_r."""
    last = len(pieces) - 1
    return [Front(**{**vars(w), "u_l": u_l if j == 0 else w.u_l,
                     "u_r": u_r if j == last else w.u_r}, pos=pos, t0=t0)
            for j, w in enumerate(pieces)]


class _Ratio:
    """The exact rational num / den of integers, den > 0.  In the event heap
    it follows its float rounding and is compared only where those tie."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num, self.den = num, den

    def __eq__(self, other):
        return self.num * other.den == other.num * self.den

    def __lt__(self, other):
        return self.num * other.den < other.num * self.den


def _line(f):
    """Front f's path x = (c + v t) / d, exact on integers c, v and d > 0."""
    p, dp = f.pos.as_integer_ratio()
    s, ds = f.t0.as_integer_ratio()
    v, dv = f.speed.as_integer_ratio()
    d = max(dp, dv * ds)  # all powers of two: d is their lcm
    return p * (d // dp) - v * s * (d // (dv * ds)), v * (d // dv), d


def _snapped(f, t):
    """Where front f is at the exact time t, rounded to a float."""
    c, v, d = _line(f)
    return (c * t.den + v * t.num) / (d * t.den)


def _meeting(a, b, now, T):
    """The heap key (t, exact t, x, exact x) of where front a meets its right
    neighbour b, at the earliest at the exact time now; None if a does not
    approach b or they meet at the exact time T or later.  The time
    (p_b - p_a + v_a t_a - v_b t_b) / (v_a - v_b) and the point
    p_a + v_a (t - t_a) are exact ratios, and t and x their floats."""
    if a.speed <= b.speed:
        return None
    (ca, va, da), (cb, vb, db) = _line(a), _line(b)
    t = _Ratio(cb * da - ca * db, va * db - vb * da)
    if t < now:
        t = now
    if not t < T:
        return None
    x = _Ratio(ca * t.den + va * t.num, da * t.den)
    return t.num / t.den, t, x.num / x.den, x


def front_tracking_run(model: FluxModel, data, cfg) -> FrontTrackingSolution:
    """Track fronts of a piecewise-constant profile until time T.

    data must be a PiecewiseConstantFn with finitely many jumps.  A system's
    families are classified once, on the segment between the corners lo
    and hi of the box of the data's states (`riemann._field_classes`).
    cfg needs delta (rarefaction accuracy, and the state grid of a scalar
    model); rho_np > 0 enables merging of weak interaction products into
    non-physical fronts at speed lam_hat = 1 + max characteristic speed over
    the data.  Fronts move on the whole line, so no boundary is read.
    """
    cfg.refuse_unread("front_tracking_run", "delta", "rho_np", "front_cap")
    if not isinstance(data, PiecewiseConstantFn):
        raise ConfigError("front tracking needs PiecewiseConstantFn data")
    cap, T = cfg.front_cap, _Ratio(*float(cfg.T).as_integer_ratio())
    fields = lam_hat = None
    if model.n > 1:
        fields = _field_classes(model, data.vals.min(axis=0), data.vals.max(axis=0))
        lam_hat = 1.0 + float(np.max(np.abs(eigenvalues(model, data.vals))))

    def chain_solves(u_l, u_r):
        # whether the pair's first strength solve is a row of the RH chain
        return model.n > 1 and np.linalg.norm(u_r - u_l) >= STRENGTH_FLOOR

    def pieces(u_l, u_r, rho_np, row):
        # the Riemann pieces from u_l to u_r, from the chain's row if solved
        if row is None:
            return approximate_riemann_pieces(model, u_l, u_r, cfg.delta, fields=fields,
                                              rho_np=rho_np, lam_hat=lam_hat)
        return _system_pieces(model, u_l, u_r, cfg.delta, fields, rho_np, lam_hat,
                              _chained_strengths(model, u_l, u_r, fields, row))

    jumps = list(zip(data.xs, data.vals[:-1], data.vals[1:]))
    todo = [k for k, (_, u_l, u_r) in enumerate(jumps) if chain_solves(u_l, u_r)]
    rows = dict(zip(todo, _rh_chain(model, [jumps[k][1] for k in todo],
                                    [jumps[k][2] for k in todo], fields)))
    fronts = []
    for k, (x, u_l, u_r) in enumerate(jumps):
        # + 0.0: a datum at -0.0 is born at +0.0
        fronts += _pieces_to_fronts(pieces(u_l, u_r, 0.0, rows.get(k)),
                                    float(x) + 0.0, 0.0, u_l, u_r)

    epochs = [Epoch(0.0, tuple(fronts), np.array([f.pos for f in fronts]),
                    np.array([f.speed for f in fronts]))]
    events, np_total = [], 0.0
    max_events = 20 * cap
    heap, serial = [], itertools.count()
    solved = {}  # heap serial -> the chain's row of that pair, solved ahead

    def push(k, now):
        # when and where fronts[k] meets fronts[k + 1], if before T
        key = _meeting(fronts[k], fronts[k + 1], now, T)
        if key is not None:
            heapq.heappush(heap, (*key, next(serial), fronts[k], fronts[k + 1]))

    def solve_pending(a, b):
        # the RH chain of the popped pair (a, b) and, as rows of the same
        # call, of every live pending pair not solved yet; returns a, b's row
        at = {id(f): k for k, f in enumerate(fronts)}
        pending = [(key, x, y) for *_, key, x, y in heap
                   if key not in solved and at.get(id(x), -2) + 1 == at.get(id(y))
                   and chain_solves(x.u_l, y.u_r)]
        row, *more = _rh_chain(model, [a.u_l] + [x.u_l for _, x, _ in pending],
                               [b.u_r] + [y.u_r for *_, y in pending], fields)
        solved.update(zip([key for key, _, _ in pending], more))
        return row

    start = _Ratio(0, 1)
    for k in range(len(fronts) - 1):
        push(k, start)
    while True:
        if len(fronts) > cap:
            raise FrontExplosion(f"front count {len(fronts)} exceeds cap {cap}")
        if len(events) > max_events:
            raise FrontExplosion(f"event count exceeds {max_events}")
        # earliest collision, leftmost on ties; a pair no longer adjacent is
        # stale, and its row, if solved ahead, is dropped unused
        while heap:
            t, tc, p, _, key, a, b = heapq.heappop(heap)
            row = solved.pop(key, None)
            m = next((k for k, f in enumerate(fronts) if f is a), -1)
            if 0 <= m < len(fronts) - 1 and fronts[m + 1] is b:
                break
        else:
            break
        lo, hi = m, m + 1
        while lo > 0 and _snapped(fronts[lo - 1], tc) == p:
            lo -= 1
        while hi + 1 < len(fronts) and _snapped(fronts[hi + 1], tc) == p:
            hi += 1
        u_l, u_r = fronts[lo].u_l, fronts[hi].u_r
        if hi > lo + 1:
            row = None  # more than two fronts in: solved alone
        elif row is None and chain_solves(u_l, u_r):
            row = solve_pending(a, b)
        outgoing = _pieces_to_fronts(pieces(u_l, u_r, cfg.rho_np, row), p, t, u_l, u_r)
        np_strength = sum(f.strength for f in outgoing if f.kind == "non-physical")
        np_total += np_strength
        fronts[lo:hi + 1] = outgoing
        for k in range(max(lo - 1, 0), min(lo + len(outgoing), len(fronts) - 1)):
            push(k, tc)
        events.append({"t": t, "x": p, "in": hi + 1 - lo, "out": len(outgoing),
                       "np_strength": float(np_strength)})
        # the last drawing stepped to t, its incoming slice replaced by the
        # outgoing fronts at the event point
        xs, speeds = epochs[-1].at(t), epochs[-1].speeds
        epochs.append(Epoch(t, tuple(fronts),
                            np.concatenate([xs[:lo], [p] * len(outgoing), xs[hi + 1:]]),
                            np.concatenate([speeds[:lo], [f.speed for f in outgoing],
                                            speeds[hi + 1:]])))

    return FrontTrackingSolution(cfg.T, epochs, events, np_total, data.vals[0].copy())
