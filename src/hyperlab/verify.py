"""Verification and error analysis.

Solutions enter through lightweight views that draw themselves by lines:
`lines(ts)` gives a view's fronts at the times ts, and `state(t)` one time of
them as a PiecewiseConstantFn.  A grid run draws the snapshot it holds as
fronts of speed zero at its cell edges.  Space integrals against the C^2
bump test functions are evaluated in closed form.

One strip kernel, `strip_expressions`, serves the weak-form residual, the
entropy residual and the eps-certificate.  A strip sums the two boundary
profiles, then interior terms drawn by `lines`: the frozen segments of a grid
run, exact in time, or the nodes of 7-point Gauss-Legendre panels split at
the kinks.  A term's density columns, u then each entropy pair's eta, and
flux columns, f(u) then each pair's q, are integrated against the whole test
family by one closed form, `_bump_integrals`.  `_crossings` gives the times
the straight fronts of a fan or front-tracking run cross the bump edges:
kinks, as are the ends of a bump's time support, between which the
integrand of a front-tracking view is a polynomial in t of degree <= 12.

An oracle, S_h of `error_decomposition` and `semigroup_error_bound` (read
through `_evolve`), has `evolve(pc, h)`: pc at h = 0, else a library run from
pc drawn at h; `domain`, the span of its L1 distances; and `note`, its name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, HyperlabError, OracleUnavailable
from .fronts import FrontTrackingSolution, front_tracking_run
from .models import eigensystem
from .piecewise import GridSolution, PiecewiseConstantFn
from .riemann import WaveFan, evaluate_fan, solve_strengths, _field_classes
from .schemes import SchemeConfig, godunov_run

TIME_PAD = 1e-6
# widest speed cell of a sampled rarefaction in FanView profiles
RAREFACTION_STEP = 0.002
# sup |d/dy (1 - y^2)^3| over [-1, 1], attained at y = 1/sqrt(5)
PSI_DERIV_MAX = 96.0 / (25.0 * math.sqrt(5.0))


# ---------------------------------------------------------------------------
# solution views

class _StateCache:
    """Base of the solution views: `state(t)` is the profile at time t,
    drawn from one time of the view's `lines`.

    Profiles are not memoised: strip ends and probes ask for new times, and
    the Gauss nodes of a strip are drawn a panel at a time by `lines`.  The
    method stays the one entry point for a profile, which the benchmark
    tracer (`perfbench/tracing.py`) wraps by this class and method name.
    """

    def state(self, t):
        (left, xs, rights), = self.lines([float(t)])
        return PiecewiseConstantFn.from_fronts(left, xs[0], rights)


class GridView(_StateCache):
    """A stored grid run, held piecewise constant in time: at each time the
    snapshot of GridSolution.row, drawn as fronts of speed zero at its edges."""

    def __init__(self, sol: GridSolution):
        self.sol = sol
        self.t_span = (float(sol.times[0]), float(sol.times[-1]))
        self.x_span = (sol.x0, sol.xmax)
        self.dx = sol.dx

    def lines(self, ts):
        """(left, positions of shape (1, lines), rights) for each time of ts."""
        edges = self.sol.edges()[None, 1:-1]
        for t in ts:
            row = self.sol.row(t)
            yield row[0], edges, row[1:]


def _crossings(t_a, x_a, speeds, edges, lo, hi):
    """Times in (lo, hi) at which the lines x = x_a + s (t - t_a), one per
    speed s (x_a one position or one per line), cross the edges."""
    s = np.asarray(speeds, dtype=float)
    moving = s != 0.0
    x = np.broadcast_to(x_a, s.shape)[moving]
    tc = t_a + (np.asarray(edges)[None, :] - x[:, None]) / s[moving, None]
    return tc[(lo < tc) & (tc < hi)].tolist()


class FanView(_StateCache):
    """Self-similar Riemann solution centered at (t0, x0), drawn for t > t0
    by the lines x0 + s (t - t0) of its jumps and of rarefaction speed cells
    no wider than RAREFACTION_STEP (each holding its midpoint state); the
    jumps and the rarefaction edges are its kinks.  At and before t0 every
    line sits at x0, which draws the Riemann data (the constant for a fan
    with no wave)."""

    _panels = 16  # the lines of its rarefaction cells are not kinks

    def __init__(self, fan: WaveFan, x0=0.0, t0=0.0, t_span=(0.0, 1.0),
                 x_span=(-2.0, 2.0)):
        self.fan = fan
        self.x0 = x0
        self.t0 = t0
        self.t_span = t_span
        self.x_span = x_span
        speeds, vals, self._kinks = [], [], []
        for w in fan.waves:
            if w.kind == "rarefaction":
                k = max(2, int(math.ceil((w.speed_r - w.speed_l)
                                         / RAREFACTION_STEP)))
                sp = np.linspace(w.speed_l, w.speed_r, k + 1)
                speeds.extend(sp[:-1])
                vals.extend(evaluate_fan(fan, m) for m in 0.5 * (sp[:-1] + sp[1:]))
                self._kinks.append(w.speed_l)
            speeds.append(w.speed_r)
            vals.append(w.u_r)
            self._kinks.append(w.speed_r)
        self._speeds, self._vals = np.array(speeds), vals

    def lines(self, ts):
        """[(left, positions of shape (times, lines), rights)] at the times ts."""
        dt = np.maximum(np.asarray(ts, dtype=float) - self.t0, 0.0)
        return [(self.fan.left, self.x0 + self._speeds * dt[:, None], self._vals)]

    def kink_times(self, t0, t1, x_values):
        return sorted(_crossings(self.t0, self.x0, self._kinks, x_values, t0, t1))


class FrontTrackingView(_StateCache):
    _panels = 1  # every drawn front is in kink_times

    def __init__(self, sol: FrontTrackingSolution, x_span):
        self.sol = sol
        self.t_span = (0.0, sol.T)
        self.x_span = x_span

    def lines(self, ts):
        return self.sol.lines(ts)

    def kink_times(self, t0, t1, x_values):
        out = [e["t"] for e in self.sol.events if t0 < e["t"] < t1]
        epochs = self.sol.epochs
        for ep, te in zip(epochs, [ep.t for ep in epochs[1:]] + [self.sol.T]):
            lo, hi = max(ep.t, t0), min(te, t1)
            if hi > lo:
                out += _crossings(ep.t, ep.xs, ep.speeds, x_values, lo, hi)
        return sorted(out)


def as_view(obj):
    """A view as is; a grid run needs a GridView and a front-tracking run a
    FrontTrackingView, which carries its x_span."""
    if isinstance(obj, (GridView, FanView, FrontTrackingView)):
        return obj
    raise TypeError(f"cannot view {type(obj).__name__} as a solution")


# ---------------------------------------------------------------------------
# C^2 bump test functions with analytic norms and antiderivatives

def _psi(y):
    """The bump profile (1 - y^2)^3 on [-1, 1], zero outside, as the
    products t * t * t of t = 1 - y * y."""
    y = np.clip(y, -1.0, 1.0)
    t = 1.0 - y * y
    return t * t * t


def _dpsi(y):
    y = np.clip(y, -1.0, 1.0)
    return -6.0 * y * (1.0 - y * y) ** 2


def _Psi(y):
    """Antiderivative of the bump profile, zero at the left edge:
    (16 + y (35 - 35 y^2 + 21 y^4 - 5 y^6)) / 35 by Horner's rule in y^2.
    The integer coefficients make both ends exact until the one division:
    _Psi(-1) is 0 and _Psi(1) is 32/35 rounded once."""
    y = np.clip(y, -1.0, 1.0)
    y2 = y * y
    return (16.0 + y * (35.0 + y2 * (-35.0 + y2 * (21.0 - 5.0 * y2)))) / 35.0


@dataclass(frozen=True)
class BumpTestFn:
    """phi(t, x) = psi((t - tc)/st) * psi((x - xc)/sx); the time factor is 1
    when tc is None (constant across the strip)."""

    xc: float
    sx: float
    tc: Optional[float] = None
    st: Optional[float] = None

    @property
    def w1inf(self):
        m = max(1.0, PSI_DERIV_MAX / self.sx)
        if self.tc is not None:
            m = max(m, PSI_DERIV_MAX / self.st)
        return m

    def time_factors(self, ts):
        """(T, T', antiderivative of T) at the times ts."""
        if self.tc is None:
            return np.ones_like(ts), np.zeros_like(ts), ts
        y = (ts - self.tc) / self.st
        return _psi(y), _dpsi(y) / self.st, self.st * _Psi(y)

    def x_edges(self):
        return (self.xc - self.sx, self.xc + self.sx)

    def describe(self):
        return {"xc": self.xc, "sx": self.sx, "tc": self.tc, "st": self.st}


def _bump_integrals(xs, g, h, xc, sx):
    """Closed-form int g X dx and int h X' dx for every bump X((x - xc)/sx)
    and every row of nondecreasing breakpoints xs, with g and h piecewise
    constant on the pieces (one row per piece): arrays (rows, bumps, columns).

    _Psi and _psi are polynomials evaluated by multiplication; the outer
    pieces end at the bump edges, where _Psi is exactly 0 and 32/35 and _psi
    is 0.
    Each column of g and h is its own matrix-vector product, so a column's
    integrals round the same whatever columns sit beside it."""
    y = (np.clip(xs[:, None, :], (xc - sx)[:, None], (xc + sx)[:, None])
         - xc[:, None]) / sx[:, None]
    dPsi = sx[:, None] * np.diff(_Psi(y), axis=2, prepend=0.0, append=32.0 / 35.0)
    dpsi = np.diff(_psi(y), axis=2, prepend=0.0, append=0.0)
    return (np.stack([dPsi @ col for col in g.T], axis=-1),
            np.stack([dpsi @ col for col in h.T], axis=-1))


def profile_integrals(pc: PiecewiseConstantFn, g, h, xc, sx):
    """`_bump_integrals` of one profile: two arrays of shape (bumps, columns)."""
    I, J = _bump_integrals(pc.xs[None, :], g, h, xc, sx)
    return I[0], J[0]


@dataclass
class TestFamily:
    bumps: list
    descriptor: dict

    def __iter__(self):
        return iter(self.bumps)


def default_family(t0, t1, x0, x1, scales=3) -> TestFamily:
    """Tensor bumps at dyadic scales with half-overlapping translates, plus
    time-constant variants; norms are known analytically."""
    bumps = []
    Lx = x1 - x0
    tc, st = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
    for lev in range(scales):
        sx = Lx / 2 ** (lev + 1)
        centers = np.arange(x0, x1 + 0.5 * sx, sx)
        for c in centers:
            bumps.append(BumpTestFn(float(c), float(sx)))
            bumps.append(BumpTestFn(float(c), float(sx), tc, st))
    return TestFamily(bumps, {
        "profile": "(1-y^2)^3", "scales": scales, "x_span": (x0, x1),
        "t_span": (t0, t1), "count": len(bumps),
        "deriv_sup": PSI_DERIV_MAX})


# ---------------------------------------------------------------------------
# strip residuals (weak form and entropy form)

def _gauss_nodes(t0, t1, kinks, panels):
    """Nodes and weights, each of shape (panels, 7), of 7-point Gauss-Legendre
    panels on [t0, t1] split at the kinks, no wider than (t1 - t0) / panels."""
    nodes, weights = np.polynomial.legendre.leggauss(7)
    cuts = sorted({t0, t1, *[k for k in kinks if t0 < k < t1]})
    refined = [t0]
    width_cap = (t1 - t0) / panels
    for a, b in zip(cuts[:-1], cuts[1:]):
        m = max(1, int(math.ceil((b - a) / width_cap - 1e-12)))
        refined.extend(np.linspace(a, b, m + 1)[1:])
    refined = np.array(refined)
    mid, half = 0.5 * (refined[:-1] + refined[1:]), 0.5 * np.diff(refined)
    return mid[:, None] + half[:, None] * nodes, half[:, None] * weights


def _time_factors(bumps, ts):
    """(T, T', antiderivative of T) of every bump at the times ts, each of
    shape (bumps, times)."""
    ts = np.asarray(ts, dtype=float)
    return np.stack([b.time_factors(ts) for b in bumps], axis=1)


def strip_expressions(view, model, bumps, t0, t1, pairs=()):
    """The bracketed expression of the approximate weak form on the strip,
    int u(t0) phi(t0) - int u(t1) phi(t1) + int int (u phi_t + f(u) phi_x),
    for every bump at once, then the same for each entropy pair (eta, q) of
    pairs in place of (u, f): an array of shape (bumps, n + len(pairs)).

    The strip is a sum of time terms, each adding c_I int g X dx + c_J int
    h X' dx per bump, with g the density columns and h the flux columns:
    the two boundary terms, then the interior terms, drawn by the view's
    lines: one per frozen segment of a grid run at its start, weighted
    exactly in time, or one per node of the Gauss panels, a panel at a time."""
    def columns(vals):
        return (np.column_stack([vals, *(eta(vals) for eta, _ in pairs)]),
                np.column_stack([model.f(vals), *(q(vals) for _, q in pairs)]))

    xc, sx = np.array([(bump.xc, bump.sx) for bump in bumps]).T
    T_ends, zero = _time_factors(bumps, [t0, t1])[0], np.zeros(len(bumps))
    terms = [(*profile_integrals(pc, *columns(pc.vals), xc, sx), c_I, zero)
             for pc, c_I in [(view.state(t0), T_ends[:, 0]),
                             (view.state(t1), -T_ends[:, 1])]]
    if isinstance(view, GridView):
        # frozen segments, slivers dropped, weighted exactly from their starts
        times = view.sol.times
        knots = np.concatenate([[t0], times[(t0 < times) & (times < t1)], [t1]])
        keep = knots[1:] > knots[:-1] + 1e-15
        c_I, _, c_J = np.diff(_time_factors(bumps, knots), axis=2)[:, :, keep]
        ts = [knots[:-1][keep]]
    else:
        edges = sorted({e for bump in bumps for e in bump.x_edges()})
        # a clipped time factor has kinks where its support ends
        ends = [b.tc + d for b in bumps if b.tc is not None for d in (-b.st, b.st)]
        ts, ws = _gauss_nodes(t0, t1, view.kink_times(t0, t1, edges) + ends, view._panels)
        T, Tp, _ = _time_factors(bumps, ts.ravel())
        c_I, c_J = ws.ravel() * Tp, ws.ravel() * T
    # fronts drawn at or left of the one before stack as in from_fronts
    parts = [_bump_integrals(np.maximum.accumulate(xs, axis=1), *columns(
                 np.vstack([left, np.reshape(rights, (-1, model.n))])), xc, sx)
             for panel in ts for left, xs, rights in view.lines(panel)]
    I_J = map(np.concatenate, zip(*parts))  # per time; none on a strip of no width
    terms += zip(*I_J, c_I.T, c_J.T)
    # each term rounds once, and their exact sum keeps strips additive
    summands = np.stack([c_I[:, None] * I + c_J[:, None] * J for I, J, c_I, c_J in terms])
    return np.vectorize(math.fsum, signature="(n)->()")(np.moveaxis(summands, 0, -1))


def _setup(view, t_span, family):
    """The view, its time span (or t_span) and the test family (the default
    one if None); refuses an empty family, or bumps under four grid cells."""
    view = as_view(view)
    t0, t1 = view.t_span if t_span is None else t_span
    if family is None:
        family = default_family(t0, t1, *view.x_span)
    if not family.bumps:
        raise ConfigError("the test family has no bumps")
    if isinstance(view, GridView):
        smallest = min(b.sx for b in family)
        if smallest < 4 * view.dx:
            raise ConfigError(f"test scale {smallest:g} below 4 cells ({4 * view.dx:g})")
    return view, t0, t1, family


def _strip_residual(view, model, t_span, family, pairs):
    """Strip expressions over the family, each divided by its bump's scale
    (t1 - t0 + TIME_PAD) * |phi|_W1inf."""
    view, t0, t1, family = _setup(view, t_span, family)
    exprs = strip_expressions(view, model, family.bumps, t0, t1, pairs)
    scale = (t1 - t0 + TIME_PAD) * np.array([b.w1inf for b in family])
    return exprs / scale[:, None]


def weak_residual(view, model, t_span=None, family=None):
    """max over the family of |expr| / ((t1 - t0 + pad) * |phi|_W1inf)."""
    r = _strip_residual(view, model, t_span, family, ())
    return float(np.max(np.linalg.norm(r, axis=1)))


def entropy_residual(view, model, t_span=None, family=None):
    """min over the (nonnegative) family of the entropy surplus, scaled like
    weak_residual; values below zero flag entropy violation."""
    model.require_entropy_pair()
    r = _strip_residual(view, model, t_span, family, [(model.entropy, model.entropy_flux)])
    return float(np.min(r[:, -1]))


# ---------------------------------------------------------------------------
# the eps-approximate-solution certificate

@dataclass
class EpsCertificate:
    """eps is the largest excess checked; an excess not checked (no initial
    data, no entropy pair) is None."""

    eps: float
    initial_excess: Optional[float]
    lipschitz_excess: float
    weak_excess: float
    entropy_excess: Optional[float]
    family: dict
    tests: list = field(default_factory=list)


def _eps_from_bound(defect, dt, norm):
    """Smallest eps with defect <= eps*(dt + eps)*norm."""
    if defect <= 0:
        return 0.0
    c = defect / norm
    return 0.5 * (-dt + math.sqrt(dt * dt + 4.0 * c))


def certify_eps_approx(view, model, M, initial_data=None, family=None,
                       n_probe=7, entropy=True) -> EpsCertificate:
    """Certificate of Lipschitz-in-time, weak-form, and entropy inequalities
    over a finite, documented test family on the strips between n_probe >= 2
    probe times; a lower bound on the true eps.  M is the Lipschitz constant
    in time the L1 distances are held to: NaN or negative is refused, and
    inf passes every pair."""
    if n_probe < 2:
        raise ConfigError(f"need n_probe >= 2 probe times to make a strip, not {n_probe}")
    if not M >= 0:
        raise ConfigError(f"need a Lipschitz constant M >= 0, not {M!r}")
    view, t0, T, family = _setup(view, None, family)
    probes = np.linspace(t0, T, n_probe)
    x0, x1 = view.x_span
    tests = []

    initial_excess = None
    if initial_data is not None:
        initial_excess = view.state(t0).l1_distance(initial_data, x0, x1)
        tests.append({"kind": "initial", "value": initial_excess})

    states = {float(t): view.state(t) for t in probes}
    lip = 0.0
    for i in range(n_probe):
        for j in range(i + 1, n_probe):
            ta, tb = float(probes[i]), float(probes[j])
            d = states[ta].l1_distance(states[tb], x0, x1)
            excess = max(0.0, d - M * (tb - ta))
            lip = max(lip, excess)
            tests.append({"kind": "lipschitz", "t": (ta, tb), "value": excess})

    pairs = ([(model.entropy, model.entropy_flux)]
             if entropy and model.has_entropy_pair() else [])
    strips = list(zip(probes[:-1].tolist(), probes[1:].tolist()))
    exprs = [strip_expressions(view, model, family.bumps, *s, pairs) for s in strips]
    # the weak form is additive over strips: the whole span is their sum
    strips.append((float(probes[0]), float(probes[-1])))
    exprs.append(sum(exprs, np.zeros((len(family.bumps), model.n + len(pairs)))))
    weak, ent = 0.0, (0.0 if pairs else None)
    for (ta, tb), strip in zip(strips, exprs):
        for bump, expr in zip(family, strip):
            defect = float(np.linalg.norm(expr[:model.n]))
            e = _eps_from_bound(defect, tb - ta, bump.w1inf)
            weak = max(weak, e)
            tests.append({"kind": "weak", "t": (ta, tb),
                          "bump": bump.describe(), "defect": defect, "eps": e})
            for s in expr[model.n:].tolist():
                e = _eps_from_bound(max(0.0, -s), tb - ta, bump.w1inf)
                ent = max(ent, e)
                tests.append({"kind": "entropy", "t": (ta, tb),
                              "bump": bump.describe(), "surplus": s, "eps": e})

    eps = max(x for x in (initial_excess, lip, weak, ent) if x is not None)
    return EpsCertificate(eps, initial_excess, lip, weak, ent,
                          dict(family.descriptor), tests)


# ---------------------------------------------------------------------------
# interval partition and the local error decomposition

def interval_partition(fn, eps):
    """Greedy left-to-right partition points so every open interval between
    consecutive points has total variation below eps."""
    jumps = fn.jumps()
    points = []
    acc = 0.0
    for x, j in zip(fn.xs, jumps):
        if acc + j >= eps:
            points.append(float(x))
            acc = 0.0
        else:
            acc += j
    return points


@dataclass
class ErrorDecomposition:
    tau: float
    eps: float
    partition: list
    h_ladder: list
    jump_terms: np.ndarray      # (n_h, n_points)  A-type, 1/h included
    interval_terms: np.ndarray  # (n_h, n_intervals)  B-type, 1/h included
    measured_rate: np.ndarray   # (n_h,) |sol(tau+h) - oracle_h|/h
    v_samples: list
    oracle_note: str

    def total(self):
        return self.jump_terms.sum(axis=1) + self.interval_terms.sum(axis=1)


def _jump_speed(model, um, up):
    """Least-squares speed du.(f(u+) - f(u-)) / |du|^2 of the jump from um
    to up; 0 when the states are equal."""
    du = up - um
    nn = float(du @ du)
    return float(du @ (model.f(up) - model.f(um)) / nn) if nn > 0 else 0.0


def _linear_evolution(model, pc, u_mid, h):
    """Constant-coefficient evolution of pc by characteristic translation of
    the eigencomponents of Df(u_mid)."""
    es = eigensystem(model, u_mid)
    cuts = np.unique(np.concatenate([pc.xs + lam * h for lam in es.lambdas]))
    mids = 0.5 * (np.concatenate([[cuts[0] - 1.0], cuts])
                  + np.concatenate([cuts, [cuts[-1] + 1.0]]))
    vals = np.zeros((mids.size, model.n))
    for i in range(model.n):
        shifted = pc(mids - es.lambdas[i] * h)
        vals += np.outer(shifted @ es.left[i], es.right[i])
    return PiecewiseConstantFn(cuts, vals)


def error_decomposition(view, model, oracle, tau, eps, h_ladder) -> ErrorDecomposition:
    """Split the instantaneous error at time tau into per-jump terms (vs the
    profile's jump at each partition point, moving at `_jump_speed`) and
    per-interval terms (vs the frozen-matrix linear evolution), for each h in
    the ladder.

    V(t) interval endpoints are snapped outward by one cell for grid views
    so the reported variation is an over-estimate."""
    view = as_view(view)
    snap = view.dx if isinstance(view, GridView) else 0.0
    u_tau = view.state(tau)
    points = interval_partition(u_tau, eps)
    x_lo, x_hi = view.x_span
    knots = [x_lo] + points + [x_hi]
    h_ladder = list(h_ladder)

    A = np.zeros((len(h_ladder), len(points)))
    B = np.zeros((len(h_ladder), len(knots) - 1))
    rates = np.zeros(len(h_ladder))

    v_samples = []
    for (a, b) in zip(knots[:-1], knots[1:]):
        row = []
        for frac in (0.0, 0.5, 1.0):
            t = tau + frac * max(h_ladder)
            lo = a + (t - tau) - snap
            hi = b - (t - tau) + snap
            row.append(view.state(t).tv(lo, hi) if hi > lo else 0.0)
        v_samples.append(row)

    for hi_idx, h in enumerate(h_ladder):
        sol_h = view.state(tau + h)
        ora_h = _evolve(oracle, u_tau, h)
        rates[hi_idx] = (sol_h.l1_distance(ora_h, x_lo, x_hi)) / h

        for kp, x in enumerate(points):
            k = np.searchsorted(u_tau.xs, x)
            um, up = u_tau.vals[k], u_tau.vals[k + 1]
            lam = _jump_speed(model, um, up)
            step = PiecewiseConstantFn(np.array([x + lam * h]), np.stack([um, up]))
            lo, hi = x - h, x + h
            A[hi_idx, kp] = (sol_h.l1_distance(step, lo, hi)
                             + ora_h.l1_distance(step, lo, hi)) / h

        for ki, (a, b) in enumerate(zip(knots[:-1], knots[1:])):
            lo, hi = a + h, b - h
            if ki == 0:
                lo = a
            if ki == len(knots) - 2:
                hi = b
            if hi <= lo:
                continue
            mid_state = u_tau(np.array([0.5 * (a + b)]))[0]
            W = _linear_evolution(model, u_tau, mid_state, h)
            B[hi_idx, ki] = (sol_h.l1_distance(W, lo, hi)
                             + ora_h.l1_distance(W, lo, hi)) / h

    return ErrorDecomposition(tau, eps, points, h_ladder, A, B, rates,
                              v_samples, oracle.note)


# ---------------------------------------------------------------------------
# oracles

def _evolve(oracle, pc, h):
    """oracle.evolve(pc, h), a HyperlabError raised as OracleUnavailable from
    it (an OracleUnavailable as is) and any other exception as is."""
    try:
        return oracle.evolve(pc, h)
    except OracleUnavailable:
        raise
    except HyperlabError as exc:
        raise OracleUnavailable(str(exc)) from exc


class FineGodunovOracle:
    """Reference evolution: godunov_run on the domain with eps = dx, which
    refuses a span that is not a whole number of its steps.  Scalar models
    with speeds in [0, 1] make this an L1-contraction, so semigroup error
    bounds computed against it are rigorous up to projection."""

    def __init__(self, model, dx, domain):
        self.model = model
        self.dx = dx
        self.domain = domain
        self.note = f"godunov dx={dx:g} on {domain}"

    def evolve(self, pc: PiecewiseConstantFn, h) -> PiecewiseConstantFn:
        if h == 0:
            return pc
        sol = godunov_run(self.model, pc, SchemeConfig(eps=self.dx, T=h, domain=self.domain))
        return sol.as_piecewise(sol.times[-1])


class FrontTrackingOracle:
    """Reference evolution: front_tracking_run of any piecewise-constant data;
    shocks and contacts are exact, rarefactions jumps of size at most delta."""

    def __init__(self, model, delta, domain):
        self.model = model
        self.delta = delta
        self.domain = domain
        self.note = f"front tracking delta={delta:g}"

    def evolve(self, pc: PiecewiseConstantFn, h) -> PiecewiseConstantFn:
        if h == 0:
            return pc
        cfg = SchemeConfig(eps=self.delta, T=h, domain=self.domain, delta=self.delta)
        return front_tracking_run(self.model, pc, cfg).state(h)


def _breakpoint_span(profiles):
    """The smallest and largest breakpoint of the profiles, widened by 1, or
    (-1, 1) if they have none."""
    xs = np.concatenate([pc.xs for pc in profiles])
    return (float(xs.min()) - 1.0, float(xs.max()) + 1.0) if xs.size else (-1.0, 1.0)


def semigroup_error_bound(path, oracle, L):
    """(bound, actual) with bound = L * sum_j |path(t_{j+1}) -
    oracle_{dt}(path(t_j))| and actual = |path(T) - oracle_T(path(0))|, T
    the path's last time, both on the oracle's domain."""
    if isinstance(path, GridSolution):
        items = [(float(t), path.as_piecewise(t)) for t in path.times]
    else:
        items = [(float(t), pc) for t, pc in path]
    x_lo, x_hi = oracle.domain
    bound = 0.0
    for (ta, pa), (tb, pb) in zip(items[:-1], items[1:]):
        bound += pb.l1_distance(_evolve(oracle, pa, tb - ta), x_lo, x_hi)
    bound *= L
    final = _evolve(oracle, items[0][1], items[-1][0] - items[0][0])
    actual = items[-1][1].l1_distance(final, x_lo, x_hi)
    return bound, actual


# ---------------------------------------------------------------------------
# strength decomposition of the pointwise jump between two profiles

def q_decomposition(model, u: PiecewiseConstantFn, v: PiecewiseConstantFn,
                    interval=None):
    """Per-family shock-strength components q_i(x) of the jump from u(x) to
    v(x) (shock branches on both sides), plus their integrated total.

    The families are classified once, on the segment between the corners
    lo and hi of the box of both profiles' states on the pieces solved, as
    front tracking classifies its data (`_field_classes`); a family that is
    neither GNL nor LD there raises NonClassifiedField.  Scalar models
    reduce to q_1 = v - u exactly, so the total equals the L1 distance."""
    if interval is None:
        interval = _breakpoint_span([u, v])
    cuts, mids, lengths = u.refinement(v, *interval)
    uu, vv = u(mids), v(mids)

    if model.n == 1:
        q = (vv - uu)
        total = float(np.sum(np.abs(q[:, 0]) * lengths))
        return cuts, q, total

    states = np.concatenate([uu, vv])
    fields = _field_classes(model, states.min(axis=0), states.max(axis=0))
    q = np.zeros((mids.size, model.n))
    for r in range(mids.size):
        if np.array_equal(uu[r], vv[r]):
            continue
        q[r] = solve_strengths(model, uu[r], vv[r], fields,
                               splits=[1] * model.n)[0]
    total = float(np.sum(np.abs(q) * lengths[:, None]))
    return cuts, q, total


# ---------------------------------------------------------------------------
# convergence-rate fits

@dataclass
class RateFit:
    model_id: str
    C: float
    p: Optional[float]
    r2: float
    points: list


def rate_fit(points, model_id="power") -> RateFit:
    """Least squares in log space: error = C * eps^p, or C * sqrt(eps)|ln eps|
    (shape fixed, only C fitted)."""
    pts = [(float(e), float(err)) for e, err in points]
    if len(pts) < 3:
        raise ConfigError("need at least 3 points")
    eps = np.array([p[0] for p in pts])
    err = np.array([p[1] for p in pts])
    if np.any(err <= 0) or np.any(eps <= 0):
        raise ConfigError("eps and errors must be positive")
    y = np.log(err)
    if model_id == "power":
        x = np.log(eps)
        if np.ptp(x) == 0:
            raise ConfigError("eps values must differ")
        A = np.stack([np.ones_like(x), x], axis=1)
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        yhat = A @ coef
        C, p = float(np.exp(coef[0])), float(coef[1])
    elif model_id == "sqrtlog":
        shape = np.log(np.sqrt(eps) * np.abs(np.log(eps)))
        c0 = float(np.mean(y - shape))
        yhat = c0 + shape
        C, p = float(np.exp(c0)), None
    else:
        raise ConfigError(f"unknown rate model {model_id!r}")
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return RateFit(model_id, C, p, r2, pts)
