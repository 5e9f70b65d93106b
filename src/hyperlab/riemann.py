"""Wave curves, exact Riemann solvers, and shock admissibility predicates.

Systems are solved by Broyden's method on composed Lax curves (shock branch
on the speed-decreasing side, rarefaction branch on the other, single branch
for linearly degenerate families), started from the exact Jacobian at zero
strengths.  That contact/shock/rarefaction decision is made in one place,
`_lax_step`, which builds one wave; `_compose` chains it over the families.
`solve_strengths` is the one strength solve, for the exact solver, the
q-decomposition of the verifier and front tracking; with `splits` every wave
is a jump and a rarefaction may be split into several.  It returns the waves
it composed at the strengths it found, so no caller composes them again.
Front tracking solves once with every family one jump, and a second time
only when a rarefaction is split.  An exact fan ends on u+ byte for byte,
unless every family is below STRENGTH_FLOOR: then it has no wave.
The two curve samplers, `shock_curve` and `rarefaction_curve`, both take a
signed s in the sign-fixed frame of l_i and r_i, into which `_lax_step`
alone turns an oriented strength, and return (s, states, speeds); the
rarefaction takes one eigensystem per RK4 stage.
Both `shock_curve` and `_lax_step` reach a shock point through one
continuation, `_continue_shock`.  Within one strength solve, each Broyden
evaluation continues every jump from the point the previous evaluation
found for the same jump (same family, same index in the family), and falls
back to a continuation from s = 0 where that fails; the first evaluation
and the integral-curve rarefactions start cold.  The RH Newton of one shock
point allocates its bordered system once, and takes a start as converged
only near roundoff, so a seeded point is as accurate as a cold one.

`solve_riemann` is the one exact solver; a scalar model goes to the convex or
concave envelope of f (`_envelope`, shared with scalar front tracking), which
also handles fluxes that are neither GNL nor LD.  A system fan is accepted
on its result, not on the size of the data: converged strengths, waves in
speed order, an end on u+, and rarefactions that their steps resolve.  A
`WaveFan` is its left state and its waves; Liu admissibility is
`liu_admissible`'s alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import (ContinuationFailure, HyperlabError, NewtonDivergence,
                     NonClassifiedField, NotGenuinelyNonlinear, NotOnShockCurve,
                     RHViolated)
from .models import (GENUINELY_NONLINEAR, LINEARLY_DEGENERATE, FluxModel,
                     classify_field, eigensystem)

TOL_RH = 1e-9
TOL_RP = 1e-12
TOL_ADM = 1e-9
TOL_ORDER = 1e-9
STRENGTH_FLOOR = 1e-12
N_ENVELOPE = 4096
N_LIU_CHECK = 257
RAREFACTION_STEPS = 48


def rh_residual(model: FluxModel, u_minus, u_plus, lam):
    """|lam*(u+ - u-) - (f(u+) - f(u-))|."""
    u_minus = model.state(u_minus)
    u_plus = model.state(u_plus)
    r = lam * (u_plus - u_minus) - (model.f(u_plus) - model.f(u_minus))
    return float(np.linalg.norm(r))


# ---------------------------------------------------------------------------
# shock curves

def _shock_point_newton(model, u_minus, l_i, s, state0, lam0):
    """Solve RH plus the projection closure for (S, lambda) at parameter s
    to |F| <= 1e-13 (1 + |f(u_minus)|) in at most 30 steps; after them
    1e-10 (1 + |f(u_minus)|) still passes.  |F| fixes the speed of a jump d
    only to |F| / |d|, so the start itself passes only at 1e-15 (1 + |f|),
    near roundoff: a seed close to the point gets one quadratic step.  The
    bordered matrix and the residual are allocated once, with the closure
    row l_i written once."""
    n = model.n
    f_minus = model.f(u_minus)
    S, lam = state0.copy(), float(lam0)
    scale = 1.0 + math.sqrt(f_minus @ f_minus)
    F = np.empty(n + 1)
    J = np.zeros((n + 1, n + 1))
    J[n, :n] = l_i
    diag = np.arange(n)
    for k in range(31):
        d = S - u_minus
        F[:n] = model.f(S) - f_minus - lam * d
        F[n] = l_i @ d - s
        norm = math.sqrt(F @ F)
        if norm <= (1e-15 if k == 0 else 1e-13 if k < 30 else 1e-10) * scale:
            return S, lam
        if k == 30:
            raise ContinuationFailure(f"RH Newton stalled at s={s:.3g} (|F|={norm:.2e})")
        J[:n, :n] = model.jac(S)
        J[diag, diag] -= lam
        J[:n, n] = -d
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError as exc:
            raise ContinuationFailure(f"singular RH system at s={s:.3g}") from exc
        S, lam = S + step[:n], lam + step[n]
        if not (np.all(np.isfinite(S)) and np.isfinite(lam)):
            raise ContinuationFailure(f"RH Newton diverged at s={s:.3g}")


def _continue_shock(model, u_minus, l_i, r_i, a, S, lam, b):
    """The shock point at parameter b, continued from (S, lam) at a: Newton
    from the linear guess S + (b - a) r_i, and halved steps (12 in all at
    most) where Newton fails or lands outside the domain box, so every point
    reached lies in it.  (S, lam) is u_minus and lambda_i(u_minus) at a = 0,
    the previous sample of `shock_curve`, or a seed of an earlier strength
    evaluation, which `_lax_step` redoes from s = 0 when this raises
    ContinuationFailure."""
    pending = [(a, b)]
    halvings = 0
    while pending:
        a, b = pending.pop()
        try:
            S_new, lam_new = _shock_point_newton(model, u_minus, l_i, b,
                                                 S + (b - a) * r_i, lam)
            if not model.contains(S_new):
                raise ContinuationFailure(
                    f"shock curve left the domain box at s={b:.3g}")
        except ContinuationFailure:
            halvings += 1
            if halvings > 12:
                raise
            mid = 0.5 * (a + b)
            pending.extend([(mid, b), (a, mid)])
            continue
        S, lam = S_new, lam_new
    return S, lam


def shock_curve(model: FluxModel, u_minus, i, s_max, n_samples=33):
    """Continuation of the i-shock curve from s = 0 to s = s_max: samples
    (s, S_i(s), lambda_i(s)).  The parameter is the projection
    l_i(u_minus) . (S - u_minus), so the curve is tangent to r_i(u_minus)
    at s = 0."""
    u_minus = model.state(u_minus)
    model.require_in_domain(u_minus)
    if n_samples < 2:
        raise ValueError("need at least two samples")
    s_grid = np.linspace(0.0, float(s_max), n_samples)

    if model.n == 1:  # the secant speeds, with f'(u-) at s = 0
        states = u_minus[None, :] + s_grid[:, None]
        speeds = np.full(n_samples, model.jac(u_minus)[0, 0])
        if s_max != 0.0:
            speeds[1:] = (model.f(states[1:])[:, 0] - model.f(u_minus)[0]) / s_grid[1:]
        return s_grid, states, speeds

    es = eigensystem(model, u_minus)
    l_i, r_i = es.left[i], es.right[i]
    states = np.empty((n_samples, model.n))
    speeds = np.empty(n_samples)
    states[0], speeds[0] = u_minus, es.lambdas[i]
    for j in range(1, n_samples):
        states[j], speeds[j] = _continue_shock(model, u_minus, l_i, r_i,
                                               s_grid[j - 1], states[j - 1],
                                               speeds[j - 1], s_grid[j])
    return s_grid, states, speeds


def rarefaction_curve(model: FluxModel, u_minus, i, s, n_steps=RAREFACTION_STEPS):
    """Integrate du/ds = r_i(u) (sign-fixed) from u_minus over a signed s.
    Returns (s_grid, states, speeds).  lambda_i must rise strictly along the
    curve, and by no step more than 8 times the mean step: else the steps do
    not resolve the curve (ContinuationFailure).  One eigensystem per sampled
    state checks that it lies in the domain and gives its speed and the
    first RK4 stage of the step from it."""
    u_minus = model.state(u_minus)
    es = eigensystem(model, u_minus)
    s_grid = np.linspace(0.0, float(s), n_steps + 1)
    states = np.empty((n_steps + 1, model.n))
    speeds = np.empty(n_steps + 1)
    states[0], speeds[0] = u_minus, es.lambdas[i]
    if s == 0.0:
        return s_grid[:1], states[:1], speeds[:1]
    h = s / n_steps

    def rhs(u):
        return eigensystem(model, u).right[i]

    u = u_minus
    for j in range(1, n_steps + 1):
        k1 = es.right[i]
        k2 = rhs(u + 0.5 * h * k1)
        k3 = rhs(u + 0.5 * h * k2)
        k4 = rhs(u + h * k3)
        u = u + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        es = eigensystem(model, u)
        states[j], speeds[j] = u, es.lambdas[i]
    steps = np.diff(speeds)
    if np.any(steps <= 0):
        raise NotGenuinelyNonlinear(
            f"lambda_{i} not strictly increasing along rarefaction from {u_minus}")
    if steps.max() > 8.0 * steps.mean():
        raise ContinuationFailure(
            f"{n_steps} steps do not resolve the {i}-rarefaction from {u_minus}")
    return s_grid, states, speeds


# ---------------------------------------------------------------------------
# waves and fans

@dataclass(frozen=True)
class JumpWave:
    """A single jump at `speed`: a shock or a contact of a Riemann fan, or a
    piece of an approximate fan of front tracking (a shock, a contact, one
    rarefaction front, or a non-physical front of family None)."""

    kind: str
    family: Optional[int]
    u_l: np.ndarray
    u_r: np.ndarray
    speed: float

    @property
    def speed_l(self):
        return self.speed

    @property
    def speed_r(self):
        return self.speed


@dataclass(frozen=True)
class RarefactionWave:
    family: int
    u_l: np.ndarray
    u_r: np.ndarray
    speed_l: float
    speed_r: float
    states: np.ndarray   # sampled profile, shape (k, n)
    speeds: np.ndarray   # lambda along the profile, nondecreasing, shape (k,)
    kind: str = "rarefaction"


@dataclass(frozen=True)
class WaveFan:
    """Self-similar Riemann solution: value depends on x/t only.  Each wave
    starts where the one before ends; with no wave the fan ends on `left`."""

    left: np.ndarray
    waves: tuple

    @property
    def right(self):
        return self.waves[-1].u_r if self.waves else self.left


def evaluate_fan(fan: WaveFan, xi):
    """Value of the self-similar solution at ratio xi = x/t: the state left
    of the first wave with speed_l > xi, or the profile of a rarefaction
    with speed_l <= xi <= speed_r (a jump has speed_l = speed_r)."""
    state = fan.left
    for w in fan.waves:
        if xi < w.speed_l:
            return state
        if w.kind == "rarefaction" and xi <= w.speed_r:
            return np.array([np.interp(xi, w.speeds, w.states[:, c])
                             for c in range(w.states.shape[1])])
        state = w.u_r
    return state


def _check_wave_order(waves):
    prev = -np.inf
    for w in waves:
        if w.speed_l < prev - TOL_ORDER:
            raise NewtonDivergence(
                f"wave speeds out of order ({w.speed_l:.6g} after {prev:.6g})")
        prev = max(prev, w.speed_r)


# ---------------------------------------------------------------------------
# systems: Lax curves

def _field_classes(model, u_minus, u_plus):
    """Class of every family, in family order, over the segment from u_minus
    to u_plus (its ends, midpoint and quarter points); a family that is
    neither GNL nor LD there raises NonClassifiedField."""
    mid = 0.5 * (u_minus + u_plus)
    samples = [u_minus, u_plus, mid,
               0.75 * u_minus + 0.25 * u_plus, 0.25 * u_minus + 0.75 * u_plus]
    fields = classify_field(model, samples)
    for i, fc in enumerate(fields):
        if fc.tag not in (GENUINELY_NONLINEAR, LINEARLY_DEGENERATE):
            raise NonClassifiedField(
                f"family {i} is neither GNL nor LD near the data")
    return fields


def _lax_step(model, u_l, i, sigma, field, jumps, es, seed):
    """The family-i wave from u_l at oriented strength sigma.

    This is the one place where the branch of the Lax curve is chosen: a
    contact for a linearly degenerate family, a shock for sigma < 0, and a
    rarefaction otherwise.  The rarefaction is the integral curve, or, with
    `jumps`, the single RH-exact jump at the same shock-curve parameter
    (a rarefaction front of front tracking).  Either curve takes
    s = orientation * sigma along the sign-fixed l_i and r_i: the one use of
    the orientation.  `es` is the eigensystem at u_l
    when the caller has it, else None.  A jump is continued from `seed`, the
    same jump (u_l', sigma', S', lambda') of an earlier composition, at
    sigma' from S' + (u_l - u_l'); without a seed, or where that continuation
    fails, it is continued from s = 0.
    """
    s = field.orientation * sigma
    if field.tag == LINEARLY_DEGENERATE:
        kind = "contact"
    elif sigma < 0:
        kind = "shock"
    elif jumps:
        kind = "rarefaction"
    else:
        _, states, speeds = rarefaction_curve(model, u_l, i, s)
        return RarefactionWave(i, u_l, states[-1], float(speeds[0]),
                               float(speeds[-1]), states, speeds)
    if es is None:
        es = eigensystem(model, u_l)
    l_i, r_i = es.left[i], es.right[i]
    if seed is not None:
        u_prev, a, S, lam = seed
        try:
            S, lam = _continue_shock(model, u_l, l_i, r_i, field.orientation * a,
                                     S + (u_l - u_prev), lam, s)
            return JumpWave(kind, i, u_l, S, float(lam))
        except ContinuationFailure:
            pass  # continued from s = 0, as without a seed
    S, lam = _continue_shock(model, u_l, l_i, r_i, 0.0, u_l, es.lambdas[i], s)
    return JumpWave(kind, i, u_l, S, float(lam))


def _compose(model, u_minus, sigmas, fields, splits=None, seeds=None, es_minus=None):
    """End state and waves of the composed Lax curves at strengths sigmas.

    Families weaker than STRENGTH_FLOOR make no wave.  With `splits` every
    wave is a jump, and the rarefaction side of family i is split into
    splits[i] jumps of equal strength.  The strength solve passes `seeds`, a
    dict it keeps across its evaluations: the j-th jump of family i is
    continued from seeds[i, j], where the previous composition left it, and
    the dict then holds this composition's jumps.  It also passes
    `es_minus`, its eigensystem at u_minus, for the first wave.
    """
    jumps = splits is not None
    state = u_minus
    waves = []
    reached = {}
    for i in range(model.n):
        sig = sigmas[i]
        if abs(sig) < STRENGTH_FLOOR:
            continue
        k = splits[i] if jumps and sig > 0 else 1
        for j in range(k):
            w = _lax_step(model, state, i, sig / k, fields[i], jumps,
                          None if waves else es_minus,
                          seeds.get((i, j)) if seeds else None)
            if isinstance(w, JumpWave):
                reached[i, j] = (state, sig / k, w.u_r, w.speed)
            waves.append(w)
            state = w.u_r
    if seeds is not None:
        seeds.clear()
        seeds.update(reached)
    return state, waves


def _damped_newton(G, x, J, tol, accept, maxiter, error, what):
    """Solve G(x) = 0 by Broyden's method (1965) from the Jacobian J at x,
    with a halving line search on |G|; each accepted step dx, dg updates
    J <- J + (dg - J dx) dx^T / (dx^T dx), so G is never differenced.

    G(x) returns the residual and a value computed with it; the solve returns
    x and that value at x, so G need not be evaluated there again.
    Converged when |G| <= tol; |G| <= accept still passes after maxiter
    steps or a stalled line search, and otherwise they raise `error`, as a
    singular Jacobian does.  A trial point where G raises a HyperlabError or
    LinAlgError is halved like one that does not reduce |G|."""
    g, at_x = G(x)
    gn = math.sqrt(g @ g)
    for _ in range(maxiter):
        if gn <= tol:
            return x, at_x
        try:
            step = np.linalg.solve(J, -g)
        except np.linalg.LinAlgError as exc:
            raise error(f"singular {what} Jacobian") from exc
        for t in [0.5 ** k for k in range(10)]:
            trial = x + t * step
            try:
                g_trial, at_trial = G(trial)
            except (HyperlabError, np.linalg.LinAlgError):
                continue
            gn_trial = math.sqrt(g_trial @ g_trial)
            if gn_trial < gn:
                J = J + np.outer(g_trial - g - t * (J @ step), step) / (t * (step @ step))
                x, g, gn, at_x = trial, g_trial, gn_trial, at_trial
                break
        else:
            # families below STRENGTH_FLOOR make no wave, so G can stall
            # at a residual of that size
            if gn <= accept:
                return x, at_x
            raise error(f"{what} line search stalled (|G|={gn:.2e})")
    if gn <= accept:
        return x, at_x
    raise error(f"{what} Newton did not converge (|G|={gn:.2e})")


def solve_strengths(model, u_minus, u_plus, fields, splits=None):
    """Strengths, end state and waves of the composed Lax curves (`_compose`
    for `splits`) to |G| <= TOL_RP, or 10 TOL_RP after 40 iterations, else
    NewtonDivergence.  Broyden starts from the linear guess and dG/dsigma at
    sigma = 0, whose column i is orientation_i r_i(u-).  Each evaluation
    continues its jumps from the previous one's (the `seeds` of `_compose`),
    so its shock points match cold ones to roundoff, not bit for bit."""
    es = eigensystem(model, u_minus)
    orient = np.array([fc.orientation for fc in fields])
    sigmas = orient * (es.left @ (u_plus - u_minus))
    seeds = {}

    def G(s):
        state, waves = _compose(model, u_minus, s, fields, splits, seeds, es)
        return state - u_plus, (state, waves)

    sigmas, (state, waves) = _damped_newton(G, sigmas, es.right.T * orient, TOL_RP,
                                            10 * TOL_RP, 40, NewtonDivergence, "strength")
    return sigmas, state, waves


def solve_riemann(model: FluxModel, u_minus, u_plus) -> WaveFan:
    """Exact Riemann solution: the envelope fan of f for a scalar model,
    composed Lax curves (GNL or LD fields) for a system.  A jump whose every
    family is below STRENGTH_FLOOR makes no wave, as in front tracking, so
    its fan ends where its waves do, on u-; any other fan ends on u+."""
    u_minus = model.state(u_minus)
    u_plus = model.state(u_plus)
    model.require_in_domain(u_minus)
    model.require_in_domain(u_plus)
    if np.array_equal(u_minus, u_plus):
        return WaveFan(u_minus, ())
    if model.n == 1:
        return _scalar_fan(model, u_minus, u_plus)

    fields = _field_classes(model, u_minus, u_plus)
    _, _, waves = solve_strengths(model, u_minus, u_plus, fields)
    _check_wave_order(waves)
    if waves:  # the composed end state is within TOL_RP of u_plus: end on it
        if waves[-1].kind == "rarefaction":
            waves[-1].states[-1] = u_plus
        waves[-1] = replace(waves[-1], u_r=u_plus)
    return WaveFan(u_minus, tuple(waves))


# ---------------------------------------------------------------------------
# scalar: convex envelopes

def _lower_hull_indices(x, y):
    """Indices of the lower convex hull of the graph (x sorted ascending)."""
    hull = []
    for i in range(x.size):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            cross = (x[i1] - x[i0]) * (y[i] - y[i0]) - (y[i1] - y[i0]) * (x[i] - x[i0])
            if cross <= 0:  # middle point lies on or above the chord: drop it
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def _envelope(model, nodes, ascending):
    """f at the ascending nodes, and the vertices of its convex envelope
    (`ascending`: u_l < u_r) or concave envelope, in order from u_l."""
    fs = model.f(nodes[:, None])[:, 0]
    sign = 1 if ascending else -1  # the concave envelope is traversed downwards
    return fs, _lower_hull_indices(nodes, sign * fs)[::sign]


def _scalar_fan(model, u_minus, u_plus):
    """The envelope fan of f between the distinct states u_minus, u_plus."""
    ul, ur = float(u_minus[0]), float(u_plus[0])
    grid = np.linspace(min(ul, ur), max(ul, ur), N_ENVELOPE)
    grid[0] = min(ul, ur)  # linspace's first node 0 * step + lo turns -0.0 into +0.0
    fs, order = _envelope(model, grid, ul < ur)

    # walk consecutive hull vertices; single-gridstep segments form
    # rarefaction runs, longer chords are entropy shocks.  All speeds come
    # from hull-chord slopes, which are nondecreasing along the traversal,
    # so the wave ordering is exact by construction.
    def secant(p, q):
        return (fs[q] - fs[p]) / (grid[q] - grid[p])

    waves = []
    run = [order[0]]

    def flush_run(run):
        if len(run) < 2:
            return
        # the speed at a node is the secant over its neighbours in the run
        j = np.arange(len(run))
        run = np.array(run)
        speeds = np.maximum.accumulate(secant(run[np.maximum(j - 1, 0)],
                                              run[np.minimum(j + 1, j[-1])]))
        prof = grid[run]
        waves.append(RarefactionWave(0, np.array([prof[0]]), np.array([prof[-1]]),
                                     float(speeds[0]), float(speeds[-1]),
                                     prof[:, None], speeds))

    for p, q in zip(order[:-1], order[1:]):
        if abs(q - p) == 1:
            run.append(q)
            continue
        flush_run(run)
        waves.append(JumpWave("shock", 0, np.array([grid[p]]), np.array([grid[q]]),
                              float(secant(p, q))))
        run = [q]
    flush_run(run)
    return WaveFan(u_minus, tuple(waves))


# ---------------------------------------------------------------------------
# admissibility

@dataclass(frozen=True)
class AdmissibilityVerdict:
    admissible: bool
    margin: float
    sigma: Optional[float] = None


def liu_admissible(model: FluxModel, u_minus, u_plus, i) -> AdmissibilityVerdict:
    """Liu condition: lambda_i(s) >= lambda_i(sigma) for s between 0 and sigma.

    The margin min lambda_i(s) - lambda_i(sigma) is judged against the
    resolution of the speeds: the RH Newton fixes a speed only to
    1e-13 (1 + |f(u-)|) / |u+ - u-|, so a jump whose margin is below zero
    by less than that resolution (or TOL_ADM, if larger) is judged
    admissible."""
    u_minus = model.state(u_minus)
    u_plus = model.state(u_plus)
    es = eigensystem(model, u_minus)
    sigma = float(es.left[i] @ (u_plus - u_minus))
    d = float(np.linalg.norm(u_plus - u_minus))
    if abs(sigma) < STRENGTH_FLOOR and d < 1e-10:
        return AdmissibilityVerdict(True, 0.0, 0.0)
    _, states, speeds = shock_curve(model, u_minus, i, sigma, N_LIU_CHECK)
    if np.linalg.norm(states[-1] - u_plus) > max(1e-8, 1e-6 * d):
        raise NotOnShockCurve(
            f"u+ is {np.linalg.norm(states[-1] - u_plus):.3g} away from the "
            f"family-{i} shock curve through u-")
    margin = float(np.min(speeds) - speeds[-1])
    tol = max(TOL_ADM, 1e-13 * (1.0 + float(np.linalg.norm(model.f(u_minus)))) / d)
    return AdmissibilityVerdict(margin >= -tol, margin, sigma)


def entropy_admissible_shock(model: FluxModel, u_minus, u_plus, lam) -> AdmissibilityVerdict:
    """Entropy dissipation across an exact shock:
    margin = lam*[eta] - [q] >= 0 for admissibility."""
    model.require_entropy_pair()
    u_minus = model.state(u_minus)
    u_plus = model.state(u_plus)
    res = rh_residual(model, u_minus, u_plus, lam)
    if res > TOL_RH:
        raise RHViolated(f"triple violates the jump conditions (residual {res:.3g})")
    margin = float(lam * (model.entropy(u_plus) - model.entropy(u_minus))
                   - (model.entropy_flux(u_plus) - model.entropy_flux(u_minus)))
    return AdmissibilityVerdict(margin >= -TOL_ADM, margin)
