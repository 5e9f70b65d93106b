"""Wave curves, exact Riemann solvers, and shock admissibility predicates.

Systems are solved by damped Newton on composed Lax curves (shock branch on
the speed-decreasing side, rarefaction branch on the other, single branch for
linearly degenerate families).  That contact/shock/rarefaction decision is
made in one place, `_lax_step`, which builds one wave; `_compose` chains it
over the families for the exact solver, for the strength Newton, and (with
rarefactions split into jumps) for front tracking.

Scalar problems go through convex/concave envelopes, which also handles
fluxes that are neither genuinely nonlinear nor linearly degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import (ContinuationFailure, HyperlabError, NewtonDivergence,
                     NonClassifiedField, NotGenuinelyNonlinear, NotOnShockCurve,
                     RHViolated)
from .models import (GENUINELY_NONLINEAR, LINEARLY_DEGENERATE, FluxModel,
                     _central_diff, classify_field, eigensystem, gnl_indicator)

TOL_RH = 1e-9
TOL_RP = 1e-10
TOL_ADM = 1e-9
TOL_ORDER = 1e-9
TOL_CURVE = 1e-3
STRENGTH_FLOOR = 1e-12
N_ENVELOPE = 4096
RAREFACTION_STEPS = 48


def rh_residual(model: FluxModel, u_minus, u_plus, lam):
    """|lam*(u+ - u-) - (f(u+) - f(u-))|."""
    u_minus = model.state(u_minus)
    u_plus = model.state(u_plus)
    r = lam * (u_plus - u_minus) - (model.f(u_plus) - model.f(u_minus))
    return float(np.linalg.norm(r))


# ---------------------------------------------------------------------------
# shock curves

@dataclass(frozen=True)
class ShockCurve:
    """Samples (s, S_i(s), lambda_i(s)) of the i-shock curve through u_minus.

    The parameter is the projection l_i(u_minus) . (S - u_minus), so the
    curve is tangent to r_i(u_minus) at s = 0.
    """

    family: int
    u_minus: np.ndarray
    s: np.ndarray
    states: np.ndarray
    speeds: np.ndarray


def _shock_point_newton(model, u_minus, l_i, s, state0, lam0, tol=1e-13, maxiter=30):
    """Solve RH plus the projection closure for (S, lambda) at parameter s."""
    n = model.n
    f_minus = model.f(u_minus)
    S, lam = state0.copy(), float(lam0)
    scale = 1.0 + float(np.linalg.norm(model.f(u_minus)))
    for _ in range(maxiter):
        F = np.empty(n + 1)
        F[:n] = model.f(S) - f_minus - lam * (S - u_minus)
        F[n] = l_i @ (S - u_minus) - s
        if np.linalg.norm(F) <= tol * scale:
            return S, lam
        J = np.zeros((n + 1, n + 1))
        J[:n, :n] = model.jac(S) - lam * np.eye(n)
        J[:n, n] = -(S - u_minus)
        J[n, :n] = l_i
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError as exc:
            raise ContinuationFailure(f"singular RH system at s={s:.3g}") from exc
        S = S + step[:n]
        lam = lam + step[n]
        if not (np.all(np.isfinite(S)) and np.isfinite(lam)):
            raise ContinuationFailure(f"RH Newton diverged at s={s:.3g}")
    F = np.empty(n + 1)
    F[:n] = model.f(S) - f_minus - lam * (S - u_minus)
    F[n] = l_i @ (S - u_minus) - s
    if np.linalg.norm(F) <= 1e-10 * scale:
        return S, lam
    raise ContinuationFailure(f"RH Newton stalled at s={s:.3g} (|F|={np.linalg.norm(F):.2e})")


def shock_curve(model: FluxModel, u_minus, i, s_max, n_samples=33) -> ShockCurve:
    """Continuation of the i-shock curve from s = 0 to s = s_max."""
    u_minus = model.state(u_minus)
    model.require_in_domain(u_minus)
    if n_samples < 2:
        raise ValueError("need at least two samples")
    s_grid = np.linspace(0.0, float(s_max), n_samples)

    if model.n == 1:
        states = u_minus[None, :] + s_grid[:, None]
        speeds = np.empty(n_samples)
        f_minus = model.f(u_minus)[0]
        fprime = model.jac(u_minus)[0, 0]
        for j, s in enumerate(s_grid):
            speeds[j] = fprime if s == 0.0 else (model.f(u_minus + s)[0] - f_minus) / s
        return ShockCurve(i, u_minus, s_grid, states, speeds)

    es = eigensystem(model, u_minus)
    l_i, r_i = es.left[i], es.right[i]
    states = np.empty((n_samples, model.n))
    speeds = np.empty(n_samples)
    states[0], speeds[0] = u_minus, es.lambdas[i]
    S, lam = u_minus.copy(), float(es.lambdas[i])
    for j in range(1, n_samples):
        s_prev, s = s_grid[j - 1], s_grid[j]
        # adaptive sub-stepping in case a full step is too aggressive
        pending = [(s_prev, s)]
        depth = 0
        while pending:
            a, b = pending.pop()
            guess_S = S + (b - a) * r_i
            try:
                S_new, lam_new = _shock_point_newton(model, u_minus, l_i, b, guess_S, lam)
            except ContinuationFailure:
                depth += 1
                if depth > 12:
                    raise
                mid = 0.5 * (a + b)
                pending.extend([(mid, b), (a, mid)])
                continue
            if not model.contains(S_new):
                raise ContinuationFailure(
                    f"shock curve left the domain box at s={b:.3g}")
            S, lam = S_new, lam_new
        states[j], speeds[j] = S, lam
    return ShockCurve(i, u_minus, s_grid, states, speeds)


def rarefaction_curve(model: FluxModel, u_minus, i, s, n_steps=RAREFACTION_STEPS):
    """Integrate du/ds = r_i(u) from u_minus in the direction of increasing
    lambda_i, over arc parameter s >= 0.  Returns (s_grid, states, speeds)."""
    u_minus = model.state(u_minus)
    model.require_in_domain(u_minus)
    if s < 0:
        raise ValueError("rarefaction extent must be nonnegative")
    lam0 = eigensystem(model, u_minus).lambdas[i]
    g = gnl_indicator(model, i, u_minus)
    if abs(g) <= 1e-12 and s > 0:
        raise NotGenuinelyNonlinear(
            f"family {i} not genuinely nonlinear at u={u_minus}")
    orient = -1 if g < 0 else 1  # orient * r_i points to increasing lambda_i
    s_grid = np.linspace(0.0, float(s), n_steps + 1)
    states = np.empty((n_steps + 1, model.n))
    speeds = np.empty(n_steps + 1)
    states[0], speeds[0] = u_minus, lam0
    if s == 0.0:
        return s_grid[:1], states[:1], speeds[:1]
    h = s / n_steps

    def rhs(u):
        return orient * eigensystem(model, u).right[i]

    u = u_minus.copy()
    for j in range(1, n_steps + 1):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * h * k1)
        k3 = rhs(u + 0.5 * h * k2)
        k4 = rhs(u + h * k3)
        u = u + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        model.require_in_domain(u)
        states[j] = u
        speeds[j] = eigensystem(model, u).lambdas[i]
    if np.any(np.diff(speeds) <= 0):
        raise NotGenuinelyNonlinear(
            f"lambda_{i} not strictly increasing along rarefaction from {u_minus}")
    return s_grid, states, speeds


# ---------------------------------------------------------------------------
# waves and fans

@dataclass(frozen=True)
class JumpWave:
    """A single jump solving the jump conditions at `speed`: a shock, a
    contact, or one rarefaction front of a front-tracking chain."""

    kind: str
    family: int
    u_l: np.ndarray
    u_r: np.ndarray
    speed: float
    liu_margin: Optional[float] = None

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
    """Self-similar Riemann solution: value depends on x/t only."""

    left: np.ndarray
    right: np.ndarray
    states: tuple
    waves: tuple

    def to_dict(self):
        out = {"left": self.left.tolist(), "right": self.right.tolist(), "waves": []}
        for w in self.waves:
            d = {"kind": w.kind, "family": w.family,
                 "u_l": w.u_l.tolist(), "u_r": w.u_r.tolist()}
            if w.kind == "rarefaction":
                d["speed_l"], d["speed_r"] = w.speed_l, w.speed_r
            else:
                d["speed"] = w.speed
                if w.liu_margin is not None:
                    d["liu_margin"] = w.liu_margin
            out["waves"].append(d)
        return out


def evaluate_fan(fan: WaveFan, xi):
    """Value of the self-similar solution at ratio xi = x/t."""
    state = fan.left
    for w in fan.waves:
        if w.kind == "rarefaction":
            if xi < w.speed_l:
                return state
            if xi <= w.speed_r:
                out = np.array([np.interp(xi, w.speeds, w.states[:, c])
                                for c in range(w.states.shape[1])])
                return out
        else:
            if xi < w.speed:
                return state
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
    mid = 0.5 * (u_minus + u_plus)
    samples = [u_minus, u_plus, mid,
               0.75 * u_minus + 0.25 * u_plus, 0.25 * u_minus + 0.75 * u_plus]
    return [classify_field(model, i, samples) for i in range(model.n)]


def default_small_data_radius(model, u_minus, u_plus):
    """0.25 * (min eigenvalue gap) / (max |D^2 f| estimate) over the segment."""
    if model.n == 1:
        return np.inf
    samples = [u_minus, 0.5 * (u_minus + u_plus), u_plus]
    gap = np.inf
    d2 = 0.0
    for u in samples:
        lam = eigensystem(model, u).lambdas
        gap = min(gap, float(np.min(np.diff(lam))))
        D2 = _central_diff(model.jac, u, 1e-5)
        for j in range(model.n):
            d2 = max(d2, float(np.linalg.norm(D2[..., j])))
    if d2 == 0.0:
        return np.inf
    return 0.25 * gap / d2


def _lax_step(model, u_l, i, sigma, field, jumps, tol):
    """The family-i wave from u_l at oriented strength sigma.

    This is the one place where the branch of the Lax curve is chosen: a
    contact for a linearly degenerate family, a shock for sigma < 0, and a
    rarefaction otherwise.  The rarefaction is the integral curve, or, with
    `jumps`, the single RH-exact jump at the same shock-curve parameter
    (a rarefaction front of front tracking).
    """
    if field.tag == LINEARLY_DEGENERATE:
        kind = "contact"
    elif sigma < 0:
        kind = "shock"
    elif jumps:
        kind = "rarefaction"
    else:
        _, states, speeds = rarefaction_curve(model, u_l, i, sigma)
        speeds = np.maximum.accumulate(speeds)
        return RarefactionWave(i, u_l, states[-1], float(speeds[0]),
                               float(speeds[-1]), states, speeds)
    # the shock-curve parameter is measured along the oriented frame; the
    # orientation of a linearly degenerate field is +1
    orient = field.orientation
    es = eigensystem(model, u_l)
    S, lam = _shock_point_newton(model, u_l, orient * es.left[i], sigma,
                                 u_l + sigma * orient * es.right[i],
                                 es.lambdas[i], tol=tol)
    return JumpWave(kind, i, u_l, S, float(lam))


def _compose(model, u_minus, sigmas, fields, splits=None, tol=1e-13,
             floor=STRENGTH_FLOOR):
    """End state and waves of the composed Lax curves at strengths sigmas.

    Families weaker than `floor` make no wave.  With `splits` every wave is
    a jump, and the rarefaction side of family i is split into splits[i]
    jumps of equal strength.
    """
    jumps = splits is not None
    state = u_minus
    waves = []
    for i in range(model.n):
        sig = sigmas[i]
        if abs(sig) < floor:
            continue
        k = splits[i] if jumps and sig > 0 else 1
        for _ in range(k):
            w = _lax_step(model, state, i, sig / k, fields[i], jumps, tol)
            waves.append(w)
            state = w.u_r
    return state, waves


def _damped_newton(G, x, tol, accept, maxiter, error, what):
    """Solve G(x) = 0 by Newton with a central-difference Jacobian and a
    halving line search on |G|.

    Converged when |G| <= tol; after maxiter steps |G| <= accept still
    passes.  A trial point where G raises a HyperlabError or LinAlgError is
    halved like one that does not reduce |G|.  A singular Jacobian, a stalled
    line search or no convergence raises `error`.
    """
    g = G(x)
    for _ in range(maxiter):
        if np.linalg.norm(g) <= tol:
            return x
        J = _central_diff(G, x, 1e-7)
        try:
            step = np.linalg.solve(J, -g)
        except np.linalg.LinAlgError as exc:
            raise error(f"singular {what} Jacobian") from exc
        t = 1.0
        for _ in range(10):
            trial = x + t * step
            try:
                g_trial = G(trial)
            except (HyperlabError, np.linalg.LinAlgError):
                t *= 0.5
                continue
            if np.linalg.norm(g_trial) < np.linalg.norm(g):
                x, g = trial, g_trial
                break
            t *= 0.5
        else:
            raise error(f"{what} line search stalled (|G|={np.linalg.norm(g):.2e})")
    if np.linalg.norm(g) <= accept:
        return x
    raise error(f"{what} Newton did not converge (|G|={np.linalg.norm(g):.2e})")


def solve_strengths(model, u_minus, u_plus, fields, tol=TOL_RP, maxiter=40,
                    rarefaction_as_shocks=False):
    """Damped Newton for the wave strengths of the composed Lax curves."""
    es = eigensystem(model, u_minus)
    sigmas = np.array([fields[i].orientation * float(es.left[i] @ (u_plus - u_minus))
                       for i in range(model.n)])
    splits = [1] * model.n if rarefaction_as_shocks else None

    def G(s):
        return _compose(model, u_minus, s, fields, splits)[0] - u_plus

    return _damped_newton(G, sigmas, tol, 10 * tol, maxiter, NewtonDivergence,
                          "strength")


def _secant_speeds(model, u_l, sigma, n_check):
    """Speeds along a scalar shock curve: (f(u_l + s) - f(u_l)) / s for s in
    linspace(0, sigma, n_check), with f'(u_l) at s = 0."""
    s_grid = np.linspace(0.0, sigma, n_check)
    lams = np.empty(n_check)
    lams[0] = model.jac(u_l)[0, 0]
    lams[1:] = (model.f(u_l[None, :] + s_grid[1:, None])[:, 0]
                - model.f(u_l)[0]) / s_grid[1:]
    return lams


def _shock_liu_margin(model, u_l, i, sigma, orient, lam_end, n_check=33):
    """min over the connecting curve of lambda_i(s) - lambda_i(sigma)."""
    if model.n == 1:
        return float(np.min(_secant_speeds(model, u_l, sigma, n_check)) - lam_end)
    # parameter of the sign-fixed closure corresponding to oriented sigma
    curve = shock_curve(model, u_l, i, orient * sigma, n_check)
    return float(np.min(curve.speeds) - lam_end)


def solve_riemann(model: FluxModel, u_minus, u_plus) -> WaveFan:
    """Exact Riemann solution by composed Lax curves (GNL or LD fields)."""
    u_minus = model.state(u_minus)
    u_plus = model.state(u_plus)
    model.require_in_domain(u_minus)
    model.require_in_domain(u_plus)

    if np.array_equal(u_minus, u_plus):
        return WaveFan(u_minus, u_plus, (u_minus,), ())

    fields = _field_classes(model, u_minus, u_plus)
    for fc in fields:
        if fc.tag not in (GENUINELY_NONLINEAR, LINEARLY_DEGENERATE):
            raise NonClassifiedField(
                f"family {fc.family} is neither GNL nor LD near the data")

    radius = default_small_data_radius(model, u_minus, u_plus)
    if np.linalg.norm(u_plus - u_minus) > radius:
        raise NewtonDivergence(
            f"Riemann data |u+ - u-| = {np.linalg.norm(u_plus - u_minus):.3g} "
            f"exceeds the small-data radius {radius:.3g}")

    sigmas = solve_strengths(model, u_minus, u_plus, fields)
    state, waves = _compose(model, u_minus, sigmas, fields)
    for k, w in enumerate(waves):
        if w.kind == "shock":
            i = w.family
            sig, orient = ((sigmas[i], fields[i].orientation) if model.n > 1
                           else (float(w.u_r[0] - w.u_l[0]), 1))
            waves[k] = replace(w, liu_margin=_shock_liu_margin(
                model, w.u_l, i, sig, orient, w.speed))
    _check_wave_order(waves)
    states = (u_minus,) + tuple(w.u_r for w in waves)
    return WaveFan(u_minus, state, states, tuple(waves))


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


def solve_riemann_scalar(model: FluxModel, u_minus, u_plus,
                         n_env=N_ENVELOPE) -> WaveFan:
    """Scalar Riemann solution via the convex (u- < u+) or concave envelope."""
    if model.n != 1:
        raise ValueError("solve_riemann_scalar needs a scalar model")
    u_minus = model.state(u_minus)
    u_plus = model.state(u_plus)
    ul, ur = float(u_minus[0]), float(u_plus[0])
    if ul == ur:
        return WaveFan(u_minus, u_plus, (u_minus,), ())

    a, b = (ul, ur) if ul < ur else (ur, ul)
    grid = np.linspace(a, b, n_env)
    fs = model.f(grid[:, None])[:, 0]
    if ul < ur:
        hull = _lower_hull_indices(grid, fs)
        order = hull  # traverse from u- to u+
    else:
        hull = _lower_hull_indices(grid, -fs)
        order = hull[::-1]  # traverse from u- (= b) down to u+ (= a)

    # walk consecutive hull vertices; single-gridstep segments form
    # rarefaction runs, longer chords are entropy shocks.  All speeds come
    # from hull-chord slopes, which are nondecreasing along the traversal,
    # so the wave ordering is exact by construction.
    def secant(p, q):
        return (fs[q] - fs[p]) / (grid[q] - grid[p])

    waves = []
    states = [u_minus]
    run = [order[0]]

    def flush_run(run):
        if len(run) < 2:
            return
        prof = grid[run]
        k = len(run)
        speeds = np.empty(k)
        speeds[0] = secant(run[0], run[1])
        speeds[-1] = secant(run[-2], run[-1])
        for j in range(1, k - 1):
            speeds[j] = secant(run[j - 1], run[j + 1])
        speeds = np.maximum.accumulate(speeds)
        u_l = np.array([prof[0]])
        u_r = np.array([prof[-1]])
        waves.append(RarefactionWave(0, u_l, u_r, float(speeds[0]),
                                     float(speeds[-1]), prof[:, None], speeds))
        states.append(u_r)

    for p, q in zip(order[:-1], order[1:]):
        if abs(q - p) == 1:
            run.append(q)
            continue
        flush_run(run)
        u_l = np.array([grid[p]])
        u_r = np.array([grid[q]])
        speed = float(secant(p, q))
        margin = _shock_liu_margin(model, u_l, 0, float(u_r[0] - u_l[0]), 1, speed,
                                   n_check=65)
        waves.append(JumpWave("shock", 0, u_l, u_r, speed, liu_margin=margin))
        states.append(u_r)
        run = [q]
    flush_run(run)

    return WaveFan(u_minus, states[-1], tuple(states), tuple(waves))


def riemann_solver_for(model: FluxModel):
    """Model-appropriate exact solver (envelope for n = 1, Lax for systems)."""
    if model.n == 1:
        return lambda ul, ur: solve_riemann_scalar(model, ul, ur)
    return lambda ul, ur: solve_riemann(model, ul, ur)


# ---------------------------------------------------------------------------
# admissibility

@dataclass(frozen=True)
class AdmissibilityVerdict:
    admissible: bool
    margin: float
    sigma: Optional[float] = None


def liu_admissible(model: FluxModel, u_minus, u_plus, i, n_check=257) -> AdmissibilityVerdict:
    """Liu condition: lambda_i(s) >= lambda_i(sigma) for s between 0 and sigma."""
    u_minus = model.state(u_minus)
    u_plus = model.state(u_plus)
    if model.n == 1:
        sigma = float(u_plus[0] - u_minus[0])
        if sigma == 0.0:
            return AdmissibilityVerdict(True, 0.0, 0.0)
        lams = _secant_speeds(model, u_minus, sigma, n_check)
        margin = float(np.min(lams) - lams[-1])
        return AdmissibilityVerdict(margin >= -TOL_ADM, margin, sigma)

    es = eigensystem(model, u_minus)
    sigma = float(es.left[i] @ (u_plus - u_minus))
    if abs(sigma) < STRENGTH_FLOOR and np.linalg.norm(u_plus - u_minus) < 1e-10:
        return AdmissibilityVerdict(True, 0.0, 0.0)
    curve = shock_curve(model, u_minus, i, sigma, n_check)
    if np.linalg.norm(curve.states[-1] - u_plus) > max(1e-8, 1e-6 * np.linalg.norm(u_plus - u_minus)):
        raise NotOnShockCurve(
            f"u+ is {np.linalg.norm(curve.states[-1] - u_plus):.3g} away from the "
            f"family-{i} shock curve through u-")
    margin = float(np.min(curve.speeds) - curve.speeds[-1])
    return AdmissibilityVerdict(margin >= -TOL_ADM, margin, sigma)


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
