"""Wave curves, exact Riemann solvers, and shock admissibility predicates.

`solve_strengths` is the one strength solve of a system, for the exact
solver, the q-decomposition of the verifier and front tracking.  It returns
the strengths, the end state and the waves it built at them, so no caller
builds them again, and it takes one of three routes:

- the exact solver (no `splits`): Broyden's method on composed Lax curves
  (shock branch on the speed-decreasing side, rarefaction branch on the
  other, single branch for linearly degenerate families), started from the
  exact Jacobian at zero strengths, in two stages.  A search on rarefaction
  curves of SEARCH_STEPS RK4 steps is followed by a resolve that continues
  Broyden from the search strengths on curves of RAREFACTION_STEPS, usually
  for one or two compositions.  A search that ends with no rarefaction is
  returned as it is, since its composition does not depend on the step
  count.  The fan is converged at full resolution either way and every
  rarefaction check runs on it, so the search step count sets the cost, not
  the accuracy.
- every family one jump (`splits` all 1: the first solve of every
  front-tracking interaction and every q-decomposition cell): one Newton on
  the chain of Rankine-Hugoniot conditions, `_rh_chain`, whose unknowns are
  the n - 1 middle states and the n speeds.  The chain runs over rows, K
  problems in one Newton, and front tracking and the q-decomposition give
  it all their problems at once; `solve_strengths` is its K = 1 case.  A
  root outside the domain box, out of speed order, or with a jump whose
  speed is not between its family's characteristic speeds at its ends is
  refused for its row alone, and that row takes the next route instead
  (`_chained_strengths`).
- split jumps (a rarefaction split into several jumps of front tracking):
  Broyden on composed jumps, every jump RH-exact.  A chain over all of them
  would cost O(J^3) in the J jumps of its dense elimination.

Where either stage of the exact solver raises, it runs once more in one
stage at RAREFACTION_STEPS from the linear guess: a resolve can diverge from
the search strengths where the one-stage solve converges.  The other two
routes run once.  An exact fan ends on u+ byte for byte, unless every family
is below STRENGTH_FLOOR: then it has no wave.  The wave's kind, contact,
shock or rarefaction, is `_wave_kind`'s alone; `_lax_step` builds one wave
of a composition and `_compose` chains it over the families.  The two curve
samplers, `shock_curve` and `rarefaction_curve`, both take a signed s in the
sign-fixed frame of l_i and r_i, into which `_lax_step` alone turns an
oriented strength, and return (s, states, speeds); the rarefaction takes one
eigensystem per RK4 stage.
Both `shock_curve` and `_lax_step` reach a shock point through one
continuation, `_continue_shock`, and `_lax_step` always continues from
s = 0: a Broyden evaluation keeps nothing from the one before, so a
composition depends on its strengths and step count alone.  The RH Newton of
one shock point returns f at the point, which the next jump of a composition
takes as f at its left state.  Every linear step of one system, RH Newton
and Broyden alike, is one `_solve_small`: Gaussian elimination on Python
floats, which rounds unlike LAPACK but costs less than `np.linalg.solve`'s
wrapper at these sizes.  A step of the RH chain solves the systems of all
its rows in one `np.linalg.solve` over the stack (`_solve_stacked`), and
its frames are the rows eigensystem `models._eigensystems`, so a row's
result does not depend on its batch.

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

from .errors import (ConfigError, ContinuationFailure, HyperlabError, NewtonDivergence,
                     NonClassifiedField, NotGenuinelyNonlinear)
from .models import (GENUINELY_NONLINEAR, LINEARLY_DEGENERATE, FluxModel,
                     _eigensystems, classify_field, eigensystem)

TOL_RH = 1e-9
TOL_RP = 1e-12
TOL_ADM = 1e-9
TOL_ORDER = 1e-9
STRENGTH_FLOOR = 1e-12
N_ENVELOPE = 4096
N_LIU_CHECK = 257
RAREFACTION_STEPS = 48
SEARCH_STEPS = 8


def rh_residual(model: FluxModel, u_minus, u_plus, lam):
    """|lam*(u+ - u-) - (f(u+) - f(u-))|."""
    u_minus = model.state(u_minus)
    u_plus = model.state(u_plus)
    r = lam * (u_plus - u_minus) - (model.f(u_plus) - model.f(u_minus))
    return float(np.linalg.norm(r))


# ---------------------------------------------------------------------------
# shock curves

def _solve_small(A, b):
    """x with A x = b, as a list, for a small dense A given as rows of
    floats: Gaussian elimination with partial pivoting on Python floats.  At
    the sizes of the strength solve (2 to 4) it costs less than
    `np.linalg.solve`, most of whose time is its wrapper.  An exact zero
    pivot raises np.linalg.LinAlgError, as LAPACK does."""
    n = len(b)
    M = [list(row) + [bi] for row, bi in zip(A, b)]
    for k in range(n):
        p, pivot = k, M[k]
        for i in range(k + 1, n):  # the first of the largest, as LAPACK takes it
            if abs(M[i][k]) > abs(pivot[k]):
                p, pivot = i, M[i]
        if pivot[k] == 0.0:
            raise np.linalg.LinAlgError("Singular matrix")
        M[p], M[k] = M[k], pivot
        for row in M[k + 1:]:
            m = row[k] / pivot[k]
            for j in range(k + 1, n + 1):
                row[j] -= m * pivot[j]
    x = [0.0] * n
    for k in range(n - 1, -1, -1):
        row = M[k]
        t = row[n]
        for j in range(k + 1, n):
            t -= row[j] * x[j]
        x[k] = t / row[k]
    return x


def _shock_point_newton(model, u_minus, f_minus, l_i, s, state0, lam0):
    """Solve RH plus the projection closure for (S, lambda) at parameter s
    to |F| <= 1e-13 (1 + |f(u_minus)|) in at most 30 steps; after them
    1e-10 (1 + |f(u_minus)|) still passes.  |F| fixes the speed of a jump d
    only to |F| / |d|, so the start itself passes only at 1e-15 (1 + |f|),
    near roundoff: taken at 1e-13, a weak jump's start would fix its speed
    only to 1e-13 (1 + |f|) / |d|.  Each step solves the bordered system
    [Df(S) - lambda I, -d; l_i, 0] on floats with `_solve_small`.  An
    iterate outside the domain box raises ContinuationFailure before f is
    evaluated there.  Returns (S, lambda, f(S)), the flux of the last
    residual, which the next jump of a composition takes as its
    f(u_minus)."""
    n = model.n
    S, lam = state0, float(lam0)
    scale = 1.0 + math.sqrt(f_minus @ f_minus)
    closure = l_i.tolist() + [0.0]
    for k in range(31):
        if not model.contains(S):
            raise ContinuationFailure(f"shock curve left the domain box at s={s:.3g}")
        d = S - u_minus
        f_S = model.f(S)
        F = (f_S - f_minus - lam * d).tolist()
        F.append(float(l_i @ d) - s)
        norm = math.hypot(*F)
        if norm <= (1e-15 if k == 0 else 1e-13 if k < 30 else 1e-10) * scale:
            return S, lam, f_S
        if k == 30:
            raise ContinuationFailure(f"RH Newton stalled at s={s:.3g} (|F|={norm:.2e})")
        rows = model.jac(S).tolist()
        for j, (row, d_j) in enumerate(zip(rows, d.tolist())):
            row[j] -= lam
            row.append(-d_j)
        rows.append(closure)
        try:
            step = _solve_small(rows, [-x for x in F])
        except np.linalg.LinAlgError as exc:
            raise ContinuationFailure(f"singular RH system at s={s:.3g}") from exc
        S, lam = S + step[:n], lam + step[n]
        if not all(map(math.isfinite, [*S.tolist(), lam])):
            raise ContinuationFailure(f"RH Newton diverged at s={s:.3g}")


def _continue_shock(model, u_minus, f_minus, l_i, r_i, a, S, lam, b):
    """The shock point (S, lambda, f(S)) at parameter b, continued from
    (S, lam) at a: Newton from the linear guess S + (b - a) r_i, and halved
    steps (12 in all at most) where Newton fails, an iterate outside the
    domain box included, so every point reached lies in it.  (S, lam) is
    u_minus and lambda_i(u_minus) at a = 0, or the previous sample of
    `shock_curve`.  f_minus is f(u_minus)."""
    pending = [(a, b)]
    halvings = 0
    while pending:
        a, b = pending.pop()
        try:
            S_new, lam_new, f_new = _shock_point_newton(model, u_minus, f_minus, l_i, b,
                                                        S + (b - a) * r_i, lam)
        except ContinuationFailure:
            halvings += 1
            if halvings > 12:
                raise
            mid = 0.5 * (a + b)
            pending.extend([(mid, b), (a, mid)])
            continue
        S, lam, f_S = S_new, lam_new, f_new
    return S, lam, f_S


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
    f_minus = model.f(u_minus)
    states = np.empty((n_samples, model.n))
    speeds = np.empty(n_samples)
    states[0], speeds[0] = u_minus, es.lambdas[i]
    for j in range(1, n_samples):
        states[j], speeds[j], _ = _continue_shock(model, u_minus, f_minus, l_i, r_i,
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


def _wave_kind(field, sigma):
    """The kind of a family's wave at oriented strength sigma, the one place
    where the branch of the Lax curve is chosen: a contact for a linearly
    degenerate family, a shock for sigma < 0, and a rarefaction otherwise."""
    if field.tag == LINEARLY_DEGENERATE:
        return "contact"
    return "shock" if sigma < 0 else "rarefaction"


def _lax_step(model, u_l, i, sigma, field, jumps, es, f_l, n_steps):
    """The family-i wave from u_l at oriented strength sigma, and f at its
    right state if it is a jump (else None).

    The branch of the Lax curve is `_wave_kind`'s.  The rarefaction is the
    integral curve, or, with `jumps`, the single RH-exact jump at the same
    shock-curve parameter (a rarefaction front of front tracking).  The
    integral curve takes n_steps RK4 steps.  Either curve takes
    s = orientation * sigma along the sign-fixed l_i and r_i: the one use of
    the orientation.  A jump is continued from s = 0 by `_continue_shock`.
    `es` and `f_l` are the eigensystem and f at u_l when the caller has
    them, else None.
    """
    s = field.orientation * sigma
    kind = _wave_kind(field, sigma)
    if kind == "rarefaction" and not jumps:
        _, states, speeds = rarefaction_curve(model, u_l, i, s, n_steps)
        return RarefactionWave(i, u_l, states[-1], float(speeds[0]),
                               float(speeds[-1]), states, speeds), None
    if es is None:
        es = eigensystem(model, u_l)
    if f_l is None:
        f_l = model.f(u_l)
    S, lam, f_r = _continue_shock(model, u_l, f_l, es.left[i], es.right[i], 0.0, u_l,
                                  es.lambdas[i], s)
    return JumpWave(kind, i, u_l, S, float(lam)), f_r


def _compose(model, u_minus, sigmas, fields, splits=None, es_minus=None, f_minus=None,
             n_steps=RAREFACTION_STEPS):
    """End state and waves of the composed Lax curves at strengths sigmas.

    Families weaker than STRENGTH_FLOOR make no wave.  With `splits` every
    wave is a jump, and the rarefaction side of family i is split into
    splits[i] jumps of equal strength; without it, every integral-curve
    rarefaction takes n_steps RK4 steps.  The strength solve passes
    `es_minus` and `f_minus`, its eigensystem and f at u_minus, for the
    first wave.  Each later jump takes f at its left state from the RH
    Newton of the jump before.
    """
    jumps = splits is not None
    state, f_state = u_minus, f_minus
    waves = []
    for i in range(model.n):
        sig = sigmas[i]
        if abs(sig) < STRENGTH_FLOOR:
            continue
        k = splits[i] if jumps and sig > 0 else 1
        for _ in range(k):
            w, f_state = _lax_step(model, state, i, sig / k, fields[i], jumps,
                                   None if waves else es_minus, f_state, n_steps)
            waves.append(w)
            state = w.u_r
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
            step = np.array(_solve_small(J.tolist(), (-g).tolist()))
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


def _dot(a, b):
    """Sum over the last axis of a * b, term by term from the first, so that
    each row's sum is the same in any stack of rows."""
    p = a * b
    out = p[..., 0]
    for c in range(1, p.shape[-1]):
        out = out + p[..., c]
    return out


def _solve_stacked(A, b):
    """x with A x = b for the stacked systems A (K, N, N) and b (K, N) from
    one np.linalg.solve, and the mask of the singular ones, where x means
    nothing.  Where LAPACK refuses the stack, it solves each system alone,
    in the same call form, so a system's x does not depend on its stack."""
    try:
        return np.linalg.solve(A, b[..., None])[..., 0], np.zeros(len(b), dtype=bool)
    except np.linalg.LinAlgError:
        x, singular = np.zeros(b.shape), np.zeros(len(b), dtype=bool)
        for k in range(len(b)):
            try:
                x[k] = np.linalg.solve(A[k:k + 1], b[k:k + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                singular[k] = True
        return x, singular


def _rh_chain(model, u_minus, u_plus, fields):
    """Strengths, end state and waves of the K Riemann problems from
    u_minus[k] to u_plus[k], each with every family one jump, from one
    Newton on the chains of RH conditions of all K rows.  Returns per row
    the triple (sigmas, end state, waves) or the HyperlabError that refuses
    it.  A refused row never fails another, and a row's result does not
    depend on the rows beside it, bit for bit: every operation across rows
    is elementwise or one system per row.

    The unknowns of a row are the middle states S_1 .. S_{n-1} and the
    speeds lambda_1 .. lambda_n, the equations F_j = f(S_j) - f(S_{j-1}) -
    lambda_j (S_j - S_{j-1}) with S_0 = u_minus and S_n = u_plus: a square
    system of n^2 rows.  Each step solves the exact Jacobians of the
    unconverged rows, (K, n^2, n^2), in one `_solve_stacked`, from the
    linear guess S_j = S_{j-1} + s_j r_j(u_minus), s = L(u_minus) (u_plus -
    u_minus), with lambda_j = lambda_j(u_minus).  After at least one step
    and within 30 a row stops at |F| <= 1e-15 (1 + |f(u_minus)|), or one
    step after |F| <= 1e-13 (1 + |f(u_minus)|): |F| fixes the speed of a
    jump d only to |F| / |d|, and from 1e-13 one more quadratic step
    reaches roundoff, which a weak jump needs.

    The frames at u_minus and at the waves' end states are
    `models._eigensystems`, and a row whose frame is refused takes that
    refusal.  sigma_j is oriented and measured in the frame at S_{j-1}, as
    `_lax_step` measures it, and the kind is `_wave_kind`'s.  A family
    below STRENGTH_FLOOR makes no wave, so the waves chain exactly from
    u_minus[k] to u_plus[k], the objects given.  A row is refused unless
    every state where f or Df is evaluated lies in the domain box
    (ContinuationFailure, before the evaluation), the waves are in speed
    order, and each wave's speed lies between lambda_j at its two ends,
    widened by TOL_ADM: the chain has roots off the family's branch
    (NewtonDivergence, as where Newton fails or a step is singular or not
    finite)."""
    n, K = model.n, len(u_minus)
    if not K:
        return []
    ends_l, ends_r = np.reshape(u_minus, (K, n)), np.reshape(u_plus, (K, n))
    lam0, right0, left0, out = _eigensystems(model, ends_l)
    for r in range(K):
        if out[r] is None and not model.contains(ends_r[r]):
            out[r] = ContinuationFailure("RH chain ends outside the domain box")
    # the rows still in the Newton, and their S_0 .. S_n, speeds and f(S_j)
    rows = np.array([r for r in range(K) if out[r] is None], dtype=int)
    S = np.empty((rows.size, n + 1, n))
    S[:, 0], S[:, n] = ends_l[rows], ends_r[rows]
    s = _dot(left0[rows], (S[:, n] - S[:, 0])[:, None, :])
    for j in range(1, n):
        S[:, j] = S[:, j - 1] + s[:, j - 1, None] * right0[rows, j - 1]
    lam = lam0[rows]
    fs = np.empty_like(S)
    fs[:, 0], fs[:, n] = model.f(S[:, 0]), model.f(S[:, n])
    tol = 1e-13 * (1.0 + np.sqrt(_dot(fs[:, 0], fs[:, 0])))
    last = np.zeros(rows.size, dtype=bool)
    m = n * (n - 1)  # the column of lambda_1; S_j takes columns (j - 1) n ..
    eye = np.eye(n)
    ended = []  # (rows, S, lam) of the rows that converged
    for k in range(31):
        if not model.contains(S[:, 1:n]):
            inside = ((S[:, 1:n] >= model.lo) & (S[:, 1:n] <= model.hi)).all(axis=(1, 2))
            for r in rows[~inside]:
                out[r] = ContinuationFailure("RH chain left the domain box")
            rows, S, lam, fs, tol, last = (x[inside] for x in (rows, S, lam, fs, tol, last))
        fs[:, 1:n] = model.f(S[:, 1:n])
        d = S[:, 1:] - S[:, :-1]
        F = (fs[:, 1:] - fs[:, :-1] - lam[:, :, None] * d).reshape(rows.size, n * n)
        norm = np.array([math.hypot(*row) for row in F.tolist()])
        stop = (k > 0) & (norm <= tol) & (last | (norm <= 1e-2 * tol))
        if stop.all():
            ended.append((rows, S, lam))
            break
        if stop.any():
            ended.append((rows[stop], S[stop], lam[stop]))
            rows, S, lam, fs, tol, d, F, norm = (
                x[~stop] for x in (rows, S, lam, fs, tol, d, F, norm))
        if k == 30:
            for r, nr in zip(rows, norm):
                out[r] = NewtonDivergence(f"RH chain did not converge (|F|={nr:.2e})")
            break
        last = (k > 0) & (norm <= tol)
        jacs = model.jac(S[:, 1:n])
        A = np.zeros((rows.size, n * n, n * n))
        for j in range(n):  # the rows of F_{j+1}, the jump from S_j to S_{j+1}
            block = slice(j * n, (j + 1) * n)
            if j + 1 < n:
                A[:, block, block] = jacs[:, j] - lam[:, j, None, None] * eye
            if j > 0:
                A[:, block, (j - 1) * n:j * n] = lam[:, j, None, None] * eye - jacs[:, j - 1]
            A[:, block, m + j] = -d[:, j]
        step, singular = _solve_stacked(A, -F)
        ok = ~singular & np.isfinite(step).all(axis=1)
        if not ok.all():
            for r, bad in zip(rows[~ok], singular[~ok]):
                out[r] = NewtonDivergence("singular RH chain" if bad else "RH chain diverged")
            rows, S, lam, fs, tol, last, step = (
                x[ok] for x in (rows, S, lam, fs, tol, last, step))
        S[:, 1:n] += step[:, :m].reshape(rows.size, n - 1, n)
        lam += step[:, m:]

    if not ended:
        return out
    rows, S, lam = (np.concatenate(x) for x in zip(*ended))
    lam_end, _, left_end, refused = _eigensystems(model, S[:, 1:].reshape(-1, n))
    # the frame at S_j of every converged row, j = 0 .. n
    lams = np.concatenate([lam0[rows, None], lam_end.reshape(-1, n, n)], axis=1)
    lefts = np.concatenate([left0[rows, None], left_end.reshape(-1, n, n, n)], axis=1)
    orient = np.array([fc.orientation for fc in fields], dtype=float)
    family = np.arange(n)
    sigmas = orient * _dot(lefts[:, family, family], S[:, 1:] - S[:, :-1])
    for i, r in enumerate(rows.tolist()):
        err = next((e for e in refused[i * n:(i + 1) * n] if e is not None), None)
        if err is not None:
            out[r] = err
            continue
        sig, speeds, ends = sigmas[i].tolist(), lam[i].tolist(), lams[i].tolist()
        kept = [j for j in range(n) if abs(sig[j]) >= STRENGTH_FLOOR]
        waves, state = [], u_minus[r]
        try:
            for j in kept:
                a, b = ends[j][j], ends[j + 1][j]
                if not min(a, b) - TOL_ADM <= speeds[j] <= max(a, b) + TOL_ADM:
                    raise NewtonDivergence(f"RH chain's {j}-jump at speed {speeds[j]:.6g} "
                                           f"is off its family ({a:.6g} to {b:.6g})")
                u_r = u_plus[r] if j == kept[-1] else S[i, j + 1].copy()
                waves.append(JumpWave(_wave_kind(fields[j], sig[j]), j, state, u_r,
                                      speeds[j]))
                state = u_r
            _check_wave_order(waves)
        except HyperlabError as exc:
            out[r] = exc
            continue
        out[r] = (sigmas[i].copy(), state, waves)
    return out


def _chained_strengths(model, u_minus, u_plus, fields, chained):
    """The strength solve with every family one jump from `_rh_chain`'s row
    `chained` of the same problem: the row itself, or, where the chain
    refused it, Broyden on the composed jumps."""
    if isinstance(chained, HyperlabError):
        return _broyden_strengths(model, u_minus, u_plus, fields, [1] * model.n)
    return chained


def solve_strengths(model, u_minus, u_plus, fields, splits=None):
    """Strengths, end state and waves of the Riemann problem from u- to u+,
    by one of three routes; NewtonDivergence where the last of them fails.

    With `splits` all 1 (every family one jump) the solve is the RH chain
    over one row, `_rh_chain`, whose waves chain from u- exactly to u+; a
    caller with several such problems solves them as rows of one chain and
    takes each row through `_chained_strengths`, as this does.  Where the
    chain refuses the row, and for split jumps, it is Broyden on the
    composed jumps (`_compose` with `splits`), run once; without `splits`
    (the exact solver), Broyden on the composed Lax curves.  Broyden
    converges to |G| <= TOL_RP, or 10 TOL_RP after 40 iterations, from the
    linear guess and dG/dsigma at sigma = 0, whose column i is
    orientation_i r_i(u-), with the eigensystem and f at u- computed once
    for all its evaluations.  Every evaluation composes its waves afresh,
    each jump continued from s = 0, so the returned waves are the
    composition at the returned strengths, bit for bit.

    The exact solver's Broyden runs in two stages.  The search converges on
    compositions whose integral-curve rarefactions take SEARCH_STEPS RK4
    steps; a composition with no rarefaction does not depend on the step
    count, so it is returned as it is.  Otherwise the resolve stage
    continues Broyden from the search strengths, with the same starting
    Jacobian, on RAREFACTION_STEPS-step curves, and usually converges in one
    or two compositions.  Both stages hold the same tolerances, so the
    returned fan is converged at full resolution and every check of
    `rarefaction_curve` runs on it: the search step count changes the cost,
    not the accuracy.  Where either stage raises, the solve runs again in
    one stage at RAREFACTION_STEPS from the linear guess: a resolve can
    diverge from search strengths where the one-stage solve converges."""
    if splits is not None and max(splits) == 1:
        chained, = _rh_chain(model, [u_minus], [u_plus], fields)
        return _chained_strengths(model, u_minus, u_plus, fields, chained)
    return _broyden_strengths(model, u_minus, u_plus, fields, splits)


def _broyden_strengths(model, u_minus, u_plus, fields, splits):
    """`solve_strengths` by Broyden: on composed jumps with `splits`, else
    on composed Lax curves in two stages."""
    es = eigensystem(model, u_minus)
    f_minus = model.f(u_minus)
    orient = np.array([fc.orientation for fc in fields])
    linear = orient * (es.left @ (u_plus - u_minus))
    J0 = es.right.T * orient

    def solve(sigmas, n_steps):
        def G(s):
            state, waves = _compose(model, u_minus, s, fields, splits, es, f_minus, n_steps)
            return state - u_plus, (state, waves)

        sigmas, (state, waves) = _damped_newton(G, sigmas, J0, TOL_RP, 10 * TOL_RP, 40,
                                                NewtonDivergence, "strength")
        return sigmas, state, waves

    if splits is not None:
        return solve(linear, RAREFACTION_STEPS)
    try:
        sigmas, state, waves = solve(linear, SEARCH_STEPS)
        if not any(isinstance(w, RarefactionWave) for w in waves):
            return sigmas, state, waves
        return solve(sigmas, RAREFACTION_STEPS)
    except (HyperlabError, np.linalg.LinAlgError):
        return solve(linear, RAREFACTION_STEPS)


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
        raise ConfigError(
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
        raise ConfigError(f"triple violates the jump conditions (residual {res:.3g})")
    margin = float(lam * (model.entropy(u_plus) - model.entropy(u_minus))
                   - (model.entropy_flux(u_plus) - model.entropy_flux(u_minus)))
    return AdmissibilityVerdict(margin >= -TOL_ADM, margin)
