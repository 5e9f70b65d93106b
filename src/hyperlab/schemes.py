"""Approximation schemes: grid methods producing GridSolution trajectories.

All runs are deterministic; identical config and data give bit-identical
output.  Every grid run takes its cells and initial states from `_grid`, its
time steps from `_time_steps` (equal steps ending at T, capped by cfg.dt) or,
for the unit-CFL Godunov and Glimm runs, from `_unit_cfl_steps` (dt = dx, so T
must be a whole number of steps), and records through `_collect`: snapshots
only at t = 0, t = T and the requested times unless store_all is set, and
the shared meta keys scheme, eps, dx, dt, cfl and boundary; every step must
leave finite states.  Speed windows, speed bounds and the diffusion matrix B
of `viscous_run` are checked on every initial cell by one call:
`models.eigenvalues`, or B on the rows (..., n) -> (..., n, n), which is
checked positive semidefinite again on the rows of every step.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BlowupBeforeRestart, ConfigError, NewtonDivergence, NonfiniteState
from .fronts import front_tracking_run
from .models import FluxModel, _central_diff, _check_speed_range, eigenvalues
from .piecewise import GridSolution, PiecewiseConstantFn, as_state
from .riemann import evaluate_fan, solve_riemann


@dataclass
class SchemeConfig:
    """Shared configuration for all runs.

    eps is the scheme's accuracy knob: the grid size of Godunov, Glimm and
    the method of lines, the viscosity of the viscous run, the relaxation
    time of Jin-Xin, and the step limit of backward Euler and of the
    mollification restarts.  Godunov and Glimm step with dt = dx, so T must
    be a whole number of dx steps.

    dx sets the grid of the runs with a separate spatial grid: viscous, Jin-Xin,
    backward Euler and mollification.  dt caps the time step of every run except
    Godunov and Glimm, and a dt above the scheme's limit (meta["cfl"]["dt_max"])
    raises ConfigError; the steps are then equal and end at T.  eps, and a dx,
    dt or delta that is set, must be finite and positive, T finite and not
    negative, front_cap an integer >= 1, and every snapshot time in [0, T] (up
    to the slack 1e-12 T of the last step).  A grid run needs a domain of
    finite length; front tracking reads none.  Each run opens by naming the
    settings it reads (`refuse_unread`) and refuses any other that is set away
    from its default.  snapshot_times and store_all choose the stored snapshots
    of a grid run.  For a scalar model, front tracking's rarefactions break at
    the states of the grid delta*Z (and at the data values).  b_matrix is None
    (B = I) or a callable B on rows (..., n) -> (..., n, n), as
    `FluxModel.jacobian`.
    """

    eps: float
    T: float
    domain: tuple
    boundary: str = "constant"
    dx: Optional[float] = None
    dt: Optional[float] = None
    snapshot_times: Optional[Sequence] = None
    store_all: bool = False
    delta: float = 0.05
    rho_np: float = 0.0
    sequence: str = "reversed-digit"
    mollifier_width: Optional[float] = None
    mollifier_kernel: str = "poly"
    a2: Optional[float] = None
    b_matrix: object = None
    front_cap: int = 20000

    def __post_init__(self):
        a, b = self.domain
        if not (b > a):
            raise ConfigError("domain must satisfy a < b")
        if not 0 <= self.T < math.inf:
            raise ConfigError(f"need finite T >= 0, not {self.T!r}")
        times = () if self.snapshot_times is None else self.snapshot_times
        bad = [t for t in times if not 0 <= t <= self.T * (1 + 1e-12)]
        if bad:
            raise ConfigError(f"need snapshot times in [0, T = {self.T}], not {bad}")
        for name in ("eps", "delta", "dx", "dt", "mollifier_width", "a2"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ConfigError(f"need {name} > 0 and finite, not {value!r}")
        if not (isinstance(self.front_cap, (int, np.integer)) and self.front_cap >= 1):
            raise ConfigError(f"need front_cap an integer >= 1, not {self.front_cap!r}")
        if self.boundary not in ("constant", "periodic"):
            raise ConfigError(f"unknown boundary treatment {self.boundary!r}")
        if self.b_matrix is not None and not callable(self.b_matrix):
            raise ConfigError(f"b_matrix must be None or a callable on rows, "
                              f"not {self.b_matrix!r}")

    def refuse_unread(self, run, *reads):
        """Raise ConfigError naming each setting outside `reads`, which `run`
        ignores, that is set away from its default (from None: set at all)."""
        unread = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name in reads or f.default is dataclasses.MISSING:
                continue
            if value is not None if f.default is None else value != f.default:
                unread.append(f"{f.name}={value!r}")
        if unread:
            raise ConfigError(f"{run} does not read {', '.join(unread)}")


# ---------------------------------------------------------------------------
# shared plumbing

def _grid(model, data, cfg, dx_default, fewest=False):
    """(x0, dx, u0): the domain cut into whole cells of width about cfg.dx,
    or dx_default if it is not set, and the initial cell states: exact
    averages for piecewise-constant data, midpoint samples for callables.
    With `fewest`, the default grid is the fewest whole cells no wider than
    dx_default (1 + 1e-12) rather than the nearest count."""
    a, b = cfg.domain
    if not math.isfinite(b - a):
        raise ConfigError(f"a grid run needs a domain of finite length, not {cfg.domain}")
    if cfg.dx is None and fewest:
        ncells = math.ceil((b - a) / (dx_default * (1 + 1e-12)))
    else:
        ncells = int(round((b - a) / (cfg.dx if cfg.dx is not None else dx_default)))
    if ncells < 4:
        raise ConfigError("domain too small for the requested resolution")
    dx = (b - a) / ncells
    if isinstance(data, PiecewiseConstantFn):
        u0 = data.cell_averages(a, dx, ncells)
        if u0.shape[1] != model.n:
            raise ConfigError("data dimension does not match the model")
    else:
        u0 = np.stack([as_state(data(x), model.n)
                       for x in a + dx * (np.arange(ncells) + 0.5)])
    return a, dx, u0


def _max_speed(model, u0, pad=1.0):
    return pad * float(np.max(np.abs(eigenvalues(model, u0)))) or 1.0


def _pad(u, boundary):
    if boundary == "periodic":
        return np.concatenate([u[-1:], u, u[:1]], axis=0)
    return np.concatenate([u[:1], u, u[-1:]], axis=0)


def _time_steps(cfg, dt_default, dt_limit, rule):
    """(nsteps, dt, cfl) of equal steps ending at T (none if T = 0), each
    at most cfg.dt if set, else at most dt_default; cfl records `rule` and
    its limit dt_limit, and a cfg.dt above dt_limit raises."""
    dt_max = dt_default
    if cfg.dt is not None:
        if cfg.dt > dt_limit * (1 + 1e-12):
            raise ConfigError(f"dt={cfg.dt} violates {rule} (limit {dt_limit:.6g})")
        dt_max = cfg.dt
    nsteps = max(1, int(math.ceil(cfg.T / dt_max - 1e-12))) if cfg.T > 0 else 0
    return (nsteps, cfg.T / nsteps if nsteps else dt_max,
            {"rule": rule, "dt_max": dt_limit})


def _unit_cfl_steps(cfg, dx):
    """(nsteps, cfl) of T/dx steps of dt = dx; T must be a whole number of
    them."""
    nsteps = int(round(cfg.T / dx))
    if abs(nsteps * dx - cfg.T) > 1e-9 * max(cfg.T, 1.0):
        raise ConfigError(f"T={cfg.T} is not a whole number of steps "
                          f"dt = dx = {dx:.6g}")
    return nsteps, {"rule": "dt = dx, speeds in [0,1]"}


def _record_steps(nsteps, dt, cfg):
    if cfg.store_all:
        return list(range(nsteps + 1))
    idxs = {0, nsteps}
    if cfg.snapshot_times is not None:
        idxs.update(int(round(t / dt)) for t in cfg.snapshot_times)
    return sorted(idxs)


def _collect(cfg, x0, dx, dt, u0, step, nsteps, scheme, cfl, **extra):
    """Take nsteps of u -> step(u, j) from u0, keep the snapshots the config
    asks for, and record the run's settings in the solution's meta.  A step
    that leaves a non-finite state raises NonfiniteState."""
    rec = set(_record_steps(nsteps, dt, cfg))
    times, rows = [0.0], [u0.copy()]
    u = u0
    for j in range(1, nsteps + 1):
        u = step(u, j)
        if not np.isfinite(u).all():
            raise NonfiniteState(f"non-finite cell state after step {j} (blow-up?)")
        if j in rec:
            times.append(j * dt)
            rows.append(u.copy())
    meta = {"scheme": scheme, "eps": cfg.eps, "dx": dx, "dt": dt, **extra,
            "cfl": cfl, "boundary": cfg.boundary}
    return GridSolution(x0, dx, np.array(times), np.stack(rows), meta=meta)


# ---------------------------------------------------------------------------
# Godunov and Glimm

def godunov_run(model: FluxModel, data, cfg: SchemeConfig) -> GridSolution:
    """Upwind scheme u_{j+1,k} = u_{j,k} + f(u_{j,k-1}) - f(u_{j,k}) on a
    unit-CFL grid dt = dx = eps.  Requires speeds in [0, 1] and T a whole
    number of dx steps."""
    cfg.refuse_unread("godunov_run", "boundary", "snapshot_times", "store_all")
    x0, dx, u0 = _grid(model, data, cfg, cfg.eps)
    _check_speed_range(model, u0, -1e-9, 1 + 1e-9)

    def step(u, j):
        up = _pad(u, cfg.boundary)
        fl = model.f(up[:-2])
        fc = model.f(up[1:-1])
        return u + (fl - fc)

    nsteps, cfl = _unit_cfl_steps(cfg, dx)
    return _collect(cfg, x0, dx, dx, u0, step, nsteps, "godunov", cfl)


def reversed_digit_theta(j: int) -> float:
    """Decimal digits of j in inverse order, placed after the radix point."""
    if j < 1:
        raise ValueError("index must be a positive integer")
    s = str(int(j))
    return int(s[::-1]) / 10 ** len(s)


def theta_sequence(name: str, nsteps: int) -> np.ndarray:
    """Glimm's thetas: "reversed-digit", "midpoint" or "constant:c", 0 <= c <= 1."""
    if name == "reversed-digit":
        return np.array([reversed_digit_theta(j) for j in range(1, nsteps + 1)])
    if name.startswith("constant:"):
        try:
            c = float(name.split(":", 1)[1])
        except ValueError:
            c = math.nan
        if not 0 <= c <= 1:
            raise ConfigError(f"sampling sequence {name!r} needs a constant in [0, 1]")
        return np.full(nsteps, c)
    if name == "midpoint":
        return (np.arange(1, nsteps + 1) - 0.5) / nsteps
    raise ConfigError(f"unknown sampling sequence {name!r}")


def uniformity_defect(thetas, lambdas) -> float:
    """max over probes of |#{theta_j <= lam}/N - lam|."""
    thetas = np.sort(np.asarray(thetas, dtype=float))
    N = thetas.size
    if N == 0:
        raise ValueError("empty sequence")
    lams = np.atleast_1d(np.asarray(lambdas, dtype=float))
    counts = np.searchsorted(thetas, lams, side="right")
    return float(np.max(np.abs(counts / N - lams)))


def glimm_run(model: FluxModel, data, cfg: SchemeConfig) -> GridSolution:
    """Riemann fans on the unit-CFL grid restarted by sampling at
    x = (k + theta_j) dx.  The restart values are the new cell states.
    Requires speeds in [0, 1] and T a whole number of dx steps."""
    cfg.refuse_unread("glimm_run", "boundary", "snapshot_times", "store_all", "sequence")
    x0, dx, u0 = _grid(model, data, cfg, cfg.eps)
    if isinstance(data, PiecewiseConstantFn):
        # sampling restarts want cell values, not averages: snap each cell
        # to the data value at its center (exact for data aligned with grid)
        u0 = data(x0 + dx * (np.arange(u0.shape[0]) + 0.5))
    _check_speed_range(model, u0, -1e-9, 1 + 1e-9)
    nsteps, cfl = _unit_cfl_steps(cfg, dx)
    thetas = theta_sequence(cfg.sequence, nsteps)
    fan_cache = {}

    def step(u, j):
        theta = thetas[j - 1]
        up = _pad(u, cfg.boundary)
        jumpy = np.nonzero(np.any(up[:-2] != up[1:-1], axis=1))[0]
        out = u.copy()
        for k in jumpy:
            ul, ur = up[k], up[k + 1]
            key = (ul.tobytes(), ur.tobytes())
            fan = fan_cache.get(key)
            if fan is None:
                fan = solve_riemann(model, ul, ur)
                fan_cache[key] = fan
            out[k] = evaluate_fan(fan, theta)
        return out

    return _collect(cfg, x0, dx, dx, u0, step, nsteps, "glimm", cfl,
                    sequence=cfg.sequence, theta=thetas)


# ---------------------------------------------------------------------------
# method of lines

def method_of_lines_run(model: FluxModel, data, cfg: SchemeConfig) -> GridSolution:
    """dU_k/dt = (f(U_{k-1}) - f(U_k))/eps integrated with classical RK4,
    time step at most eps/2.  Requires speeds in [0, 1] (upwind left)."""
    cfg.refuse_unread("method_of_lines_run", "boundary", "dt", "snapshot_times",
                      "store_all")
    x0, dx, u0 = _grid(model, data, cfg, cfg.eps)
    _check_speed_range(model, u0, -1e-9, 1 + 1e-9)
    nsteps, dt, cfl = _time_steps(cfg, 0.5 * dx, 0.5 * dx, "dt <= eps/2")

    def rhs(u):
        up = _pad(u, cfg.boundary)
        return (model.f(up[:-2]) - model.f(up[1:-1])) / dx

    def step(u, j):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * dt * k1)
        k3 = rhs(u + 0.5 * dt * k2)
        k4 = rhs(u + dt * k3)
        return u + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    return _collect(cfg, x0, dx, dt, u0, step, nsteps, "method-of-lines", cfl)


# ---------------------------------------------------------------------------
# the viscous run, u_t + f(u)_x = eps (B(u) u_x)_x

def _b_rows(model, B, u, when):
    """(mats, lam_min): B at the rows u (m, n), of shape (m, n, n), and the
    least eigenvalue of their symmetric parts.  Any other shape raises, and
    so does a matrix that is not positive semidefinite, naming `when` and
    its state."""
    mats = np.asarray(B(u), dtype=float)
    if mats.shape != u.shape + (model.n,):
        raise ConfigError(f"diffusion matrix maps states of shape {u.shape} to "
                          f"{mats.shape}, not {u.shape + (model.n,)}")
    sym = 0.5 * (mats + mats.swapaxes(1, 2))
    # a 1x1 matrix is its own eigenvalue, as LAPACK returns it
    lam = sym[:, 0, 0] if model.n == 1 else np.linalg.eigvalsh(sym)[:, 0]
    bad = np.flatnonzero(lam < -1e-12)
    if bad.size:
        raise ConfigError(f"diffusion matrix must be positive semidefinite, but has "
                          f"eigenvalue {lam[bad[0]]:.3g} {when} at state {u[bad[0]]}")
    return mats, float(lam.min())


def viscous_run(model: FluxModel, data, cfg: SchemeConfig) -> GridSolution:
    """Explicit scheme for u_t + f(u)_x = eps (B(u) u_x)_x, B = cfg.b_matrix:
    central differences for the diffusion, B averaged over each face, and
    conservative flux differencing for f(u)_x, with Lax-Friedrichs
    stabilization whenever the mesh does not resolve the viscous layer.
    None is B = I, the classical vanishing viscosity, which must resolve its
    layer: the cells it runs on have dx <= eps/4, and its default grid is
    the fewest that do.  A general B may be degenerate (diag(0, 1) on the
    p-system), so it is held to no such rule; it is taken on the padded rows
    once per step and checked positive semidefinite there.  B = I on rows
    reproduces None bit for bit; B = 0 is the pure Lax-Friedrichs run."""
    cfg.refuse_unread("viscous_run", "boundary", "dx", "dt", "snapshot_times", "store_all",
                      "b_matrix")
    eps, B = cfg.eps, cfg.b_matrix
    x0, dx, u0 = _grid(model, data, cfg, eps / 4.0, fewest=B is None)
    M = _max_speed(model, u0, pad=1.05)

    if B is None:
        if dx > eps / 4.0 * (1 + 1e-12):
            raise ConfigError(f"dx={cfg.dx} gives cells of {dx:.6g}, which must "
                              f"satisfy dx <= eps/4 = {eps / 4}")
        lam_b_min, max_b = 1.0, 1.0
    else:
        mats, lam_b_min = _b_rows(model, B, u0, "on the initial cells")
        max_b = float(np.linalg.norm(mats, 2, axis=(1, 2)).max())

    # the hyperbolic flux needs Lax-Friedrichs stabilization only when the
    # parabolic term does not resolve the layer (cell Peclet above 2)
    resolved = M * dx <= 2.0 * eps * lam_b_min
    alpha = 0.0 if resolved else M

    dt_hyp = dx / (2.0 * M)
    dt_par = dx * dx / (4.0 * eps * max_b) if eps * max_b > 0 else np.inf
    dt_max = min(dt_hyp, dt_par)
    nsteps, dt, cfl = _time_steps(cfg, dt_max, dt_max,
                                  "dt <= min(dx/(2M), dx^2/(4 eps |B|))")

    def step(u, j):
        up = _pad(u, cfg.boundary)
        fm = model.f(up)
        du = up[1:] - up[:-1]                      # (ncells+1, n) face jumps
        F = 0.5 * (fm[:-1] + fm[1:])
        if alpha:
            F = F - 0.5 * alpha * du
        if B is None:
            D = du / dx
        else:
            Bm = _b_rows(model, B, up, f"in step {j}")[0]
            D = np.einsum("kij,kj->ki", 0.5 * (Bm[:-1] + Bm[1:]), du) / dx
        return u - (dt / dx) * (F[1:] - F[:-1]) + (eps * dt / dx) * (D[1:] - D[:-1])

    return _collect(cfg, x0, dx, dt, u0, step, nsteps, "viscous",
                    {**cfl, "M": M, "lf_alpha": alpha})


# ---------------------------------------------------------------------------
# Jin-Xin relaxation

def jin_xin_run(model: FluxModel, data, cfg: SchemeConfig) -> GridSolution:
    """Relaxation system u_t + v_x = 0, v_t + a^2 u_x = (f(u) - v)/eps,
    upwinded along the characteristic variables v -+ a u, with the stiff
    source handled implicitly (exact since it is linear in v)."""
    cfg.refuse_unread("jin_xin_run", "boundary", "dx", "dt", "snapshot_times", "store_all",
                      "a2")
    eps = cfg.eps
    x0, dx, u0 = _grid(model, data, cfg, eps / 2.0)
    M = _max_speed(model, u0)
    a2 = cfg.a2 if cfg.a2 is not None else max(1.0, (1.1 * M) ** 2)
    if a2 < M ** 2 * (1 - 1e-12):
        raise ConfigError(f"a^2 = {a2} below max f'(u)^2 = {M ** 2} on the data hull")
    a = math.sqrt(a2)
    nsteps, dt, cfl = _time_steps(cfg, 0.9 * dx / a, dx / a, "dt <= dx/a")
    c = a * dt / dx

    v0 = model.f(u0)
    state = {"v": v0}

    def step(u, j):
        v = state["v"]
        wp = v + a * u
        wm = v - a * u
        wpp = _pad(wp, cfg.boundary)
        wmp = _pad(wm, cfg.boundary)
        wp_new = wp - c * (wpp[1:-1] - wpp[:-2])
        wm_new = wm + c * (wmp[2:] - wmp[1:-1])
        u_new = (wp_new - wm_new) / (2 * a)
        v_star = 0.5 * (wp_new + wm_new)
        r = dt / eps
        state["v"] = (v_star + r * model.f(u_new)) / (1.0 + r)
        return u_new

    return _collect(cfg, x0, dx, dt, u0, step, nsteps, "jin-xin", cfl, a2=a2)


# ---------------------------------------------------------------------------
# backward Euler

def backward_euler_run(model: FluxModel, data, cfg: SchemeConfig) -> GridSolution:
    """Implicit step w_k + c (f(w_k) - f(w_{k-1})) = v_k, c = dt/dx, in equal
    steps dt of at most eps, with w_{-1} = v_0: constant boundaries, the
    far-left state held steady.  Requires speeds in [1, 2] so the implicit
    system is well posed and upwinding is one-sided.

    Each step runs Newton's method on the whole grid from w = v, until
    every cell meets |R_k| <= 1e-13 (1 + |v_k + c f(w_{k-1})|) for the
    residual R_k of its equation (at most 40 iterations).  The Newton
    correction of the lower block-bidiagonal system is the recursion
    d_k = q_k + P_k d_{k-1}, q_k = -(I + c A_k)^-1 R_k and
    P_k = (I + c A_k)^-1 c A_{k-1} with A = Df(w), started at the first
    unconverged cell and composed by a doubling scan in log2(cells) rounds.
    The block inverse is a reciprocal when n = 1 and LAPACK's otherwise; the
    block products are einsum.
    """
    cfg.refuse_unread("backward_euler_run", "dx", "dt", "snapshot_times", "store_all")
    x0, dx, u0 = _grid(model, data, cfg, cfg.eps / 4.0)
    _check_speed_range(model, u0, 1 - 1e-9, 2 + 1e-9)
    nsteps, dt, cfl = _time_steps(
        cfg, cfg.eps, cfg.eps,
        "dt <= eps (unconditionally stable; speeds in [1,2])")
    c = dt / dx

    def step(v, j):
        w = v.copy()
        for _ in range(40):
            fw = model.f(np.concatenate([v[:1], w]))
            target = v + c * fw[:-1]
            R = w + c * fw[1:] - target
            ok = (np.linalg.norm(R, axis=1)
                  <= 1e-13 * (1.0 + np.linalg.norm(target, axis=1)))
            k0 = int(np.argmin(ok))
            if ok[k0]:
                return w
            A = c * model.jac(w[k0:])
            A_prev = np.concatenate([np.zeros_like(A[:1]), A[:-1]])
            B = np.eye(model.n) + A
            singular = f"singular implicit system in step {j}"
            if model.n == 1:
                if not B.all():
                    raise NewtonDivergence(singular)
                B_inv = 1.0 / B
            else:
                try:
                    B_inv = np.linalg.inv(B)
                except np.linalg.LinAlgError as exc:
                    raise NewtonDivergence(singular) from exc
            X = np.einsum("kij,kjl->kil", B_inv,
                          np.concatenate([-R[k0:, :, None], A_prev], axis=2))
            q, P = X[:, :, 0], X[:, :, 1:]
            s = 1  # after round s, d_k = q_k + P_k d_{k-2s}, and d = 0 left of k0
            while s < q.shape[0]:
                q[s:] += np.einsum("kij,kj->ki", P[s:], q[:-s])
                P[s:] = np.einsum("kij,kjl->kil", P[s:], P[:-s])
                s *= 2
            w[k0:] += q
        raise NewtonDivergence(f"implicit solve stalled in cell {k0}")

    return _collect(cfg, x0, dx, dt, u0, step, nsteps, "backward-euler", cfl)


# ---------------------------------------------------------------------------
# mollification restarts (scalar)

def mollifier_kernel(name, width, dx):
    """Discrete unit-mass mollifier on the grid; C^2 bump profiles."""
    r = max(1, int(round(width / dx)))
    y = np.arange(-r, r + 1) * (dx / width)
    y = np.clip(y, -1.0, 1.0)
    if name == "poly":
        w = (1.0 - y * y) ** 3
    elif name == "cos3":
        w = np.cos(0.5 * np.pi * y) ** 3
    else:
        raise ConfigError(f"unknown mollifier kernel {name!r}")
    w[np.abs(y) >= 1.0] = 0.0
    return w / w.sum()  # the centre weight is 1


def _pl_cell_averages(y, u, edges):
    """Exact cell averages of the piecewise-linear interpolant through
    (y_i, u_i), extended by its end values outside [y_0, y_-1]."""
    yy = np.concatenate([[min(edges[0], y[0]) - 1.0], y,
                         [max(edges[-1], y[-1]) + 1.0]])
    uu = np.concatenate([u[:1], u, u[-1:]])
    # antiderivative at the nodes
    F_nodes = np.concatenate([[0.0], np.cumsum(0.5 * (uu[1:] + uu[:-1]) * np.diff(yy))])
    k = np.clip(np.searchsorted(yy, edges, side="right") - 1, 0, yy.size - 2)
    t = (edges - yy[k]) / (yy[k + 1] - yy[k])
    u_at = uu[k] * (1 - t) + uu[k + 1] * t
    F = F_nodes[k] + 0.5 * (uu[k] + u_at) * (edges - yy[k])
    return np.diff(F) / np.diff(edges)


def blowup_time(x, fp):
    """1 / max(0, -min d/dx fp(x)) for characteristic speeds fp sampled at x
    (inf if no decay)."""
    slope = np.gradient(fp, x)
    mn = float(np.min(slope))
    if mn >= 0:
        return np.inf
    return 1.0 / (-mn)


def mollification_run(model: FluxModel, data, cfg: SchemeConfig) -> GridSolution:
    """Scalar only: exact characteristic transport on each restart interval
    followed by convolution with a C^2 mollifier of width mollifier_width.

    The restart intervals are equal and at most eps.  Raises
    BlowupBeforeRestart when the interval is not shorter than the classical
    blow-up time of the current profile.  Boundaries must be constant: the
    profile is extended by its end values."""
    cfg.refuse_unread("mollification_run", "dx", "dt", "snapshot_times", "store_all",
                      "mollifier_width", "mollifier_kernel")
    if model.n != 1:
        raise ConfigError("mollification_run is scalar-only")
    x0, dx, u0 = _grid(model, data, cfg, (cfg.domain[1] - cfg.domain[0]) / 2048)
    ncells = u0.shape[0]
    centers = x0 + dx * (np.arange(ncells) + 0.5)
    edges = x0 + dx * np.arange(ncells + 1)
    width = cfg.mollifier_width if cfg.mollifier_width is not None else 4 * dx
    kern = mollifier_kernel(cfg.mollifier_kernel, width, dx)
    r = (kern.size - 1) // 2
    nsteps, tau, cfl = _time_steps(
        cfg, cfg.eps, cfg.eps, "dt <= eps < blow-up time of the current profile")

    def step(u, j):
        u = u[:, 0]
        fp = _central_diff(model.f, u[:, None], 1e-7)[:, 0, 0]
        t_blow = blowup_time(centers, fp)
        if tau >= t_blow:
            raise BlowupBeforeRestart(
                f"restart interval {tau:g} reaches the classical blow-up time "
                f"{t_blow:g}", t_blowup=t_blow)
        y = centers + fp * tau
        if np.any(np.diff(y) <= 0):
            raise BlowupBeforeRestart(
                f"characteristics cross within the restart interval {tau:g}",
                t_blowup=t_blow)
        u = _pl_cell_averages(y, u, edges)
        padded = np.concatenate([np.full(r, u[0]), u, np.full(r, u[-1])])
        return np.convolve(padded, kern, mode="valid")[:, None]

    return _collect(cfg, x0, dx, tau, u0, step, nsteps, "mollification", cfl,
                    kernel=cfg.mollifier_kernel, width=width)


# ---------------------------------------------------------------------------
# dispatch

SCHEMES = {
    "godunov": godunov_run,
    "glimm": glimm_run,
    "method-of-lines": method_of_lines_run,
    "viscous": viscous_run,
    "jin-xin": jin_xin_run,
    "backward-euler": backward_euler_run,
    "mollification": mollification_run,
    "front-tracking": front_tracking_run,
}


def run_scheme(model, data, scheme, cfg):
    """Dispatch by scheme id, front tracking included."""
    try:
        fn = SCHEMES[scheme]
    except KeyError:
        raise ConfigError(f"unknown scheme {scheme!r}") from None
    return fn(model, data, cfg)
