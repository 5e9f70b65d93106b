"""Flux models u_t + f(u)_x = 0: eigenstructure, field type, entropy pairs.

Built-in models carry analytic fluxes/Jacobians; user models fall back to
central finite differences.  Every derivative the library differences goes
through one helper, `_central_diff(F, x, rel)`, which steps coordinate j by
h_j = rel * (1 + |x_j|).  The steps per site: the Jacobian fallback, the
entropy gradients and the eigenvalue gradient of `gnl_indicator` use
rel = H_JAC; `entropy_hessian` differences the entropy gradient with
rel = sqrt(H_JAC); the curvature bound of
`riemann.default_small_data_radius` uses 1e-5, and the strength Jacobian of
`riemann._damped_newton` uses 1e-7.  All operations are pure and models are
immutable, so everything here is safe to evaluate from concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import (ConfigError, MissingEntropyPair, NonHyperbolic,
                     OutOfDomain, SpeedBoundViolated)
from .piecewise import as_state

TOL_EIG = 1e-9
TOL_EEF = 1e-6
TOL_LD = 1e-8
TOL_GAP = 1e-8
H_JAC = 1e-6

GENUINELY_NONLINEAR = "genuinely nonlinear"
LINEARLY_DEGENERATE = "linearly degenerate"
NEITHER = "neither"


@dataclass(frozen=True)
class FluxModel:
    """A system u_t + f(u)_x = 0 of dimension n.

    flux maps (..., n) -> (..., n) (vectorized over leading axes);
    jacobian maps a single state (n,) -> (n, n).  entropy/entropy_flux,
    when present, map (..., n) -> (...).  diffusion maps (n,) -> (n, n)
    positive semidefinite.  lo/hi bound the admissible state box.
    """

    name: str
    n: int
    flux: Callable
    jacobian: Optional[Callable] = None
    entropy: Optional[Callable] = None
    entropy_flux: Optional[Callable] = None
    entropy_convex: bool = False
    diffusion: Optional[Callable] = None
    lo: Optional[np.ndarray] = None
    hi: Optional[np.ndarray] = None

    def __post_init__(self):
        lo = np.full(self.n, -np.inf) if self.lo is None else np.asarray(self.lo, dtype=float)
        hi = np.full(self.n, np.inf) if self.hi is None else np.asarray(self.hi, dtype=float)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def state(self, u):
        return as_state(u, self.n)

    def contains(self, u):
        u = self.state(u)
        return bool(np.all(u >= self.lo) and np.all(u <= self.hi))

    def require_in_domain(self, u):
        if not self.contains(u):
            raise OutOfDomain(f"state {np.asarray(u)} outside domain box of model {self.name!r}")

    def f(self, u):
        return np.asarray(self.flux(np.asarray(u, dtype=float)), dtype=float)

    def jac(self, u):
        u = self.state(u)
        if self.jacobian is not None:
            return np.asarray(self.jacobian(u), dtype=float)
        return _central_diff(self.f, u, H_JAC)

    def has_entropy_pair(self):
        return self.entropy is not None and self.entropy_flux is not None

    def require_entropy_pair(self):
        if not self.has_entropy_pair():
            raise MissingEntropyPair(f"model {self.name!r} has no entropy pair")

    def d_entropy(self, u):
        return _central_diff(self.entropy, self.state(u), H_JAC)

    def d_entropy_flux(self, u):
        return _central_diff(self.entropy_flux, self.state(u), H_JAC)

    def entropy_hessian(self, u):
        # larger step: d_entropy is itself a difference quotient
        H = _central_diff(self.d_entropy, self.state(u), H_JAC ** 0.5)
        return 0.5 * (H + H.T)


def _central_diff(F, x, rel):
    """Central differences of F at x, the derivative index on the last axis:
    (F(x + h_j e_j) - F(x - h_j e_j)) / (2 h_j) with h_j = rel * (1 + |x_j|)."""
    h = rel * (1.0 + np.abs(x))
    cols = []
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = h[j]
        cols.append((F(x + e) - F(x - e)) / (2 * h[j]))
    return np.stack(cols, axis=-1)


@dataclass(frozen=True)
class EigenSystem:
    """Sorted eigenvalues with unit right and dual left eigenvectors.

    right[i] is r_i with |r_i| = 1 and its first non-negligible component
    positive; left[i] is l_i with l_i . r_j = delta_ij.
    """

    lambdas: np.ndarray
    right: np.ndarray
    left: np.ndarray


@dataclass(frozen=True)
class FieldClass:
    """Classification of one characteristic family over a sample set.

    g_min/g_max bound the directional derivative of the eigenvalue along
    the (sign-fixed) eigenvector; orientation is +1/-1 so that
    orientation * r_i points in the direction of increasing eigenvalue
    for genuinely nonlinear fields.
    """

    family: int
    tag: str
    g_min: float
    g_max: float
    orientation: int


def _fix_sign(r, threshold=1e-10):
    for c in r:
        if abs(c) > threshold:
            return r if c > 0 else -r
    return r


def eigensystem(model: FluxModel, u) -> EigenSystem:
    """Eigen-decomposition of Df(u), sorted ascending, sign-fixed."""
    u = model.state(u)
    model.require_in_domain(u)
    A = model.jac(u)
    if model.n == 1:
        lam = np.array([A[0, 0]])
        return EigenSystem(lam, np.array([[1.0]]), np.array([[1.0]]))
    if model.n == 2:
        tr = A[0, 0] + A[1, 1]
        disc = 0.25 * (A[0, 0] - A[1, 1]) ** 2 + A[0, 1] * A[1, 0]
        if disc < 0:
            raise NonHyperbolic(f"complex eigenvalues at u={u} (disc={disc:.3e})")
        s = np.sqrt(disc)
        lam = np.array([0.5 * tr - s, 0.5 * tr + s])
        R = np.empty((2, 2))
        for i, l in enumerate(lam):
            # pick the better conditioned row of (A - l I) to null out
            v1 = np.array([A[0, 1], l - A[0, 0]])
            v2 = np.array([l - A[1, 1], A[1, 0]])
            v = v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2
            nv = np.linalg.norm(v)
            if nv == 0:
                raise NonHyperbolic(f"defective Jacobian at u={u}")
            R[i] = _fix_sign(v / nv)
    else:
        w, V = np.linalg.eig(A)
        if np.max(np.abs(w.imag)) > TOL_EIG * max(1.0, np.max(np.abs(w.real))):
            raise NonHyperbolic(f"complex eigenvalues at u={u}")
        order = np.argsort(w.real)
        lam = w.real[order]
        R = np.stack([_fix_sign(np.real(V[:, k]) / np.linalg.norm(np.real(V[:, k])))
                      for k in order])
    gaps = np.diff(lam)
    if np.any(gaps <= TOL_GAP):
        raise NonHyperbolic(
            f"eigenvalue gap {gaps.min():.3e} below tolerance at u={u} (model {model.name!r})")
    try:
        L = np.linalg.inv(R.T)  # rows are left eigenvectors, dual to rows of R
    except np.linalg.LinAlgError as exc:
        raise NonHyperbolic(f"eigenvector matrix singular at u={u}") from exc
    return EigenSystem(lam, R, L)


def eigenvalues(model: FluxModel, u):
    return eigensystem(model, u).lambdas


def gnl_indicator(model: FluxModel, i, u):
    """Directional derivative of lambda_i along the sign-fixed r_i."""
    es = eigensystem(model, u)
    grad = _central_diff(lambda v: eigensystem(model, v).lambdas[i],
                         model.state(u), H_JAC)
    return float(np.dot(grad, es.right[i]))


def classify_field(model: FluxModel, i, samples) -> FieldClass:
    """Tag family i as GNL / LD / neither over the given sample states.

    Genuine nonlinearity is orientation-independent: a strictly constant
    sign of the directional derivative qualifies, and the orientation that
    makes it positive is recorded.
    """
    gs = np.array([gnl_indicator(model, i, u) for u in samples])
    if gs.size == 0:
        raise ConfigError("classify_field needs at least one sample")
    g_min, g_max = float(gs.min()), float(gs.max())
    if max(abs(g_min), abs(g_max)) <= TOL_LD:
        return FieldClass(i, LINEARLY_DEGENERATE, g_min, g_max, +1)
    if g_min > TOL_LD:
        return FieldClass(i, GENUINELY_NONLINEAR, g_min, g_max, +1)
    if g_max < -TOL_LD:
        return FieldClass(i, GENUINELY_NONLINEAR, g_min, g_max, -1)
    return FieldClass(i, NEITHER, g_min, g_max, +1)


def entropy_compatibility_residual(model: FluxModel, samples):
    """Max over samples of |D(eta) . Df - Dq| (central differences)."""
    model.require_entropy_pair()
    worst = 0.0
    for u in samples:
        u = model.state(u)
        r = model.d_entropy(u) @ model.jac(u) - model.d_entropy_flux(u)
        worst = max(worst, float(np.linalg.norm(r)))
    return worst


def normalize_speeds(model: FluxModel, M, target=(0.0, 1.0), check_states=None) -> FluxModel:
    """Affine change of t-x coordinates mapping speeds [-M, M] onto [target].

    The transformed flux is (f(u) + c*u)/d with c, d chosen so that an
    eigenvalue lam maps to (lam + c)/d; states are unchanged, so shocks map
    to shocks with the mapped speed.  Entropy pairs and diffusion matrices
    are transformed consistently.
    """
    alpha, beta = target
    if not (M > 0 and beta > alpha):
        raise ConfigError("need M > 0 and a nondegenerate target interval")
    d = 2.0 * M / (beta - alpha)
    c = alpha * d + M
    if check_states is not None:
        for u in check_states:
            lam = eigenvalues(model, u)
            if np.any(np.abs(lam) > M * (1 + 1e-12)):
                raise SpeedBoundViolated(
                    f"eigenvalue {lam[np.argmax(np.abs(lam))]:.6g} outside [-{M}, {M}] at u={u}")

    f0, jac0 = model.flux, model.jacobian
    eta0, q0 = model.entropy, model.entropy_flux
    B0 = model.diffusion

    def flux(u):
        return (f0(u) + c * u) / d

    jacobian = None
    if jac0 is not None:
        def jacobian(u):
            return (np.asarray(jac0(u)) + c * np.eye(model.n)) / d

    entropy_flux = None
    if eta0 is not None and q0 is not None:
        def entropy_flux(u):
            return (q0(u) + c * eta0(u)) / d

    diffusion = None
    if B0 is not None:
        def diffusion(u):
            return np.asarray(B0(u)) / d

    return replace(model,
                   name=f"{model.name}|speeds[{alpha:g},{beta:g}]",
                   flux=flux, jacobian=jacobian,
                   entropy=eta0, entropy_flux=entropy_flux,
                   diffusion=diffusion)


# ---------------------------------------------------------------------------
# built-in models

def burgers():
    def flux(u):
        return 0.5 * u * u

    return FluxModel(
        name="burgers", n=1, flux=flux,
        jacobian=lambda u: np.array([[u[0]]]),
        entropy=lambda u: np.asarray(u)[..., 0] ** 2,
        entropy_flux=lambda u: (2.0 / 3.0) * np.asarray(u)[..., 0] ** 3,
        entropy_convex=True,
    )


def cubic_flux():
    return FluxModel(
        name="cubic", n=1,
        flux=lambda u: u ** 3,
        jacobian=lambda u: np.array([[3.0 * u[0] ** 2]]),
    )


def advection(c=1.0):
    c = float(c)
    return FluxModel(
        name=f"advection:{c:g}", n=1,
        flux=lambda u: c * u,
        jacobian=lambda u: np.array([[c]]),
        entropy=lambda u: np.asarray(u)[..., 0] ** 2,
        entropy_flux=lambda u: c * np.asarray(u)[..., 0] ** 2,
        entropy_convex=True,
    )


def p_system(k=1.0, gamma=2.0):
    """Isentropic gas dynamics in Lagrangian coordinates, p(v) = k v^-gamma.

    State u = (v, w) with specific volume v > 0 and velocity w;
    fluxes (-w, p(v)).  Entropy w^2/2 + P(v), P'(v) = -p(v).
    """
    k, gamma = float(k), float(gamma)
    if k <= 0 or gamma < 1:
        raise ConfigError("p-system needs k > 0 and gamma >= 1")

    def p(v):
        return k * v ** (-gamma)

    def P(v):  # antiderivative of -p
        if gamma == 1.0:
            return -k * np.log(v)
        return k * v ** (1.0 - gamma) / (gamma - 1.0)

    def flux(u):
        v, w = u[..., 0], u[..., 1]
        return np.stack([-w, p(v)], axis=-1)

    def jacobian(u):
        v = u[0]
        return np.array([[0.0, -1.0], [-gamma * k * v ** (-gamma - 1.0), 0.0]])

    def entropy(u):
        v, w = u[..., 0], u[..., 1]
        return 0.5 * w * w + P(v)

    def entropy_flux(u):
        v, w = u[..., 0], u[..., 1]
        return w * p(v)

    return FluxModel(
        name=f"psystem:{k:g},{gamma:g}", n=2,
        flux=flux, jacobian=jacobian,
        entropy=entropy, entropy_flux=entropy_flux, entropy_convex=True,
        lo=np.array([1e-8, -np.inf]),
    )


def linear_system(a11, a12, a21, a22):
    M = np.array([[a11, a12], [a21, a22]], dtype=float)

    def flux(u):
        return u @ M.T

    return FluxModel(
        name=f"linear2:{a11:g},{a12:g},{a21:g},{a22:g}", n=2,
        flux=flux, jacobian=lambda u: M,
    )


def model_from_name(spec: str) -> FluxModel:
    """Build a built-in model from its CLI/config name string."""
    head, _, args = spec.partition(":")
    try:
        if head == "burgers":
            return burgers()
        if head == "cubic":
            return cubic_flux()
        if head == "advection":
            return advection(float(args) if args else 1.0)
        if head == "psystem":
            vals = [float(a) for a in args.split(",")] if args else []
            return p_system(*vals)
        if head == "linear2":
            vals = [float(a) for a in args.split(",")]
            if len(vals) != 4:
                raise ConfigError("linear2 needs 4 entries a11,a12,a21,a22")
            return linear_system(*vals)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad model arguments in {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown model {spec!r}")
