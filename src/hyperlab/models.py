"""Flux models u_t + f(u)_x = 0: eigenstructure, field type, entropy pairs.

Built-in models carry analytic fluxes and Jacobians, both vectorized over
rows of states (backward Euler takes the Jacobians of a whole grid in one
call); user models without a Jacobian fall back to central finite
differences.  Every derivative the library differences goes through one
helper, `_central_diff(F, x, rel)`, which steps coordinate j by
h_j = rel * (1 + |x_j|), at one point or at rows of points.  The steps per
site: the Jacobian fallback, the entropy gradients and `gnl_indicator`,
which differences every eigenvalue at once, use rel = H_JAC;
`entropy_hessian` differences the entropy gradient with rel = sqrt(H_JAC);
the cell speeds f'(u) of `schemes.mollification_run` use 1e-7.  All
operations are pure and models are immutable, so everything here is safe
to evaluate from concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import (ConfigError, MissingEntropyPair, NonHyperbolic,
                     OutOfDomain, SpeedBoundViolated)
from .piecewise import as_state

TOL_EIG = 1e-9
TOL_LD = 1e-8
TOL_GAP = 1e-8
H_JAC = 1e-6

GENUINELY_NONLINEAR = "genuinely nonlinear"
LINEARLY_DEGENERATE = "linearly degenerate"
NEITHER = "neither"


@dataclass(frozen=True)
class FluxModel:
    """A system u_t + f(u)_x = 0 of dimension n.

    flux maps (..., n) -> (..., n) and jacobian maps (..., n) -> (..., n, n),
    both vectorized over leading axes; `jac` raises ConfigError when a
    jacobian returns any other shape (one written for a single state and
    given rows, say).  entropy/entropy_flux, when present, map (..., n) ->
    (...).  lo/hi bound the admissible state box.
    """

    name: str
    n: int
    flux: Callable
    jacobian: Optional[Callable] = None
    entropy: Optional[Callable] = None
    entropy_flux: Optional[Callable] = None
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
        return bool(((u >= self.lo) & (u <= self.hi)).all())

    def require_in_domain(self, u):
        if not self.contains(u):
            raise OutOfDomain(f"state {np.asarray(u)} outside domain box of model {self.name!r}")

    def f(self, u):
        return np.asarray(self.flux(np.asarray(u, dtype=float)), dtype=float)

    def jac(self, u):
        """Df at one state (n,) -> (n, n) or at rows (..., n) -> (..., n, n)."""
        u = np.asarray(u, dtype=float)
        if u.ndim < 2:
            u = self.state(u)
        if self.jacobian is None:
            return _central_diff(self.f, u, H_JAC)
        A = np.asarray(self.jacobian(u), dtype=float)
        if A.shape != u.shape + (self.n,):
            raise ConfigError(f"jacobian of model {self.name!r} maps states of shape "
                              f"{u.shape} to {A.shape}, not {u.shape + (self.n,)}")
        return A

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
    """Central differences of F at x (m,) or at rows x (..., m), the
    derivative index on the last axis: (F(x + h_j e_j) - F(x - h_j e_j)) /
    (2 h_j) with h_j = rel * (1 + |x_j|)."""
    h = rel * (1.0 + np.abs(x))
    cols = []
    for j in range(x.shape[-1]):
        e = np.zeros(x.shape)
        e[..., j] = h[..., j]
        # transposed, h_j lines up with the leading axes of F's output
        cols.append(((F(x + e) - F(x - e)).T / (2 * h[..., j]).T).T)
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
    """Classification of one characteristic family (its index in the list
    `classify_field` returns) over a sample set.

    g_min/g_max bound the directional derivative of the eigenvalue along
    the (sign-fixed) eigenvector; orientation is +1/-1 so that
    orientation * r_i points in the direction of increasing eigenvalue
    for genuinely nonlinear fields.
    """

    tag: str
    g_min: float
    g_max: float
    orientation: int


def _fix_sign(r):
    for c in r:
        if abs(c) > 1e-10:
            return r if c > 0 else -r
    return r


def eigensystem(model: FluxModel, u) -> EigenSystem:
    """Eigen-decomposition of Df(u), sorted ascending, sign-fixed."""
    u = model.state(u)
    model.require_in_domain(u)
    A = model.jac(u)
    if model.n == 1:
        return EigenSystem(np.array([A[0, 0]]), np.array([[1.0]]), np.array([[1.0]]))
    return (_eigensystem_2x2 if model.n == 2 else _eigensystem_eig)(model, u, A)


def _eigensystem_eig(model, u, A):
    """The eigensystem of any n by np.linalg.eig and np.linalg.inv."""
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


def _eigensystem_2x2(model, u, A):
    """Closed form for n = 2: r_i is the longer row of A - lambda_i I turned a
    quarter, L the adjugate of R^T over det R.  A double eigenvalue fails as
    A = lambda I (defective), as a Jordan block (singular R) or on the gap."""
    (a, b), (c, d) = A.tolist()
    disc = 0.25 * (a - d) ** 2 + b * c
    if disc < 0:
        raise NonHyperbolic(f"complex eigenvalues at u={u} (disc={disc:.3e})")
    lam = [0.5 * (a + d) - math.sqrt(disc), 0.5 * (a + d) + math.sqrt(disc)]
    R = []
    for l in lam:
        x, y = max((b, l - a), (l - d, c), key=lambda v: math.hypot(*v))
        nv = math.hypot(x, y)
        if nv == 0:
            raise NonHyperbolic(f"defective Jacobian at u={u}")
        x, y = x / nv, y / nv
        if x < -1e-10 or (abs(x) <= 1e-10 and y < -1e-10):  # as in _fix_sign
            x, y = -x, -y
        R.append((x, y))
    (p, q), (r, s) = R
    det = p * s - r * q
    if det == 0:
        raise NonHyperbolic(f"eigenvector matrix singular at u={u}")
    if lam[1] - lam[0] <= TOL_GAP:
        raise NonHyperbolic(f"eigenvalue gap {lam[1] - lam[0]:.3e} below tolerance "
                            f"at u={u} (model {model.name!r})")
    return EigenSystem(np.array(lam), np.array(R), np.array([[s, -r], [-q, p]]) / det)


def eigenvalues(model: FluxModel, u):
    return eigensystem(model, u).lambdas


def gnl_indicator(model: FluxModel, u):
    """Directional derivatives of all lambda_i along the sign-fixed r_i."""
    es = eigensystem(model, u)
    grad = _central_diff(lambda v: eigensystem(model, v).lambdas,
                         model.state(u), H_JAC)
    return np.array([np.dot(g, r) for g, r in zip(grad, es.right)])


def classify_field(model: FluxModel, samples) -> list:
    """GNL / LD / neither for each family over the samples, in family order.

    Genuine nonlinearity is orientation-independent: a strictly constant
    sign of the directional derivative qualifies, and the orientation that
    makes it positive is recorded.
    """
    if len(samples) == 0:
        raise ConfigError("classify_field needs at least one sample")
    fields = []
    for g in np.array([gnl_indicator(model, u) for u in samples]).T:
        g_min, g_max = float(g.min()), float(g.max())
        if max(abs(g_min), abs(g_max)) <= TOL_LD:
            tag = LINEARLY_DEGENERATE
        elif g_min > TOL_LD or g_max < -TOL_LD:
            tag = GENUINELY_NONLINEAR
        else:
            tag = NEITHER
        fields.append(FieldClass(tag, g_min, g_max, -1 if g_max < -TOL_LD else +1))
    return fields


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
    to shocks with the mapped speed.  Entropy pairs are transformed
    consistently.
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

    def flux(u):
        return (f0(u) + c * u) / d

    jacobian = None
    if jac0 is not None:
        shift = c * np.eye(model.n)

        def jacobian(u):
            return (np.asarray(jac0(u)) + shift) / d

    entropy_flux = None
    if eta0 is not None and q0 is not None:
        def entropy_flux(u):
            return (q0(u) + c * eta0(u)) / d

    return replace(model,
                   name=f"{model.name}|speeds[{alpha:g},{beta:g}]",
                   flux=flux, jacobian=jacobian,
                   entropy=eta0, entropy_flux=entropy_flux)


# ---------------------------------------------------------------------------
# built-in models

def _first(u):
    """Component 0 of one state as a float (whose powers can differ from an
    array's in the last bit), or of each row."""
    return u.T[0].T


def burgers():
    def flux(u):
        return 0.5 * u * u

    return FluxModel(
        name="burgers", n=1, flux=flux,
        jacobian=lambda u: u[..., None].copy(),
        entropy=lambda u: np.asarray(u)[..., 0] ** 2,
        entropy_flux=lambda u: (2.0 / 3.0) * np.asarray(u)[..., 0] ** 3,
    )


def cubic_flux():
    return FluxModel(
        name="cubic", n=1,
        flux=lambda u: u ** 3,
        jacobian=lambda u: (3.0 * _first(u) ** 2)[..., None, None],
    )


def advection(c=1.0):
    c = float(c)
    return FluxModel(
        name=f"advection:{c:g}", n=1,
        flux=lambda u: c * u,
        jacobian=lambda u: np.full(u.shape + (1,), c),
        entropy=lambda u: np.asarray(u)[..., 0] ** 2,
        entropy_flux=lambda u: c * np.asarray(u)[..., 0] ** 2,
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
        out = np.empty(u.shape)
        out[..., 0] = -u[..., 1]
        out[..., 1] = p(u[..., 0])
        return out

    def jacobian(u):
        v = _first(u)
        J = np.zeros(v.shape + (2, 2))
        J[..., 0, 1] = -1.0
        J[..., 1, 0] = -gamma * k * v ** (-gamma - 1.0)
        return J

    def entropy(u):
        v, w = u[..., 0], u[..., 1]
        return 0.5 * w * w + P(v)

    def entropy_flux(u):
        v, w = u[..., 0], u[..., 1]
        return w * p(v)

    return FluxModel(
        name=f"psystem:{k:g},{gamma:g}", n=2,
        flux=flux, jacobian=jacobian,
        entropy=entropy, entropy_flux=entropy_flux,
        lo=np.array([1e-8, -np.inf]),
    )


def linear_system(a11, a12, a21, a22):
    M = np.array([[a11, a12], [a21, a22]], dtype=float)

    def flux(u):
        return u @ M.T

    return FluxModel(
        name=f"linear2:{a11:g},{a12:g},{a21:g},{a22:g}", n=2,
        flux=flux, jacobian=lambda u: np.broadcast_to(M, u.shape + (2,)),
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
