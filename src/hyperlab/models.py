"""Flux models u_t + f(u)_x = 0: eigenstructure, field type, entropy pairs.

Built-in models carry analytic fluxes and Jacobians, both vectorized over
rows of states (backward Euler takes the Jacobians of a whole grid in one
call); user models without a Jacobian fall back to central finite
differences.  `eigenvalues` is the batched speed scan every speed bound
reads; `eigensystem` is the one-state decomposition with eigenvectors the
Riemann solvers and `gnl_indicator` read, in closed form for n = 2 and by
`np.linalg.eig` otherwise, and `_eigensystems` is the same over rows, the
frames of the RH chain.  Every derivative the library differences goes
through one helper, `_central_diff(F, x, rel)`, which steps coordinate j by
h_j = rel * (1 + |x_j|), at one point or at rows of points.
The steps per site: the Jacobian fallback, the entropy gradients and
`gnl_indicator`, which differences every eigenvalue at once, use rel =
H_JAC; `entropy_hessian` differences the entropy gradient with rel =
sqrt(H_JAC); the cell speeds f'(u) of `schemes.mollification_run` use 1e-7.
All operations are pure and models are immutable, so everything here is
safe to evaluate from concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import (ConfigError, HyperlabError, NonHyperbolic, OutOfDomain,
                     SpeedRangeViolation)
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
        # the box as floats, for the one-state test
        object.__setattr__(self, "_box", tuple(zip(lo.tolist(), hi.tolist())))

    def state(self, u):
        return as_state(u, self.n)

    def contains(self, u):
        """Whether all the states (..., n) lie in the domain box.  One state,
        an array of shape (n,), is compared on Python floats, which costs
        about a third of the array test and gives the same answer (NaN lies
        in no box, and an infinite bound holds its own infinity)."""
        if getattr(u, "shape", None) == (self.n,):
            for (a, b), x in zip(self._box, u.tolist()):
                if not a <= x <= b:
                    return False
            return True
        return bool(((u >= self.lo) & (u <= self.hi)).all())

    def require_in_domain(self, u):
        """OutOfDomain at the first of the states (..., n) outside the box."""
        if not self.contains(u):
            bad = next(s for s in np.reshape(u, (-1, self.n)) if not self.contains(s))
            raise OutOfDomain(f"state {bad} outside domain box of model {self.name!r}")

    def f(self, u):
        return np.asarray(self.flux(np.asarray(u, dtype=float)), dtype=float)

    def jac(self, u):
        """Df at one state (n,) -> (n, n) or at rows (..., n) -> (..., n, n).
        One state that is already of shape (n,) skips `state`, which would
        return it unchanged; any other one-state input goes through it."""
        u = np.asarray(u, dtype=float)
        if u.ndim < 2 and u.shape != (self.n,):
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
            raise ConfigError(f"model {self.name!r} has no entropy pair")

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
    """The unit vector r with its first component above 1e-10 in size made
    positive; one of at least 1/sqrt(n) always is."""
    for c in r:
        if abs(c) > 1e-10:
            return r if c > 0 else -r


def eigensystem(model: FluxModel, u) -> EigenSystem:
    """Eigen-decomposition of Df(u), sorted ascending, sign-fixed: the closed
    form for n = 2, `np.linalg.eig` for any other n.  A non-finite Jacobian
    raises NonHyperbolic, as in `eigenvalues`."""
    u = model.state(u)
    model.require_in_domain(u)
    A = model.jac(u)
    return (_eigensystem_2x2 if model.n == 2 else _eigensystem_eig)(model, u, A)


def _eigensystem_eig(model, u, A):
    """The eigensystem of any n by np.linalg.eig and np.linalg.inv."""
    if not np.isfinite(A).all():
        raise NonHyperbolic(f"non-finite Jacobian at u={u}")
    w, V = np.linalg.eig(A)
    order = np.argsort(_real(w, u))
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
    if not all(map(math.isfinite, (a, b, c, d))):
        raise NonHyperbolic(f"non-finite Jacobian at u={u}")
    disc = 0.25 * (a - d) ** 2 + b * c
    if disc < 0:
        raise NonHyperbolic(f"complex eigenvalues at u={u} (disc={disc:.3e})")
    lam = [0.5 * (a + d) - math.sqrt(disc), 0.5 * (a + d) + math.sqrt(disc)]
    R = []
    for l in lam:
        # the longer row; the first on a tie
        (x, y), (x2, y2) = (b, l - a), (l - d, c)
        nv, nv2 = math.hypot(x, y), math.hypot(x2, y2)
        if nv2 > nv:
            x, y, nv = x2, y2, nv2
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


_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _eigensystems(model, u):
    """`eigensystem` at each row of u (K, n): lambdas (K, n), right and left
    (K, n, n), and per row None or the HyperlabError that `eigensystem`
    raises there; a refused row's arrays mean nothing.  For n = 2 the closed
    form of `_eigensystem_2x2` runs elementwise, one Jacobian call for all
    rows, within a few ulp of `eigensystem`, not bit for bit: a Jacobian
    over rows can round unlike one over one state (array powers against
    scalar ones), and np.hypot unlike math.hypot.  A row that the closed
    form cannot take (outside the box, non-finite, complex, defective,
    singular or below the gap), and every row for any other n, is
    `eigensystem`'s own call, its refusal included."""
    K, n = u.shape
    if n != 2:
        lam, R, L = np.zeros((K, n)), np.zeros((K, n, n)), np.zeros((K, n, n))
        alone = np.ones(K, dtype=bool)
    else:
        A = model.jac(u)
        a, b, c, d = A[:, 0, :1], A[:, 0, 1:], A[:, 1, :1], A[:, 1, 1:]  # columns (K, 1)
        with np.errstate(all="ignore"):
            disc = 0.25 * (a - d) ** 2 + b * c
            root = np.sqrt(disc)
            lam = np.concatenate([0.5 * (a + d) - root, 0.5 * (a + d) + root], axis=1)
            # for both eigenvalues at once: the longer row of A - lambda I
            # turned a quarter, the first on a tie
            x, y, x2, y2 = b, lam - a, lam - d, c
            nv, nv2 = np.hypot(x, y), np.hypot(x2, y2)
            longer = nv2 > nv
            x, y, nv = (np.where(longer, x2, x), np.where(longer, y2, y),
                        np.where(longer, nv2, nv))
            x, y = x / nv, y / nv
            flip = (x < -1e-10) | ((np.abs(x) <= 1e-10) & (y < -1e-10))  # as in _fix_sign
            sign = np.where(flip, -1.0, 1.0)
            R = np.stack([x * sign, y * sign], axis=2)
            # L = adj(R^T) / det R: R reversed on both axes, with the
            # off-diagonal signs turned
            det = R[:, 0, 0] * R[:, 1, 1] - R[:, 1, 0] * R[:, 0, 1]
            L = R[:, ::-1, ::-1] * _ADJUGATE_SIGNS / det[:, None, None]
        # complex, defective and singular all leave L not finite
        alone = (~((u >= model.lo) & (u <= model.hi)).all(axis=1)
                 | ~np.isfinite(A).all(axis=(1, 2)) | ~np.isfinite(L).all(axis=(1, 2))
                 | (lam[:, 1] - lam[:, 0] <= TOL_GAP))
    errors = [None] * K
    for k in np.flatnonzero(alone):
        try:
            es = eigensystem(model, u[k])
        except HyperlabError as exc:
            errors[k] = exc
            continue
        lam[k], R[k], L[k] = es.lambdas, es.right, es.left
    return lam, R, L, errors


def _real(w, u):
    """Re w for the eigenvalues w (..., n) at u (..., n), refusing complex ones."""
    bad = np.abs(w.imag).max(axis=-1) > TOL_EIG * np.maximum(1.0, np.abs(w.real).max(axis=-1))
    if bad.any():
        raise NonHyperbolic(f"complex eigenvalues at u={u[bad][0]}")
    return w.real


def eigenvalues(model: FluxModel, u):
    """Sorted eigenvalues of Df at one state (n,) -> (n,) or at rows
    (..., n) -> (..., n), from one np.linalg.eigvals call.  A state outside
    the box raises OutOfDomain, a non-finite Jacobian or complex eigenvalues
    NonHyperbolic, naming the first such state; coincident eigenvalues pass."""
    u = model.state(u) if np.ndim(u) < 2 else np.asarray(u, dtype=float)
    model.require_in_domain(u)
    A = model.jac(u)
    finite = np.isfinite(A).all(axis=(-2, -1))
    if not finite.all():
        raise NonHyperbolic(f"non-finite Jacobian at u={u[~finite][0]}")
    return np.sort(_real(np.linalg.eigvals(A), u), axis=-1)


def _check_speed_range(model: FluxModel, states, lo, hi):
    """SpeedRangeViolation at the worst speed at the states outside [lo, hi]."""
    u = np.asarray(states, dtype=float).reshape(-1, model.n)
    lam = eigenvalues(model, u)
    excess = np.maximum(lo - lam, lam - hi)
    k, i = np.unravel_index(np.argmax(excess), excess.shape)
    if excess[k, i] > 0:
        raise SpeedRangeViolation(
            f"speed {lam[k, i]:.6g} outside [{lo:.6g}, {hi:.6g}] at u={u[k]}")


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


def normalize_speeds(model: FluxModel, M, target=(0.0, 1.0)) -> FluxModel:
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
