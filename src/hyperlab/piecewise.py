"""Piecewise-constant profiles and grid solutions.

States are always arrays of shape (n,); profiles store values of shape
(m+1, n) so scalar and system code share every kernel.  All geometry
(integrals, averages, distances) is computed in closed form.
`PiecewiseConstantFn` is the one place that measures a profile (total
variation, integrals, cell averages, L1 distance); a `GridSolution` measures
a snapshot through `as_piecewise`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def as_state(u, n=None):
    """Coerce a scalar / sequence to a float state vector of shape (n,)."""
    a = np.atleast_1d(np.asarray(u, dtype=float))
    if a.ndim != 1:
        raise ValueError(f"state must be one-dimensional, got shape {a.shape}")
    if n is not None and a.shape[0] != n:
        raise ValueError(f"state has dimension {a.shape[0]}, model expects {n}")
    return a


@dataclass(frozen=True)
class PiecewiseConstantFn:
    """Breakpoints x_1 < ... < x_m with values u_0, ..., u_m.

    vals[j] is the value on (xs[j-1], xs[j]); vals[0] extends to -inf and
    vals[m] to +inf.  Evaluation is right-continuous at breakpoints.
    """

    xs: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        vals = np.asarray(self.vals, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if xs.ndim != 1 or vals.shape[0] != xs.shape[0] + 1:
            raise ValueError("need m breakpoints and m+1 values")
        if xs.size > 1 and not np.all(np.diff(xs) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "vals", vals)

    @property
    def n(self):
        return self.vals.shape[1]

    @classmethod
    def riemann(cls, u_left, u_right, x=0.0):
        u_left = as_state(u_left)
        u_right = as_state(u_right, u_left.shape[0])
        return cls(np.array([x]), np.stack([u_left, u_right]))

    @classmethod
    def constant(cls, u):
        u = as_state(u)
        return cls(np.array([]), np.stack([u]))

    @classmethod
    def from_fronts(cls, left, xs, rights):
        """Fronts at positions xs, left to right, with states rights on their
        right and left on the far left; a front at or left of the last kept
        one is stacked on it (an event instant, equal speeds): its state wins."""
        xs = np.maximum.accumulate(np.asarray(xs, dtype=float))
        top = np.append(xs[1:] > xs[:-1], True)[:xs.size]  # the last of each stack
        return cls(xs[top], np.array([left, *rights])[np.append(True, top)])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.xs, x, side="right")
        out = self.vals[idx]
        return out

    def jumps(self):
        """Euclidean size of the jump at each breakpoint, shape (m,)."""
        d = np.diff(self.vals, axis=0)
        return np.linalg.norm(d, axis=1)

    def tv(self, a=None, b=None):
        """Total variation over the open interval (a, b); whole line by default."""
        if self.xs.size == 0:
            return 0.0
        mask = np.ones(self.xs.size, dtype=bool)
        if a is not None:
            mask &= self.xs > a
        if b is not None:
            mask &= self.xs < b
        return float(np.sum(self.jumps()[mask]))

    def shifted(self, xi):
        return PiecewiseConstantFn(self.xs + xi, self.vals)

    def simplified(self, tol=0.0):
        """Drop breakpoints whose jump does not exceed tol."""
        keep = self.jumps() > tol
        if np.all(keep):
            return self
        return PiecewiseConstantFn(self.xs[keep],
                                   np.concatenate([self.vals[:1], self.vals[1:][keep]]))

    def _antiderivative(self, x):
        """(k, F) at the ascending points x: k the piece holding each point
        and F the exact integral, shape (len(x), n), from a reference point
        at or left of x[0] and of every breakpoint."""
        ref = min(x[0], self.xs[0] - 1.0) if self.xs.size else x[0]
        nodes = np.concatenate([[ref], self.xs])
        cum = np.concatenate([np.zeros((1, self.n)),
                              np.cumsum(self.vals[:-1] * np.diff(nodes)[:, None], axis=0)])
        k = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, nodes.size - 1)
        return k, cum[k] + self.vals[k] * (x - nodes[k])[:, None]

    def integral(self, a, b):
        """Exact integral of the (vector) profile over [a, b], shape (n,)."""
        if b < a:
            raise ValueError("empty interval")
        F = self._antiderivative(np.array([a, b], dtype=float))[1]
        return F[1] - F[0]

    def cell_averages(self, x0, dx, ncells):
        """Exact averages over the cells [x0 + k*dx, x0 + (k+1)*dx).

        Cells lying inside a single piece get that piece's value exactly
        (no roundoff), which keeps step data sharp."""
        k, F = self._antiderivative(x0 + dx * np.arange(ncells + 1))
        avg = np.diff(F, axis=0) / dx
        same = k[:-1] == k[1:]
        avg[same] = self.vals[k[:-1][same]]
        return avg

    def l1_distance(self, other, a, b):
        """Exact L1 distance to another piecewise-constant profile on [a, b]."""
        cuts = np.concatenate([[a], self.xs, other.xs, [b]])
        cuts = np.unique(np.clip(cuts, a, b))
        mids = 0.5 * (cuts[:-1] + cuts[1:])
        lengths = np.diff(cuts)
        diff = self(mids) - other(mids)
        return float(np.sum(np.linalg.norm(diff, axis=1) * lengths))


@dataclass
class GridSolution:
    """Time-indexed cell-averaged states on a uniform mesh.

    x0 is the left edge of cell 0; cell k occupies [x0 + k*dx, x0 + (k+1)*dx).
    states has shape (ntimes, ncells, n).
    """

    x0: float
    dx: float
    times: np.ndarray
    states: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.states.ndim == 2:
            self.states = self.states[:, :, None]
        if self.states.shape[0] != self.times.shape[0]:
            raise ValueError("one snapshot per stored time required")
        if self.dx <= 0:
            raise ValueError("dx must be positive")

    @property
    def ncells(self):
        return self.states.shape[1]

    @property
    def n(self):
        return self.states.shape[2]

    @property
    def xmax(self):
        return self.x0 + self.ncells * self.dx

    def centers(self):
        return self.x0 + self.dx * (np.arange(self.ncells) + 0.5)

    def edges(self):
        return self.x0 + self.dx * np.arange(self.ncells + 1)

    def time_index(self, t):
        """Index of the last stored snapshot at or before t (the first one
        for t before it): the run is held piecewise constant in time.  The
        1e-14 slack keeps a time rounded just below a snapshot on it."""
        return max(int(np.searchsorted(self.times, t + 1e-14, side="right")) - 1, 0)

    def row(self, t):
        return self.states[self.time_index(t)]

    def as_piecewise(self, t):
        row = self.row(t)
        edges = self.edges()[1:-1]
        if edges.size == 0:
            return PiecewiseConstantFn.constant(row[0])
        return PiecewiseConstantFn(edges, row)

    def mass(self, t):
        return self.row(t).sum(axis=0) * self.dx

    def tv(self, t):
        return self.as_piecewise(t).tv()

    def l1_distance(self, other: PiecewiseConstantFn, t):
        """Exact L1 distance over the grid at time t to a profile."""
        return self.as_piecewise(t).l1_distance(other, self.x0, self.xmax)
