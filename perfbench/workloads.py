"""The benchmark's workloads: seeded input generators, the timed solve and
check phases of one problem, and the output checks.

Each workload is a fixed batch of problems.  Problem ``i`` of seed ``s`` is
drawn from ``numpy.random.default_rng([s, i])``; the seed changes data
values only, never the number of jumps, the grid or the time span.  The
library sees nothing but the generated ``PiecewiseConstantFn`` and a
``SchemeConfig``.

Every call into the library goes through a module attribute looked up at
call time (``fronts.front_tracking_run(...)``), so the traced run sees it.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from hyperlab import fronts, models, riemann, schemes, verify
from hyperlab.errors import HyperlabError
from hyperlab.piecewise import PiecewiseConstantFn
from hyperlab.schemes import SchemeConfig

# Failures that count against fail_frac instead of aborting the run.
PROBLEM_ERRORS = (HyperlabError, np.linalg.LinAlgError)

TOL_RH = 1e-9
TOL_MASS = 1e-10


class CheckFailed(Exception):
    """An output check of one problem failed."""


@dataclass(frozen=True)
class Problem:
    index: int
    data: PiecewiseConstantFn
    cfg: SchemeConfig
    reference: object = None


@dataclass
class Outcome:
    """What one execution of one problem measured and produced."""

    wall_s: float
    solve_s: float
    verify_s: float
    error: str = ""
    fingerprint: str = ""
    layer: dict = field(default_factory=dict)


def _fingerprint(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _burgers_pulses(rng, x_start, n_pulses, height, width, gap):
    """Base state 0 with up-jump/down-jump pulses: each rarefaction catches
    the shock in front of it."""
    xs, vals = [], [0.0]
    x = x_start
    for _ in range(n_pulses):
        h = rng.uniform(*height)
        w = rng.uniform(*width)
        xs += [x, x + w]
        vals += [h, 0.0]
        x += w + rng.uniform(*gap)
    return PiecewiseConstantFn(np.array(xs), np.array(vals)[:, None])


def _psystem_jump(u, a1, a2):
    """u + a1 r1(u) + a2 r2(u) for p(v) = v^-2 (k=1, gamma=2).

    r1 = (1, c) and r2 = (1, -c) with sound speed c = sqrt(2) v^-1.5;
    a1 > 0 is a 1-rarefaction, a2 > 0 a 2-shock (to first order)."""
    c = math.sqrt(2.0) * u[0] ** -1.5
    return u + a1 * np.array([1.0, c]) + a2 * np.array([1.0, -c])


def _rh_audit(model, sol):
    """Worst RH residual over every distinct physical front of every epoch."""
    worst = 0.0
    seen = set()
    for ep in sol.epochs:
        for f in ep.fronts:
            if f.kind == "non-physical" or id(f) in seen:
                continue
            seen.add(id(f))
            worst = max(worst, riemann.rh_residual(model, f.u_l, f.u_r, f.speed))
    return worst


def _front_layer(sol):
    return {"fronts.events": len(sol.events),
            "fronts.max_fronts": max(len(ep.fronts) for ep in sol.epochs),
            "fronts.np_total": float(sol.np_total)}


def _grid_layer(sol, scheme):
    steps = int(round((sol.times[-1] - sol.times[0]) / sol.meta["dt"]))
    return {f"schemes.{scheme}.cell_updates": sol.ncells * steps}


class Workload:
    """A fixed batch of seeded problems with a solve and a check phase."""

    name = ""
    batch = 1
    model = None

    def make_model(self):
        raise NotImplementedError

    def build(self):
        """Build the workload's flux model once; set-up time covers this."""
        self.model = self.make_model()

    def problem(self, seed, index):
        raise NotImplementedError

    def with_reference(self, problem):
        """Attach the accuracy reference; never timed."""
        return problem

    def solve(self, problem):
        raise NotImplementedError

    def verify(self, problem, sol):
        """Library calls that check the output; returns check inputs."""
        raise NotImplementedError

    def check(self, problem, sol, checked):
        """Benchmark-side output checks; returns per-layer outputs."""
        raise NotImplementedError

    def fingerprint(self, sol):
        raise NotImplementedError

    def problems(self, seed):
        return [self.with_reference(self.problem(seed, i)) for i in range(self.batch)]

    def execute(self, problem):
        """Run one problem: timed solve, timed check calls, output checks."""
        clock = time.perf_counter
        t0 = clock()
        t1 = t2 = None
        error, fp, layer = "", "", {}
        try:
            sol = self.solve(problem)
            t1 = clock()
            checked = self.verify(problem, sol)
            t2 = clock()
            layer = self.check(problem, sol, checked)
            fp = self.fingerprint(sol)
        except PROBLEM_ERRORS as exc:
            error = f"{type(exc).__name__}: {exc}"
        except CheckFailed as exc:
            error = f"check failed: {exc}"
        t3 = clock()
        t1 = t3 if t1 is None else t1
        t2 = t3 if t2 is None else t2
        return Outcome(t3 - t0, t1 - t0, t2 - t1, error, fp, layer)


class CertifyBurgers(Workload):
    """Front tracking of Burgers pulses, then the eps-certificate."""

    name = "certify-burgers"
    batch = 5
    DOMAIN = (-0.5, 2.5)
    N_PROBE = 3
    SCALES = 2

    def make_model(self):
        return models.burgers()

    def problem(self, seed, index):
        rng = np.random.default_rng([seed, index])
        data = _burgers_pulses(rng, 0.0, 2, height=(0.7, 0.9),
                               width=(0.15, 0.2), gap=(0.25, 0.35))
        cfg = SchemeConfig(eps=1.0, T=1.0, domain=self.DOMAIN, delta=0.05)
        return Problem(index, data, cfg)

    def solve(self, problem):
        return fronts.front_tracking_run(self.model, problem.data, problem.cfg)

    def verify(self, problem, sol):
        model = self.model
        data, cfg = problem.data, problem.cfg
        # L1-Lipschitz constant in time: max speed times total variation
        lip = float(np.max(np.abs(data.vals))) * data.tv()
        x0, x1 = cfg.domain
        family = verify.default_family(0.0, cfg.T, x0, x1, scales=self.SCALES)
        view = verify.FrontTrackingView(sol, cfg.domain)
        cert = verify.certify_eps_approx(view, model, lip, initial_data=data,
                                         family=family, n_probe=self.N_PROBE,
                                         entropy=True)
        rh = _rh_audit(model, sol)
        masses = (sol.state(0.0).integral(x0, x1), sol.state(cfg.T).integral(x0, x1))
        return cert, rh, masses

    def check(self, problem, sol, checked):
        cert, rh, (m0, mT) = checked
        final = sol.state(problem.cfg.T)
        _require(np.all(np.isfinite(final.vals)) and np.all(np.isfinite(final.xs)),
                 "non-finite state")
        _require(rh <= TOL_RH, f"RH residual {rh:.3g}")
        # background state 0 has zero flux at both ends of the domain
        _require(np.all(np.abs(mT - m0) <= TOL_MASS), f"mass drift {np.abs(mT - m0)}")
        _require(math.isfinite(cert.eps) and cert.eps <= problem.cfg.delta,
                 f"certificate eps {cert.eps:.3g} above delta")
        return {**_front_layer(sol), "verify.cert_eps": float(cert.eps)}

    def fingerprint(self, sol):
        last = sol.epochs[-1]
        return _fingerprint([f.speed for f in last.fronts],
                            [float(f.pos) for f in last.fronts],
                            [e["t"] for e in sol.events])


class GlimmPsystem(Workload):
    """Glimm's scheme on the speed-normalised p-system."""

    name = "glimm-psystem"
    batch = 2
    DOMAIN = (-0.2, 1.0)
    EPS_REF = 1.0 / 1600

    def make_model(self):
        return models.normalize_speeds(models.p_system(), M=1.6)

    def problem(self, seed, index):
        rng = np.random.default_rng([seed, index])
        ul = np.array([1.0 + rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01)])
        # a 1-rarefaction and a 2-shock, well inside the small-data radius
        ur = _psystem_jump(ul, rng.uniform(0.029, 0.031), rng.uniform(0.017, 0.019))
        data = PiecewiseConstantFn.riemann(ul, ur)
        cfg = SchemeConfig(eps=0.01, T=0.5, domain=self.DOMAIN)
        return Problem(index, data, cfg)

    def with_reference(self, problem):
        # fine-grid upwind run: the normalised speeds lie in [0, 1]
        cfg = SchemeConfig(eps=self.EPS_REF, T=problem.cfg.T, domain=self.DOMAIN)
        ref = schemes.godunov_run(self.model, problem.data, cfg)
        return Problem(problem.index, problem.data, problem.cfg,
                       ref.as_piecewise(problem.cfg.T))

    def solve(self, problem):
        return schemes.glimm_run(self.model, problem.data, problem.cfg)

    def verify(self, problem, sol):
        return sol.l1_distance(problem.reference, problem.cfg.T)

    def check(self, problem, sol, l1_err):
        _require(np.all(np.isfinite(sol.states)), "non-finite state")
        _require(math.isfinite(l1_err), "non-finite L1 error")
        return {**_grid_layer(sol, "glimm"), "schemes.l1_err": float(l1_err)}

    def fingerprint(self, sol):
        return _fingerprint(sol.states)


class ImplicitBurgers(Workload):
    """Backward Euler on Burgers normalised to speeds [1, 2]."""

    name = "implicit-burgers"
    batch = 1
    DOMAIN = (0.0, 6.0)  # 2,400 cells of eps/4, 100 steps of eps
    DELTA_REF = 0.005

    def make_model(self):
        return models.normalize_speeds(models.burgers(), M=1.0, target=(1.0, 2.0))

    def problem(self, seed, index):
        rng = np.random.default_rng([seed, index])
        data = _burgers_pulses(rng, 0.5, 2, height=(0.7, 0.9),
                               width=(0.2, 0.3), gap=(0.3, 0.4))
        cfg = SchemeConfig(eps=0.01, T=1.0, domain=self.DOMAIN)
        return Problem(index, data, cfg)

    def with_reference(self, problem):
        # front tracking is exact up to the rarefaction splitting delta
        cfg = SchemeConfig(eps=1.0, T=problem.cfg.T, domain=self.DOMAIN,
                           delta=self.DELTA_REF)
        ref = fronts.front_tracking_run(self.model, problem.data, cfg)
        return Problem(problem.index, problem.data, problem.cfg,
                       ref.state(problem.cfg.T))

    def solve(self, problem):
        return schemes.backward_euler_run(self.model, problem.data,
                                          problem.cfg)

    def verify(self, problem, sol):
        T = problem.cfg.T
        return sol.mass(0.0), sol.mass(T), sol.l1_distance(problem.reference, T)

    def check(self, problem, sol, checked):
        m0, mT, l1_err = checked
        _require(np.all(np.isfinite(sol.states)), "non-finite state")
        # both ends stay at the background state, so boundary fluxes cancel
        _require(np.all(np.abs(mT - m0) <= TOL_MASS), f"mass drift {np.abs(mT - m0)}")
        _require(math.isfinite(l1_err), "non-finite L1 error")
        return {**_grid_layer(sol, "backward_euler"), "schemes.l1_err": float(l1_err)}

    def fingerprint(self, sol):
        return _fingerprint(sol.states)


class FrontsPsystem(Workload):
    """Front tracking on the p-system with non-physical fronts enabled."""

    name = "fronts-psystem"
    batch = 13
    N_JUMPS = 16
    # sign pattern of (a1, a2) per jump: part of the shape, not the seed
    SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    DOMAIN = (-2.0, 3.5)

    def make_model(self):
        return models.p_system()

    def problem(self, seed, index):
        rng = np.random.default_rng([seed, index])
        u = np.array([1.0, 0.0])
        vals, xs = [u], []
        for j in range(self.N_JUMPS):
            s1, s2 = self.SIGNS[j % len(self.SIGNS)]
            u = _psystem_jump(u, s1 * rng.uniform(0.008, 0.012),
                              s2 * rng.uniform(0.008, 0.012))
            vals.append(u)
            xs.append(0.1 * j)
        data = PiecewiseConstantFn(np.array(xs), np.array(vals))
        cfg = SchemeConfig(eps=1.0, T=1.0, domain=self.DOMAIN, delta=0.02,
                           rho_np=1e-3)
        return Problem(index, data, cfg)

    def solve(self, problem):
        return fronts.front_tracking_run(self.model, problem.data, problem.cfg)

    def verify(self, problem, sol):
        model = self.model
        x0, x1 = problem.cfg.domain
        masses = (sol.state(0.0).integral(x0, x1),
                  sol.state(problem.cfg.T).integral(x0, x1))
        return _rh_audit(model, sol), masses

    def check(self, problem, sol, checked):
        rh, (m0, mT) = checked
        cfg = problem.cfg
        final = sol.state(cfg.T)
        _require(np.all(np.isfinite(final.vals)), "non-finite state")
        _require(rh <= TOL_RH, f"RH residual {rh:.3g}")
        _require(sol.np_total <= cfg.rho_np * max(1, len(sol.events)),
                 f"non-physical strength {sol.np_total:.3g} over budget")
        if sol.np_total == 0.0:
            # all fronts RH-exact: mass changes only by the boundary fluxes
            model = self.model
            flux = model.f(problem.data.vals[0]) - model.f(problem.data.vals[-1])
            drift = np.abs(mT - m0 - cfg.T * flux)
            _require(np.all(drift <= TOL_MASS), f"mass drift {drift}")
        return _front_layer(sol)

    def fingerprint(self, sol):
        last = sol.epochs[-1]
        return _fingerprint([f.speed for f in last.fronts],
                            [float(f.pos) for f in last.fronts],
                            [e["t"] for e in sol.events])


WORKLOADS = {w.name: w for w in (CertifyBurgers(), GlimmPsystem(),
                                 ImplicitBurgers(), FrontsPsystem())}
