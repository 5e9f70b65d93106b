import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab import models, schemes
from hyperlab.errors import (BlowupBeforeRestart, ConfigError, FrontExplosion,
                             NewtonDivergence, NonfiniteState, OutOfDomain,
                             SpeedRangeViolation)
from hyperlab.fronts import FrontTrackingSolution, front_tracking_run
from hyperlab.models import FluxModel, normalize_speeds
from hyperlab.piecewise import PiecewiseConstantFn
from hyperlab.riemann import evaluate_fan, solve_riemann
from hyperlab.schemes import (SchemeConfig, backward_euler_run, glimm_run,
                              godunov_run, jin_xin_run, method_of_lines_run,
                              mollification_run, reversed_digit_theta, run_scheme,
                              theta_sequence, uniformity_defect, viscous_run)
from hyperlab.verify import FanView

BURGERS_01 = normalize_speeds(models.burgers(), M=1.0)  # speeds (u+1)/2 on [-1,1]
BURGERS_12 = normalize_speeds(models.burgers(), M=1.0, target=(1.0, 2.0))
PSYSTEM_12 = normalize_speeds(models.p_system(), M=1.6, target=(1.0, 2.0))


def mass_drift(sol):
    m0 = sol.mass(sol.times[0])
    mT = sol.mass(sol.times[-1])
    span = sol.times[-1] - sol.times[0]
    return float(np.max(np.abs(mT - m0))) / max(span, 1e-300)


def cell_centers(sol):
    return sol.x0 + sol.dx * (np.arange(sol.ncells) + 0.5)


def square_pulse(height=1.0, a=0.0, b=1.0):
    return PiecewiseConstantFn(np.array([a, b]),
                               np.array([[0.0], [height], [0.0]]))


class TestGodunov:
    def test_constant_data_fixed_point(self):
        cfg = SchemeConfig(eps=0.05, T=1.0, domain=(-1.0, 1.0))
        sol = godunov_run(BURGERS_01, PiecewiseConstantFn.constant([0.3]), cfg)
        assert np.all(sol.states[-1] == 0.3)

    def test_linear_advection_exact_shift(self):
        m = models.advection(1.0)
        cfg = SchemeConfig(eps=0.05, T=0.5, domain=(-1.0, 1.0))
        data = square_pulse(1.0, -0.5, 0.0)
        sol = godunov_run(m, data, cfg)
        # u_{j+1,k} = u_{j,k-1}: exact transport by one cell per step
        shift = int(round(0.5 / 0.05))
        u0, uT = sol.states[0], sol.states[-1]
        assert np.allclose(uT[shift:], u0[:-shift], atol=1e-14)

    def test_speed_range_enforced(self):
        cfg = SchemeConfig(eps=0.05, T=0.5, domain=(-1.0, 1.0))
        with pytest.raises(SpeedRangeViolation):
            godunov_run(models.burgers(),
                        PiecewiseConstantFn.riemann([1.0], [-0.5]), cfg)

    def test_shock_location_close_to_exact(self):
        eps = 1.0 / 400
        cfg = SchemeConfig(eps=eps, T=1.0, domain=(-0.2, 1.4))
        data = PiecewiseConstantFn.riemann([1.0], [0.0])
        sol = godunov_run(BURGERS_01, data, cfg)
        # crossing of the midpoint value 0.5 vs the exact location 0.75
        row = sol.states[-1][:, 0]
        k = int(np.argmin(np.abs(row - 0.5)))
        x_num = cell_centers(sol)[k]
        assert abs(x_num - 0.75) <= 3 * eps

    def test_psystem_converges_to_the_exact_fan(self):
        # a 1-shock of speed 0.1347660778... and a narrow 2-rarefaction
        m = normalize_speeds(models.p_system(), M=2.0)
        data = PiecewiseConstantFn.riemann([1.0, 0.0], [0.95, -0.05], x=0.3)
        exact = FanView(solve_riemann(m, [1.0, 0.0], [0.95, -0.05]), x0=0.3).state(0.3)
        dists = [godunov_run(m, data, SchemeConfig(eps=eps, T=0.3, domain=(0.0, 1.0)))
                 .as_piecewise(0.3).l1_distance(exact, 0.0, 1.0)
                 for eps in (1 / 50, 1 / 100, 1 / 200)]
        assert dists[0] > dists[1] > dists[2]
        assert dists[1] <= 1.3e-3

    def test_scalar_tv_never_increases(self):
        cfg = SchemeConfig(eps=0.02, T=0.5, domain=(-1.0, 1.0), store_all=True)
        sol = godunov_run(BURGERS_01, square_pulse(0.8, -0.6, -0.1), cfg)
        tvs = [sol.tv(t) for t in sol.times]
        assert all(b <= a * (1 + 1e-12) + 1e-12 for a, b in zip(tvs, tvs[1:]))

    @pytest.mark.parametrize("model, M", [(models.burgers(), 1.0),
                                          (models.cubic_flux(), 3.0)],
                             ids=["burgers", "cubic"])
    @settings(max_examples=30, deadline=None, database=None)
    @given(vals=st.lists(st.floats(-1.0, 1.0), min_size=7, max_size=7),
           xs=st.lists(st.floats(-0.8, 0.4), min_size=6, max_size=6, unique=True))
    def test_tv_never_rises_on_random_data(self, model, M, vals, xs):
        # an upwind scheme with speeds in [0, 1] and dt = dx is TVD, step by step
        data = PiecewiseConstantFn(np.sort(xs), np.array(vals)[:, None])
        cfg = SchemeConfig(eps=0.02, T=0.4, domain=(-1.0, 1.0), store_all=True)
        sol = godunov_run(normalize_speeds(model, M=M), data, cfg)
        tvs = [sol.tv(t) for t in sol.times]
        assert all(b <= a + 1e-13 for a, b in zip(tvs, tvs[1:]))

    def test_overflowing_flux_raises_nonfinite_state(self):
        # the flux overflows above 0.45, as in a blow-up
        m = FluxModel("overflow", 1,
                      flux=lambda u: np.where(u > 0.45, np.inf, 0.5 * u * u),
                      jacobian=lambda u: u[..., None].copy())
        cfg = SchemeConfig(eps=0.02, T=0.2, domain=(0.0, 1.0))
        with np.errstate(invalid="ignore"), pytest.raises(NonfiniteState):
            godunov_run(m, square_pulse(0.5, 0.3, 0.6), cfg)

    def test_blowup_refused_after_the_step_that_makes_it(self):
        # f is infinite above 0.9, so the one cell at 0.95 makes step 1 leave
        # -inf and inf; step 2 would take inf - inf
        shapes = []

        def flux(u):
            shapes.append(u.shape)
            return np.where(u < 0.9, 0.5 * u, np.inf)

        m = FluxModel("inf above 0.9", 1, flux=flux,
                      jacobian=lambda u: np.full(u.shape + (1,), 0.5))
        cfg = SchemeConfig(eps=0.1, T=0.5, domain=(0.0, 1.0))
        with pytest.raises(NonfiniteState, match="after step 1 "):
            godunov_run(m, lambda x: [0.95 if 0.3 < x < 0.4 else 0.5], cfg)
        assert shapes == [(10, 1), (10, 1)]


def run_output(sol):
    """The arrays a run returns: every stored snapshot of a grid run; the
    profile at T and the event times of a front-tracking run."""
    if isinstance(sol, FrontTrackingSolution):
        final = sol.state(sol.T)
        return [final.xs, final.vals, np.array([e["t"] for e in sol.events])]
    return [sol.times, sol.states]


@pytest.mark.parametrize("scheme", schemes.SCHEMES)
def test_reruns_bit_identical(scheme):
    model = BURGERS_12 if scheme == "backward-euler" else BURGERS_01
    cfg = SchemeConfig(eps=0.02, T=0.1, domain=(-1.0, 1.0))
    # mollification refuses a jump: its characteristics cross at once
    data = (square_pulse(0.8, -0.6, -0.1) if scheme != "mollification"
            else lambda x: np.array([0.8 * np.exp(-8 * x * x)]))
    first, second = (run_output(run_scheme(model, data, scheme, cfg)) for _ in range(2))
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("run", [godunov_run, glimm_run])
def test_unit_cfl_runs_refuse_T_off_the_step_grid(run):
    # dt = dx = 0.3 cannot end at T = 0.5 (these runs used to stop at 0.6)
    cfg = SchemeConfig(eps=0.3, T=0.5, domain=(-0.6, 0.6))
    with pytest.raises(ConfigError, match="whole number"):
        run(BURGERS_01, square_pulse(0.5, -0.3, 0.0), cfg)
    sol = run(BURGERS_01, square_pulse(0.5, -0.3, 0.0), replace(cfg, T=0.6))
    assert sol.times[-1] == pytest.approx(0.6, abs=1e-15)


# the settings each run reads; it refuses every other one set away from
# its default, and runs with each of these set to the value below
READS = {godunov_run: ["boundary", "snapshot_times", "store_all"],
         glimm_run: ["boundary", "snapshot_times", "store_all", "sequence"],
         method_of_lines_run: ["boundary", "dt", "snapshot_times", "store_all"],
         viscous_run: ["boundary", "dx", "dt", "snapshot_times", "store_all", "b_matrix"],
         jin_xin_run: ["boundary", "dx", "dt", "snapshot_times", "store_all", "a2"],
         backward_euler_run: ["dx", "dt", "snapshot_times", "store_all"],
         mollification_run: ["dx", "dt", "snapshot_times", "store_all", "mollifier_width",
                             "mollifier_kernel"],
         front_tracking_run: ["delta", "rho_np", "front_cap"]}
SETTING_VALUES = {"boundary": "periodic", "dx": 0.02, "dt": 1e-3, "snapshot_times": [0.25],
                  "store_all": True, "delta": 0.1, "rho_np": 1e-3, "sequence": "midpoint",
                  "mollifier_width": 0.05, "mollifier_kernel": "cos3", "a2": 4.0,
                  "b_matrix": lambda u: np.zeros(u.shape + (1,)), "front_cap": 100}


@pytest.mark.parametrize("run, setting", [(run, setting) for run in READS
                                          for setting in SETTING_VALUES])
def test_runs_refuse_settings_they_do_not_read(run, setting):
    # each unread one was once taken and ignored: a zero b_matrix gave
    # viscous_run the states of B = I, and glimm_run ran with delta=0.1,
    # godunov_run with sequence="midpoint", viscous_run with
    # mollifier_kernel="cos3", jin_xin_run with front_cap=100, and
    # front_tracking_run with store_all=True or sequence="midpoint"
    model = BURGERS_12 if run is backward_euler_run else BURGERS_01
    data = ((lambda x: np.array([0.8 * np.exp(-8 * x * x)])) if run is mollification_run
            else square_pulse(0.5, -0.5, 0.0))
    cfg = SchemeConfig(eps=0.1, T=0.5, domain=(-1.0, 1.0),
                       **{setting: SETTING_VALUES[setting]})
    if setting in READS[run]:
        run(model, data, cfg)
    else:
        with pytest.raises(ConfigError, match=f"{run.__name__} does not read {setting}="):
            run(model, data, cfg)


@pytest.mark.parametrize("setting, value", [
    ("dt", -0.1), ("dt", 0.0), ("dt", float("nan")), ("dx", -0.01), ("dx", 0.0)])
def test_config_refuses_non_positive_steps(setting, value):
    # a negative dt once ran viscous_run with one step of T, far above its
    # limit, and a zero dt or dx divided by zero
    with pytest.raises(ConfigError, match=f"need {setting} > 0"):
        SchemeConfig(eps=0.05, T=0.5, domain=(-1.0, 1.0), **{setting: value})


@pytest.mark.parametrize("setting, value", [
    ("eps", float("nan")), ("eps", float("inf")), ("eps", 0.0), ("delta", float("inf")),
    ("T", float("nan")), ("T", float("inf")), ("T", -0.5),
    ("mollifier_width", 0.0), ("mollifier_width", -0.1),
    ("mollifier_width", float("nan")), ("mollifier_width", float("inf")),
    ("a2", 0.0), ("a2", -1.0), ("a2", float("nan")), ("a2", float("inf"))])
def test_config_refuses_non_finite_settings(setting, value):
    # a NaN T once ran viscous_run to its t = 0 snapshot alone, an infinite
    # T overflowed the step count, a NaN eps raised an untyped ValueError and
    # an infinite delta drew the delta grid of front tracking as inf * 0; a
    # zero mollifier width divided by zero, a negative one ran and was
    # recorded, a NaN or infinite one raised an untyped ValueError or
    # OverflowError, and a NaN or infinite a2 a ValueError or ZeroDivisionError
    given = {"eps": 0.05, "T": 0.5, setting: value}
    with pytest.raises(ConfigError, match=f"need .*{setting} .*, not {value!r}"):
        SchemeConfig(domain=(-1.0, 1.0), **given)


@pytest.mark.parametrize("cap", [float("nan"), 0, -3, 2.5, float("inf"), "2"])
def test_config_refuses_front_cap_off_the_integers(cap):
    # a NaN cap once switched off both caps of front tracking: the pulse
    # 0 | 0.8 | 0 ran to 17 fronts, where front_cap=2 raises
    with pytest.raises(ConfigError, match=f"need front_cap an integer >= 1, not {cap!r}"):
        SchemeConfig(eps=0.05, T=0.5, domain=(-1.0, 1.0), front_cap=cap)
    cfg = SchemeConfig(eps=1.0, T=1.0, domain=(-1.0, 1.0), front_cap=np.int64(2))
    with pytest.raises(FrontExplosion, match="exceeds cap 2"):
        front_tracking_run(models.burgers(), square_pulse(0.8, -0.5, 0.0), cfg)


@pytest.mark.parametrize("domain", [(-np.inf, 1.0), (0.0, np.inf), (-1e308, 1e308)],
                         ids=["left", "right", "overflowing-length"])
@pytest.mark.parametrize("run", [godunov_run, viscous_run])
def test_grid_runs_refuse_infinite_domains(run, domain):
    # _grid once cut an infinite length into cells with an untyped
    # OverflowError; front tracking reads no domain and runs on any
    cfg = SchemeConfig(eps=0.1, T=0.5, domain=domain)
    with pytest.raises(ConfigError, match="domain of finite length"):
        run(BURGERS_01, square_pulse(0.5, 0.2, 0.6), cfg)
    sol = front_tracking_run(BURGERS_01, square_pulse(0.5, 0.2, 0.6), cfg)
    assert sol.state(0.5).vals.max() == 0.5


@pytest.mark.parametrize("times", [[float("nan")], [-1.0], [5.0], [0.25, float("inf")]],
                         ids=["nan", "negative", "after-T", "inf"])
def test_config_refuses_snapshot_times_outside_the_run(times):
    # NaN once raised an untyped ValueError inside the run, and -1 and 5
    # were stored silently as t = 0 and t = T
    with pytest.raises(ConfigError, match=r"snapshot times in \[0, T = 0\.5\]"):
        SchemeConfig(eps=0.05, T=0.5, domain=(-1.0, 1.0), snapshot_times=times)
    # T itself, with the slack of the last step, is a time of the run
    cfg = SchemeConfig(eps=0.05, T=0.5, domain=(-1.0, 1.0),
                       snapshot_times=[0.0, 0.25, 0.5 * (1 + 1e-13)])
    assert viscous_run(BURGERS_01, square_pulse(0.5), cfg).times == \
        pytest.approx([0.0, 0.25, 0.5], abs=1e-15)


class TestSpeedGuardsReadEveryCell:
    """Each run below has more than 96 distinct initial states, and one cell
    alone breaks the precondition."""

    def test_speed_above_one_at_one_cell(self):
        # f = -1.2 cos u has speed 1.2 sin u: at most 0.12 on the 200 cells
        # near 0 and pi, and 1.2 on the one cell at pi/2
        m = FluxModel("cos", 1, flux=lambda u: -1.2 * np.cos(u),
                      jacobian=lambda u: 1.2 * np.sin(u)[..., None])

        def data(x):
            k = int(round(x / 0.01 - 0.5))
            return [0.001 * k if k < 100 else np.pi / 2 if k == 100
                    else np.pi - 0.001 * (k - 101)]

        cfg = SchemeConfig(eps=0.01, T=0.05, domain=(0.0, 2.01))
        with pytest.raises(SpeedRangeViolation, match=r"speed 1\.2 outside .* u=\[1\.5707"):
            godunov_run(m, data, cfg)

    def test_diffusion_matrix_indefinite_at_one_cell(self):
        # B = 1 except at the state of cell 1 of the ramp u = x
        def B(u):
            bad = (0.007 < u[..., 0]) & (u[..., 0] < 0.008)
            return np.where(bad, -1.0, 1.0)[..., None, None] * np.eye(1)

        cfg = SchemeConfig(eps=0.02, T=0.01, domain=(0.0, 1.0), dx=0.005, b_matrix=B)
        with pytest.raises(ConfigError, match="positive semidefinite"):
            viscous_run(models.burgers(), lambda x: [x], cfg)

    @pytest.mark.parametrize("bad", [lambda v: [-0.5, 0.0], lambda v: [v, -0.7]],
                             ids=["v", "w"])
    def test_state_outside_the_box_at_one_cell(self, bad):
        # a normalised p-system on the ramp (1 + x/10, 0), its velocities held
        # above -0.5 too; cell 101 leaves the box through v or through w
        m = replace(normalize_speeds(models.p_system(), M=1.6), lo=np.array([1e-8, -0.5]))
        x_bad = 0.005 * 101.5

        def data(x):
            return bad(1.0 + 0.1 * x) if x == x_bad else [1.0 + 0.1 * x, 0.0]

        cfg = SchemeConfig(eps=0.005, T=0.01, domain=(0.0, 1.0))
        state = np.array(bad(1.0 + 0.1 * x_bad))
        with pytest.raises(OutOfDomain, match=re.escape(f"state {state} outside")):
            godunov_run(m, data, cfg)


class TestReversedDigit:
    @pytest.mark.parametrize("j,theta", [(1, 0.1), (759, 0.957), (39022, 0.22093)])
    def test_published_values(self, j, theta):
        assert reversed_digit_theta(j) == theta

    def test_range(self):
        th = theta_sequence("reversed-digit", 2000)
        assert np.all((th >= 0) & (th < 1))


class TestUniformityDefect:
    def test_midpoint_grid(self):
        for N in (10, 11, 100):
            th = (np.arange(1, N + 1) - 0.5) / N
            assert uniformity_defect(th, [0.5]) <= 1 / (2 * N) + 1e-15

    def test_constant_sequence(self):
        th = np.full(50, 0.3)
        assert uniformity_defect(th, [0.5]) == pytest.approx(0.5)

    def test_reversed_digit_1e4(self):
        th = theta_sequence("reversed-digit", 10_000)
        d = uniformity_defect(th, np.arange(0.1, 0.95, 0.1))
        assert d <= 0.05  # measured defect of the sequence (regression value)


class TestGlimm:
    def test_constant_data(self):
        cfg = SchemeConfig(eps=0.05, T=1.0, domain=(-1.0, 1.0))
        sol = glimm_run(BURGERS_01, PiecewiseConstantFn.constant([0.5]), cfg)
        assert np.all(sol.states[-1] == 0.5)

    def test_shock_transport_reversed_digit(self):
        N = 200
        cfg = SchemeConfig(eps=1.0 / N, T=1.0, domain=(-0.2, 1.4))
        sol = glimm_run(BURGERS_01, PiecewiseConstantFn.riemann([1.0], [0.0]), cfg)
        row = sol.states[-1][:, 0]
        edges = np.nonzero(np.abs(np.diff(row)) > 0.5)[0]
        assert edges.size == 1
        x_shock = sol.edges()[edges[0] + 1]
        assert abs(x_shock - 0.75) <= 0.03  # N=200: sequence defect scale

    def test_constant_sequence_never_moves_shock(self):
        N = 100
        cfg = SchemeConfig(eps=1.0 / N, T=1.0, domain=(-0.2, 1.4),
                           sequence="constant:1")
        sol = glimm_run(BURGERS_01, PiecewiseConstantFn.riemann([1.0], [0.0]), cfg)
        row0, rowT = sol.states[0][:, 0], sol.states[-1][:, 0]
        assert np.array_equal(row0, rowT)

    @pytest.mark.parametrize("name", ["constant:x", "constant:1.5", "constant:-0.1",
                                      "constant:nan"])
    def test_constant_outside_the_cell_refused(self, name):
        # a constant theta samples x = (k + theta) dx, inside the cell only
        # for 0 <= theta <= 1
        with pytest.raises(ConfigError, match=r"needs a constant in \[0, 1\]"):
            theta_sequence(name, 10)
        assert np.array_equal(theta_sequence("constant:0", 3), np.zeros(3))

    def test_midpoint_sequence_lands_shock_exactly(self):
        # a shock of speed 1/2 moves one cell in every step whose theta is
        # below 1/2: 25 of the 50 midpoint thetas, so 0.25 at T = 0.5
        cfg = SchemeConfig(eps=0.01, T=0.5, domain=(-1.0, 1.0),
                           sequence="midpoint")
        data = PiecewiseConstantFn.riemann([1.0], [0.0])
        sol = glimm_run(models.burgers(), data, cfg)
        assert sol.meta["sequence"] == "midpoint"
        assert sol.l1_distance(data.shifted(0.25), 0.5) == 0.0

    def test_system_riemann_solves(self):
        # a system model goes through the Lax-curve branch of solve_riemann:
        # 8 cells, 3 steps of the normalised p-system
        m = normalize_speeds(models.p_system(), M=1.6)
        ul = np.array([1.0, 0.0])
        data = PiecewiseConstantFn.riemann(ul, [1.05, 0.02], x=0.5)
        cfg = SchemeConfig(eps=0.125, T=0.375, domain=(0.0, 1.0))
        sol = glimm_run(m, data, cfg)
        assert sol.states.shape == (2, 8, 2)
        assert np.all(np.isfinite(sol.states))
        assert not np.array_equal(sol.states[-1], sol.states[0])
        assert np.array_equal(glimm_run(m, data, cfg).states, sol.states)

    def test_system_fans_solved_once_per_problem(self, monkeypatch):
        # each fan ends on u+ byte for byte, so the states Glimm samples
        # repeat exactly and its fan cache finds them: 3 solves in 8 steps,
        # where fans ending on the composed end state, off u+ by roundoff,
        # took 15
        solves = []
        solve = schemes.solve_riemann

        def counted(model, ul, ur):
            solves.append((ul.tobytes(), ur.tobytes()))
            return solve(model, ul, ur)

        monkeypatch.setattr(schemes, "solve_riemann", counted)
        m = normalize_speeds(models.p_system(), M=1.6)
        data = PiecewiseConstantFn.riemann([1.0, 0.0], [1.05, 0.02], x=0.25)
        glimm_run(m, data, SchemeConfig(eps=1.0 / 16, T=0.5, domain=(0.0, 1.0)))
        assert len(solves) == len(set(solves)) == 3


class TestMethodOfLines:
    def test_constant_equilibrium(self):
        cfg = SchemeConfig(eps=0.05, T=1.0, domain=(-1.0, 1.0))
        sol = method_of_lines_run(BURGERS_01, PiecewiseConstantFn.constant([0.2]), cfg)
        assert np.allclose(sol.states[-1], 0.2, atol=1e-13)

    def test_conservation(self):
        cfg = SchemeConfig(eps=0.02, T=1.0, domain=(-2.0, 2.0))
        sol = method_of_lines_run(BURGERS_01, square_pulse(0.5, -1.0, 0.0), cfg)
        assert mass_drift(sol) <= 1e-8

    def test_advection_l1_error_decreases(self):
        m = models.advection(1.0)
        errs = []
        for eps in (1 / 50, 1 / 100, 1 / 200):
            cfg = SchemeConfig(eps=eps, T=0.5, domain=(-1.0, 1.5))
            data = square_pulse(1.0, -0.5, 0.0)
            sol = method_of_lines_run(m, data, cfg)
            errs.append(sol.l1_distance(data.shifted(0.5), sol.times[-1]))
        assert errs[0] > errs[1] > errs[2]


class TestViscous:
    def test_constant(self):
        cfg = SchemeConfig(eps=0.05, T=0.2, domain=(-1.0, 1.0))
        sol = viscous_run(BURGERS_01, PiecewiseConstantFn.constant([0.4]), cfg)
        assert np.allclose(sol.states[-1], 0.4, atol=1e-13)

    def test_dx_must_resolve_layer(self):
        cfg = SchemeConfig(eps=0.02, T=0.1, domain=(-1.0, 1.0), dx=0.02)
        with pytest.raises(ConfigError, match="dx <= eps/4"):
            viscous_run(models.burgers(), PiecewiseConstantFn.constant([0.0]), cfg)

    def test_rule_holds_on_the_grid_it_runs(self):
        # 1 / 0.075 = 13.3 cells: 13 would be 0.0769 wide, above eps/4, so
        # the default grid takes 14, and dx = 0.075, which rounds to 13, is
        # refused
        data = PiecewiseConstantFn.constant([0.3])
        cfg = SchemeConfig(eps=0.3, T=0.01, domain=(0.0, 1.0))
        sol = viscous_run(models.burgers(), data, cfg)
        assert sol.states.shape[1] == 14 and sol.dx <= 0.075
        with pytest.raises(ConfigError, match="cells of 0.0769231"):
            viscous_run(models.burgers(), data, replace(cfg, dx=0.075))
        # a whole number of eps/4 cells is still the default, not one more
        sol = viscous_run(models.burgers(), data, replace(cfg, eps=0.01))
        assert sol.states.shape[1] == 400

    def test_traveling_wave_profile(self):
        # quick version of the tanh profile check; at eps = 0.05 the step
        # data is still relaxing onto the wave (transient ~ exp(-T/(8 eps)))
        eps = 0.05
        m = models.burgers()
        cfg = SchemeConfig(eps=eps, T=1.0, domain=(-1.5, 2.0))
        sol = viscous_run(m, PiecewiseConstantFn.riemann([1.0], [0.0]), cfg)

        def exact(x):
            return 0.5 * (1.0 - np.tanh((x - 0.5) / (4 * eps)))

        c = cell_centers(sol)
        err = np.sum(np.abs(sol.states[-1][:, 0] - exact(c))) * sol.dx
        assert err <= 2e-2

    def test_l1_error_vs_inviscid_decreases(self):
        m = models.burgers()
        fan = solve_riemann(m, [1.0], [0.0])
        errs = []
        for eps in (0.1, 0.05):
            cfg = SchemeConfig(eps=eps, T=1.0, domain=(-1.5, 2.0))
            sol = viscous_run(m, PiecewiseConstantFn.riemann([1.0], [0.0]), cfg)
            c = cell_centers(sol)
            ref = np.array([evaluate_fan(fan, x / 1.0)[0] for x in c])
            errs.append(float(np.sum(np.abs(sol.states[-1][:, 0] - ref)) * sol.dx))
        assert errs[1] < errs[0]


@pytest.mark.parametrize("run", [method_of_lines_run, viscous_run, jin_xin_run,
                                 backward_euler_run, mollification_run])
def test_user_dt_above_the_scheme_limit_raises(run):
    # the default run reports its limit; the limit itself is accepted
    model = BURGERS_12 if run is backward_euler_run else BURGERS_01
    cfg = SchemeConfig(eps=0.05, T=0.05, domain=(-1.0, 1.0))
    data = PiecewiseConstantFn.constant([0.3])
    limit = run(model, data, cfg).meta["cfl"]["dt_max"]
    run(model, data, replace(cfg, dt=limit))
    with pytest.raises(ConfigError, match="limit"):
        run(model, data, replace(cfg, dt=limit * 1.001))


class TestJinXin:
    def test_equilibrium_constant(self):
        cfg = SchemeConfig(eps=0.01, T=0.5, domain=(-1.0, 1.0))
        sol = jin_xin_run(BURGERS_01, PiecewiseConstantFn.constant([0.3]), cfg)
        assert np.allclose(sol.states[-1], 0.3, atol=1e-12)

    def test_conservation(self):
        cfg = SchemeConfig(eps=0.01, T=0.5, domain=(-2.0, 2.0), dx=0.01)
        sol = jin_xin_run(BURGERS_01, square_pulse(0.5, -1.0, 0.0), cfg)
        assert mass_drift(sol) <= 1e-8

    def test_subcharacteristic_violation(self):
        cfg = SchemeConfig(eps=0.01, T=0.1, domain=(-1.0, 1.0), a2=0.01)
        with pytest.raises(ConfigError, match="below max f'"):
            jin_xin_run(BURGERS_01, PiecewiseConstantFn.riemann([1.0], [0.0]), cfg)

    def test_shock_l1_trend(self):
        m = BURGERS_01
        fan = solve_riemann(m, [1.0], [0.0])
        errs = []
        for eps in (0.05, 0.025, 0.0125):
            cfg = SchemeConfig(eps=eps, T=0.5, domain=(-0.5, 1.5), dx=eps / 4)
            sol = jin_xin_run(m, PiecewiseConstantFn.riemann([1.0], [0.0]), cfg)
            c = cell_centers(sol)
            ref = np.array([evaluate_fan(fan, x / 0.5)[0] for x in c])
            errs.append(float(np.sum(np.abs(sol.states[-1][:, 0] - ref)) * sol.dx))
        assert errs[0] > errs[1] > errs[2]


def backward_euler_pinned_run(name):
    if name == "burgers-pulse":
        return backward_euler_run(
            BURGERS_12, square_pulse(0.8, 0.2, 0.6),
            SchemeConfig(eps=0.1, T=0.5, domain=(0.0, 1.6), dx=0.05))
    if name == "burgers-bump":
        return backward_euler_run(
            BURGERS_12, lambda x: np.array([0.9 * np.exp(-40.0 * (x - 0.5) ** 2) - 0.3]),
            SchemeConfig(eps=0.05, T=0.3, domain=(0.0, 1.6), dx=0.05))
    return backward_euler_run(
        PSYSTEM_12, PiecewiseConstantFn.riemann([1.0, 0.0], [1.05, 0.02]).shifted(0.5),
        SchemeConfig(eps=0.1, T=0.4, domain=(0.0, 1.6), dx=0.05))


# final rows of the runs above as the per-cell Newton march solved them,
# cell by cell from the left; any solve that meets the same per-cell residual
# tolerance lands within 1e-11 of them
BACKWARD_EULER_FINAL_ROWS = {
    "burgers-pulse": [
        0.0, 0.0, 0.0, 0.0, 0.0007565376865861796, 0.0035480990789073163,
        0.009722388352275266, 0.02033761445988054, 0.03598112309712967,
        0.0567449620014444, 0.0823023632838753, 0.11202911746860843,
        0.1446368774109433, 0.17839385269344124, 0.21145341459921624,
        0.24211505184731483, 0.2689817218489997, 0.2910297251039793,
        0.307618641438027, 0.3184650856927264, 0.3235968866482618,
        0.3232981450029912, 0.31805145644119137, 0.30848111413307444,
        0.2952997625187902, 0.2792602556510729, 0.26111402590365673,
        0.24157688619563433, 0.2213027791366238, 0.2008655368626196,
        0.18074825965954996, 0.1613395123950333
    ],
    "burgers-bump": [
        -0.2998916734753495, -0.29988842626792744, -0.29986186056404895,
        -0.2997276107314611, -0.29920416093736046, -0.2975342297134567,
        -0.29309475931823287, -0.28317959789995134, -0.2644225150546437,
        -0.2340151242807429, -0.19115658649829578, -0.13785370579333228,
        -0.07865825007810567, -0.019612409152521573, 0.033047114365486754,
        0.07400477188120147, 0.09961504120681902, 0.10825606164083663,
        0.10032735584423996, 0.07795476408549216, 0.044482797753429976,
        0.003855878034370633, -0.039994838821970295, -0.08364956503268707,
        -0.12450979259812096, -0.16090199987095602, -0.19200945618608592,
        -0.21769713942711788, -0.23829819801424842, -0.25441390935587616,
        -0.2667554691959597, -0.27603543040480316
    ],
    "psystem": [
        1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0,
        1.0, 0.0, 1.0, 0.0, 1.0000000000000009, 0.0, 1.0003701999694046,
        0.00043334991419969075, 1.0013883267229406, 0.0015837997130186872,
        1.0031429783987011, 0.0034848648958974485, 1.0055696521037831,
        0.0059866370970772225, 1.0085165606189452, 0.008852679298621999,
        1.0118012686243727, 0.011836616689897082, 1.0152482339131794,
        0.014727805066792799, 1.0187088529354196, 0.01737094774824368,
        1.0220689267649374, 0.019668397511678145, 1.0252483981199303,
        0.021572980366912332, 1.0281970642160374, 0.023076919035595084,
        1.0308887253092376, 0.02420026458123162, 1.0333152244349202,
        0.0249806187902487, 1.035481129378687, 0.02546486923533991,
        1.0373993595668718, 0.025703040811185306, 1.039087800269451,
        0.025744051396958532, 1.0405668121638976, 0.025633030606798154,
        1.0418574883146663, 0.0254098384413687, 1.0429804997592071,
        0.025108452700187835, 1.043955383465169, 0.024756948626213863,
        1.04480014908831, 0.02437785361533181, 1.0455311060357826,
        0.023988714806007828
    ],
}


def per_cell_step(model, v, c):
    """One backward Euler step solved as the whole-grid Newton replaced it:
    cell by cell from the left, each by its own Newton iteration to the
    same residual bound.  The reference of the whole-grid solve."""
    w = v.copy()
    f_prev = model.f(v[0])
    for k in range(v.shape[0]):
        target = v[k] + c * f_prev
        for _ in range(40):
            R = w[k] + c * model.f(w[k]) - target
            if np.linalg.norm(R) <= 1e-13 * (1.0 + np.linalg.norm(target)):
                break
            w[k] -= np.linalg.solve(np.eye(model.n) + c * model.jac(w[k]), R)
        f_prev = model.f(w[k])
    return w


class TestBackwardEuler:
    def test_constant(self):
        m = models.advection(1.5)
        cfg = SchemeConfig(eps=0.05, T=0.5, domain=(-1.0, 1.0), dx=0.01)
        sol = backward_euler_run(m, PiecewiseConstantFn.constant([0.7]), cfg)
        assert np.allclose(sol.states[-1], 0.7, atol=1e-12)

    def test_speed_window_enforced(self):
        m = models.advection(0.5)
        cfg = SchemeConfig(eps=0.05, T=0.5, domain=(-1.0, 1.0), dx=0.01)
        with pytest.raises(SpeedRangeViolation):
            backward_euler_run(m, PiecewiseConstantFn.constant([0.7]), cfg)

    def test_linear_step_is_exponential_smoothing(self):
        # one step of the implicit upwind recursion equals the discrete
        # exponential kernel sum_m beta^m/(1+beta)^(m+1) v_{k-m}
        c, eps, dx = 1.5, 0.05, 1e-3
        m = models.advection(c)
        a, b = -2.0, 2.0
        cfg = SchemeConfig(eps=eps, T=eps, domain=(a, b), dx=dx)
        data = lambda x: np.array([np.exp(-4.0 * x * x)])
        sol = backward_euler_run(m, data, cfg)
        v = sol.states[0][:, 0]
        w = sol.states[-1][:, 0]
        beta = c * eps / sol.dx
        kmax = int(np.ceil(60 / np.log1p(1 / beta)))  # tail below 1e-26
        ratio = beta / (1 + beta)
        weights = (1.0 / (1 + beta)) * ratio ** np.arange(kmax)
        k = 3 * v.size // 4
        ref = 0.0
        for q in range(kmax):
            ref += weights[q] * (v[k - q] if k - q >= 0 else v[0])
        ref += (1 - weights.sum()) * v[0]  # exhausted tail at the left state
        assert w[k] == pytest.approx(ref, abs=1e-6)
        # and against direct quadrature of the continuum kernel, coarser
        s = np.linspace(0, 40, 400_001)
        x = cell_centers(sol)[k]
        integrand = np.exp(-4.0 * (x - c * eps * s) ** 2) * np.exp(-s)
        ref_cont = np.trapezoid(integrand, s)
        assert w[k] == pytest.approx(ref_cont, abs=5e-4)

    def test_newton_stall_raises(self):
        # f = 2u - u^2/2 has speeds 2 - u in [1, 2] on the data, but its
        # Newton steps overshoot below 0, where it is NaN
        m = FluxModel("nan-below-zero", 1,
                      flux=lambda u: np.where(u < 0, np.nan, 2 * u - 0.5 * u * u),
                      jacobian=lambda u: (2.0 - np.asarray(u))[..., None])
        cfg = SchemeConfig(eps=0.02, T=0.1, domain=(0.0, 1.0))
        with pytest.raises(NewtonDivergence, match="stalled in cell 60"):
            backward_euler_run(m, square_pulse(1.0, 0.3, 0.6), cfg)

    def test_singular_block_raises(self):
        # the Jacobian is f' within 1e-12 of the data states 0 and 1 (cell
        # averages at the pulse edges round off) and -1/c elsewhere, so the
        # second Newton iterate makes I + c A singular
        c = 4.0  # dt/dx = eps/(eps/4)
        near_data = lambda u: (np.abs(u) <= 1e-12) | (np.abs(u - 1.0) <= 1e-12)
        m = FluxModel("singular-off-data", 1,
                      flux=lambda u: 2 * u - 0.5 * u * u,
                      jacobian=lambda u: np.where(near_data(u), 2.0 - u, -1.0 / c)[..., None])
        cfg = SchemeConfig(eps=0.02, T=0.1, domain=(0.0, 1.0))
        with pytest.raises(NewtonDivergence, match="singular implicit system in step 1"):
            backward_euler_run(m, square_pulse(1.0, 0.3, 0.6), cfg)

    def test_singular_system_block_raises(self):
        # the two-component twin of the scalar case: the Jacobian is
        # diag(f'(u)) where both components are within 1e-12 of a data state
        # and -I/c elsewhere, so I + c A is the zero block on the second
        # Newton iterate and LAPACK's inverse refuses it
        c = 4.0  # dt/dx = eps/(eps/4)
        near_data = lambda u: np.all((np.abs(u) <= 1e-12) | (np.abs(u - 1.0) <= 1e-12), axis=-1)
        m = FluxModel("singular-off-data-2", 2,
                      flux=lambda u: 2 * u - 0.5 * u * u,
                      jacobian=lambda u: np.where(near_data(u)[..., None, None],
                                                  (2.0 - u)[..., None] * np.eye(2),
                                                  -np.eye(2) / c))
        data = PiecewiseConstantFn(np.array([0.3, 0.6]),
                                   np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]]))
        cfg = SchemeConfig(eps=0.02, T=0.1, domain=(0.0, 1.0))
        with pytest.raises(NewtonDivergence, match="singular implicit system in step 1") as info:
            backward_euler_run(m, data, cfg)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_scalar_blocks_skip_lapack(self, monkeypatch):
        # a 1x1 block is inverted as a reciprocal, never by np.linalg.inv
        def refuse(a):
            raise AssertionError("np.linalg.inv called on scalar blocks")
        monkeypatch.setattr(np.linalg, "inv", refuse)
        sol = backward_euler_pinned_run("burgers-pulse")
        assert np.all(np.isfinite(sol.states))

    def test_single_state_jacobian_refused(self):
        # the whole-grid Newton takes the Jacobians of all cells in one call
        m = FluxModel("one-state", 1, flux=lambda u: 1.5 * u,
                      jacobian=lambda u: np.array([[1.5]]))
        cfg = SchemeConfig(eps=0.05, T=0.1, domain=(0.0, 1.0))
        with pytest.raises(ConfigError, match="jacobian"):
            backward_euler_run(m, square_pulse(1.0, 0.3, 0.6), cfg)

    @pytest.mark.parametrize("name", sorted(BACKWARD_EULER_FINAL_ROWS))
    def test_states_pinned(self, name):
        sol = backward_euler_pinned_run(name)
        want = np.array(BACKWARD_EULER_FINAL_ROWS[name])
        got = sol.states[-1].ravel()
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    @pytest.mark.parametrize("name, want", [("burgers-pulse", "df5ac3ede329b5e1"),
                                            ("burgers-bump", "6fb6aa5a4228a570")])
    def test_scalar_states_bit_identical(self, name, want):
        # sha256 of the float64 bytes of every stored state
        sol = backward_euler_pinned_run(name)
        assert hashlib.sha256(sol.states.tobytes()).hexdigest()[:16] == want

    @settings(max_examples=25, deadline=None, database=None)
    @given(background=st.floats(-1.0, 1.0), height=st.floats(-1.0, 1.0),
           left=st.floats(0.1, 1.0), width=st.floats(0.05, 0.8),
           eps=st.sampled_from([0.02, 0.05, 0.1]))
    def test_small_pulses(self, background, height, left, width, eps):
        # speeds (u + 3)/2 stay in [1, 2] for states in [-1, 1]
        data = PiecewiseConstantFn(np.array([left, left + width]),
                                   np.array([[background], [height], [background]]))
        cfg = SchemeConfig(eps=eps, T=0.2, domain=(0.0, 2.0), dx=0.025,
                           store_all=True)
        sol = backward_euler_run(BURGERS_12, data, cfg)
        assert np.array_equal(sol.states, backward_euler_run(BURGERS_12, data, cfg).states)
        f, dt = BURGERS_12.f, sol.meta["dt"]
        for v, w in zip(sol.states[:-1], sol.states[1:]):
            # the step changes the mass by dt times the boundary flux balance
            balance = sol.dx * (w.sum(axis=0) - v.sum(axis=0)) + dt * (f(w[-1]) - f(v[0]))
            assert np.all(np.abs(balance) <= 1e-10)
            # every cell meets the residual bound of the implicit equation
            fw = f(np.concatenate([v[:1], w]))
            target = v + (dt / sol.dx) * fw[:-1]
            R = w + (dt / sol.dx) * fw[1:] - target
            assert np.all(np.linalg.norm(R, axis=1)
                          <= 1e-13 * (1.0 + np.linalg.norm(target, axis=1)))
            ref = per_cell_step(BURGERS_12, v, dt / sol.dx)
            assert np.max(np.abs(w - ref)) <= 1e-11 * max(1.0, np.max(np.abs(ref)))

    def test_mass_conservation(self):
        m = BURGERS_12
        cfg = SchemeConfig(eps=0.02, T=0.2, domain=(-2.0, 4.0), dx=0.01)
        sol = backward_euler_run(m, square_pulse(0.6, -1.0, 0.0), cfg)
        # boundary flux cancels only against the shared background state
        drift = np.max(np.abs(sol.mass(sol.times[-1]) - sol.mass(0.0)
                              - 0.2 * (m.f(np.zeros(1)) - m.f(np.zeros(1)))))
        assert drift <= 1e-10 * max(1.0, np.max(np.abs(sol.states)))


class TestMollification:
    def test_constant(self):
        m = models.burgers()
        cfg = SchemeConfig(eps=0.1, T=0.5, domain=(-1.0, 1.0), dx=1 / 256,
                           mollifier_width=0.05)
        sol = mollification_run(m, PiecewiseConstantFn.constant([0.4]), cfg)
        assert np.allclose(sol.states[-1], 0.4, atol=1e-12)

    def test_clipped_ramp_blowup_detection(self):
        m = models.burgers()
        data = lambda x: np.array([np.clip(-x, -1.0, 1.0)])
        ok = SchemeConfig(eps=0.5, T=0.5, domain=(-4.0, 4.0), dx=1 / 256,
                          mollifier_width=0.1)
        sol = mollification_run(m, data, ok)  # one step before blow-up
        assert sol.times[-1] == pytest.approx(0.5)
        bad = SchemeConfig(eps=1.5, T=1.5, domain=(-4.0, 4.0), dx=1 / 256,
                           mollifier_width=0.1)
        with pytest.raises(BlowupBeforeRestart) as info:
            mollification_run(m, data, bad)
        assert info.value.t_blowup == pytest.approx(1.0, rel=0.02)

    def test_crossing_characteristics_refused(self):
        # a step 1|0 on a cell edge: the centred slope over two cells gives
        # a blow-up time of 2 dx = 0.002, which eps = 0.0015 does not reach,
        # but the characteristics of the two cells at the jump cross at dx
        data = PiecewiseConstantFn.riemann([1.0], [0.0])
        cfg = SchemeConfig(eps=0.0015, T=0.0015, domain=(-0.5, 0.5), dx=0.001)
        with pytest.raises(BlowupBeforeRestart, match="characteristics cross"):
            mollification_run(models.burgers(), data, cfg)

    def test_gaussian_converges_to_characteristic_solution(self):
        m = models.burgers()
        data = lambda x: np.array([0.3 * np.exp(-x * x)])
        T = 0.4  # well before gradient blow-up (~ 1/max|d/dx f'(u0)| = 3-4)
        errs = []
        for width in (0.2, 0.1, 0.05):
            cfg = SchemeConfig(eps=0.1, T=T, domain=(-4.0, 4.0), dx=1 / 512,
                               mollifier_width=width)
            sol = mollification_run(m, data, cfg)
            # characteristic oracle: u(t, x + u0(x) t) = u0(x)
            x = np.linspace(-4, 4, 4001)
            u0 = 0.3 * np.exp(-x * x)
            y = x + u0 * T
            ref = np.interp(cell_centers(sol), y, u0)
            errs.append(float(np.sum(np.abs(sol.states[-1][:, 0] - ref)) * sol.dx))
        assert errs[0] > errs[1] > errs[2]

    def test_kernel_replacement_stability(self):
        m = models.burgers()
        data = lambda x: np.array([0.3 * np.exp(-x * x)])
        outs = []
        for kern in ("poly", "cos3"):
            cfg = SchemeConfig(eps=0.2, T=0.4, domain=(-4.0, 4.0), dx=1 / 512,
                               mollifier_width=0.05, mollifier_kernel=kern)
            sol = mollification_run(m, data, cfg)
            outs.append(sol.states[-1][:, 0])
        diff = float(np.sum(np.abs(outs[0] - outs[1])) / 512)
        assert diff <= 5e-3

    def test_conservation(self):
        m = models.burgers()
        data = lambda x: np.array([0.5 * np.exp(-8 * x * x)])
        cfg = SchemeConfig(eps=0.1, T=0.3, domain=(-4.0, 4.0), dx=1 / 512,
                           mollifier_width=0.05)
        sol = mollification_run(m, data, cfg)
        assert mass_drift(sol) <= 1e-8

    @pytest.mark.parametrize("kernel, cfg, want", [
        ("gaussian", SchemeConfig(eps=0.1, T=0.4, domain=(-4.0, 4.0), dx=1 / 128,
                                  mollifier_width=0.1, store_all=True),
         "fd7ac7bc6cbc595f"),
        ("ramp", SchemeConfig(eps=0.25, T=0.5, domain=(-2.0, 2.0), dx=1 / 64,
                              mollifier_width=0.1, mollifier_kernel="cos3"),
         "3e67c07261d6eab1")])
    def test_states_bit_identical(self, kernel, cfg, want):
        # sha256 of the float64 bytes of every stored state
        data = {"gaussian": lambda x: np.array([0.3 * np.exp(-x * x)]),
                "ramp": lambda x: np.array([np.clip(-x, -1.0, 1.0)])}[kernel]
        sol = mollification_run(models.burgers(), data, cfg)
        assert hashlib.sha256(sol.states.tobytes()).hexdigest()[:16] == want

    def test_snapshot_settings_honoured(self):
        # four equal restarts of 0.1, stored like every other grid run
        data = lambda x: np.array([0.3 * np.exp(-x * x)])
        cfg = SchemeConfig(eps=0.1, T=0.4, domain=(-4.0, 4.0), dx=1 / 64,
                           mollifier_width=0.1)
        for settings, times in [({}, [0.0, 0.4]),
                                ({"snapshot_times": [0.2]}, [0.0, 0.2, 0.4]),
                                ({"store_all": True}, [0.0, 0.1, 0.2, 0.3, 0.4])]:
            sol = mollification_run(models.burgers(), data, replace(cfg, **settings))
            assert sol.times == pytest.approx(times, abs=1e-15)
            assert sol.states.shape[0] == len(times)


def diag_rows(d):
    """B(u) = diag(d) on every row u (..., n)."""
    return lambda u: np.diag(d) * np.ones(u.shape[:-1] + (1, 1))


class TestNonlinearDiffusion:
    # sha256 prefixes of the float64 bytes of every stored state, the same
    # as with B called on one state per cell
    PINS = {"1+u^2": "dbcfa0e2738e91b3", "zero": "3267228e148ae7d5",
            "psystem": "8f43cc09be48c51d"}

    def test_identity_matches_viscous_bitwise(self):
        m = models.burgers()
        data = PiecewiseConstantFn.riemann([1.0], [0.0])
        cfg = SchemeConfig(eps=0.05, T=0.3, domain=(-1.0, 1.5))
        # the fast path of b_matrix = None, and the general B(u) path with
        # its face averages at B = I
        a = viscous_run(m, data, cfg)
        b = viscous_run(m, data, replace(cfg, b_matrix=diag_rows([1.0])))
        assert np.array_equal(a.states, b.states)

    def test_state_dependent_matrix_conserves_mass(self):
        m = models.burgers()
        data = PiecewiseConstantFn(np.array([-0.3, 0.2]), np.array([[0.2], [0.8], [0.2]]))
        cfg = SchemeConfig(eps=0.05, T=0.3, domain=(-1.0, 1.0), dx=0.0125,
                           boundary="periodic",
                           b_matrix=lambda u: np.eye(1) * (1.0 + u * u)[..., None])
        sol = viscous_run(m, data, cfg)
        mass = sol.states[:, :, 0].sum(axis=1) * sol.dx
        assert np.all(np.isfinite(sol.states))
        assert np.max(np.abs(mass - mass[0])) <= 1e-12
        assert not np.array_equal(sol.states[-1], sol.states[0])
        assert hashlib.sha256(sol.states.tobytes()).hexdigest()[:16] == self.PINS["1+u^2"]

    def test_zero_matrix_is_pure_lax_friedrichs(self):
        m = models.burgers()
        data = PiecewiseConstantFn.riemann([1.0], [0.0])
        cfg = SchemeConfig(eps=0.05, T=0.3, domain=(-1.0, 1.5), dx=0.0125,
                           b_matrix=diag_rows([0.0]))
        sol = viscous_run(m, data, cfg)
        assert sol.meta["cfl"]["lf_alpha"] > 0  # stabilization engaged
        assert np.all(np.isfinite(sol.states))
        # still a sensible shock profile: monotone decreasing
        assert np.all(np.diff(sol.states[-1][:, 0]) <= 1e-12)
        assert hashlib.sha256(sol.states.tobytes()).hexdigest()[:16] == self.PINS["zero"]

    def test_psystem_partial_viscosity_stable_and_conservative(self):
        m = models.p_system()
        data = PiecewiseConstantFn.riemann([1.0, 0.0], [1.02, 0.01])
        cfg = SchemeConfig(eps=0.01, T=0.25, domain=(-1.0, 1.0), dx=0.005,
                           b_matrix=diag_rows([0.0, 1.0]))
        sol = viscous_run(m, data, cfg)
        assert np.all(np.isfinite(sol.states))
        # both components conserved up to the (equal) boundary fluxes
        mass_delta = sol.mass(sol.times[-1]) - sol.mass(0.0)
        flux_l = m.f(np.array([1.0, 0.0]))
        flux_r = m.f(np.array([1.02, 0.01]))
        expected = (flux_l - flux_r) * sol.times[-1]
        assert np.max(np.abs(mass_delta - expected)) <= 1e-8
        assert hashlib.sha256(sol.states.tobytes()).hexdigest()[:16] == self.PINS["psystem"]

    def test_matrix_taken_once_on_the_cells_and_once_per_step(self):
        # the initial checks take B on the 200 cells, each step on the 202
        # padded ones
        shapes = []

        def B(u):
            shapes.append(u.shape)
            return np.eye(1) * (1.0 + u * u)[..., None]

        cfg = SchemeConfig(eps=0.05, T=0.05, domain=(-1.0, 1.0), dx=0.01, b_matrix=B)
        sol = viscous_run(models.burgers(), square_pulse(0.8, -0.3, 0.2), cfg)
        nsteps = int(round(cfg.T / sol.meta["dt"]))
        assert nsteps > 1
        assert shapes == [(200, 1)] + [(202, 1)] * nsteps

    def test_matrix_checked_at_every_step(self):
        # B = diag(0, v - 0.99) is positive semidefinite on the data, v = 1,
        # but the compressed middle state reaches v = 0.933, where B_22 < 0
        # (anti-diffusion): the run once went on to T
        def B(u):
            d = np.stack([np.zeros(u.shape[:-1]), u[..., 0] - 0.99], axis=-1)
            return d[..., None] * np.eye(2)

        data = PiecewiseConstantFn.riemann([1.0, 0.1], [1.0, -0.1])
        cfg = SchemeConfig(eps=0.01, T=0.25, domain=(-1.0, 1.0), dx=0.005, b_matrix=B)
        with pytest.raises(ConfigError, match=r"positive semidefinite, but has eigenvalue "
                                              r"-0\.0236 in step 2 at state \[0\.966"):
            viscous_run(models.p_system(), data, cfg)

    def test_one_by_one_matrix_is_its_own_eigenvalue(self):
        # a scalar B skips LAPACK: its least eigenvalue is the entry itself,
        # as eigvalsh returns it, over entries of every exponent
        rng = np.random.default_rng(3)
        entries = 10.0 ** rng.uniform(-300.0, 300.0, 400)
        entries[:3] = 0.0, 5e-324, 1e300
        for b in entries:
            u = np.array([[b]])
            lam = schemes._b_rows(models.burgers(), lambda u: u[..., None], u, "")[1]
            assert lam == np.linalg.eigvalsh(u[..., None])[0, 0]
        with pytest.raises(ConfigError, match=r"eigenvalue -2\.5e-07 here at state \[-2\.5e-07\]"):
            schemes._b_rows(models.burgers(), lambda u: u[..., None],
                            np.array([[1.0], [-2.5e-7]]), "here")

    @pytest.mark.parametrize("B, got", [(lambda u: np.diag(1.0 + u * u), r"\(1,\)"),
                                        (lambda u: np.eye(1), r"\(1, 1\)")],
                             ids=["diag", "eye"])
    def test_one_state_matrix_refused(self, B, got):
        # a B written for one state does not broadcast over the rows
        cfg = SchemeConfig(eps=0.05, T=0.05, domain=(-1.0, 1.0), dx=0.01, b_matrix=B)
        with pytest.raises(ConfigError, match=r"shape \(200, 1\) to " + got
                           + r", not \(200, 1, 1\)"):
            viscous_run(models.burgers(), square_pulse(0.8, -0.3, 0.2), cfg)

    @pytest.mark.parametrize("spec", ["identity", "zero", "diag:0,1", np.eye(2)])
    def test_non_callable_matrix_refused(self, spec):
        with pytest.raises(ConfigError, match="b_matrix must be None or a callable"):
            SchemeConfig(eps=0.01, T=0.25, domain=(-1.0, 1.0), b_matrix=spec)


# a pulse on a nonzero background that crosses the right end of (0, 1):
# with constant boundaries every scheme below loses about 0.06 of mass
WRAPPING_PULSE = PiecewiseConstantFn(np.array([0.5, 0.9]),
                                     np.array([[0.2], [0.7], [0.2]]))


@pytest.mark.parametrize("scheme", ["godunov", "method-of-lines", "viscous", "jin-xin"])
def test_periodic_boundaries_conserve_mass(scheme):
    # glimm is left out: random-choice sampling is not conservative
    cfg = SchemeConfig(eps=0.02, T=0.3, domain=(0.0, 1.0), boundary="periodic")
    sol = run_scheme(BURGERS_01, WRAPPING_PULSE, scheme, cfg)
    assert np.max(np.abs(sol.mass(sol.times[-1]) - sol.mass(0.0))) <= 1e-12


@pytest.mark.parametrize("scheme, model", [
    ("backward-euler", BURGERS_12), ("mollification", BURGERS_01),
    ("front-tracking", BURGERS_01)])
def test_periodic_boundaries_refused_where_not_implemented(scheme, model):
    cfg = SchemeConfig(eps=0.02, T=0.3, domain=(0.0, 1.0), boundary="periodic")
    with pytest.raises(ConfigError, match="does not read boundary='periodic'"):
        run_scheme(model, WRAPPING_PULSE, scheme, cfg)


@pytest.mark.parametrize("call, error, match", [
    (lambda: SchemeConfig(eps=0.1, T=0.5, domain=(1.0, -1.0)), ConfigError,
     "domain must satisfy a < b"),
    (lambda: SchemeConfig(eps=0.1, T=0.5, domain=(-1.0, 1.0), boundary="reflecting"),
     ConfigError, "unknown boundary treatment 'reflecting'"),
    (lambda: godunov_run(BURGERS_01, square_pulse(),
                         SchemeConfig(eps=0.1, T=0.1, domain=(0.0, 0.3))),
     ConfigError, "domain too small"),
    (lambda: godunov_run(BURGERS_01, PiecewiseConstantFn.riemann([1.0, 0.0], [0.0, 0.0]),
                         SchemeConfig(eps=0.1, T=0.1, domain=(-1.0, 1.0))),
     ConfigError, "data dimension does not match the model"),
    (lambda: reversed_digit_theta(0), ValueError, "positive integer"),
    (lambda: theta_sequence("van-der-corput", 10), ConfigError,
     "unknown sampling sequence 'van-der-corput'"),
    (lambda: uniformity_defect([], [0.5]), ValueError, "empty sequence"),
    (lambda: schemes.mollifier_kernel("gauss", 0.1, 0.01), ConfigError,
     "unknown mollifier kernel 'gauss'"),
    (lambda: mollification_run(models.p_system(),
                               PiecewiseConstantFn.constant([1.0, 0.0]),
                               SchemeConfig(eps=0.1, T=0.1, domain=(-1.0, 1.0))),
     ConfigError, "scalar-only"),
    (lambda: run_scheme(BURGERS_01, square_pulse(), "lax-wendroff",
                        SchemeConfig(eps=0.1, T=0.1, domain=(-1.0, 2.0))),
     ConfigError, "unknown scheme 'lax-wendroff'"),
], ids=["empty-domain", "unknown-boundary", "too-few-cells", "data-dimension",
        "theta-index", "unknown-sequence", "empty-sequence", "unknown-kernel",
        "mollification-system", "unknown-scheme"])
def test_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()
