from dataclasses import replace

import numpy as np
import pytest

from hyperlab import models
from hyperlab.errors import (BlowupBeforeRestart, CFLViolation,
                             SpeedRangeViolation, SubcharacteristicViolation)
from hyperlab.models import normalize_speeds
from hyperlab.piecewise import PiecewiseConstantFn
from hyperlab.riemann import evaluate_fan, solve_riemann_scalar
from hyperlab.schemes import (SchemeConfig, backward_euler_run, glimm_run,
                              godunov_run, jin_xin_run, method_of_lines_run,
                              mollification_run, nonlinear_diffusion_run,
                              reversed_digit_theta, theta_sequence,
                              uniformity_defect, viscous_run)

BURGERS_01 = normalize_speeds(models.burgers(), M=1.0)  # speeds (u+1)/2 on [-1,1]


def mass_drift(sol):
    m0 = sol.mass(sol.times[0])
    mT = sol.mass(sol.times[-1])
    span = sol.times[-1] - sol.times[0]
    return float(np.max(np.abs(mT - m0))) / max(span, 1e-300)


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
        x_num = sol.centers()[k]
        assert abs(x_num - 0.75) <= 3 * eps

    def test_scalar_tv_never_increases(self):
        cfg = SchemeConfig(eps=0.02, T=0.5, domain=(-1.0, 1.0), store_all=True)
        sol = godunov_run(BURGERS_01, square_pulse(0.8, -0.6, -0.1), cfg)
        tvs = [sol.tv(t) for t in sol.times]
        assert all(b <= a * (1 + 1e-12) + 1e-12 for a, b in zip(tvs, tvs[1:]))

    def test_deterministic(self):
        cfg = SchemeConfig(eps=0.02, T=0.5, domain=(-1.0, 1.0))
        data = square_pulse(0.8, -0.6, -0.1)
        a = godunov_run(BURGERS_01, data, cfg)
        b = godunov_run(BURGERS_01, data, cfg)
        assert np.array_equal(a.states, b.states)


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
        with pytest.raises(CFLViolation):
            viscous_run(models.burgers(), PiecewiseConstantFn.constant([0.0]), cfg)

    def test_traveling_wave_profile(self):
        # quick version of the tanh profile check; at eps = 0.05 the step
        # data is still relaxing onto the wave (transient ~ exp(-T/(8 eps)))
        eps = 0.05
        m = models.burgers()
        cfg = SchemeConfig(eps=eps, T=1.0, domain=(-1.5, 2.0))
        sol = viscous_run(m, PiecewiseConstantFn.riemann([1.0], [0.0]), cfg)

        def exact(x):
            return 0.5 * (1.0 - np.tanh((x - 0.5) / (4 * eps)))

        c = sol.centers()
        err = np.sum(np.abs(sol.states[-1][:, 0] - exact(c))) * sol.dx
        assert err <= 2e-2

    def test_l1_error_vs_inviscid_decreases(self):
        m = models.burgers()
        fan = solve_riemann_scalar(m, [1.0], [0.0])
        errs = []
        for eps in (0.1, 0.05):
            cfg = SchemeConfig(eps=eps, T=1.0, domain=(-1.5, 2.0))
            sol = viscous_run(m, PiecewiseConstantFn.riemann([1.0], [0.0]), cfg)
            c = sol.centers()
            ref = np.array([evaluate_fan(fan, x / 1.0)[0] for x in c])
            errs.append(float(np.sum(np.abs(sol.states[-1][:, 0] - ref)) * sol.dx))
        assert errs[1] < errs[0]


@pytest.mark.parametrize("run", [method_of_lines_run, viscous_run,
                                 nonlinear_diffusion_run, jin_xin_run])
def test_user_dt_above_the_scheme_limit_raises(run):
    # the default run reports its limit; the limit itself is accepted
    cfg = SchemeConfig(eps=0.05, T=0.05, domain=(-1.0, 1.0))
    data = PiecewiseConstantFn.constant([0.3])
    limit = run(BURGERS_01, data, cfg).meta["cfl"]["dt_max"]
    run(BURGERS_01, data, replace(cfg, dt=limit))
    with pytest.raises(CFLViolation, match="limit"):
        run(BURGERS_01, data, replace(cfg, dt=limit * 1.001))


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
        with pytest.raises(SubcharacteristicViolation):
            jin_xin_run(BURGERS_01, PiecewiseConstantFn.riemann([1.0], [0.0]), cfg)

    def test_shock_l1_trend(self):
        m = BURGERS_01
        fan = solve_riemann_scalar(m, [1.0], [0.0])
        errs = []
        for eps in (0.05, 0.025, 0.0125):
            cfg = SchemeConfig(eps=eps, T=0.5, domain=(-0.5, 1.5), dx=eps / 4)
            sol = jin_xin_run(m, PiecewiseConstantFn.riemann([1.0], [0.0]), cfg)
            c = sol.centers()
            ref = np.array([evaluate_fan(fan, x / 0.5)[0] for x in c])
            errs.append(float(np.sum(np.abs(sol.states[-1][:, 0] - ref)) * sol.dx))
        assert errs[0] > errs[1] > errs[2]


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
        x = sol.centers()[k]
        integrand = np.exp(-4.0 * (x - c * eps * s) ** 2) * np.exp(-s)
        ref_cont = np.trapezoid(integrand, s)
        assert w[k] == pytest.approx(ref_cont, abs=5e-4)

    def test_mass_conservation(self):
        m = normalize_speeds(models.burgers(), M=1.0, target=(1.0, 2.0))
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
            ref = np.interp(sol.centers(), y, u0)
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


class TestNonlinearDiffusion:
    def test_identity_matches_viscous_bitwise(self):
        m = models.burgers()
        data = PiecewiseConstantFn.riemann([1.0], [0.0])
        cfg = SchemeConfig(eps=0.05, T=0.3, domain=(-1.0, 1.5))
        a = viscous_run(m, data, cfg)
        cfg_b = SchemeConfig(eps=0.05, T=0.3, domain=(-1.0, 1.5),
                             dx=a.dx, b_matrix="identity")
        b = nonlinear_diffusion_run(m, data, cfg_b)
        assert np.array_equal(a.states, b.states)

    def test_zero_matrix_is_pure_lax_friedrichs(self):
        m = models.burgers()
        data = PiecewiseConstantFn.riemann([1.0], [0.0])
        cfg = SchemeConfig(eps=0.05, T=0.3, domain=(-1.0, 1.5), dx=0.0125,
                           b_matrix="zero")
        sol = nonlinear_diffusion_run(m, data, cfg)
        assert sol.meta["cfl"]["lf_alpha"] > 0  # stabilization engaged
        assert np.all(np.isfinite(sol.states))
        # still a sensible shock profile: monotone decreasing
        assert np.all(np.diff(sol.states[-1][:, 0]) <= 1e-12)

    def test_psystem_partial_viscosity_stable_and_conservative(self):
        m = models.p_system()
        data = PiecewiseConstantFn.riemann([1.0, 0.0], [1.02, 0.01])
        cfg = SchemeConfig(eps=0.01, T=0.25, domain=(-1.0, 1.0), dx=0.005,
                           b_matrix="diag:0,1")
        sol = nonlinear_diffusion_run(m, data, cfg)
        assert np.all(np.isfinite(sol.states))
        # both components conserved up to the (equal) boundary fluxes
        mass_delta = sol.mass(sol.times[-1]) - sol.mass(0.0)
        flux_l = m.f(np.array([1.0, 0.0]))
        flux_r = m.f(np.array([1.02, 0.01]))
        expected = (flux_l - flux_r) * sol.times[-1]
        assert np.max(np.abs(mass_delta - expected)) <= 1e-8
