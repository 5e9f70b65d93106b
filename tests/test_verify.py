import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab import models
from hyperlab.errors import (ConfigError, DegenerateData, HyperlabError,
                             OracleUnavailable, QuadratureUnderResolved)
from hyperlab.fronts import front_tracking_run
from hyperlab.piecewise import GridSolution, PiecewiseConstantFn
from hyperlab.riemann import (JumpWave, WaveFan, liu_admissible,
                              solve_riemann_scalar)
from hyperlab.schemes import SchemeConfig, godunov_run, viscous_run
from hyperlab.verify import (BumpTestFn, EpsCertificate, ExactFanOracle,
                             FanView, FineGodunovOracle, FrontTrackingView,
                             GridView, _dominant_family, certify_eps_approx,
                             default_family, detect_jumps, entropy_residual,
                             error_decomposition, interval_partition,
                             l1_distance, q_decomposition, rate_fit,
                             semigroup_error_bound, strip_expressions,
                             total_variation, weak_residual)

BURGERS = models.burgers()
BURGERS_01 = models.normalize_speeds(BURGERS, M=1.0)


def step_fan(u_l=1.0, u_r=0.0, speed=0.5):
    ul, ur = np.array([u_l]), np.array([u_r])
    w = JumpWave("shock", 0, ul, ur, speed)
    return WaveFan(ul, ur, (ul, ur), (w,))


class TestTotalVariation:
    def test_single_jump(self):
        pc = PiecewiseConstantFn.riemann([0.0], [1.0])
        assert total_variation(pc) == 1.0

    def test_monotone_ramp_any_resolution(self):
        for m in (10, 100, 1000):
            xs = np.linspace(-1, 1, m + 1)[1:-1]
            vals = np.linspace(0, 1, m)[:, None]
            pc = PiecewiseConstantFn(xs, vals)
            assert total_variation(pc) == pytest.approx(1.0)

    def test_sampled_sine(self):
        x = np.linspace(0, 2 * np.pi, 10_001)
        centers = 0.5 * (x[:-1] + x[1:])
        vals = np.sin(centers)[:, None]
        pc = PiecewiseConstantFn(x[1:-1], vals)
        assert total_variation(pc) == pytest.approx(4.0, abs=1e-3)


class TestL1Distance:
    def test_identical(self):
        pc = PiecewiseConstantFn.riemann([1.0], [0.0])
        assert l1_distance(pc, pc, (-1, 1)) == 0.0

    def test_shifted_steps_strength_times_shift(self):
        sigma, xi = 0.7, 0.013
        a = PiecewiseConstantFn.riemann([sigma], [0.0], x=0.0)
        b = PiecewiseConstantFn.riemann([sigma], [0.0], x=xi)
        assert l1_distance(a, b, (-1, 1)) == pytest.approx(sigma * xi)

    def test_offset_gaussians_quadrature(self):
        d = 1e-2
        f = lambda x: np.array([np.exp(-x * x)])
        g = lambda x: np.array([np.exp(-(x - d) ** 2)])
        got = l1_distance(f, g, (-8, 8), cells=10_000)
        exact = 2 * math.sqrt(math.pi) * math.erf(d / 2)
        assert got == pytest.approx(exact, abs=1e-6)


class TestGridView:
    def test_strip_expression_additive_over_time_cuts(self):
        # an exact Burgers shock stored at t = 0 and t = 1 only
        data = PiecewiseConstantFn.riemann([1.0], [0.0])
        times = np.array([0.0, 1.0])
        rows = [data.shifted(0.5 * t).cell_averages(-1.0, 0.01, 300) for t in times]
        view = GridView(GridSolution(-1.0, 0.01, times, np.stack(rows)))
        bumps = [BumpTestFn(0.25, 0.5), BumpTestFn(0.25, 0.5, 0.5, 0.5)]

        def expr(t0, t1):
            return np.ravel(strip_expressions(view, BURGERS, bumps, t0, t1))

        for s in (0.3, 0.6):
            np.testing.assert_allclose(expr(0.0, s) + expr(s, 1.0), expr(0.0, 1.0),
                                       rtol=0, atol=1e-14)

    def test_left_hold_keeps_rounded_snapshot_times(self):
        # stored times are j * dt, and 3 * 0.1 lies just above 0.3
        times = np.arange(4) * 0.1
        rows = np.arange(4.0)[:, None, None] * np.ones((4, 8, 1))
        view = GridView(GridSolution(0.0, 0.125, times, rows))
        assert [view.state(t).vals[0, 0] for t in (0.0, 0.15, 0.3, 0.35)] == \
            [0.0, 1.0, 3.0, 3.0]


def shock_fan_view():
    # the shock crosses the bump edges -0.25 and 0.5 inside the strip
    return FanView(step_fan(2.0, 0.0, 1.0), x0=-0.3, t_span=(0.0, 1.0),
                   x_span=(-1.0, 2.0))


def pulse_front_view():
    # a rarefaction fan catching up with a shock: two front interactions
    data = PiecewiseConstantFn(np.array([0.0, 0.3]), np.array([[0.0], [1.0], [0.0]]))
    cfg = SchemeConfig(eps=1.0, T=1.0, domain=(-1.0, 2.0), delta=0.1)
    return FrontTrackingView(front_tracking_run(BURGERS, data, cfg), (-1.0, 2.0))


@pytest.mark.parametrize("make_view", [shock_fan_view, pulse_front_view])
@settings(max_examples=10, deadline=None, database=None)
@given(s=st.floats(0.01, 0.99))
def test_strip_expression_additive_over_random_cuts(make_view, s):
    # between kinks the integrands are polynomial in t and the Gauss rule is
    # exact, so cutting the strip anywhere changes only rounding
    view = make_view()
    bumps = default_family(0.0, 1.0, *view.x_span, scales=2).bumps

    def expr(t0, t1):
        return strip_expressions(view, BURGERS, bumps, t0, t1, entropy=True)

    np.testing.assert_allclose(expr(0.0, s) + expr(s, 1.0), expr(0.0, 1.0),
                               rtol=0, atol=1e-12)


class TestWeakResidual:
    def test_exact_shock_residual_tiny(self):
        view = FanView(step_fan(), t_span=(0.0, 1.0), x_span=(-1.0, 2.0))
        r = weak_residual(view, BURGERS, t_span=(0.0, 1.0))
        assert r <= 1e-6

    def test_wrong_speed_step_detected(self):
        view = FanView(step_fan(speed=0.6), t_span=(0.0, 1.0), x_span=(-1.0, 2.0))
        r = weak_residual(view, BURGERS, t_span=(0.0, 1.0))
        assert r >= 0.01

    def test_godunov_residual_decreases_under_refinement(self):
        data = PiecewiseConstantFn.riemann([1.0], [0.0])
        rs = []
        for eps in (1 / 25, 1 / 50, 1 / 100):
            cfg = SchemeConfig(eps=eps, T=0.5, domain=(-1.0, 1.5), store_all=True)
            sol = godunov_run(BURGERS_01, data, cfg)
            rs.append(weak_residual(GridView(sol), BURGERS_01, t_span=(0.0, 0.5)))
        assert rs[0] > rs[1] > rs[2]

    def test_underresolved_scale_raises(self):
        data = PiecewiseConstantFn.riemann([1.0], [0.0])
        cfg = SchemeConfig(eps=1 / 8, T=0.5, domain=(-1.0, 1.5), store_all=True)
        sol = godunov_run(BURGERS_01, data, cfg)
        fam = default_family(0.0, 0.5, -1.0, 1.5, scales=5)
        with pytest.raises(QuadratureUnderResolved):
            weak_residual(GridView(sol), BURGERS_01, t_span=(0.0, 0.5), family=fam)


class TestEntropyResidual:
    def test_admissible_shock_nonnegative(self):
        view = FanView(step_fan(), t_span=(0.0, 1.0), x_span=(-1.0, 2.0))
        s = entropy_residual(view, BURGERS, t_span=(0.0, 1.0))
        assert s >= -1e-10

    def test_reversed_shock_strictly_negative(self):
        view = FanView(step_fan(0.0, 1.0, 0.5), t_span=(0.0, 1.0),
                       x_span=(-1.0, 2.0))
        s = entropy_residual(view, BURGERS, t_span=(0.0, 1.0))
        assert s < -1e-3

    def test_smooth_contact_zero_surplus(self):
        m = models.advection(0.7)
        fan = solve_riemann_scalar(m, [0.2], [0.9])
        view = FanView(fan, t_span=(0.0, 1.0), x_span=(-1.0, 2.0))
        s = entropy_residual(view, m, t_span=(0.0, 1.0))
        assert abs(s) <= 1e-6


class TestCertificate:
    def test_exact_shock_certifies_tiny(self):
        view = FanView(step_fan(), t_span=(0.0, 1.0), x_span=(-1.0, 2.0))
        data = PiecewiseConstantFn.riemann([1.0], [0.0])
        cert = certify_eps_approx(view, BURGERS, M=0.6, initial_data=data)
        assert isinstance(cert, EpsCertificate)
        assert cert.eps <= 1e-6

    def test_certificate_leaves_view_unchanged(self):
        # a view memoises no profiles, so certifying adds no attributes
        view = FanView(step_fan(), t_span=(0.0, 1.0), x_span=(-1.0, 2.0))
        before = dict(vars(view))
        certify_eps_approx(view, BURGERS, M=0.6,
                           initial_data=PiecewiseConstantFn.riemann([1.0], [0.0]))
        assert vars(view).keys() == before.keys()
        assert all(vars(view)[k] is v for k, v in before.items())

    def test_speed_corruption_fails_to_certify(self):
        view = FanView(step_fan(speed=0.6), t_span=(0.0, 1.0), x_span=(-1.0, 2.0))
        data = PiecewiseConstantFn.riemann([1.0], [0.0])
        cert = certify_eps_approx(view, BURGERS, M=0.7, initial_data=data)
        assert cert.eps >= 1e-2

    def test_front_tracking_certificate_scales_with_delta(self):
        data = PiecewiseConstantFn.riemann([0.0], [1.0])
        certs = []
        for delta in (0.1, 0.05):
            cfg = SchemeConfig(eps=1.0, T=1.0, domain=(-1.0, 2.0), delta=delta)
            sol = front_tracking_run(BURGERS, data, cfg)
            view = FrontTrackingView(sol, x_span=(-1.0, 2.0))
            certs.append(certify_eps_approx(view, BURGERS, M=1.1,
                                            initial_data=data))
        assert certs[0].eps <= 0.2
        assert certs[1].eps <= certs[0].eps * 1.1  # refinement monotone (10%)


class TestDetectJumps:
    def make_step_grid(self, speed=0.5, eps=1 / 200, T=1.0):
        data = PiecewiseConstantFn.riemann([1.0], [0.0])
        times = np.linspace(0, T, 11)
        rows = []
        for t in times:
            rows.append(data.shifted(speed * t).cell_averages(-1.0, eps,
                                                              int(2.5 / eps)))
        return GridSolution(-1.0, eps, times, np.stack(rows))

    def test_exact_step_speed_recovered(self):
        sol = self.make_step_grid()
        recs = detect_jumps(sol, 0.5, model=BURGERS)
        assert len(recs) == 1
        assert recs[0].speed == pytest.approx(0.5, abs=1e-3)
        assert recs[0].rh_residual <= 1e-6

    def test_smooth_gaussian_empty(self):
        eps = 1 / 200
        x0, cells = -2.0, int(4.0 / eps)
        times = np.linspace(0, 0.1, 5)
        c = x0 + eps * (np.arange(cells) + 0.5)
        rows = [np.exp(-8 * (c - 0.05 * t) ** 2)[:, None] for t in times]
        sol = GridSolution(x0, eps, times, np.stack(rows))
        assert detect_jumps(sol, 0.05, model=BURGERS) == []

    def test_viscous_profile_detected(self):
        eps = 0.005
        cfg = SchemeConfig(eps=eps, T=1.0, domain=(-1.0, 2.0),
                           snapshot_times=np.linspace(0, 1, 11))
        sol = viscous_run(BURGERS, PiecewiseConstantFn.riemann([1.0], [0.0]), cfg)
        recs = detect_jumps(sol, 1.0, r=0.1, model=BURGERS)
        assert len(recs) == 1
        r = recs[0]
        assert r.u_minus[0] == pytest.approx(1.0, abs=5e-2)
        assert r.u_plus[0] == pytest.approx(0.0, abs=5e-2)
        assert r.speed == pytest.approx(0.5, abs=5e-2)

    def test_fan_sampled_counts_match(self):
        m = models.cubic_flux()
        fan = solve_riemann_scalar(m, [-1.0], [1.0])
        view = FanView(fan, t_span=(0, 1), x_span=(-2, 4))
        eps = 1 / 200
        times = np.linspace(0.5, 1.0, 5)
        cells = int(6 / eps)
        rows = [view.state(t).cell_averages(-2.0, eps, cells) for t in times]
        sol = GridSolution(-2.0, eps, times, np.stack(rows))
        recs = detect_jumps(sol, 0.75, model=m)
        assert len(recs) == 1  # the shock; no detections inside the fan

    def test_psystem_godunov_margin_none_where_liu_raises(self):
        m = models.normalize_speeds(models.p_system(), M=2.0)
        data = PiecewiseConstantFn.riemann([1.0, 0.0], [0.95, -0.05])
        cfg = SchemeConfig(eps=1 / 100, T=0.3, domain=(-1.0, 1.0), store_all=True)
        sol = godunov_run(m, data, cfg)
        recs = detect_jumps(sol, 0.3, threshold=0.02, model=m)
        assert recs
        for r in recs:
            fam = _dominant_family(m, r.u_minus, r.u_plus)
            try:
                margin = liu_admissible(m, r.u_minus, r.u_plus, fam).margin
            except HyperlabError:
                margin = None
            assert r.liu_margin == margin

    def test_psystem_shock_speed_measured(self):
        m = models.normalize_speeds(models.p_system(), M=2.0)
        data = PiecewiseConstantFn.riemann([1.0, 0.0], [0.95, -0.05], x=0.3)
        cfg = SchemeConfig(eps=1 / 100, T=0.3, domain=(0.0, 1.0), store_all=True)
        recs = detect_jumps(godunov_run(m, data, cfg), 0.3, model=m)
        assert len(recs) == 1
        r = recs[0]
        assert r.speed == pytest.approx(0.13477, abs=0.01)  # exact 1-shock
        assert r.rh_residual <= 1e-3
        assert r.entropy_margin >= 0.0


class TestIntervalPartition:
    def test_small_tv_single_interval(self):
        pc = PiecewiseConstantFn(np.array([0.0]), np.array([[0.0], [0.05]]))
        assert interval_partition(pc, 0.1) == []

    def test_three_jumps_of_size_eps(self):
        e = 0.2
        pc = PiecewiseConstantFn(np.array([0.0, 1.0, 2.0]),
                                 np.array([[0.0], [e], [2 * e], [3 * e]]))
        pts = interval_partition(pc, e)
        assert pts == [0.0, 1.0, 2.0]

    def test_uniform_ramp(self):
        m = 1000
        xs = np.linspace(0, 1, m + 2)[1:-1]
        vals = np.linspace(0, 1, m + 1)[:, None]
        pc = PiecewiseConstantFn(xs, vals)
        pts = interval_partition(pc, 0.1)
        assert len(pts) + 1 in (10, 11)  # points split the line into intervals
        for a, b in zip([None] + pts, pts + [None]):
            if a is not None and b is not None:
                assert pc.tv(a, b) < 0.1


class TestErrorDecomposition:
    def test_constant_solution_all_zero(self):
        pc = PiecewiseConstantFn.constant([0.5])
        cfg = SchemeConfig(eps=1 / 50, T=0.5, domain=(-1, 1), store_all=True)
        sol = godunov_run(BURGERS_01, pc, cfg)
        oracle = FineGodunovOracle(BURGERS_01, (1 / 50) / 8, (-1, 1))
        dec = error_decomposition(GridView(sol), BURGERS_01, oracle, 0.25,
                                  eps=0.1, h_ladder=[0.1, 0.05])
        assert dec.jump_terms.size == 0  # no partition points at all
        assert np.all(dec.interval_terms <= 1e-12)  # oracle roundoff only

    def test_exact_shock_jump_terms_vanish(self):
        view = FanView(step_fan(), t_span=(0, 2), x_span=(-2, 3))
        oracle = ExactFanOracle(BURGERS)
        dec = error_decomposition(view, BURGERS, oracle, 1.0, eps=0.5,
                                  h_ladder=[0.2, 0.1, 0.05])
        assert len(dec.partition) == 1
        assert np.all(dec.jump_terms <= 1e-9)
        assert np.all(dec.total() + 1e-12 >= dec.measured_rate * 0.9)

    def test_interval_terms_scale_quadratically(self):
        # smooth profile: B-type terms behave like the square of the
        # per-interval variation threshold (mesh fine enough that the
        # scheme's own viscosity does not mask the quadratic signal)
        m = models.p_system()
        mn = models.normalize_speeds(m, M=2.0)
        amp = 0.5

        def data(x):
            return np.array([1.0 + amp * np.exp(-x * x), 0.0])

        cfg = SchemeConfig(eps=1 / 800, T=0.1, domain=(-3, 3), store_all=True)
        sol = godunov_run(mn, data, cfg)
        oracle = FineGodunovOracle(mn, (1 / 800) / 8, (-3, 3))
        view = GridView(sol)
        maxima = []
        for eps_part in (0.2, 0.1):
            dec = error_decomposition(view, mn, oracle, 0.04, eps=eps_part,
                                      h_ladder=[0.04])
            maxima.append(dec.interval_terms.max())
        assert maxima[1] <= maxima[0] / 3.0

    def test_oracle_failures(self):
        view = FanView(step_fan(), t_span=(0, 2), x_span=(-2, 3))
        # 0.1 is not a multiple of the 0.03 oracle step: raised as is
        oracle = FineGodunovOracle(BURGERS_01, 0.03, (-2, 3))
        with pytest.raises(OracleUnavailable, match="not a multiple") as info:
            error_decomposition(view, BURGERS, oracle, 1.0, eps=0.5, h_ladder=[0.1])
        assert info.value.__cause__ is None

        class Failing:
            def __init__(self, exc):
                self.exc = exc

            def evolve(self, pc, h):
                raise self.exc

        with pytest.raises(OracleUnavailable) as info:
            error_decomposition(view, BURGERS, Failing(ConfigError("bad")), 1.0,
                                eps=0.5, h_ladder=[0.1])
        assert isinstance(info.value.__cause__, ConfigError)
        # a programming error is not an unavailable oracle
        with pytest.raises(ZeroDivisionError):
            error_decomposition(view, BURGERS, Failing(ZeroDivisionError()), 1.0,
                                eps=0.5, h_ladder=[0.1])


class TestSemigroupBound:
    def test_oracle_trajectory_itself(self):
        data = PiecewiseConstantFn.riemann([1.0], [0.0])
        oracle = FineGodunovOracle(BURGERS_01, 1 / 80, (-1, 2))
        path = [(0.0, data)]
        for j in range(4):
            path.append((path[-1][0] + 0.1,
                         oracle.evolve(path[-1][1], 0.1)))
        bound, actual = semigroup_error_bound(path, oracle, 0.4, L=1.0)
        assert bound <= 1e-12 and actual <= 1e-12

    def test_artificial_restart_jump(self):
        d = 0.05  # L1 size of the inserted defect
        data = PiecewiseConstantFn.riemann([1.0], [0.0])
        oracle = FineGodunovOracle(BURGERS_01, 1 / 80, (-1, 2))
        path = [(0.0, data)]
        for j in range(4):
            nxt = oracle.evolve(path[-1][1], 0.1)
            if j == 1:
                nxt = PiecewiseConstantFn(nxt.xs, nxt.vals + 0.0)
                nxt = nxt.shifted(0.0)
                # shift the whole profile by d / |jump|: L1 change = d
                nxt = PiecewiseConstantFn(nxt.xs + d, nxt.vals)
            path.append((path[-1][0] + 0.1, nxt))
        bound, actual = semigroup_error_bound(path, oracle, 0.4, L=1.0)
        assert bound >= d - 1e-3
        assert actual <= bound + 1e-9

    def test_glimm_vs_fine_godunov(self):
        from hyperlab.schemes import glimm_run
        data = PiecewiseConstantFn.riemann([1.0], [0.0])
        cfg = SchemeConfig(eps=1 / 40, T=0.5, domain=(-0.5, 1.5), store_all=True)
        sol = glimm_run(BURGERS_01, data, cfg)
        oracle = FineGodunovOracle(BURGERS_01, (1 / 40) / 8, (-0.5, 1.5))
        bound, actual = semigroup_error_bound(sol, oracle, 0.5, L=1.0)
        assert actual <= bound * 1.05 + 1e-12


class TestQDecomposition:
    def test_equal_profiles(self):
        u = PiecewiseConstantFn.riemann([1.0, 0.0], [1.02, 0.01])
        cuts, q, total = q_decomposition(models.p_system(), u, u)
        assert total == 0.0

    def test_scalar_reduces_to_l1(self):
        u = PiecewiseConstantFn(np.array([0.0, 1.0]),
                                np.array([[0.2], [0.7], [0.1]]))
        v = PiecewiseConstantFn(np.array([0.4]), np.array([[0.3], [0.5]]))
        cuts, q, total = q_decomposition(BURGERS, u, v, interval=(-2, 3))
        assert total == pytest.approx(u.l1_distance(v, -2, 3), abs=1e-12)

    def test_psystem_equivalent_to_l1(self):
        m = models.p_system()
        rng = np.random.default_rng(3)
        base = np.array([1.0, 0.0])
        xs = np.array([-0.5, 0.1, 0.6])
        u = PiecewiseConstantFn(xs, base + 0.02 * rng.standard_normal((4, 2)))
        v = PiecewiseConstantFn(xs + 0.03, base + 0.02 * rng.standard_normal((4, 2)))
        cuts, q, total = q_decomposition(m, u, v, interval=(-2, 2))
        l1 = u.l1_distance(v, -2, 2)
        C = 2.0
        assert l1 / C <= total <= C * l1


class TestRateFit:
    def test_sqrtlog_exact_recovery(self):
        eps = np.array([0.1, 0.05, 0.025, 0.0125])
        errs = 2.0 * np.sqrt(eps) * np.abs(np.log(eps))
        fit = rate_fit(list(zip(eps, errs)), "sqrtlog")
        assert fit.C == pytest.approx(2.0, abs=1e-10)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_power_exact_recovery(self):
        eps = np.array([0.1, 0.05, 0.025])
        fit = rate_fit(list(zip(eps, eps)), "power")
        assert fit.p == pytest.approx(1.0, abs=1e-10)
        assert fit.C == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateData):
            rate_fit([(0.1, 1.0), (0.05, 0.5)], "power")
        with pytest.raises(DegenerateData):
            rate_fit([(0.1, 1.0), (0.05, -0.5), (0.025, 0.2)], "power")
