import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab import models
from hyperlab.errors import (ConfigError, DegenerateData, HyperlabError,
                             NonClassifiedField, OracleUnavailable,
                             QuadratureUnderResolved)
from hyperlab.fronts import front_tracking_run
from hyperlab.piecewise import GridSolution, PiecewiseConstantFn
from hyperlab.riemann import JumpWave, WaveFan, liu_admissible, solve_riemann
from hyperlab.schemes import SchemeConfig, godunov_run, viscous_run
from hyperlab.verify import (BumpTestFn, EpsCertificate, ExactFanOracle,
                             FanView, FineGodunovOracle, FrontTrackingView,
                             GridView, _dominant_family, certify_eps_approx,
                             default_family, detect_jumps, entropy_residual,
                             error_decomposition, interval_partition,
                             profile_integrals, q_decomposition, rate_fit,
                             semigroup_error_bound, strip_expressions,
                             weak_residual)

BURGERS = models.burgers()
BURGERS_01 = models.normalize_speeds(BURGERS, M=1.0)


def step_fan(u_l=1.0, u_r=0.0, speed=0.5):
    ul, ur = np.array([u_l]), np.array([u_r])
    w = JumpWave("shock", 0, ul, ur, speed)
    return WaveFan(ul, (w,))


class TestTotalVariation:
    def test_single_jump(self):
        pc = PiecewiseConstantFn.riemann([0.0], [1.0])
        assert pc.tv() == 1.0

    def test_monotone_ramp_any_resolution(self):
        for m in (10, 100, 1000):
            xs = np.linspace(-1, 1, m + 1)[1:-1]
            vals = np.linspace(0, 1, m)[:, None]
            pc = PiecewiseConstantFn(xs, vals)
            assert pc.tv() == pytest.approx(1.0)

    def test_sampled_sine(self):
        x = np.linspace(0, 2 * np.pi, 10_001)
        centers = 0.5 * (x[:-1] + x[1:])
        vals = np.sin(centers)[:, None]
        pc = PiecewiseConstantFn(x[1:-1], vals)
        assert pc.tv() == pytest.approx(4.0, abs=1e-3)


class TestL1Distance:
    def test_identical(self):
        pc = PiecewiseConstantFn.riemann([1.0], [0.0])
        assert pc.l1_distance(pc, -1, 1) == 0.0

    def test_shifted_steps_strength_times_shift(self):
        sigma, xi = 0.7, 0.013
        a = PiecewiseConstantFn.riemann([sigma], [0.0], x=0.0)
        b = PiecewiseConstantFn.riemann([sigma], [0.0], x=xi)
        assert a.l1_distance(b, -1, 1) == pytest.approx(sigma * xi)


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

    def test_solution_holds_snapshots_as_its_view_does(self):
        # 0.24 is nearest the 0.25 snapshot, but the run is held from 0
        times = np.array([0.0, 0.25, 0.5])
        rows = np.arange(3.0)[:, None, None] * np.ones((3, 8, 1))
        sol = GridSolution(0.0, 0.125, times, rows)
        view = GridView(sol)
        assert np.array_equal(sol.row(0.24), rows[0])
        for t in (0.0, 0.24, 0.25 - 1e-15, 0.25, 0.49, 0.5, 0.7):
            assert np.array_equal(view.state(t).vals, sol.row(t))


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
                               rtol=0, atol=1e-14)



@pytest.mark.parametrize("make_view", [shock_fan_view, pulse_front_view])
def test_strip_expression_additive_across_time_support_ends(make_view):
    # the clipped time factor of the bump has kinks at 0.25 and 0.75, so the
    # Gauss panels must be cut there as at the view's own kinks
    view = make_view()
    bumps = [BumpTestFn(0.3, 0.4, 0.5, 0.25)]

    def expr(t0, t1):
        return strip_expressions(view, BURGERS, bumps, t0, t1, entropy=True)

    np.testing.assert_allclose(expr(0.0, 0.25) + expr(0.25, 0.75) + expr(0.75, 1.0),
                               expr(0.0, 1.0), rtol=0, atol=1e-14)


def burgers_pulses_view():
    # two pulses drawn as the certify-burgers benchmark draws them: each
    # rarefaction catches the shock in front of it
    data = PiecewiseConstantFn(np.array([0.0, 0.17, 0.47, 0.65]),
                               np.array([[0.0], [0.8], [0.0], [0.75], [0.0]]))
    cfg = SchemeConfig(eps=1.0, T=1.0, domain=(-0.5, 2.5), delta=0.05)
    return FrontTrackingView(front_tracking_run(BURGERS, data, cfg), (-0.5, 2.5))


def cubic_fan_view():
    # a shock from -1 to 1/2 with a rarefaction attached, centred at (0.2, 0.1)
    return FanView(solve_riemann(models.cubic_flux(), [-1.0], [1.0]), x0=0.2,
                   t0=0.1, t_span=(0.1, 1.0), x_span=(-1.0, 2.0))


def reference_strip(view, model, bumps, t0, t1, entropy):
    """strip_expressions by 20-point Gauss panels between the view's kinks,
    no wider than (t1 - t0) / 256, with one profile per node."""
    nodes, weights = np.polynomial.legendre.leggauss(20)
    edges = sorted({e for bump in bumps for e in bump.x_edges()})
    cuts = sorted({t0, t1, *view.kink_times(t0, t1, edges)})
    knots = np.concatenate([[t0]] + [
        np.linspace(a, b, int(np.ceil((b - a) * 256 / (t1 - t0))) + 1)[1:]
        for a, b in zip(cuts[:-1], cuts[1:])])
    half = 0.5 * np.diff(knots)
    ts = (0.5 * (knots[:-1] + knots[1:]))[:, None] + half[:, None] * nodes
    ws = half[:, None] * weights
    xc = np.array([bump.xc for bump in bumps])
    sx = np.array([bump.sx for bump in bumps])

    def integrals(t):
        pc = view.state(t)
        g, h = pc.vals, model.f(pc.vals)
        if entropy:
            g = np.column_stack([g, model.entropy(pc.vals)])
            h = np.column_stack([h, model.entropy_flux(pc.vals)])
        return profile_integrals(pc, g, h, xc, sx)

    def factors(times):
        return np.stack([bump.time_factors(times) for bump in bumps])

    ends = factors(np.array([t0, t1]))
    out = ends[:, 0, :1] * integrals(t0)[0] - ends[:, 0, 1:] * integrals(t1)[0]
    T, Tp, _ = factors(ts.ravel()).transpose(1, 2, 0)
    for t, w, T_k, Tp_k in zip(ts.ravel(), ws.ravel(), T, Tp):
        I, J = integrals(t)
        out = out + w * (Tp_k[:, None] * I + T_k[:, None] * J)
    return out


@pytest.mark.parametrize("make_view, model, bumps, atol", [
    (pulse_front_view, BURGERS, None, 1e-14),
    (burgers_pulses_view, BURGERS, None, 1e-14),
    # the fan's 1,125 rarefaction cells are not kinks, so its panels are
    # capped at 1/16 of the strip and the rule is not exact: the cells cross
    # both edges of the bump inside the strip
    (cubic_fan_view, models.cubic_flux(),
     [BumpTestFn(2.0, 0.5), BumpTestFn(2.0, 0.5, 0.55, 0.45)], 2e-13)],
    ids=["pulse", "two-pulses", "cubic-fan"])
def test_strip_expression_matches_a_finer_rule(make_view, model, bumps, atol):
    view = make_view()
    if bumps is None:
        bumps = default_family(*view.t_span, *view.x_span, scales=2).bumps
    entropy = model.has_entropy_pair()
    got = strip_expressions(view, model, bumps, *view.t_span, entropy=entropy)
    want = reference_strip(view, model, bumps, *view.t_span, entropy)
    np.testing.assert_allclose(got, want, rtol=0, atol=atol)


# the certificate of the pulse run, pinned before the time quadrature took
# 7-point panels between kinks and summed the whole span from its strips:
# eps bit for bit, and each recorded value (initial and Lipschitz excess,
# weak defect, entropy surplus, in the order recorded) to 1e-15
PULSE_CERT_EPS = "0x1.f4cc509fac000p-14"
PULSE_CERT_VALUES = {
    "initial": [0.0],
    "lipschitz": [0.0, 0.0, 0.0],
    "weak": [
        8.99e-17, 3.24e-18, 5.92e-17, 2.04e-16, 8.65e-17, 8.52e-17, 0.0, 0.0,
        6.98e-17, 5.62e-18, 4.21e-17, 2.72e-16, 4.04e-17, 3.85e-17, 0.0, 0.0,
        1.63e-17, 1.36e-17, 1.55e-16, 1.48e-16, 1.43e-16, 8.26e-17, 0.0, 0.0,
        2.14e-17, 1.41e-17, 3.15e-17, 2.63e-16, 9.53e-18, 3.94e-17, 0.0, 0.0,
        1.16e-16, 1.07e-17, 2.09e-16, 9.83e-17, 5.60e-17, 4.79e-18, 0.0, 0.0,
        6.51e-17, 6.50e-18, 1.97e-17, 6.46e-17, 2.20e-17, 5.93e-18, 0.0, 0.0
    ],
    "entropy": [
        0.0001880912690578424, -8.88369388356373e-06, 0.08146492357246207,
        0.03763685038475259, 1.1858677902752683e-06, 1.17635292646456e-06,
        0.0, 0.0, 0.001437371576360349, -3.146535616951501e-06,
        0.07836480085978835, 0.03736799361887394, 9.10815859947624e-06,
        9.034212624731463e-06, 0.0, 0.0, -2.7721454111629056e-05,
        -1.4694569891489002e-05, 0.05935720982501209, 0.03325810364995266,
        0.0006378506349716043, 0.00013787478737578533, 0.0, 0.0,
        -0.00013672925024436853, -7.240604887391387e-05, 0.053377121050423,
        0.03150585413390833, 0.0040260611141639795, 0.0009331476546445065,
        0.0, 0.0, 0.0001603698149462035, -2.3578263775049973e-05,
        0.14082213339747432, 0.07089495403470525, 0.0006390365027618802,
        0.0001390511403022558, 0.0, 0.0, 0.0013006423261160516,
        -7.555258449084967e-05, 0.13174192191021128, 0.06887384775278212,
        0.0040351692727634576, 0.000942181867269242, 0.0, 0.0
    ],
}
PULSE_CERT_KEYS = {"initial": "value", "lipschitz": "value", "weak": "defect",
                   "entropy": "surplus"}


def test_pulse_certificate_pinned():
    data = PiecewiseConstantFn(np.array([0.0, 0.3]), np.array([[0.0], [1.0], [0.0]]))
    cert = certify_eps_approx(pulse_front_view(), BURGERS, M=1.1, initial_data=data,
                              family=default_family(0.0, 1.0, -1.0, 2.0, scales=2),
                              n_probe=3)
    assert cert.eps.hex() == PULSE_CERT_EPS
    assert [t["kind"] for t in cert.tests] == \
        ["initial"] + ["lipschitz"] * 3 + ["weak", "entropy"] * 48
    for kind, key in PULSE_CERT_KEYS.items():
        got = [t[key] for t in cert.tests if t["kind"] == kind]
        np.testing.assert_allclose(got, PULSE_CERT_VALUES[kind], rtol=0, atol=1e-15)



# stored Godunov runs of Burgers on speeds [0, 1], data 1 | 0: weak residual
# and certificate eps, pinned bit for bit before grid runs were drawn by lines
GRID_PINS = {80: ("0x1.09fa69f7345c1p-9", "0x1.3238eaff6cb46p-5"),
             320: ("0x1.08538cfcc7f7bp-11", "0x1.8487092828ed0p-7")}


@pytest.mark.parametrize("cells_per_unit", sorted(GRID_PINS))
def test_grid_residual_and_certificate_pinned(cells_per_unit):
    data = PiecewiseConstantFn.riemann([1.0], [0.0])
    cfg = SchemeConfig(eps=1 / cells_per_unit, T=0.5, domain=(-1.0, 1.5),
                       store_all=True)
    view = GridView(godunov_run(BURGERS_01, data, cfg))
    cert = certify_eps_approx(view, BURGERS_01, M=1.0, initial_data=data)
    assert (weak_residual(view, BURGERS_01).hex(), cert.eps.hex()) == \
        GRID_PINS[cells_per_unit]


class TestWeakResidual:
    def test_exact_shock_residual_tiny(self):
        view = FanView(step_fan(), t_span=(0.0, 1.0), x_span=(-1.0, 2.0))
        r = weak_residual(view, BURGERS, t_span=(0.0, 1.0))
        assert r <= 1e-6

    def test_fan_with_no_wave_residual_tiny(self):
        view = FanView(WaveFan(np.array([0.4]), ()), x_span=(-1.0, 2.0))
        assert weak_residual(view, BURGERS) < 1e-15

    def test_wrong_speed_step_detected(self):
        view = FanView(step_fan(speed=0.6), t_span=(0.0, 1.0), x_span=(-1.0, 2.0))
        r = weak_residual(view, BURGERS, t_span=(0.0, 1.0))
        assert r >= 0.01

    def test_godunov_residual_decreases_under_refinement(self):
        data = PiecewiseConstantFn.riemann([1.0], [0.0])
        rs = []
        for eps in (1 / 20, 1 / 40, 1 / 80):
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
        s = entropy_residual(view, BURGERS, t_span=(0.0, 1.0),
                             family=default_family(0.0, 1.0, -1.0, 2.0))
        assert s < -1e-3

    def test_smooth_contact_zero_surplus(self):
        m = models.advection(0.7)
        fan = solve_riemann(m, [0.2], [0.9])
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

    def test_breakdown_is_read_off_the_tests(self):
        # eps is the largest of the four excesses, and each excess is the
        # largest entry of its kind in the recorded tests
        view = FanView(step_fan(speed=0.6), t_span=(0.0, 1.0), x_span=(-1.0, 2.0))
        data = PiecewiseConstantFn.riemann([1.0], [0.0])
        cert = certify_eps_approx(view, BURGERS, M=0.7, initial_data=data)
        parts = {"initial": cert.initial_excess, "lipschitz": cert.lipschitz_excess,
                 "weak": cert.weak_excess, "entropy": cert.entropy_excess}
        assert cert.eps == max(parts.values())
        assert {t["kind"] for t in cert.tests} == parts.keys()
        for kind, excess in parts.items():
            key = "value" if kind in ("initial", "lipschitz") else "eps"
            assert excess == max(t[key] for t in cert.tests if t["kind"] == kind)

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


def record_digest(recs):
    h = hashlib.sha256()
    for r in recs:
        for v in (r.t, r.xi, r.u_minus, r.u_plus, r.speed, r.rh_residual,
                  r.window_radius, r.defect, r.liu_margin, r.entropy_margin):
            h.update(np.ascontiguousarray(np.nan if v is None else v,
                                          dtype=float).tobytes())
    return h.hexdigest()[:16]


def psystem_scan(t, x=0.0, domain=(-1.0, 1.0), **kw):
    m = models.normalize_speeds(models.p_system(), M=2.0)
    data = PiecewiseConstantFn.riemann([1.0, 0.0], [0.95, -0.05], x=x)
    cfg = SchemeConfig(eps=1 / 100, T=0.3, domain=domain, store_all=True)
    return detect_jumps(godunov_run(m, data, cfg), t, model=m, **kw)


def cubic_fan_samples():
    fan = solve_riemann(models.cubic_flux(), [-1.0], [1.0])
    view = FanView(fan, t_span=(0, 1), x_span=(-2, 4))
    times = np.linspace(0.5, 1.0, 5)
    rows = [view.state(t).cell_averages(-2.0, 1 / 200, 1200) for t in times]
    return GridSolution(-2.0, 1 / 200, times, np.stack(rows))


def gaussian_samples():
    eps = 1 / 200
    x0, cells = -2.0, int(4.0 / eps)
    times = np.linspace(0, 0.1, 5)
    c = x0 + eps * (np.arange(cells) + 0.5)
    rows = [np.exp(-8 * (c - 0.05 * t) ** 2)[:, None] for t in times]
    return GridSolution(x0, eps, times, np.stack(rows))


def viscous_snapshots():
    cfg = SchemeConfig(eps=0.005, T=1.0, domain=(-1.0, 2.0),
                       snapshot_times=np.linspace(0, 1, 11))
    return viscous_run(BURGERS, PiecewiseConstantFn.riemann([1.0], [0.0]), cfg)


# the scans of TestDetectJumps, a scan without a model and a p-system scan
# between the shocks' birth and T, each pinned by (count, digest of every
# record field) taken before detect_jumps became array passes
JUMP_SCENARIOS = {
    "step": lambda case: detect_jumps(case.make_step_grid(), 0.5, model=BURGERS),
    "step-no-model": lambda case: detect_jumps(case.make_step_grid(speed=0.1),
                                               0.5),
    "gaussian": lambda case: detect_jumps(gaussian_samples(), 0.05,
                                          model=BURGERS),
    "viscous": lambda case: detect_jumps(viscous_snapshots(), 1.0, r=0.1,
                                         model=BURGERS),
    "cubic-fan": lambda case: detect_jumps(cubic_fan_samples(), 0.75,
                                           model=models.cubic_flux()),
    "psystem": lambda case: psystem_scan(0.3, threshold=0.02),
    "psystem-t0.15": lambda case: psystem_scan(0.15, threshold=0.02),
    "psystem-shock": lambda case: psystem_scan(0.3, 0.3, (0.0, 1.0)),
}
JUMP_RECORDS = {
    "step": (1, "e4ca4a7319f749cd"),
    "step-no-model": (1, "2c9a6c36e1c16145"),
    "gaussian": (0, "e3b0c44298fc1c14"),
    "viscous": (1, "604c9ed27a696f62"),
    "cubic-fan": (1, "860625629569e606"),
    "psystem": (1, "d41312896293ec4e"),
    "psystem-t0.15": (1, "9fc318b7583d41fe"),
    "psystem-shock": (1, "a0802610940a114d"),
}


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
        assert detect_jumps(gaussian_samples(), 0.05, model=BURGERS) == []

    def test_viscous_profile_detected(self):
        recs = detect_jumps(viscous_snapshots(), 1.0, r=0.1, model=BURGERS)
        assert len(recs) == 1
        r = recs[0]
        assert r.u_minus[0] == pytest.approx(1.0, abs=5e-2)
        assert r.u_plus[0] == pytest.approx(0.0, abs=5e-2)
        assert r.speed == pytest.approx(0.5, abs=5e-2)

    def test_fan_sampled_counts_match(self):
        recs = detect_jumps(cubic_fan_samples(), 0.75, model=models.cubic_flux())
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

    @pytest.mark.parametrize("scenario", sorted(JUMP_RECORDS))
    def test_records_bit_identical(self, scenario):
        recs = JUMP_SCENARIOS[scenario](self)
        assert (len(recs), record_digest(recs)) == JUMP_RECORDS[scenario]



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

    def test_exact_fan_oracle_needs_one_jump(self):
        data = PiecewiseConstantFn(np.array([0.0, 1.0]), np.array([[1.0], [0.0], [1.0]]))
        with pytest.raises(OracleUnavailable, match="single-jump"):
            ExactFanOracle(BURGERS).evolve(data, 0.1)

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
        bound, actual = semigroup_error_bound(path, oracle, L=1.0)
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
        bound, actual = semigroup_error_bound(path, oracle, L=1.0)
        assert bound >= d - 1e-3
        assert actual <= bound + 1e-9

    def test_span_checked_against_the_grid_step(self):
        # (-2, 3) holds 167 cells of 5/167, not of the nominal 0.03: a span
        # of ten nominal steps is refused before the run starts, ten grid
        # steps evolve
        data = PiecewiseConstantFn.riemann([1.0], [0.0])
        oracle = FineGodunovOracle(BURGERS_01, 0.03, (-2, 3))
        with pytest.raises(OracleUnavailable, match="not a multiple"):
            semigroup_error_bound([(0.0, data), (0.3, data)], oracle, L=1.0)
        h = 10 * 5 / 167
        path = [(0.0, data), (h, oracle.evolve(data, h))]
        bound, actual = semigroup_error_bound(path, oracle, L=1.0)
        assert bound <= 1e-12 and actual <= 1e-12

    def test_glimm_vs_fine_godunov(self):
        from hyperlab.schemes import glimm_run
        data = PiecewiseConstantFn.riemann([1.0], [0.0])
        cfg = SchemeConfig(eps=1 / 40, T=0.5, domain=(-0.5, 1.5), store_all=True)
        sol = glimm_run(BURGERS_01, data, cfg)
        oracle = FineGodunovOracle(BURGERS_01, (1 / 40) / 8, (-0.5, 1.5))
        bound, actual = semigroup_error_bound(sol, oracle, L=1.0)
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

    def test_small_differences_not_skipped(self):
        # every state shifted by e: the ratio q-total / L1 does not depend
        # on e, down to e = 1e-8, where a relative skip test dropped cells
        m = models.p_system()
        u = PiecewiseConstantFn.riemann([1.0, 0.0], [1.02, 0.01])
        ratios = []
        for e in (1e-4, 1e-8):
            v = PiecewiseConstantFn(u.xs, u.vals + e)
            total = q_decomposition(m, u, v, interval=(-1.0, 1.0))[2]
            ratios.append(total / u.l1_distance(v, -1.0, 1.0))
        assert ratios[1] == pytest.approx(ratios[0], rel=0.01)

    def test_unclassified_field_refused(self):
        # family 0 is the cubic u1^3, neither GNL nor LD across u1 = 0
        m = models.FluxModel(
            "cubic-advection", 2,
            flux=lambda u: np.stack([u[..., 0] ** 3, 2.0 * u[..., 1]], axis=-1),
            jacobian=lambda u: np.diag([3.0 * u[0] ** 2, 2.0]))
        u = PiecewiseConstantFn.constant([-0.3, 0.0])
        v = PiecewiseConstantFn.constant([0.3, 0.1])
        with pytest.raises(NonClassifiedField):
            q_decomposition(m, u, v)


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
