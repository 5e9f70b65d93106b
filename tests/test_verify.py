from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab import models, verify
from hyperlab.errors import ConfigError, NonClassifiedField, OracleUnavailable
from hyperlab.fronts import front_tracking_run
from hyperlab.piecewise import GridSolution, PiecewiseConstantFn
from hyperlab.riemann import JumpWave, WaveFan, solve_riemann
from hyperlab.schemes import SchemeConfig, godunov_run
from hyperlab.verify import (BumpTestFn, EpsCertificate, FanView,
                             FineGodunovOracle, FrontTrackingOracle, FrontTrackingView,
                             GridView, as_view, certify_eps_approx,
                             default_family, entropy_residual,
                             error_decomposition, interval_partition,
                             profile_integrals, q_decomposition, rate_fit,
                             semigroup_error_bound, strip_expressions,
                             weak_residual)

BURGERS = models.burgers()
BURGERS_PAIR = [(BURGERS.entropy, BURGERS.entropy_flux)]
BURGERS_01 = models.normalize_speeds(BURGERS, M=1.0)


def step_fan(u_l=1.0, u_r=0.0, speed=0.5):
    ul, ur = np.array([u_l]), np.array([u_r])
    w = JumpWave("shock", 0, ul, ur, speed)
    return WaveFan(ul, (w,))


class FailingOracle:
    """An oracle whose every evolution raises exc."""

    domain = (-2, 3)
    note = "failing"

    def __init__(self, exc):
        self.exc = exc

    def evolve(self, pc, h):
        raise self.exc


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


def test_bump_kernels_within_two_ulp_of_exact():
    # against the exact rational polynomials at the clipped point, absolute
    # error in units of 2^-52 (every value is at most 96/(25 sqrt 5) in size)
    rng = np.random.default_rng(20261020)
    special = [1.0, -1.0, 0.0, 1e-300, -1e-300, 5e-324,
               np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0)]
    ys = np.concatenate([rng.uniform(-1.2, 1.2, 3000), special])

    def exact(y):
        y = Fraction(min(max(y, -1.0), 1.0))
        t = 1 - y * y
        return (t ** 3, -6 * y * t ** 2,
                y - y ** 3 + Fraction(3, 5) * y ** 5 - y ** 7 / 7 + Fraction(16, 35))

    want = [exact(float(y)) for y in ys]
    for k, (kernel, bound) in enumerate([(verify._psi, 2), (verify._dpsi, 4),
                                         (verify._Psi, 2)]):
        got = kernel(ys)
        worst = max(abs(Fraction(float(g)) - w[k]) for g, w in zip(got, want))
        assert worst <= bound * Fraction(2) ** -52, kernel.__name__
    assert verify._Psi(np.array([-1.0]))[0] == 0.0
    assert abs(Fraction(float(verify._Psi(np.array([1.0]))[0])) - Fraction(32, 35)) \
        <= 2 * Fraction(2) ** -52


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
        return strip_expressions(view, BURGERS, bumps, t0, t1, BURGERS_PAIR)

    np.testing.assert_allclose(expr(0.0, s) + expr(s, 1.0), expr(0.0, 1.0),
                               rtol=0, atol=1e-14)



@pytest.mark.parametrize("make_view", [shock_fan_view, pulse_front_view])
def test_strip_expression_additive_across_time_support_ends(make_view):
    # the clipped time factor of the bump has kinks at 0.25 and 0.75, so the
    # Gauss panels must be cut there as at the view's own kinks
    view = make_view()
    bumps = [BumpTestFn(0.3, 0.4, 0.5, 0.25)]

    def expr(t0, t1):
        return strip_expressions(view, BURGERS, bumps, t0, t1, BURGERS_PAIR)

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


def reference_strip(view, model, bumps, t0, t1, pairs):
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
        g = np.column_stack([pc.vals] + [eta(pc.vals) for eta, _ in pairs])
        h = np.column_stack([model.f(pc.vals)] + [q(pc.vals) for _, q in pairs])
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
    pairs = [(model.entropy, model.entropy_flux)] if model.has_entropy_pair() else []
    got = strip_expressions(view, model, bumps, *view.t_span, pairs)
    want = reference_strip(view, model, bumps, *view.t_span, pairs)
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


def test_certificate_without_entropy_checks_the_rest():
    # entropy=False drops the entropy columns and records; each column of
    # the bump integrals is its own product, so the weak defects are those
    # of the full certificate bit for bit
    data = PiecewiseConstantFn(np.array([0.0, 0.3]), np.array([[0.0], [1.0], [0.0]]))
    view, family = pulse_front_view(), default_family(0.0, 1.0, -1.0, 2.0, scales=2)
    full, weak_only = (certify_eps_approx(view, BURGERS, M=1.1, initial_data=data,
                                          family=family, n_probe=3, entropy=entropy)
                       for entropy in (True, False))
    assert weak_only.entropy_excess is None and full.entropy_excess is not None
    assert "entropy" not in {t["kind"] for t in weak_only.tests}
    assert weak_only.eps == max(weak_only.initial_excess, weak_only.lipschitz_excess,
                                weak_only.weak_excess)
    defects = [[t["defect"] for t in cert.tests if t["kind"] == "weak"]
               for cert in (full, weak_only)]
    assert len(defects[1]) == 48
    assert defects[1] == defects[0]



# stored Godunov runs of Burgers on speeds [0, 1], data 1 | 0: weak residual
# and certificate eps, bit for bit
GRID_PINS = {80: ("0x1.09fa69f7345c5p-9", "0x1.3238eaff6cafep-5"),
             320: ("0x1.08538cfcc8067p-11", "0x1.8487092828ed0p-7")}


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
        with pytest.raises(ConfigError, match="below 4 cells"):
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

    def test_one_probe_is_refused(self):
        # one probe makes no strip, and the whole span was the strip (0, 0):
        # the corrupted fan once certified at eps 0.0
        view = FanView(step_fan(speed=0.6), t_span=(0.0, 1.0), x_span=(-1.0, 2.0))
        data = PiecewiseConstantFn.riemann([1.0], [0.0])
        with pytest.raises(ConfigError, match="n_probe >= 2"):
            certify_eps_approx(view, BURGERS, M=0.7, initial_data=data, n_probe=1)
        cert = certify_eps_approx(view, BURGERS, M=0.7, initial_data=data, n_probe=2)
        assert cert.eps >= 1e-2

    @pytest.mark.parametrize("M", [float("nan"), -0.5])
    def test_lipschitz_constant_is_checked(self, M):
        # max(0, d - M dt) is 0.0 for a NaN M: the Lipschitz test once passed
        # unchecked, with the certificate of a valid M; an infinite M holds
        # trivially, and M = 0 leaves the moving shock's whole distance
        view = FanView(step_fan(), t_span=(0.0, 1.0), x_span=(-1.0, 2.0))
        with pytest.raises(ConfigError, match=f"Lipschitz constant M >= 0, not {M!r}"):
            certify_eps_approx(view, BURGERS, M=M)
        assert certify_eps_approx(view, BURGERS, M=float("inf")).lipschitz_excess == 0.0
        assert certify_eps_approx(view, BURGERS, M=0.0).lipschitz_excess \
            == pytest.approx(0.5, rel=1e-9)

    def test_empty_family_is_refused(self):
        # once an untyped ValueError from unpacking the bumps' coordinates
        view = FanView(step_fan(), t_span=(0.0, 1.0), x_span=(-1.0, 2.0))
        with pytest.raises(ConfigError, match="no bumps"):
            certify_eps_approx(view, BURGERS, M=0.6,
                               family=default_family(0, 1, -1, 2, scales=0))

    def test_unchecked_excesses_are_none(self):
        # the linear system has no entropy pair, and no initial data is
        # given: both excesses were once reported as 0.0
        m = models.linear_system(0, 1, 1, 0)
        data = PiecewiseConstantFn.riemann([1.0, 0.0], [0.0, 0.0])
        cfg = SchemeConfig(eps=1.0, T=0.5, domain=(-1.0, 1.0), delta=0.1)
        view = FrontTrackingView(front_tracking_run(m, data, cfg), (-1.0, 1.0))
        cert = certify_eps_approx(view, m, M=2.0)
        assert cert.entropy_excess is None and cert.initial_excess is None
        assert {t["kind"] for t in cert.tests} == {"lipschitz", "weak"}
        assert cert.eps == max(cert.lipschitz_excess, cert.weak_excess)

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
        oracle = FrontTrackingOracle(BURGERS, 1e-3, (-2, 3))
        dec = error_decomposition(view, BURGERS, oracle, 1.0, eps=0.5,
                                  h_ladder=[0.2, 0.1, 0.05])
        assert len(dec.partition) == 1
        assert np.all(dec.jump_terms <= 1e-9)
        assert np.all(dec.total() + 1e-12 >= dec.measured_rate * 0.9)

    def test_jump_states_read_from_the_pieces(self, monkeypatch):
        # shocks 1 -> 0.6 -> 0.2 drawn 1e-13 apart at tau = 1: each partition
        # point takes the states on either side of its own breakpoint (once
        # read at x -+ 1e-12, the second point's u- was 1, not 0.6)
        s1, s2 = (JumpWave("shock", 0, np.array([a]), np.array([b]), speed)
                  for a, b, speed in ((1.0, 0.6, 0.5), (0.6, 0.2, 0.5 + 1e-13)))
        view = FanView(WaveFan(np.array([1.0]), (s1, s2)), t_span=(0, 2), x_span=(-2, 3))
        seen, jump_speed = [], verify._jump_speed

        def recorded(model, um, up):
            seen.append((um[0], up[0]))
            return jump_speed(model, um, up)

        monkeypatch.setattr(verify, "_jump_speed", recorded)
        dec = error_decomposition(view, BURGERS, FrontTrackingOracle(BURGERS, 1e-3, (-2, 3)),
                                  1.0, eps=0.3, h_ladder=[0.1])
        assert dec.partition == [0.5, 0.5 + 1e-13]
        assert seen == [(1.0, 0.6), (0.6, 0.2)]

    def test_front_tracking_oracle_evolves_two_jumps(self):
        # a shock 1 | 0 at 0 and a rarefaction 0 | 1 at 1: the shock moves
        # exactly, the fan is drawn in jumps of at most delta
        data = PiecewiseConstantFn(np.array([0.0, 1.0]), np.array([[1.0], [0.0], [1.0]]))
        delta, h = 0.01, 0.2
        out = FrontTrackingOracle(BURGERS, delta, (-1, 2)).evolve(data, h)
        assert out.xs[0] == 0.5 * h and out.vals[:2].tolist() == [[1.0], [0.0]]
        assert np.all(out.jumps()[1:] <= delta + 1e-12)
        assert out.xs[1] >= 1.0 and out.xs[-1] <= 1.0 + h and out.vals[-1] == 1.0
        # mass is conserved (equal fluxes at both ends); the fan is within
        # delta * h of x -> (x - 1) / h
        assert abs(out.integral(-1, 2)[0] - data.integral(-1, 2)[0]) <= 1e-12
        fan = PiecewiseConstantFn(np.linspace(1, 1 + h, 2001)[1:-1],
                                  np.linspace(0, 1, 2000)[:, None])
        assert out.l1_distance(fan, 0.5, 2) <= delta * h

    @staticmethod
    def cone_variation(view, dec):
        """The view's TV over each interval's cone, shrinking at speed 1 from
        tau, at the three sample times of v_samples."""
        knots = [view.x_span[0]] + dec.partition + [view.x_span[1]]
        rows = []
        for a, b in zip(knots[:-1], knots[1:]):
            rows.append([])
            for frac in (0.0, 0.5, 1.0):
                s = frac * max(dec.h_ladder)
                lo, hi = a + s, b - s
                rows[-1].append(view.state(dec.tau + s).tv(lo, hi) if hi > lo else 0.0)
        return np.array(rows)

    def test_v_samples_on_a_fan_are_the_cone_variation(self):
        # a Burgers rarefaction 0 | 1: at tau the cones are the intervals,
        # which with the partition points hold the whole variation 1
        view = FanView(solve_riemann(BURGERS, [0.0], [1.0]), t_span=(0, 2), x_span=(-2, 3))
        dec = error_decomposition(view, BURGERS, FrontTrackingOracle(BURGERS, 1e-3, (-2, 3)),
                                  1.0, eps=0.3, h_ladder=[0.2, 0.1])
        v = np.array(dec.v_samples)
        assert v.shape == (4, 3) and np.array_equal(v, self.cone_variation(view, dec))
        u = view.state(1.0)
        at_points = sum(u.tv(x - 1e-9, x + 1e-9) for x in dec.partition)
        assert v[:, 0].sum() + at_points == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(v, axis=1) <= 0)

    def test_v_samples_on_a_grid_widen_the_cone(self):
        # widened by one cell each side, a grid sample is never below the
        # cone's own variation, and above it next to the jumps
        data = PiecewiseConstantFn(np.array([0.0, 0.5]), np.array([[0.0], [1.0], [0.2]]))
        cfg = SchemeConfig(eps=1 / 50, T=0.6, domain=(-1, 2), store_all=True)
        view = GridView(godunov_run(BURGERS_01, data, cfg))
        oracle = FineGodunovOracle(BURGERS_01, 1 / 400, (-1, 2))
        dec = error_decomposition(view, BURGERS_01, oracle, 0.2, eps=0.3, h_ladder=[0.2, 0.1])
        v, cone = np.array(dec.v_samples), self.cone_variation(view, dec)
        assert np.all(v >= cone) and np.any(v > cone)

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
        # 0.1 is not a whole number of the run's 5/167 steps: its ConfigError,
        # wrapped once
        oracle = FineGodunovOracle(BURGERS_01, 0.03, (-2, 3))
        with pytest.raises(OracleUnavailable, match="not a whole number of steps") as info:
            error_decomposition(view, BURGERS, oracle, 1.0, eps=0.5, h_ladder=[0.1])
        assert type(info.value.__cause__) is ConfigError

        with pytest.raises(OracleUnavailable) as info:
            error_decomposition(view, BURGERS, FailingOracle(ConfigError("bad")), 1.0,
                                eps=0.5, h_ladder=[0.1])
        assert isinstance(info.value.__cause__, ConfigError)
        gone = OracleUnavailable("gone")  # raised as is
        with pytest.raises(OracleUnavailable) as info:
            error_decomposition(view, BURGERS, FailingOracle(gone), 1.0, eps=0.5,
                                h_ladder=[0.1])
        assert info.value is gone
        # a programming error is not an unavailable oracle
        with pytest.raises(ZeroDivisionError):
            error_decomposition(view, BURGERS, FailingOracle(ZeroDivisionError()), 1.0,
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
        with pytest.raises(OracleUnavailable, match="not a whole number of steps"):
            semigroup_error_bound([(0.0, data), (0.3, data)], oracle, L=1.0)
        h = 10 * 5 / 167
        path = [(0.0, data), (h, oracle.evolve(data, h))]
        bound, actual = semigroup_error_bound(path, oracle, L=1.0)
        assert bound <= 1e-12 and actual <= 1e-12

    def test_oracle_failures(self):
        # read as error_decomposition reads an oracle
        data = PiecewiseConstantFn.riemann([1.0], [0.0])
        path = [(0.0, data), (0.1, data)]
        with pytest.raises(OracleUnavailable, match="bad") as info:
            semigroup_error_bound(path, FailingOracle(ConfigError("bad")), L=1.0)
        assert type(info.value.__cause__) is ConfigError
        gone = OracleUnavailable("gone")
        with pytest.raises(OracleUnavailable) as info:
            semigroup_error_bound(path, FailingOracle(gone), L=1.0)
        assert info.value is gone
        with pytest.raises(ZeroDivisionError):
            semigroup_error_bound(path, FailingOracle(ZeroDivisionError()), L=1.0)

    def test_breakpoint_free_path(self):
        # constant profiles have no breakpoints to span: the span was once
        # taken from their empty union and raised ValueError
        pc = PiecewiseConstantFn.constant([0.4])
        oracle = FineGodunovOracle(BURGERS_01, 1 / 80, (-1, 2))
        path = [(0.0, pc), (0.1, pc), (0.2, pc)]
        assert semigroup_error_bound(path, oracle, L=1.0) == (0.0, 0.0)

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

    def test_fields_classified_over_the_cell_states(self):
        # the family-0 jump from u1 = -0.3 to -0.2 is a shock (3 u1^2 falls),
        # but over the segment between the profiles' means (u1 near 0.27 and
        # 0.37) the family was oriented as if it were a rarefaction
        m = models.FluxModel(
            "cubic-advection", 2,
            flux=lambda u: np.stack([u[..., 0] ** 3, 2.0 * u[..., 1]], axis=-1),
            jacobian=lambda u: np.diag([3.0 * u[0] ** 2, 2.0]))
        xs = np.array([0.0, 1.0])
        u = PiecewiseConstantFn(xs, np.array([[-0.3, 0.0], [0.5, 0.0], [0.6, 0.0]]))
        v = PiecewiseConstantFn(xs, np.array([[-0.2, 0.1], [0.6, 0.1], [0.7, 0.1]]))
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
        with pytest.raises(ConfigError, match="at least 3 points"):
            rate_fit([(0.1, 1.0), (0.05, 0.5)], "power")
        with pytest.raises(ConfigError, match="must be positive"):
            rate_fit([(0.1, 1.0), (0.05, -0.5), (0.025, 0.2)], "power")


@pytest.mark.parametrize("call, error, match", [
    (lambda: as_view(PiecewiseConstantFn.constant([0.0])), TypeError,
     "cannot view PiecewiseConstantFn as a solution"),
    (lambda: rate_fit([(0.1, 1.0), (0.1, 0.5), (0.1, 0.2)], "power"), ConfigError,
     "eps values must differ"),
    (lambda: rate_fit([(0.1, 1.0), (0.05, 0.5), (0.025, 0.2)], "cubic"), ConfigError,
     "unknown rate model 'cubic'"),
], ids=["no-view", "equal-eps", "unknown-rate-model"])
def test_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()


def narrow_interval_terms():
    """(partition points, B term at h = 0.04, B term at h = 0.01 > 0.1) of the
    interval (0, 0.06) between the two points, which has no room left at
    h = 0.04 (a + h > b - h)."""
    data = PiecewiseConstantFn(np.array([0.0, 0.02, 0.06]),
                               np.array([[0.0], [0.6], [0.9], [0.0]]))
    cfg = SchemeConfig(eps=0.02, T=0.2, domain=(-1, 1), store_all=True)
    dec = error_decomposition(GridView(godunov_run(BURGERS_01, data, cfg)), BURGERS_01,
                              FineGodunovOracle(BURGERS_01, 0.005, (-1, 1)), 0.0,
                              eps=0.5, h_ladder=[0.04, 0.01])
    return len(dec.partition), dec.interval_terms[0, 1], dec.interval_terms[1, 1] > 0.1


@pytest.mark.parametrize("call, want", [
    (narrow_interval_terms, (2, 0.0, True)),
], ids=["narrow-interval"])
def test_windows_and_intervals_without_room(call, want):
    assert call() == want


def test_oracle_span_zero_returns_the_profile():
    pc = PiecewiseConstantFn.riemann([1.0], [0.0])
    assert FineGodunovOracle(BURGERS_01, 0.05, (-1, 1)).evolve(pc, 0.0) is pc
    assert FrontTrackingOracle(BURGERS_01, 0.05, (-1, 1)).evolve(pc, 0.0) is pc
