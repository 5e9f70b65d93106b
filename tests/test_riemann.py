import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperlab import models, riemann
from hyperlab.errors import (ContinuationFailure, HyperlabError,
                             NewtonDivergence, NotGenuinelyNonlinear,
                             NotOnShockCurve, OutOfDomain, RHViolated)
from hyperlab.riemann import (TOL_ORDER, AdmissibilityVerdict, JumpWave,
                              _check_wave_order, entropy_admissible_shock,
                              evaluate_fan, liu_admissible, rarefaction_curve,
                              rh_residual, shock_curve, solve_riemann)
from hyperlab.verify import FanView

# how far the sampled shock-curve tangent at s = 0 may be from r_i(u-)
TOL_CURVE = 1e-3

# p-system data u- | u+ whose rarefactions would need a vacuum between them
VACUUM_DATUM = ([6.835152185206587, -1.3437016665509196],
                [5.849146086221006, 1.0898788939852393])


def brute_force_scalar_profile(model, ul, ur, xi, n_grid=100_000):
    """Scalar entropy solution value at ratio xi via the variational form:
    argmin (u- < u+) or argmax (u- > u+) of f(u) - xi*u over the state hull."""
    a, b = min(ul, ur), max(ul, ur)
    grid = np.linspace(a, b, n_grid)
    obj = model.f(grid[:, None])[:, 0] - xi * grid
    k = np.argmin(obj) if ul < ur else np.argmax(obj)
    return grid[k]


class TestRhResidual:
    def test_exact_shock(self):
        m = models.burgers()
        assert rh_residual(m, [1.0], [0.0], 0.5) == 0.0

    def test_wrong_speed(self):
        m = models.burgers()
        assert rh_residual(m, [1.0], [0.0], 0.6) == pytest.approx(0.1)

    def test_trivial_jump(self):
        m = models.p_system()
        assert rh_residual(m, [1.0, 0.2], [1.0, 0.2], 1.7) == 0.0


class TestShockCurve:
    def test_scalar_secant_speeds(self):
        m = models.burgers()
        s, states, speeds = shock_curve(m, [0.0], 0, 1.0, n_samples=11)
        assert states[:, 0] == pytest.approx(s)
        assert speeds == pytest.approx(s / 2.0)  # lambda(0) = f'(0) = 0
        _, _, flat_speeds = shock_curve(m, [0.3], 0, 0.0, n_samples=5)
        assert np.array_equal(flat_speeds, np.full(5, 0.3))  # f'(0.3) throughout

    def test_leaving_the_state_domain_raises(self):
        # the 1-shock curve through (1, 0) runs to v -> 0; the RH Newton
        # stalls long before s = -50, even in halved steps
        with pytest.raises(ContinuationFailure):
            shock_curve(models.p_system(), [1.0, 0.0], 0, -50.0)

    def test_domain_exit_is_halved(self):
        # with 5 samples, the step from s = -1.15 to -2.3 lands at v < 0 from
        # the linear guess; it is halved, and the curve ends where 33
        # samples end it
        m = models.p_system()
        _, coarse_states, coarse_speeds = shock_curve(m, [1.0, 0.0], 0, -4.6, n_samples=5)
        _, fine_states, fine_speeds = shock_curve(m, [1.0, 0.0], 0, -4.6)
        assert np.max(np.abs(coarse_states[-1] - fine_states[-1])) <= 1e-8
        assert abs(coarse_speeds[-1] - fine_speeds[-1]) <= 1e-8
        assert fine_states[-1][0] == pytest.approx(0.145, abs=5e-4)

    def test_psystem_rh_residual_tiny(self):
        m = models.p_system()
        _, states, speeds = shock_curve(m, [1.0, 0.0], 0, 0.5, n_samples=17)
        for S, lam in zip(states, speeds):
            assert rh_residual(m, [1.0, 0.0], S, lam) <= 1e-10

    def test_tangent_to_eigenvector(self):
        m = models.p_system()
        s, states, _ = shock_curve(m, [1.0, 0.0], 1, 0.004, n_samples=5)
        r1 = models.eigensystem(m, [1.0, 0.0]).right[1]
        tangent = (states[1] - states[0]) / (s[1] - s[0])
        assert np.linalg.norm(tangent - r1) <= TOL_CURVE


class TestRarefactionCurve:
    def test_zero_extent(self):
        m = models.p_system()
        s, states, speeds = rarefaction_curve(m, [1.0, 0.0], 1, 0.0)
        assert states.shape == (1, 2)

    def test_burgers_is_translation(self):
        m = models.burgers()
        s, states, speeds = rarefaction_curve(m, [0.2], 0, 0.5)
        assert states[:, 0] == pytest.approx(0.2 + s)
        assert speeds == pytest.approx(0.2 + s)

    def test_psystem_family2_lambda_increases_and_richardson(self):
        m = models.p_system()
        u0 = [1.0, 0.0]
        _, states, speeds = rarefaction_curve(m, u0, 1, -0.3, n_steps=32)
        assert np.all(np.diff(speeds) > 0)
        # direction of increasing lambda_2 decreases v
        assert states[-1, 0] < 1.0
        # endpoint against step-halved integrations (self-convergence)
        ends = []
        for n in (32, 64, 128, 256):
            ends.append(rarefaction_curve(m, u0, 1, -0.3, n_steps=n)[1][-1])
        errs = [np.linalg.norm(e - ends[-1]) for e in ends[:-1]]
        assert errs[0] < 1e-8 and errs[1] <= errs[0]

    @pytest.mark.parametrize("n_steps", [1, 8, 48])
    def test_one_eigensystem_per_state_and_stage(self, monkeypatch, n_steps):
        # one at u-, then one per RK4 stage: the decomposition at the end of a
        # step gives its speed and the first stage of the next step; none
        # goes through `models.eigensystem`, as a GNL indicator's would
        calls, elsewhere = [], []
        real = models.eigensystem

        def counted(model, u):
            calls.append(u)
            return real(model, u)

        monkeypatch.setattr(riemann, "eigensystem", counted)
        monkeypatch.setattr(models, "eigensystem",
                            lambda model, u: elsewhere.append(u) or real(model, u))
        rarefaction_curve(models.p_system(), [1.0, 0.0], 1, -0.3, n_steps=n_steps)
        assert len(calls) == 1 + 4 * n_steps
        assert elsewhere == []

    def test_decreasing_speed_direction_rejected(self):
        # s > 0 on family 1 of the p-system runs along r_2, where lambda_2 falls
        with pytest.raises(NotGenuinelyNonlinear):
            rarefaction_curve(models.p_system(), [1.0, 0.0], 1, 0.3)

    def test_unresolved_curve_refused(self):
        # towards the vacuum: 48 steps of a 1-rarefaction over s = 1717 put
        # most of the rise of lambda_1 into the first steps
        with pytest.raises(ContinuationFailure, match="do not resolve"):
            rarefaction_curve(models.p_system(), VACUUM_DATUM[0], 0, 1717.0)

    def test_linearly_degenerate_family_rejected(self):
        # both families of a linear system have constant speed
        m = models.linear_system(0.0, 1.0, 1.0, 0.0)
        with pytest.raises(NotGenuinelyNonlinear):
            rarefaction_curve(m, [0.0, 0.0], 1, 0.1)


class TestSolveRiemann:
    def test_equal_states_empty_fan(self):
        m = models.p_system()
        fan = solve_riemann(m, [1.0, 0.0], [1.0, 0.0])
        assert fan.waves == ()

    def test_burgers_shock(self):
        m = models.burgers()
        fan = solve_riemann(m, [1.0], [0.0])
        assert len(fan.waves) == 1
        w = fan.waves[0]
        assert w.kind == "shock"
        assert w.speed == pytest.approx(0.5, abs=1e-10)
        assert liu_admissible(m, w.u_l, w.u_r, w.family).margin >= -1e-9

    def test_burgers_rarefaction_fan_value(self):
        m = models.burgers()
        fan = solve_riemann(m, [0.0], [1.0])
        assert len(fan.waves) == 1 and fan.waves[0].kind == "rarefaction"
        for xi in (0.1, 0.4, 0.9):
            assert evaluate_fan(fan, xi)[0] == pytest.approx(xi, abs=1e-7)

    def test_psystem_two_waves_consistency(self):
        m = models.p_system()
        fan = solve_riemann(m, [1.0, 0.0], [1.05, 0.02])
        assert len(fan.waves) == 2
        assert fan.right == pytest.approx(np.array([1.05, 0.02]), abs=1e-9)
        # speeds ordered and shocks RH-exact
        assert fan.waves[0].speed_r <= fan.waves[1].speed_l + 1e-9
        for w in fan.waves:
            if w.kind == "shock":
                assert rh_residual(m, w.u_l, w.u_r, w.speed) <= 1e-9
                assert liu_admissible(m, w.u_l, w.u_r, w.family).margin >= -1e-9

    def test_strengths_scale_linearly_for_small_data(self):
        from hyperlab.riemann import solve_strengths, _field_classes
        m = models.p_system()
        u0 = np.array([1.0, 0.0])
        w = np.array([0.02, 0.015])
        fields = _field_classes(m, u0, u0 + w)
        s1 = solve_strengths(m, u0, u0 + w, fields)[0]
        s2 = solve_strengths(m, u0, u0 + 0.5 * w, fields)[0]
        assert s1 / 2 == pytest.approx(s2, rel=0.05)

    def test_waves_out_of_order_refused(self):
        u = [np.array([float(k)]) for k in range(3)]
        waves = [JumpWave("shock", 0, u[0], u[1], 1.0), JumpWave("shock", 0, u[1], u[2], 0.5)]
        with pytest.raises(NewtonDivergence, match="out of order"):
            _check_wave_order(waves)
        _check_wave_order(waves[::-1])  # in order, though not chained

    def test_large_data_solves(self):
        # |u+ - u-| = 0.707: accepted on its result, not refused by its size
        m = models.p_system()
        fan = solve_riemann(m, [1.0, 0.0], [1.5, 0.5])
        assert [(w.kind, w.family) for w in fan.waves] == [("rarefaction", 0),
                                                           ("shock", 1)]
        assert np.array_equal(fan.right, [1.5, 0.5])
        assert rh_residual(m, fan.waves[1].u_l, fan.waves[1].u_r,
                           fan.waves[1].speed) <= 1e-10

    def test_vacuum_data_refused(self):
        # w+ - w- = 2.434 >= 2 sqrt(2) (v-^-1/2 + v+^-1/2) = 2.251: no
        # classical middle state exists, so no fan may be returned
        with pytest.raises(HyperlabError):
            solve_riemann(models.p_system(), *VACUUM_DATUM)


def psystem_riemann_invariant(states, family):
    """w + 2 sqrt(2) v^-1/2 (family 0) or w - 2 sqrt(2) v^-1/2 (family 1),
    constant along a rarefaction of the p-system with p(v) = v^-2."""
    sign = 1.0 if family == 0 else -1.0
    return states[:, 1] + sign * 2.0 * math.sqrt(2.0) * states[:, 0] ** -0.5


def psystem_data(v, w, a1, a2):
    """The p-system and u- = (v, w) | u+ = u- + a1 r1 + a2 r2, with
    r = (1, +-c) and c = sqrt(2) v^-3/2."""
    c = math.sqrt(2.0) * v ** -1.5
    ul = np.array([v, w])
    return models.p_system(), ul, ul + a1 * np.array([1.0, c]) + a2 * np.array([1.0, -c])


small = st.floats(-0.2, 0.2)


@settings(max_examples=12, deadline=None, database=None)
@given(v=st.floats(0.9, 1.1), w=st.floats(-0.1, 0.1), a1=small, a2=small)
@example(v=1.0, w=0.0, a1=0.02, a2=0.015)    # 1-rarefaction, 2-shock
@example(v=1.0, w=0.0, a1=-0.015, a2=-0.02)  # 1-shock, 2-rarefaction
@example(v=1.0, w=0.0, a1=0.25 + 0.125 * math.sqrt(2.0),
         a2=0.25 - 0.125 * math.sqrt(2.0))  # (1, 0) | (1.5, 0.5)
def test_psystem_fans_match_closed_form(v, w, a1, a2):
    fan = solve_riemann(*psystem_data(v, w, a1, a2))
    for wave in fan.waves:
        if wave.kind == "rarefaction":
            inv = psystem_riemann_invariant(wave.states, wave.family)
            assert np.max(np.abs(inv - inv[0])) <= 1e-10
        else:
            # the Hugoniot locus (w+ - w-)^2 = (p(v-) - p(v+)) (v+ - v-)
            (v0, w0), (v1, w1) = wave.u_l, wave.u_r
            assert abs((w1 - w0) ** 2 - (v0 ** -2 - v1 ** -2) * (v1 - v0)) <= 1e-10


scalar = st.floats(-1.5, 1.5).map(lambda x: [x])
fan_data = st.one_of(
    st.tuples(st.sampled_from([models.burgers(), models.cubic_flux()]), scalar, scalar),
    st.builds(psystem_data, st.floats(0.9, 1.1), st.floats(-0.1, 0.1), small, small))


@settings(max_examples=30, deadline=None, database=None)
@given(data=fan_data, t=st.floats(0.01, 10.0))
@example(data=(models.burgers(), [-0.0], [1.0]), t=1.0)
@example(data=(models.burgers(), [1.0], [-0.0]), t=1.0)
def test_exact_fans_ordered_and_self_similar(data, t):
    model, ul, ur = data
    fan = solve_riemann(model, ul, ur)
    edge, prev = fan.left, -np.inf
    for wave in fan.waves:  # each wave starts where the one before ends
        assert wave.u_l.tobytes() == edge.tobytes()
        assert prev <= wave.speed_l + TOL_ORDER
        edge, prev = wave.u_r, wave.speed_r
    # with every family below STRENGTH_FLOOR there is no wave, and the fan
    # ends on u-
    assert edge.tobytes() == model.state(ur if fan.waves else ul).tobytes()
    # the profile at 2t is the profile at t stretched by 2, exactly
    view = FanView(fan)
    at_t, at_2t = view.state(t), view.state(2 * t)
    assert np.array_equal(at_2t.xs, 2 * at_t.xs)
    assert np.array_equal(at_2t.vals, at_t.vals)


class TestScalarEnvelope:
    def test_convex_single_shock_and_rarefaction(self):
        m = models.burgers()
        fan = solve_riemann(m, [1.0], [0.0])
        assert len(fan.waves) == 1 and fan.waves[0].kind == "shock"
        assert fan.waves[0].speed == pytest.approx(0.5, abs=1e-9)
        fan = solve_riemann(m, [0.0], [1.0])
        assert len(fan.waves) == 1 and fan.waves[0].kind == "rarefaction"

    def test_empty_fan(self):
        m = models.burgers()
        fan = solve_riemann(m, [0.3], [0.3])
        assert fan.waves == ()
        assert len((fan.left, *(w.u_r for w in fan.waves))) == 1

    def test_cubic_composite_matches_brute_force(self):
        m = models.cubic_flux()
        fan = solve_riemann(m, [-1.0], [1.0])
        kinds = [w.kind for w in fan.waves]
        assert kinds == ["shock", "rarefaction"]
        # shock from -1 to ~0.5 with tangency speed ~0.75
        assert fan.waves[0].u_r[0] == pytest.approx(0.5, abs=2e-3)
        assert fan.waves[0].speed == pytest.approx(0.75, abs=5e-3)
        for xi in np.linspace(-0.5, 2.9, 41):
            ref = brute_force_scalar_profile(m, -1.0, 1.0, xi)
            assert evaluate_fan(fan, xi)[0] == pytest.approx(ref, abs=2e-3)

    def test_reversed_cubic_matches_brute_force(self):
        m = models.cubic_flux()
        fan = solve_riemann(m, [1.0], [-1.0])
        for xi in np.linspace(-0.5, 2.9, 41):
            ref = brute_force_scalar_profile(m, 1.0, -1.0, xi)
            assert evaluate_fan(fan, xi)[0] == pytest.approx(ref, abs=2e-3)

    def test_wave_order_weakly_increasing(self):
        m = models.cubic_flux()
        for ul, ur in [(-1.0, 1.0), (1.0, -1.0), (-0.7, 1.3)]:
            fan = solve_riemann(m, [ul], [ur])
            prev = -np.inf
            for w in fan.waves:
                assert w.speed_l >= prev - 1e-9
                prev = w.speed_r


class TestEvaluateFan:
    def test_outside_speed_range(self):
        m = models.p_system()
        fan = solve_riemann(m, [1.0, 0.0], [1.05, 0.02])
        assert evaluate_fan(fan, -10.0) == pytest.approx(fan.left)
        assert evaluate_fan(fan, 10.0) == pytest.approx(fan.right)

    def test_shock_left_right_of_speed(self):
        m = models.burgers()
        fan = solve_riemann(m, [1.0], [0.0])
        s = fan.waves[0].speed
        assert evaluate_fan(fan, s - 1e-9)[0] == 1.0
        assert evaluate_fan(fan, s + 1e-9)[0] == 0.0

    def test_self_similarity(self):
        m = models.burgers()
        fan = solve_riemann(m, [0.0], [1.0])
        for t, x in [(0.5, 0.2), (2.0, 0.8), (5.0, 2.0)]:
            assert evaluate_fan(fan, x / t)[0] == pytest.approx(
                evaluate_fan(fan, (x * 3) / (t * 3))[0])


class TestLiuAdmissible:
    def test_burgers_admissible_shock(self):
        m = models.burgers()
        v = liu_admissible(m, [1.0], [0.0], 0)
        assert v.admissible and v.margin == pytest.approx(0.0, abs=1e-12)

    def test_burgers_reversed_shock(self):
        m = models.burgers()
        v = liu_admissible(m, [0.0], [1.0], 0)
        assert not v.admissible
        assert v.margin == pytest.approx(-0.5, abs=1e-12)

    def test_trivial(self):
        m = models.burgers()
        v = liu_admissible(m, [0.7], [0.7], 0)
        assert v.admissible and v.margin == 0.0

    def test_scalar_takes_the_shock_curve(self):
        # a scalar jump is measured like a system's: a strength below the
        # floor is trivial, and a state outside the box is refused
        m = replace(models.burgers(), lo=np.array([0.0]))
        assert liu_admissible(m, [0.7], [0.7 + 1e-13], 0) == AdmissibilityVerdict(True, 0.0, 0.0)
        with pytest.raises(OutOfDomain):
            liu_admissible(m, [-0.5], [0.5], 0)

    def test_margin_within_the_speed_resolution_admissible(self):
        # the exact 2-shock of a2 = 1e-12 from (0.9375, 0) has a roundoff
        # margin of -1.06e-4; its speeds are known only to
        # 1e-13 (1 + |f(u-)|) / |d| = 0.12
        m = models.p_system()
        ul = np.array([0.9375, 0.0])
        c = math.sqrt(2.0) * 0.9375 ** -1.5
        (w,) = solve_riemann(m, ul, ul + 1e-12 * np.array([1.0, -c])).waves
        v = liu_admissible(m, w.u_l, w.u_r, w.family)
        assert w.kind == "shock" and v.admissible
        assert v.margin == pytest.approx(-1.06e-4, rel=0.01)

    def test_non_liu_jump_refused(self):
        # the 2-shock curve on its rarefaction side, |d| = 1.00001e-4: the
        # margin -6.1e-5 is far below the resolution 2e-9
        m = models.p_system()
        _, states, _ = shock_curve(m, [1.0, 0.0], 1, -1e-4)
        assert np.linalg.norm(states[-1] - [1.0, 0.0]) >= 1e-4
        v = liu_admissible(m, [1.0, 0.0], states[-1], 1)
        assert not v.admissible
        assert v.margin == pytest.approx(-6.12e-5, rel=0.01)

    def test_not_on_curve(self):
        m = models.p_system()
        with pytest.raises(NotOnShockCurve):
            liu_admissible(m, [1.0, 0.0], [1.2, 0.4], 0)

    def test_psystem_on_curve(self):
        m = models.p_system()
        _, states, _ = shock_curve(m, [1.0, 0.0], 0, 0.1, n_samples=9)
        v = liu_admissible(m, [1.0, 0.0], states[-1], 0)
        assert isinstance(v, AdmissibilityVerdict)
        assert v.sigma == pytest.approx(0.1, rel=1e-6)


class TestEntropyAdmissible:
    def test_burgers_shock_margin_one_sixth(self):
        m = models.burgers()
        v = entropy_admissible_shock(m, [1.0], [0.0], 0.5)
        assert v.admissible and v.margin == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_reversed_inadmissible(self):
        m = models.burgers()
        v = entropy_admissible_shock(m, [0.0], [1.0], 0.5)
        assert not v.admissible and v.margin == pytest.approx(-1.0 / 6.0, abs=1e-12)

    def test_trivial_zero_margin(self):
        m = models.burgers()
        v = entropy_admissible_shock(m, [0.4], [0.4], 1.23)
        assert v.admissible and v.margin == 0.0

    def test_rh_violation_rejected(self):
        m = models.burgers()
        with pytest.raises(RHViolated):
            entropy_admissible_shock(m, [1.0], [0.0], 0.9)


class TestLiuLaxEquivalence:
    def test_scalar_convex_liu_iff_lax(self):
        rng = np.random.default_rng(7)
        m = models.burgers()
        for _ in range(300):
            ul, ur = rng.uniform(-2, 2, size=2)
            v = liu_admissible(m, [ul], [ur], 0)
            assert v.admissible == (ul > ur) or abs(ul - ur) < 1e-9

    def test_liu_matches_entropy_verdict_on_shocks(self):
        rng = np.random.default_rng(11)
        m = models.burgers()
        for _ in range(100):
            ul, ur = rng.uniform(-2, 2, size=2)
            lam = 0.5 * (ul + ur)
            liu = liu_admissible(m, [ul], [ur], 0)
            ent = entropy_admissible_shock(m, [ul], [ur], lam)
            assert liu.admissible == ent.admissible or abs(ul - ur) < 1e-6
