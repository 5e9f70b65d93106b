import numpy as np
import pytest

from hyperlab import models
from hyperlab.errors import (NewtonDivergence, NonClassifiedField,
                             NotGenuinelyNonlinear, NotOnShockCurve, RHViolated)
from hyperlab.riemann import (AdmissibilityVerdict, entropy_admissible_shock,
                              evaluate_fan, liu_admissible, rarefaction_curve,
                              rh_residual, riemann_solver_for, shock_curve,
                              solve_riemann, solve_riemann_scalar)


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
        c = shock_curve(m, [0.0], 0, 1.0, n_samples=11)
        assert c.states[:, 0] == pytest.approx(c.s)
        assert c.speeds == pytest.approx(c.s / 2.0)  # lambda(0) = f'(0) = 0

    def test_psystem_rh_residual_tiny(self):
        m = models.p_system()
        c = shock_curve(m, [1.0, 0.0], 0, 0.5, n_samples=17)
        for S, lam in zip(c.states, c.speeds):
            assert rh_residual(m, [1.0, 0.0], S, lam) <= 1e-10

    def test_tangent_to_eigenvector(self):
        from hyperlab.riemann import TOL_CURVE
        m = models.p_system()
        c = shock_curve(m, [1.0, 0.0], 1, 0.004, n_samples=5)
        r1 = models.eigensystem(m, [1.0, 0.0]).right[1]
        tangent = (c.states[1] - c.states[0]) / (c.s[1] - c.s[0])
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
        _, states, speeds = rarefaction_curve(m, u0, 1, 0.3, n_steps=32)
        assert np.all(np.diff(speeds) > 0)
        # direction of increasing lambda_2 decreases v
        assert states[-1, 0] < 1.0
        # endpoint against step-halved integrations (self-convergence)
        ends = []
        for n in (32, 64, 128, 256):
            ends.append(rarefaction_curve(m, u0, 1, 0.3, n_steps=n)[1][-1])
        errs = [np.linalg.norm(e - ends[-1]) for e in ends[:-1]]
        assert errs[0] < 1e-8 and errs[1] <= errs[0]

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
        assert w.liu_margin >= -1e-9

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
                assert w.liu_margin >= -1e-9

    def test_strengths_scale_linearly_for_small_data(self):
        from hyperlab.riemann import solve_strengths, _field_classes
        m = models.p_system()
        u0 = np.array([1.0, 0.0])
        w = np.array([0.02, 0.015])
        fields = _field_classes(m, u0, u0 + w)
        s1 = solve_strengths(m, u0, u0 + w, fields)
        s2 = solve_strengths(m, u0, u0 + 0.5 * w, fields)
        assert s1 / 2 == pytest.approx(s2, rel=0.05)

    def test_cubic_rejected_as_system_solver(self):
        m = models.cubic_flux()
        with pytest.raises(NonClassifiedField):
            solve_riemann(m, [-1.0], [1.0])

    def test_large_data_beyond_small_data_radius(self):
        # |u+ - u-| = 0.707 against a default radius of about 0.064
        m = models.p_system()
        with pytest.raises(NewtonDivergence, match="small-data radius"):
            solve_riemann(m, [1.0, 0.0], [1.5, 0.5])


class TestScalarEnvelope:
    def test_convex_single_shock_and_rarefaction(self):
        m = models.burgers()
        fan = solve_riemann_scalar(m, [1.0], [0.0])
        assert len(fan.waves) == 1 and fan.waves[0].kind == "shock"
        assert fan.waves[0].speed == pytest.approx(0.5, abs=1e-9)
        fan = solve_riemann_scalar(m, [0.0], [1.0])
        assert len(fan.waves) == 1 and fan.waves[0].kind == "rarefaction"

    def test_empty_fan(self):
        m = models.burgers()
        fan = solve_riemann_scalar(m, [0.3], [0.3])
        assert fan.waves == ()
        assert len(fan.states) == 1

    def test_cubic_composite_matches_brute_force(self):
        m = models.cubic_flux()
        fan = solve_riemann_scalar(m, [-1.0], [1.0])
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
        fan = solve_riemann_scalar(m, [1.0], [-1.0])
        for xi in np.linspace(-0.5, 2.9, 41):
            ref = brute_force_scalar_profile(m, 1.0, -1.0, xi)
            assert evaluate_fan(fan, xi)[0] == pytest.approx(ref, abs=2e-3)

    def test_wave_order_weakly_increasing(self):
        m = models.cubic_flux()
        for ul, ur in [(-1.0, 1.0), (1.0, -1.0), (-0.7, 1.3)]:
            fan = solve_riemann_scalar(m, [ul], [ur])
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

    def test_not_on_curve(self):
        m = models.p_system()
        with pytest.raises(NotOnShockCurve):
            liu_admissible(m, [1.0, 0.0], [1.2, 0.4], 0)

    def test_psystem_on_curve(self):
        m = models.p_system()
        c = shock_curve(m, [1.0, 0.0], 0, 0.1, n_samples=9)
        v = liu_admissible(m, [1.0, 0.0], c.states[-1], 0)
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
