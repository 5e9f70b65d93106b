from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab import models
from hyperlab.errors import (ConfigError, MissingEntropyPair, NonHyperbolic,
                             OutOfDomain)
from hyperlab.models import (GENUINELY_NONLINEAR, LINEARLY_DEGENERATE,
                             NEITHER, classify_field, eigensystem,
                             entropy_compatibility_residual, model_from_name,
                             normalize_speeds)
from hyperlab.riemann import _field_classes


def sample_box(lo, hi, k=7):
    axes = [np.linspace(a, b, k) for a, b in zip(lo, hi)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


class TestEigensystem:
    def test_psystem_speeds_at_unit_volume(self):
        m = models.p_system(k=1.0, gamma=2.0)
        es = eigensystem(m, [1.0, 0.0])
        assert es.lambdas == pytest.approx([-np.sqrt(2.0), np.sqrt(2.0)], abs=1e-12)

    def test_scalar_burgers(self):
        m = models.burgers()
        es = eigensystem(m, [3.0])
        assert es.lambdas[0] == 3.0
        assert es.right[0, 0] == 1.0 and es.left[0, 0] == 1.0

    def test_diagonal_linear_system(self):
        m = models.linear_system(1, 0, 0, 2)
        es = eigensystem(m, [0.3, -0.7])
        assert es.lambdas == pytest.approx([1.0, 2.0])
        assert es.right == pytest.approx(np.eye(2))

    @pytest.mark.parametrize("u", [[0.5, 0.0], [1.0, 0.3], [2.0, -0.4]])
    def test_normalization_and_duality(self, u):
        m = models.p_system()
        es = eigensystem(m, u)
        A = m.jac(u)
        for i in range(2):
            assert np.linalg.norm(es.right[i]) == pytest.approx(1.0, abs=models.TOL_EIG)
            assert np.linalg.norm(A @ es.right[i] - es.lambdas[i] * es.right[i]) < models.TOL_EIG
            assert np.linalg.norm(es.left[i] @ A - es.lambdas[i] * es.left[i]) < models.TOL_EIG
        assert es.left @ es.right.T == pytest.approx(np.eye(2), abs=models.TOL_EIG)

    def test_strict_hyperbolicity_gap(self):
        m = models.p_system()
        for u in sample_box([0.3, -0.5], [2.0, 0.5], k=5):
            lam = eigensystem(m, u).lambdas
            assert lam[1] - lam[0] > models.TOL_GAP

    def test_rotation_matrix_is_rejected(self):
        m = models.linear_system(0, 1, -1, 0)
        with pytest.raises(NonHyperbolic):
            eigensystem(m, [0.0, 0.0])

    def test_coincident_eigenvalues_rejected(self):
        m = models.linear_system(1, 0, 0, 1)
        with pytest.raises(NonHyperbolic):
            eigensystem(m, [0.0, 0.0])

    @pytest.mark.parametrize("entries, reason", [
        ((0, 1, -1, 0), "complex eigenvalues"),
        ((1, 0, 0, 1), "defective Jacobian"),
        # a Jordan block: both rows of R are (1, 0)
        ((1, 1, 0, 1), "eigenvector matrix singular"),
        ((0, 0, 0, 1e-9), "eigenvalue gap 1.000e-09 below tolerance"),
    ], ids=["complex", "defective", "singular", "gap"])
    def test_every_closed_form_failure(self, entries, reason):
        with pytest.raises(NonHyperbolic, match=reason):
            eigensystem(models.linear_system(*entries), [0.0, 0.0])

    def test_general_n_linear_system(self):
        # a 3x3 user model takes the np.linalg.eig branch: eigenvalues
        # sorted, unit right eigenvectors with the first non-negligible
        # component positive, left eigenvectors dual to them
        M = np.array([[1.0, 2.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, 3.0]])
        m = models.FluxModel("linear3", 3, flux=lambda u: u @ M.T,
                             jacobian=lambda u: np.broadcast_to(M, u.shape + (3,)))
        es = eigensystem(m, [0.2, -0.1, 0.4])
        assert es.lambdas == pytest.approx([-1.0, 1.0, 3.0], abs=1e-12)
        assert es.right == pytest.approx(np.array([[1.0, -1.0, 0.0] / np.sqrt(2.0),
                                                   [1.0, 0.0, 0.0],
                                                   [1.0, 1.0, 4.0] / np.sqrt(18.0)]),
                                         abs=1e-12)
        assert es.left @ es.right.T == pytest.approx(np.eye(3), abs=1e-12)

    def test_general_n_complex_eigenvalues(self):
        # a rotation in the first two components: eigenvalues +-i and 2
        M = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        m = models.FluxModel("rotation3", 3, flux=lambda u: u @ M.T,
                             jacobian=lambda u: np.broadcast_to(M, u.shape + (3,)))
        with pytest.raises(NonHyperbolic, match="complex eigenvalues"):
            eigensystem(m, [0.0, 0.0, 0.0])

    def test_out_of_domain(self):
        m = models.p_system()
        with pytest.raises(OutOfDomain):
            eigensystem(m, [-1.0, 0.0])


def _linear2(lam, gap, theta, spread):
    """A linear2 model with eigenvalues lam, lam + gap and unit right
    eigenvectors at angles theta and theta + spread."""
    V = np.array([[np.cos(theta), np.cos(theta + spread)],
                  [np.sin(theta), np.sin(theta + spread)]])
    return models.linear_system(*(V @ np.diag([lam, lam + gap]) @ np.linalg.inv(V)).ravel())


TWO_BY_TWO = st.one_of(
    st.builds(lambda v, w, k, gamma: (models.p_system(k, gamma), [v, w]),
              st.floats(0.5, 2.0), st.floats(-1.0, 1.0), st.floats(0.5, 2.0),
              st.floats(1.0, 3.0)),
    st.builds(lambda *args: (_linear2(*args), [0.3, -0.2]),
              st.floats(-1.0, 1.0), st.floats(0.05, 1.0), st.floats(-3.0, 3.0),
              st.floats(0.3, 2.8)))


@settings(max_examples=60, deadline=None, database=None)
@given(case=TWO_BY_TWO)
def test_closed_form_2x2_matches_eig(case):
    # the n = 2 branch against the np.linalg.eig branch on the same Jacobian
    m, u = case
    u = np.asarray(u, dtype=float)
    A = m.jac(u)
    closed = models._eigensystem_2x2(m, u, A)
    general = models._eigensystem_eig(m, u, A)
    assert np.max(np.abs(closed.lambdas - general.lambdas)) <= 1e-14
    assert np.max(np.abs(closed.right - general.right)) <= 1e-14
    assert np.max(np.abs(closed.left @ closed.right.T - np.eye(2))) <= 1e-14
    es = eigensystem(m, u)
    assert np.array_equal(es.right, closed.right) and np.array_equal(es.left, closed.left)


class TestClassifyField:
    def test_psystem_both_families_gnl(self):
        m = models.p_system()
        samples = sample_box([0.5, -0.5], [2.0, 0.5], k=4)
        for fc in classify_field(m, samples):
            assert fc.tag == GENUINELY_NONLINEAR

    def test_psystem_orientations_are_consistent(self):
        # oriented indicator must be positive for both families
        m = models.p_system()
        samples = sample_box([0.5, -0.5], [2.0, 0.5], k=3)
        gs = np.array([models.gnl_indicator(m, u) for u in samples])
        for i, fc in enumerate(classify_field(m, samples)):
            assert np.all(fc.orientation * gs[:, i] > 0)

    def test_advection_linearly_degenerate(self):
        m = models.advection(0.7)
        [fc] = classify_field(m, np.linspace(-1, 1, 9)[:, None])
        assert fc.tag == LINEARLY_DEGENERATE

    def test_cubic_neither(self):
        m = models.cubic_flux()
        samples = np.linspace(-1, 1, 9)[:, None]
        [fc] = classify_field(m, samples)
        assert fc.tag == NEITHER
        # indicator is 6u at the samples
        assert fc.g_min == pytest.approx(-6.0, rel=1e-4)
        assert fc.g_max == pytest.approx(6.0, rel=1e-4)


def test_field_classes_decompose_each_sample_once(monkeypatch):
    # one eigensystem per sample and two per coordinate for its difference,
    # shared by every family: 5 samples x (1 + 2n)
    calls = []

    def counted(model, u):
        calls.append(u)
        return eigensystem(model, u)

    monkeypatch.setattr(models, "eigensystem", counted)
    m = models.p_system()
    _field_classes(m, np.array([1.0, 0.0]), np.array([1.1, -0.05]))
    assert len(calls) == 5 * (1 + 2 * m.n)


def _indicator_of_family(model, i, u):
    """The indicator of family i alone: lambda_i differenced by itself."""
    es = eigensystem(model, u)
    grad = models._central_diff(lambda v: eigensystem(model, v).lambdas[i],
                                model.state(u), models.H_JAC)
    return float(np.dot(grad, es.right[i]))


@settings(max_examples=40, deadline=None, database=None)
@given(model=st.sampled_from([models.p_system(),
                              replace(models.p_system(), jacobian=None),
                              models.linear_system(0, 1, 1, 0)]),
       v=st.floats(0.3, 3.0), w=st.floats(-2.0, 2.0))
def test_indicator_of_all_families_equals_each_alone(model, v, w):
    u = np.array([v, w])
    g = models.gnl_indicator(model, u)
    assert len(g) == model.n
    for i in range(model.n):
        assert g[i].hex() == _indicator_of_family(model, i, u).hex()


class TestEntropyPairs:
    def test_burgers_pair_compatible(self):
        m = models.burgers()
        res = entropy_compatibility_residual(m, np.linspace(-2, 2, 21)[:, None])
        assert res <= 1e-8

    @pytest.mark.parametrize("gamma", [2.0, 1.0])
    def test_psystem_pair_compatible(self, gamma):
        m = models.p_system(gamma=gamma)
        res = entropy_compatibility_residual(m, sample_box([0.5, -0.5], [2.0, 0.5], k=5))
        assert res <= 1e-6

    def test_wrong_entropy_flux_detected(self):
        m = models.burgers()
        bad = models.FluxModel(
            name="burgers-bad-q", n=1, flux=m.flux, jacobian=m.jacobian,
            entropy=m.entropy, entropy_flux=lambda u: np.asarray(u)[..., 0] ** 3)
        res = entropy_compatibility_residual(bad, [np.array([1.0])])
        assert res == pytest.approx(1.0, abs=1e-6)

    def test_missing_pair_raises(self):
        with pytest.raises(MissingEntropyPair):
            entropy_compatibility_residual(models.cubic_flux(), [np.array([0.0])])

    def test_declared_convex_entropies_have_pd_hessian(self):
        for m, pts in [(models.burgers(), np.linspace(-2, 2, 5)[:, None]),
                       (models.p_system(), sample_box([0.5, -0.5], [2.0, 0.5], k=3))]:
            for u in pts:
                H = m.entropy_hessian(u)
                assert np.all(np.linalg.eigvalsh(H) > 0)


class TestNormalizeSpeeds:
    def test_endpoint_and_midpoint_maps(self):
        # lambda = +-M map to the target endpoints, 0 to the midpoint
        m = models.advection(1.0)
        t = normalize_speeds(m, M=1.0)
        assert models.eigenvalues(t, [0.0])[0] == pytest.approx(1.0)
        m = models.advection(-1.0)
        t = normalize_speeds(m, M=1.0)
        assert models.eigenvalues(t, [0.0])[0] == pytest.approx(0.0)
        m = models.advection(0.0)
        t = normalize_speeds(m, M=1.0)
        assert models.eigenvalues(t, [0.0])[0] == pytest.approx(0.5)

    def test_burgers_transformed_flux_and_speeds(self):
        m = normalize_speeds(models.burgers(), M=1.0)
        for u in np.linspace(-1, 1, 11):
            assert m.f(np.array([u]))[0] == pytest.approx((u * u / 2 + u) / 2)
            assert models.eigenvalues(m, [u])[0] == pytest.approx((u + 1) / 2)

    def test_target_interval_one_two(self):
        m = normalize_speeds(models.burgers(), M=1.0, target=(1.0, 2.0))
        lam = [models.eigenvalues(m, [u])[0] for u in np.linspace(-1, 1, 11)]
        assert min(lam) == pytest.approx(1.0) and max(lam) == pytest.approx(2.0)

    def test_shocks_map_to_shocks(self):
        # rh residual vanishes for the mapped triple (u-, u+, (lam+M)/(2M))
        from hyperlab.riemann import rh_residual
        m = models.burgers()
        t = normalize_speeds(m, M=1.0)
        u_minus, u_plus, lam = np.array([1.0]), np.array([0.0]), 0.5
        assert rh_residual(m, u_minus, u_plus, lam) < 1e-14
        assert rh_residual(t, u_minus, u_plus, (lam + 1.0) / 2.0) < 1e-14

    def test_entropy_pair_transforms_consistently(self):
        t = normalize_speeds(models.p_system(), M=3.0)
        res = entropy_compatibility_residual(t, sample_box([0.5, -0.5], [2.0, 0.5], k=4))
        assert res <= 1e-6

    def test_jacobian_shift_bit_identical(self):
        # speeds [-M, M] onto [0, 1]: d = 2 M and c = M
        m = models.p_system()
        t = normalize_speeds(m, M=1.6)
        for u in (np.array([1.2, 0.3]), np.array([[0.8, -0.1], [1.5, 0.2]])):
            want = (m.jac(u) + 1.6 * np.eye(2)) / 3.2
            assert t.jac(u).tobytes() == want.tobytes()

    def test_speed_bound_violation(self):
        from hyperlab.errors import SpeedBoundViolated
        with pytest.raises(SpeedBoundViolated):
            normalize_speeds(models.burgers(), M=0.5,
                             check_states=[np.array([1.0])])


class TestBatchedJacobian:
    @pytest.mark.parametrize("name", ["burgers", "cubic", "advection:1.5",
                                      "psystem:1,2", "linear2:1,2,3,4"])
    def test_rows_match_single_states(self, name):
        m = model_from_name(name)
        for t in (m, normalize_speeds(m, M=4.0)):
            u = np.random.default_rng(3).uniform(0.5, 1.5, size=(4, 3, t.n))
            A = t.jac(u)
            assert A.shape == (4, 3, t.n, t.n)
            np.testing.assert_allclose(
                A, [[t.jac(s) for s in row] for row in u], rtol=1e-15, atol=0)

    def test_finite_difference_fallback_over_rows(self):
        # each row is differenced with its own steps, as a single state is
        fd = replace(models.p_system(), jacobian=None)
        u = np.random.default_rng(4).uniform(0.5, 1.5, size=(5, 2))
        assert np.array_equal(fd.jac(u), np.stack([fd.jac(s) for s in u]))

    def test_single_state_jacobian_given_rows_refused(self):
        # written for one state, it answers a batch with row 0's matrix
        m = models.FluxModel("one-state", 1, flux=lambda u: 0.5 * u * u,
                             jacobian=lambda u: np.array([[u[0]]]))
        assert m.jac([0.3]).shape == (1, 1)
        with pytest.raises(ConfigError, match=r"\(3, 1, 1\)"):
            m.jac(np.zeros((3, 1)))


class TestRegistry:
    @pytest.mark.parametrize("name,n", [
        ("burgers", 1), ("cubic", 1), ("advection:2", 1),
        ("psystem:1,2", 2), ("linear2:1,0,0,2", 2)])
    def test_round_trip(self, name, n):
        m = model_from_name(name)
        assert m.n == n

    def test_unknown_model(self):
        with pytest.raises(ConfigError):
            model_from_name("kdv")

    def test_bad_arguments(self):
        with pytest.raises(ConfigError):
            model_from_name("linear2:1,2")
