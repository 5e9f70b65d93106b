from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlab import models
from hyperlab.errors import ConfigError, NonHyperbolic, OutOfDomain
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

    @pytest.mark.parametrize("model, fprime", [
        (models.burgers(), lambda u: u), (models.cubic_flux(), lambda u: 3.0 * u ** 2)],
        ids=["burgers", "cubic"])
    def test_scalar_pinned(self, model, fprime):
        # np.linalg.eig on the 1x1 Jacobian, byte for byte the values of the
        # closed form scalar models once had
        for u in np.linspace(-2.0, 2.0, 81):
            es = eigensystem(model, [u])
            assert es.lambdas.tobytes() == np.array([fprime(u)]).tobytes()
            assert es.right.tobytes() == es.left.tobytes() == np.array([[1.0]]).tobytes()

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

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_non_finite_jacobian_refused_as_by_eigenvalues(self, n):
        m = models.FluxModel(f"nan{n}", n, flux=lambda u: u,
                             jacobian=lambda u: np.full(u.shape + (n,), np.nan))
        u = [1.0] + [0.0] * (n - 1)
        with pytest.raises(NonHyperbolic, match=r"non-finite Jacobian at u=\[1\.") as got:
            eigensystem(m, u)
        with pytest.raises(NonHyperbolic) as want:
            models.eigenvalues(m, u)
        assert str(got.value) == str(want.value)

    def test_general_n_singular_eigenvectors(self, monkeypatch):
        # eig's eigenvectors of a diagonalisable matrix are independent; an
        # inverse that fails anyway is refused as non-hyperbolic
        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        with pytest.raises(NonHyperbolic, match="eigenvector matrix singular") as info:
            eigensystem(_tridiagonal3(), [0.2, -0.1, 0.4])
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def _tridiagonal3():
    """A nonlinear 3x3 user model whose Jacobian is tridiagonal with positive
    off-diagonal products, so its eigenvalues are real and distinct."""
    def flux(u):
        u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
        return np.stack([0.5 * u0 * u0 + u1,
                         0.1 * u0 + 2.0 * u1 + 0.5 * u1 * u1 + u2,
                         0.1 * u1 + 4.0 * u2 + 0.5 * u2 * u2], axis=-1)

    def jacobian(u):
        J = np.zeros(u.shape + (3,))
        J[..., 0, 0], J[..., 0, 1] = u[..., 0], 1.0
        J[..., 1, 0], J[..., 1, 1], J[..., 1, 2] = 0.1, 2.0 + u[..., 1], 1.0
        J[..., 2, 1], J[..., 2, 2] = 0.1, 4.0 + u[..., 2]
        return J

    return models.FluxModel("tridiagonal3", 3, flux=flux, jacobian=jacobian)


SCAN_MODELS = [*map(model_from_name, ["burgers", "cubic", "advection:1.5",
                                      "psystem:1,2", "linear2:1,2,3,4"]),
               _tridiagonal3()]


class TestEigenvalues:
    @pytest.mark.parametrize("model", [*SCAN_MODELS,
                                       *(normalize_speeds(m, M=4.0) for m in SCAN_MODELS)],
                             ids=lambda m: m.name)
    @settings(max_examples=15, deadline=None, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_rows_match_eigensystem(self, model, seed):
        # the batched scan against the one-state decomposition, state by state
        u = np.random.default_rng(seed).uniform(np.maximum(model.lo, -0.9), 0.9,
                                                size=(4, 3, model.n))
        lam = models.eigenvalues(model, u)
        assert lam.shape == u.shape
        want = np.array([eigensystem(model, s).lambdas for s in u.reshape(-1, model.n)])
        want = want.reshape(u.shape)
        assert np.all(np.abs(lam - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
        one = models.eigenvalues(model, u[1, 2])
        assert one.shape == (model.n,)
        assert np.all(np.abs(one - want[1, 2]) <= 1e-13 * np.maximum(1.0, np.abs(want[1, 2])))

    def test_refusals_name_the_first_offending_state(self):
        with pytest.raises(OutOfDomain, match=r"state \[-0\.5\s+0\.1\]"):
            models.eigenvalues(models.p_system(), [[1.0, 0.0], [-0.5, 0.1], [-1.0, 0.2]])
        with pytest.raises(NonHyperbolic, match=r"complex eigenvalues at u=\[0\.3 0\.4\]"):
            models.eigenvalues(models.linear_system(0, 1, -1, 0), [[0.3, 0.4], [0.5, 0.6]])
        steep = models.FluxModel(
            "steep", 1, flux=lambda u: 0.5 * u * u,
            jacobian=lambda u: np.where(u > 0.5, np.inf, u)[..., None])
        with pytest.raises(NonHyperbolic, match=r"non-finite Jacobian at u=\[0\.7\]"):
            models.eigenvalues(steep, [[0.1], [0.7], [0.9]])

    def test_coincident_eigenvalues_pass(self):
        # eigensystem refuses a double eigenvalue; a speed bound does not need
        # strict hyperbolicity
        m = models.linear_system(1, 0, 0, 1)
        assert models.eigenvalues(m, np.zeros((3, 2))).tolist() == [[1.0, 1.0]] * 3


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
        with pytest.raises(ConfigError, match="has no entropy pair"):
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

    @pytest.mark.parametrize("name, u", [("burgers", 0.5), ("cubic", np.float64(-0.5)),
                                         ("advection:1.5", np.array(2.0))])
    def test_zero_dimensional_state_coerced(self, name, u):
        # a one-state input that is not of shape (n,) goes through `state`
        m = model_from_name(name)
        assert m.jac(u).shape == (1, 1)
        assert m.jac(u).tobytes() == m.jac(np.array([u])).tobytes()

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


# a 3x3 linear model with a double eigenvalue 1: the np.linalg.eig branch
DOUBLE = np.diag([1.0, 1.0, 2.0])
LINEAR3_DOUBLE = models.FluxModel("double3", 3, flux=lambda u: u @ DOUBLE.T,
                                  jacobian=lambda u: np.broadcast_to(DOUBLE, u.shape + (3,)))


@pytest.mark.parametrize("model", [
    models.p_system(),
    replace(models.p_system(), lo=np.array([0.5, -0.5]), hi=np.array([2.0, 0.5])),
    replace(models.burgers(), lo=np.array([0.0])),
], ids=["psystem", "psystem-box", "burgers-half-line"])
def test_one_state_box_test_matches_rows(model):
    # one state is tested on floats, rows on arrays: the two agree on
    # random states, states on the bounds, and NaN and infinite components
    rng = np.random.default_rng(3)
    special = [np.nan, np.inf, -np.inf, *model.lo, *model.hi]
    states = [rng.uniform(-3.0, 3.0, model.n) for _ in range(200)]
    for _ in range(300):
        u = rng.uniform(-3.0, 3.0, model.n)
        for j in range(model.n):
            if rng.random() < 0.5:
                u[j] = rng.choice(special)
        states.append(u)
    verdicts = set()
    for u in states:
        one = model.contains(u)
        assert one is bool(((u >= model.lo) & (u <= model.hi)).all())
        assert one is model.contains(u[None, :])
        verdicts.add(one)
    assert verdicts == {True, False}


@pytest.mark.parametrize("call, error, match", [
    (lambda: eigensystem(LINEAR3_DOUBLE, [0.0, 0.0, 0.0]), NonHyperbolic,
     "eigenvalue gap 0.000e\\+00 below tolerance"),
    (lambda: classify_field(models.burgers(), []), ConfigError, "at least one sample"),
    (lambda: normalize_speeds(models.burgers(), M=0.0), ConfigError, "need M > 0"),
    (lambda: normalize_speeds(models.burgers(), M=1.0, target=(1.0, 1.0)), ConfigError,
     "nondegenerate target interval"),
    (lambda: models.p_system(k=0.0), ConfigError, "k > 0 and gamma >= 1"),
    (lambda: models.p_system(gamma=0.5), ConfigError, "k > 0 and gamma >= 1"),
    (lambda: model_from_name("psystem:one"), ConfigError,
     "bad model arguments in 'psystem:one'"),
    (lambda: models.p_system().jac([1.0]), ValueError, "dimension 1, model expects 2"),
], ids=["eig-gap", "no-samples", "zero-M", "flat-target", "zero-k", "low-gamma",
        "unparsable-arguments", "jacobian-state-dimension"])
def test_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()
