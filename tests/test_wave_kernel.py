"""The Lax-curve wave kernel shared by the exact solver and front tracking,
and the central-difference helper it and the models stand on.

The golden values are float.hex literals: they pin the output bit for bit,
so any change to the floating-point work of the wave-curve step, the
strength Newton or the finite-difference derivatives shows here.  The
property test checks the structural invariants on random small p-system
data, Liu admissibility among them.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperlab import fronts, models, riemann
from hyperlab.errors import NewtonDivergence, OutOfDomain
from hyperlab.fronts import approximate_riemann_pieces
from hyperlab.riemann import (TOL_RP, _compose, _damped_newton, _field_classes,
                              liu_admissible, rh_residual, solve_riemann,
                              solve_strengths)

P_SYSTEM = models.p_system()


def unhex(values):
    return np.array([float.fromhex(v) for v in values])


def unhex_rows(rows):
    return np.array([unhex(row) for row in rows])


def psystem_jump(u, a1, a2):
    """u + a1 r1(u) + a2 r2(u) for p(v) = v^-2, with r = (1, +-c)."""
    c = math.sqrt(2.0) * u[0] ** -1.5
    return u + a1 * np.array([1.0, c]) + a2 * np.array([1.0, -c])


# (model, u-, u+, fan states, waves); a wave is (kind, family, speed) with
# speed = (speed_l, speed_r) for rarefactions.  Each fan ends on u+ exactly.
GOLDEN_FANS = [
    ("psystem", ("0x1.0000000000000p+0", "0x0.0p+0"),
     ("0x1.0cccccccccccdp+0", "0x1.cf68d4fff04dcp-7"),
     [("0x1.0000000000000p+0", "0x0.0p+0"),
      ("0x1.079d8f8939b19p+0", "0x1.51222d18687adp-5"),
      ("0x1.0cccccccccccdp+0", "0x1.cf68d4fff04dcp-7")],
     [("rarefaction", 0, ("-0x1.6a09e667f3bcdp+0", "-0x1.5a76e06702cdfp+0")),
      ("shock", 1, "0x1.5572ca9dc7132p+0")]),
    ("psystem", ("0x1.0000000000000p+0", "0x0.0p+0"),
     ("0x1.0147ae147ae14p+0", "-0x1.04aaf7cff72bdp-4"),
     [("0x1.0000000000000p+0", "0x0.0p+0"),
      ("0x1.f5e850d4690e8p-1", "-0x1.cf9e1bd7ffc6fp-6"),
      ("0x1.0147ae147ae14p+0", "-0x1.04aaf7cff72bdp-4")],
     [("shock", 0, "-0x1.6f7e811c20a7dp+0"),
      ("shock", 1, "0x1.6e208e2e62b8ap+0")]),
    ("linear2:1,0.5,0,2", ("0x0.0p+0", "0x1.0000000000000p+0"),
     ("0x1.0000000000000p-1", "-0x1.0000000000000p-2"),
     [("0x0.0p+0", "0x1.0000000000000p+0"),
      ("0x1.2000000000000p+0", "0x1.0000000000000p+0"),
      ("0x1.0000000000000p-1", "-0x1.0000000000000p-2")],
     [("contact", 0, "0x1.0000000000000p+0"),
      ("contact", 1, "0x1.0000000000000p+1")]),
]
# the same fans from a Newton with central-difference Jacobians stopped at
# |G| <= 1e-10, whose last state was the composed end state: a reference the
# fans above must stay within 1e-10 of, in states and speeds
REFERENCE_FANS = [
    ("psystem", ("0x1.0000000000000p+0", "0x0.0p+0"),
     ("0x1.0cccccccccccdp+0", "0x1.cf68d4fff04dcp-7"),
     [("0x1.0000000000000p+0", "0x0.0p+0"),
      ("0x1.079d8f8939cefp+0", "0x1.51222d186d851p-5"),
      ("0x1.0cccccccccffep+0", "0x1.cf68d4fff7005p-7")],
     [("rarefaction", 0, ("-0x1.6a09e667f3bcdp+0", "-0x1.5a76e06702940p+0")),
      ("shock", 1, "0x1.5572ca9dc6c6cp+0")]),
    ("psystem", ("0x1.0000000000000p+0", "0x0.0p+0"),
     ("0x1.0147ae147ae14p+0", "-0x1.04aaf7cff72bdp-4"),
     [("0x1.0000000000000p+0", "0x0.0p+0"),
      ("0x1.f5e850d4690f2p-1", "-0x1.cf9e1bd7ffabap-6"),
      ("0x1.0147ae147ae14p+0", "-0x1.04aaf7cff72bfp-4")],
     [("shock", 0, "-0x1.6f7e811c20a83p+0"),
      ("shock", 1, "0x1.6e208e2e62b94p+0")]),
    ("linear2:1,0.5,0,2", ("0x0.0p+0", "0x1.0000000000000p+0"),
     ("0x1.0000000000000p-1", "-0x1.0000000000000p-2"),
     [("0x0.0p+0", "0x1.0000000000000p+0"),
      ("0x1.2000000000000p+0", "0x1.0000000000000p+0"),
      ("0x1.0000000000000p-1", "-0x1.0000000000000p-2")],
     [("contact", 0, "0x1.0000000000000p+0"),
      ("contact", 1, "0x1.0000000000000p+1")]),
]

# a 1-rarefaction of strength 0.05 (five pieces at delta = 0.02) and a weak
# 2-wave that rho_np = 1e-3 merges into one non-physical front.  The split
# pieces are the seeded jumps of the strength solve; the merged ones are a
# cold composition at its strengths, so the two differ in the last bits.
PIECES_DATA = (("0x1.0000000000000p+0", "0x0.0p+0"),
               ("0x1.0d013a92a3055p+0", "0x1.1cff3113298c1p-4"))
NONPHYSICAL_PIECE = (
    "non-physical", None, ("0x1.0d013a92a3055p+0", "0x1.1cff3113298c1p-4"), "0x1.8000000000000p+1")
GOLDEN_PIECES_SPLIT = [
    ("rarefaction", 0, ("0x1.028ea6d5278dfp+0", "0x1.cb7934c808c81p-7"), "-0x1.675a1e7fea926p+0"),
    ("rarefaction", 0, ("0x1.0523cf57b282ep+0", "0x1.ca52c10bc5a0fp-6"), "-0x1.6208bed3b0d24p+0"),
    ("rarefaction", 0, ("0x1.07bf78e321a9ap+0", "0x1.56df13e5fcc17p-5"), "-0x1.5ccba669e7e0dp+0"),
    ("rarefaction", 0, ("0x1.0a61a227e4608p+0", "0x1.c7fd48b163a0bp-5"), "-0x1.57a2a905e9bcdp+0"),
    ("rarefaction", 0, ("0x1.0d0a492a4592ep+0", "0x1.1c40f43c5fcb6p-4"), "-0x1.528d99de0ff55p+0"),
    ("rarefaction", 1, ("0x1.0d013a92a3055p+0", "0x1.1cff3113298b9p-4"), "0x1.50125f76321bbp+0"),
]
GOLDEN_PIECES_MERGED = [
    ("rarefaction", 0, ("0x1.028ea6d52785fp+0", "0x1.cb7934c80e713p-7"), "-0x1.675a1e7fecd09p+0"),
    ("rarefaction", 0, ("0x1.0523cf57b272bp+0", "0x1.ca52c10bcb4a0p-6"), "-0x1.6208bed3b3187p+0"),
    ("rarefaction", 0, ("0x1.07bf78e321912p+0", "0x1.56df13e600ffdp-5"), "-0x1.5ccba669ea2d4p+0"),
    ("rarefaction", 0, ("0x1.0a61a227e43f9p+0", "0x1.c7fd48b16948ap-5"), "-0x1.57a2a905ec109p+0"),
    ("rarefaction", 0, ("0x1.0d0a492a45695p+0", "0x1.1c40f43c6353dp-4"), "-0x1.528d99de124ecp+0"),
    NONPHYSICAL_PIECE,
]
# the same pieces from a second strength Newton on the split chain with its
# shock points solved to 1e-14: a reference the pieces above must stay within
# roundoff of (states 1e-12, speeds 1e-11)
REFERENCE_RAREFACTION_PIECES = [
    ("rarefaction", 0, ("0x1.028ea6d5278dfp+0", "0x1.cb7934c808ca4p-7"), "-0x1.675a1e7fea91fp+0"),
    ("rarefaction", 0, ("0x1.0523cf57b282ep+0", "0x1.ca52c10bc5a36p-6"), "-0x1.6208bed3b0d2cp+0"),
    ("rarefaction", 0, ("0x1.07bf78e321a9ap+0", "0x1.56df13e5fcc31p-5"), "-0x1.5ccba669e7dfcp+0"),
    ("rarefaction", 0, ("0x1.0a61a227e4608p+0", "0x1.c7fd48b163a2dp-5"), "-0x1.57a2a905e9bc7p+0"),
    ("rarefaction", 0, ("0x1.0d0a492a4592ep+0", "0x1.1c40f43c5fcccp-4"), "-0x1.528d99de0ff55p+0"),
]
REFERENCE_PIECES_SPLIT = REFERENCE_RAREFACTION_PIECES + [
    ("rarefaction", 1, ("0x1.0d013a92a3054p+0", "0x1.1cff3113298d8p-4"), "0x1.50125f7631ff7p+0"),
]
REFERENCE_PIECES_MERGED = REFERENCE_RAREFACTION_PIECES + [NONPHYSICAL_PIECE]


def fan_states(fan):
    """The constant states of a fan, left to right."""
    return (fan.left, *(w.u_r for w in fan.waves))


def assert_chained(left, links):
    """Each (u_l, u_r) link starts exactly where the previous one ended."""
    state = left
    for u_l, u_r in links:
        assert np.array_equal(u_l, state)
        state = u_r
    return state


class TestGoldenFans:
    def test_fans_bit_identical(self):
        for name, ul, ur, states, waves in GOLDEN_FANS:
            fan = solve_riemann(models.model_from_name(name), unhex(ul), unhex(ur))
            assert len(fan_states(fan)) == len(states)
            for got, want in zip(fan_states(fan), states):
                assert np.array_equal(got, unhex(want))
            assert [(w.kind, w.family) for w in fan.waves] == \
                [(kind, fam) for kind, fam, _ in waves]
            for w, (kind, _, speed) in zip(fan.waves, waves):
                if kind == "rarefaction":
                    assert (w.speed_l, w.speed_r) == tuple(unhex(speed))
                else:
                    assert w.speed == float.fromhex(speed)
            assert_chained(fan.left, [(w.u_l, w.u_r) for w in fan.waves])
            assert np.array_equal(fan.right, unhex(ur))

    def test_fans_near_reference(self):
        for name, ul, ur, states, waves in REFERENCE_FANS:
            fan = solve_riemann(models.model_from_name(name), unhex(ul), unhex(ur))
            assert [(w.kind, w.family) for w in fan.waves] == \
                [(kind, fam) for kind, fam, _ in waves]
            assert np.max(np.abs(np.array(fan_states(fan)) - unhex_rows(states))) <= 1e-10
            for w, (_, _, speed) in zip(fan.waves, waves):
                assert np.max(np.abs(np.array([w.speed_l, w.speed_r])
                                     - unhex(np.broadcast_to(speed, 2)))) <= 1e-10

    def test_front_pieces_bit_identical(self):
        ul, ur = unhex(PIECES_DATA[0]), unhex(PIECES_DATA[1])
        fields = _field_classes(P_SYSTEM, ul, ur)
        for kw, golden, reference in (
                ({}, GOLDEN_PIECES_SPLIT, REFERENCE_PIECES_SPLIT),
                ({"rho_np": 1e-3, "lam_hat": 3.0}, GOLDEN_PIECES_MERGED,
                 REFERENCE_PIECES_MERGED)):
            pieces = approximate_riemann_pieces(P_SYSTEM, ul, ur, 0.02,
                                                fields=fields, **kw)
            assert [(p.kind, p.family) for p in pieces] == \
                [(k, fam) for k, fam, *_ in golden] == \
                [(k, fam) for k, fam, *_ in reference]
            for p, want, ref in zip(pieces, golden, reference):
                assert np.array_equal(p.u_r, unhex(want[2]))
                assert p.speed == float.fromhex(want[3])
                assert np.max(np.abs(p.u_r - unhex(ref[2]))) <= 1e-12
                assert abs(p.speed - float.fromhex(ref[3])) <= 1e-11
            assert_chained(ul, [(p.u_l, p.u_r) for p in pieces])

    @pytest.mark.parametrize("ur, delta, solves", [
        # the two shocks of the second golden fan: every family one jump
        (GOLDEN_FANS[1][2], 0.02, 1),
        # the 1-rarefaction of strength 0.05 is one jump at delta = 0.1 ...
        (PIECES_DATA[1], 0.1, 1),
        # ... and five at delta = 0.02, which takes a second solve
        (PIECES_DATA[1], 0.02, 2),
    ], ids=["shocks", "one-jump-rarefaction", "split-rarefaction"])
    def test_front_pieces_strength_solves(self, monkeypatch, ur, delta, solves):
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs["splits"])
            return solve_strengths(*args, **kwargs)

        monkeypatch.setattr(fronts, "solve_strengths", counted)
        ul, ur = unhex(PIECES_DATA[0]), unhex(ur)
        approximate_riemann_pieces(P_SYSTEM, ul, ur, delta,
                                   fields=_field_classes(P_SYSTEM, ul, ur))
        assert len(calls) == solves
        assert calls[0] == [1, 1]

    @pytest.mark.parametrize("splits", [None, [1, 1], [1, 3]],
                             ids=["curves", "jumps", "split-jumps"])
    def test_strength_solve_returns_its_composition(self, monkeypatch, splits):
        # the waves returned with the strengths are the ones composed at
        # them from the seeds that evaluation was given, byte for byte, so
        # no caller composes them again; a cold composition at the same
        # strengths lands within the REFERENCE_PIECES tolerances of them
        ul, ur = unhex(PIECES_DATA[0]), unhex(PIECES_DATA[1])
        fields = _field_classes(P_SYSTEM, ul, ur)
        given = []

        def recorded(model, u_minus, sigmas, fields, splits, seeds, es_minus):
            given.append((sigmas.copy(), dict(seeds), es_minus))
            return _compose(model, u_minus, sigmas, fields, splits, seeds, es_minus)

        monkeypatch.setattr(riemann, "_compose", recorded)
        sig, state, waves = solve_strengths(P_SYSTEM, ul, ur, fields, splits)
        seeds, es_minus = [(seeds, es) for s, seeds, es in given
                           if np.array_equal(s, sig)][-1]
        want_state, want_waves = _compose(P_SYSTEM, ul, sig, fields, splits,
                                          seeds, es_minus)
        assert state.tobytes() == want_state.tobytes()
        assert len(waves) == len(want_waves)
        for w, v in zip(waves, want_waves):
            assert vars(w).keys() == vars(v).keys()
            for key, value in vars(w).items():
                assert np.array_equal(value, vars(v)[key])
        cold_state, cold_waves = _compose(P_SYSTEM, ul, sig, fields, splits)
        assert [(w.kind, w.family) for w in waves] == \
            [(v.kind, v.family) for v in cold_waves]
        assert np.max(np.abs(state - cold_state)) <= 1e-12
        for w, v in zip(waves, cold_waves):
            assert np.max(np.abs(w.u_r - v.u_r)) <= 1e-12
            assert abs(w.speed_l - v.speed_l) <= 1e-11
            assert abs(w.speed_r - v.speed_r) <= 1e-11

    def test_failed_seed_falls_back_to_cold(self):
        # a seed whose continuation fails (here a NaN point) leaves the jump
        # to the cold continuation from s = 0, byte for byte
        ul, ur = unhex(PIECES_DATA[0]), unhex(PIECES_DATA[1])
        fields = _field_classes(P_SYSTEM, ul, ur)
        sig = np.array([0.05, 0.004])
        bad = {(0, 0): (ul, 0.01, np.full(2, np.nan), np.nan)}
        state, waves = _compose(P_SYSTEM, ul, sig, fields, [1, 1], bad, None)
        cold_state, cold_waves = _compose(P_SYSTEM, ul, sig, fields, [1, 1])
        assert state.tobytes() == cold_state.tobytes()
        for w, v in zip(waves, cold_waves):
            assert (w.u_r.tobytes(), w.speed) == (v.u_r.tobytes(), v.speed)
        # the seeds now hold this composition's jumps
        assert sorted(bad) == [(0, 0), (1, 0)]
        assert bad[1, 0][2] is waves[1].u_r


class TestCentralDiff:
    """The finite-difference fallback of a p-system built without its
    analytic Jacobian, at u = (1.2, 0.3)."""

    U = np.array([1.2, 0.3])
    FD = replace(P_SYSTEM, jacobian=None)

    def test_derivatives_bit_identical(self):
        assert np.array_equal(self.FD.jac(self.U).ravel(), unhex(
            ["0x0.0p+0", "-0x1.ffffffffe1558p-1", "-0x1.284bda12e31cbp+0", "0x0.0p+0"]))
        assert np.array_equal(self.FD.d_entropy(self.U), unhex(
            ["-0x1.638e38e3983a0p-1", "0x1.333333336bebbp-2"]))
        assert np.array_equal(self.FD.d_entropy_flux(self.U), unhex(
            ["-0x1.638e38e37c7bbp-2", "0x1.638e38e380c06p-1"]))
        assert np.array_equal(models.gnl_indicator(self.FD, self.U), unhex(
            ["0x1.d4c47d3a4e581p-1", "-0x1.d4c3bfd7d6037p-1"]))

    @pytest.mark.parametrize("model, u, exact", [
        (models.burgers(), [0.3], [[2.0]]),
        (models.burgers(), [-1.5], [[2.0]]),
        # P(v) = v^-1, so P'' = gamma k v^(-gamma-1) = 2 v^-3
        (P_SYSTEM, [1.2, 0.3], np.diag([2.0 * 1.2 ** -3, 1.0])),
        (P_SYSTEM, [0.6, -0.4], np.diag([2.0 * 0.6 ** -3, 1.0])),
        # isothermal: P(v) = -k log v, so P'' = k v^-2
        (models.p_system(gamma=1.0), [1.2, 0.3], np.diag([1.2 ** -2, 1.0])),
        (models.p_system(gamma=1.0), [0.6, -0.4], np.diag([0.6 ** -2, 1.0])),
    ])
    def test_entropy_hessian_matches_analytic(self, model, u, exact):
        H = model.entropy_hessian(u)
        assert np.array_equal(H, H.T)
        assert np.max(np.abs(H - exact)) <= 5e-5 * np.max(np.abs(exact))


class TestDampedNewton:
    """The error contract of the one strength solve, on synthetic G, each
    started from a given Jacobian J: the exact one at the start point unless
    a test says otherwise."""

    @staticmethod
    def solve(G, x, J, tol=1e-12, accept=1e-11, maxiter=40):
        # G(x) is returned with the solution, so the caller gets back what
        # G computed at it
        x, gx = _damped_newton(lambda x: (G(x), G(x)), np.array(x, dtype=float),
                               np.array(J, dtype=float), tol, accept, maxiter,
                               NewtonDivergence, "strength")
        assert np.array_equal(gx, G(x))
        return x

    def test_converges(self):
        x = self.solve(lambda x: x * x - 2.0, [1.0], [[2.0]])
        assert abs(x[0] - math.sqrt(2.0)) <= 1e-12

    def test_singular_jacobian(self):
        with pytest.raises(NewtonDivergence, match="singular strength Jacobian") as info:
            self.solve(lambda x: np.ones(2) + 0.0 * x, [0.0, 0.0], np.zeros((2, 2)))
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_broyden_update_hits_a_linear_map(self):
        # from the diagonal of M, Broyden's updates solve G(x) = M x - b in
        # 2n = 4 steps (Gay 1979); the frozen diagonal would leave |G| near
        # 0.29^4 |b| after them
        M = np.array([[2.0, 1.0], [0.5, 3.0]])
        b = np.array([1.0, -2.0])
        x = self.solve(lambda x: M @ x - b, [0.0, 0.0], np.diag([2.0, 3.0]),
                       accept=1e-12, maxiter=4)
        assert np.max(np.abs(M @ x - b)) <= 1e-12

    @pytest.mark.parametrize("wall", [None, OutOfDomain("outside"),
                                      np.linalg.LinAlgError("singular")],
                             ids=["no-decrease", "hyperlab-error", "linalg-error"])
    def test_stalled_line_search(self, wall):
        # G is x - 10 within 1e-3 of the start, so the first step is 10;
        # every halved trial point (down to 10/512) lies beyond 1e-3, where
        # |G| does not decrease or G raises
        def G(x):
            if abs(x[0]) < 1e-3:
                return x - 10.0
            if wall is None:
                return x + 100.0
            raise wall

        with pytest.raises(NewtonDivergence,
                           match=r"strength line search stalled \(\|G\|=1.00e\+01\)"):
            self.solve(G, [0.0], [[1.0]])

    @pytest.mark.parametrize("accept, passes", [(1e-11, True), (1e-12, False)])
    def test_accept_after_stalled_line_search(self, accept, passes):
        # a G that no step reduces stalls the line search at |G| = 5e-12,
        # the size of the residual that families below STRENGTH_FLOOR leave
        def G(x):
            return np.array([5e-12]) + 0.0 * x

        if passes:
            assert self.solve(G, [0.0], [[1.0]], accept=accept)[0] == 0.0
        else:
            with pytest.raises(NewtonDivergence, match=r"stalled \(\|G\|=5.00e-12\)"):
                self.solve(G, [0.0], [[1.0]], accept=accept)

    def test_accept_after_maxiter(self):
        # from 1 with J = 2 the secant iterates are 3/2, 7/5, 41/29, 577/408:
        # four steps leave |x^2 - 2| = 6.0e-6, above tol = 0, within
        # accept = 1e-3, and no closer than the fourth iterate
        x = self.solve(lambda x: x * x - 2.0, [1.0], [[2.0]], tol=0.0, accept=1e-3,
                       maxiter=4)
        assert x[0] == pytest.approx(577.0 / 408.0, rel=1e-12)
        with pytest.raises(NewtonDivergence,
                           match=r"strength Newton did not converge \(\|G\|=6.01e-06\)"):
            self.solve(lambda x: x * x - 2.0, [1.0], [[2.0]], tol=0.0, accept=1e-6,
                       maxiter=4)


small = st.floats(-0.015, 0.015, allow_nan=False)


@settings(max_examples=15, deadline=None, database=None)
@given(v=st.floats(0.9, 1.1), u=st.floats(-0.05, 0.05), a1=small, a2=small)
@example(v=1.0, u=0.0, a1=0.0, a2=0.0)
# both families just below STRENGTH_FLOOR (the jump itself is 1.05e-12): no
# wave and no piece, and |G| stalls at 1.1e-12
@example(v=0.939, u=-0.0023, a1=-3.4e-13, a2=3.4e-13)
# a 2-shock of 1.56e-12, whose Liu margin is -1.06e-4 of roundoff
@example(v=0.9375, u=0.0, a1=0.0, a2=1e-12)
def test_psystem_fans_and_pieces(v, u, a1, a2):
    ul = np.array([v, u])
    ur = psystem_jump(ul, a1, a2)
    fan = solve_riemann(P_SYSTEM, ul, ur)
    assert len(fan_states(fan)) == len(fan.waves) + 1
    prev = -np.inf
    for w in fan.waves:
        assert w.speed_l >= prev - 1e-9
        prev = w.speed_r
        if w.kind != "rarefaction":
            assert rh_residual(P_SYSTEM, w.u_l, w.u_r, w.speed) <= 1e-9
        if w.kind == "shock":
            assert liu_admissible(P_SYSTEM, w.u_l, w.u_r, w.family).admissible
    end = assert_chained(fan.left, [(w.u_l, w.u_r) for w in fan.waves])
    assert np.array_equal(end, fan.right)
    # the fan ends on u+ exactly, unless every family is below STRENGTH_FLOOR:
    # then it has no wave and ends on u-
    assert np.array_equal(fan.right, ur if fan.waves else ul)
    for state, w in zip(fan_states(fan)[1:], fan.waves):
        assert np.array_equal(state, w.u_r)

    fields = _field_classes(P_SYSTEM, ul, ur)
    pieces = approximate_riemann_pieces(P_SYSTEM, ul, ur, 0.01, fields=fields,
                                        rho_np=1e-3, lam_hat=3.0)
    if not fan.waves:  # front tracking makes no wave of a sub-floor jump either
        assert pieces == []
    assert_chained(ul, [(p.u_l, p.u_r) for p in pieces])
    for p in pieces:
        if p.kind != "non-physical":
            assert rh_residual(P_SYSTEM, p.u_l, p.u_r, p.speed) <= 1e-9


@settings(max_examples=15, deadline=None, database=None)
@given(v=st.floats(0.9, 1.1), u=st.floats(-0.05, 0.05), a1=small, a2=small,
       splits=st.sampled_from([None, [1, 1], [2, 3]]))
@example(v=1.0, u=0.0, a1=0.012, a2=-0.01, splits=[2, 3])
def test_seeded_solve_lands_on_cold_points(v, u, a1, a2, splits):
    # every wave of the seeded strength solve lies within the
    # REFERENCE_PIECES tolerances of a cold composition at its strengths,
    # and the solve ends within its acceptance of u+.  A residual F of the
    # RH conditions fixes the speed of a jump d only to |F| / |d|, and the
    # RH Newton takes a start as it is at |F| <= 1e-15 (1 + |f|), about
    # 2.4e-15 here, so below |d| = 1e-3 the speed bound is 1e-14 / |d|
    ul = np.array([v, u])
    ur = psystem_jump(ul, a1, a2)
    fields = _field_classes(P_SYSTEM, ul, ur)
    sig, state, waves = solve_strengths(P_SYSTEM, ul, ur, fields, splits)
    _, cold = _compose(P_SYSTEM, ul, sig, fields, splits)
    assert [(w.kind, w.family) for w in waves] == [(w.kind, w.family) for w in cold]
    for w, c in zip(waves, cold):
        assert np.max(np.abs(np.array([w.u_l, w.u_r]) - np.array([c.u_l, c.u_r]))) <= 1e-12
        bound = 1e-11 * max(1.0, 1e-3 / np.linalg.norm(c.u_r - c.u_l))
        assert max(abs(w.speed_l - c.speed_l), abs(w.speed_r - c.speed_r)) <= bound
    assert np.linalg.norm(state - ur) <= 10 * TOL_RP
