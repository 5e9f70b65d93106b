"""The Lax-curve wave kernel shared by the exact solver and front tracking,
and the central-difference helper it and the models stand on.

The golden values are float.hex literals: they pin the output bit for bit,
so any change to the floating-point work of the wave-curve step, the
strength Newton, the Liu margins or the finite-difference derivatives shows
here.  The property test checks the structural invariants on random small
p-system data.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperlab import models
from hyperlab.fronts import approximate_riemann_pieces
from hyperlab.riemann import (_field_classes, default_small_data_radius,
                              rh_residual, solve_riemann)

P_SYSTEM = models.p_system()


def unhex(values):
    return np.array([float.fromhex(v) for v in values])


def psystem_jump(u, a1, a2):
    """u + a1 r1(u) + a2 r2(u) for p(v) = v^-2, with r = (1, +-c)."""
    c = math.sqrt(2.0) * u[0] ** -1.5
    return u + a1 * np.array([1.0, c]) + a2 * np.array([1.0, -c])


# (model, u-, u+, fan states, waves); a wave is (kind, family, speed, liu
# margin) with speed = (speed_l, speed_r) for rarefactions
GOLDEN_FANS = [
    ("psystem", ("0x1.0000000000000p+0", "0x0.0p+0"),
     ("0x1.0cccccccccccdp+0", "0x1.cf68d4fff04dcp-7"),
     [("0x1.0000000000000p+0", "0x0.0p+0"),
      ("0x1.079d8f8939cefp+0", "0x1.51222d186d851p-5"),
      ("0x1.0cccccccccffep+0", "0x1.cf68d4fff7005p-7")],
     [("rarefaction", 0, ("-0x1.6a09e667f3bcdp+0", "-0x1.5a76e06702940p+0"), None),
      ("shock", 1, "0x1.5572ca9dc6c6cp+0", "-0x1.0000000000000p-52")]),
    ("psystem", ("0x1.0000000000000p+0", "0x0.0p+0"),
     ("0x1.0147ae147ae14p+0", "-0x1.04aaf7cff72bdp-4"),
     [("0x1.0000000000000p+0", "0x0.0p+0"),
      ("0x1.f5e850d4690f2p-1", "-0x1.cf9e1bd7ffabap-6"),
      ("0x1.0147ae147ae14p+0", "-0x1.04aaf7cff72bfp-4")],
     [("shock", 0, "-0x1.6f7e811c20a83p+0", "0x1.a000000000000p-49"),
      ("shock", 1, "0x1.6e208e2e62b94p+0", "-0x1.0000000000000p-52")]),
    ("linear2:1,0.5,0,2", ("0x0.0p+0", "0x1.0000000000000p+0"),
     ("0x1.0000000000000p-1", "-0x1.0000000000000p-2"),
     [("0x0.0p+0", "0x1.0000000000000p+0"),
      ("0x1.2000000000000p+0", "0x1.0000000000000p+0"),
      ("0x1.0000000000000p-1", "-0x1.0000000000000p-2")],
     [("contact", 0, "0x1.0000000000000p+0", None),
      ("contact", 1, "0x1.0000000000000p+1", None)]),
]

# a 1-rarefaction of strength 0.05 (five pieces at delta = 0.02) and a weak
# 2-wave that rho_np = 1e-3 merges into one non-physical front
PIECES_DATA = (("0x1.0000000000000p+0", "0x0.0p+0"),
               ("0x1.0d013a92a3055p+0", "0x1.1cff3113298c1p-4"))
RAREFACTION_PIECES = [
    ("rarefaction", 0, ("0x1.028ea6d5278dfp+0", "0x1.cb7934c808ca4p-7"), "-0x1.675a1e7fea91fp+0"),
    ("rarefaction", 0, ("0x1.0523cf57b282ep+0", "0x1.ca52c10bc5a36p-6"), "-0x1.6208bed3b0d2cp+0"),
    ("rarefaction", 0, ("0x1.07bf78e321a9ap+0", "0x1.56df13e5fcc31p-5"), "-0x1.5ccba669e7dfcp+0"),
    ("rarefaction", 0, ("0x1.0a61a227e4608p+0", "0x1.c7fd48b163a2dp-5"), "-0x1.57a2a905e9bc7p+0"),
    ("rarefaction", 0, ("0x1.0d0a492a4592ep+0", "0x1.1c40f43c5fcccp-4"), "-0x1.528d99de0ff55p+0"),
]
GOLDEN_PIECES_SPLIT = RAREFACTION_PIECES + [
    ("rarefaction", 1, ("0x1.0d013a92a3054p+0", "0x1.1cff3113298d8p-4"), "0x1.50125f7631ff7p+0"),
]
GOLDEN_PIECES_MERGED = RAREFACTION_PIECES + [
    ("non-physical", None, ("0x1.0d013a92a3055p+0", "0x1.1cff3113298c1p-4"), "0x1.8000000000000p+1"),
]


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
            assert len(fan.states) == len(states)
            for got, want in zip(fan.states, states):
                assert np.array_equal(got, unhex(want))
            assert [(w.kind, w.family) for w in fan.waves] == \
                [(kind, fam) for kind, fam, _, _ in waves]
            for w, (kind, _, speed, margin) in zip(fan.waves, waves):
                if kind == "rarefaction":
                    assert (w.speed_l, w.speed_r) == tuple(unhex(speed))
                else:
                    assert w.speed == float.fromhex(speed)
                got_margin = getattr(w, "liu_margin", None)
                assert got_margin == (None if margin is None else float.fromhex(margin))
            assert_chained(fan.left, [(w.u_l, w.u_r) for w in fan.waves])

    def test_front_pieces_bit_identical(self):
        ul, ur = unhex(PIECES_DATA[0]), unhex(PIECES_DATA[1])
        fields = _field_classes(P_SYSTEM, ul, ur)
        for kw, golden in (({}, GOLDEN_PIECES_SPLIT),
                           ({"rho_np": 1e-3, "lam_hat": 3.0, "allow_np": True},
                            GOLDEN_PIECES_MERGED)):
            pieces = approximate_riemann_pieces(P_SYSTEM, ul, ur, 0.02,
                                                fields=fields, **kw)
            assert [(k, fam) for k, fam, *_ in pieces] == \
                [(k, fam) for k, fam, *_ in golden]
            for (_, _, _, b, speed), (_, _, want_b, want_speed) in zip(pieces, golden):
                assert np.array_equal(b, unhex(want_b))
                assert speed == float.fromhex(want_speed)
            assert_chained(ul, [(a, b) for _, _, a, b, _ in pieces])


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
        assert [models.gnl_indicator(self.FD, i, self.U) for i in (0, 1)] == \
            list(unhex(["0x1.d4c47d3a4e581p-1", "-0x1.d4c3bfd7d6037p-1"]))

    def test_small_data_radius_bit_identical(self):
        ur = np.array([1.25, 0.28])
        assert default_small_data_radius(self.FD, self.U, ur) == \
            float.fromhex("0x1.661da8e402476p-3")
        assert default_small_data_radius(P_SYSTEM, self.U, ur) == \
            float.fromhex("0x1.661daf1cd292fp-3")

    @pytest.mark.parametrize("model, u, exact", [
        (models.burgers(), [0.3], [[2.0]]),
        (models.burgers(), [-1.5], [[2.0]]),
        # P(v) = v^-1, so P'' = gamma k v^(-gamma-1) = 2 v^-3
        (P_SYSTEM, [1.2, 0.3], np.diag([2.0 * 1.2 ** -3, 1.0])),
        (P_SYSTEM, [0.6, -0.4], np.diag([2.0 * 0.6 ** -3, 1.0])),
    ])
    def test_entropy_hessian_matches_analytic(self, model, u, exact):
        H = model.entropy_hessian(u)
        assert np.array_equal(H, H.T)
        assert np.max(np.abs(H - exact)) <= 5e-5 * np.max(np.abs(exact))


small = st.floats(-0.015, 0.015, allow_nan=False)


@settings(max_examples=15, deadline=None, database=None)
@given(v=st.floats(0.9, 1.1), u=st.floats(-0.05, 0.05), a1=small, a2=small)
@example(v=1.0, u=0.0, a1=0.0, a2=0.0)
def test_psystem_fans_and_pieces(v, u, a1, a2):
    ul = np.array([v, u])
    ur = psystem_jump(ul, a1, a2)
    fan = solve_riemann(P_SYSTEM, ul, ur)
    assert len(fan.states) == len(fan.waves) + 1
    prev = -np.inf
    for w in fan.waves:
        assert w.speed_l >= prev - 1e-9
        prev = w.speed_r
        if w.kind != "rarefaction":
            assert rh_residual(P_SYSTEM, w.u_l, w.u_r, w.speed) <= 1e-9
    end = assert_chained(fan.left, [(w.u_l, w.u_r) for w in fan.waves])
    assert np.array_equal(end, fan.right)
    for state, w in zip(fan.states[1:], fan.waves):
        assert np.array_equal(state, w.u_r)

    fields = _field_classes(P_SYSTEM, ul, ur)
    pieces = approximate_riemann_pieces(P_SYSTEM, ul, ur, 0.01, fields=fields,
                                        rho_np=1e-3, lam_hat=3.0, allow_np=True)
    assert_chained(ul, [(a, b) for _, _, a, b, _ in pieces])
    for kind, _, a, b, speed in pieces:
        if kind != "non-physical":
            assert rh_residual(P_SYSTEM, a, b, speed) <= 1e-9
