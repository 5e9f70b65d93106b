"""The Lax-curve wave kernel shared by the exact solver and front tracking,
and the central-difference helper it and the models stand on.

The golden values are float.hex literals: they pin the output bit for bit,
so any change to the floating-point work of the wave-curve step, the
strength Newton or the finite-difference derivatives shows here.  The
property test checks the structural invariants on random small p-system
data, Liu admissibility among them.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperlab import fronts, models, riemann
from hyperlab.errors import (ContinuationFailure, HyperlabError, NewtonDivergence,
                             OutOfDomain)
from hyperlab.fronts import approximate_riemann_pieces
from hyperlab.models import eigensystem
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
      ("0x1.079d8f8939bf3p+0", "0x1.51222d186ad68p-5"),
      ("0x1.0cccccccccccdp+0", "0x1.cf68d4fff04dcp-7")],
     [("rarefaction", 0, ("-0x1.6a09e667f3bcdp+0", "-0x1.5a76e06702b31p+0")),
      ("shock", 1, "0x1.5572ca9dc6e88p+0")]),
    ("psystem", ("0x1.0000000000000p+0", "0x0.0p+0"),
     ("0x1.0147ae147ae14p+0", "-0x1.04aaf7cff72bdp-4"),
     [("0x1.0000000000000p+0", "0x0.0p+0"),
      ("0x1.f5e850d4690e6p-1", "-0x1.cf9e1bd7ffcc7p-6"),
      ("0x1.0147ae147ae14p+0", "-0x1.04aaf7cff72bdp-4")],
     [("shock", 0, "-0x1.6f7e811c20a7dp+0"),
      ("shock", 1, "0x1.6e208e2e62b9fp+0")]),
    ("linear2:1,0.5,0,2", ("0x0.0p+0", "0x1.0000000000000p+0"),
     ("0x1.0000000000000p-1", "-0x1.0000000000000p-2"),
     [("0x0.0p+0", "0x1.0000000000000p+0"),
      ("0x1.2000000000000p+0", "0x1.0000000000000p+0"),
      ("0x1.0000000000000p-1", "-0x1.0000000000000p-2")],
     [("contact", 0, "0x1.0000000000000p+0"),
      ("contact", 1, "0x1.0000000000000p+1")]),
]
# draw 35 of the gamma = 2, a = 2 survey (ROADMAP): a strong 1-shock and a
# strong 2-rarefaction, whose resolve stage diverges from the search
# strengths, so the solve falls back to the one-stage solve
FALLBACK_FAN = (
    "psystem", ("0x1.26c4e5b3e7d1cp-2", "-0x1.1f2e55c76d010p-4"),
    ("0x1.940d1af9d2c20p-4", "0x1.351ef919624e2p-1"),
    [("0x1.26c4e5b3e7d1cp-2", "-0x1.1f2e55c76d010p-4"),
     ("0x1.640adb795d307p-3", "-0x1.9e3eaad460052p+0"),
     ("0x1.940d1af9d2c20p-4", "0x1.351ef919624e2p-1")],
    [("shock", 0, "-0x1.b27d9d94bdea1p+3"),
     ("rarefaction", 1, ("0x1.3828f868be4b3p+4", "0x1.6d2a7e041e656p+5"))])
# sha256 of its 2-rarefaction's profile states and speeds
FALLBACK_PROFILE_DIGEST = "da6760e8cd5ad0dd"
# a default_rng(5) scale-1 draw on which a strength solve that started each
# jump from the previous evaluation's point stalled ("strength line search
# stalled"); with every jump continued from s = 0 it converges
STALLED_PAIR = (("0x1.44867d4b1ef78p-1", "-0x1.c01ff6d5b6f40p-6"),
                ("0x1.6763056049bccp+0", "-0x1.ecca2df35c2e4p-3"))
# draw 27 of the gamma = 1.4, a = 2 survey (ROADMAP): the RH chain converges
# to a root whose 1-jump moves at +0.906, while lambda_1(u-) = -0.516
OFF_FAMILY_PAIR = (("0x1.ff630a2716d72p+0", "-0x1.6c873cf36dd1cp-1"),
                   ("0x1.f45b216fba958p-2", "-0x1.2469fdc100db4p-2"))
# draw 13 of the gamma = 1.4, a = 2 survey and draw 10 of the gamma = 2 one
# (ROADMAP): a 1-rarefaction and a 2-shock, on which a strength solve that
# started each jump from the previous evaluation's point raised
# ContinuationFailure and NewtonDivergence
SURVEY_PAIRS = [
    (1.4, ("0x1.bfd73bfb69620p-4", "-0x1.dd21ec7602dd0p-1"),
     ("0x1.b118820e6209cp+0", "0x1.67f6e4d12bbd0p-3")),
    (2.0, ("0x1.0ef2a593913f0p-4", "-0x1.32699f8f4d402p-1"),
     ("0x1.620bbb09c49dep-1", "-0x1.fd689d5178ea0p-5")),
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
# pieces are the composition at the strengths of the split solve, and the
# merged ones the composition at the same strengths with the 2-wave dropped,
# so the two share their rarefaction pieces bit for bit.
PIECES_DATA = (("0x1.0000000000000p+0", "0x0.0p+0"),
               ("0x1.0d013a92a3055p+0", "0x1.1cff3113298c1p-4"))
NONPHYSICAL_PIECE = (
    "non-physical", None, ("0x1.0d013a92a3055p+0", "0x1.1cff3113298c1p-4"), "0x1.8000000000000p+1")
GOLDEN_RAREFACTION_PIECES = [
    ("rarefaction", 0, ("0x1.028ea6d52785dp+0", "0x1.cb7934c80e58dp-7"), "-0x1.675a1e7fecd07p+0"),
    ("rarefaction", 0, ("0x1.0523cf57b2727p+0", "0x1.ca52c10bcb31fp-6"), "-0x1.6208bed3b3193p+0"),
    ("rarefaction", 0, ("0x1.07bf78e32190cp+0", "0x1.56df13e600ee0p-5"), "-0x1.5ccba669ea2eep+0"),
    ("rarefaction", 0, ("0x1.0a61a227e43f0p+0", "0x1.c7fd48b16930dp-5"), "-0x1.57a2a905ec10dp+0"),
    ("rarefaction", 0, ("0x1.0d0a492a4568ap+0", "0x1.1c40f43c63450p-4"), "-0x1.528d99de124ffp+0"),
]
GOLDEN_PIECES_SPLIT = GOLDEN_RAREFACTION_PIECES + [
    ("rarefaction", 1, ("0x1.0d013a92a3057p+0", "0x1.1cff3113298bcp-4"), "0x1.50125f7632a4cp+0"),
]
GOLDEN_PIECES_MERGED = GOLDEN_RAREFACTION_PIECES + [NONPHYSICAL_PIECE]
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


def assert_same_composition(got, want):
    """Two (end state, waves) compositions are the same, byte for byte."""
    (state, waves), (want_state, want_waves) = got, want
    assert state.tobytes() == want_state.tobytes()
    assert len(waves) == len(want_waves)
    for w, v in zip(waves, want_waves):
        assert vars(w).keys() == vars(v).keys()
        for key, value in vars(w).items():
            assert np.array_equal(value, vars(v)[key])


def assert_golden_fan(name, ul, ur, states, waves):
    """The exact fan of (ul, ur) has the given states and waves, bit for
    bit, and returns it."""
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
    return fan


class TestGoldenFans:
    def test_fans_bit_identical(self):
        for entry in GOLDEN_FANS:
            assert_golden_fan(*entry)

    def test_resolve_failure_falls_back_to_one_stage_solve(self, monkeypatch):
        # the search converges, the resolve from its strengths diverges, and
        # the solve runs again at full resolution from the linear guess: the
        # fan of the one-stage solve, profile included, bit for bit
        outcomes = []

        def recorded(*args):
            try:
                result = _damped_newton(*args)
            except NewtonDivergence:
                outcomes.append("diverged")
                raise
            outcomes.append("converged")
            return result

        monkeypatch.setattr(riemann, "_damped_newton", recorded)
        fan = assert_golden_fan(*FALLBACK_FAN)
        assert outcomes == ["converged", "diverged", "converged"]
        h = hashlib.sha256()
        h.update(fan.waves[1].states.tobytes())
        h.update(fan.waves[1].speeds.tobytes())
        assert h.hexdigest()[:16] == FALLBACK_PROFILE_DIGEST
        # the waves of the one-stage solve, bit for bit up to the end
        # that the fan sets on u+
        ref = one_stage_waves(P_SYSTEM, fan.left, fan.right)
        assert [(w.kind, w.family) for w in fan.waves] == [(w.kind, w.family) for w in ref]
        for w, r in zip(fan.waves, ref):
            assert np.array_equal(w.u_l, r.u_l)
            assert (w.speed_l, w.speed_r) == (r.speed_l, r.speed_r)
        assert np.array_equal(fan.waves[1].states[:-1], ref[1].states[:-1])

    def test_stalled_pair_solves(self):
        ul, ur = unhex(STALLED_PAIR[0]), unhex(STALLED_PAIR[1])
        fan = solve_riemann(P_SYSTEM, ul, ur)
        assert [(w.kind, w.family) for w in fan.waves] == [("rarefaction", 0), ("shock", 1)]
        assert_chained(ul, [(w.u_l, w.u_r) for w in fan.waves])
        assert np.array_equal(fan.right, ur)

    @pytest.mark.parametrize("delta, n_pieces", [(0.1, 7), (0.02, 31), (0.005, 119)])
    def test_stalled_pair_splits_into_rh_exact_pieces(self, delta, n_pieces):
        # the split strength solve on the same pair runs once; its pieces
        # chain exactly from u-, end within the solve's acceptance of u+ and
        # are RH-exact
        ul, ur = unhex(STALLED_PAIR[0]), unhex(STALLED_PAIR[1])
        pieces = approximate_riemann_pieces(P_SYSTEM, ul, ur, delta,
                                            fields=_field_classes(P_SYSTEM, ul, ur))
        assert len(pieces) == n_pieces
        end = assert_chained(ul, [(p.u_l, p.u_r) for p in pieces])
        assert np.linalg.norm(end - ur) <= 10 * TOL_RP
        for p in pieces:
            tol = 1e-13 * (1.0 + np.linalg.norm(P_SYSTEM.f(p.u_l)))
            assert rh_residual(P_SYSTEM, p.u_l, p.u_r, p.speed) <= tol

    @pytest.mark.parametrize("gamma, ul, ur", SURVEY_PAIRS, ids=["gamma-1.4", "gamma-2"])
    def test_survey_pairs_solve(self, gamma, ul, ur):
        model = models.p_system(gamma=gamma)
        ul, ur = unhex(ul), unhex(ur)
        fan = solve_riemann(model, ul, ur)
        assert [(w.kind, w.family) for w in fan.waves] == [("rarefaction", 0), ("shock", 1)]
        assert_chained(ul, [(w.u_l, w.u_r) for w in fan.waves])
        assert np.array_equal(fan.right, ur)
        shock = fan.waves[1]
        assert rh_residual(model, shock.u_l, shock.u_r, shock.speed) <= 1e-11
        assert liu_admissible(model, shock.u_l, shock.u_r, 1).admissible

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
        # them with the step count that evaluation was given, byte for byte,
        # so no caller composes them again; the last of them is a
        # full-resolution one, and a composition at the same strengths with
        # no eigensystem or f given is the same, byte for byte.  With every
        # family one jump the solve is the RH chain, which composes nothing
        ul, ur = unhex(PIECES_DATA[0]), unhex(PIECES_DATA[1])
        fields = _field_classes(P_SYSTEM, ul, ur)
        if splits == [1, 1]:
            self.check_rh_chain(monkeypatch, ul, ur, fields)
            return
        given = []

        def recorded(model, u_minus, sigmas, fields, splits, es_minus, f_minus, n_steps):
            given.append((sigmas.copy(), es_minus, n_steps))
            return _compose(model, u_minus, sigmas, fields, splits, es_minus, f_minus,
                            n_steps)

        monkeypatch.setattr(riemann, "_compose", recorded)
        sig, state, waves = solve_strengths(P_SYSTEM, ul, ur, fields, splits)
        es_minus, n_steps = [(es, n) for s, es, n in given if np.array_equal(s, sig)][-1]
        assert n_steps == riemann.RAREFACTION_STEPS
        for want in (_compose(P_SYSTEM, ul, sig, fields, splits, es_minus, None, n_steps),
                     _compose(P_SYSTEM, ul, sig, fields, splits)):
            assert_same_composition((state, waves), want)

    @staticmethod
    def check_rh_chain(monkeypatch, ul, ur, fields):
        # the waves chain from u- to u+ exactly, with no snap, each RH-exact
        # to the chain's tolerance, at the strength that `_lax_step` would
        # measure in the frame at its left state
        def refused(*args, **kwargs):
            raise AssertionError("the RH chain composed its waves")

        monkeypatch.setattr(riemann, "_compose", refused)
        sig, state, waves = solve_strengths(P_SYSTEM, ul, ur, fields, [1, 1])
        assert [(w.kind, w.family) for w in waves] == [("rarefaction", 0),
                                                       ("rarefaction", 1)]
        assert np.array_equal(assert_chained(ul, [(w.u_l, w.u_r) for w in waves]), ur)
        assert np.array_equal(state, ur)
        tol = 1e-13 * (1.0 + np.linalg.norm(P_SYSTEM.f(ul)))
        for w, fc, sigma in zip(waves, fields, sig):
            assert rh_residual(P_SYSTEM, w.u_l, w.u_r, w.speed) <= tol
            assert sigma == fc.orientation * float(
                eigensystem(P_SYSTEM, w.u_l).left[w.family] @ (w.u_r - w.u_l))

    def test_rh_chain_refuses_a_root_off_its_family(self):
        # the chain's root has its 1-jump moving right of lambda_1 at both
        # of its ends; the chain refuses it, and the Broyden solve finds the
        # exact solver's 1-shock and 2-rarefaction
        model = models.p_system(gamma=1.4)
        ul, ur = unhex(OFF_FAMILY_PAIR[0]), unhex(OFF_FAMILY_PAIR[1])
        fields = _field_classes(model, ul, ur)
        with pytest.raises(NewtonDivergence, match="0-jump at speed 0.905665 is off"):
            riemann._rh_chain(model, ul, ur, fields, eigensystem(model, ul), model.f(ul))
        _, _, waves = solve_strengths(model, ul, ur, fields, [1, 1])
        kinds = [(w.kind, w.family) for w in waves]
        assert kinds == [("shock", 0), ("rarefaction", 1)]
        assert kinds == [(w.kind, w.family) for w in solve_riemann(model, ul, ur).waves]

    @pytest.mark.parametrize("family, s", [(0, -0.05), (1, 0.05)])
    def test_rh_chain_drops_a_family_below_the_floor(self, family, s):
        # u+ on the shock branch of one shock curve of u-: the other family's
        # jump comes out below STRENGTH_FLOOR and makes no wave, and the one
        # wave left runs from u- to u+ exactly
        ul = np.array([1.0, 0.0])
        ur = riemann.shock_curve(P_SYSTEM, ul, family, s, 5)[1][-1]
        fields = _field_classes(P_SYSTEM, ul, ur)
        sig, state, waves = riemann._rh_chain(P_SYSTEM, ul, ur, fields,
                                              eigensystem(P_SYSTEM, ul), P_SYSTEM.f(ul))
        assert abs(sig[1 - family]) < riemann.STRENGTH_FLOOR
        assert [(w.kind, w.family) for w in waves] == [("shock", family)]
        assert waves[0].u_l is ul and waves[0].u_r is ur and state is ur
        assert rh_residual(P_SYSTEM, ul, ur, waves[0].speed) <= 1e-12


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


class TestSolveSmall:
    """The float elimination that takes every linear step of the strength
    solve, against LAPACK."""

    @staticmethod
    def check(A, b):
        A, b = np.array(A, dtype=float), np.array(b, dtype=float)
        rows, rhs = A.tolist(), b.tolist()
        x = np.array(riemann._solve_small(rows, rhs))
        assert rows == A.tolist() and rhs == b.tolist()  # inputs untouched
        ref = np.linalg.solve(A, b)
        bound = 1e-13 * np.linalg.norm(A) * np.linalg.norm(x)
        assert np.linalg.norm(A @ x - b) <= bound
        assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.cond(A) * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_lapack(self, n):
        rng = np.random.default_rng(n)
        for _ in range(100):
            self.check(rng.standard_normal((n, n)), rng.standard_normal(n))

    def test_zero_leading_entry_swaps_rows(self):
        self.check([[0.0, 2.0, 1.0], [1.0, 1.0, 0.0], [3.0, 0.0, 1.0]], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("A", [[[1.0, 2.0], [2.0, 4.0]], np.zeros((3, 3))],
                             ids=["rank-1", "zero"])
    def test_singular_raises_like_lapack(self, A):
        A = np.array(A)
        b = np.ones(len(A))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(A, b)
        with pytest.raises(np.linalg.LinAlgError):
            riemann._solve_small(A.tolist(), b.tolist())

    def test_singular_rh_system(self):
        # a zero closure row leaves the bordered RH system singular
        u = np.array([1.0, 0.0])
        with pytest.raises(ContinuationFailure, match="singular RH system at s=0.01") as info:
            riemann._shock_point_newton(P_SYSTEM, u, P_SYSTEM.f(u), np.zeros(2), 0.01,
                                        u + 0.01, -1.0)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def _diag_model(flux, jac_scale):
    """A 2x2 model on the whole plane with speeds 1 and 2: its flux, and the
    Jacobian diag(1, 2) times jac_scale."""
    A = np.diag([1.0, 2.0])
    return models.FluxModel("diag", 2, flux=flux,
                            jacobian=lambda u: np.broadcast_to(jac_scale * A, u.shape + (2,)))


def _refuse_flux(u):
    raise AssertionError(f"f evaluated at {u}")


@pytest.mark.parametrize("model, u, start, lam, reason", [
    # a Jacobian three times too steep converges too slowly
    (_diag_model(lambda u: u * np.array([1.0, 2.0]), 3.0), [0.0, 0.0], [0.1, 0.05], 1.3,
     r"RH Newton stalled at s=0.1 \(\|F\|=6.09e-05\)"),
    # a NaN flux sends the step to NaN
    (_diag_model(lambda u: np.full(np.shape(u), np.nan), 0.5), [0.0, 0.0], [0.1, 0.0], 0.5,
     "RH Newton diverged at s=0.1"),
    # a start with v < 0 is refused before f is evaluated there
    (replace(P_SYSTEM, flux=lambda u: P_SYSTEM.flux(u) if u[0] > 0 else _refuse_flux(u)),
     [1.0, 0.0], [-0.5, 0.0], -1.0, "shock curve left the domain box at s=0.1"),
], ids=["stalled", "diverged", "outside-box"])
def test_rh_newton_failures(model, u, start, lam, reason):
    u = np.array(u)
    with pytest.raises(ContinuationFailure, match=reason):
        riemann._shock_point_newton(model, u, model.f(u), np.array([1.0, 0.0]), 0.1,
                                    np.array(start), lam)


LINEAR2 = models.model_from_name("linear2:1,0.5,0,2")


@pytest.mark.parametrize("model, ul, ur, error, reason", [
    # u+ outside the box: f is not evaluated there
    (P_SYSTEM, [1.0, 0.0], [-0.5, 0.0], ContinuationFailure,
     "RH chain ends outside the domain box"),
    # the linear guess for the middle state has v < 0
    (P_SYSTEM, [1.0, 0.0], [1.0, -3.0], ContinuationFailure,
     "RH chain left the domain box"),
    # one contact: the 2-jump of the linear guess is zero, and so is its
    # speed's column
    (LINEAR2, [0.0, 1.0], [0.3, 1.0], NewtonDivergence, "singular RH chain"),
    # a Jacobian five times too steep, started in another model's frame
    (_diag_model(lambda u: u * np.array([1.0, 2.0]), 5.0), [0.0, 0.0], [0.1, 0.05],
     NewtonDivergence, r"RH chain did not converge \(\|F\|=1.98e\+02\)"),
    # a NaN flux sends the step to NaN
    (_diag_model(lambda u: np.full(np.shape(u), np.nan), 3.0), [0.0, 0.0], [0.1, 0.05],
     NewtonDivergence, "RH chain diverged"),
], ids=["ends-outside-box", "left-box", "singular", "not-converged", "diverged"])
def test_rh_chain_failures(model, ul, ur, error, reason):
    # fields and the starting frame are LINEAR2's near the data for the
    # synthetic models, the p-system's near u- for the p-system
    ul, ur = np.array(ul), np.array(ur)
    frame_model = P_SYSTEM if model is P_SYSTEM else LINEAR2
    fields = _field_classes(frame_model, ul, ul + 0.01)
    with pytest.raises(error, match=reason):
        riemann._rh_chain(model, ul, ur, fields, eigensystem(frame_model, ul), model.f(ul))


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
       splits=st.sampled_from([None, [2, 3]]))
@example(v=1.0, u=0.0, a1=0.012, a2=-0.01, splits=[2, 3])
def test_broyden_solve_returns_the_composition_at_its_strengths(v, u, a1, a2, splits):
    # a Broyden evaluation keeps nothing from the one before, so the state
    # and waves of the strength solve are the composition at the strengths
    # it returns, byte for byte, and the state is within its acceptance of u+
    ul = np.array([v, u])
    ur = psystem_jump(ul, a1, a2)
    fields = _field_classes(P_SYSTEM, ul, ur)
    sig, state, waves = solve_strengths(P_SYSTEM, ul, ur, fields, splits)
    assert_same_composition((state, waves), _compose(P_SYSTEM, ul, sig, fields, splits))
    assert np.linalg.norm(state - ur) <= 10 * TOL_RP


@settings(max_examples=15, deadline=None, database=None)
@given(v=st.floats(0.9, 1.1), u=st.floats(-0.05, 0.05), a1=small, a2=small)
# a 1-shock of 2.3e-6 beside a 2-shock of 3.2e-3: the step after |F| <= 1e-13
# (1 + |f|) is what brings the weak jump's speed to roundoff
@example(v=1.0, u=0.0, a1=0.0, a2=0.0018726709848986191)
def test_rh_chain_matches_broyden(v, u, a1, a2):
    # the RH chain gives the waves of the Broyden solve over the composed
    # jumps that it replaces: the same kinds, states within 1e-11, and
    # speeds within 1e-11, or 1e-14 / |d| for a jump d below 1e-3: a
    # residual F of the RH conditions fixes the speed of a jump d only to
    # |F| / |d|, and the RH Newton takes a start as it is at |F| <= 1e-15
    # (1 + |f|), about 2.4e-15 here
    ul = np.array([v, u])
    ur = psystem_jump(ul, a1, a2)
    fields = _field_classes(P_SYSTEM, ul, ur)
    _, _, waves = solve_strengths(P_SYSTEM, ul, ur, fields, [1, 1])

    def refused(*args):
        raise NewtonDivergence("the Broyden solve is wanted")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(riemann, "_rh_chain", refused)
        _, _, broyden = solve_strengths(P_SYSTEM, ul, ur, fields, [1, 1])
    assert [(w.kind, w.family) for w in waves] == [(w.kind, w.family) for w in broyden]
    for w, b in zip(waves, broyden):
        assert np.max(np.abs(np.array([w.u_l, w.u_r]) - np.array([b.u_l, b.u_r]))) <= 1e-11
        bound = 1e-11 * max(1.0, 1e-3 / np.linalg.norm(b.u_r - b.u_l))
        assert abs(w.speed - b.speed) <= bound


def one_stage_waves(model, ul, ur):
    """The waves of the exact solver's strength solve run in one stage, at
    RAREFACTION_STEPS from the linear guess, as `solve_strengths` runs it
    where its two stages fail."""
    fields = _field_classes(model, ul, ur)
    es, f_minus = eigensystem(model, ul), model.f(ul)
    orient = np.array([fc.orientation for fc in fields])

    def G(s):
        state, waves = _compose(model, ul, s, fields, None, es, f_minus,
                                riemann.RAREFACTION_STEPS)
        return state - ur, waves

    return _damped_newton(G, orient * (es.left @ (ur - ul)), es.right.T * orient,
                          TOL_RP, 10 * TOL_RP, 40, NewtonDivergence, "strength")[1]


@pytest.mark.parametrize("model", [P_SYSTEM, models.normalize_speeds(P_SYSTEM, M=1.6)],
                         ids=["psystem", "normalised"])
def test_two_stage_solve_matches_one_stage(model):
    # the search on coarse rarefaction curves changes the cost, not the fan:
    # on random pairs near (1, 0) at three scales, the exact fan has the
    # one-stage solve's wave kinds, its states to 1e-11 and its speeds to
    # 1e-10 (measured over 520 pairs: 1.6e-12 and 3.2e-12), and every pair
    # that the one-stage solve solves is solved
    rng = np.random.default_rng(5)
    compared = 0
    for scale in (0.03, 0.3, 1.0):
        for _ in range(18):
            U = rng.uniform(-0.5, 0.5, 4)
            ul = np.array([1.0 + scale * U[0], scale * U[1]])
            ur = np.array([1.0 + scale * U[2], scale * U[3]])
            try:
                ref = one_stage_waves(model, ul, ur)
            except HyperlabError:
                continue
            fan = solve_riemann(model, ul, ur)
            assert [(w.kind, w.family) for w in fan.waves] == \
                [(w.kind, w.family) for w in ref]
            for w, r in zip(fan.waves, ref):
                assert np.max(np.abs(np.array([w.u_l, w.u_r]) - [r.u_l, r.u_r])) <= 1e-11
                assert max(abs(w.speed_l - r.speed_l), abs(w.speed_r - r.speed_r)) <= 1e-10
            compared += 1
    assert compared >= 50
