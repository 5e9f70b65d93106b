import hashlib
import heapq
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperlab import fronts, models, riemann
from hyperlab.errors import ConfigError, FrontExplosion, NewtonDivergence
from hyperlab.fronts import (Front, _meeting, _Ratio, _snapped,
                             approximate_riemann_pieces, front_tracking_run)
from hyperlab.piecewise import PiecewiseConstantFn
from hyperlab.riemann import evaluate_fan, rh_residual, solve_riemann
from hyperlab.schemes import SchemeConfig

BURGERS = models.burgers()
CUBIC = models.cubic_flux()
P_SYSTEM = models.p_system()
# two p-system Riemann data whose waves interact
INTERACTION = PiecewiseConstantFn(np.array([0.0, 0.3]),
                                  np.array([[1.0, 0.0], [1.04, 0.015], [1.0, 0.03]]))
INTERACTION_CFG = SchemeConfig(eps=1.0, T=1.0, domain=(-3.0, 3.0), delta=0.02)


def psystem_steps(n_jumps, a=0.01):
    """n_jumps p-system jumps 0.1 apart from (1, 0): each adds a r_1 and a r_2
    (r = (1, +-sqrt(2) v^-1.5)), with signs (+, +), (+, -), (-, +), (-, -)
    in turn, so shocks and rarefactions of both families interact.  The
    sizes a are one for all, or a pair (a_1, a_2) per jump."""
    sizes = np.broadcast_to(a, (n_jumps, 2))
    vals = [np.array([1.0, 0.0])]
    for j in range(n_jumps):
        u = vals[-1]
        c = np.sqrt(2.0) * u[0] ** -1.5
        s1, s2 = ((1, 1), (1, -1), (-1, 1), (-1, -1))[j % 4]
        a1, a2 = sizes[j]
        vals.append(u + s1 * a1 * np.array([1.0, c]) + s2 * a2 * np.array([1.0, -c]))
    return PiecewiseConstantFn(0.1 * np.arange(n_jumps), np.array(vals))


# 16 jumps shaped like the p-system front-tracking benchmark, sizes spread
# over [0.008, 0.012]: a run of 134 events
MANY_EVENT_RUN = (
    psystem_steps(16, 0.008 + 0.004 * ((np.arange(32) * 13) % 32 / 31).reshape(16, 2)),
    SchemeConfig(eps=1.0, T=1.0, domain=(-2.0, 3.5), delta=0.02, rho_np=1e-3))


def unhex(values):
    return np.array([float.fromhex(v) for v in values])


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def audit_rh(model, sol, tol=1e-9, include_np=False):
    worst = 0.0
    for ep in sol.epochs:
        for f in ep.fronts:
            if f.kind == "non-physical" and not include_np:
                continue
            worst = max(worst, rh_residual(model, f.u_l, f.u_r, f.speed))
    return worst


class TestScalarFronts:
    def test_single_shock_exact_forever(self):
        cfg = SchemeConfig(eps=1.0, T=4.0, domain=(-5.0, 5.0), delta=0.05)
        data = PiecewiseConstantFn.riemann([1.0], [0.0])
        sol = front_tracking_run(BURGERS, data, cfg)
        assert len(sol.events) == 0
        assert len(sol.epochs[0].fronts) == 1
        f = sol.epochs[0].fronts[0]
        assert f.speed == pytest.approx(0.5, abs=1e-12)
        pc = sol.state(4.0)
        assert pc.xs[0] == pytest.approx(2.0, abs=1e-12)

    def test_merging_shocks(self):
        # jumps 2/1/0 at x = 0, 1: speeds 1.5 and 0.5 collide at (t,x)=(1,1.5)
        cfg = SchemeConfig(eps=1.0, T=3.0, domain=(-5.0, 10.0), delta=0.05)
        data = PiecewiseConstantFn(np.array([0.0, 1.0]),
                                   np.array([[2.0], [1.0], [0.0]]))
        sol = front_tracking_run(BURGERS, data, cfg)
        assert len(sol.events) == 1
        ev = sol.events[0]
        assert ev["t"] == pytest.approx(1.0, abs=1e-12)
        assert ev["x"] == pytest.approx(1.5, abs=1e-12)
        after = sol.epochs[-1].fronts
        assert len(after) == 1
        assert after[0].speed == pytest.approx(1.0, abs=1e-12)

    def test_stacked_collision(self):
        # jumps 1.5/1/0.5/0 at x = 0, 0.5, 1: shocks at speeds 1.25, 0.75 and
        # 0.25 meet at (t, x) = (1, 1.25) in one three-front event
        cfg = SchemeConfig(eps=1.0, T=2.0, domain=(-1.0, 3.0), delta=0.05)
        data = PiecewiseConstantFn(np.array([0.0, 0.5, 1.0]),
                                   np.array([[1.5], [1.0], [0.5], [0.0]]))
        sol = front_tracking_run(BURGERS, data, cfg)
        assert sol.events == [{"t": 1.0, "x": 1.25, "in": 3, "out": 1,
                               "np_strength": 0.0}]
        (front,) = sol.epochs[-1].fronts
        assert (front.kind, front.speed) == ("shock", 0.75)
        assert (front.u_l[0], front.u_r[0]) == (1.5, 0.0)

    @pytest.mark.parametrize("xs, vals, T, points", [
        # shocks at speeds 1.75, 1.25, 0.75 and 0.25 meet at (1, 1.75)
        ([0.0, 0.5, 1.0, 1.5], [2.0, 1.5, 1.0, 0.5, 0.0], 2.0, [(1.0, 1.75, 4)]),
        # two pairs meet at t = 1, at x = 0 and x = 2; the merged shocks
        # (speeds 3 and 1) meet at (2, 3)
        ([-3.5, -2.5, 0.5, 1.5], [4.0, 3.0, 2.0, 1.0, 0.0], 3.0,
         [(1.0, 0.0, 2), (1.0, 2.0, 2), (2.0, 3.0, 2)]),
    ], ids=["four-at-one-point", "two-points-at-one-time"])
    def test_simultaneous_collisions(self, xs, vals, T, points):
        # one event per point, leftmost first, every front RH-exact and the
        # mass conserved
        cfg = SchemeConfig(eps=1.0, T=T, domain=(-6.0, 8.0), delta=0.05)
        data = PiecewiseConstantFn(np.array(xs), np.array(vals)[:, None])
        sol = front_tracking_run(BURGERS, data, cfg)
        assert [(e["t"], e["x"], e["in"], e["out"]) for e in sol.events] == \
            [(t, x, n, 1) for t, x, n in points]
        assert audit_rh(BURGERS, sol) <= 1e-9
        flux = BURGERS.f(np.array([vals[0]])) - BURGERS.f(np.array([vals[-1]]))
        for t in np.linspace(0.0, T, 9):
            drift = sol.state(t).integral(-5.0, 7.0) - sol.state(0.0).integral(-5.0, 7.0)
            assert np.max(np.abs(drift - t * flux)) <= 1e-9

    def test_birth_snapped_past_a_neighbour(self):
        # shocks at speeds 201.5 and 190.5 meet just after t = 1, a hair
        # before the shock at 202.5 behind them arrives.  The merged shock is
        # born at the event time rounded up, and from there its line meets
        # the shock at 202.5 about 3 ulp before the event: that pair meets
        # at the event time, so no epoch goes back in time
        data = PiecewiseConstantFn(
            np.array([-202.50000000000017, -201.5, -190.49999999999818]),
            np.array([[203.0], [202.0], [201.0], [180.0]]))
        cfg = SchemeConfig(eps=1.0, T=3.0, domain=(-300.0, 800.0), delta=100.0)
        sol = front_tracking_run(BURGERS, data, cfg)
        (t1, x1), (t2, x2) = [(e["t"], e["x"]) for e in sol.events]
        assert t1 == t2 == 1.0000000000001654 and x2 < x1
        assert audit_rh(BURGERS, sol) <= 1e-9
        assert [len(ep.fronts) for ep in sol.epochs] == [3, 2, 1]

    def test_equal_speed_fronts_keep_their_drawn_gap(self):
        # the cubic's rarefaction front 0.3 -> 0.4 born at t = 5/9 runs at
        # exactly the speed of the shock 0.4 -> 0.3 born at 4e-99, less than
        # an ulp to its right; drawn from their own birth points the two
        # would meet and part from one sample time to the next, and the TV
        # would jump by 0.2
        data = PiecewiseConstantFn(np.array([-0.5, 0.0, 4.063921156308546e-99, 1.0]),
                                   0.1 * np.array([[0.0], [-7.0], [4.0], [3.0], [0.0]]))
        cfg = SchemeConfig(eps=1.0, T=1.0, domain=(-5.0, 5.0), delta=0.1)
        sol = front_tracking_run(CUBIC, data, cfg)
        assert sol.events[0]["t"] == pytest.approx(5 / 9, abs=1e-15)
        rarefaction, shock = sol.epochs[1].fronts[-3:-1]
        assert (rarefaction.kind, shock.kind) == ("rarefaction", "shock")
        assert rarefaction.speed == shock.speed
        tv = [sol.state(t).tv() for t in np.linspace(0.0, 1.0, 21)]
        assert np.max(np.diff(tv)) <= 1e-12

    def test_fronts_persist_across_epochs(self):
        # a front is built once: the epochs after its birth hold the same
        # object, at its birth point and time
        sol = front_tracking_run(BURGERS, PiecewiseConstantFn(
            np.array([0.0, 0.3]), np.array([[0.0], [1.0], [0.0]])),
            SchemeConfig(eps=1.0, T=1.0, domain=(-1.0, 2.0), delta=0.1))
        assert len(sol.events) == 2
        built = {id(f) for ep in sol.epochs for f in ep.fronts}
        assert len(built) == len(sol.epochs[0].fronts) + 2
        before, after = sol.epochs[0].fronts, sol.epochs[1].fronts
        assert before[0] is after[0] and before[0].t0 == 0
        (merged,) = [f for f in after if id(f) not in {id(g) for g in before}]
        assert (merged.t0, merged.pos) == (sol.events[0]["t"], sol.events[0]["x"])

    def test_rarefaction_split_count_and_accuracy(self):
        cfg = SchemeConfig(eps=1.0, T=1.0, domain=(-2.0, 3.0), delta=0.05)
        data = PiecewiseConstantFn.riemann([0.0], [1.0])
        sol = front_tracking_run(BURGERS, data, cfg)
        fronts = sol.epochs[0].fronts
        assert len(fronts) == 20
        assert all(f.strength <= 0.05 + 1e-12 for f in fronts)
        fan = solve_riemann(BURGERS, [0.0], [1.0])
        pc = sol.state(1.0)
        xs = np.linspace(-1.5, 2.5, 2001)
        ref = np.array([evaluate_fan(fan, x)[0] for x in xs])
        err = np.trapezoid(np.abs(pc(xs)[:, 0] - ref), xs)
        C = err / 0.05
        assert C <= 2.0  # recorded constant: err <= C*delta

    def test_rh_audit(self):
        for data in [PiecewiseConstantFn.riemann([0.0], [1.0]),
                     PiecewiseConstantFn(np.array([0.0, 1.0]),
                                         np.array([[2.0], [1.0], [0.0]]))]:
            cfg = SchemeConfig(eps=1.0, T=2.0, domain=(-5.0, 8.0), delta=0.05)
            sol = front_tracking_run(BURGERS, data, cfg)
            assert audit_rh(BURGERS, sol) <= 1e-9

    def test_shock_rarefaction_interaction(self):
        # shock catches a rarefaction tail: multiple events, stays exact RH
        data = PiecewiseConstantFn(np.array([-1.0, 0.0]),
                                   np.array([[0.0], [1.0], [-0.2]]))
        cfg = SchemeConfig(eps=1.0, T=3.0, domain=(-6.0, 6.0), delta=0.1)
        sol = front_tracking_run(BURGERS, data, cfg)
        assert len(sol.events) >= 2
        assert audit_rh(BURGERS, sol) <= 1e-9
        # mass conserved exactly (all physical fronts RH-exact)
        a, b = -5.0, 5.0
        m0 = sol.state(0.0).integral(a, b)
        mT = sol.state(3.0).integral(a, b)
        flux = BURGERS.f(np.array([0.0])) - BURGERS.f(np.array([-0.2]))
        assert np.max(np.abs(mT - m0 - 3.0 * flux)) <= 1e-10

    def test_off_grid_data_kept_as_nodes(self):
        # the outer pieces end on the data values, the inner nodes are
        # 0.1 k, and every rarefaction front is at most delta strong
        pieces = approximate_riemann_pieces(BURGERS, np.array([0.013]),
                                            np.array([0.517]), 0.1)
        nodes = [p.u_l[0] for p in pieces] + [pieces[-1].u_r[0]]
        assert nodes == [0.013] + [0.1 * k for k in range(1, 6)] + [0.517]
        assert {p.kind for p in pieces} == {"rarefaction"}
        assert max(abs(p.u_r[0] - p.u_l[0]) for p in pieces) <= 0.1 + 1e-12
        data = PiecewiseConstantFn.riemann([0.013], [0.517])
        cfg = SchemeConfig(eps=1.0, T=1.0, domain=(-1.0, 2.0), delta=0.1)
        state = front_tracking_run(BURGERS, data, cfg).state(0.0)
        assert np.array_equal(state.vals[[0, -1]], data.vals)

    def test_shock_chord_over_the_grid(self):
        # the cubic's convex envelope from -1 to 1 is a shock chord to the
        # grid state 0.5 (where the chord touches f), then rarefaction fronts
        pieces = approximate_riemann_pieces(CUBIC, np.array([-1.0]),
                                            np.array([1.0]), 0.1)
        assert [p.kind for p in pieces] == ["shock"] + ["rarefaction"] * 5
        assert (pieces[0].u_r[0], pieces[0].speed) == (0.5, 0.75)
        for p in pieces:
            assert rh_residual(CUBIC, p.u_l, p.u_r, p.speed) <= 1e-15


GRID_STATES = st.lists(st.integers(-10, 10), min_size=5, max_size=5)
JUMPS = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4,
                 unique=True).map(sorted)


def fronts_tv(run, t):
    """Total variation of a run at t, summed over its epoch's fronts: a
    front drawn on a neighbour less than an ulp away still counts."""
    return sum(float(np.abs(f.u_r - f.u_l).sum()) for f in run.epoch_at(t).fronts)


@pytest.mark.parametrize("model", [BURGERS, CUBIC], ids=["burgers", "cubic"])
@settings(max_examples=20, deadline=None, database=None)
@given(ku=GRID_STATES, kv=GRID_STATES, xu=JUMPS, xv=JUMPS)
# a sliver of state 0 narrower than an ulp at x = 0, which the drawn profile
# shows at some sample times and hides at others (its drawn TV rose by 0.2)
@example(ku=[5, 0, 0, 0, 0], kv=[5, -6, 0, 5, 0], xu=[0.0, 0.25, 0.5, 1.0],
         xv=[-1.2881206512644892e-19, 0.0, 1.1754943508222875e-38, 1.0])
def test_grid_data_runs_contract(model, ku, kv, xu, xv):
    # data on the grid 0.1 Z with shared far fields: both runs are exact
    # entropy solutions of one polygonal-flux problem, so (Kruzkov) their
    # L1 distance and each run's TV never rise, and every front is RH-exact
    kv[0], kv[-1] = ku[0], ku[-1]
    cfg = SchemeConfig(eps=1.0, T=1.0, domain=(-5.0, 5.0), delta=0.1)
    u, v = (front_tracking_run(model, PiecewiseConstantFn(
                np.array(xs), 0.1 * np.array(ks, dtype=float)[:, None]), cfg)
            for xs, ks in ((xu, ku), (xv, kv)))
    times = np.linspace(0.0, 1.0, 21)
    l1 = [u.state(t).l1_distance(v.state(t), -5.0, 5.0) for t in times]
    assert np.max(np.diff(l1)) <= 1e-12
    for run in (u, v):
        assert np.max(np.diff([fronts_tv(run, t) for t in times])) <= 1e-12
        assert audit_rh(model, run) <= 1e-9


def front(pos, speed, t0=0.0):
    return Front("shock", 0, np.zeros(1), np.ones(1), speed, pos=pos, t0=t0)


def reference_meeting(a, b, now, T):
    """The meeting time and point of fronts a and b on Fractions, cut at
    now and T as the heap cuts them; None where they do not meet."""
    if a.speed <= b.speed:
        return None
    va, vb = Fraction(a.speed), Fraction(b.speed)
    t = max(now, (Fraction(b.pos) - Fraction(a.pos) + va * Fraction(a.t0)
                  - vb * Fraction(b.t0)) / (va - vb))
    return (t, Fraction(a.pos) + va * (t - Fraction(a.t0))) if t < T else None


# floats of every exponent up to 1e100, subnormals included: the meeting
# times and points then stay finite
FLOATS = st.floats(-1e100, 1e100, allow_subnormal=True)


@settings(max_examples=300, deadline=None, database=None)
@given(pa=FLOATS, pb=FLOATS, va=FLOATS, vb=FLOATS, ta=FLOATS, tb=FLOATS,
       now=FLOATS, T=FLOATS)
@example(pa=0.0, pb=5e-324, va=5e-324, vb=-5e-324, ta=0.0, tb=1.0, now=0.0, T=1.0)
def test_meeting_matches_fractions(pa, pb, va, vb, ta, tb, now, T):
    # the heap key is the exact time and point with their correctly rounded
    # floats, cut where the Fraction reference cuts, and a front's snapped
    # point at that time is the rounded exact one
    a, b = front(pa, va, ta), front(pb, vb, tb)
    now_r, T_r = (_Ratio(*float(v).as_integer_ratio()) for v in (now, T))
    key = _meeting(a, b, now_r, T_r)
    want = reference_meeting(a, b, Fraction(now), Fraction(T))
    assert (key is None) == (want is None)
    if key is not None:
        t, t_exact, x, x_exact = key
        assert Fraction(t_exact.num, t_exact.den) == want[0] and t == float(want[0])
        assert Fraction(x_exact.num, x_exact.den) == want[1] and x == float(want[1])
        for f in (a, b):
            assert _snapped(f, t_exact) == float(
                Fraction(f.pos) + Fraction(f.speed) * (want[0] - Fraction(f.t0)))


def pop_order(pairs, key):
    heap = []
    for serial, (a, b) in enumerate(pairs):
        heapq.heappush(heap, key(_meeting(a, b, _Ratio(0, 1), _Ratio(2, 1)), serial))
    return [heapq.heappop(heap)[-1] for _ in pairs]


def exact_key(meeting, serial):
    return (*meeting, serial)


def float_key(meeting, serial):
    return meeting[0], meeting[2], serial


@pytest.mark.parametrize("pairs", [
    # times 1 + (4/5) 2^-52 and 1 + (2/3) 2^-52, both drawn 1 + 2^-52; the
    # later one meets left of the earlier one
    [(front(-10.0, 3.0), front(-5.0 + 2.0 ** -50, -2.0)),
     (front(0.0, 2.0), front(3.0 + 2.0 ** -51, -1.0))],
    # one time, 1 + (2/3) 2^-52; points 2 + 2^-51 and 2 + (2/3) 2^-51, both
    # drawn 2 + 2^-51
    [(front(-1.0, 3.0), front(2.0 + 2.0 ** -51, 0.0)),
     (front(0.0, 2.0), front(3.0 + 2.0 ** -51, -1.0))],
], ids=["float-times-tie", "float-points-tie"])
def test_float_ties_pop_in_exact_order(pairs):
    # the two meetings' float keys are equal, so the pair pushed second must
    # pop first on the exact time, then the exact point; floats alone give
    # the other order
    (t0, exact_t0, x0, exact_x0), (t1, exact_t1, x1, exact_x1) = (
        _meeting(a, b, _Ratio(0, 1), _Ratio(2, 1)) for a, b in pairs)
    assert t0 == t1 and x0 <= x1 and (exact_t1, exact_x1) < (exact_t0, exact_x0)
    assert pop_order(pairs, exact_key) == [1, 0]
    assert pop_order(pairs, float_key) == [0, 1]


def test_float_tied_events_run_in_exact_order():
    # Burgers shocks at speeds 3, -2, -4.5 and -7.5: the left pair meets at
    # 1 + (4/5) 2^-52, the right pair at 1 + (2/3) 2^-52, both drawn
    # 1 + 2^-52; the right pair's event comes first, as on exact times
    xs = np.array([-8.0, -3.0 + 2.0 ** -50, 0.5, 3.5 + 2.0 ** -51])
    data = PiecewiseConstantFn(xs, np.array([[6.0], [0.0], [-4.0], [-5.0], [-10.0]]))
    cfg = SchemeConfig(eps=1.0, T=1.5, domain=(-20.0, 20.0), delta=1.0)
    sol = front_tracking_run(BURGERS, data, cfg)
    assert [(e["t"], e["x"], e["in"]) for e in sol.events[:2]] == [
        (1.0 + 2.0 ** -52, -4.000000000000001, 2), (1.0 + 2.0 ** -52, -4.999999999999999, 2)]


def test_datum_at_negative_zero_is_drawn_at_zero():
    sol = front_tracking_run(BURGERS, PiecewiseConstantFn(
        np.array([-0.0]), np.array([[1.0], [0.0]])),
        SchemeConfig(eps=1.0, T=1.0, domain=(-1.0, 2.0), delta=0.1))
    assert not np.signbit(sol.epochs[0].xs).any()
    assert math.copysign(1.0, sol.epochs[0].fronts[0].pos) == 1.0


class TestSystemFronts:
    def test_psystem_two_wave_data(self):
        m = models.p_system()
        data = PiecewiseConstantFn.riemann([1.0, 0.0], [1.05, 0.02])
        cfg = SchemeConfig(eps=1.0, T=0.5, domain=(-2.0, 2.0), delta=0.01)
        sol = front_tracking_run(m, data, cfg)
        assert audit_rh(m, sol) <= 1e-9
        kinds = {f.kind for f in sol.epochs[0].fronts}
        assert kinds <= {"shock", "rarefaction", "contact"}

    def test_psystem_interaction_rh_exact(self):
        sol = front_tracking_run(P_SYSTEM, INTERACTION, INTERACTION_CFG)
        assert len(sol.events) >= 1
        assert audit_rh(P_SYSTEM, sol) <= 1e-9
        assert sol.total_nonphysical_strength() == 0.0

    def test_psystem_interaction_linear_solves(self, monkeypatch):
        # every single linear system of the run, a Broyden or RH Newton step
        # of riemann, is made by its float elimination, never by LAPACK;
        # LAPACK solves only the stacks of the RH chain over rows, one call
        # per Newton step of a batch (here 6 steps over 9 rows).  Each
        # Broyden evaluation continues its shock points from the previous
        # one's: the run took 234 solves when every evaluation started them
        # from s = 0
        small, stacked, lapack = riemann._solve_small, riemann._solve_stacked, np.linalg.solve
        calls = {"small": 0, "stacked": 0, "lapack": 0}

        def counted_small(a, b):
            calls["small"] += 1
            return small(a, b)

        def counted_stacked(A, b):
            calls["stacked"] += 1
            return stacked(A, b)

        def stacks_only(a, b):
            assert np.ndim(a) == 3, "np.linalg.solve called on a single system"
            calls["lapack"] += 1
            return lapack(a, b)

        monkeypatch.setattr(riemann, "_solve_small", counted_small)
        monkeypatch.setattr(riemann, "_solve_stacked", counted_stacked)
        monkeypatch.setattr(np.linalg, "solve", stacks_only)
        front_tracking_run(P_SYSTEM, INTERACTION, INTERACTION_CFG)
        assert calls["lapack"] == calls["stacked"] <= 6
        assert calls["small"] <= 154

    def test_psystem_interaction_flux_calls(self, monkeypatch):
        # each strength solve takes f at u- once for all its Broyden
        # evaluations; the run took 241 flux calls when every evaluation
        # took it again
        f, calls = models.FluxModel.f, []

        def counted(model, u):
            calls.append(1)
            return f(model, u)

        monkeypatch.setattr(models.FluxModel, "f", counted)
        front_tracking_run(P_SYSTEM, INTERACTION, INTERACTION_CFG)
        assert len(calls) <= 217

    @pytest.mark.parametrize("data, cfg", [
        (INTERACTION, INTERACTION_CFG),
        # here 80 of the 192 fronts differ from LAPACK's in their last bits
        (psystem_steps(6), SchemeConfig(eps=1.0, T=1.0, domain=(-2.0, 3.5),
                                        delta=0.02, rho_np=1e-3)),
    ], ids=["interaction", "six-jumps"])
    def test_float_elimination_matches_lapack_run(self, monkeypatch, data, cfg):
        # the linear steps on floats round differently from LAPACK; the run
        # they give makes the same events and fronts, within 1e-14
        ours = front_tracking_run(P_SYSTEM, data, cfg)
        monkeypatch.setattr(riemann, "_solve_small", np.linalg.solve)
        lapack = front_tracking_run(P_SYSTEM, data, cfg)
        assert len(ours.events) == len(lapack.events) >= 1
        assert ([(e["in"], e["out"]) for e in ours.events]
                == [(e["in"], e["out"]) for e in lapack.events])
        for a, b in zip(ours.events, lapack.events):
            assert abs(a["t"] - b["t"]) <= 1e-14 and abs(a["x"] - b["x"]) <= 1e-14
        assert [len(ep.fronts) for ep in ours.epochs] == [len(ep.fronts) for ep in lapack.epochs]
        for ep_a, ep_b in zip(ours.epochs, lapack.epochs):
            for f, g in zip(ep_a.fronts, ep_b.fronts):
                assert (f.kind, f.family) == (g.kind, g.family)
                assert abs(f.speed - g.speed) <= 1e-14
                assert np.max(np.abs(f.u_l - g.u_l)) <= 1e-14
                assert np.max(np.abs(f.u_r - g.u_r)) <= 1e-14

    def test_many_event_run_pinned(self):
        # every one of the 134 events pinned bit for bit by the sha256 of its
        # t, x, in and out, and the final drawing
        # (re-pinned when the RH chain went over rows and LAPACK: t moved by
        # at most 1.7e-16, x by 2.2e-16, the states by 3.5e-18)
        data, cfg = MANY_EVENT_RUN
        sol = front_tracking_run(P_SYSTEM, data, cfg)
        events = np.array([[e["t"], e["x"], e["in"], e["out"]] for e in sol.events])
        final = sol.state(cfg.T)
        assert (len(sol.events), final.xs.size) == (134, 34)
        assert (digest(events), digest(final.xs, final.vals)) == \
            ("bdf414f215efbb08", "185aa8f0967eee20")

    def test_batched_run_equals_rows_solved_alone(self, monkeypatch):
        # the run above solves its pending pairs as rows of one RH chain; the
        # same run with every pair solved alone, one row a call, is the same
        # bit for bit: its events, and every epoch's drawing and fronts
        data, cfg = MANY_EVENT_RUN
        chain, sizes_seen = fronts._rh_chain, []

        def recorded(model, u_minus, u_plus, fields):
            sizes_seen.append(len(u_minus))
            return chain(model, u_minus, u_plus, fields)

        def alone(model, u_minus, u_plus, fields):
            return [chain(model, [a], [b], fields)[0] for a, b in zip(u_minus, u_plus)]

        monkeypatch.setattr(fronts, "_rh_chain", recorded)
        batched = front_tracking_run(P_SYSTEM, data, cfg)
        assert max(sizes_seen) >= 5
        monkeypatch.setattr(fronts, "_rh_chain", alone)
        single = front_tracking_run(P_SYSTEM, data, cfg)
        assert batched.events == single.events
        assert len(batched.epochs) == len(single.epochs)
        for a, b in zip(batched.epochs, single.epochs):
            assert a.t == b.t and a.xs.tobytes() == b.xs.tobytes()
            assert a.speeds.tobytes() == b.speeds.tobytes()
            assert [(f.kind, f.family, f.pos, f.t0, f.u_l.tobytes(), f.u_r.tobytes())
                    for f in a.fronts] == \
                [(f.kind, f.family, f.pos, f.t0, f.u_l.tobytes(), f.u_r.tobytes())
                 for f in b.fronts]

    def test_stale_pair_whose_solve_fails_does_not_stop_the_run(self):
        # two 2-shocks 0.003 apart, the left one faster, and a 1-shock: the
        # 2-shock on the right meets the 1-shock first, and the event's chain
        # also solves the pending pair of the two 2-shocks, which that event
        # makes stale.  A failed solve injected there (the chain refuses the
        # row and Broyden raises) is never taken up, and the run is the
        # run without it; injected into the pair of the first event, it
        # stops the run
        u = [np.array([1.0, 0.0]),
             unhex(["0x1.0476767333f8fp+0", "-0x1.8eba2c5b927dap-6"]),
             unhex(["0x1.05f834946bbb0p+0", "-0x1.0985af9bfa528p-5"]),
             unhex(["0x1.02f5619dfb67bp+0", "-0x1.8e4d662d2b5d1p-5"])]
        data = PiecewiseConstantFn(np.array([0.0, 0.003, 0.1]), np.array(u))
        cfg = SchemeConfig(eps=1.0, T=1.0, domain=(-2.0, 3.0), delta=0.02)
        clean = front_tracking_run(P_SYSTEM, data, cfg)
        assert [(e["in"], e["out"]) for e in clean.events] == [(2, 2)] * 3
        chain, broyden = fronts._rh_chain, riemann._broyden_strengths

        def run_failing(u_l, u_r):
            failing, seen = (u_l.tobytes(), u_r.tobytes()), []

            def refused(model, u_minus, u_plus, fields):
                rows = chain(model, u_minus, u_plus, fields)
                for k, (a, b) in enumerate(zip(u_minus, u_plus)):
                    if (a.tobytes(), b.tobytes()) == failing:
                        seen.append(len(rows))
                        rows[k] = NewtonDivergence("refused by the test")
                return rows

            def failed(model, u_minus, u_plus, fields, splits):
                if (u_minus.tobytes(), u_plus.tobytes()) == failing:
                    raise NewtonDivergence("failed by the test")
                return broyden(model, u_minus, u_plus, fields, splits)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fronts, "_rh_chain", refused)
                mp.setattr(riemann, "_broyden_strengths", failed)
                return front_tracking_run(P_SYSTEM, data, cfg), seen

        sol, seen = run_failing(u[0], u[2])  # the pair of the two 2-shocks
        assert seen == [2]  # solved ahead, in the first event's chain
        assert sol.events == clean.events
        assert [ep.xs.tobytes() for ep in sol.epochs] == [ep.xs.tobytes() for ep in clean.epochs]
        with pytest.raises(NewtonDivergence, match="failed by the test"):
            run_failing(u[1], u[3])  # the pair of the first event

    def test_nonphysical_merging_budget(self):
        m = models.p_system()
        data = PiecewiseConstantFn(np.array([0.0, 0.3]),
                                   np.array([[1.0, 0.0], [1.04, 0.015], [1.0, 0.03]]))
        cfg = SchemeConfig(eps=1.0, T=1.0, domain=(-3.0, 3.0), delta=0.02,
                           rho_np=5e-3)
        sol = front_tracking_run(m, data, cfg)
        nps = [f for ep in sol.epochs for f in ep.fronts
               if f.kind == "non-physical"]
        if nps:  # budget: total strength bounded by rho_np x interactions
            assert sol.np_total <= cfg.rho_np * max(1, len(sol.events))
        # physical fronts still exact
        assert audit_rh(m, sol) <= 1e-9

    def test_mass_conservation_exact(self):
        m = models.p_system()
        data = PiecewiseConstantFn.riemann([1.0, 0.0], [1.05, 0.02])
        cfg = SchemeConfig(eps=1.0, T=1.0, domain=(-3.0, 3.0), delta=0.01)
        sol = front_tracking_run(m, data, cfg)
        a, b = -2.5, 2.5
        m0 = sol.state(0.0).integral(a, b)
        mT = sol.state(1.0).integral(a, b)
        flux = m.f(np.array([1.0, 0.0])) - m.f(np.array([1.05, 0.02]))
        assert np.max(np.abs(mT - m0 - 1.0 * flux)) <= 1e-9

    def test_large_shock_reached_in_substeps(self):
        # isothermal gas: the 1-shock of strength 3 from (1, 0) is too far
        # for one Newton from the linear guess; it is continued in halved
        # steps, as along shock_curve
        m = models.p_system(1.0, 1.0)
        data = PiecewiseConstantFn.riemann([1.0, 0.0], [0.07725323, -3.31989392])
        cfg = SchemeConfig(eps=1.0, T=0.2, domain=(-3.0, 3.0), delta=0.1)
        sol = front_tracking_run(m, data, cfg)
        assert sol.epochs[0].fronts[0].kind == "shock"
        assert audit_rh(m, sol) <= 1e-9


class TestGuards:
    def test_front_cap(self):
        cfg = SchemeConfig(eps=1.0, T=1.0, domain=(-2.0, 3.0), delta=0.001,
                           front_cap=100)
        data = PiecewiseConstantFn.riemann([0.0], [1.0])
        with pytest.raises(FrontExplosion):
            front_tracking_run(BURGERS, data, cfg)

    def test_event_cap(self):
        # 41 right-moving contacts left of 41 left-moving ones, all at distinct
        # points: 82 fronts that meet in 41 * 41 = 1681 events, one more than
        # the 20 * 84 the cap allows
        m = models.linear_system(0, 1, 1, 0)  # speeds -1 and +1, r = (1, -+1)
        rng = np.random.default_rng(1)
        xs = np.concatenate([np.sort(rng.uniform(-2.0, -1.0, 41)),
                             np.sort(rng.uniform(1.0, 2.0, 41))])
        steps = np.repeat([[0.01, 0.01], [0.01, -0.01]], 41, axis=0)
        data = PiecewiseConstantFn(xs, np.cumsum(np.vstack([[0.0, 0.0], steps]), axis=0))
        cfg = SchemeConfig(eps=1.0, T=3.0, domain=(-3.0, 3.0), front_cap=84)
        with pytest.raises(FrontExplosion, match="event count exceeds 1680"):
            front_tracking_run(m, data, cfg)

    @pytest.mark.parametrize("model", [BURGERS, models.p_system()],
                             ids=["burgers", "psystem"])
    @pytest.mark.parametrize("delta", [0.0, float("nan"), -0.05])
    def test_delta_must_be_positive(self, model, delta):
        data = PiecewiseConstantFn.riemann([0.0] * model.n, [1.0] * model.n)
        with pytest.raises(ConfigError, match="delta > 0"):
            front_tracking_run(model, data, SchemeConfig(
                eps=1.0, T=1.0, domain=(-1.0, 2.0), delta=delta))

    def test_callable_data_refused(self):
        cfg = SchemeConfig(eps=1.0, T=1.0, domain=(-1.0, 2.0), delta=0.1)
        with pytest.raises(ConfigError, match="PiecewiseConstantFn data"):
            front_tracking_run(BURGERS, lambda x: np.array([np.sin(x)]), cfg)

    def test_deterministic(self):
        data = PiecewiseConstantFn(np.array([-1.0, 0.0]),
                                   np.array([[0.0], [1.0], [-0.2]]))
        cfg = SchemeConfig(eps=1.0, T=3.0, domain=(-6.0, 6.0), delta=0.1)
        a = front_tracking_run(BURGERS, data, cfg)
        b = front_tracking_run(BURGERS, data, cfg)
        assert [e["t"] for e in a.events] == [e["t"] for e in b.events]
        pa, pb = a.state(3.0), b.state(3.0)
        assert np.array_equal(pa.xs, pb.xs) and np.array_equal(pa.vals, pb.vals)
