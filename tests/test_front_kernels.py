"""The straight-front profile and kink kernels shared by Riemann fans
(`FanView`) and front tracking (`FrontTrackingSolution`, `FrontTrackingView`).

The golden values are sha256 digests of the float64 bytes of the profiles
and kink times, so they pin the output bit for bit.
"""

import hashlib

import numpy as np
import pytest

from hyperlab import models
from hyperlab.errors import ConfigError
from hyperlab.fronts import approximate_riemann_pieces, front_tracking_run
from hyperlab.piecewise import PiecewiseConstantFn
from hyperlab.riemann import solve_riemann
from hyperlab.schemes import SchemeConfig
from hyperlab.verify import FanView, FrontTrackingView

BURGERS = models.burgers()
P_SYSTEM = models.p_system()
EDGES = [-0.5, -0.1, 0.25, 0.3, 0.7, 1.2]


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def cubic_fan():
    # a shock from -1 to 1/2 with a rarefaction attached on its right
    return solve_riemann(models.cubic_flux(), [-1.0], [1.0])


def psystem_fan():
    # a 1-rarefaction and a 2-shock
    return solve_riemann(P_SYSTEM, [1.0, 0.0],
                         [float.fromhex("0x1.0cccccccccccdp+0"),
                          float.fromhex("0x1.cf68d4fff04dcp-7")])


def pulse_run():
    # a rarefaction fan catching up with a shock: two front interactions
    data = PiecewiseConstantFn(np.array([0.0, 0.3]), np.array([[0.0], [1.0], [0.0]]))
    cfg = SchemeConfig(eps=1.0, T=1.0, domain=(-1.0, 2.0), delta=0.1)
    return front_tracking_run(BURGERS, data, cfg)


# (fan, t) -> (breakpoints, digest of xs and vals) for a view at (t0, x0) =
# (0.1, 0.2): before t0, at t0 (the Riemann step) and later
FAN_PROFILES = {
    ("cubic", 0.05): (1, "ac12a5cea5692821"),
    ("cubic", 0.1): (1, "ac12a5cea5692821"),
    ("cubic", 0.6): (1127, "e2b277eea384bfe9"),
    ("psystem", 0.05): (1, "2eca68dfee3924c7"),
    ("psystem", 0.1): (1, "2eca68dfee3924c7"),
    ("psystem", 0.6): (33, "536f0ba7ec7f49a0"),
}
FANS = {"cubic": cubic_fan, "psystem": psystem_fan}


@pytest.mark.parametrize("name, t", sorted(FAN_PROFILES))
def test_fan_view_profiles_bit_identical(name, t):
    view = FanView(FANS[name](), x0=0.2, t0=0.1, t_span=(0.1, 1.0),
                   x_span=(-1.0, 2.0))
    pc = view.state(t)
    assert (pc.xs.size, digest(pc.xs, pc.vals)) == FAN_PROFILES[name, t]


def test_fan_view_kink_times_bit_identical():
    # only the shock line and the two rarefaction edges are kinks
    view = FanView(cubic_fan(), x0=0.2, t0=0.1, t_span=(0.1, 1.0),
                   x_span=(-1.0, 2.0))
    kinks = view.kink_times(0.0, 1.0, EDGES)
    assert (len(kinks), digest(kinks)) == (10, "16d6c10f748af021")


# the pulse run's kink times and front positions when every front was
# re-snapped at every event; a front now keeps its birth point, which moves
# some of them by 1 ulp
RESNAPPED_KINKS = [
    "0x1.0d79435e50d79p-2", "0x1.2d2d2d2d2d2d4p-2", "0x1.435e50d79435ep-2",
    "0x1.5555555555553p-2", "0x1.6969696969697p-2", "0x1.89d89d89d89d7p-2",
    "0x1.9999999999996p-2", "0x1.d1745d1745d17p-2", "0x1.d89d89d89d89cp-2",
    "0x1.1745d1745d174p-1", "0x1.1c71c71c71c72p-1", "0x1.5555555555556p-1",
    "0x1.6db6db6db6db5p-1", "0x1.a12f684bda130p-1", "0x1.a5a5a5a5a5a5bp-1",
    "0x1.aaaaaaaaaaaacp-1", "0x1.b6db6db6db6d9p-1", "0x1.ddddddddddddap-1"]
RESNAPPED_XS = [  # at the first event, and halfway to the second
    ["0x1.1111111111112p-5", "0x1.999999999999bp-4", "0x1.5555555555556p-3",
     "0x1.ddddddddddde1p-3", "0x1.3333333333333p-2", "0x1.7777777777778p-2",
     "0x1.bbbbbbbbbbbbep-2", "0x1.0000000000002p-1", "0x1.2222222222222p-1",
     "0x1.4444444444444p-1"],
    ["0x1.3333333333334p-5", "0x1.ccccccccccccfp-4", "0x1.8000000000001p-3",
     "0x1.0cccccccccccfp-2", "0x1.599999999999ap-2", "0x1.a666666666667p-2",
     "0x1.f333333333336p-2", "0x1.2000000000002p-1", "0x1.4666666666666p-1",
     "0x1.5777777777777p-1"]]
ULP_2 = 4.5e-16  # 2 ulp at 1


def unhex(values):
    return np.array([float.fromhex(v) for v in values])


def test_front_tracking_view_kink_times_bit_identical():
    view = FrontTrackingView(pulse_run(), (-1.0, 2.0))
    kinks = view.kink_times(0.0, 1.0, EDGES)
    assert (len(kinks), digest(kinks)) == (18, "9803e5cd95439d33")
    assert np.max(np.abs(np.array(kinks) - unhex(RESNAPPED_KINKS))) <= ULP_2


def test_front_tracking_state_bit_identical():
    sol = pulse_run()
    t_event = sol.events[0]["t"]
    t_between = 0.5 * (sol.events[0]["t"] + sol.events[1]["t"])
    states = (sol.state(t_event), sol.state(t_between))
    got = [(pc.xs.size, digest(pc.xs, pc.vals)) for pc in states]
    assert got == [(10, "66a5d28bd5e9a4ae"), (10, "03638c22ec1abadb")]
    for pc, xs in zip(states, RESNAPPED_XS):
        assert np.max(np.abs(pc.xs - unhex(xs))) <= ULP_2


def psystem_jumps(n_jumps, a=0.01):
    """n_jumps p-system jumps 0.1 apart from (1, 0), each a r_1 and a r_2
    step of size a with signs (+, +), (+, -), (-, +), (-, -) in turn."""
    vals = [np.array([1.0, 0.0])]
    for j in range(n_jumps):
        u = vals[-1]
        c = np.sqrt(2.0) * u[0] ** -1.5
        s1, s2 = ((1, 1), (1, -1), (-1, 1), (-1, -1))[j % 4]
        vals.append(u + s1 * a * np.array([1.0, c]) + s2 * a * np.array([1.0, -c]))
    return PiecewiseConstantFn(0.1 * np.arange(n_jumps), np.array(vals))


# (model, data, cfg) of runs whose drawing is pinned at 21 times over [0, 1]
DRAWN_RUNS = {
    # the cubic run in which a rarefaction front and a shock of equal speed
    # are drawn less than an ulp apart
    "cubic-equal-speed": (
        models.cubic_flux(),
        PiecewiseConstantFn(np.array([-0.5, 0.0, 4.063921156308546e-99, 1.0]),
                            0.1 * np.array([[0.0], [-7.0], [4.0], [3.0], [0.0]])),
        SchemeConfig(eps=1.0, T=1.0, domain=(-5.0, 5.0), delta=0.1)),
    # four jumps whose rarefactions are split into jumps of at most delta
    "psystem-split": (
        P_SYSTEM, psystem_jumps(4),
        SchemeConfig(eps=1.0, T=1.0, domain=(-2.0, 3.5), delta=0.005, rho_np=1e-3)),
}
# run -> (events, breakpoints at each time, digest of every xs and vals)
# (psystem-split re-pinned when the RH chain went over rows and LAPACK: its
# events and drawn positions are unchanged, its states moved by 4e-19)
DRAWN_PROFILES = {
    "cubic-equal-speed": (2, [4] + [10] * 14 + [9] * 3 + [8] * 3, "3acd0ba81dc7832b"),
    "psystem-split": (15, [4] + [20] * 20, "ea3a731ecea85ad9"),
}


@pytest.mark.parametrize("name", sorted(DRAWN_RUNS))
def test_drawn_profiles_after_many_events_bit_identical(name):
    sol = front_tracking_run(*DRAWN_RUNS[name])
    pcs = [sol.state(t) for t in np.linspace(0.0, 1.0, 21)]
    got = (len(sol.events), [pc.xs.size for pc in pcs],
           digest(*[a for pc in pcs for a in (pc.xs, pc.vals)]))
    assert got == DRAWN_PROFILES[name]


def test_system_pieces_need_field_classes():
    with pytest.raises(ConfigError, match="field classes"):
        approximate_riemann_pieces(P_SYSTEM, [1.0, 0.0], [1.05, 0.02], 0.02)
