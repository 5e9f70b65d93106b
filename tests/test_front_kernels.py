"""The straight-front profile and kink kernels shared by Riemann fans
(`FanView`) and front tracking (`FrontTrackingSolution`, `FrontTrackingView`).

The golden values are sha256 digests of the float64 bytes of the profiles
and kink times, so they pin the output bit for bit.
"""

import hashlib

import numpy as np
import pytest

from hyperlab import models
from hyperlab.errors import RiemannFailure
from hyperlab.fronts import approximate_riemann_pieces, front_tracking_run
from hyperlab.piecewise import PiecewiseConstantFn
from hyperlab.riemann import solve_riemann, solve_riemann_scalar
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
    return solve_riemann_scalar(models.cubic_flux(), [-1.0], [1.0])


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
    ("psystem", 0.6): (33, "ad86de0b878edeb0"),
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


def test_front_tracking_view_kink_times_bit_identical():
    view = FrontTrackingView(pulse_run(), (-1.0, 2.0))
    kinks = view.kink_times(0.0, 1.0, EDGES)
    assert (len(kinks), digest(kinks)) == (18, "094d0545ba7857e8")


def test_front_tracking_state_bit_identical():
    sol = pulse_run()
    t_event = sol.events[0]["t"]
    t_between = 0.5 * (sol.events[0]["t"] + sol.events[1]["t"])
    got = [(pc.xs.size, digest(pc.xs, pc.vals))
           for pc in (sol.state(t_event), sol.state(t_between))]
    assert got == [(10, "cc6fae398692fe1a"), (10, "d6e219d6aa5231e2")]


def test_system_pieces_need_field_classes():
    with pytest.raises(RiemannFailure, match="field classes"):
        approximate_riemann_pieces(P_SYSTEM, [1.0, 0.0], [1.05, 0.02], 0.02)
