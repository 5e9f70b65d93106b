"""Piecewise-constant profiles and grid solutions: the hold rule in time,
the common refinement of two profiles, and the refusals of bad input."""

import numpy as np
import pytest

from hyperlab.piecewise import GridSolution, PiecewiseConstantFn, as_state, hold_index

INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("t", [-INF, -1.0, 0.0, -1e-14, 0.25 - 1e-15, 0.25, 0.3, 1.0,
                               1.0 + 1e-13, INF, NAN])
def test_hold_index_is_the_last_record_at_or_before(t):
    times = np.array([0.0, 0.25, 0.5, 1.0])
    want = max(int(np.searchsorted(times, t + 1e-14, side="right")) - 1, 0)
    assert hold_index(times, t) == want
    records = [{"t": float(s)} for s in times]
    assert hold_index(records, t, key=lambda r: r["t"]) == want


def test_refinement_cuts_both_profiles_on_the_interval():
    u = PiecewiseConstantFn(np.array([-2.0, 0.0, 0.5]), np.arange(4.0))
    v = PiecewiseConstantFn(np.array([0.0, 0.25, 3.0]), np.arange(4.0))
    cuts, mids, lengths = u.refinement(v, -1.0, 1.0)
    assert cuts.tolist() == [-1.0, 0.0, 0.25, 0.5, 1.0]
    assert mids.tolist() == [-0.5, 0.125, 0.375, 0.75]
    assert lengths.tolist() == [1.0, 0.25, 0.25, 0.5]
    assert u.l1_distance(v, -1.0, 1.0) == 1.75  # |u - v| is 1, 1, 0, 1 on them


@pytest.mark.parametrize("profile, xs, vals", [
    (lambda: GridSolution(0.0, 0.5, [0.0], np.full((1, 1), 2.0)).as_piecewise(0.0), [], [2.0]),
    (lambda: PiecewiseConstantFn.constant([2.0]), [], [2.0]),
], ids=["one-cell-grid", "constant"])
def test_profiles_with_dropped_or_no_breakpoints(profile, xs, vals):
    # a profile without breakpoints has one value and no variation
    pc = profile()
    assert pc.xs.dtype == np.float64 and pc.xs.tolist() == xs
    assert pc.vals.tolist() == [[v] for v in vals]
    assert pc.tv() == sum(abs(b - a) for a, b in zip(vals[:-1], vals[1:]))


@pytest.mark.parametrize("call, match", [
    (lambda: as_state([[1.0, 2.0]]), r"one-dimensional, got shape \(1, 2\)"),
    (lambda: as_state([1.0, 2.0], 3), "dimension 2, model expects 3"),
    (lambda: PiecewiseConstantFn(np.array([0.0]), np.array([1.0])),
     "m breakpoints and m\\+1 values"),
    (lambda: PiecewiseConstantFn(np.array([1.0, 0.0]), np.arange(3.0)),
     "strictly increasing"),
    (lambda: PiecewiseConstantFn.riemann([1.0], [0.0]).integral(1.0, 0.0), "empty interval"),
    (lambda: GridSolution(0.0, 0.1, [0.0, 1.0], np.zeros((1, 4))),
     "one snapshot per stored time"),
    (lambda: GridSolution(0.0, 0.0, [0.0], np.zeros((1, 4))), "dx must be positive"),
], ids=["matrix-state", "state-dimension", "value-count", "unsorted-breakpoints",
        "reversed-interval", "snapshot-count", "zero-dx"])
def test_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()
