"""Fast checks of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection.
"""

import dataclasses
import inspect
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads

WORKLOADS = sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_identical_inputs(name):
    wl = workloads.WORKLOADS[name]
    a, b, c = ([wl.problem(seed, i) for i in range(wl.batch)] for seed in (7, 7, 8))
    for p, q, r in zip(a, b, c):
        assert p.data.xs.tobytes() == q.data.xs.tobytes()
        assert p.data.vals.tobytes() == q.data.vals.tobytes()
        assert p.cfg == q.cfg == r.cfg
        # a seed changes values, never the shape
        assert p.data.vals.shape == r.data.vals.shape
        assert not np.array_equal(p.data.vals, r.data.vals)


def test_self_time_on_nested_spans():
    # a[0,10] > b[1,4] > c[2,3];  a > b[5,9] > b[6,7] (recursion)
    names = ["a", "b", "c"]
    name = [0, 1, 2, 1, 1]
    parent = [-1, 0, 1, 0, 3]
    start = [0.0, 1.0, 2.0, 5.0, 6.0]
    end = [10.0, 4.0, 3.0, 9.0, 7.0]
    s = tracing.summarize(names, name, parent, start, end)
    assert s["a"] == {"calls": 1, "busy_s": 10.0, "self_s": 3.0}
    assert s["b"] == {"calls": 3, "busy_s": 7.0, "self_s": 6.0}
    assert s["c"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0}


def _tiny(wl, T):
    """Problem 0 of the workload with a short time span."""
    p = wl.problem(0, 0)
    return wl.with_reference(dataclasses.replace(p, cfg=dataclasses.replace(p.cfg, T=T)))


TINY_T = {"certify-burgers": 0.1, "glimm-psystem": 0.05,
          "implicit-burgers": 0.05, "fronts-psystem": 0.05}


def _bindings():
    """Every function bound in a library module, and every wrapped method."""
    mods = tracing.library()
    out = {(m, a): o for m, mod in mods.items() for a, o in vars(mod).items()
           if inspect.isfunction(o)}
    for mod_name, cls_name, meth in tracing.METHODS:
        out[(cls_name, meth)] = getattr(mods[mod_name], cls_name).__dict__[meth]
    return out


def test_wrappers_removed_after_traced_pass():
    from hyperlab import models, riemann

    before = _bindings()
    wl = workloads.WORKLOADS["fronts-psystem"]
    wl.build()
    outcomes = []
    tracer, wall = run.traced_pass(wl, [_tiny(wl, 0.05)], outcomes)
    assert wall > 0 and not outcomes[0][0].error
    summary = tracer.summary()
    assert summary["fronts.front_tracking_run"]["calls"] == 1
    assert summary["models.eigensystem"]["calls"] > 0
    assert _bindings() == before
    assert riemann.eigensystem is models.eigensystem


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run(name):
    wl = workloads.WORKLOADS[name]
    wl.build()
    outcome = wl.execute(_tiny(wl, TINY_T[name]))
    assert outcome.error == ""
    assert 0 < outcome.solve_s <= outcome.wall_s
    assert 0 < outcome.verify_s <= outcome.wall_s
    assert outcome.fingerprint


def test_refuses_to_run_without_sources(tmp_path):
    here = Path(run.__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, f"{here.name}/run.py", "--workload",
                           "glimm-psystem", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    e2e = run.end_to_end(0.2, [(1.0, run.REF_PROBE_S)])
    assert sorted((m["name"], m["unit"]) for m in spec["end_to_end"]) == \
        sorted((k, u) for k, (_, u) in e2e.items())
    batch = [workloads.Outcome(1.0, 0.9, 0.1, layer={"fronts.events": 3})]
    layer = run.per_layer({}, {}, batch, 1.0, 1.2)
    assert sorted((m["name"], m["unit"]) for m in spec["per_layer"]) == \
        sorted((k, u) for k, (_, u) in layer.items())
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)


def test_speed_probe_rescales_and_restores_handler():
    before = signal.getsignal(signal.SIGALRM)
    with run.SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.05:
            pass
    assert signal.getsignal(signal.SIGALRM) == before
    assert len(probe.samples) >= 2 and probe.typical() > 0
    # a pass that ran while the probe loop took twice the reference time
    assert run.end_to_end(0.2, [(10.0, 2 * run.REF_PROBE_S)])["wall_norm_s"][0] == 5.0
