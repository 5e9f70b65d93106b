"""Seeded end-to-end benchmark of hyperlab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  With ``--trace 0`` the batch of the workload is run in passes
(at least one, more while they fit in ``--seconds``) and the last line of
standard output is a JSON object with the end-to-end metrics.  With
``--trace 1`` one untraced pass is followed by one traced pass, and the
metrics are the per-layer ones; the spans are written to ``perfbench/out``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# one BLAS thread: the load is a single client in a closed loop
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("certify-burgers", "glimm-psystem", "implicit-burgers", "fronts-psystem")
SETUP_REPEATS = 9
SETUP_PROBES = 100
# speed probe: a fixed loop timed every PROBE_EVERY_S of wall time
PROBE_EVERY_S = 0.01
PROBE_LOOP = 400
# probe time that defines the reference speed; it sets only the scale
REF_PROBE_S = 30e-6
ENV_NOTE = ("shared machine: no CPU pinning, no frequency or cache control; "
            "raw wall_s drifts with other tenants, wall_norm_s divides out "
            "the speed the probe saw")

# child process for setup_s: interpreter start to the workload's model built,
# then (untimed) the speed probe, to rescale like wall_norm_s
SETUP_CODE = """
import sys, time
sys.path[:0] = [{here!r}, {src!r}]
import workloads
workloads.WORKLOADS[{name!r}].build()
built = time.time()
import run
probe = run.SpeedProbe()
for _ in range(run.SETUP_PROBES):
    probe.tick()
print(repr(built), repr(probe.typical()))
"""


def measure_setup(name):
    """Median over fresh interpreters of start-to-model-built time, each
    rescaled to the reference speed; also the raw median."""
    code = SETUP_CODE.format(here=str(HERE), src=str(SRC), name=name)
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.time()
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=os.environ,
                              capture_output=True, text=True, timeout=60, check=True)
        built, probe = (float(v) for v in done.stdout.split())
        raw.append(built - t0)
        scaled.append((built - t0) * REF_PROBE_S / probe)
    return statistics.median(scaled), statistics.median(raw)


class SpeedProbe:
    """Samples how fast the interpreter runs while a pass runs.

    Other tenants of a shared machine slow a run by up to ±20% over tens of
    seconds. SIGALRM runs a fixed pure-Python loop every PROBE_EVERY_S and
    records its duration; that loop slows down with the benchmark, and it
    calls nothing in the library."""

    def __init__(self):
        self.samples = []

    def tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        s = 0
        for i in range(PROBE_LOOP):
            s += i * i % 7
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self.tick()
        return False

    def typical(self):
        """Harmonic mean of the loop times: samples are spread evenly over
        wall time, so this is the loop time at the pass's average speed."""
        return statistics.harmonic_mean(self.samples)


def run_pass(workload, problems, outcomes):
    """One pass over the batch: its wall time and the typical probe time."""
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        batch = [workload.execute(p) for p in problems]
        wall = time.perf_counter() - t0
    outcomes.append(batch)
    return wall, probe.typical()


def traced_pass(workload, problems, outcomes):
    """One pass with every library function wrapped; wrappers removed after."""
    import tracing

    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        wall, _ = run_pass(workload, problems, outcomes)
    finally:
        tracing.uninstall(patches)
    return tracer, wall


def tally(workload, problems, outcomes):
    """attempted/failed over all executions; a repeat whose output differs
    from the first execution of that problem fails too."""
    attempted = failed = 0
    first = {}
    errors = []
    for batch in outcomes:
        for p, o in zip(problems, batch):
            attempted += 1
            fp = first.setdefault(p.index, o.fingerprint)
            if o.error or fp != o.fingerprint:
                failed += 1
                errors.append(f"{workload.name}[{p.index}]: "
                              f"{o.error or 'output differs from first run'}")
    return attempted, failed, errors


def phases(outcomes):
    """Median over passes of the batch's solve and check time."""
    return {attr: statistics.median(sum(getattr(o, attr) for o in b) for b in outcomes)
            for attr in ("solve_s", "verify_s")}


def end_to_end(setup_s, passes):
    """wall_norm_s is a pass's wall time rescaled to the reference speed."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "wall_norm_s": (statistics.median(w * REF_PROBE_S / p for w, p in passes), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def _calls(summary, name):
    return summary.get(name, {}).get("calls", 0)


def per_layer(summary, counts, batch, wall_plain, wall_traced):
    """Per-layer metrics of one traced pass."""
    m = {}

    def span(name, *fields):
        s = summary.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for f in fields:
            m[f"{name}.{f}"] = (s[f], "count" if f == "calls" else "s")

    span("models.eigensystem", "calls", "busy_s")
    span("models.f", "calls")
    f_rows = counts.get("models.f.rows", 0)
    m["models.f.rows"] = (f_rows, "count")
    f_calls = _calls(summary, "models.f")
    m["models.f.rows_per_call"] = (f_rows / f_calls if f_calls else 0.0, "count")
    span("models.jac", "calls")
    for fn in ("solve_riemann", "rarefaction_curve", "solve_strengths",
               "shock_curve", "solve_riemann_scalar"):
        span(f"riemann.{fn}", "calls", "busy_s")
    span("riemann.solve_riemann", "self_s")
    span("fronts.front_tracking_run", "busy_s", "self_s")
    span("fronts.approximate_riemann_pieces", "calls", "busy_s")
    layer = [o.layer for o in batch]
    m["fronts.events"] = (sum(x.get("fronts.events", 0) for x in layer), "count")
    m["fronts.max_fronts"] = (max(x.get("fronts.max_fronts", 0) for x in layer), "count")
    m["fronts.np_total"] = (sum(x.get("fronts.np_total", 0.0) for x in layer), "1")
    span("schemes.glimm_run", "busy_s")
    span("schemes.backward_euler_run", "busy_s")
    glimm_cells = sum(x.get("schemes.glimm.cell_updates", 0) for x in layer)
    be_cells = sum(x.get("schemes.backward_euler.cell_updates", 0) for x in layer)
    cells = glimm_cells + be_cells
    grid_busy = (m["schemes.glimm_run.busy_s"][0]
                 + m["schemes.backward_euler_run.busy_s"][0])
    m["schemes.cell_updates"] = (cells, "count")
    m["schemes.cell_updates_per_s"] = (cells / grid_busy if grid_busy else 0.0, "1/s")
    fans = _calls(summary, "riemann.evaluate_fan")
    solves = _calls(summary, "riemann.solve_riemann")
    m["schemes.glimm.fan_reuse"] = (1.0 - solves / fans if glimm_cells and fans else 0.0,
                                    "ratio")
    jac = _calls(summary, "models.jac")
    m["schemes.backward_euler.jac_per_cell"] = (jac / be_cells if be_cells else 0.0,
                                                "ratio")
    l1 = [x["schemes.l1_err"] for x in layer if "schemes.l1_err" in x]
    m["schemes.l1_err"] = (max(l1) if l1 else 0.0, "1")
    for fn in ("certify_eps_approx", "strip_expressions", "profile_integrals"):
        span(f"verify.{fn}", "calls", "busy_s")
    m["verify.profile_integrals.pieces"] = (
        counts.get("verify.profile_integrals.pieces", 0), "count")
    span("verify.view_state", "calls", "busy_s")
    eps = [x["verify.cert_eps"] for x in layer if "verify.cert_eps" in x]
    m["verify.cert_eps"] = (max(eps) if eps else 0.0, "1")
    span("piecewise.l1_distance", "calls", "busy_s")
    m["trace.overhead"] = (wall_traced / wall_plain - 1.0, "ratio")
    return m


def git_sha():
    """HEAD of the checkout if it is a git repository (read, not run)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def metadata(args):
    import numpy as np
    loc = sum(len(p.read_text().splitlines())
              for p in sorted((SRC / "hyperlab").glob("*.py")))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "source_loc": loc, "environment": ENV_NOTE,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hyperlab" / "__init__.py").is_file():
        print(f"hyperlab sources not found under {SRC}", file=sys.stderr)
        return 2
    setup_s, setup_raw_s = measure_setup(args.workload)
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workload.build()
    problems = workload.problems(args.seed)
    outcomes = []
    started = time.perf_counter()
    passes = [run_pass(workload, problems, outcomes)]
    if args.trace:
        tracer, traced_wall = traced_pass(workload, problems, outcomes)
        metrics = per_layer(tracer.summary(), tracer.counts, outcomes[-1],
                            passes[0][0], traced_wall)
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}-{args.seed}.npz")
    else:
        while time.perf_counter() - started + passes[-1][0] <= args.seconds:
            passes.append(run_pass(workload, problems, outcomes))
        metrics = end_to_end(setup_s, passes)
    attempted, failed, errors = tally(workload, problems, outcomes)
    for e in errors:
        print(f"# failed: {e}")
    meta = metadata(args)
    meta["passes"] = len(outcomes)
    meta["batch"] = workload.batch
    meta["phases"] = phases(outcomes[:1] if args.trace else outcomes)
    meta["wall_s"] = statistics.median(w for w, _ in passes)
    meta["setup_raw_s"] = setup_raw_s
    meta["probe_s"] = statistics.median(p for _, p in passes)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "errors": errors, **result}, indent=1))
    print("# meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
