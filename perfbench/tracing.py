"""Span tracing around the library's public functions, from outside it.

``install`` replaces every public function of the library modules by a
wrapper at every module binding it has (``eigensystem`` is bound in
``models``, ``riemann``, ``fronts`` and ``verify``), plus a few named
methods.  Each call records a span (name, start, end, parent) in memory;
``uninstall`` puts the original objects back.  Self time and busy time are
computed from the spans afterwards.

Calls made through references taken before ``install`` (for example the
``schemes.SCHEMES`` table) are not traced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

LIBRARY = ("models", "piecewise", "riemann", "fronts", "schemes", "verify")


def _f_rows(counts, args, kwargs):
    model, u = args[0], np.asarray(args[1])
    counts["models.f.rows"] += u.size // model.n


def _pieces(counts, args, kwargs):
    counts["verify.profile_integrals.pieces"] += args[0].xs.size + 1


# span name -> counter hook for the functions that count work
COUNTERS = {"models.f": _f_rows, "verify.profile_integrals": _pieces}

# (module, class, method) -> span name
METHODS = {
    ("models", "FluxModel", "f"): "models.f",
    ("models", "FluxModel", "jac"): "models.jac",
    ("piecewise", "PiecewiseConstantFn", "l1_distance"): "piecewise.l1_distance",
    ("verify", "_StateCache", "state"): "verify.view_state",
}


class Tracer:
    """In-memory span store: one row per call, parent = enclosing call."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self._stack = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        nid = self._name_id(name)
        count = COUNTERS.get(name)
        stack, counts = self._stack, self.counts
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            if count is not None:
                count(counts, args, kwargs)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return traced

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def summary(self):
        return summarize(self.names, *self.arrays())

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)


def summarize(names, name, parent, start, end):
    """Per span name: calls, busy_s and self_s.

    self time is a span's duration minus the durations of its children;
    busy time sums only spans with no ancestor of the same name, so
    recursion is not counted twice."""
    name = np.asarray(name, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end) - np.asarray(start)
    n = dur.size
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child
    nested = np.zeros(n, dtype=bool)
    anc = parent.copy()
    while True:
        live = anc >= 0
        if not live.any():
            break
        nested[live] |= name[anc[live]] == name[live]
        anc[live] = parent[anc[live]]
    k = len(names)
    calls = np.bincount(name, minlength=k)
    busy = np.bincount(name[~nested], weights=dur[~nested], minlength=k)
    selfs = np.bincount(name, weights=self_t, minlength=k)
    return {nm: {"calls": int(calls[i]), "busy_s": float(busy[i]),
                 "self_s": float(selfs[i])} for i, nm in enumerate(names)}


def library():
    return {n: importlib.import_module(f"hyperlab.{n}") for n in LIBRARY}


def install(tracer):
    """Wrap the library; returns the patch list that ``uninstall`` reverts."""
    mods = library()
    patches = []
    for home_name, home in mods.items():
        for attr, obj in list(vars(home).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != home.__name__):
                continue
            traced = tracer.wrap(f"{home_name}.{attr}", obj)
            for mod in mods.values():
                for name, bound in list(vars(mod).items()):
                    if bound is obj:
                        patches.append((mod, name, obj))
                        setattr(mod, name, traced)
    for (mod_name, cls_name, meth), span in METHODS.items():
        cls = getattr(mods[mod_name], cls_name)
        orig = cls.__dict__[meth]
        patches.append((cls, meth, orig))
        setattr(cls, meth, tracer.wrap(span, orig))
    return patches


def uninstall(patches):
    for owner, attr, orig in reversed(patches):
        setattr(owner, attr, orig)

