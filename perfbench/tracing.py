"""Span recording around calls into the geomgates modules.

The program itself carries no instrumentation, so the traced run wraps
module attributes from outside: every module of the package that holds a
reference to a target function gets the wrapper, which also catches
``from .pauli import reduced_bloch``-style imports.  Each span records
name, start, end, thread CPU at both ends, parent and thread; parent
links are kept per thread.  Spans stay in memory until ``write`` is called
at the end of the run.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from array import array

import numpy as np

# Refinement drivers: each one runs the step ladder once per rung.
REFINERS = ("phases.decompose", "evolve.total_unitary", "evolve.propagate_two_qubit")
# Step-unitary builders: one span per rung (two for the eigenblock path).
STEPPERS = ("evolve.step_unitaries", "evolve.dense_step_unitaries")
SYNTHESIS = "gates.synthesize_double_loop"


def _rows(args, k):
    return len(args[k]) - 1


# (module, attribute, work count taken from the call's arguments and result)
TARGETS = (
    ("cli", "main", None),
    ("config", "load_config", None),
    ("experiments", "run_fig1", None),
    ("experiments", "run_fig2c", None),
    ("experiments", "run_sweep", None),
    ("experiments", "run_gate", None),
    ("experiments", "_map_ordered", lambda a, r: len(a[1])),
    ("gates", "synthesize_double_loop", None),
    ("phases", "decompose", None),
    ("phases", "_expectation_integral", lambda a, r: len(a[1])),
    ("phases", "solid_angle", None),
    ("phases", "berry_adiabatic", None),
    ("phases", "verify_cone", None),
    ("evolve", "total_unitary", None),
    ("evolve", "final_state", None),
    ("evolve", "propagate_two_qubit", None),
    ("evolve", "_step_unitaries", lambda a, r: _rows(a, 1)),
    ("evolve", "_dense_step_unitaries", lambda a, r: _rows(a, 1)),
    ("evolve", "_apply_chain", lambda a, r: len(a[0])),
    ("evolve", "_chain_product", lambda a, r: len(a[0])),
    ("evolve", "_bloch_rows", lambda a, r: len(a[0])),
    ("pauli", "reduced_bloch", None),
    ("csvio", "write_table", lambda a, r: os.path.getsize(r)),
    ("csvio", "write_json", lambda a, r: os.path.getsize(r)),
)


def span_name(module, attr):
    return f"{module}.{attr.lstrip('_')}"


class _ThreadBuffer:
    """Spans of one thread, in the order they were opened."""

    def __init__(self):
        self.name = array("q")
        self.parent = array("q")
        self.count = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.c0 = array("d")
        self.c1 = array("d")
        self.stack = []

    def open(self, name_id):
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.count.append(0)
        self.c0.append(time.thread_time())
        self.t1.append(0.0)
        self.c1.append(0.0)
        self.stack.append(i)
        self.t0.append(time.perf_counter())
        return i

    def close(self, i, count):
        self.t1[i] = time.perf_counter()
        self.c1[i] = time.thread_time()
        self.count[i] = count
        self.stack.pop()


class Recorder:
    """Collects spans from every thread that calls a wrapped function."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()
        self._patches = []
        self.absent = []

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer()
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, counter=None):
        name_id = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = self._buffer()
            i = buf.open(name_id)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                count = 0
                if counter is not None and result is not None:
                    try:
                        count = int(counter(args, result))
                    except (TypeError, IndexError, OSError):
                        count = 0
                buf.close(i, count)

        return traced

    def install(self, package="geomgates"):
        """Wrap every target that exists; record the missing ones as absent."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        for mod_name, attr, counter in TARGETS:
            home = sys.modules.get(f"{package}.{mod_name}")
            orig = getattr(home, attr, None)
            name = span_name(mod_name, attr)
            if not callable(orig):
                self.absent.append(name)
                continue
            if mod_name == "experiments" and attr == "_map_ordered":
                wrapper = self._wrap_pool(name, orig, counter)
            else:
                wrapper = self.wrap(name, orig, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, orig))

    def _wrap_pool(self, name, orig, counter):
        """Also give each mapped item its own span, in the thread that runs it."""
        outer = self.wrap(name, orig, counter)
        item_name = "experiments.map_item"

        @functools.wraps(orig)
        def traced(fn, *args, **kwargs):
            return outer(self.wrap(item_name, fn), *args, **kwargs)

        return traced

    def uninstall(self):
        for mod, key, orig in reversed(self._patches):
            setattr(mod, key, orig)
        self._patches.clear()

    def arrays(self):
        """All spans as flat numpy columns; parents index into the same rows."""
        cols = {k: [] for k in ("name", "parent", "thread", "count", "t0", "t1", "c0", "c1")}
        offset = 0
        for tid, buf in enumerate(self._buffers):
            n = len(buf.name)
            parent = np.array(buf.parent, dtype=np.int64)
            parent[parent >= 0] += offset
            cols["parent"].append(parent)
            cols["thread"].append(np.full(n, tid, dtype=np.int64))
            for k in ("name", "count", "t0", "t1", "c0", "c1"):
                col = getattr(buf, k)
                cols[k].append(np.array(col, dtype=np.int64 if col.typecode == "q" else np.float64))
            offset += n
        return {k: (np.concatenate(v) if v else np.empty(0)) for k, v in cols.items()}

    def write(self, path):
        cols = self.arrays()
        np.savez(path, names=np.array(self.names), **cols)
        return path


def summarize(rec: Recorder, passes: int):
    """Per-pass layer metrics from the recorded spans.

    Self time is a span's duration minus the durations of its child spans
    (same thread).  Totals are divided by the number of traced passes.
    """
    s = rec.arrays()
    n = len(s["name"])
    names = rec.names
    dur = s["t1"] - s["t0"]
    cpu = s["c1"] - s["c0"]
    parent = s["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n) if n else dur
    self_t = dur - child

    def pick(name):
        if name not in names:
            return np.zeros(n, dtype=bool)
        return s["name"] == names.index(name)

    def total(values, name):
        return float(values[pick(name)].sum()) / passes

    m = {}
    for key in (
        "evolve.apply_chain", "evolve.step_unitaries", "evolve.chain_product",
        "evolve.total_unitary", "evolve.dense_step_unitaries", "evolve.propagate_two_qubit",
        "evolve.bloch_rows", "pauli.reduced_bloch", "phases.expectation_integral",
        "phases.decompose", "phases.solid_angle", "phases.berry_adiabatic",
        "phases.verify_cone", SYNTHESIS,
    ):
        m[f"{key}.self_s"] = total(self_t, key)
    for key in ("evolve.apply_chain", "evolve.step_unitaries", "evolve.chain_product",
                "evolve.dense_step_unitaries"):
        m[f"{key}.steps"] = total(s["count"], key)
    m["phases.expectation_integral.samples"] = total(s["count"], "phases.expectation_integral")
    for key in ("evolve.total_unitary", "pauli.reduced_bloch", "phases.decompose"):
        m[f"{key}.calls"] = float(pick(key).sum()) / passes
    for key in ("evolve.apply_chain", "pauli.reduced_bloch"):
        m[f"{key}.wait_s"] = total(dur - cpu, key)
    chain_s = m["evolve.apply_chain.self_s"]
    m["evolve.apply_chain.steps_per_s"] = m["evolve.apply_chain.steps"] / chain_s if chain_s > 0 else 0.0

    writes = pick("csvio.write_table") | pick("csvio.write_json")
    m["csvio.write.self_s"] = float(self_t[writes].sum()) / passes
    m["csvio.write.bytes"] = float(s["count"][writes].sum()) / passes
    m["cli.main.calls"] = float(pick("cli.main").sum()) / passes
    m["cli.main.wall_s"] = total(dur, "cli.main")

    map_wall = float(dur[pick("experiments.map_ordered")].sum())
    items = pick("experiments.map_item")
    m["experiments.map_ordered.wall_s"] = map_wall / passes
    m["experiments.pool.speedup"] = float(cpu[items].sum()) / map_wall if map_wall > 0 else 0.0
    m["experiments.pool.wait_s"] = float((dur - cpu)[items].sum()) / passes

    rungs, useful, all_steps = _ladders(s, names)
    m["evolve.rungs.calls"] = float(len(rungs)) / passes
    m["evolve.rungs.mean"] = float(np.mean(list(rungs.values()))) if rungs else 0.0
    m["evolve.rungs.max"] = float(max(rungs.values(), default=0))
    m["evolve.useful_step_ratio"] = useful / all_steps if all_steps else 0.0
    m["gates.synthesize_double_loop.propagations"] = _count_under(s, names, SYNTHESIS, REFINERS) / passes
    m["trace.spans"] = float(n) / passes

    hist = {}
    for driver, r in rungs.items():
        key = f"{names[s['name'][driver]]}:{r}"
        hist[key] = hist.get(key, 0) + 1
    return m, dict(sorted(hist.items()))


def _nearest(s, names, wanted):
    """For every span, the index of its nearest ancestor-or-self named in wanted."""
    ids = {names.index(w) for w in wanted if w in names}
    anc = []
    for i, (name, parent) in enumerate(zip(s["name"].tolist(), s["parent"].tolist())):
        anc.append(i if name in ids else (anc[parent] if parent >= 0 else -1))
    return np.array(anc, dtype=np.int64)


def _ladders(s, names):
    """Rungs per refinement call, plus accepted-rung steps and all steps.

    A rung is one fixed-resolution pass; its step count is read from the
    step-unitary spans under the call.  The accepted rung is the finest.
    """
    anc = _nearest(s, names, REFINERS)
    step_ids = {names.index(w) for w in STEPPERS if w in names}
    per_call = {}
    for i in np.flatnonzero(np.isin(s["name"], list(step_ids)) & (anc >= 0)):
        per_call.setdefault(int(anc[i]), []).append(int(s["count"][i]))
    rungs, useful, everything = {}, 0, 0
    for call, steps in per_call.items():
        top = max(steps)
        rungs[call] = len(set(steps))
        useful += sum(x for x in steps if x == top)
        everything += sum(steps)
    return rungs, useful, everything


def _count_under(s, names, outer, inner):
    anc = _nearest(s, names, (outer,))
    ids = [names.index(w) for w in inner if w in names]
    return float(np.count_nonzero(np.isin(s["name"], ids) & (anc >= 0)))
