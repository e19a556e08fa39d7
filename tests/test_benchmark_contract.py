"""The benchmark's tracer still fits the package.

``perfbench/tracing.py`` wraps package functions by name and reads each
kernel's step count from its arguments (``len(args[0])`` of the step
array, ``len(ts) - 1`` of the grid).  A renamed function or a step array
of another shape would zero those layer metrics without an error, so this
module loads the tracer from its file, without changing it, and checks
both against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from geomgates import evolve, fields, phases

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# Traced names whose functions left the package; the tracer lists them as absent.
KNOWN_ABSENT = {
    "evolve.propagate_two_qubit",
    "evolve.dense_step_unitaries",
    "experiments.map_ordered",
}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing()
    absent = {
        tracing.span_name(mod, attr)
        for mod, attr, _ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(f"geomgates.{mod}"), attr, None))
    }
    assert absent == KNOWN_ABSENT


def test_step_counters_read_true_step_counts(quick):
    tracing = _tracing()
    p = fields.NmrParams(omega0=2.0, omega1=0.9, omega=1.1)
    s, psi = fields.nmr_schedule(p), phases.cyclic_pair_nmr(p).psi_plus
    original = evolve._step_unitaries
    rec = tracing.Recorder()
    rec.install()
    try:
        us = evolve._step_unitaries(s, evolve.time_grid(s, 512))
        evolve._apply_chain(us, psi)
        evolve._chain_product(us)
        kernels, _ = tracing.summarize(rec, 1)
        phases.decompose(s, psi, quick, with_unitary=True)
    finally:
        rec.uninstall()
    assert evolve._step_unitaries is original
    for key in ("step_unitaries", "apply_chain", "chain_product"):
        assert kernels[f"evolve.{key}.steps"] == 512
    both, hist = tracing.summarize(rec, 1)
    (ladder,) = [k for k in hist if k.startswith("phases.decompose:")]
    rungs = int(ladder.split(":")[1])
    # rung i = 0, 1, ... of the ladder runs quick.steps_per_period * 2**i steps
    ladder_steps = quick.steps_per_period * (2**rungs - 1)
    for key in ("step_unitaries", "apply_chain"):
        assert both[f"evolve.{key}.steps"] - 512 == ladder_steps
    # the ladder reads its loop matrix from the state chain, not a product tree
    assert both["evolve.chain_product.steps"] == 512
    # only the finest rung's steps count as useful
    top = quick.steps_per_period * 2 ** (rungs - 1)
    assert np.isclose(both["evolve.useful_step_ratio"], top / ladder_steps)


def test_a_state_stack_runs_one_ladder(quick):
    tracing = _tracing()
    p = fields.NmrParams(omega0=2.0, omega1=0.9, omega=1.1)
    s, pair = fields.nmr_schedule(p), phases.cyclic_pair_nmr(p)
    single = tracing.Recorder()
    single.install()
    try:
        phases.decompose(s, pair.psi_plus, quick)
    finally:
        single.uninstall()
    stacked = tracing.Recorder()
    stacked.install()
    try:
        phases.decompose(s, [pair.psi_plus, pair.psi_minus], quick)
    finally:
        stacked.uninstall()
    one, one_hist = tracing.summarize(single, 1)
    both, both_hist = tracing.summarize(stacked, 1)
    # the pair climbs the same rungs as its first member, in one ladder
    assert both_hist == one_hist
    (ladder,) = both_hist
    rungs = int(ladder.split(":")[1])
    ladder_steps = quick.steps_per_period * (2**rungs - 1)
    for key in ("step_unitaries", "apply_chain"):
        assert both[f"evolve.{key}.steps"] == one[f"evolve.{key}.steps"] == ladder_steps
    # one field sampling per rung, on its ladder_steps + 1 grid points
    assert both["phases.expectation_integral.samples"] == ladder_steps + rungs
