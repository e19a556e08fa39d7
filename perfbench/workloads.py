"""Seeded inputs, CLI call lists and output checks for each workload.

A workload turns a seed into input files (INI configs, gate-spec JSONs)
and a *pass*: a fixed list of ``geomgates`` CLI calls.  The runner repeats
the pass; each call writes into its own output directory, which the
call's check reads after the pass.  Checks use the repository's own
``verify`` bounds and return one (ok, message) pair per correctness
operation.

Jitter is kept small and inside the packaged ranges, and gate drive
speeds stay inside fixed bands, so that different seeds give inputs of
about the same cost.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

PHASE_TOL = 1e-7  # verify: loop-phase law and fig1 plateaus
BLOCK_TOL = 1e-8  # verify: eigenblock vs dense 4x4 totals

# Points per grid.  The τ grids always span the packaged ranges; only
# their end points move with the seed.
FIG1_POINTS = 6
FIG2_POINTS = 6
SWEEP_POINTS = 2


@dataclass
class Call:
    """One CLI invocation of a pass, with its expected exit status."""

    label: str
    argv: list
    expect_rc: int
    check: Callable  # (out_dir) -> list[(ok, message)]


@dataclass
class Workload:
    calls: list
    config: Path | None  # INI the setup probes load (None: packaged default)
    gate_calls: bool = False  # every call is one `gate` (per-gate latency metrics)


def _angle_dist(a, b):
    return abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(rows))


def _rows_check(path, expected_rows, row_ok):
    """One operation per row, plus one for the row count."""
    try:
        rows = _read_csv(path)
    except OSError as exc:
        return [(False, f"{path.name}: {exc}")]
    ops = [(len(rows) == expected_rows, f"{path.name}: {len(rows)} rows, expected {expected_rows}")]
    for i, row in enumerate(rows):
        ok, why = row_ok(row)
        ops.append((ok, f"{path.name} row {i}: {why}"))
    return ops


def _write_ini(default_ini: Path, path: Path, edits):
    cp = configparser.ConfigParser()
    cp.read(default_ini, encoding="utf-8")
    for section, values in edits.items():
        for key, value in values.items():
            cp[section][key] = repr(value) if isinstance(value, float) else str(value)
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)
    return path


def _fig1b_row(row):
    g0, g1 = float(row["gamma0_exact"]), float(row["gamma1_exact"])
    e0, e1 = _angle_dist(g0, math.pi), _angle_dist(g1, 0.75 * math.pi)
    return e0 <= PHASE_TOL and e1 <= PHASE_TOL, f"|γ0-π| = {e0:.3g}, |γ1-3π/4| = {e1:.3g}"


def _files_check(out, names):
    return [((out / n).is_file(), f"{n} written") for n in names]


def loop_sweep(rng: random.Random, inputs: Path, default_ini: Path) -> Workload:
    """fig1b then fig2c on jittered τ grids spanning 1–100 and 1–200 τ0."""
    ini = _write_ini(default_ini, inputs / "loop.ini", {
        "fig1": {"tau_min": rng.uniform(1.0, 1.02), "tau_max": rng.uniform(98.0, 100.0),
                 "tau_points": FIG1_POINTS},
        "fig2": {"tau_min": rng.uniform(1.0, 1.02), "tau_max": rng.uniform(196.0, 200.0),
                 "tau_points": FIG2_POINTS},
    })
    fig2_files = ("fig2c.csv", "fig2c_inset.csv", "fig2c_crossover.json")
    return Workload(
        calls=[
            Call("fig1b", ["fig1b", "--config", str(ini)], 0,
                 lambda out: _rows_check(out / "fig1b.csv", FIG1_POINTS, _fig1b_row)),
            # exit 0 from fig2c means its own charge-figure checks passed
            Call("fig2c", ["fig2c", "--config", str(ini)], 0,
                 lambda out: _files_check(out, fig2_files)),
        ],
        config=ini,
    )


def _sweep_row(row):
    errs = [float(row["block_phase_err0"]), float(row["block_phase_err1"])]
    fid = float(row["fidelity_control"])
    ok = all(e <= BLOCK_TOL for e in errs) and math.isfinite(fid) and 0.0 <= fid <= 1.0
    return ok, f"block errors {errs[0]:.3g}, {errs[1]:.3g}; fidelity {fid:.6g}"


def coupled_sweep(rng: random.Random, inputs: Path, default_ini: Path) -> Workload:
    """Two-qubit detuning sweep on a jittered grid spanning 0–40."""
    ini = _write_ini(default_ini, inputs / "coupled.ini", {
        "sweep": {"detuning_min": rng.uniform(0.0, 2.0), "detuning_max": rng.uniform(38.0, 40.0),
                  "detuning_points": SWEEP_POINTS},
    })
    return Workload(
        calls=[Call("sweep", ["sweep", "--config", str(ini)], 0,
                    lambda out: _rows_check(out / "sweep.csv", SWEEP_POINTS, _sweep_row))],
        config=ini,
    )


REVERSALS = ("negated_reversed", "time_reversed", "negated")
CHARGE_ENERGIES = {"e1": 1.5625, "e2": 6.25, "e_ch": 39.0625}
# Drive-speed bands, each inside one plateau of the refinement ladder at
# the packaged numerics: slow loops take 5 rungs (about 1 s a gate), medium
# ones 4 and fast ones 3.  Seeds move ω inside a band, so a seed never
# changes a gate's rung count, and the slow band holds enough calls that
# the tail percentile always falls inside it.  Below ω ≈ 0.055 some
# charge-qubit control loops need a 6th rung, so the slow band stops there.
SLOW, MEDIUM, FAST = (0.056, 0.075), (0.11, 0.18), (0.5, 3.0)
GATE_PLAN = (
    ("josephson", SLOW), ("nmr", SLOW), ("josephson", SLOW), ("nmr", SLOW),
    ("josephson", MEDIUM),
    *((("nmr", FAST), ("josephson", FAST)) * 5),
    ("nmr", FAST),
)


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _gate_specs(rng: random.Random):
    """Specs near the packaged drives, one per GATE_PLAN entry."""
    specs = []
    for i, (platform, band) in enumerate(GATE_PLAN):
        if platform == "nmr":
            spec = {
                "platform": "nmr",
                "omega0": rng.uniform(7.5, 8.0),
                "omega1": rng.uniform(0.7, 0.9),
                "j": rng.uniform(0.95, 1.05),
                "delta": i % 2,
            }
        else:
            spec = {"platform": "josephson", **CHARGE_ENERGIES, "cos_chi0": rng.uniform(0.72, 0.88)}
        spec["omega"] = _log_uniform(rng, *band)
        spec["reversal"] = REVERSALS[i % len(REVERSALS)]
        specs.append(spec)
    return specs


def _gate_check(spec):
    sign = -1.0 if spec["platform"] == "nmr" else 1.0
    echo = spec["reversal"] == "negated_reversed"

    def check(out):
        try:
            report = json.loads((out / "gate_report.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return [(False, f"gate_report.json: {exc}")]
        chi = report["chi"]
        law = sign * math.pi * (1.0 - math.cos(chi))
        err = _angle_dist(report["loop1"]["geometric"], law)
        ops = [(err <= PHASE_TOL, f"loop-1 phase law error {err:.3g}")]
        if echo:
            flags = report["flags"]
            ok = flags["dynamical_cancelled"] and flags["cyclic"]
            ops.append((ok, f"echo flags {flags}"))
        return ops

    return check


def gate_batch(rng: random.Random, inputs: Path, default_ini: Path) -> Workload:
    """One `gate` call per seeded spec; the echo rule must exit 0, the controls 1."""
    calls = []
    for i, spec in enumerate(_gate_specs(rng)):
        path = inputs / f"gate{i:02d}.json"
        path.write_text(json.dumps(spec, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        expect = 0 if spec["reversal"] == "negated_reversed" else 1
        calls.append(Call(f"gate{i:02d}", ["gate", str(path)], expect, _gate_check(spec)))
    return Workload(calls=calls, config=None, gate_calls=True)


WORKLOADS = {
    "loop-sweep": loop_sweep,
    "coupled-sweep": coupled_sweep,
    "gate-batch": gate_batch,
}
