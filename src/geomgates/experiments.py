"""Experiment drivers: figure sweeps, detuning sweep, gate synthesis runs.

Each driver has a pure computational core returning (params, columns) and a
thin writer that serializes the result as CSV or JSON.  Outputs are
deterministic for a given config: no timestamps, fixed float formatting,
and a header recording the full parameter set and code version.

Branch convention: a "conditional phase" gamma^delta is the one-loop
geometric phase of the cyclic-pair member anti-parallel to the cone axis,
whose value for a counterclockwise cone loop is +pi (1 - cos chi); the
matching adiabatic number is the field-direction solid angle of the
sign-flipped schedule.  The charge-qubit drive traverses its loop clockwise,
so there the axis-aligned member carries the +pi (1 - cos chi0) phase and
is the one reported.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import Config, ConfigError, Fig2Config
from .csvio import table_to_json, write_json, write_table
from .evolve import rotating_frame_oracle, time_grid, two_qubit_unitary
from .fields import (
    JosephsonParams,
    NmrParams,
    josephson_ej,
    josephson_schedule,
    negated_schedule,
    nmr_schedule,
    nmr_two_qubit,
)
from .gates import REVERSAL_RULES, gate_report_to_json, synthesize_double_loop
from .pauli import KET0, KET1, angle_dist, bloch_of_state, reduced_bloch, wrap_pi
from .phases import (
    _simpson,
    berry_adiabatic,
    cyclic_pair_josephson,
    cyclic_pair_nmr,
    decompose_loop,
    loop_phase,
)

__all__ = [
    "fig1_sweep",
    "fig2_field_trace",
    "fig2c_sweep",
    "detuning_sweep",
    "crossover_time",
    "ej_average",
    "tau0_candidates",
    "run_fig1",
    "run_fig2b",
    "run_fig2c",
    "run_sweep",
    "run_gate",
    "run_verify",
]

_BASIS = {0: KET0, 1: KET1}


def _numerics_meta(cfg: Config):
    return {
        "steps_per_period": cfg.propagator.steps_per_period,
        "tolerance": cfg.propagator.tolerance,
    }


def _route_meta(routes):
    """The ``exact_route`` header value: every route the exact column used."""
    return "+".join(sorted(set(routes)))


def _write(out_dir, stem, fmt, params, columns):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        path = out_dir / f"{stem}.json"
        write_json(path, table_to_json(params, columns))
    elif fmt == "csv":
        path = out_dir / f"{stem}.csv"
        write_table(path, params, columns)
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    return path


# ---------------------------------------------------------------------------
# rotating-drive conditional phases (fig1)
# ---------------------------------------------------------------------------

def fig1_sweep(cfg: Config, variant):
    """Conditional geometric phases vs operation time for the coupled drive.

    variant 'a': static z field fixed at omega1_a * J.
    variant 'b': z field tied to the drive frequency (omega1 = J - omega),
    which pins the control-0 cone angle at pi/2 and makes both branch
    phases time-independent.

    Returns (params, columns) with wrapped and unwrapped phase columns for
    both control branches, plus cone angles and cyclicity defects.  The
    exact columns come from ``decompose_loop`` (in closed form on the
    drive's rotating frame); the ``exact_route`` header names the route.
    """
    if variant not in ("a", "b"):
        raise ConfigError(f"fig1 variant must be 'a' or 'b', got {variant!r}")
    f = cfg.fig1
    tau0 = 2.0 * np.pi / f.omega0
    ratios = f.tau_grid.values()

    def branch(r, delta):
        # one control branch per call, so that no decomposition (and its
        # Bloch path) outlives its branch
        omega = f.omega0 / r
        omega1 = f.omega1_a * f.coupling_j if variant == "a" else f.coupling_j - omega
        p = NmrParams(omega0=f.omega0, omega1=omega1, omega=omega, j=f.coupling_j, delta=delta)
        s = nmr_schedule(p)
        pair = cyclic_pair_nmr(p)
        d = decompose_loop(s, pair.psi_minus, cfg.propagator)
        adiabatic = wrap_pi(berry_adiabatic(negated_schedule(s)))
        return d.geometric, adiabatic, pair.chi, d.cyclicity_defect, d.route

    exact = {0: [], 1: []}
    adia = {0: [], 1: []}
    chi = {0: [], 1: []}
    defect = {0: [], 1: []}
    routes = []
    for r in ratios:
        for delta in (0, 1):
            g, a, c, cd, route = branch(r, delta)
            exact[delta].append(g)
            adia[delta].append(a)
            chi[delta].append(c)
            defect[delta].append(cd)
            routes.append(route)

    params = {
        "experiment": f"fig1{variant}",
        "code_version": __version__,
        "omega0": f.omega0,
        "omega1": f.omega1_a * f.coupling_j if variant == "a" else "j - omega",
        "coupling_j": f.coupling_j,
        "tau0": tau0,
        **_numerics_meta(cfg),
        "exact_route": _route_meta(routes),
    }
    columns = [("tau_over_tau0", ratios)]
    for delta in (0, 1):
        columns.append((f"gamma{delta}_exact", np.array(exact[delta])))
    for delta in (0, 1):
        columns.append((f"gamma{delta}_adiabatic", np.array(adia[delta])))
    for delta in (0, 1):
        columns.append((f"gamma{delta}_exact_unwrapped", np.unwrap(np.array(exact[delta]))))
        columns.append(
            (f"gamma{delta}_adiabatic_unwrapped", np.unwrap(np.array(adia[delta])))
        )
    for delta in (0, 1):
        columns.append((f"chi{delta}", np.array(chi[delta])))
    for delta in (0, 1):
        columns.append((f"defect{delta}", np.array(defect[delta])))
    return params, columns


def run_fig1(cfg: Config, variant, out_dir, fmt="csv"):
    params, columns = fig1_sweep(cfg, variant)
    return _write(out_dir, f"fig1{variant}", fmt, params, columns)


# ---------------------------------------------------------------------------
# charge-qubit drive (fig2)
# ---------------------------------------------------------------------------

def _josephson_params(f: Fig2Config, cos_chi0, omega) -> JosephsonParams:
    return JosephsonParams(
        e1=f.e1, e2=f.e2, e_ch=f.e_ch, chi0=float(np.arccos(cos_chi0)), omega=omega
    )


def ej_average(f: Fig2Config):
    """Loop average of the effective junction energy (drive-speed free).

    Composite Simpson rule on 4,096 uniform steps of one unit-length loop.
    """
    p = _josephson_params(f, f.cos_chi0, 2.0 * np.pi)
    us = np.linspace(0.0, 1.0, 4097)
    return float(_simpson(josephson_ej(p, us), us))


def tau0_candidates(f: Fig2Config):
    """The three characteristic-time readings 1/E for this drive.

    The junction energy swings between |e1 - e2| and e1 + e2 over a loop,
    so "one qubit timescale" admits the fast edge, the slow edge, or the
    loop average; all three are reported wherever times are normalized.
    """
    return {
        "e_plus": 1.0 / (f.e1 + f.e2),
        "e_minus_abs": 1.0 / abs(f.e1 - f.e2),
        "ej_avg": 1.0 / ej_average(f),
    }


def fig2_field_trace(cfg: Config):
    """One period of the designed charge-qubit field, densely sampled."""
    f = cfg.fig2
    tau0 = tau0_candidates(f)["ej_avg"]
    tau = f.field_tau_over_tau0 * tau0
    p = _josephson_params(f, f.cos_chi0, 2.0 * np.pi / tau)
    s = josephson_schedule(p)
    ts = np.linspace(0.0, tau, f.field_samples + 1)
    b = s.sample(ts)
    params = {
        "experiment": "fig2b",
        "code_version": __version__,
        "e1": f.e1,
        "e2": f.e2,
        "e_ch": f.e_ch,
        "cos_chi0": f.cos_chi0,
        "omega": p.omega,
        "tau": tau,
        "tau_over_tau0": f.field_tau_over_tau0,
        "samples": f.field_samples,
    }
    columns = [("t", ts), ("Bx", b[:, 0]), ("By", b[:, 1]), ("Bz", b[:, 2])]
    return params, columns


def run_fig2b(cfg: Config, out_dir, fmt="csv"):
    params, columns = fig2_field_trace(cfg)
    return _write(out_dir, "fig2b", fmt, params, columns)


def crossover_time(taus, devs, threshold=0.10):
    """Smallest time where the deviation curve reaches the threshold.

    Log-log interpolation between the bracketing grid points; None when the
    curve never reaches the threshold on the grid.
    """
    taus = np.asarray(taus, dtype=float)
    devs = np.asarray(devs, dtype=float)
    below = devs <= threshold
    if not below.any():
        return None
    i = int(np.argmax(below))
    if i == 0:
        return float(taus[0])
    d0, d1 = devs[i - 1], devs[i]
    if d0 <= 0.0 or d1 <= 0.0:
        return float(taus[i])
    x = (np.log(threshold) - np.log(d0)) / (np.log(d1) - np.log(d0))
    return float(np.exp(np.log(taus[i - 1]) + x * (np.log(taus[i]) - np.log(taus[i - 1]))))


def fig2c_sweep(cfg: Config, cos_chi0):
    """Exact vs adiabatic one-loop phase for the designed charge-qubit drive.

    The sweep grid is tau / tau0 with tau0 = 1 / <E_J>; columns restate each
    operation time under the other two tau0 readings.  Returns
    (params, columns, extras) where extras carries the 10%-deviation
    crossover time in absolute units and under all three readings.  The
    exact column comes from ``decompose_loop``, as in ``fig1_sweep``.
    """
    f = cfg.fig2
    t0 = tau0_candidates(f)
    ref = t0["ej_avg"]
    ratios = f.tau_grid.values()
    chi0 = float(np.arccos(cos_chi0))

    def point(r):
        tau = r * ref
        p = _josephson_params(f, cos_chi0, 2.0 * np.pi / tau)
        s = josephson_schedule(p)
        pair = cyclic_pair_josephson(p)
        d = decompose_loop(s, pair.psi_plus, cfg.propagator)
        ga = berry_adiabatic(s)
        dev = abs(ga - d.geometric) / abs(d.geometric)
        return tau, d.geometric, ga, dev, d.cyclicity_defect, d.route

    rows = [point(r) for r in ratios]
    taus = [row[0] for row in rows]
    exact = [row[1] for row in rows]
    adia = [row[2] for row in rows]
    devs = [row[3] for row in rows]
    defects = [row[4] for row in rows]
    routes = [row[5] for row in rows]

    taus = np.array(taus)
    tau_star = crossover_time(taus, devs)
    extras = {
        "gamma_target": loop_phase(chi0),
        "tau0": dict(t0),
        "tau_star": tau_star,
        "tau_star_over_tau0": {
            name: (tau_star / val if tau_star is not None else None)
            for name, val in t0.items()
        },
    }
    params = {
        "experiment": "fig2c",
        "code_version": __version__,
        "e1": f.e1,
        "e2": f.e2,
        "e_ch": f.e_ch,
        "cos_chi0": cos_chi0,
        "chi0": chi0,
        "tau0_ej_avg": t0["ej_avg"],
        "tau0_e_plus": t0["e_plus"],
        "tau0_e_minus_abs": t0["e_minus_abs"],
        **_numerics_meta(cfg),
        "exact_route": _route_meta(routes),
    }
    columns = [
        ("tau_over_tau0_avg", ratios),
        ("tau", taus),
        ("tau_over_tau0_eplus", taus / t0["e_plus"]),
        ("tau_over_tau0_eminus", taus / t0["e_minus_abs"]),
        ("gamma_exact", np.array(exact)),
        ("gamma_adiabatic", np.array(adia)),
        ("gamma_exact_unwrapped", np.unwrap(np.array(exact))),
        ("gamma_adiabatic_unwrapped", np.unwrap(np.array(adia))),
        ("rel_deviation", np.array(devs)),
        ("cyclicity_defect", np.array(defects)),
    ]
    return params, columns, extras


def run_fig2c(cfg: Config, out_dir, fmt="csv"):
    """Write the main and small-angle sweeps plus the crossover summary.

    Returns (paths, VerificationReport); the report carries the figure's
    own acceptance checks (flat exact phase, adiabatic convergence window).
    """
    from . import verify  # lazy: verify imports this module at top level

    out_dir = Path(out_dir)
    main = fig2c_sweep(cfg, cfg.fig2.cos_chi0)
    inset = fig2c_sweep(cfg, cfg.fig2.cos_chi0_inset)
    paths = [
        _write(out_dir, "fig2c", fmt, main[0], main[1]),
        _write(out_dir, "fig2c_inset", fmt, inset[0], inset[1]),
    ]
    summary = {
        "code_version": __version__,
        "main": main[2],
        "inset": inset[2],
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    paths.append(Path(write_json(out_dir / "fig2c_crossover.json", summary)))
    report = verify.VerificationReport(
        tuple(verify.charge_figure_checks(main, inset))
    )
    return paths, report


# ---------------------------------------------------------------------------
# coupled-pair detuning sweep
# ---------------------------------------------------------------------------

def _product_state(delta, target):
    return np.kron(_BASIS[delta], target)


def _block_angle(model, pair, delta, prop):
    """arg<psi|U_block psi> of the eigenblock schedule for control state
    delta, with psi = pair.psi_minus.

    The block schedule does not depend on the control field, so one value
    serves every control detuning.  The block is an NMR drive and psi its
    cyclic state, so ``decompose_loop`` reads the angle from the closed
    form on the drive's rotating frame.
    """
    return decompose_loop(model.block_schedule(delta), pair.psi_minus, prop).total


def _block_total(model, angle, delta):
    """Eigenblock total phase for control state delta: the block angle
    from ``_block_angle`` plus the phase -E tau of the constant control
    energy E of that block."""
    return wrap_pi(angle - model.block_energy(delta) * model.period)


def _dense_total(u, pair, delta):
    """Total phase arg<psi0|U psi0> of the control-delta product state,
    read from the 4x4 propagator ``u`` of the model."""
    psi0 = _product_state(delta, pair.psi_minus)
    return float(np.angle(np.vdot(psi0, u @ psi0)))


def detuning_sweep(cfg: Config):
    """Control-qubit disturbance vs detuning for the coupled drive.

    For every detuning two models run: the undriven-control model, whose
    dense 4x4 totals must match the exact eigenblock prediction (a pure
    consistency check), and the driven-control model, where the control
    feels the same transverse drive off resonance.  The driven model
    reports the control-state fidelity against the decoupled (j = 0)
    single-qubit evolution of the control and the conditional-phase error
    against the eigenblock prediction.

    Each model's one-period 4x4 propagator comes in closed form
    (``two_qubit_unitary``); both control states' totals and the control's
    final Bloch vector are read from that one matrix.  The eigenblock
    angles, closed-form loops on the 2x2 block schedules, do not depend on
    the control field and are computed once per sweep.  A
    ``[sweep]`` coupling of 0 gives the exact decoupled baseline: control
    fidelity 1 up to integrator tolerance.
    """
    sw = cfg.sweep
    base = NmrParams(omega0=sw.omega0, omega1=sw.omega1_target, omega=sw.omega, j=sw.coupling_j)
    pairs = {d: cyclic_pair_nmr(replace(base, delta=d)) for d in (0, 1)}
    tau = base.tau
    detunings = sw.detuning_grid.values()
    blocks = nmr_two_qubit(base, sw.omega1_target)
    angles = {d: _block_angle(blocks, pairs[d], d, cfg.propagator) for d in (0, 1)}

    def point(det):
        w1c = sw.omega1_target + det
        quiet = nmr_two_qubit(base, w1c, drive_on_control=False)
        u_quiet = two_qubit_unitary(quiet)
        u_driven = two_qubit_unitary(nmr_two_qubit(base, w1c, drive_on_control=True))
        blk_row, leak_row = [], []
        for delta in (0, 1):
            expected = _block_total(quiet, angles[delta], delta)
            blk_row.append(angle_dist(_dense_total(u_quiet, pairs[delta], delta), expected))
            leak_row.append(angle_dist(_dense_total(u_driven, pairs[delta], delta), expected))
        n_control, _ = reduced_bloch(u_driven @ _product_state(0, pairs[0].psi_minus))
        ref = rotating_frame_oracle(
            NmrParams(omega0=sw.omega0, omega1=w1c, omega=sw.omega), KET0, tau
        )
        overlap = 0.5 * (1.0 + float(n_control @ bloch_of_state(ref)))
        return blk_row, leak_row, float(np.sqrt(max(overlap, 0.0)))

    fid, blk = [], {0: [], 1: []}
    leak = {0: [], 1: []}
    for blk_row, leak_row, fid_val in map(point, detunings):
        for delta in (0, 1):
            blk[delta].append(blk_row[delta])
            leak[delta].append(leak_row[delta])
        fid.append(fid_val)

    params = {
        "experiment": "sweep",
        "code_version": __version__,
        "omega0": sw.omega0,
        "omega1_target": sw.omega1_target,
        "coupling_j": sw.coupling_j,
        "omega": sw.omega,
        "tau": tau,
        **_numerics_meta(cfg),
    }
    columns = [
        ("detuning", detunings),
        ("fidelity_control", np.array(fid)),
        ("block_phase_err0", np.array(blk[0])),
        ("block_phase_err1", np.array(blk[1])),
        ("leak_phase_err0", np.array(leak[0])),
        ("leak_phase_err1", np.array(leak[1])),
    ]
    return params, columns


def run_sweep(cfg: Config, out_dir, fmt="csv"):
    params, columns = detuning_sweep(cfg)
    return _write(out_dir, "sweep", fmt, params, columns)


# ---------------------------------------------------------------------------
# one-off gate synthesis
# ---------------------------------------------------------------------------

def _spec_number(doc, key, default=None):
    """The finite JSON number ``doc[key]``, or ``default`` when the key is
    absent and a default exists; ConfigError otherwise."""
    if key not in doc:
        if default is None:
            raise ConfigError(f"gate spec: missing key {key!r}")
        return default
    value = doc[key]
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        ok = ok and np.isfinite(float(value))
    except OverflowError:
        ok = False
    if not ok:
        raise ConfigError(f"gate spec: {key} must be a finite number, got {value!r}")
    return float(value)


def _finite_field(s):
    """``s``, once |B|^2 (the sum the step exponentials form) is finite at
    every point of the coarsest step grid; ConfigError otherwise."""
    with np.errstate(over="ignore", invalid="ignore"):
        b2 = np.sum(np.square(s.sample(time_grid(s, 16))), axis=-1)
    if not np.all(np.isfinite(b2)):
        raise ConfigError(f"gate spec: the drive field overflows a float: {s.label}")
    return s


def _gate_inputs(doc):
    """Schedule, cyclic pair and reversal rule name of a gate spec.

    Every value is checked before any propagation: drive parameters are
    finite JSON numbers, ``delta`` is the integer 0 or 1, ``cos_chi0``
    lies strictly inside (-1, 1) and ``reversal`` names a rule of
    REVERSAL_RULES.  Violations, drive parameters whose derived
    quantities overflow a float, and a field whose squared magnitude
    overflows on the 16-step grid raise ConfigError.
    """
    reversal = doc.get("reversal", "negated_reversed")
    if not isinstance(reversal, str) or reversal not in REVERSAL_RULES:
        raise ConfigError(
            f"gate spec: unknown reversal {reversal!r}; pick from {sorted(REVERSAL_RULES)}"
        )
    delta = doc.get("delta", 0)
    if isinstance(delta, bool) or not isinstance(delta, int) or delta not in (0, 1):
        raise ConfigError(f"gate spec: delta must be the integer 0 or 1, got {delta!r}")
    platform = doc.get("platform")
    try:
        if platform == "nmr":
            p = NmrParams(
                omega0=_spec_number(doc, "omega0"),
                omega1=_spec_number(doc, "omega1"),
                omega=_spec_number(doc, "omega"),
                j=_spec_number(doc, "j", 0.0),
                delta=delta,
            )
            return _finite_field(nmr_schedule(p)), cyclic_pair_nmr(p), reversal
        if platform == "josephson":
            if doc.get("chi0") is not None:
                chi0 = _spec_number(doc, "chi0")
            else:
                cos_chi0 = _spec_number(doc, "cos_chi0")
                if not -1.0 < cos_chi0 < 1.0:
                    raise ConfigError(
                        f"gate spec: cos_chi0 must lie strictly inside (-1, 1), got {cos_chi0!r}"
                    )
                chi0 = float(np.arccos(cos_chi0))
            p = JosephsonParams(
                e1=_spec_number(doc, "e1"),
                e2=_spec_number(doc, "e2"),
                e_ch=_spec_number(doc, "e_ch"),
                chi0=chi0,
                omega=_spec_number(doc, "omega"),
                e_i=_spec_number(doc, "e_i", 0.0),
                nxc=_spec_number(doc, "nxc", 0.0),
                delta=delta,
            )
            # overflow checks first, on a silent build: their error stands alone
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                _finite_field(josephson_schedule(p))
            return josephson_schedule(p), cyclic_pair_josephson(p), reversal
    except ValueError as exc:
        raise ConfigError(f"gate spec: {exc}") from exc
    except OverflowError as exc:
        raise ConfigError(f"gate spec: drive parameters overflow a float: {exc}") from exc
    raise ConfigError(f"gate spec: platform must be 'nmr' or 'josephson', got {platform!r}")


def run_gate(cfg: Config, spec_path, out_dir):
    """Synthesize a double-loop gate from a JSON parameter file.

    The file names the platform and its drive parameters, plus an optional
    "reversal" rule for the second loop (default: the sign-flipped retraced
    loop).  Both loops run at ``cfg.propagator``.  The output is always a
    gate report JSON, ``gate_report.json`` in ``out_dir``.
    """
    spec_path = Path(spec_path)
    if not spec_path.is_file():
        raise ConfigError(f"gate spec file not found: {spec_path}")
    try:
        doc = json.loads(spec_path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"gate spec is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("gate spec must be a JSON object")
    s, pair, reversal = _gate_inputs(doc)
    report = synthesize_double_loop(s, pair, cfg.propagator, reversal)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "gate_report.json"
    gate_report_to_json(report, path)
    return path, report


def run_verify(cfg: Config, out_dir, fmt="csv"):
    """Run the full verification suite and write its report."""
    from . import verify  # lazy: verify imports this module at top level

    report = verify.run_all(cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        path = Path(write_json(out_dir / "verify.json", report.to_doc()))
    else:
        params = {"experiment": "verify", "code_version": __version__}
        path = _write(out_dir, "verify", fmt, params, report.to_columns())
    return path, report
