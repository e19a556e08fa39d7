"""Which loops take ``decompose_loop``'s closed form, and which the ladder.

The closed form runs no CF4 step, so patching ``evolve._step_unitaries``
to raise tells the two routes apart: a routed caller finishes, and a loop
that needs the ladder raises the sentinel at its first rung.
"""

import json
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from geomgates import evolve, experiments, fields, gates, phases, verify
from geomgates.config import GridSpec, load_config
from geomgates.evolve import PropagatorConfig
from geomgates.pauli import state_of_angles

NMR = fields.NmrParams(omega0=2.0, omega1=0.9, omega=1.1)
CHARGE = fields.JosephsonParams(
    e1=1.5625, e2=6.25, e_ch=39.0625, chi0=float(np.arccos(0.75)), omega=0.9
)


class CF4Step(Exception):
    """Raised by the patched stepper: a ladder rung was about to run."""


@contextmanager
def _no_cf4_steps():
    orig = evolve._step_unitaries

    def refuse(s, ts):
        raise CF4Step(s.label)

    evolve._step_unitaries = refuse
    try:
        yield
    finally:
        evolve._step_unitaries = orig


@contextmanager
def _counted_steps():
    """Count the CF4 step arrays built inside the block."""
    built = []
    orig = evolve._step_unitaries

    def counting(s, ts):
        built.append(len(ts) - 1)
        return orig(s, ts)

    evolve._step_unitaries = counting
    try:
        yield built
    finally:
        evolve._step_unitaries = orig


@pytest.fixture(scope="module")
def mini():
    cfg = load_config()
    return replace(
        cfg,
        fig1=replace(cfg.fig1, tau_grid=GridSpec(1.0, 100.0, 4, scale="log")),
        fig2=replace(cfg.fig2, tau_grid=GridSpec(1.0, 200.0, 4, scale="log")),
        verify=replace(
            cfg.verify,
            chi_grid=GridSpec(0.1, 3.0, 3, scale="linear"),
            oracle_grid=GridSpec(0.5, 2.0, 2, scale="log"),
        ),
    )


def test_schedules_carry_their_frame():
    s = fields.nmr_schedule(NMR)
    assert s.frame.winding == 1
    assert np.allclose(s.frame.axis, np.array([2.0, 0.0, 2.0]) / np.hypot(2.0, 2.0))
    j = fields.josephson_schedule(CHARGE)
    assert j.frame.winding == -1
    assert np.allclose(j.frame.axis, [np.sin(CHARGE.chi0), 0.0, np.cos(CHARGE.chi0)])
    back = fields.reversed_schedule(j)
    assert back.frame.winding == 1 and np.array_equal(back.frame.axis, -j.frame.axis)
    # every transform but the rotation keeps a frame; only an in-frame
    # field of fixed direction gives it an axis
    for axisless in (
        fields.time_reversed_schedule(j),
        fields.negated_schedule(j),
        fields.josephson_schedule(replace(CHARGE, e_i=0.5, nxc=0.2)),
        fields.nmr_schedule(fields.NmrParams(omega0=0.0, omega1=-1.0, omega=1.0)),
    ):
        f = axisless.frame
        assert f is not None and f.axis is None and f.magnitude is None and f.constant is None
    assert fields.rotate_schedule(s, 0.3).frame is None


@pytest.mark.parametrize(
    "build",
    [
        lambda: fields.nmr_schedule(NMR),
        lambda: fields.josephson_schedule(CHARGE),
        lambda: fields.josephson_schedule(replace(CHARGE, e_i=0.5, nxc=0.2, delta=1)),
    ],
    ids=["nmr_schedule", "josephson_schedule", "z-shifted-josephson"],
)
def test_frame_reproduces_the_lab_field(build):
    # B = R_z(w wt) b - w omega z-hat at the grid angles, and b = m n where
    # the frame has a fixed axis
    s = build()
    flipped = [fields.negated_schedule(s), fields.time_reversed_schedule(s)]
    loops = [s, fields.reversed_schedule(s), *flipped]
    loops += [fields.reversed_schedule(f) for f in flipped]
    loops.append(fields.time_reversed_schedule(fields.negated_schedule(s)))
    (c, sn), _ = evolve._phase_table(64)
    for sched in loops:
        f = sched.frame
        b = f.field(c, sn)
        ws = f.winding * sn
        x, y = b[:, 0], b[:, 1]
        z = b[:, 2] - f.winding * sched.omega
        want = np.stack([c * x - ws * y, ws * x + c * y, z], axis=-1)
        got = sched.field(c, sn)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(got))
        if f.axis is not None:
            m = f.magnitude(c, sn)
            assert np.max(np.abs(m[:, None] * f.axis - b)) <= 1e-13 * np.max(np.abs(b))


def test_constant_frames_survive_sign_flip_and_retrace():
    # the NMR drive's frame field is (omega0, 0, z + omega) with winding +1
    s = fields.nmr_schedule(NMR)
    w0, z, w = NMR.omega0, NMR.z_effective, NMR.omega
    for sched, winding, field in (
        (s, 1, (w0, 0.0, z + w)),
        (fields.negated_schedule(s), 1, (-w0, 0.0, w - z)),
        (fields.time_reversed_schedule(s), -1, (w0, 0.0, z - w)),
    ):
        f = sched.frame
        assert f.winding == winding
        assert f.constant == pytest.approx(np.linalg.norm(field), rel=1e-15)
        assert np.allclose(f.axis, np.array(field) / np.linalg.norm(field), rtol=0, atol=1e-15)
    # a frame field that cancels has no axis: z = omega negates to zero
    bare = fields.nmr_schedule(fields.NmrParams(omega0=0.0, omega1=1.0, omega=1.0))
    assert bare.frame.axis is not None and fields.negated_schedule(bare).frame.axis is None


def test_routed_callers_run_no_cf4_step(mini):
    with _no_cf4_steps():
        _, fig1 = experiments.fig1_sweep(mini, "a")
        fig2 = experiments.fig2c_sweep(mini, mini.fig2.cos_chi0)
        model = fields.nmr_two_qubit(replace(NMR, j=1.0), omega1_control=3.0)
        for delta in (0, 1):
            pair = phases.cyclic_pair_nmr(replace(NMR, j=1.0, delta=delta))
            experiments._block_angle(model, pair, delta, mini.propagator)
        for s, pair in (
            (fields.nmr_schedule(NMR), phases.cyclic_pair_nmr(NMR)),
            (fields.josephson_schedule(CHARGE), phases.cyclic_pair_josephson(CHARGE)),
        ):
            rep = gates.synthesize_double_loop(s, pair, mini.propagator, "negated_reversed")
            assert rep.loop1["route"] == rep.loop2["route"] == "rotating_frame"
    assert len(dict(fig1)["gamma0_exact"]) == 4 and len(dict(fig2[1])["gamma_exact"]) == 4
    assert fig2[0]["exact_route"] == "rotating_frame"


@pytest.mark.parametrize(
    "run",
    [
        # a time-reversed charge loop has no frame: loop 2 of the control rule
        lambda cfg: gates.synthesize_double_loop(
            fields.josephson_schedule(CHARGE),
            phases.cyclic_pair_josephson(CHARGE),
            cfg,
            "time_reversed",
        ),
        # a z-shifted charge drive has no frame
        lambda cfg: phases.decompose_loop(
            fields.josephson_schedule(replace(CHARGE, e_i=0.5, nxc=0.2)),
            phases.cyclic_pair(CHARGE.chi0).psi_plus,
            cfg,
        ),
        # a state off the axis of a frame whose magnitude varies
        lambda cfg: phases.decompose_loop(
            fields.josephson_schedule(CHARGE), state_of_angles(0.3, 0.2), cfg
        ),
        # one ulp of the field angle exceeds the tolerance
        lambda cfg: phases.decompose_loop(
            fields.nmr_schedule(NMR),
            phases.cyclic_pair_nmr(NMR).psi_plus,
            replace(cfg, tolerance=1e-17),
        ),
        # the same for a loop lasting ~6e300 at the packaged tolerance
        lambda cfg: phases.decompose_loop(
            fields.nmr_schedule(replace(NMR, omega=1e-300)),
            phases.cyclic_pair_nmr(replace(NMR, omega=1e-300)).psi_plus,
            cfg,
        ),
        # a coarse grid whose trapezoid rule has not settled
        lambda cfg: phases.decompose_loop(
            fields.josephson_schedule(CHARGE),
            phases.cyclic_pair_josephson(CHARGE).psi_plus,
            PropagatorConfig(steps_per_period=16, tolerance=1e-3),
        ),
    ],
    ids=["time-reversed-charge-gate", "z-shifted-charge", "off-axis", "ulp", "slow", "coarse"],
)
def test_other_loops_take_the_ladder(accurate, run):
    with _no_cf4_steps(), pytest.raises(CF4Step):
        run(accurate)


@pytest.mark.parametrize(
    "loop",
    [
        fields.negated_schedule(fields.josephson_schedule(CHARGE)),
        fields.time_reversed_schedule(fields.josephson_schedule(CHARGE)),
        fields.negated_schedule(fields.rotate_schedule(fields.nmr_schedule(NMR), 0.3)),
        fields.time_reversed_schedule(fields.rotate_schedule(fields.nmr_schedule(NMR), 0.3)),
        fields.negated_schedule(fields.josephson_schedule(replace(CHARGE, e_i=0.5, nxc=0.2))),
    ],
    ids=["negated-charge", "time-reversed-charge", "negated-rotated-nmr",
         "time-reversed-rotated-nmr", "negated-z-shifted-charge"],
)
def test_flipped_loops_without_a_constant_frame_take_the_ladder(accurate, loop):
    with _no_cf4_steps(), pytest.raises(CF4Step):
        phases.decompose_loop(loop, state_of_angles(1.0, 0.5), accurate)


def test_nmr_control_gates_take_the_closed_form(tmp_path, cfg):
    spec = tmp_path / "spec.json"
    doc = {"platform": "nmr", "omega0": 2.0, "omega1": 0.9, "omega": 1.1, "j": 0.4, "delta": 1}
    routes = {}
    with _no_cf4_steps():
        for rule in ("time_reversed", "negated"):
            spec.write_text(json.dumps(dict(doc, reversal=rule)))
            path, _ = experiments.run_gate(cfg, spec, tmp_path / rule)
            report = json.loads(path.read_text())
            routes[rule] = (report["loop1"]["route"], report["loop2"]["route"])
    assert routes == {
        "time_reversed": ("rotating_frame", "rotating_frame"),
        "negated": ("rotating_frame", "rotating_frame"),
    }


def test_huge_field_angle_still_fails_to_converge():
    # Phi mod 2 pi has no digits, so the ladder runs and reports it
    with pytest.raises(evolve.NonConvergenceError, match="did not converge"):
        phases.decompose_loop(
            fields.nmr_schedule(replace(NMR, omega=1e-300)),
            phases.cyclic_pair_nmr(replace(NMR, omega=1e-300)).psi_plus,
            PropagatorConfig(steps_per_period=16, max_refinements=1),
        )


def test_reference_checks_run_the_ladder(mini, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a reference check took the closed-form route")

    monkeypatch.setattr(phases, "decompose_loop", refuse)
    for check in (
        verify.check_oracle_equivalence,
        verify.check_cyclicity,
        verify.check_loop_phase_law,
    ):
        with _counted_steps() as built:
            rows = check(mini)
        assert built, check.__name__
        assert all(r.passed for r in rows)
    assert rows[-1].name == "solid_angle_vs_decomposition"


def test_route_rows_fail_when_the_route_is_not_taken(cfg):
    s, pair = fields.nmr_schedule(NMR), phases.cyclic_pair_nmr(NMR)
    rotated = fields.rotate_schedule(s, 0.0)
    rows = verify._route_rows("t", [(rotated, pair)], cfg.propagator)
    assert [r.passed for r in rows] == [False, False]
    assert all(r.measured == np.inf for r in rows)
    assert "not on the closed-form route" in rows[0].detail


def test_gate_report_names_each_loop_route(tmp_path, cfg):
    spec = tmp_path / "spec.json"
    doc = {"platform": "josephson", "e1": 1.5625, "e2": 6.25, "e_ch": 39.0625,
           "cos_chi0": 0.75, "omega": 0.9}
    routes = {}
    for rule in ("negated_reversed", "time_reversed"):
        spec.write_text(json.dumps(dict(doc, reversal=rule)))
        path, _ = experiments.run_gate(cfg, spec, tmp_path / rule)
        report = json.loads(path.read_text())
        routes[rule] = (report["loop1"]["route"], report["loop2"]["route"])
    assert routes == {
        "negated_reversed": ("rotating_frame", "rotating_frame"),
        "time_reversed": ("rotating_frame", "frame_ladder"),
    }


def test_echo_info_rows_report_one_minus_fidelity(cfg):
    rows = {r.name: r for r in verify.check_echo_cancellation(cfg)}
    for tag in ("rotating_drive", "charge_drive"):
        for name in (f"echo_distance_to_identity_{tag}", f"echo_distance_to_doubled_target_{tag}"):
            row = rows[name]
            assert row.kind == "report" and 0.0 <= row.measured <= 1.0
            assert row.detail.startswith("aligned deviation ")
    # the charge drive's doubled target is traceless: fidelity ~0, distance ~1
    assert abs(rows["echo_distance_to_doubled_target_charge_drive"].measured - 1.0) <= 1e-12


def test_a_fixed_axis_loop_without_digits_takes_the_lab_ladder():
    # Phi ~ 7e13 rad, whose rounding is ~8e-3 rad: on the frame ladder the
    # commuting steps' rounded angles summed alike at 512 and 1024 steps
    slow = fields.JosephsonParams.from_cos_chi0(
        0.8, e1=1.5625, e2=6.25, e_ch=39.0625, omega=1e-12
    )
    s = fields.josephson_schedule(slow)
    cfg = PropagatorConfig(steps_per_period=16, max_refinements=6)
    with pytest.raises(evolve.NonConvergenceError, match="did not converge"):
        phases.decompose_loop(s, phases.cyclic_pair(slow.chi0).psi_plus, cfg)
