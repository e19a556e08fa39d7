"""Physics invariants on random drives (Hypothesis, profile in conftest)."""

from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from geomgates import evolve, experiments, fields, gates, phases, verify
from geomgates.evolve import total_unitary, two_qubit_unitary
from geomgates.pauli import (
    angle_dist,
    bloch_of_state,
    expm_pauli,
    state_of_angles,
    unitarity_defect,
    wrap_pi,
)
from reference import dense_unitary

nmr_params = st.builds(
    fields.NmrParams,
    omega0=st.floats(0.3, 4.0),
    omega1=st.floats(-3.0, 3.0),
    omega=st.floats(0.5, 3.0),
)


@given(
    omega0=st.floats(0.5, 8.0),
    omega1=st.floats(-3.0, 3.0),
    omega=st.floats(0.5, 3.0),
    j=st.floats(-2.0, 2.0),
    control_z=st.floats(-5.0, 5.0),
)
def test_block_totals_equal_dense_totals(accurate, omega0, omega1, omega, j, control_z):
    p = fields.NmrParams(omega0=omega0, omega1=omega1, omega=omega, j=j)
    model = fields.nmr_two_qubit(p, omega1_control=control_z)
    u = two_qubit_unitary(model)
    for delta in (0, 1):
        pair = phases.cyclic_pair_nmr(replace(p, delta=delta))
        angle = experiments._block_angle(model, pair, delta, accurate)
        expected = experiments._block_total(model, angle, delta)
        assert angle_dist(experiments._dense_total(u, pair, delta), expected) <= 1e-8


@given(
    omega0=st.floats(0.5, 8.0),
    omega1=st.floats(-3.0, 3.0),
    omega=st.floats(0.5, 3.0),
    j=st.floats(-2.0, 2.0),
    control_z=st.floats(-5.0, 5.0),
    drive_on_control=st.booleans(),
)
def test_dense_ladder_equals_closed_form_pair_propagator(
    accurate, omega0, omega1, omega, j, control_z, drive_on_control
):
    p = fields.NmrParams(omega0=omega0, omega1=omega1, omega=omega, j=j)
    model = fields.nmr_two_qubit(p, control_z, drive_on_control=drive_on_control)
    u = two_qubit_unitary(model)
    assert unitarity_defect(u) <= 1e-13
    # the ladder's own tolerance is 1e-10 per entry; allow ten times that
    assert np.max(np.abs(dense_unitary(model, accurate) - u)) <= 1e-9


@given(p=nmr_params)
def test_pair_members_take_opposite_geometric_phases(accurate, p):
    pair, s = phases.cyclic_pair_nmr(p), fields.nmr_schedule(p)
    g_plus = phases.decompose(s, pair.psi_plus, accurate).geometric
    g_minus = phases.decompose(s, pair.psi_minus, accurate).geometric
    assert angle_dist(g_plus, -g_minus) <= 1e-9


@given(p=nmr_params)
def test_total_minus_dynamical_follows_loop_phase_law(accurate, p):
    pair = phases.cyclic_pair_nmr(p)
    d = phases.decompose(fields.nmr_schedule(p), pair.psi_plus, accurate)
    assert angle_dist(d.total - d.dynamical, -phases.loop_phase(pair.chi)) <= 1e-9


@given(p=nmr_params)
def test_bloch_path_solid_angle_equals_geometric_phase(accurate, p):
    s, psi = fields.nmr_schedule(p), phases.cyclic_pair_nmr(p).psi_plus
    d = phases.decompose(s, psi, accurate)
    sa = phases.solid_angle(d.bloch)
    # the bound of the verify row solid_angle_vs_decomposition
    assert angle_dist(wrap_pi(sa.gamma), d.geometric) <= 1e-6


@given(p=nmr_params, dchi=st.floats(-np.pi, np.pi))
def test_rotated_drive_and_state_keep_the_geometric_phase(accurate, p, dchi):
    s, psi = fields.nmr_schedule(p), phases.cyclic_pair_nmr(p).psi_plus
    spin = expm_pauli(np.array([0.0, 1.0, 0.0]), -0.5 * dchi)
    rotated = phases.decompose(fields.rotate_schedule(s, dchi), spin @ psi, accurate)
    base = phases.decompose(s, psi, accurate)
    # the bound of the verify row rotation_invariance_of_phase
    assert angle_dist(rotated.geometric, base.geometric) <= 1e-8


charge_drives = st.builds(
    lambda e1, ratio, cos_chi0, tau_e1: fields.JosephsonParams(
        e1=e1, e2=ratio * e1, e_ch=40.0, chi0=float(np.arccos(cos_chi0)),
        omega=2.0 * np.pi * e1 / tau_e1,
    ),
    e1=st.floats(0.5, 2.0),
    ratio=st.floats(0.2, 0.8),
    cos_chi0=st.floats(-0.9, 0.9),
    tau_e1=st.floats(3.0, 30.0),
)


@given(
    drive=st.one_of(
        nmr_params.map(fields.nmr_schedule),
        charge_drives.map(fields.josephson_schedule),
    ),
    dchi=st.floats(-np.pi, np.pi),
    n=st.sampled_from([16, 18, 4096, 6000]),
)
def test_table_fields_match_time_samples(drive, dchi, n):
    # every transform is an exact map of the field function, so on the
    # table's grid it matches the field sampled at the grid's times
    grid, _ = evolve._phase_table(n)
    ts = evolve.time_grid(drive, n)
    for s in (
        drive,
        fields.negated_schedule(drive),
        fields.rotate_schedule(drive, dchi),
        fields.time_reversed_schedule(drive),
        fields.reversed_schedule(drive),
    ):
        want = s.sample(ts)
        scale = np.max(np.linalg.norm(want, axis=-1))
        assert np.max(np.abs(s.field(*grid) - want)) <= 1e-14 * scale


@given(
    drive=st.one_of(
        nmr_params.map(lambda p: (fields.nmr_schedule(p), phases.cyclic_pair_nmr(p))),
        charge_drives.map(
            lambda p: (fields.josephson_schedule(p), phases.cyclic_pair_josephson(p))
        ),
    )
)
def test_pair_stack_equals_single_state_ladders(accurate, drive):
    s, pair = drive
    members = (pair.psi_plus, pair.psi_minus)
    stacked = phases.decompose(s, np.stack(members), accurate)
    assert isinstance(stacked, tuple) and len(stacked) == 2
    for psi, part in zip(members, stacked):
        single = phases.decompose(s, psi, accurate)
        assert part == single
        assert np.array_equal(part.bloch, single.bloch)
        # the path starts at psi's Bloch vector and closes for a cyclic state
        assert np.max(np.abs(part.bloch[0] - bloch_of_state(psi))) <= 1e-15
        assert np.max(np.abs(part.bloch[-1] - part.bloch[0])) <= 1e-6
    # the loop matrix comes from the first state's chain
    first = phases.decompose(s, pair.psi_plus, accurate, with_unitary=True)
    fused = phases.decompose(s, np.stack(members), accurate, with_unitary=True)
    for part in fused:
        assert part.unitary is fused[0].unitary
    assert fused[0] == first and np.array_equal(fused[0].unitary, first.unitary)


@given(p=nmr_params)
def test_total_unitary_is_unitary(accurate, p):
    assert unitarity_defect(total_unitary(fields.nmr_schedule(p), accurate)) <= 1e-12


@given(p=nmr_params)
def test_cyclic_pair_returns_to_itself(accurate, p):
    pair = phases.cyclic_pair_nmr(p)
    assert phases.verify_cyclic(fields.nmr_schedule(p), pair, accurate) <= 1e-8


@given(
    e1=st.floats(0.5, 2.0),
    ratio=st.floats(0.2, 0.8),
    e_ch=st.floats(10.0, 40.0),
    cos_chi0=st.floats(-0.9, 0.9),
    tau_e1=st.floats(3.0, 30.0),
)
def test_charge_pair_returns_to_itself(accurate, e1, ratio, e_ch, cos_chi0, tau_e1):
    jp = fields.JosephsonParams(
        e1=e1,
        e2=ratio * e1,
        e_ch=e_ch,
        chi0=float(np.arccos(cos_chi0)),
        omega=2.0 * np.pi * e1 / tau_e1,
    )
    pair = phases.cyclic_pair_josephson(jp)
    # the bound of the verify row cyclicity_charge_drive
    assert phases.verify_cyclic(fields.josephson_schedule(jp), pair, accurate) <= 1e-8


@contextmanager
def _stepped():
    """Record (schedule, step count) of every CF4 step-unitary build inside
    the block."""
    counts = []
    orig = evolve._step_unitaries

    def counting(s, ts):
        counts.append((s, len(ts) - 1))
        return orig(s, ts)

    evolve._step_unitaries = counting
    try:
        yield counts
    finally:
        evolve._step_unitaries = orig


def _assert_fused_ladder(s, psi, cfg):
    """The matrix-carrying ladder agrees with the plain decomposition and
    with ``total_unitary``."""
    with _stepped() as fused_rungs:
        fused = phases.decompose(s, psi, cfg, with_unitary=True)
    with _stepped() as plain_rungs:
        plain = phases.decompose(s, psi, cfg)
    assert plain.unitary is None
    # The extra matrix criterion can only add rungs, never stop earlier.
    assert fused_rungs[: len(plain_rungs)] == plain_rungs
    if fused_rungs == plain_rungs:
        assert fused == plain
    assert angle_dist(fused.total, plain.total) <= cfg.tolerance
    assert angle_dist(fused.geometric, plain.geometric) <= cfg.tolerance
    assert abs(fused.dynamical - plain.dynamical) <= cfg.tolerance
    assert abs(fused.cyclicity_defect - plain.cyclicity_defect) <= cfg.tolerance
    assert fused.valid == plain.valid
    assert np.max(np.abs(fused.unitary - total_unitary(s, cfg))) <= cfg.tolerance


@given(p=nmr_params)
def test_fused_ladder_matches_separate_ladders(accurate, p):
    _assert_fused_ladder(fields.nmr_schedule(p), phases.cyclic_pair_nmr(p).psi_plus, accurate)


def test_fused_ladder_matches_separate_ladders_on_charge_drive(cfg, accurate):
    # A slow loop on which the matrix criterion needs one rung more than the
    # state and phase criteria, so the two results differ within tolerance.
    jp = verify._josephson_reference(cfg, ratio=400.0)
    pair = phases.cyclic_pair_josephson(jp)
    _assert_fused_ladder(fields.josephson_schedule(jp), pair.psi_plus, accurate)


def test_double_loop_steps_each_rung_once(accurate):
    # a rotated drive has no rotating frame, so both loops climb a ladder
    p = fields.NmrParams(omega0=2.0, omega1=0.9, omega=1.1)
    s = fields.rotate_schedule(fields.nmr_schedule(p), 0.3)
    pair = phases.cyclic_pair(phases.cyclic_pair_nmr(p).chi + 0.3)
    with _stepped() as seen:
        report = gates.synthesize_double_loop(s, pair, accurate)
    assert report.loop1["route"] == report.loop2["route"] == "cf4_ladder"
    assert seen
    assert len(set(seen)) == len(seen)


@contextmanager
def _kept_steps():
    """Keep every CF4 step array built inside the block, in build order."""
    kept = []
    orig = evolve._step_unitaries

    def keeping(s, ts):
        kept.append(orig(s, ts))
        return kept[-1]

    evolve._step_unitaries = keeping
    try:
        yield kept
    finally:
        evolve._step_unitaries = orig


@given(
    drive=st.one_of(
        nmr_params.map(fields.nmr_schedule),
        charge_drives.map(fields.josephson_schedule),
    ),
    theta=st.floats(0.0, np.pi),
    phi=st.floats(-np.pi, np.pi),
)
def test_loop_matrix_from_the_chain_equals_the_product_tree(accurate, drive, theta, phi):
    # the ladder's last rung is the accepted one; its steps multiplied by
    # the pairwise tree give the matrix the ladder used to carry
    psi = state_of_angles(theta, phi)
    with _kept_steps() as kept:
        d = phases.decompose(drive, psi, accurate, with_unitary=True)
    tree = evolve._unitary_projection(evolve._chain_product(kept[-1]))
    assert np.max(np.abs(d.unitary - tree)) <= 1e-13


@given(
    drive=st.one_of(
        nmr_params.map(lambda p: (fields.nmr_schedule(p), phases.cyclic_pair_nmr(p))),
        charge_drives.map(
            lambda p: (fields.josephson_schedule(p), phases.cyclic_pair_josephson(p))
        ),
    )
)
def test_closed_form_route_matches_the_ladder(accurate, drive):
    s, pair = drive
    for loop in (s, fields.reversed_schedule(s)):
        for psi in (pair.psi_plus, pair.psi_minus):
            routed = phases.decompose_loop(loop, psi, accurate, with_unitary=True)
            ladder = phases.decompose(loop, psi, accurate, with_unitary=True)
            assert routed.route == "rotating_frame" and ladder.route == "cf4_ladder"
            # the bounds of the verify rows route_vs_ladder_*
            assert np.max(np.abs(routed.unitary - ladder.unitary)) <= 1e-9
            bound = 10.0 * accurate.tolerance + 1e-11 * abs(ladder.dynamical)
            assert angle_dist(routed.total, ladder.total) <= bound
            assert abs(routed.dynamical - ladder.dynamical) <= bound
            assert angle_dist(routed.geometric, ladder.geometric) <= bound
            assert routed.valid and routed.cyclicity_defect <= 1e-12


# chi = atan2(omega0, z + omega) below pi/2 (z + omega >= 0.5) and above it
# (z + omega <= -0.5), with the coupling shift z = omega1 +- j
framed_nmr = st.builds(
    fields.NmrParams,
    omega0=st.floats(0.3, 4.0),
    omega1=st.one_of(st.floats(0.5, 3.0), st.floats(-7.0, -4.0)),
    omega=st.floats(0.5, 3.0),
    j=st.floats(-0.5, 0.5),
    delta=st.integers(0, 1),
)


@given(
    p=framed_nmr,
    theta=st.floats(0.2, np.pi - 0.2),
    # off the xz plane, where the z . (n x r0) term of the dynamical phase
    # is nonzero: the echo's mid state cannot tell its sign
    phi=st.one_of(st.floats(0.3, np.pi - 0.3), st.floats(-np.pi + 0.3, -0.3)),
)
def test_constant_frame_route_matches_the_ladder_from_any_state(accurate, p, theta, phi):
    s, psi = fields.nmr_schedule(p), state_of_angles(theta, phi)
    for loop in (
        s,
        fields.reversed_schedule(s),
        fields.negated_schedule(s),
        fields.time_reversed_schedule(s),
    ):
        routed = phases.decompose_loop(loop, psi, accurate, with_unitary=True)
        ladder = phases.decompose(loop, psi, accurate, with_unitary=True)
        assert routed.route == "rotating_frame" and ladder.route == "cf4_ladder"
        # the bounds of the verify rows route_vs_ladder_*
        assert np.max(np.abs(routed.unitary - ladder.unitary)) <= 1e-9
        bound = 10.0 * accurate.tolerance + 1e-11 * abs(ladder.dynamical)
        assert angle_dist(routed.total, ladder.total) <= bound
        assert abs(routed.dynamical - ladder.dynamical) <= bound
        assert angle_dist(routed.geometric, ladder.geometric) <= bound
        assert abs(routed.cyclicity_defect - ladder.cyclicity_defect) <= 1e-9


shifted_charge_drives = st.builds(
    lambda p, e_i, nxc, delta: replace(p, e_i=e_i, nxc=nxc, delta=delta),
    charge_drives,
    e_i=st.floats(-1.0, 1.0),
    nxc=st.floats(0.0, 1.0),
    delta=st.integers(0, 1),
)


@given(
    p=shifted_charge_drives,
    theta=st.floats(0.0, np.pi),
    phi=st.floats(-np.pi, np.pi),
)
def test_frame_ladder_matches_the_lab_ladder(accurate, p, theta, phi):
    s, psi = fields.josephson_schedule(p), state_of_angles(theta, phi)
    # a z shift turns the in-frame field as E_J runs through its range, so
    # there the frame ladder may need one rung more than the lab ladder
    spare = 0 if s.frame.axis is not None else 1
    for loop in (
        s,
        fields.negated_schedule(s),
        fields.time_reversed_schedule(s),
        fields.reversed_schedule(s),
    ):
        with _stepped() as frame_rungs:
            framed = phases.decompose(loop, psi, accurate, with_unitary=True, in_frame=True)
        with _stepped() as lab_rungs:
            lab = phases.decompose(loop, psi, accurate, with_unitary=True)
        assert framed.route == "frame_ladder" and framed.bloch is None
        assert len(frame_rungs) <= len(lab_rungs) + spare
        # the bounds of the verify rows route_vs_ladder_*
        assert np.max(np.abs(framed.unitary - lab.unitary)) <= 1e-9
        bound = 10.0 * accurate.tolerance + 1e-11 * abs(lab.dynamical)
        assert angle_dist(framed.total, lab.total) <= bound
        assert abs(framed.dynamical - lab.dynamical) <= bound
        assert angle_dist(framed.geometric, lab.geometric) <= bound
        assert abs(framed.cyclicity_defect - lab.cyclicity_defect) <= bound


@given(
    drive=st.one_of(
        nmr_params.map(fields.nmr_schedule),
        charge_drives.map(fields.josephson_schedule),
    )
)
def test_adiabatic_loop_mean_equals_the_solid_angle(drive):
    for s in (
        drive,
        fields.negated_schedule(drive),
        fields.time_reversed_schedule(drive),
        fields.reversed_schedule(drive),
    ):
        mean, got = phases._adiabatic_mean(s), phases.adiabatic_phase(s)
        if s.frame.axis is None:
            # the charge drive's negated and time-reversed loops: no frame axis
            assert mean is None and got == phases.berry_adiabatic(s)
            continue
        assert got == mean
        # the bound of the verify row adiabatic_mean_vs_solid_angle
        assert angle_dist(mean, phases.berry_adiabatic(s)) <= 1e-12


@given(omega=st.floats(0.5, 3.0), negated=st.booleans())
def test_adiabatic_phase_of_a_vanishing_field_raises_as_the_solid_angle(omega, negated):
    # a frame axis off the z axis keeps |B| >= |m n_x| > 0, so only a loop
    # the mean leaves to the line integral can lose its field direction
    s = fields.nmr_schedule(fields.NmrParams(omega0=0.0, omega1=0.0, omega=omega))
    s = fields.negated_schedule(s) if negated else s
    errors = []
    for fn in (phases.berry_adiabatic, phases.adiabatic_phase):
        with pytest.raises(ValueError) as exc:
            fn(s)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]
