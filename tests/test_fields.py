from dataclasses import replace

import numpy as np
import pytest

from geomgates import evolve, fields, pauli
from reference import control_field, h4, target_schedule

P = fields.NmrParams(omega0=2.0, omega1=0.7, omega=1.3, j=0.4, delta=1)
JP = fields.JosephsonParams(
    e1=1.5625, e2=6.25, e_ch=39.0625, chi0=float(np.arccos(0.75)), omega=0.9
)


def test_nmr_schedule_samples_rotating_field():
    s = fields.nmr_schedule(fields.NmrParams(omega0=2.0, omega1=0.7, omega=1.3))
    ts = np.linspace(0.0, s.period, 17)
    b = s.sample(ts)
    assert np.allclose(b[:, 0], 2.0 * np.cos(1.3 * ts), atol=1e-14)
    assert np.allclose(b[:, 1], 2.0 * np.sin(1.3 * ts), atol=1e-14)
    assert np.allclose(b[:, 2], 0.7, atol=1e-15)
    assert abs(s.period - 2.0 * np.pi / 1.3) < 1e-15


def _with_transforms(s):
    return (
        s,
        fields.negated_schedule(s),
        fields.rotate_schedule(s, 0.7),
        fields.time_reversed_schedule(s),
        fields.reversed_schedule(s),
    )


def test_sample_reads_the_field_at_the_drive_angle():
    ts = np.linspace(-0.3, 11.0, 37)
    for base in (fields.nmr_schedule(P), fields.josephson_schedule(JP)):
        for s in _with_transforms(base):
            for t in (ts, 0.42):
                wt = s.omega * np.asarray(t)
                assert np.array_equal(s.sample(t), s.field(np.cos(wt), np.sin(wt)))
            assert s.period == 2.0 * np.pi / base.omega and s.omega == base.omega
    # the NMR sampler keeps its operation order: omega0 cos wt, omega0 sin wt
    b = fields.nmr_schedule(P).sample(ts)
    assert np.array_equal(b[:, 0], np.cos(P.omega * ts) * P.omega0)
    assert np.array_equal(b[:, 1], np.sin(P.omega * ts) * P.omega0)


def test_conditional_schedule_shifts_z_by_coupling():
    down = fields.nmr_schedule(replace(P, delta=0))
    up = fields.nmr_schedule(replace(P, delta=1))
    t = np.array([0.3])
    assert abs(down.sample(t)[0, 2] - (0.7 - 0.4)) < 1e-14
    assert abs(up.sample(t)[0, 2] - (0.7 + 0.4)) < 1e-14
    assert abs(P.z_effective - (0.7 + 0.4)) < 1e-15
    assert abs(P.tau - 2.0 * np.pi / 1.3) < 1e-15


def test_josephson_schedule_applies_conditional_shift():
    ts = np.linspace(0.0, JP.tau, 9)
    base = fields.josephson_schedule(JP)
    # no shift: the designed constant-cone drive, bit for bit
    for quiet in (replace(JP, e_i=0.5, nxc=1.0, delta=1), replace(JP, nxc=0.3)):
        s = fields.josephson_schedule(quiet)
        assert np.array_equal(s.sample(ts), base.sample(ts)) and s.label == base.label
    shifted = fields.josephson_schedule(replace(JP, e_i=0.5, nxc=0.2, delta=1))
    want = base.sample(ts)
    want[:, 2] += 0.5 * (0.2 - 1.0)
    assert np.array_equal(shifted.sample(ts), want)
    assert shifted.label == base.label + " + z_shift(-0.4)"


def test_schedule_closes_on_itself():
    for s in (fields.nmr_schedule(P), fields.josephson_schedule(JP)):
        assert np.max(np.abs(s.sample(s.period) - s.sample(0.0))) < 1e-12


def test_josephson_coupling_extremes():
    # the tunable coupling runs between |e1 - e2| and e1 + e2
    assert abs(fields.josephson_ej(JP, 0.0) - (JP.e1 + JP.e2)) < 1e-12
    quarter = 0.25 * JP.tau
    assert abs(fields.josephson_ej(JP, quarter) - abs(JP.e1 - JP.e2)) < 1e-10
    assert JP.e_plus == JP.e1 + JP.e2
    assert JP.e_minus == JP.e1 - JP.e2


def test_josephson_schedule_holds_cone_angle():
    s = fields.josephson_schedule(JP)
    ts = np.linspace(0.0, s.period, 211, endpoint=False)
    b = s.sample(ts)
    eperp = np.hypot(b[:, 0], b[:, 1])
    chi = np.arctan2(eperp, b[:, 2] - JP.omega)
    assert np.max(np.abs(chi - JP.chi0)) < 1e-12
    # transverse part winds clockwise: phase angle decreases
    phases = np.unwrap(np.arctan2(b[:, 1], b[:, 0]))
    assert phases[-1] < phases[0]


@pytest.mark.parametrize("e1, e2", [(1.5625, 6.25), (6.25, 1.5625)])
def test_josephson_flux_and_charge_realize_schedule(e1, e2):
    p = fields.JosephsonParams(e1=e1, e2=e2, e_ch=39.0625, chi0=JP.chi0, omega=0.9)
    s = fields.josephson_schedule(p)
    ts = np.linspace(0.0, s.period, 1001)
    b = s.sample(ts)
    beta = fields.josephson_flux_phase(p, ts)
    nx = fields.josephson_offset_charge(p, ts)
    # the junction pair e1 e^{i beta} + e2 e^{-i beta} gives Bx - i By
    junctions = e1 * np.exp(1j * beta) + e2 * np.exp(-1j * beta)
    assert np.max(np.abs(junctions - (b[:, 0] - 1j * b[:, 1]))) <= 1e-12
    assert np.max(np.abs(p.e_ch * (1.0 - 2.0 * nx) - b[:, 2])) <= 1e-12
    # continuous: no branch jumps, one full turn against sign(e1 - e2)
    assert abs(beta[0]) <= 1e-12
    assert abs(beta[-1] - np.sign(e1 - e2) * 2.0 * np.pi) <= 1e-12
    assert np.max(np.abs(np.diff(beta))) < 0.1


def test_rotate_schedule_applies_rigid_y_rotation():
    s = fields.nmr_schedule(P)
    dchi = 0.6
    r = fields.rotate_schedule(s, dchi)
    c, sn = np.cos(dchi), np.sin(dchi)
    rot = np.array([[c, 0.0, sn], [0.0, 1.0, 0.0], [-sn, 0.0, c]])
    ts = np.linspace(0.0, s.period, 13)
    assert np.allclose(r.sample(ts), s.sample(ts) @ rot.T, atol=1e-13)
    assert abs(r.period - s.period) < 1e-15


def test_negated_and_reversed_relations():
    s = fields.nmr_schedule(P)
    ts = np.linspace(0.0, s.period, 13)
    assert np.allclose(fields.negated_schedule(s).sample(ts), -s.sample(ts))
    rev = fields.time_reversed_schedule(s)
    assert np.allclose(rev.sample(ts), s.sample(s.period - ts), atol=1e-13)
    both = fields.reversed_schedule(s)
    assert np.allclose(both.sample(ts), -s.sample(s.period - ts), atol=1e-13)


def test_two_qubit_model_matches_explicit_kron():
    base = fields.NmrParams(omega0=2.0, omega1=0.7, omega=1.3, j=0.4)
    model = fields.nmr_two_qubit(base, omega1_control=3.0, drive_on_control=True)
    t = np.array([0.37])
    bt = target_schedule(model).sample(t)[0]
    bc = control_field(model, t)[0]

    def h2(b):
        return -0.5 * (
            b[0] * pauli.SIGMA_X + b[1] * pauli.SIGMA_Y + b[2] * pauli.SIGMA_Z
        )

    expect = (
        np.kron(h2(bc), pauli.ID2)
        + np.kron(pauli.ID2, h2(bt))
        + 0.5 * base.j * np.kron(pauli.SIGMA_Z, pauli.SIGMA_Z)
    )
    assert np.allclose(h4(model, t)[0], expect, atol=1e-14)
    assert abs(model.period - target_schedule(model).period) < 1e-15


def test_two_qubit_block_schedule_and_energy():
    base = fields.NmrParams(omega0=2.0, omega1=0.7, omega=1.3, j=0.4)
    model = fields.nmr_two_qubit(base, omega1_control=3.0)
    t = np.array([0.11])
    for delta in (0, 1):
        blk = model.block_schedule(delta)
        z = 0.7 + (2 * delta - 1) * 0.4
        assert abs(blk.sample(t)[0, 2] - z) < 1e-14
        # control energy: -(1/2) z_c sz eigenvalue for this block
        sz = 1.0 - 2.0 * delta
        assert abs(model.block_energy(delta) - (-0.5 * 3.0 * sz)) < 1e-14


def test_undriven_control_has_no_transverse_field():
    base = fields.NmrParams(omega0=2.0, omega1=0.7, omega=1.3, j=0.4)
    quiet = fields.nmr_two_qubit(base, omega1_control=3.0, drive_on_control=False)
    driven = fields.nmr_two_qubit(base, omega1_control=3.0, drive_on_control=True)
    ts = np.linspace(0.0, quiet.period, 7)
    assert np.allclose(control_field(quiet, ts)[:, :2], 0.0)
    assert np.max(np.abs(control_field(driven, ts)[:, :2])) > 1.0


def test_nmr_params_validation():
    # verify's zero_field_identity row propagates this drive
    fields.NmrParams(omega0=0.0, omega1=0.0, omega=1.0)
    with pytest.raises(ValueError):
        fields.NmrParams(omega0=1.0, omega1=1.0, omega=0.0)
    with pytest.raises(ValueError):
        fields.NmrParams(omega0=1.0, omega1=1.0, omega=1.0, delta=2)


def test_josephson_params_validation():
    with pytest.raises(ValueError):
        fields.JosephsonParams(e1=1.0, e2=1.0, e_ch=10.0, chi0=0.5, omega=0.0)
    with pytest.raises(ValueError):
        fields.JosephsonParams(e1=1.0, e2=2.0, e_ch=10.0, chi0=0.0, omega=1.0)
    for e_ch in (0.0, -39.0):
        with pytest.raises(ValueError, match="e_ch must be positive"):
            fields.JosephsonParams(e1=1.0, e2=2.0, e_ch=e_ch, chi0=0.5, omega=1.0)


# 1e-320 is positive and finite, but its period 2 pi / omega overflows
@pytest.mark.parametrize("omega", [0.0, -1.3, float("inf"), float("nan"), 1e-320])
def test_schedule_needs_a_positive_finite_drive_frequency(omega):
    with pytest.raises(ValueError, match="drive frequency"):
        fields.FieldSchedule(field=fields.nmr_schedule(P).field, omega=omega, label="bad")


_NMR_KW = dict(omega0=2.0, omega1=0.7, omega=1.3, j=0.4)
_CHARGE_KW = dict(e1=1.5625, e2=6.25, e_ch=39.0625, chi0=0.7, omega=0.9, e_i=0.5, nxc=0.2)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "cls, kw, name",
    [(fields.NmrParams, _NMR_KW, name) for name in _NMR_KW]
    + [(fields.JosephsonParams, _CHARGE_KW, name) for name in _CHARGE_KW],
)
def test_params_reject_non_finite_values(cls, kw, name, bad):
    cls(**kw)
    with pytest.raises(ValueError):
        cls(**dict(kw, **{name: bad}))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: fields.NmrParams(omega0=2.0, omega1=0.7, omega=1e-320), "period"),
        (lambda: fields.NmrParams(omega0=1e200, omega1=0.7, omega=1.3), "drive field"),
        # the rotating-frame field omega0^2 + (z + omega)^2 overflows
        (lambda: fields.NmrParams(omega0=2.0, omega1=0.7, omega=1e300), "drive field"),
        (lambda: replace(JP, e1=1e300), "junction energies overflow"),
        (lambda: replace(JP, omega=1e300), "drive field"),
        (lambda: replace(JP, chi0=1e-300), "drive field"),
        (lambda: fields.JosephsonParams.from_cos_chi0(1.0, e1=1.0, e2=2.0, e_ch=9.0, omega=1.0),
         "cos_chi0 must lie strictly inside"),
    ],
    ids=["nmr-period", "nmr-lab-field", "nmr-frame-field", "junction", "charge-field",
         "charge-cone", "cos-chi0"],
)
def test_params_reject_overflowing_drives(make, message):
    with pytest.raises(ValueError, match=message):
        make()


# E_J spans [2e153, 4e153] and cot chi0 = 2, so |B|^2 reaches the float
# maximum near a z shift of -1.73e154 at the low end of the range, and of
# 4.8e153 at the high end; each pair sits on either side of that edge
_EDGE = dict(e1=1e153, e2=3e153, e_ch=1.0, chi0=float(np.arctan2(1.0, 2.0)), omega=1.0, nxc=1.0)


@pytest.mark.parametrize(
    "inside, outside, end",
    [(-1.70e154, -1.75e154, "low"), (4.5e153, 5.0e153, "high")],
    ids=["low-end", "high-end"],
)
def test_charge_field_overflow_edge_at_each_end_of_the_junction_range(inside, outside, end):
    ends = {"low": 2e153, "high": 4e153}

    def b2(e_j, shift):
        z = 2.0 * e_j + 1.0 + shift
        return e_j * e_j + z * z

    # the named end binds: only its |B|^2 overflows outside the edge
    other = ends["high" if end == "low" else "low"]
    assert b2(ends[end], inside) < float("inf") and b2(other, outside) < float("inf")
    assert b2(ends[end], outside) == float("inf")
    fields.JosephsonParams(**_EDGE, e_i=inside)
    with pytest.raises(ValueError, match="the drive field overflows a float"):
        fields.JosephsonParams(**_EDGE, e_i=outside)


@pytest.mark.parametrize(
    "e1, e2, e_ch",
    [(1e-307, 4e-307, 5e-307), (1e-170, 4e-170, 5e-170), (3e-160, 1e-160, 1e-150)],
    ids=["subnormal-energies", "squares-to-zero", "difference-squared-denormal"],
)
def test_params_reject_underflowing_junction_energies(e1, e2, e_ch):
    # (e1 - e2)^2 underflows, so E_J would read 0/0 or lose its digits
    with pytest.raises(ValueError, match="junction energies underflow a float"):
        fields.JosephsonParams.from_cos_chi0(0.75, e1=e1, e2=e2, e_ch=e_ch, omega=e1)


def test_small_junction_energies_with_normal_squares_are_kept():
    p = fields.JosephsonParams.from_cos_chi0(0.75, e1=2e-150, e2=1e-150, e_ch=1e-148, omega=1e-150)
    (c, s), _ = evolve._phase_table(64)
    ej = fields._josephson_ej(p, c, s)
    assert np.all(np.isfinite(ej))
    assert np.all((ej >= 0.999 * abs(p.e_minus)) & (ej <= 1.001 * p.e_plus))


def test_cone_angle_conversion_matches_arccos():
    p = fields.JosephsonParams.from_cos_chi0(0.75, e1=1.5625, e2=6.25, e_ch=39.0625, omega=0.9)
    assert p.chi0 == float(np.arccos(0.75))
