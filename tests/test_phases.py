import re

import numpy as np
import pytest

from geomgates import evolve, fields, pauli, phases

P = fields.NmrParams(omega0=2.0, omega1=0.9, omega=1.1)
JP = fields.JosephsonParams(
    e1=1.5625, e2=6.25, e_ch=39.0625, chi0=float(np.arccos(0.75)), omega=0.9
)


def _rotating_frame_closed_forms(p):
    """Per-period total, dynamical, geometric phases of the aligned member."""
    z = p.z_effective
    omega_eff = np.hypot(p.omega0, z + p.omega)
    total = np.pi + np.pi * omega_eff / p.omega
    dynamical = (np.pi / p.omega) * (p.omega0**2 + z**2 + z * p.omega) / omega_eff
    chi = np.arctan2(p.omega0, z + p.omega)
    return total, dynamical, -phases.loop_phase(chi)


def test_cyclic_pair_geometry():
    pair = phases.cyclic_pair(0.8)
    n_plus = pauli.bloch_of_state(pair.psi_plus)
    n_minus = pauli.bloch_of_state(pair.psi_minus)
    assert np.allclose(n_plus, [np.sin(0.8), 0.0, np.cos(0.8)], atol=1e-14)
    assert np.allclose(n_minus, -n_plus, atol=1e-14)
    assert abs(np.vdot(pair.psi_plus, pair.psi_minus)) < 1e-15
    assert np.allclose(pair.n0, n_plus)


def test_cyclic_pair_nmr_cone_angle():
    pair = phases.cyclic_pair_nmr(P)
    assert abs(pair.chi - np.arctan2(2.0, 0.9 + 1.1)) < 1e-14


def test_verify_cone_accepts_designed_drive_and_flags_shifted():
    s = fields.josephson_schedule(JP)
    assert phases.verify_cone(s, JP.chi0, JP.omega) < 1e-12
    shifted = fields.JosephsonParams(
        e1=1.5625, e2=6.25, e_ch=39.0625, chi0=float(np.arccos(0.75)), omega=0.9,
        e_i=1.0, nxc=0.0, delta=1,
    )
    with pytest.raises(ValueError):
        phases.cyclic_pair_josephson(shifted)
    pair = phases.cyclic_pair_josephson(JP)
    assert abs(pair.chi - JP.chi0) < 1e-15


def test_verify_cyclic_small_for_true_pair_large_for_wrong(accurate):
    s = fields.nmr_schedule(P)
    pair = phases.cyclic_pair_nmr(P)
    assert phases.verify_cyclic(s, pair, accurate) < 1e-10
    wrong = phases.cyclic_pair(pair.chi + 0.4)
    assert phases.verify_cyclic(s, wrong, accurate) > 1e-3


def test_decompose_matches_rotating_frame_closed_forms(accurate):
    for p in (P, fields.NmrParams(omega0=7.745966692414834, omega1=0.8, omega=2.0)):
        s = fields.nmr_schedule(p)
        pair = phases.cyclic_pair_nmr(p)
        d = phases.decompose(s, pair.psi_plus, accurate)
        total, dynamical, geometric = _rotating_frame_closed_forms(p)
        assert d.valid
        assert pauli.angle_dist(d.total, total) < 1e-9
        assert abs(d.dynamical - dynamical) < 1e-8
        assert pauli.angle_dist(d.geometric, geometric) < 1e-8
        assert abs(pauli.wrap_pi(d.total - d.dynamical) - d.geometric) < 1e-12


def test_decompose_flags_noncyclic_state(quick):
    s = fields.nmr_schedule(P)
    d = phases.decompose(s, pauli.KET0, quick)
    assert not d.valid
    assert d.cyclicity_defect > 1e-3


def test_decompose_nonconvergence_names_both_criteria():
    s = fields.nmr_schedule(P)
    cfg = evolve.PropagatorConfig(
        steps_per_period=16, tolerance=1e-300, max_refinements=2
    )
    with pytest.raises(evolve.NonConvergenceError) as info:
        phases.decompose(s, pauli.KET0, cfg)
    msg = str(info.value)
    assert "state change" in msg and "bound 1e-300)" in msg
    # the phase bound is 10 * tolerance plus the quadrature's rounding floor
    match = re.search(r"dynamical-phase change ([^ ]+) rad \(bound ([^ ]+) rad\)", msg)
    assert match
    dyn = phases.decompose(s, pauli.KET0).dynamical
    assert float(match.group(2)) == pytest.approx(1e-11 * abs(dyn), rel=1e-2)


@pytest.mark.parametrize("steps", [16, 4096, 65536])
def test_simpson_matches_scipy_on_smooth_integrand(steps):
    # scipy stays a test-only oracle, beside the scipy.linalg.expm ones
    from scipy.integrate import simpson

    x = np.linspace(0.3, 2.9, steps + 1)
    y = np.exp(np.sin(3.0 * x)) * np.cos(x)
    want = simpson(y, x=x)
    assert abs(phases._simpson(y, x) - want) <= 1e-13 * abs(want)


def test_simpson_is_exact_on_cubics_and_rejects_odd_step_counts():
    x = np.linspace(-1.0, 2.0, 9)
    exact = (2.0**4 - 1.0) / 4.0 - (2.0**3 + 1.0) / 3.0 + 3.0 * 3.0
    got = phases._simpson(x**3 - x**2 + 3.0, x)
    assert abs(got - exact) <= 1e-14 * abs(exact)
    x = np.linspace(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        phases._simpson(np.cos(x), x)


def test_dynamical_phase_static_field(accurate):
    b = 1.7
    s = fields.nmr_schedule(fields.NmrParams(omega0=0.0, omega1=b, omega=2.0))
    got = phases.decompose(s, pauli.KET0, accurate, cyclicity_threshold=np.inf).dynamical
    assert abs(got - 0.5 * b * s.period) < 1e-10


def test_solid_angle_analytic_circle():
    theta = 1.1
    phi = np.linspace(0.0, 2.0 * np.pi, 4001)
    path = np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
         np.full_like(phi, np.cos(theta))],
        axis=-1,
    )
    res = phases.solid_angle(path)
    assert res.winding == 1
    assert abs(res.gamma - (-np.pi * (1.0 - np.cos(theta)))) < 1e-9
    assert abs(res.theta_min - theta) < 1e-12 and abs(res.theta_max - theta) < 1e-12
    rev = phases.solid_angle(path[::-1])
    assert rev.winding == -1
    assert abs(rev.gamma + res.gamma) < 1e-9


def test_solid_angle_rejects_open_path():
    theta = 1.1
    phi = np.linspace(0.0, 1.5 * np.pi, 100)
    path = np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
         np.full_like(phi, np.cos(theta))],
        axis=-1,
    )
    with pytest.raises(ValueError):
        phases.solid_angle(path)


def test_berry_adiabatic_signs():
    # counterclockwise loop at fixed field direction: exact closed form
    s = fields.nmr_schedule(P)
    theta_b = np.arctan2(P.omega0, P.omega1)
    assert abs(phases.berry_adiabatic(s) - (-np.pi * (1.0 - np.cos(theta_b)))) < 1e-9
    # clockwise charge drive: positive, approaching pi (1 - cos chi0) as the
    # drive slows (the cone condition fixes the rotating-frame axis, so the
    # lab field direction only reaches chi0 in the omega -> 0 limit)
    fast = phases.berry_adiabatic(fields.josephson_schedule(JP))
    slow = phases.berry_adiabatic(
        fields.josephson_schedule(
            fields.JosephsonParams(
                e1=JP.e1, e2=JP.e2, e_ch=JP.e_ch, chi0=JP.chi0, omega=0.05
            )
        )
    )
    target = phases.loop_phase(JP.chi0)
    assert fast > 0.0
    assert abs(slow - target) < 0.02
    assert abs(slow - target) < abs(fast - target)


def test_antisymmetry_of_pair_phases(accurate):
    s = fields.nmr_schedule(P)
    pair = phases.cyclic_pair_nmr(P)
    g_plus = phases.decompose(s, pair.psi_plus, accurate).geometric
    g_minus = phases.decompose(s, pair.psi_minus, accurate).geometric
    assert pauli.angle_dist(g_minus, -g_plus) < 1e-10
    assert pauli.angle_dist(g_plus, -phases.loop_phase(pair.chi)) < 1e-8


def test_loop_phase_values():
    assert abs(phases.loop_phase(0.0)) < 1e-15
    assert abs(phases.loop_phase(np.pi / 2.0) - np.pi) < 1e-15
    assert abs(phases.loop_phase(np.arccos(0.75)) - np.pi / 4.0) < 1e-15
    assert abs(phases.loop_phase(np.arccos(0.25)) - 0.75 * np.pi) < 1e-15
