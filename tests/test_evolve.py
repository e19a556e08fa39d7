import numpy as np
import pytest
from scipy.linalg import expm

from geomgates import evolve, fields, pauli, phases
from reference import (
    block_trajectory,
    bloch_integrate,
    dense_step_unitaries,
    dense_trajectory,
    loop_chain,
    target_schedule,
)

P = fields.NmrParams(omega0=2.0, omega1=0.9, omega=1.1)
PSI0 = pauli.state_of_angles(1.0, 0.5)


def test_time_grid_covers_one_period():
    s = fields.nmr_schedule(P)
    ts = evolve.time_grid(s, 64)
    assert ts[0] == 0.0
    assert abs(ts[-1] - s.period) < 1e-12
    assert np.all(np.diff(ts) > 0.0)


def test_propagate_matches_oracle_state_and_phase(accurate):
    s = fields.nmr_schedule(P)
    psi = evolve.final_state(s, PSI0, accurate)
    ref = evolve.rotating_frame_oracle(P, PSI0, s.period)
    assert 1.0 - pauli.state_fidelity(psi, ref) < 1e-12
    assert abs(pauli.wrap_pi(pauli.overlap_phase(ref, psi))) < 1e-10


def test_oracle_matches_direct_matrix_exponential():
    # independent route: exp(-i w t sz / 2) exp(-i H' t) on the raw matrices
    t = 0.83
    hrot = -0.5 * (P.omega0 * pauli.SIGMA_X + (P.omega1 + P.omega) * pauli.SIGMA_Z)
    u = expm(-0.5j * P.omega * t * pauli.SIGMA_Z) @ expm(-1j * hrot * t)
    assert np.allclose(evolve.rotating_frame_oracle(P, PSI0, t), u @ PSI0, atol=1e-12)


@pytest.mark.parametrize("n", [16, 18, 4096, 6000])
def test_mirrored_second_node_matches_its_angles(n):
    # node 2 of step k is node 1 of step n - 1 - k mirrored to (c, -s);
    # the reference angles 2 pi (k + c2) / n are taken in long double, and
    # the bound allows for that reference's own rounding
    _, (c, sn) = evolve._phase_table(n)
    ld = np.longdouble
    angles = 2 * (4 * np.arctan(ld(1))) * (np.arange(n, dtype=ld) + ld(evolve._NODES[1])) / n
    bound = 4e-16 + 8 * np.finfo(ld).eps
    assert np.max(np.abs(c[::-1] - np.cos(angles))) <= bound
    assert np.max(np.abs(-sn[::-1] - np.sin(angles))) <= bound


def test_phase_tables_are_read_only_and_bounded():
    grid, node = evolve._phase_table(4096)
    assert grid.shape == (2, 4097) and node.shape == (2, 4096)
    # one shared table per step count
    assert evolve._phase_table(4096)[0] is grid
    for a in (grid, node, grid[0], node[1, ::-1]):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[..., 0] = 0.0
    # a runaway ladder's rungs are built but not kept
    big = 2**17
    assert big > evolve._TABLE_MAX_STEPS
    assert evolve._phase_table(big)[0].shape == (2, big + 1)
    assert big not in evolve._TABLES
    assert max(evolve._TABLES) <= evolve._TABLE_MAX_STEPS


@pytest.mark.parametrize("n", [16, 18, 4096])
def test_loop_mean_averages_over_the_open_grid(n):
    # the periodic trapezoid rule is exact for trig polynomials of degree
    # below n, and averages each output column along the first axis
    def f(c, s):
        return np.stack([np.ones_like(c), c * c, s * c**3, 3.0 + c * s], axis=-1)

    got = evolve.loop_mean(f, n)
    assert got.shape == (4,)
    assert np.max(np.abs(got - [1.0, 0.5, 0.0, 3.0])) <= 1e-14
    # the closing point is left out: a function that reads 1 only at angle 0
    assert evolve.loop_mean(lambda c, s: (c == 1.0) * 1.0, n) == 1.0 / n


def test_rungs_never_sample_the_field_in_time(monkeypatch, quick):
    nmr = fields.nmr_schedule(P)
    jp = fields.JosephsonParams(e1=1.5625, e2=6.25, e_ch=39.0625, chi0=0.7, omega=0.9)
    charge = fields.josephson_schedule(jp)

    def refuse(self, t):
        raise AssertionError(f"{self.label} sampled at times")

    monkeypatch.setattr(fields.FieldSchedule, "sample", refuse)
    for s in (nmr, fields.reversed_schedule(nmr), charge, fields.rotate_schedule(charge, 0.3)):
        phases.decompose(s, [PSI0, pauli.KET1], quick, with_unitary=True)
        evolve.total_unitary(s, quick)
        phases.berry_adiabatic(s)
        phases.adiabatic_phase(s)
    assert phases.verify_cone(charge, jp.chi0, jp.omega) <= 1e-12
    phases.cyclic_pair_josephson(jp)


def test_fourth_order_convergence_against_oracle():
    s = fields.nmr_schedule(P)
    ref = evolve.rotating_frame_oracle(P, PSI0, s.period)

    def err(steps):
        us = evolve._step_unitaries(s, evolve.time_grid(s, steps))
        states = evolve._fixed_states(us, PSI0)
        return float(np.max(np.abs(states[-1] - ref)))

    e1, e2 = err(128), err(256)
    assert e1 / e2 >= 14.0


def test_trajectory_norms_and_bloch_consistency(quick):
    s = fields.nmr_schedule(P)
    path = phases.decompose(s, PSI0, quick).bloch
    assert np.max(np.abs(np.linalg.norm(path, axis=1) - 1.0)) < 1e-12
    # the path lies on the accepted rung's grid: 512 * 2**r steps
    assert (len(path) - 1) % quick.steps_per_period == 0
    assert np.max(np.abs(path[0] - pauli.bloch_of_state(PSI0))) <= 1e-15
    fin = evolve.final_state(s, PSI0, quick)
    assert np.max(np.abs(path[-1] - pauli.bloch_of_state(fin))) < 1e-6


def test_total_unitary_reproduces_final_states(accurate):
    s = fields.nmr_schedule(P)
    u = evolve.total_unitary(s, accurate)
    assert pauli.unitarity_defect(u) < 1e-12
    for psi0 in (pauli.KET0, PSI0):
        direct = evolve.final_state(s, psi0, accurate)
        assert np.max(np.abs(u @ psi0 - direct)) < 1e-9


def test_bloch_integrate_follows_state_propagation(quick):
    s = fields.nmr_schedule(P)
    quantum = phases.decompose(s, PSI0, quick).bloch
    _, path = bloch_integrate(s, pauli.bloch_of_state(PSI0), quick)
    assert np.max(np.abs(path[-1] - quantum[-1])) < 1e-6


def test_propagator_config_validation():
    with pytest.raises(ValueError):
        evolve.PropagatorConfig(steps_per_period=8)
    with pytest.raises(ValueError, match="even"):
        evolve.PropagatorConfig(steps_per_period=17)
    with pytest.raises(ValueError):
        evolve.PropagatorConfig(tolerance=float("inf"))
    with pytest.raises(ValueError):
        evolve.PropagatorConfig(tolerance=-1.0)


def test_propagate_rejects_unnormalized_state(quick):
    s = fields.nmr_schedule(P)
    with pytest.raises(ValueError):
        phases.decompose(s, np.array([1.0, 1.0]), quick)
    # every member of a stack is checked, and a stack holds (2,) states only
    with pytest.raises(ValueError):
        phases.decompose(s, [PSI0, np.array([1.0, 1.0])], quick)
    with pytest.raises(ValueError):
        phases.decompose(s, np.full(4, 0.5), quick)


def _two_qubit_case():
    base = fields.NmrParams(omega0=2.0, omega1=0.9, omega=1.1, j=0.35)
    return fields.nmr_two_qubit(base, omega1_control=2.4)


def test_two_qubit_block_equals_dense(accurate):
    model = _two_qubit_case()
    psi4 = pauli.normalize(np.kron(pauli.KET1, PSI0))
    blk = block_trajectory(model, psi4, accurate)[1][-1]
    dense = dense_trajectory(model, psi4, accurate)[1][-1]
    assert 1.0 - abs(np.vdot(blk, dense)) ** 2 < 1e-12
    # including the global phase
    assert np.max(np.abs(blk - dense)) < 1e-6


@pytest.mark.parametrize("drive_on_control", [False, True])
@pytest.mark.parametrize("omega1_control", [0.9, 2.4])
def test_dense_propagator_matches_dense_trajectories(accurate, omega1_control, drive_on_control):
    base = fields.NmrParams(omega0=2.0, omega1=0.9, omega=1.1, j=0.35)
    model = fields.nmr_two_qubit(base, omega1_control, drive_on_control=drive_on_control)
    u = evolve.two_qubit_unitary(model)
    for control in (pauli.KET0, pauli.KET1):
        psi4 = np.kron(control, PSI0)
        _, states = dense_trajectory(model, psi4, accurate)
        assert np.max(np.abs(u @ psi4 - states[-1])) < 1e-9


def test_quiet_model_propagator_conserves_control_z():
    u = evolve.two_qubit_unitary(_two_qubit_case())
    assert u.shape == (4, 4)
    assert pauli.unitarity_defect(u) < 1e-12
    assert np.max(np.abs(u[:2, 2:])) <= 1e-12
    assert np.max(np.abs(u[2:, :2])) <= 1e-12


def _decoupled_case():
    """Driven control, j = 0: the exact answer is the product of oracles."""
    base = fields.NmrParams(omega0=2.0, omega1=0.9, omega=1.1, j=0.0)
    model = fields.nmr_two_qubit(base, omega1_control=2.4, drive_on_control=True)
    a = pauli.state_of_angles(0.4, -0.2)
    ref_c = evolve.rotating_frame_oracle(
        fields.NmrParams(omega0=2.0, omega1=2.4, omega=1.1), a, model.period
    )
    ref_t = evolve.rotating_frame_oracle(base, PSI0, model.period)
    return model, np.kron(a, PSI0), np.kron(ref_c, ref_t)


def test_two_qubit_decoupled_is_product_evolution(accurate):
    model, psi4, ref = _decoupled_case()
    _, states = dense_trajectory(model, psi4, accurate)
    assert np.max(np.abs(states[-1] - ref)) < 1e-9
    assert np.max(np.abs(evolve.two_qubit_unitary(model) @ psi4 - ref)) < 1e-12


def test_dense_steps_are_fourth_order():
    model, psi4, ref = _decoupled_case()

    def err(steps):
        ts = evolve.time_grid(target_schedule(model), steps)
        states = loop_chain(dense_step_unitaries(model, ts), psi4)
        return float(np.max(np.abs(states[-1] - ref)))

    e64, e128, e256 = err(64), err(128), err(256)
    assert e64 / e128 >= 14.0
    assert e128 / e256 >= 14.0


def test_two_qubit_block_requires_quiet_control(accurate):
    base = fields.NmrParams(omega0=2.0, omega1=0.9, omega=1.1, j=0.35)
    model = fields.nmr_two_qubit(base, omega1_control=2.4, drive_on_control=True)
    psi4 = np.kron(pauli.KET0, PSI0)
    with pytest.raises(ValueError):
        block_trajectory(model, psi4, accurate)
    with pytest.raises(ValueError):
        block_trajectory(model, PSI0, accurate)
