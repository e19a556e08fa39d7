"""Physics invariants on random drives (Hypothesis, profile in conftest)."""

from dataclasses import replace

from hypothesis import given
from hypothesis import strategies as st

from geomgates import experiments, fields, phases
from geomgates.evolve import total_unitary
from geomgates.pauli import angle_dist

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
    u = total_unitary(model, accurate)
    for delta in (0, 1):
        pair = phases.cyclic_pair_nmr(replace(p, delta=delta))
        angle = experiments._block_angle(model, pair, delta, accurate)
        expected = experiments._block_total(model, angle, delta)
        assert angle_dist(experiments._dense_total(u, pair, delta), expected) <= 1e-8


@given(p=nmr_params)
def test_pair_members_take_opposite_geometric_phases(accurate, p):
    pair = phases.cyclic_pair_nmr(p)
    g_plus, g_minus = phases.antisymmetry_check(fields.nmr_schedule(p), pair, accurate)
    assert angle_dist(g_plus, -g_minus) <= 1e-9


@given(p=nmr_params)
def test_total_minus_dynamical_follows_loop_phase_law(accurate, p):
    pair = phases.cyclic_pair_nmr(p)
    d = phases.decompose(fields.nmr_schedule(p), pair.psi_plus, accurate)
    assert angle_dist(d.total - d.dynamical, -phases.loop_phase(pair.chi)) <= 1e-9
