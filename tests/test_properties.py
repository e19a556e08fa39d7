"""Physics invariants on random drives (Hypothesis, profile in conftest)."""

from dataclasses import replace

from hypothesis import given
from hypothesis import strategies as st

from geomgates import experiments, fields, phases
from geomgates.evolve import total_unitary
from geomgates.pauli import angle_dist


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
