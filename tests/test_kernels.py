"""Whole-array propagation kernels against their per-step references."""

import numpy as np
import pytest

from geomgates import evolve, fields, pauli
from reference import loop_chain, odd_even_prefixes

RNG_SEED = 20240311

SAMPLERS = {
    "nmr": fields.nmr_schedule(fields.NmrParams(omega0=2.0, omega1=0.9, omega=1.1)),
    "charge": fields.josephson_schedule(
        fields.JosephsonParams(e1=1.5625, e2=6.25, e_ch=39.0625, chi0=0.7, omega=0.3)
    ),
}


def _random_su2(rng, n):
    """Steps in the form ``_step_unitaries`` returns: (n, 2) SU(2) pairs, pair-major."""
    return pauli._su2_exp(rng.normal(size=(n, 3)), rng.uniform(0.0, 0.5, size=n))


def _random_unitaries(rng, n):
    """(n, 2, 2) complex SU(2) matrices, as ``expm_pauli`` returns them."""
    return pauli.expm_pauli(rng.normal(size=(n, 3)), rng.uniform(0.0, 0.5, size=n))


def _first_rows(us):
    """The SU(2) pairs (alpha, beta) of 2x2 matrices: a row-major strided view of row 0."""
    return us[:, 0, :]


@pytest.mark.parametrize("d", [2])
@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 3 * 128 + 5])
def test_apply_chain_matches_loop(n, d):
    rng = np.random.default_rng(RNG_SEED + n + d)
    us = _random_unitaries(rng, n)
    psi0 = pauli.normalize(rng.normal(size=d) + 1j * rng.normal(size=d))
    states = evolve._apply_chain(_first_rows(us), psi0)
    assert states.shape == (n + 1, d)
    assert np.array_equal(states[0], psi0)
    assert np.max(np.abs(states - loop_chain(us, psi0))) <= 1e-13


def test_apply_chain_leaves_steps_untouched():
    us = _random_unitaries(np.random.default_rng(RNG_SEED), 300)
    before = us.copy()
    evolve._apply_chain(_first_rows(us), pauli.KET0)
    assert np.array_equal(us, before)


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 3 * 128 + 5, 4097])
def test_su2_chains_match_matmul_loop(n):
    rng = np.random.default_rng(RNG_SEED + n)
    q = _random_su2(rng, n)
    us = pauli._su2_matrix(q)
    psi0 = pauli.normalize(rng.normal(size=2) + 1j * rng.normal(size=2))
    states = evolve._apply_chain(q, psi0)
    assert states.shape == (n + 1, 2)
    assert np.array_equal(states[0], psi0)
    assert np.max(np.abs(states - loop_chain(us, psi0))) <= 1e-13
    product = pauli.ID2
    for u in us:
        product = u @ product
    assert np.max(np.abs(evolve._chain_product(q) - product)) <= 1e-13


def test_su2_chains_leave_steps_untouched():
    q = _random_su2(np.random.default_rng(RNG_SEED), 300)
    before = q.copy()
    evolve._apply_chain(q, pauli.KET0)
    evolve._chain_product(q)
    assert np.array_equal(q, before)


@pytest.mark.parametrize("n", [1, 2, 3, 4095, 4096, 4097])
def test_prefix_scan_equals_recursive_odd_even_scan(n):
    q = _random_su2(np.random.default_rng(RNG_SEED + n), n)
    before = q.copy()
    assert np.array_equal(evolve._su2_prefixes(q), odd_even_prefixes(q))
    assert np.array_equal(q, before)


@pytest.mark.parametrize("n", [1, 4096, 16384])
def test_fixed_states_divide_by_linalg_norm_bitwise(n):
    rng = np.random.default_rng(RNG_SEED + n)
    q = _random_su2(rng, n)
    psi0 = pauli.normalize(rng.normal(size=2) + 1j * rng.normal(size=2))
    chained = evolve._apply_chain(q, psi0)
    expected = chained / np.linalg.norm(chained, axis=1, keepdims=True)
    assert np.array_equal(evolve._fixed_states(q, psi0), expected)


def test_charge_sampler_equals_junction_energy_times_rotation():
    p = fields.JosephsonParams(e1=1.5625, e2=6.25, e_ch=39.0625, chi0=0.7, omega=0.3)
    t = np.linspace(0.0, p.tau, 4097)
    ej = fields.josephson_ej(p, t)
    b = fields.josephson_schedule(p).sample(t)
    assert np.array_equal(b[:, 0], ej * np.cos(p.omega * t))
    assert np.array_equal(b[:, 1], -ej * np.sin(p.omega * t))
    assert np.array_equal(b[:, 2], ej * (np.cos(p.chi0) / np.sin(p.chi0)) + p.omega)
    assert np.array_equal(fields.josephson_schedule(p).sample(t[7]), b[7])


def test_matrix_of_states_maps_the_state_and_its_flip():
    rng = np.random.default_rng(RNG_SEED)
    u = _random_unitaries(rng, 1)[0]
    psi0 = pauli.normalize(rng.normal(size=2) + 1j * rng.normal(size=2))
    assert np.max(np.abs(evolve._matrix_of_states(psi0, u @ psi0) - u)) <= 1e-15


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_steps_are_unit_quaternions(name):
    s = SAMPLERS[name]
    q = evolve._step_unitaries(s, evolve.time_grid(s, 4096))
    assert q.shape == (4096, 2)
    assert q.T.flags.c_contiguous
    # |alpha|^2 + |beta|^2 = w^2 + x^2 + y^2 + z^2
    assert np.max(np.abs(np.sum(q.real**2 + q.imag**2, axis=1) - 1.0)) <= 1e-15


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_steps_equal_product_of_factor_exponentials(name):
    s = SAMPLERS[name]
    # the field at both Gauss nodes of every step, read from the phase
    # table, node 2 mirrored from node 1; every step spans h = tau / n
    _, (c, sn) = evolve._phase_table(4096)
    b1, b2 = s.field(c, sn), s.field(c[::-1], -sn[::-1])
    h = s.period / 4096
    first = pauli.expm_pauli(evolve._A2 * b1 + evolve._A1 * b2, 0.5 * h)
    second = pauli.expm_pauli(evolve._A1 * b1 + evolve._A2 * b2, 0.5 * h)
    got = pauli._su2_matrix(evolve._step_unitaries(s, evolve.time_grid(s, 4096)))
    assert np.max(np.abs(got - second @ first)) <= 1e-15


def test_reduced_bloch_batched_matches_rows():
    rng = np.random.default_rng(RNG_SEED)
    psi = rng.normal(size=(257, 4)) + 1j * rng.normal(size=(257, 4))
    psi /= np.linalg.norm(psi, axis=1)[:, None]
    nc, nt = pauli.reduced_bloch(psi)
    assert nc.shape == nt.shape == (257, 3)
    for i, row in enumerate(psi):
        rc, rt = pauli.reduced_bloch(row)
        assert np.array_equal(nc[i], rc)
        assert np.array_equal(nt[i], rt)


def test_reduced_bloch_rejects_wrong_length():
    with pytest.raises(ValueError):
        pauli.reduced_bloch(np.ones(3, dtype=complex))


def test_expm_pauli_zero_field_is_identity_at_any_scale():
    for s in (0.0, 0.4, -7.0):
        assert np.array_equal(pauli.expm_pauli(np.zeros(3), s), pauli.ID2)
    batch = pauli.expm_pauli(np.zeros((5, 3)), np.linspace(-1.0, 1.0, 5))
    assert np.array_equal(batch, np.broadcast_to(pauli.ID2, (5, 2, 2)))


def test_expm_pauli_shapes_and_unitarity():
    rng = np.random.default_rng(RNG_SEED)
    assert pauli.expm_pauli(np.array([0.3, -0.2, 0.9]), 1.3).shape == (2, 2)
    assert pauli.expm_pauli(np.array([0.0, 0.0, 1.0]), np.array([0.1, 0.2])).shape == (2, 2, 2)
    b = rng.normal(size=(4, 6, 3))
    s = rng.normal(size=(4, 6))
    u = pauli.expm_pauli(b, s)
    assert u.shape == (4, 6, 2, 2)
    for bi, si, ui in zip(b.reshape(-1, 3), s.ravel(), u.reshape(-1, 2, 2)):
        assert pauli.unitarity_defect(ui) <= 1e-14
        assert np.max(np.abs(ui - pauli.expm_pauli(bi, si))) <= 1e-15
        # the generator b . sigma commutes with its own exponential
        gen = np.einsum("k,kij->ij", bi, pauli.PAULI)
        assert np.allclose(ui @ gen, gen @ ui, atol=1e-14)
