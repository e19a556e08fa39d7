"""Whole-array propagation kernels against their per-step references."""

import numpy as np
import pytest

from geomgates import evolve, pauli

RNG_SEED = 20240311


def _loop_chain(us, psi0):
    """Reference: one matrix-vector product per step."""
    states = np.empty((us.shape[0] + 1, psi0.shape[0]), dtype=complex)
    states[0] = psi0
    psi = psi0
    for k in range(us.shape[0]):
        psi = us[k] @ psi
        states[k + 1] = psi
    return states


def _random_unitaries(rng, n, d):
    if d == 2:
        return pauli.expm_pauli(rng.normal(size=(n, 3)), rng.uniform(0.0, 0.5, size=n))
    h = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    w, v = np.linalg.eigh(h + h.conj().swapaxes(-1, -2))
    return np.einsum("nij,nj,nkj->nik", v, np.exp(-0.3j * w), v.conj())


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 3 * 128 + 5])
def test_apply_chain_matches_loop(n, d):
    rng = np.random.default_rng(RNG_SEED + n + d)
    us = _random_unitaries(rng, n, d)
    psi0 = pauli.normalize(rng.normal(size=d) + 1j * rng.normal(size=d))
    states = evolve._apply_chain(us, psi0)
    assert states.shape == (n + 1, d)
    assert np.array_equal(states[0], psi0)
    assert np.max(np.abs(states - _loop_chain(us, psi0))) <= 1e-13


def test_apply_chain_leaves_steps_untouched():
    rng = np.random.default_rng(RNG_SEED)
    us = _random_unitaries(rng, 300, 2)
    before = us.copy()
    evolve._apply_chain(us, pauli.KET0)
    assert np.array_equal(us, before)


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
