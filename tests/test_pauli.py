import numpy as np
import pytest
from scipy.linalg import expm

from geomgates import pauli

RNG_SEED = 20240311


def test_pauli_algebra():
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    for i in range(3):
        for j in range(3):
            prod = pauli.PAULI[i] @ pauli.PAULI[j]
            expect = (i == j) * pauli.ID2 + 1j * sum(
                eps[i, j, k] * pauli.PAULI[k] for k in range(3)
            )
            assert np.allclose(prod, expect, atol=1e-15)


def test_pauli_traceless_hermitian():
    for m in pauli.PAULI:
        assert abs(np.trace(m)) == 0.0
        assert np.allclose(m, m.conj().T)


def test_expm_pauli_matches_scipy():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(50):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(-10.0, 10.0)
        h = axis[0] * pauli.SIGMA_X + axis[1] * pauli.SIGMA_Y + axis[2] * pauli.SIGMA_Z
        direct = expm(1j * angle * h)
        assert np.allclose(pauli.expm_pauli(axis, angle), direct, atol=1e-13)


def test_expm_pauli_zero_angle_is_identity():
    assert np.allclose(pauli.expm_pauli(np.array([0.0, 0.0, 1.0]), 0.0), pauli.ID2)


def test_state_of_angles_round_trip():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(25):
        theta = rng.uniform(0.0, np.pi)
        phi = rng.uniform(-np.pi, np.pi)
        psi = pauli.state_of_angles(theta, phi)
        n = pauli.bloch_of_state(psi)
        expect = np.array(
            [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
        )
        assert np.allclose(n, expect, atol=1e-14)


def test_basis_states_map_to_poles():
    assert np.allclose(pauli.bloch_of_state(pauli.KET0), [0.0, 0.0, 1.0])
    assert np.allclose(pauli.bloch_of_state(pauli.KET1), [0.0, 0.0, -1.0])


def test_wrap_pi_range_and_periodicity():
    rng = np.random.default_rng(RNG_SEED)
    xs = rng.uniform(-50.0, 50.0, size=200)
    w = np.array([pauli.wrap_pi(x) for x in xs])
    assert np.all(w > -np.pi - 1e-12) and np.all(w <= np.pi + 1e-12)
    for x in xs[:20]:
        assert abs(pauli.wrap_pi(x + 6.0 * np.pi) - pauli.wrap_pi(x)) < 1e-9


def test_angle_dist_properties():
    assert pauli.angle_dist(0.1, 0.1 + 2.0 * np.pi) < 1e-12
    assert abs(pauli.angle_dist(np.pi, -np.pi)) < 1e-12
    assert abs(pauli.angle_dist(0.0, 1.0) - 1.0) < 1e-15
    assert pauli.angle_dist(1.0, 0.0) == pauli.angle_dist(0.0, 1.0)


def test_normalize_and_defect():
    psi = np.array([3.0, 4.0j])
    out = pauli.normalize(psi)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-15
    assert pauli.norm_defect(out) < 1e-15
    with pytest.raises(ValueError):
        pauli.assert_normalized(psi)


def test_overlap_phase_reads_relative_phase():
    rng = np.random.default_rng(RNG_SEED)
    psi = pauli.state_of_angles(1.2, 0.3)
    for _ in range(10):
        phi = rng.uniform(-np.pi, np.pi)
        assert abs(pauli.wrap_pi(pauli.overlap_phase(psi, np.exp(1j * phi) * psi) - phi)) < 1e-12


def test_state_fidelity_bounds_and_invariance():
    a = pauli.state_of_angles(0.7, -1.1)
    b = pauli.state_of_angles(2.0, 0.4)
    f = pauli.state_fidelity(a, b)
    assert 0.0 <= f <= 1.0
    assert abs(pauli.state_fidelity(a, np.exp(0.5j) * a) - 1.0) < 1e-15


def test_kron_matches_numpy():
    rng = np.random.default_rng(RNG_SEED)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.allclose(pauli.kron(a, b), np.kron(a, b))


def test_unitarity_defect():
    u = pauli.expm_pauli(np.array([0.0, 1.0, 0.0]), 0.77)
    assert pauli.unitarity_defect(u) < 1e-15


def test_reduced_bloch_of_product_state():
    a = pauli.state_of_angles(0.9, 0.2)
    b = pauli.state_of_angles(2.1, -0.8)
    psi4 = np.kron(a, b)
    left, right = pauli.reduced_bloch(psi4)
    assert np.allclose(left, pauli.bloch_of_state(a), atol=1e-14)
    assert np.allclose(right, pauli.bloch_of_state(b), atol=1e-14)
