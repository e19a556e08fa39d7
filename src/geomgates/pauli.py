"""Qubit states, Pauli algebra, and Bloch-sphere primitives.

Conventions used throughout the package: hbar = 1, magnetic moment mu = 1,
basis order {|0>, |1>} with sigma_z |0> = +|0>, and two-qubit basis order
{|00>, |01>, |10>, |11>} with the control qubit as the left tensor factor.
Fields are expressed in energy units, so H = -(1/2) B . sigma for one qubit.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "PAULI",
    "ID2",
    "KET0",
    "KET1",
    "NORM_ATOL",
    "UNITARY_ATOL",
    "normalize",
    "norm_defect",
    "assert_normalized",
    "bloch_of_state",
    "state_of_angles",
    "expm_pauli",
    "kron",
    "unitarity_defect",
    "state_fidelity",
    "overlap_phase",
    "wrap_pi",
    "angle_dist",
    "reduced_bloch",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])
ID2 = np.eye(2, dtype=complex)
KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)

# Norm deviation tolerated on incoming states, and the unitarity gate used
# for matrices fed to fidelity/comparison helpers.
NORM_ATOL = 1e-8
UNITARY_ATOL = 1e-10


def normalize(psi):
    """Return psi scaled to unit norm."""
    psi = np.asarray(psi, dtype=complex)
    n = np.linalg.norm(psi)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return psi / n


def norm_defect(psi):
    """Absolute deviation of ||psi|| from 1."""
    return abs(np.linalg.norm(np.asarray(psi, dtype=complex)) - 1.0)


def assert_normalized(psi, atol=NORM_ATOL):
    d = norm_defect(psi)
    if d > atol:
        raise ValueError(f"state norm deviates from 1 by {d:.3e} (atol={atol:.1e})")


def bloch_of_state(psi, atol=NORM_ATOL):
    """Bloch vector (<sx>, <sy>, <sz>) of a normalized single-qubit state.

    Raises ValueError if the norm of ``psi`` deviates from 1 by more than
    ``atol``.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (2,):
        raise ValueError(f"expected a length-2 state vector, got shape {psi.shape}")
    assert_normalized(psi, atol)
    z = np.conj(psi[0]) * psi[1]
    return np.array([2.0 * z.real, 2.0 * z.imag, abs(psi[0]) ** 2 - abs(psi[1]) ** 2])


def state_of_angles(theta, phi):
    """State with Bloch vector (sin t cos p, sin t sin p, cos t).

    Uses the symmetric phase split (e^{-i phi/2}, e^{+i phi/2}); theta must
    lie in [0, pi].
    """
    if not 0.0 <= theta <= np.pi:
        raise ValueError(f"polar angle must lie in [0, pi], got {theta}")
    return np.array(
        [
            np.exp(-0.5j * phi) * np.cos(0.5 * theta),
            np.exp(+0.5j * phi) * np.sin(0.5 * theta),
        ]
    )


def expm_pauli(b, s):
    """Closed-form exponential exp(i s (b . sigma)).

    Parameters
    ----------
    b : array_like, shape (..., 3)
        Real coefficient vector; need not be normalized.
    s : array_like, shape (...)
        Real scale factor.

    Returns
    -------
    ndarray, shape (..., 2, 2)
        cos(s|b|) I + i sin(s|b|) (bhat . sigma), exactly unitary up to
        rounding. b = 0 yields the identity for any s.  The SU(2) pair of
        ``_su2_exp`` filled into the four entries by ``_su2_matrix``.
    """
    return _su2_matrix(_su2_exp(np.asarray(b, dtype=float), np.asarray(s, dtype=float)))


# SU(2) elements as 4 reals.  The unit quaternion (w, x, y, z), standing
# for w I + i (x sx + y sy + z sz) with w^2 + x^2 + y^2 + z^2 = 1, is kept
# in its Cayley-Klein form: the complex pair (alpha, beta) = (w + iz, y + ix)
# of the matrix [[alpha, beta], [-conj(beta), conj(alpha)]].  The pair axis
# is the last one, but arrays built here store it pair-major (the view is
# the transpose of a (2, ...) array), so alpha and beta are each contiguous.


def _su2_exp(b, s):
    """SU(2) pair of exp(i s (b . sigma)) for b of shape (..., 3).

    w = c and (x, y, z) = k b, with c = cos(s|b|) and k = sin(s|b|)/|b|
    taken directly; b = 0 gives exactly (1, 0) for any s.
    """
    bx, by, bz = b[..., 0], b[..., 1], b[..., 2]
    nb = np.sqrt(bx * bx + by * by + bz * bz)
    ang = s * nb
    k = np.sin(ang)
    k /= np.where(nb > 0.0, nb, 1.0)
    p = np.empty((2,) + np.shape(ang), dtype=complex)
    np.cos(ang, out=p.real[0, ...])
    np.multiply(k, bz, out=p.imag[0, ...])
    np.multiply(k, by, out=p.real[1, ...])
    np.multiply(k, bx, out=p.imag[1, ...])
    return _pair_axis_last(p)


def _su2_mul(a, c):
    """SU(2) pair of the matrix product a @ c, entry-wise over equal stacks.

    alpha = alpha_a alpha_c - beta_a conj(beta_c) and
    beta = alpha_a beta_c + beta_a conj(alpha_c): the quaternion product's
    16 real multiply-adds, as four complex products.
    """
    aa, ab, ca, cb = a[..., 0], a[..., 1], c[..., 0], c[..., 1]
    p = np.empty((2,) + aa.shape, dtype=complex)
    p[0] = aa * ca - ab * cb.conj()
    p[1] = aa * cb + ab * ca.conj()
    return _pair_axis_last(p)


def _pair_axis_last(p):
    """View of a pair-major (2, ...) array with the pair axis last.

    A plain transpose: ``np.moveaxis`` costs several microseconds per call,
    as much as a product of two short stacks, and a product tree calls
    this once per level.
    """
    return p.transpose(tuple(range(1, p.ndim)) + (0,))


def _su2_matrix(p):
    """2x2 complex matrices [[alpha, beta], [-conj(beta), conj(alpha)]] of SU(2) pairs."""
    alpha, beta = p[..., 0], p[..., 1]
    u = np.empty(alpha.shape + (2, 2), dtype=complex)
    u[..., 0, 0], u[..., 0, 1] = alpha, beta
    u[..., 1, 0], u[..., 1, 1] = -beta.conj(), alpha.conj()
    return u


def kron(a, b):
    """Tensor product with the left factor acting on the control qubit."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def unitarity_defect(u):
    """max |U^dag U - I| entry-wise, over a whole (..., n, n) stack."""
    u = np.asarray(u, dtype=complex)
    d = u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1])
    return float(np.max(np.abs(d)))


def state_fidelity(a, b):
    """|<a|b>| for pure states (global-phase free)."""
    return float(abs(np.vdot(np.asarray(a, complex), np.asarray(b, complex))))


def overlap_phase(a, b):
    """arg <a|b> in (-pi, pi]."""
    return float(np.angle(np.vdot(np.asarray(a, complex), np.asarray(b, complex))))


def wrap_pi(x):
    """Reduce an angle (or array of angles) to the branch (-pi, pi]."""
    x = np.asarray(x, dtype=float)
    y = np.remainder(x + np.pi, 2.0 * np.pi) - np.pi
    y = np.where(y == -np.pi, np.pi, y)
    if y.ndim == 0:
        return float(y)
    return y


def angle_dist(a, b):
    """Distance between two angles modulo 2*pi; elementwise on arrays of
    angles, a float for two scalars."""
    return abs(wrap_pi(np.asarray(a, float) - np.asarray(b, float)))


def reduced_bloch(psi4):
    """Per-qubit Bloch vectors of two-qubit pure states.

    ``psi4`` has shape (..., 4); returns (n_control, n_target), each of
    shape (..., 3).  Entangled states give |n| < 1.
    """
    psi4 = np.asarray(psi4, dtype=complex)
    if psi4.shape[-1:] != (4,):
        raise ValueError(f"expected length-4 state vectors, got shape {psi4.shape}")
    m = psi4.reshape(psi4.shape[:-1] + (2, 2))
    rho_c = m @ m.conj().swapaxes(-1, -2)
    rho_t = m.swapaxes(-1, -2) @ m.conj()
    nc = np.einsum("...ij,kji->...k", rho_c, PAULI).real
    nt = np.einsum("...ij,kji->...k", rho_t, PAULI).real
    return nc, nt
