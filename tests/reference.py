"""Independent propagation routes that the tests compare the library against.

None of these is used by the package itself:

* ``bloch_integrate`` integrates the classical precession of the Bloch
  vector with exact midpoint rotations (second order, no CF4 steps);
* ``block_trajectory`` propagates the coupled pair through its two exact
  sz(x)I eigenblocks, each a 2x2 problem with a scalar control energy;
* ``dense_trajectory`` takes CF4 steps of the full 4x4 Hamiltonian by
  Hermitian eigendecomposition, for any model, and chains them one
  matrix-vector product per step (``loop_chain``).

Each is step-doubled by ``evolve.refine`` on its final row and returns the
converged grid with its rows.
"""

import numpy as np

from geomgates import evolve, pauli
from geomgates.evolve import PropagatorConfig, refine, time_grid


def _rotation_matrices(axes, angles):
    """Rodrigues rotation matrices about unit axes, batched."""
    c = np.cos(angles)[:, None, None]
    s = np.sin(angles)[:, None, None]
    k = axes
    kk = np.einsum("ni,nj->nij", k, k)
    cross = np.zeros_like(kk)
    cross[:, 0, 1], cross[:, 0, 2] = -k[:, 2], k[:, 1]
    cross[:, 1, 0], cross[:, 1, 2] = k[:, 2], -k[:, 0]
    cross[:, 2, 0], cross[:, 2, 1] = -k[:, 1], k[:, 0]
    eye = np.eye(3)
    return c * eye + s * cross + (1.0 - c) * kk


def _fixed_bloch(s, n0, steps_per_period):
    ts = time_grid(s, steps_per_period)
    mids = 0.5 * (ts[:-1] + ts[1:])
    dts = np.diff(ts)
    b = np.asarray(s.sample(mids), dtype=float)
    nb = np.linalg.norm(b, axis=-1)
    safe = np.where(nb > 0.0, nb, 1.0)
    axes = -b / safe[:, None]
    rots = _rotation_matrices(axes, nb * dts)
    out = np.empty((len(ts), 3))
    out[0] = n0
    v = np.asarray(n0, dtype=float)
    for k in range(rots.shape[0]):
        v = rots[k] @ v
        v = v / np.linalg.norm(v)  # drift stays below 1e-12 per step
        out[k + 1] = v
    return ts, out


def bloch_integrate(s, n0, cfg: PropagatorConfig):
    """Integrate the classical precession dn/dt = n x B: (ts, Bloch path).

    The sign convention matches H = -(1/2) B . sigma: the quantum Bloch
    vector of ``evolve.propagate`` and this integrator agree.  Steps are
    exact rotations about the midpoint field, renormalized each step, so
    this reference is second order, independent of the CF4 stepper.
    """
    n0 = np.asarray(n0, dtype=float)
    if abs(np.linalg.norm(n0) - 1.0) > 1e-8:
        raise ValueError("initial Bloch vector must be unit length")
    return refine(
        lambda steps: _fixed_bloch(s, n0, steps),
        evolve._last_row_change(cfg),
        cfg,
        "Bloch integration",
    )


def loop_chain(us, psi0):
    """States us[k-1] @ ... @ us[0] @ psi0, k = 0..n: one matrix-vector
    product per step, for (n, d, d) step matrices."""
    states = np.empty((us.shape[0] + 1, psi0.shape[0]), dtype=complex)
    states[0] = psi0
    psi = psi0
    for k in range(us.shape[0]):
        psi = us[k] @ psi
        states[k + 1] = psi
    return states


def _two_qubit_state(psi4):
    psi4 = np.asarray(psi4, dtype=complex)
    if psi4.shape != (4,):
        raise ValueError(f"expected a length-4 state, got shape {psi4.shape}")
    pauli.assert_normalized(psi4)
    return psi4


def _normalized_rows(states):
    # once per rung, on full rows only: see ``evolve._fixed_states``
    return states / np.linalg.norm(states, axis=1, keepdims=True)


def block_trajectory(model, psi4, cfg: PropagatorConfig):
    """Coupled-pair states from the two eigenblocks: (ts, states).

    Needs an undriven control (``model.block_schedule`` raises otherwise).
    """
    psi4 = _two_qubit_state(psi4)

    def run(steps):
        blocks = []
        for delta in (0, 1):
            sched = model.block_schedule(delta)
            ts = time_grid(sched, steps)
            us = evolve._step_unitaries(sched.sample, ts)
            # blocks carry unnormalized (possibly zero) parts of psi4
            block = evolve._apply_chain(us, psi4[2 * delta : 2 * delta + 2])
            phase = np.exp(-1j * model.block_energy(delta) * ts)
            blocks.append(phase[:, None] * block)
        return ts, _normalized_rows(np.concatenate(blocks, axis=1))

    return refine(run, evolve._last_row_change(cfg), cfg, "block two-qubit propagation")


def dense_trajectory(model, psi4, cfg: PropagatorConfig):
    """Coupled-pair states from dense 4x4 CF4 steps: (ts, states)."""
    psi4 = _two_qubit_state(psi4)

    def run(steps):
        ts = time_grid(model.target, steps)
        states = loop_chain(evolve._dense_step_unitaries(model, ts), psi4)
        return ts, _normalized_rows(states)

    return refine(run, evolve._last_row_change(cfg), cfg, "dense two-qubit propagation")
