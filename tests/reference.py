"""Independent propagation routes that the tests compare the library against.

None of these is used by the package itself:

* ``bloch_integrate`` integrates the classical precession of the Bloch
  vector with exact midpoint rotations (second order, no CF4 steps);
* ``block_trajectory`` propagates the coupled pair through its two exact
  sz(x)I eigenblocks, each a 2x2 problem with a scalar control energy;
* ``odd_even_prefixes`` is the recursive form of the state chain's SU(2)
  prefix scan;
* ``dense_trajectory`` takes CF4 steps of the full 4x4 Hamiltonian
  ``h4`` by Hermitian eigendecomposition (``dense_step_unitaries``), for
  any model, and chains them one matrix-vector product per step
  (``loop_chain``); ``dense_unitary`` multiplies the same steps into the
  one-period 4x4 propagator.

Each is step-doubled by ``evolve.refine``: the trajectories on their final
row (``_last_row_change``), returning the converged grid with its rows,
the propagator on its matrix entries.  The package itself reads a
single-qubit Bloch path from ``phases.decompose(...).bloch``, the path of
the same ladder that splits the phase.
"""

from dataclasses import replace

import numpy as np

from geomgates import evolve, fields, pauli
from geomgates.evolve import PropagatorConfig, refine, time_grid
from geomgates.pauli import PAULI, kron


def _last_row_change(cfg: PropagatorConfig):
    """Criteria on the last rows of two (grid, rows) rungs."""
    return lambda a, b: [evolve._state_change(a[1][-1], b[1][-1], cfg)]


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
    path of ``phases.decompose`` and this integrator agree.  Steps are
    exact rotations about the midpoint field, renormalized each step, so
    this reference is second order, independent of the CF4 stepper.
    """
    n0 = np.asarray(n0, dtype=float)
    if abs(np.linalg.norm(n0) - 1.0) > 1e-8:
        raise ValueError("initial Bloch vector must be unit length")
    return refine(
        lambda steps: _fixed_bloch(s, n0, steps),
        _last_row_change(cfg),
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


def odd_even_prefixes(q):
    """Prefix products q[k] @ ... @ q[0] of SU(2) pairs (n, 2), recursively.

    The odd-even scan of Ladner & Fischer (J. ACM 27, 831 (1980)):
    neighbouring steps are multiplied in pairs, the half-length array is
    scanned recursively and gives the prefixes ending at odd k, and each
    prefix ending at even k > 0 is q[k] times the one before it.
    """
    n = q.shape[0]
    if n <= 1:
        return q
    odd = odd_even_prefixes(pauli._su2_mul(q[1::2], q[0:-1:2]))
    out = np.empty((n, 2), dtype=complex)
    out[0] = q[0]
    out[1::2] = odd
    out[2::2] = pauli._su2_mul(q[2::2], odd[: (n - 1) // 2])
    return out


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
            us = evolve._step_unitaries(sched, ts)
            # blocks carry unnormalized (possibly zero) parts of psi4
            block = evolve._apply_chain(us, psi4[2 * delta : 2 * delta + 2])
            phase = np.exp(-1j * model.block_energy(delta) * ts)
            blocks.append(phase[:, None] * block)
        return ts, _normalized_rows(np.concatenate(blocks, axis=1))

    return refine(run, _last_row_change(cfg), cfg, "block two-qubit propagation")


def target_schedule(model):
    """The target's own drive: the model's NMR drive without the coupling shift."""
    return fields.nmr_schedule(replace(model.params, j=0.0, delta=0))


def control_field(model, t):
    """Field seen by the control qubit, shape (..., 3)."""
    t = np.asarray(t, dtype=float)
    if model.drive_on_control:
        b = np.array(target_schedule(model).sample(t), copy=True)
        b[..., 2] = model.control_z
        return b
    out = np.zeros(t.shape + (3,))
    out[..., 2] = model.control_z
    return out


def h4(model, t):
    """Full Hamiltonian matrix of the pair at times t, shape (..., 4, 4)."""
    t = np.asarray(t, dtype=float)
    bt = np.asarray(target_schedule(model).sample(t), dtype=float)
    ht = -0.5 * np.einsum("...k,kij->...ij", bt, PAULI)
    hc = -0.5 * np.einsum("...k,kij->...ij", control_field(model, t), PAULI)
    eye = np.eye(2, dtype=complex)
    hh = np.einsum("...ab,cd->...acbd", hc, eye) + np.einsum("ab,...cd->...acbd", eye, ht)
    hh = hh.reshape(t.shape + (4, 4))
    return hh + 0.5 * model.params.j * kron(PAULI[2], PAULI[2])


def dense_step_unitaries(model, ts):
    """CF4 step unitaries of the full 4x4 Hamiltonian (fourth order).

    The same two-exponential scheme as ``evolve._step_unitaries``, with
    the Hamiltonian sampled at the Gauss-node times of the uniform grid
    ``ts`` and each factor exp(-i h H') taken by Hermitian
    eigendecomposition.
    """
    h = (ts[-1] - ts[0]) / (len(ts) - 1)
    h1, h2 = h4(model, np.stack([ts[:-1] + c * h for c in evolve._NODES]))
    a1, a2 = evolve._A1, evolve._A2
    w, v = np.linalg.eigh(np.stack([a2 * h1 + a1 * h2, a1 * h1 + a2 * h2]))
    phases = np.exp(-1j * w * h)
    first, second = np.einsum("snij,snj,snkj->snik", v, phases, v.conj())
    return second @ first


def dense_trajectory(model, psi4, cfg: PropagatorConfig):
    """Coupled-pair states from dense 4x4 CF4 steps: (ts, states)."""
    psi4 = _two_qubit_state(psi4)

    def run(steps):
        ts = time_grid(target_schedule(model), steps)
        states = loop_chain(dense_step_unitaries(model, ts), psi4)
        return ts, _normalized_rows(states)

    return refine(run, _last_row_change(cfg), cfg, "dense two-qubit propagation")


def _matrix_product(us):
    """us[n-1] @ ... @ us[0] by pairwise tree reduction, for (n, d, d)."""
    while us.shape[0] > 1:
        odd = us.shape[0] % 2
        paired = us[odd + 1 :: 2] @ us[odd::2]
        us = np.concatenate([us[:1], paired]) if odd else paired
    return us[0]


def dense_unitary(model, cfg: PropagatorConfig):
    """One-period 4x4 propagator from dense CF4 steps, step-doubled on its
    matrix entries."""

    def run(steps):
        ts = time_grid(target_schedule(model), steps)
        return _matrix_product(dense_step_unitaries(model, ts))

    def criteria(a, b):
        return [evolve._state_change(a, b, cfg, "matrix")]

    return refine(run, criteria, cfg, "dense two-qubit propagator")
