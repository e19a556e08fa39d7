"""Time evolution under field schedules.

The stepper is the fourth-order commutator-free Magnus scheme CF4
(Blanes & Moan, Appl. Numer. Math. 56, 1519 (2006); Alvermann & Fehske,
J. Comput. Phys. 230, 5930 (2011)): each step samples the field at its
two Gauss nodes and applies two closed-form Pauli exponentials of fixed
linear combinations of the samples.  Every step is exactly unitary and
the global error is fourth order in the step size.

A schedule's field is a function of the drive angle, and every schedule
spans one drive period, so an n-step rung needs the field at the same
angles whatever the schedule: 2 pi k / n on the grid and
2 pi (k + c) / n at the Gauss nodes.  Their cosines and sines form one
read-only table per step count (``_phase_table``), memoized and shared by
every ladder and quadrature, so no rung takes a trig function of time.

A single-qubit step is an SU(2) element, so it is built, multiplied and
chained as 4 reals: its unit quaternion, kept as the complex pair
(alpha, beta) of the matrix's first row (``pauli._su2_exp``).  Products
of pairs take the quaternion product's 16 real multiply-adds, and 2x2
complex matrices appear only for a propagator handed to the caller.

Accuracy is controlled by one step-doubling driver, ``refine``: it runs a
fixed-resolution pass per rung, doubling the steps, until two successive
rungs agree on every criterion the caller names, and reports the last
change of each criterion when the rung cap is reached.

The state at every grid point (needed for the dynamical-phase integral
and the Bloch path) comes from every prefix product of the single-qubit
steps, formed by one Brent-Kung prefix scan on SU(2) pairs and applied in
closed form to the initial state, or to every state of a stack.  An SU(2)
matrix is fixed by where it sends one unit state, so the chain's first
and last states also give the one-period matrix; the product tree
``_chain_product`` serves matrix-only ladders, where it costs about half
the scan's pair products.

Also provided: the closed-form propagator of a field whose axis is fixed
in the frame rotating with the drive (``_frame_unitary``), behind both the
NMR-style drive's independent oracle and ``phases.decompose_loop``'s
exact route; and its two-qubit counterpart, the coupled pair's one-period
propagator from one constant 4x4 Hamiltonian.  The CF4 ladder computes
every loop the closed form does not cover, on the lab field or on the
field in the co-rotating frame, and on the lab field it stays the
reference that ``verify`` holds both routes to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pauli
from .fields import FieldSchedule, NmrParams, TwoQubitModel
from .pauli import ID2, SIGMA_X, SIGMA_Z, _su2_exp, _su2_matrix, _su2_mul, expm_pauli, kron

__all__ = [
    "PropagatorConfig",
    "NonConvergenceError",
    "time_grid",
    "final_state",
    "total_unitary",
    "rotating_frame_oracle",
    "two_qubit_unitary",
]


class NonConvergenceError(RuntimeError):
    """Step doubling hit the refinement cap without meeting tolerance."""


@dataclass(frozen=True)
class PropagatorConfig:
    """Numerical controls for the steppers.

    steps_per_period : base number of steps per schedule period (even,
                       >= 16)
    tolerance        : max state-component change between refinements
                       (finite and positive)
    max_refinements  : doublings allowed before giving up
    """

    steps_per_period: int = 4096
    tolerance: float = 1e-10
    max_refinements: int = 12

    def __post_init__(self):
        if self.steps_per_period < 16 or self.steps_per_period % 2:
            raise ValueError(
                f"steps_per_period must be even and at least 16, got {self.steps_per_period}"
            )
        if not 0.0 < self.tolerance < np.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")
        if self.max_refinements < 0:
            raise ValueError("max_refinements must be non-negative")


def refine(run, criteria, cfg: PropagatorConfig, what):
    """Step doubling: the finer result of the first two rungs that agree.

    ``run(steps)`` computes one fixed-resolution rung at ``steps`` steps per
    period, starting from ``cfg.steps_per_period`` and doubling up to
    ``cfg.max_refinements`` times.  ``criteria(prev, cur)`` compares two
    successive rungs and returns (name, change, bound, unit) per
    criterion; the pair is accepted once every change is within its bound.

    Raises
    ------
    NonConvergenceError
        Naming ``what`` and every criterion with its last change and bound.
    """
    steps = cfg.steps_per_period
    prev = run(steps)
    last = ()
    for _ in range(cfg.max_refinements):
        steps *= 2
        cur = run(steps)
        last = criteria(prev, cur)
        if all(change <= bound for _, change, bound, _ in last):
            return cur
        prev = cur
    changes = ", ".join(
        f"last {name} change {change:.3g}{unit} (bound {bound:.3g}{unit})"
        for name, change, bound, unit in last
    )
    raise NonConvergenceError(
        f"{what} did not converge after {cfg.max_refinements} refinements "
        f"(last step count {steps}): {changes or 'no rung pair compared'}"
    )


def _state_change(a, b, cfg: PropagatorConfig, name="state"):
    """Criterion: largest component change between two rungs' results."""
    return (name, float(np.max(np.abs(b - a))), cfg.tolerance, "")


def time_grid(s: FieldSchedule, steps_per_period):
    """Uniform step grid over one period [0, s.period].

    ``PropagatorConfig`` keeps the step count even, so Simpson quadrature
    and stride-2 subsampling stay aligned.
    """
    return np.linspace(0.0, s.period, steps_per_period + 1)


# CF4 Gauss-node offsets (fractions of the step) and combination weights.
_NODES = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)
_A1, _A2 = 0.25 - np.sqrt(3.0) / 6.0, 0.25 + np.sqrt(3.0) / 6.0

# Phase tables are kept for step counts up to this, 32 n bytes each (about
# 2 MB through 32,768 steps), so a ladder that fails to converge retains
# nothing for its larger rungs.  Tables are read-only and depend on n
# alone.
_TABLE_MAX_STEPS = 65536
_TABLES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _cos_sin(k, c, n):
    """Read-only (2, len(k)) cosines and sines of the angles 2 pi (k + c) / n.

    Each angle is j quarter turns, j the integer nearest 4 (k + c) / n,
    plus a remainder phi in [-pi/4, pi/4] taken from the exact integer
    4 k - j n.  The quarter turns are exact swaps and sign flips, so the
    values carry no rounding of angles up to 2 pi: each is within a few
    1e-16 of the true cosine or sine.
    """
    j = np.rint(4.0 * (k + c) / n)
    phi = (0.5 * np.pi / n) * ((4.0 * k - j * n) + 4.0 * c)
    cp, sp = np.cos(phi), np.sin(phi)
    q = j.astype(np.int64) % 4
    out = np.empty((2, len(k)))
    np.choose(q, (cp, -sp, -cp, sp), out=out[0])
    np.choose(q, (sp, cp, -sp, -cp), out=out[1])
    out.setflags(write=False)
    return out


def _phase_table(n):
    """Drive-angle table of an n-step loop: read-only (grid, node) arrays.

    ``grid`` (2, n + 1) holds the cosine and sine of the grid angles
    2 pi k / n, ``node`` (2, n) those of each step's first Gauss node,
    2 pi (k + c1) / n.  The second node needs no row of its own: as
    c2 = 1 - c1, its angle in step k is 2 pi minus node 1's angle in step
    n - 1 - k, so its values are node 1's reversed, with the sine negated.
    Tables of up to ``_TABLE_MAX_STEPS`` steps are built once and kept.
    """
    table = _TABLES.get(n)
    if table is None:
        k = np.arange(n + 1.0)
        table = (_cos_sin(k, 0.0, n), _cos_sin(k[:-1], _NODES[0], n))
        if n <= _TABLE_MAX_STEPS:
            _TABLES[n] = table
    return table


def loop_mean(f, n):
    """Mean of f(c, s) along its first axis over the n grid angles of
    ``_phase_table(n)``, without the closing one: the periodic trapezoid rule,
    spectrally accurate for a smooth f (Trefethen & Weideman, SIAM Rev. 56,
    385 (2014))."""
    (c, s), _ = _phase_table(n)
    return np.mean(f(c[:-1], s[:-1]), axis=0)


def _step_unitaries(s: FieldSchedule, ts):
    """CF4 step unitaries of one period for H = -(1/2) B . sigma, as SU(2) pairs.

    ``ts`` is the rung's uniform grid (``time_grid``); its n = len(ts) - 1
    steps each span h = s.period / n.  With B1, B2 the field at the step's
    Gauss nodes, read from the phase table, the step is
    exp(-i h (a1 H1 + a2 H2)) exp(-i h (a2 H1 + a1 H2)); the right factor,
    weighted towards B1, acts first.  Each factor is
    exp(+i (h/2) B' . sigma) in closed form, and one SU(2) product composes
    the two.  Returns shape (n, 2) complex, the Cayley-Klein pairs of the
    steps' unit quaternions, stored pair-major (see ``pauli._su2_exp``).
    """
    n = len(ts) - 1
    half = 0.5 * (s.period / n)
    _, (c, sn) = _phase_table(n)
    b1 = np.asarray(s.field(c, sn), dtype=float)
    b2 = np.asarray(s.field(c[::-1], -sn[::-1]), dtype=float)
    first = _su2_exp(_A2 * b1 + _A1 * b2, half)
    mixed = _A1 * b1 + _A2 * b2
    del b1, b2  # free the samples before the second exponential and the product
    return _su2_mul(_su2_exp(mixed, half), first)


def _su2_prefixes(q):
    """Prefix products q[k] @ ... @ q[0], k = 0..n-1, of SU(2) pairs.

    Brent-Kung scan (IEEE Trans. Comput. C-31, 260 (1982)) in one copy of
    ``q``, up-sweep then down-sweep over strides 1, 2, 4, ...: the odd-even
    scan of Ladner & Fischer (J. ACM 27, 831 (1980)) unrolled, with the
    same ~2n pair products in the same order.
    """
    n = q.shape[0]
    x = np.empty((2, n), dtype=complex).T
    x[...] = q
    d = 1
    while 2 * d <= n:
        x[2 * d - 1 :: 2 * d] = _su2_mul(x[2 * d - 1 :: 2 * d], x[d - 1 : n - d : 2 * d])
        d *= 2
    while d > 1:
        d //= 2
        x[3 * d - 1 :: 2 * d] = _su2_mul(x[3 * d - 1 :: 2 * d], x[2 * d - 1 : n - d : 2 * d])
    return x


def _apply_chain(us, psi0):
    """States psi_k = us[k-1] @ ... @ us[0] @ psi0 for k = 0..n.

    ``us`` holds SU(2) pair steps (n, 2) and ``psi0`` one state (2,) or a
    stack (..., 2) of them, giving states (n + 1, 2) or (..., n + 1, 2).
    Every prefix product comes from one scan (``_su2_prefixes``), shared
    by the whole stack, and is applied to each psi0 = (a, b) in closed
    form: the pair (alpha, beta) maps it to
    (alpha a + beta b, conj(alpha conj(b) - beta conj(a))).
    """
    p = _su2_prefixes(us)
    alpha, beta = p[:, 0], p[:, 1]
    a, b = psi0[..., :1], psi0[..., 1:]
    states = np.empty(psi0.shape[:-1] + (us.shape[0] + 1, 2), dtype=complex)
    states[..., 0, :] = psi0
    states[..., 1:, 0] = alpha * a + beta * b
    np.conjugate(alpha * np.conj(b) - beta * np.conj(a), out=states[..., 1:, 1])
    return states


def _chain_product(us):
    """Ordered product us[n-1] @ ... @ us[0] via pairwise tree reduction.

    The SU(2) pair steps (n, 2) are multiplied as pairs and the product is
    returned as a 2x2 complex matrix.
    """
    m = us
    while m.shape[0] > 1:
        odd = m.shape[0] % 2
        paired = _su2_mul(m[odd + 1 :: 2], m[odd::2])
        m = np.concatenate([m[:1], paired]) if odd else paired
    return _su2_matrix(m[0])


def _fixed_states(us, psi0):
    """One rung's states from its step unitaries, each row renormalized once.

    ``psi0`` is one state (2,) or a stack (..., 2), as in ``_apply_chain``.

    Products of many near-identity steps drift off the unit sphere by a
    rounding error that grows with the step count; one renormalization
    per rung removes it.
    """
    states = _apply_chain(us, psi0)
    # the bits of states / np.linalg.norm(states, axis=-1), in fewer passes:
    # numpy divides a complex x by a real r as x * (1 / r)
    sq = (states.conj() * states).real
    flat = states.view(float)
    flat *= 1.0 / np.sqrt(sq[..., :1] + sq[..., 1:])
    return states


def _matrix_of_states(psi0, psi1):
    """The SU(2) matrix U with U psi0 = psi1, for unit states psi0, psi1.

    SU(2) matrices commute with J psi = (-conj(psi[1]), conj(psi[0])), so
    U = |psi1><psi0| + |J psi1><J psi0|, whose first row is the pair below.
    """
    (a, b), (c, d) = np.conj(psi0), psi1
    return _su2_matrix(np.array([c * a + np.conj(d * b), c * b - np.conj(d * a)]))


def _bloch_rows(states):
    """Bloch vectors (..., 3) of the states (..., 2)."""
    z = np.conj(states[..., 0]) * states[..., 1]
    return np.stack(
        [2.0 * z.real, 2.0 * z.imag, np.abs(states[..., 0]) ** 2 - np.abs(states[..., 1]) ** 2],
        axis=-1,
    )


def total_unitary(s: FieldSchedule, cfg: PropagatorConfig | None = None):
    """One-period 2x2 propagator matrix, step-doubled by ``refine``.

    Closed-form CF4 steps multiplied by a pairwise product tree, so no
    per-step state storage; convergence is judged on the matrix entries.
    The converged matrix is projected back onto the unitary group, which
    removes the rounding drift of the long product.
    """
    cfg = cfg or PropagatorConfig()

    def run(steps):
        return _chain_product(_step_unitaries(s, time_grid(s, steps)))

    u = refine(run, lambda a, b: [_state_change(a, b, cfg, "matrix")], cfg, "total unitary")
    return _unitary_projection(u)


def _unitary_projection(m):
    """Nearest unitary in Frobenius norm (polar factor via SVD)."""
    w, _, vh = np.linalg.svd(m)
    return w @ vh


def final_state(s: FieldSchedule, psi0, cfg: PropagatorConfig | None = None):
    """Final state only (product-tree fast path)."""
    psi0 = np.asarray(psi0, dtype=complex)
    pauli.assert_normalized(psi0)
    return total_unitary(s, cfg) @ psi0


def _frame_unitary(winding, omega, axis, phi, t):
    """Propagator from 0 to t of a field with a fixed rotating-frame axis.

    For the lab field B = R_z(w omega t)(m n) - w omega z-hat (a
    ``fields.Frame``), psi = exp(-i (w omega t / 2) sz) xi turns
    i dpsi/dt = -(1/2) B . sigma psi into i dxi/dt = -(1/2) m n . sigma xi,
    whose generator keeps its direction, so

        U(t) = exp(-i (w omega t / 2) sz) exp(i (phi / 2) n . sigma),

    with phi = integral_0^t m dt' the field angle swept in the frame.  ``axis``
    need not be a unit vector: with axis = m n and phi = t the second factor
    is the same exponential.  At one period t = 2 pi / omega the first factor
    is -I.  Exactly unitary, with no steps.
    """
    frame = expm_pauli(np.array([0.0, 0.0, 1.0]), -0.5 * winding * omega * t)
    return frame @ expm_pauli(np.asarray(axis, dtype=float), 0.5 * phi)


def rotating_frame_oracle(p: NmrParams, psi0, t):
    """Closed-form state for the rotating drive, via the rotating frame.

    psi(t) = exp(-i (w t / 2) sz) exp(-i H' t) psi0 with the constant
    rotating-frame generator H' = -(1/2) (omega0 sx + (z + omega) sz),
    where z is the (possibly shifted) static field: ``_frame_unitary`` with
    winding +1 and the constant field (omega0, 0, z + omega).  Used as the
    independent reference for the stepper.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    pauli.assert_normalized(psi0)
    t = float(t)
    u = _frame_unitary(+1, p.omega, [p.omega0, 0.0, p.z_effective + p.omega], t, t)
    return u @ psi0


def two_qubit_unitary(model: TwoQubitModel):
    """One-period propagator of the coupled pair, 4x4, in closed form.

    Both qubits' transverse fields rotate at the drive frequency w and the
    zz coupling commutes with the total sz, so in the frame rotating at w
    about z on both qubits the Hamiltonian is the constant

        H' = -(1/2) [(a_c sx + (z_c + w) sz) (x) I + I (x) (omega0 sx + (omega1 + w) sz)]
             + (j/2) sz (x) sz,

    with a_c = omega0 for a driven control and 0 otherwise, z_c the
    control's static field and omega1 the target's own static field.  The
    frame rotation exp(-i (w t/2) sz) on each qubit is -I at one period,
    so the pair's is the identity and U(tau) = exp(-i H' tau), taken from
    one Hermitian eigendecomposition: exactly unitary, with no steps and
    no tolerance.
    """
    p = model.params
    a_c = p.omega0 if model.drive_on_control else 0.0
    h_c = -0.5 * (a_c * SIGMA_X + (model.control_z + p.omega) * SIGMA_Z)
    h_t = -0.5 * (p.omega0 * SIGMA_X + (p.omega1 + p.omega) * SIGMA_Z)
    h = kron(h_c, ID2) + kron(ID2, h_t) + 0.5 * p.j * kron(SIGMA_Z, SIGMA_Z)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * model.period)) @ v.conj().T
