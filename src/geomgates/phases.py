"""Cyclic states and phase decomposition.

For a state that returns to itself (up to phase) after one loop, the total
phase arg<psi(0)|psi(tau)> splits into a dynamical part
-integral <psi|H|psi> dt and a geometric remainder that depends only on
the Bloch-sphere trace of the evolution.  The geometric part is checked
two independent ways: as total minus dynamical, and as the signed
solid-angle line integral -(1/2) closed-int (1 - cos theta) dphi over the
Bloch path.

``decompose`` runs the CF4 ladder on any loop; ``decompose_loop``, which
the figures, gates and eigenblock angles call, takes the closed form when
the loop has a rotating frame and either starts on its axis or has a
constant frame magnitude.  The closed form's
geometric phase equals the loop law by its algebra, so ``verify`` keeps
the ladder as its reference and holds the closed form to it.

Sign convention (fixed by H = -(1/2) B . sigma and verified against the
closed-form rotating-frame solution): a cone loop at polar angle chi whose
azimuth advances counterclockwise (d phi > 0, one turn) gives the upper
member psi_plus the loop phase -pi (1 - cos chi) modulo 2 pi, and the
orthogonal member psi_minus the opposite phase.  Clockwise traversal
swaps the signs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import evolve, pauli
from .fields import FieldSchedule, JosephsonParams, NmrParams, josephson_schedule

__all__ = [
    "CyclicPair",
    "PhaseDecomposition",
    "SolidAngleResult",
    "cyclic_pair",
    "cyclic_pair_nmr",
    "cyclic_pair_josephson",
    "verify_cone",
    "verify_cyclic",
    "decompose",
    "decompose_loop",
    "solid_angle",
    "berry_adiabatic",
    "loop_phase",
]

# Samples with sin(theta) below this are treated as polar; their azimuth is
# taken from the nearest non-polar sample.
_POLE_EPS = 1e-7

# A start state lies on a frame axis n when its Bloch vector is within this
# distance (largest component) of +n or -n; other states take the ladder
# unless the frame's magnitude is constant.
_AXIS_ATOL = 1e-12

# The two routes of ``decompose_loop``, as recorded on their results.
ROUTE_FRAME, ROUTE_LADDER = "rotating_frame", "cf4_ladder"

# The dynamical-phase quadrature's rounding floor, relative to the phase:
# slow loops accumulate hundreds of radians, and there no absolute bound
# tied to the tolerance could be met.
_QUAD_RTOL = 1e-11


@dataclass(frozen=True)
class CyclicPair:
    """Orthonormal pair of loop eigenstates at cone angle chi.

    psi_plus has Bloch vector (sin chi, 0, cos chi) at t = 0; psi_minus is
    its antipode.
    """

    chi: float
    psi_plus: np.ndarray
    psi_minus: np.ndarray
    n0: np.ndarray


@dataclass(frozen=True)
class PhaseDecomposition:
    """One-loop phase bookkeeping, in radians.

    ``total`` and ``geometric`` are branch-reduced to (-pi, pi];
    ``dynamical`` is the raw integral.  ``valid`` flags whether the run was
    cyclic enough (defect below the configured threshold) for the split to
    be meaningful.  ``unitary`` is the loop's one-period propagator when
    ``decompose`` was asked for it (``with_unitary=True``), else None.
    ``bloch`` is the (n + 1, 3) Bloch path on the accepted rung's grid
    (None on the closed-form route).  ``route`` names what computed the
    split: "cf4_ladder" or "rotating_frame" (see ``decompose_loop``).
    """

    total: float
    dynamical: float
    geometric: float
    cyclicity_defect: float
    valid: bool
    unitary: np.ndarray | None = field(default=None, compare=False)
    bloch: np.ndarray | None = field(default=None, compare=False, repr=False)
    route: str = ROUTE_LADDER


@dataclass(frozen=True)
class SolidAngleResult:
    gamma: float
    winding: int
    theta_min: float
    theta_max: float


def cyclic_pair(chi) -> CyclicPair:
    """Pair of cone states at polar angle chi (azimuth zero)."""
    c, s = np.cos(0.5 * chi), np.sin(0.5 * chi)
    return CyclicPair(
        chi=float(chi),
        psi_plus=np.array([c, s], dtype=complex),
        psi_minus=np.array([-s, c], dtype=complex),
        n0=np.array([np.sin(chi), 0.0, np.cos(chi)]),
    )


def cyclic_pair_nmr(p: NmrParams) -> CyclicPair:
    """Cyclic pair of the rotating drive: chi = atan2(omega0, z + omega).

    The two-argument arctangent keeps chi in (0, pi) for omega0 > 0 even
    when the effective z field plus drive frequency is negative.
    """
    denom = p.z_effective + p.omega
    if p.omega0 == 0.0 and denom == 0.0:
        raise ValueError("degenerate drive: omega0 = 0 and z + omega = 0")
    return cyclic_pair(float(np.arctan2(p.omega0, denom)))


def verify_cone(s: FieldSchedule, chi0, omega):
    """Largest deviation of arctan(E_perp / (B_z - omega)) from chi0,
    over 2048 uniform samples of one loop (the 2048-step phase table's
    grid without its closing point)."""
    (c, sn), _ = evolve._phase_table(2048)
    b = np.asarray(s.field(c[:-1], sn[:-1]), dtype=float)
    eperp = np.hypot(b[:, 0], b[:, 1])
    chi = np.arctan2(eperp, b[:, 2] - omega)
    return float(np.max(np.abs(chi - chi0)))


def cyclic_pair_josephson(p: JosephsonParams) -> CyclicPair:
    """Cyclic pair of the designed charge-qubit drive: chi = chi0.

    Verifies with ``verify_cone`` that the drive actually holds the cone
    angle; raises ValueError if the worst deviation exceeds 1e-9 (e.g. when
    a conditional z shift is active, which breaks the constant-cone design).
    """
    dev = verify_cone(josephson_schedule(p), p.chi0, p.omega)
    if dev > 1e-9:
        raise ValueError(
            f"drive inconsistent with cone angle chi0={p.chi0:g}: "
            f"max deviation {dev:.3e} exceeds 1.0e-09"
        )
    return cyclic_pair(p.chi0)


def verify_cyclic(s: FieldSchedule, pair: CyclicPair, cfg=None):
    """Worst cyclicity defect 1 - |<psi(0)|psi(tau)>| over the pair.

    Both members are read from one converged one-period propagator.
    """
    return _pair_defect(evolve.total_unitary(s, cfg), pair)


def _pair_defect(u, pair: CyclicPair):
    """Worst 1 - |<psi|u psi>| over the pair, for a one-period propagator u."""
    worst = 0.0
    for psi in (pair.psi_plus, pair.psi_minus):
        worst = max(worst, 1.0 - pauli.state_fidelity(psi, u @ psi))
    return worst


def _simpson(y, x):
    """Composite Simpson rule h/3 (y0 + yn + 4 sum y_odd + 2 sum y_even).

    Integrates along the last axis of ``y``.  ``x`` is a uniform grid with
    an even number of steps, that is an odd number of samples; any other
    sample count raises ValueError.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]
    if n < 3 or n % 2 == 0:
        raise ValueError(f"Simpson's rule needs an odd number >= 3 of samples, got {n}")
    h = (x[-1] - x[0]) / (n - 1)
    odd, even = np.sum(y[..., 1:-1:2], axis=-1), np.sum(y[..., 2:-1:2], axis=-1)
    return h / 3.0 * (y[..., 0] + y[..., -1] + 4.0 * odd + 2.0 * even)


def _expectation_integral(s: FieldSchedule, ts, bloch):
    """integral <psi|H|psi> dt with <H> = -(1/2) B . n, by Simpson's rule.

    The field is smooth over the loop, so one composite Simpson sum over
    the whole uniform grid ``ts`` (an even number of steps, see
    ``evolve.time_grid``) suffices.  ``bloch`` is one path (n + 1, 3) or a
    stack (..., n + 1, 3) of paths, all integrated against one reading of
    the field on the grid's row of the phase table (``evolve._phase_table``).
    """
    grid, _ = evolve._phase_table(len(ts) - 1)
    b = np.asarray(s.field(*grid), dtype=float)
    energy = -0.5 * np.einsum("nk,...nk->...n", b, bloch)
    return _simpson(energy, ts)


def decompose(
    s: FieldSchedule,
    psi0,
    cfg: evolve.PropagatorConfig | None = None,
    cyclicity_threshold=1e-6,
    with_unitary=False,
) -> PhaseDecomposition | tuple[PhaseDecomposition, ...]:
    """Split the phase acquired over one schedule period.

    ``psi0`` is one normalized state (2,) or a stack (k, 2) of them; a
    stack shares one ladder, whose every rung builds its steps and their
    prefix products once for all k states.  Propagation and the
    dynamical-phase quadrature are refined together (step doubling) until
    every final state moves by at most cfg.tolerance and every dynamical
    integral by at most ``10 * cfg.tolerance + 1e-11 * |value|`` radians,
    so ``--tol`` sets both bounds.  The relative term is the quadrature's
    rounding floor; it matters for slow loops whose dynamical phase
    accumulates hundreds of radians, where it sits above any bound tied to
    the tolerance alone.

    With ``with_unitary=True`` the same ladder also yields the loop's
    one-period propagator, read from the first state's chain: the SU(2)
    matrix mapping it to the rung's final state
    (``evolve._matrix_of_states``).  A rung is then accepted only when its
    entries, too, move by at most cfg.tolerance (the ``total_unitary``
    criterion).  The converged matrix, projected onto the unitary group,
    is stored on ``unitary``.

    Returns
    -------
    PhaseDecomposition, or a tuple of k of them for a stack
        total = arg<psi0|psi(T)>, dynamical = -integral <H> dt,
        geometric = (total - dynamical) reduced to (-pi, pi],
        cyclicity_defect = 1 - |<psi0|psi(T)>|, the validity flag
        cyclicity_defect <= cyclicity_threshold, ``unitary`` (None
        unless ``with_unitary``) and the accepted rung's Bloch path.
    """
    cfg = cfg or evolve.PropagatorConfig()
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.ndim not in (1, 2) or psi0.shape[-1] != 2:
        raise ValueError(f"expected a state (2,) or a stack (k, 2), got shape {psi0.shape}")
    stack = psi0.reshape(-1, 2)
    for psi in stack:
        pauli.assert_normalized(psi)

    def run(steps):
        ts = evolve.time_grid(s, steps)
        states = evolve._fixed_states(evolve._step_unitaries(s, ts), psi0)
        bloch = evolve._bloch_rows(states)
        dyn = -_expectation_integral(s, ts, bloch)
        # a copy, so that the previous rung keeps its path but not its states
        fin = states[..., -1, :].reshape(-1, 2).copy()
        u = evolve._matrix_of_states(stack[0], fin[0]) if with_unitary else None
        return fin, np.ravel(dyn), u, bloch.reshape(len(stack), -1, 3)

    def criteria(prev, cur):
        found = [evolve._state_change(prev[0], cur[0], cfg)]
        for d_prev, d_cur in zip(prev[1], cur[1]):
            bound = 10.0 * cfg.tolerance + _QUAD_RTOL * abs(d_cur)
            found.append(("dynamical-phase", abs(d_cur - d_prev), bound, " rad"))
        if with_unitary:
            found.append(evolve._state_change(prev[2], cur[2], cfg, "matrix"))
        return found

    fin, dyn, u, bloch = evolve.refine(run, criteria, cfg, "phase decomposition")
    u = None if u is None else evolve._unitary_projection(u)
    parts = []
    for psi, fin_c, dyn_c, path in zip(stack, fin, map(float, dyn), bloch):
        ov = np.vdot(psi, fin_c)
        total = float(np.angle(ov))
        # Rounding can push |<psi0|psi(T)>| a last ulp above 1.
        defect = 1.0 - min(float(abs(ov)), 1.0)
        valid = bool(defect <= cyclicity_threshold)
        geometric = pauli.wrap_pi(total - dyn_c)
        parts.append(PhaseDecomposition(total, dyn_c, geometric, defect, valid, u, path))
    return tuple(parts) if psi0.ndim == 2 else parts[0]


def decompose_loop(
    s: FieldSchedule,
    psi0,
    cfg: evolve.PropagatorConfig | None = None,
    cyclicity_threshold=1e-6,
    with_unitary=False,
) -> PhaseDecomposition:
    """``decompose`` for one state (2,), in closed form where one exists.

    When ``s`` has a rotating frame (w, n, m), the one-period propagator is
    U = -exp(i (Phi/2) n . sigma) (``evolve._frame_unitary``), with
    Phi = tau <m> the field angle swept in the frame (Aharonov & Anandan,
    PRL 58, 1593 (1987)).  A state psi0 with Bloch vector sigma n
    (sigma = +-1, within 1e-12) gets

        total = arg<psi0|U psi0>,
        dynamical = sigma (Phi - w 2 pi n_z) / 2,
        geometric = total - dynamical, reduced to (-pi, pi].

    On a frame of constant magnitude m any other start r0 gets the same
    total and geometric parts, and the dynamical phase (1/2) integral of
    b . r(t) over the frame's precession of r0 about n, with
    b = m n - w omega z-hat the field at t = 0:

        dynamical = (1/2) [(n . r0)(Phi - w 2 pi n_z)
                    - (w omega / m)(sin Phi z . r_perp
                                    - (1 - cos Phi) z . (n x r0))],

    with r_perp = r0 - (n . r0) n.  At r0 = sigma n it is the on-axis value.
    <m> is the periodic trapezoid rule on the ``cfg.steps_per_period``
    grid, spectrally accurate for a smooth periodic magnitude.  The result
    has route "rotating_frame" and no Bloch path.  The CF4 ladder
    (``decompose``) runs instead when the schedule has no frame, when psi0
    lies off the axis of a frame whose magnitude varies (the charge
    drive), when the rule on the half grid moves Phi by more than
    ``cfg.tolerance``, or when one ulp of Phi exceeds it: then
    Phi mod 2 pi has no digits, and the ladder reports the loop as not
    converged.
    """
    cfg = cfg or evolve.PropagatorConfig()
    psi0 = np.asarray(psi0, dtype=complex)
    exact = _frame_route(s, psi0, cfg)
    if exact is None:
        return decompose(s, psi0, cfg, cyclicity_threshold, with_unitary)
    u, dyn = exact
    ov = np.vdot(psi0, u @ psi0)
    total = float(np.angle(ov))
    defect = 1.0 - min(float(abs(ov)), 1.0)
    return PhaseDecomposition(
        total,
        dyn,
        pauli.wrap_pi(total - dyn),
        defect,
        bool(defect <= cyclicity_threshold),
        u if with_unitary else None,
        route=ROUTE_FRAME,
    )


def _frame_route(s: FieldSchedule, psi0, cfg):
    """(U, dynamical phase) of the closed form for ``decompose_loop``, or
    None when the ladder must run."""
    frame = s.frame
    if frame is None or psi0.shape != (2,):
        return None
    bloch = pauli.bloch_of_state(psi0)
    sigma = 1.0 if float(bloch @ frame.axis) >= 0.0 else -1.0
    on_axis = float(np.max(np.abs(bloch - sigma * frame.axis))) <= _AXIS_ATOL
    if not (on_axis or frame.constant is not None):
        return None
    grid, _ = evolve._phase_table(evolve._even(cfg.steps_per_period))
    m = frame.magnitude(grid[0, :-1], grid[1, :-1])
    phi = s.period * float(np.mean(m))
    half = s.period * float(np.mean(m[::2]))
    if not (np.spacing(phi) <= cfg.tolerance and abs(phi - half) <= cfg.tolerance):
        return None
    w, n = frame.winding, frame.axis
    u = evolve._frame_unitary(w, s.omega, n, phi, s.period)
    axial = phi - w * 2.0 * np.pi * float(n[2])
    if on_axis:
        return u, 0.5 * sigma * axial
    along = float(n @ bloch)
    perp_z = float(bloch[2]) - along * float(n[2])
    cross_z = float(n[0] * bloch[1] - n[1] * bloch[0])
    turn = np.sin(phi) * perp_z - 2.0 * np.sin(0.5 * phi) ** 2 * cross_z
    return u, 0.5 * (along * axial - w * s.omega / frame.constant * turn)


def _nearest_fill(values, good):
    """Replace bad entries with the value at the nearest good index."""
    idx = np.arange(len(values))
    pos = np.where(good)[0]
    right = pos[np.clip(np.searchsorted(pos, idx), 0, len(pos) - 1)]
    left = pos[np.clip(np.searchsorted(pos, idx, side="right") - 1, 0, len(pos) - 1)]
    nearest = np.where(np.abs(idx - left) <= np.abs(right - idx), left, right)
    return np.where(good, values, values[nearest])


def solid_angle(path, closed_atol=1e-6) -> SolidAngleResult:
    """Signed solid-angle line integral over a closed Bloch path.

    gamma = -(1/2) closed-int (1 - cos theta) d phi, with the azimuth
    unwrapped along the path.  Polar samples (sin theta < 1e-7) take their
    azimuth from the nearest non-polar sample, so paths that dwell at a
    pole integrate cleanly.  The trapezoid sum is Richardson-extrapolated
    with its stride-2 subsample, giving fourth-order accuracy on smooth
    paths.

    Parameters
    ----------
    path : ndarray (n, 3)
        Unit Bloch vectors, such as ``PhaseDecomposition.bloch``; first and
        last samples must agree within ``closed_atol``.
    """
    n = np.asarray(path, float)
    if n.ndim != 2 or n.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) Bloch path, got shape {n.shape}")
    if float(np.max(np.abs(n[0] - n[-1]))) > closed_atol:
        raise ValueError("Bloch path is not closed")
    nz = np.clip(n[:, 2], -1.0, 1.0)
    sin_theta = np.hypot(n[:, 0], n[:, 1])
    theta = np.arctan2(sin_theta, nz)
    polar = sin_theta < _POLE_EPS
    if polar.all():
        return SolidAngleResult(0.0, 0, float(theta.min()), float(theta.max()))
    phi = np.arctan2(n[:, 1], n[:, 0])
    if polar.any():
        phi = _nearest_fill(phi, ~polar)
    phi = np.unwrap(phi)
    w = 1.0 - nz

    def stieltjes(ws, ps):
        return float(np.sum(0.5 * (ws[:-1] + ws[1:]) * np.diff(ps)))

    i_h = stieltjes(w, phi)
    i_2h = stieltjes(w[::2], phi[::2])
    gamma = -0.5 * (4.0 * i_h - i_2h) / 3.0
    winding = int(round((phi[-1] - phi[0]) / (2.0 * np.pi)))
    return SolidAngleResult(gamma, winding, float(theta.min()), float(theta.max()))


def berry_adiabatic(s: FieldSchedule):
    """Adiabatic-limit phase: solid angle traced by the field direction.

    Applies the same line integral to Bhat(t) on 4096 uniform steps of one
    period (the grid of the 4096-step phase table).  This is the phase a
    state pinned to +Bhat would pick up per loop; the anti-aligned member's
    value is obtained by passing the negated schedule.  Raises ValueError
    if the field magnitude vanishes anywhere on the loop.
    """
    grid, _ = evolve._phase_table(4096)
    b = np.asarray(s.field(*grid), dtype=float)
    nb = np.linalg.norm(b, axis=-1)
    if float(nb.min()) <= 1e-12 * float(nb.max()):
        raise ValueError("field magnitude vanishes on the loop; direction undefined")
    unit = b / nb[:, None]
    return solid_angle(unit, closed_atol=1e-8).gamma


def loop_phase(chi):
    """Canonical one-loop phase magnitude pi * (1 - cos chi)."""
    return np.pi * (1.0 - np.cos(chi))
