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
the loop's in-frame field has a fixed axis and the loop either starts on
it or has a constant frame magnitude, and otherwise runs the ladder in
the co-rotating frame.  The closed form's geometric phase equals the
loop law by its algebra, so ``verify`` keeps the lab-frame ladder as its
reference and holds both routes to it.

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

# The routes of ``decompose_loop`` and ``decompose``, as recorded on their
# results: the closed form, the ladder in the co-rotating frame and the
# lab-frame ladder.
ROUTE_FRAME, ROUTE_FRAME_LADDER, ROUTE_LADDER = "rotating_frame", "frame_ladder", "cf4_ladder"

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
    (None off the lab-frame ladder).  ``route`` names what computed the
    split: "cf4_ladder", "frame_ladder" or "rotating_frame" (see
    ``decompose_loop``).
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


def _expectation_integral(s: FieldSchedule, ts, bloch, offset=0.0):
    """integral <psi|H|psi> dt with <H> = -(1/2) (B - offset z-hat) . n,
    by Simpson's rule.

    The field is smooth over the loop, so one composite Simpson sum over
    the whole uniform grid ``ts`` (an even number of steps, see
    ``evolve.time_grid``) suffices.  ``bloch`` is one path (n + 1, 3) or a
    stack (..., n + 1, 3) of paths, all integrated against one reading of
    the field on the grid's row of the phase table (``evolve._phase_table``).
    ``offset`` = w omega turns an in-frame field b and in-frame Bloch
    vectors into the lab energy (see ``decompose``).
    """
    grid, _ = evolve._phase_table(len(ts) - 1)
    b = np.asarray(s.field(*grid), dtype=float)
    if offset:
        b[..., 2] -= offset
    energy = -0.5 * np.einsum("nk,...nk->...n", b, bloch)
    return _simpson(energy, ts)


def decompose(
    s: FieldSchedule,
    psi0,
    cfg: evolve.PropagatorConfig | None = None,
    cyclicity_threshold=1e-6,
    with_unitary=False,
    in_frame=False,
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

    With ``in_frame=True`` the ladder runs in the frame co-rotating with
    the drive (``s.frame``, see ``fields.Frame``): the steps come from the
    in-frame field b, the energy integrand is -(1/2) (b - w omega z-hat) . r
    for the in-frame Bloch vector r, and the lab final state is -xi(tau),
    so U = -U_b.  Every criterion thus compares the same lab quantity at
    the same bound.  The result's route is "frame_ladder" and it has no
    Bloch path.

    Returns
    -------
    PhaseDecomposition, or a tuple of k of them for a stack
        total = arg<psi0|psi(T)>, dynamical = -integral <H> dt,
        geometric = (total - dynamical) reduced to (-pi, pi],
        cyclicity_defect = 1 - |<psi0|psi(T)>|, the validity flag
        cyclicity_defect <= cyclicity_threshold, ``unitary`` (None
        unless ``with_unitary``) and the accepted rung's Bloch path
        (lab frame only).
    """
    cfg = cfg or evolve.PropagatorConfig()
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.ndim not in (1, 2) or psi0.shape[-1] != 2:
        raise ValueError(f"expected a state (2,) or a stack (k, 2), got shape {psi0.shape}")
    stack = psi0.reshape(-1, 2)
    for psi in stack:
        pauli.assert_normalized(psi)

    field, offset, route = s, 0.0, ROUTE_LADDER
    if in_frame:
        field = FieldSchedule(s.frame.field, s.omega, s.label)
        offset, route = s.frame.winding * s.omega, ROUTE_FRAME_LADDER

    def run(steps):
        ts = evolve.time_grid(s, steps)
        states = evolve._fixed_states(evolve._step_unitaries(field, ts), psi0)
        bloch = evolve._bloch_rows(states)
        dyn = -_expectation_integral(field, ts, bloch, offset)
        # a copy, so that the previous rung keeps its path but not its states;
        # in the frame, negated: the frame factor is -I at one period
        fin = states[..., -1, :].reshape(-1, 2)
        fin = -fin if in_frame else fin.copy()
        u = evolve._matrix_of_states(stack[0], fin[0]) if with_unitary else None
        path = None if in_frame else bloch.reshape(len(stack), -1, 3)
        return fin, np.ravel(dyn), u, path

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
    paths = [None] * len(stack) if bloch is None else bloch
    parts = []
    for psi, fin_c, dyn_c, path in zip(stack, fin, map(float, dyn), paths):
        ov = np.vdot(psi, fin_c)
        total = float(np.angle(ov))
        # Rounding can push |<psi0|psi(T)>| a last ulp above 1.
        defect = 1.0 - min(float(abs(ov)), 1.0)
        valid = bool(defect <= cyclicity_threshold)
        geometric = pauli.wrap_pi(total - dyn_c)
        parts.append(PhaseDecomposition(total, dyn_c, geometric, defect, valid, u, path, route))
    return tuple(parts) if psi0.ndim == 2 else parts[0]


def decompose_loop(
    s: FieldSchedule,
    psi0,
    cfg: evolve.PropagatorConfig | None = None,
    cyclicity_threshold=1e-6,
    with_unitary=False,
) -> PhaseDecomposition:
    """``decompose`` for one state (2,), in closed form where one exists.

    When the in-frame field of ``s`` has a fixed axis, b = m n (see
    ``fields.Frame``), the one-period propagator is
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
    has route "rotating_frame" and no Bloch path.

    Every other loop of a schedule with a frame runs the CF4 ladder on the
    in-frame field b (``decompose`` with ``in_frame=True``, route
    "frame_ladder"): b with no fixed axis (the charge drive's sign-flipped
    and retraced loops, its z-shifted drive), a state off the axis of a
    varying magnitude, and a Phi that the half grid moves by more than
    ``cfg.tolerance`` or one ulp of which exceeds it.  CF4's error comes
    from commutators of the field at different times (Blanes & Moan 2006);
    the lab field turns once per loop while b nearly keeps its direction,
    so the frame ladder settles in fewer rungs.  A rotated drive has no
    frame and takes the lab-frame ladder.  So does a fixed axis whose Phi
    has too few digits: one ulp of Phi above the tolerance when m is
    constant, or above sqrt(cfg.steps_per_period) times it when m varies.
    There the frame ladder's steps commute, and two rungs can agree by
    rounding alone; the lab-frame ladder reports the loop as not
    converged.
    """
    cfg = cfg or evolve.PropagatorConfig()
    psi0 = np.asarray(psi0, dtype=complex)
    route, exact = _frame_route(s, psi0, cfg)
    if exact is None:
        in_frame = route == ROUTE_FRAME_LADDER
        return decompose(s, psi0, cfg, cyclicity_threshold, with_unitary, in_frame)
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
    """The route ``decompose_loop`` takes, with the closed form's
    (U, dynamical phase) on ROUTE_FRAME and None on either ladder."""
    frame = s.frame
    if frame is None:
        return ROUTE_LADDER, None
    if frame.axis is None:
        return ROUTE_FRAME_LADDER, None
    steps = evolve._even(cfg.steps_per_period)
    grid, _ = evolve._phase_table(steps)
    m = frame.magnitude(grid[0, :-1], grid[1, :-1])
    phi = s.period * float(np.mean(m))
    half = s.period * float(np.mean(m[::2]))
    ulp = float(np.spacing(phi))
    # About a fixed axis the ladder's steps commute, so a rung's field angle
    # is a sum of rounded step angles, off by about ulp / sqrt(steps) when m
    # varies and by ulp itself when m is constant (each rung then halves
    # every step angle exactly).  Beyond the tolerance two rungs can agree
    # by rounding alone; the lab-frame ladder reports such a loop as not
    # converged.
    if not ulp <= cfg.tolerance * (1.0 if frame.constant is not None else np.sqrt(steps)):
        return ROUTE_LADDER, None
    if psi0.shape != (2,) or not (ulp <= cfg.tolerance and abs(phi - half) <= cfg.tolerance):
        return ROUTE_FRAME_LADDER, None
    bloch = pauli.bloch_of_state(psi0)
    sigma = 1.0 if float(bloch @ frame.axis) >= 0.0 else -1.0
    on_axis = float(np.max(np.abs(bloch - sigma * frame.axis))) <= _AXIS_ATOL
    if not (on_axis or frame.constant is not None):
        return ROUTE_FRAME_LADDER, None
    w, n = frame.winding, frame.axis
    u = evolve._frame_unitary(w, s.omega, n, phi, s.period)
    axial = phi - w * 2.0 * np.pi * float(n[2])
    if on_axis:
        return ROUTE_FRAME, (u, 0.5 * sigma * axial)
    along = float(n @ bloch)
    perp_z = float(bloch[2]) - along * float(n[2])
    cross_z = float(n[0] * bloch[1] - n[1] * bloch[0])
    turn = np.sin(phi) * perp_z - 2.0 * np.sin(0.5 * phi) ** 2 * cross_z
    return ROUTE_FRAME, (u, 0.5 * (along * axial - w * s.omega / frame.constant * turn))


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
