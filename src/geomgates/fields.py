"""Time-dependent control-field schedules for the two qubit platforms.

A schedule is a deterministic field B (a 3-vector in energy units) over
one loop period tau = 2 pi / omega.  Every drive traces its loop once per
period and depends on time only through the drive angle wt, so a schedule
holds B as a function of c = cos wt and s = sin wt; ``sample(t)`` reads it
at arbitrary times.  Single-qubit dynamics follow
H(t) = -(1/2) B(t) . sigma.  Builders are provided for

* a circularly rotating transverse field with a static z component
  (the NMR-style drive), whose z component the coupling to a spectator
  qubit shifts, and
* a flux-plus-offset-charge driven Josephson charge qubit whose designed
  drive keeps the effective-field cone angle constant over a loop, plus
  the z shift of a coupled control qubit.

A schedule can be rotated about the y axis, sign-flipped and retraced.
Every schedule spans exactly one period: a protocol of several loops is
the product of the loops' propagators, not one joined schedule.  Since
omega tau = 2 pi, retracing the loop maps the drive angle wt to
2 pi - wt, that is (c, s) to (c, -s), so every transform is an exact map
of the field function.

Both builders' unshifted drives are fixed-axis fields in the frame that
rotates with the drive, and say so in a ``Frame``:
B = R_z(w wt)(m n) - w omega z-hat, with winding w = +-1, a fixed unit
axis n and the magnitude m(c, s) = |B'|.  The sign-flipped retrace maps
every frame.  Sign flip and retrace alone map a frame whose magnitude is
constant (the NMR drive's): the field at t = 0, b = m n - w omega z-hat,
keeps its turning sense under the flip and reverses it under the
retrace, so the new rotating-frame field stays fixed.  A charge drive's
m varies over the loop, so those two transforms leave its frame field
turning and keep none; nor does a rotation or a z-shifted charge drive.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

__all__ = [
    "FieldSchedule",
    "Frame",
    "NmrParams",
    "JosephsonParams",
    "TwoQubitModel",
    "nmr_schedule",
    "josephson_schedule",
    "josephson_ej",
    "josephson_flux_phase",
    "josephson_offset_charge",
    "rotate_schedule",
    "negated_schedule",
    "time_reversed_schedule",
    "reversed_schedule",
    "nmr_two_qubit",
    "rotation_about_y",
]


@dataclass(frozen=True, eq=False)
class Frame:
    """The drive's rotating frame, in which the field has a fixed axis.

    The lab field is B = R_z(w wt)(m(c, s) n) - w omega z-hat, where R_z
    turns about z, so in the frame rotating with the drive the field is
    m n: fixed in direction, varying only in size.

    winding : +1 for a counterclockwise loop, -1 for a clockwise one
    axis : unit 3-vector n, the rotating-frame field direction
    magnitude : maps c = cos wt and s = sin wt to m = |B'| >= 0
    constant : m when it is the same at every drive angle, else None.
        Only such a frame survives ``negated_schedule`` and
        ``time_reversed_schedule``, and only on it does a state off the
        axis get the closed-form phase split (``phases.decompose_loop``).

    Frames compare and hash by identity, so schedules stay hashable.
    """

    winding: int
    axis: np.ndarray
    magnitude: Callable[[np.ndarray, np.ndarray], np.ndarray]
    constant: float | None = None


def _constant_frame(winding, field):
    """Frame of the constant rotating-frame field ``field`` = m n, or None
    when that field vanishes: a zero field has no axis."""
    x, y, z = map(float, field)
    m = float(np.hypot(np.hypot(x, y), z))
    if not m > 0.0:
        return None
    return Frame(winding, np.array([x, y, z]) / m, lambda c, s: np.full(np.shape(c), m), m)


def _flipped_frame(s: "FieldSchedule", sign):
    """Frame of the drive whose field at t = 0 is sign * b, winding the
    other way when sign = +1 and the same way when sign = -1.

    With b = m n - w omega z-hat, that drive's lab field is
    R_z(-sign w wt)(sign b), so its rotating-frame field is
    sign (m n - 2 w omega z-hat): fixed when m is.  None when m varies.
    """
    frame = s.frame
    if frame is None or frame.constant is None:
        return None
    w = frame.winding
    field = frame.constant * frame.axis - np.array([0.0, 0.0, 2.0 * w * s.omega])
    return _constant_frame(-sign * w, sign * field)


@dataclass(frozen=True)
class FieldSchedule:
    """A deterministic field over one loop, as a function of the drive angle.

    Attributes
    ----------
    field : callable
        Maps c = cos wt and s = sin wt (floats or equal-shape arrays) to
        field vectors of shape (..., 3).  Pure function.
    omega : float
        Drive angular frequency w; the loop spans one period 2 pi / w.
    label : str
        Human-readable tag carried into exports.
    frame : Frame or None
        The rotating frame in which the field has a fixed axis, when the
        builder knows one; it gives the loop's propagator in closed form.
    """

    field: Callable[[np.ndarray, np.ndarray], np.ndarray]
    omega: float
    label: str
    frame: Frame | None = None

    def __post_init__(self):
        _check_omega(self.omega)

    @property
    def period(self):
        """Loop period tau = 2 pi / omega: the time span the schedule covers."""
        return 2.0 * np.pi / self.omega

    def sample(self, t):
        """Field vectors (..., 3) at a float or array of times t."""
        wt = self.omega * np.asarray(t, dtype=float)
        return self.field(np.cos(wt), np.sin(wt))


def _check_omega(omega):
    """ValueError unless omega > 0 and omega and the period 2 pi / omega are finite."""
    if not omega > 0.0:
        raise ValueError(f"the drive frequency omega must be positive, got {omega:g}")
    period = 2.0 * math.pi / float(omega)
    if not (math.isfinite(omega) and math.isfinite(period)):
        raise ValueError(
            f"the drive frequency or period overflows a float: omega = {omega:g} "
            f"gives the period 2 pi / omega = {period:g}"
        )


def _check_finite(params, field, *b2):
    """ValueError unless every value of ``params`` is finite, and so is
    every squared field |B|^2 in ``b2``, the sum the steppers form."""
    for name, value in vars(params).items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not all(map(math.isfinite, b2)):
        raise ValueError(f"the drive field overflows a float: {field} is not finite")


@dataclass(frozen=True)
class NmrParams:
    """Rotating-frame drive parameters, all in energy units (hbar = 1).

    omega0 : transverse drive amplitude (>= 0)
    omega1 : static z field
    omega  : drive angular frequency (> 0); loop period is 2*pi/omega
    j      : zz coupling strength to the spectator (control) qubit
    delta  : control-qubit basis state in {0, 1} for conditional drives

    The period and the squared lab and rotating-frame fields are finite too.
    """

    omega0: float
    omega1: float
    omega: float
    j: float = 0.0
    delta: int = 0

    def __post_init__(self):
        _check_omega(self.omega)
        if self.omega0 < 0.0:
            raise ValueError(f"omega0 must be non-negative, got {self.omega0}")
        if self.delta not in (0, 1):
            raise ValueError(f"delta must be 0 or 1, got {self.delta}")
        w0, z, w = float(self.omega0), float(self.z_effective), float(self.omega)
        field = "omega0^2 + z^2 or the rotating-frame omega0^2 + (z + omega)^2"
        _check_finite(self, field, w0 * w0 + z * z, w0 * w0 + (z + w) * (z + w))

    @property
    def tau(self):
        return 2.0 * np.pi / self.omega

    @property
    def z_effective(self):
        """z field seen by the driven qubit: omega1 + (2*delta - 1) * j."""
        return self.omega1 + (2 * self.delta - 1) * self.j


@dataclass(frozen=True)
class JosephsonParams:
    """Charge-qubit drive parameters, energies in consistent units.

    e1, e2 : junction energies (> 0, e1 != e2)
    e_ch   : charging energy scale multiplying (1 - 2 n_x) (> 0)
    e_i    : conditional z shift per unit offset-charge difference
    chi0   : designed cone angle, in (0, pi)
    omega  : drive angular frequency (> 0)
    nxc    : control-qubit offset charge entering the conditional shift
    delta  : control-qubit basis state in {0, 1}

    The period, (e1 + e2)^2 and the squared field are finite too, and
    (e1 - e2)^2 is a normal float, so E_J never reads 0/0.
    """

    e1: float
    e2: float
    e_ch: float
    chi0: float
    omega: float
    e_i: float = 0.0
    nxc: float = 0.0
    delta: int = 0

    def __post_init__(self):
        _check_omega(self.omega)
        if not (self.e1 > 0.0 and self.e2 > 0.0):
            raise ValueError("junction energies e1, e2 must be positive")
        if not self.e_ch > 0.0:
            raise ValueError(f"charging energy e_ch must be positive, got {self.e_ch}")
        if self.e1 == self.e2:
            raise ValueError("junction asymmetry required: e1 must differ from e2")
        if not 0.0 < self.chi0 < np.pi:
            raise ValueError(f"chi0 must lie strictly inside (0, pi), got {self.chi0}")
        if self.delta not in (0, 1):
            raise ValueError(f"delta must be 0 or 1, got {self.delta}")
        e_plus = float(self.e_plus)
        if not math.isfinite(e_plus * e_plus):
            raise ValueError(
                "drive parameters overflow a float: the junction energies overflow "
                "a float in (e1 + e2)^2"
            )
        # E_J divides by a mix of (e1 - e2)^2 and (e1 + e2)^2; it needs the
        # smaller one to be a normal float, not 0 or a denormal
        e_minus = float(self.e_minus)
        if not e_minus * e_minus >= sys.float_info.min:
            raise ValueError(
                "drive parameters underflow a float: the junction energies underflow "
                f"a float in (e1 - e2)^2 = {e_minus * e_minus:g}"
            )
        # |B|^2 = E_J^2 + (E_J cot chi0 + omega + d)^2 peaks at an end of
        # the junction energy's range [|e1 - e2|, e1 + e2]
        cot0 = math.cos(self.chi0) / math.sin(self.chi0)
        z0 = float(self.omega) + self.e_i * (self.nxc - self.delta)
        e_lo = abs(float(self.e_minus))
        z_lo, z_hi = e_lo * cot0 + z0, e_plus * cot0 + z0
        b2 = (e_lo * e_lo + z_lo * z_lo, e_plus * e_plus + z_hi * z_hi)
        _check_finite(self, "|B|^2 over the loop", *b2)

    @classmethod
    def from_cos_chi0(cls, cos_chi0, **kw) -> "JosephsonParams":
        """Params at chi0 = arccos(cos_chi0), with cos_chi0 strictly inside (-1, 1)."""
        if not -1.0 < cos_chi0 < 1.0:
            raise ValueError(f"cos_chi0 must lie strictly inside (-1, 1), got {cos_chi0!r}")
        return cls(chi0=float(np.arccos(cos_chi0)), **kw)

    @property
    def e_plus(self):
        return self.e1 + self.e2

    @property
    def e_minus(self):
        return self.e1 - self.e2

    @property
    def tau(self):
        return 2.0 * np.pi / self.omega


def nmr_schedule(p: NmrParams) -> FieldSchedule:
    """Rotating transverse field with a static z component.

    B(t) = (omega0 cos wt, omega0 sin wt, z) with z = p.z_effective, so the
    same builder covers the bare drive (j = 0) and the drive seen by the
    target when the control sits in |delta>: the exact eigenblock
    restriction of the coupled two-qubit Hamiltonian, where the zz coupling
    turns into the z-field shift (2*delta - 1) * j and nothing else changes.
    In the frame rotating at omega the field is the constant
    (omega0, 0, z + omega).
    """
    z = p.z_effective
    omega0 = p.omega0

    def field(c, s):
        out = np.empty(np.shape(c) + (3,))
        np.multiply(c, omega0, out=out[..., 0])
        np.multiply(s, omega0, out=out[..., 1])
        out[..., 2] = z
        return out

    label = f"nmr(omega0={p.omega0:g}, z={z:g}, omega={p.omega:g})"
    frame = _constant_frame(+1, (omega0, 0.0, z + p.omega))
    return FieldSchedule(field=field, omega=p.omega, label=label, frame=frame)


def josephson_ej(p: JosephsonParams, t):
    """Effective junction energy E_J(t) along the designed flux drive."""
    wt = p.omega * np.asarray(t, dtype=float)
    return _josephson_ej(p, np.cos(wt), np.sin(wt))


def _josephson_ej(p: JosephsonParams, c, s):
    """E_J at drive angles wt given by c = cos wt and s = sin wt."""
    em2, ep2 = p.e_minus**2, p.e_plus**2
    cos2beta = em2 * c * c
    cos2beta /= cos2beta + ep2 * s * s
    return np.sqrt(em2 + 4.0 * p.e1 * p.e2 * cos2beta)


def josephson_flux_phase(p: JosephsonParams, t):
    """Continuous flux phase beta(t) = pi * Phi(t) / Phi_0 with beta(0) = 0.

    Evaluated with a two-argument arctangent plus a branch correction so the
    result is continuous in t (no jumps at odd quarter periods).  For
    e1 < e2 the phase runs opposite to the drive angle wt.
    """
    t = np.asarray(t, dtype=float)
    wt = p.omega * t
    em = p.e_minus
    # principal value stays within pi/2 of wt because the dot product of
    # (|em| cos, ep sin) with (cos, sin) is positive for all t
    principal = np.arctan2(p.e_plus * np.sin(wt), abs(em) * np.cos(wt))
    corr = np.remainder(principal - wt + np.pi, 2.0 * np.pi) - np.pi
    beta = wt + corr
    out = np.sign(em) * beta
    if out.ndim == 0:
        return float(out)
    return out


def josephson_offset_charge(p: JosephsonParams, t):
    """Designed offset charge n_x(t) keeping the cone angle at chi0."""
    ej = josephson_ej(p, t)
    cot0 = np.cos(p.chi0) / np.sin(p.chi0)
    return 0.5 * (1.0 - (ej * cot0 + p.omega) / p.e_ch)


def josephson_schedule(p: JosephsonParams) -> FieldSchedule:
    """Designed constant-cone drive of the charge qubit.

    B(t) = (E_J(t) cos wt, -E_J(t) sin wt, E_J(t) cot chi0 + omega + d),
    with the control-conditioned z shift d = e_i (nxc - delta).  Without
    the shift (d = 0) it satisfies (B_z - omega) = E_J cot chi0 exactly,
    so the cone angle arctan(E_J / (B_z - omega)) equals chi0 for all t,
    and the loop winds clockwise: in the frame rotating at -omega the
    field is (E_J / sin chi0) (sin chi0, 0, cos chi0).  A nonzero shift
    breaks the constant cone, the schedule then has no frame, and the
    label ends in `` + z_shift(d)``.
    """
    if p.e_plus >= 0.5 * p.e_ch:  # e_plus is the largest E_J
        warnings.warn(
            f"charging-regime assumption violated: max E_J = {p.e_plus:g} is not "
            f"small against e_ch/2 = {0.5 * p.e_ch:g}",
            stacklevel=2,
        )
    cot0 = np.cos(p.chi0) / np.sin(p.chi0)
    omega = p.omega
    shift = p.e_i * (p.nxc - p.delta)

    def field(c, s):
        ej = _josephson_ej(p, c, s)
        out = np.empty(np.shape(ej) + (3,))
        x, y, z = out[..., 0], out[..., 1], out[..., 2]
        np.multiply(ej, c, out=x)
        np.negative(np.multiply(ej, s, out=y), out=y)
        np.multiply(ej, cot0, out=z)
        z += omega
        if shift != 0.0:
            z += shift
        return out

    label = f"josephson(e1={p.e1:g}, e2={p.e2:g}, chi0={p.chi0:g}, omega={p.omega:g})"
    if shift != 0.0:
        label += f" + z_shift({shift:g})"
        return FieldSchedule(field=field, omega=omega, label=label)
    sin0 = np.sin(p.chi0)
    axis = np.array([sin0, 0.0, np.cos(p.chi0)])
    frame = Frame(-1, axis, lambda c, s: _josephson_ej(p, c, s) / sin0)
    return FieldSchedule(field=field, omega=omega, label=label, frame=frame)


def rotation_about_y(angle):
    """3x3 rotation matrix about the y axis; maps z-hat to (sin a, 0, cos a)."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _map_field(s: FieldSchedule, f, label, frame=None) -> FieldSchedule:
    """Apply a pointwise linear map to the field."""
    return FieldSchedule(
        field=lambda c, sn: f(s.field(c, sn)), omega=s.omega, label=label, frame=frame
    )


def rotate_schedule(s: FieldSchedule, dchi) -> FieldSchedule:
    """Rigidly rotate the whole field history about the y axis by dchi."""
    r = rotation_about_y(dchi)
    return _map_field(s, lambda b: b @ r.T, f"rot_y({dchi:g})[{s.label}]")


def negated_schedule(s: FieldSchedule) -> FieldSchedule:
    """Sign-flipped field, same traversal order.

    A constant-magnitude frame (w, n, m) maps to the same winding and the
    rotating-frame field -m n + 2 w omega z-hat; any other frame to None.
    """
    return _map_field(s, lambda b: -b, f"negated[{s.label}]", _flipped_frame(s, -1))


def time_reversed_schedule(s: FieldSchedule) -> FieldSchedule:
    """Retrace one loop backwards without flipping the field sign.

    B'(t) = B(tau - t): the drive angle 2 pi - wt, so the field at (c, -s).
    A constant-magnitude frame (w, n, m) maps to the winding -w and the
    rotating-frame field m n - 2 w omega z-hat; any other frame to None.
    """
    return FieldSchedule(
        field=lambda c, sn: s.field(c, -sn),
        omega=s.omega,
        label=f"time_reversed[{s.label}]",
        frame=_flipped_frame(s, +1),
    )


def reversed_schedule(s: FieldSchedule) -> FieldSchedule:
    """Sign-flipped retraced loop: B'(t) = -B(tau - t), the field -B(c, -s).

    Run after the original loop, this is the second period of the
    echo-style protocol B(2 tau - t) = -B(t).  Applying it twice returns the
    original loop.  A frame (w, n, m(c, s)) maps to (-w, -n, m(c, -s)).
    """
    frame = s.frame
    if frame is not None:
        m = frame.magnitude
        frame = Frame(-frame.winding, -frame.axis, lambda c, sn: m(c, -sn), frame.constant)
    return FieldSchedule(
        field=lambda c, sn: -s.field(c, -sn),
        omega=s.omega,
        label=f"reversed[{s.label}]",
        frame=frame,
    )


@dataclass(frozen=True)
class TwoQubitModel:
    """Control/target pair with zz coupling, control as left tensor factor.

    H(t) = h_c(t) (x) I + I (x) h_t(t) + (j / 2) sz (x) sz

    where h_t(t) = -(1/2) B_target(t) . sigma is the NMR drive of
    ``params`` without the coupling shift (``params.omega1`` is the
    target's own static field), and the control term is a static z field
    (``control_z``) or, with ``drive_on_control`` set, the target's
    transverse drive re-applied to the control on top of its own static
    z field (the leakage model used by the detuning sweep).
    """

    params: NmrParams
    control_z: float
    drive_on_control: bool = False

    @property
    def period(self):
        return self.params.tau

    def block_schedule(self, delta) -> FieldSchedule:
        """Target drive inside the control eigenblock |delta> (requires an
        undriven control)."""
        if self.drive_on_control:
            raise ValueError("driven control does not commute with sz(x)I; no exact blocks")
        return nmr_schedule(replace(self.params, delta=int(delta)))

    def block_energy(self, delta):
        """Constant energy of the control factor inside block |delta>."""
        sz = 1.0 - 2.0 * int(delta)
        return -0.5 * self.control_z * sz


def nmr_two_qubit(p: NmrParams, omega1_control, drive_on_control=False) -> TwoQubitModel:
    """Coupled pair: target driven by ``p``, spectator control at omega1_control."""
    return TwoQubitModel(
        params=p, control_z=float(omega1_control), drive_on_control=drive_on_control
    )
