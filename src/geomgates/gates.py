"""Gate assembly from loop phases, and gate-level diagnostics.

A cyclic pair at cone angle chi with loop phase gamma realizes the
unitary

    U(chi, gamma) = [[e^{i g} c^2 + e^{-i g} s^2,   i sin(chi) sin(g)],
                     [i sin(chi) sin(g),            e^{i g} s^2 + e^{-i g} c^2]]

with c = cos(chi/2), s = sin(chi/2); equivalently exp(i gamma n . sigma)
for the cone axis n = (sin chi, 0, cos chi).  Conditional operation on a
control qubit stacks two such blocks into a 4x4 diagonal-block gate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import evolve, pauli, phases
from .csvio import write_json
from .fields import (
    FieldSchedule,
    negated_schedule,
    reversed_schedule,
    time_reversed_schedule,
)

__all__ = [
    "GateSpec",
    "TwoQubitGateSpec",
    "GateReport",
    "build_gate",
    "build_two_qubit",
    "noncommutable",
    "nontrivial_two_qubit",
    "block_phase_separable",
    "gate_fidelity",
    "Composite",
    "compose",
    "synthesize_double_loop",
    "REVERSAL_RULES",
    "gate_report_to_json",
]


_ZERO_TOL = 1e-12  # commutation criterion and branch-parameter distance
_SEPARABLE_TOL = 1e-9  # block_phase_separable's residuals


@dataclass(frozen=True)
class GateSpec:
    """Cone angle and loop phase of a single-qubit gate, or equal-shape
    arrays of them: the gate laws then give one result per entry."""

    chi: float
    gamma: float


@dataclass(frozen=True)
class TwoQubitGateSpec:
    """Per-control-branch gate specs (control state 0 and 1)."""

    spec0: GateSpec
    spec1: GateSpec


def build_gate(spec: GateSpec):
    """2x2 gate matrix for a cone loop, exactly unitary; (..., 2, 2) for
    stacked specs."""
    c2 = np.square(np.cos(0.5 * spec.chi))
    s2 = np.square(np.sin(0.5 * spec.chi))
    ep = np.exp(1j * spec.gamma)
    em = np.exp(-1j * spec.gamma)
    off = 1j * np.sin(spec.chi) * np.sin(spec.gamma)
    u = np.stack([ep * c2 + em * s2, off, off, ep * s2 + em * c2], axis=-1)
    return u.reshape(u.shape[:-1] + (2, 2))


def build_two_qubit(tq: TwoQubitGateSpec):
    """Block-diagonal conditional gate diag(U(spec0), U(spec1)); (..., 4, 4)
    for stacked specs."""
    u0, u1 = build_gate(tq.spec0), build_gate(tq.spec1)
    zero = np.zeros_like(u0)
    return np.block([[u0, zero], [zero, u1]])


def noncommutable(a: GateSpec, b: GateSpec):
    """Whether the two gates fail to commute; elementwise on stacked specs.

    Criterion: sin(g1) sin(g2) sin(chi2 - chi1) != 0 (up to 1e-12), which
    equals half the largest entry of the commutator.
    """
    crit = np.sin(a.gamma) * np.sin(b.gamma) * np.sin(b.chi - a.chi)
    return np.abs(crit) > _ZERO_TOL


def nontrivial_two_qubit(tq: TwoQubitGateSpec):
    """Whether the conditional gate is not a local (separable) operation;
    elementwise on stacked specs.

    True iff the branch parameters differ modulo 2 pi (by more than
    1e-12): gamma1 != gamma0 or chi1 != chi0.  One corner case: equal
    cone angles with gamma offset by exactly pi give U1 = -U0, which is
    still a phase multiple and hence a local operation even though the
    parameters differ; use ``block_phase_separable`` on the built matrix
    when strict separability semantics are needed.
    """
    dg = pauli.angle_dist(tq.spec1.gamma, tq.spec0.gamma)
    dc = pauli.angle_dist(tq.spec1.chi, tq.spec0.chi)
    return (dg > _ZERO_TOL) | (dc > _ZERO_TOL)


def block_phase_separable(u4):
    """Direct separability check for a block-diagonal two-qubit gate; one
    result per matrix of a (..., 4, 4) stack.

    diag(U0, U1) is a product of local unitaries exactly when U1 is a
    global-phase multiple of U0 (within 1e-9).
    """
    u4 = np.asarray(u4, dtype=complex)
    u0, u1 = u4[..., :2, :2], u4[..., 2:, 2:]
    d = u0.conj().swapaxes(-1, -2) @ u1
    ph = np.trace(d, axis1=-2, axis2=-1) / 2.0
    residual = np.max(np.abs(d - ph[..., None, None] * np.eye(2)), axis=(-2, -1))
    return (np.abs(np.abs(ph) - 1.0) <= _SEPARABLE_TOL) & (residual <= _SEPARABLE_TOL)


def gate_fidelity(u, v):
    """Global-phase-free overlap |tr(U^dag V)| / dim, at most 1.

    Both arguments must be unitary (within the package-wide tolerance).
    Rounding can push the overlap a last ulp above 1; it is clipped, as
    the composite defect in ``synthesize_double_loop`` is.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    for m, name in ((u, "first"), (v, "second")):
        d = pauli.unitarity_defect(m)
        if d > pauli.UNITARY_ATOL:
            raise ValueError(f"{name} argument is not unitary (defect {d:.3e})")
    dim = u.shape[0]
    return min(float(abs(np.trace(u.conj().T @ v)) / dim), 1.0)


# Reversal rules for the second loop of the echo protocol, by name.  The
# literal rule (sign-flipped retrace) is the default.
REVERSAL_RULES = {
    "negated_reversed": reversed_schedule,
    "time_reversed": time_reversed_schedule,
    "negated": negated_schedule,
}


@dataclass(frozen=True)
class GateReport:
    """Outcome of a synthesis protocol, JSON-exportable."""

    label: str
    chi: float
    matrix: np.ndarray
    loop1: dict
    loop2: dict
    dynamical_sum: float
    geometric_sum: float
    composite_defect: float
    target_gamma: float
    fidelity_target: float
    fidelity_identity: float
    flags: dict = field(default_factory=dict)


def _decomp_dict(d: phases.PhaseDecomposition):
    keys = ("total", "dynamical", "geometric", "cyclicity_defect", "valid", "route")
    return {k: getattr(d, k) for k in keys}


@dataclass(frozen=True)
class Composite:
    """What ``compose`` returns (see there)."""

    loops: list
    unitary: np.ndarray
    state: np.ndarray
    dynamical: float
    geometric: float


def compose(sequence, psi0, cfg: evolve.PropagatorConfig | None = None) -> Composite:
    """Fold a gate's steps, in time order, from the state psi0.

    A step is a ``FieldSchedule`` (one loop) or a fixed 2x2 unitary (a
    pulse).  Its matrix multiplies the running state and, from the left,
    the product, which starts as the first step's matrix.  Each loop's
    phase split and one-period propagator come from one call of
    ``phases.decompose_loop`` with ``with_unitary=True`` from the running
    state: in closed form when the loop's in-frame field has a fixed axis
    and the loop either starts on it or has a constant frame magnitude,
    else from one refinement ladder whose rungs give both, so no loop is
    propagated twice.  A loop whose in-frame field has no fixed axis runs
    that ladder in the co-rotating frame (route "frame_ladder").  Only the
    first loop is judged cyclic: a later one starts wherever the sequence
    left the state, so it takes threshold inf and stays valid.

    Returns a ``Composite``: the loops' decompositions in time order, the
    product, the final running state, the loops' dynamical sum and their
    geometric sum wrapped to (-pi, pi].
    """
    cfg = cfg or evolve.PropagatorConfig()
    loops, u, psi = [], None, psi0
    for step in sequence:
        if isinstance(step, FieldSchedule):
            judged = {"cyclicity_threshold": np.inf} if loops else {}
            loops.append(phases.decompose_loop(step, psi, cfg, with_unitary=True, **judged))
            m = loops[-1].unitary
        else:
            m = np.asarray(step, dtype=complex)
        u = m if u is None else m @ u
        psi = pauli.normalize(m @ psi)
    dyn = sum(d.dynamical for d in loops)
    return Composite(loops, u, psi, dyn, pauli.wrap_pi(sum(d.geometric for d in loops)))


def synthesize_double_loop(
    s: FieldSchedule,
    pair: phases.CyclicPair,
    cfg: evolve.PropagatorConfig | None = None,
    reversal="negated_reversed",
) -> GateReport:
    """Run two loops, the second with a reversal rule, and report the gate.

    The loops are ``compose([s, rule(s)], psi_plus)``, so the composite is
    U2 @ U1.  On the shipped drives loop 1 is closed-form, and so is loop 2
    but for the charge drive's ``time_reversed`` and ``negated`` loops,
    which run the frame ladder.  With the literal echo rule (second-loop
    field -B(tau - t)) U2 is exactly the inverse of U1, so the dynamical
    phases cancel and the composite collapses to the identity; the report
    quantifies both facts.  The intended doubled cone gate
    U(chi, 2 gamma_loop) is the comparison target.  Both distances are
    gate fidelities; ``identity_reached`` asks 1 - F <= 1e-12 of the
    identity, which an entry error delta meets near delta = 1.4e-6, since
    1 - F ~ delta^2 / 2.  Pass a different rule name from REVERSAL_RULES
    to evaluate protocol variants.
    """
    c = compose([s, REVERSAL_RULES[reversal](s)], pair.psi_plus, cfg)
    d1, d2 = c.loops
    u = c.unitary
    fin = u @ pair.psi_plus
    # Rounding can push the fidelity a last ulp above 1, as in ``decompose``.
    composite_defect = 1.0 - min(pauli.state_fidelity(pair.psi_plus, fin), 1.0)

    target_gamma = 2.0 * d1.geometric
    target = build_gate(GateSpec(pair.chi, target_gamma))
    fidelity_identity = gate_fidelity(np.eye(2), u)

    return GateReport(
        label=f"double_loop[{s.label}]",
        chi=pair.chi,
        matrix=u,
        loop1=_decomp_dict(d1),
        loop2=_decomp_dict(d2),
        dynamical_sum=float(c.dynamical),
        geometric_sum=float(c.geometric),
        composite_defect=float(composite_defect),
        target_gamma=float(target_gamma),
        fidelity_target=gate_fidelity(target, u),
        fidelity_identity=fidelity_identity,
        flags={
            "dynamical_cancelled": bool(abs(c.dynamical) <= 1e-6),
            "identity_reached": bool(1.0 - fidelity_identity <= 1e-12),
            "cyclic": bool(composite_defect <= 1e-6),
            "reversal": reversal,
        },
    )


def gate_report_to_json(report: GateReport, path):
    """Write a GateReport as JSON (matrix split into re/im parts)."""
    doc = asdict(report)
    matrix = doc.pop("matrix")
    doc["matrix_re"], doc["matrix_im"] = matrix.real, matrix.imag
    return write_json(path, doc)
