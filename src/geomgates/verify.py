"""Verification suite: every cross-check the package asserts about itself.

Each ``check_*`` function takes the configuration alone, so its numerics
come from ``cfg.propagator``; it measures one family of invariants and
returns ``CheckResult`` rows.  ``run_all`` aggregates them into a
``VerificationReport``.  The acceptance tests call the same functions, so
the CLI ``verify`` subcommand and the test suite cannot drift apart.

All comparisons between angles are modulo 2 pi.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import experiments, gates, pauli, phases
from .config import Config
from .evolve import final_state, rotating_frame_oracle, total_unitary, two_qubit_unitary
from .fields import NmrParams, nmr_schedule, nmr_two_qubit, reversed_schedule, rotate_schedule
from .pauli import angle_dist, state_of_angles, wrap_pi

__all__ = [
    "CheckResult",
    "VerificationReport",
    "check_oracle_equivalence",
    "check_route_vs_ladder",
    "check_cyclicity",
    "check_loop_phase_law",
    "check_antisymmetry",
    "check_conditional_flatness",
    "check_charge_figure",
    "charge_figure_checks",
    "check_echo_cancellation",
    "check_gate_algebra",
    "check_block_exactness",
    "check_rotation_invariance",
    "run_all",
]


@dataclass(frozen=True)
class CheckResult:
    """One measured invariant.

    kind 'le' asserts measured <= bound; 'ge' asserts measured >= bound;
    'window' asserts a containment encoded by the builder; 'report' rows
    carry context and never fail the suite.
    """

    name: str
    measured: float
    bound: float
    passed: bool
    kind: str = "le"
    detail: str = ""

    @property
    def asserted(self):
        return self.kind != "report"


def _le(name, measured, bound, detail=""):
    m = float(measured)
    return CheckResult(name, m, float(bound), m <= bound, "le", detail)


def _ge(name, measured, bound, detail=""):
    m = float(measured)
    return CheckResult(name, m, float(bound), m >= bound, "ge", detail)


def _report(name, measured, detail=""):
    return CheckResult(name, float(measured), math.nan, True, "report", detail)


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks if c.asserted)

    def to_columns(self):
        return [
            ("name", [c.name for c in self.checks]),
            ("measured", [c.measured for c in self.checks]),
            ("bound", [c.bound for c in self.checks]),
            ("kind", [c.kind for c in self.checks]),
            ("passed", [c.passed for c in self.checks]),
            ("detail", [c.detail.replace(",", ";") for c in self.checks]),
        ]

    def to_doc(self):
        return {"passed": self.passed, "checks": [asdict(c) for c in self.checks]}


# ---------------------------------------------------------------------------
# closed-form oracle vs stepper
# ---------------------------------------------------------------------------

def check_oracle_equivalence(cfg: Config):
    """Stepper vs rotating-frame closed form over a two-decade drive grid."""
    prop = cfg.propagator
    grid = cfg.verify.oracle_grid.values()
    psi0 = state_of_angles(1.0, 0.5)
    worst_infid = 0.0
    worst_phase = 0.0
    for w0 in grid:
        for w1 in grid:
            for w in grid:
                p = NmrParams(omega0=w0, omega1=w1, omega=w)
                s = nmr_schedule(p)
                psi = final_state(s, psi0, prop)
                ref = rotating_frame_oracle(p, psi0, s.period)
                worst_infid = max(worst_infid, 1.0 - pauli.state_fidelity(psi, ref))
                worst_phase = max(
                    worst_phase, abs(wrap_pi(pauli.overlap_phase(ref, psi)))
                )
    n = len(grid)
    detail = f"{n}x{n}x{n} drive grid"
    return [
        _le("oracle_state_infidelity", worst_infid, 1e-9, detail),
        _le("oracle_phase_deviation", worst_phase, 1e-8, detail),
    ]


# ---------------------------------------------------------------------------
# closed-form route vs ladder
# ---------------------------------------------------------------------------

def _route_rows(tag, schedules, prop):
    """Hold ``decompose_loop``'s closed form to the CF4 ladder.

    ``schedules`` holds (schedule, cyclic pair) items; each schedule runs
    forward and as its ``reversed_schedule`` (the echo's second loop),
    from both pair members.
    """
    loops = [
        (loop, (pair.psi_plus, pair.psi_minus))
        for s, pair in schedules
        for loop in (s, reversed_schedule(s))
    ]
    detail = f"{len(schedules)} loops and their reverses; both pair members"
    return _held_to_ladder(tag, loops, prop, detail)


def _held_to_ladder(tag, loops, prop, detail):
    """The route rows over (loop, start states) items.

    The ladder is ``decompose`` with ``with_unitary=True`` on each loop's
    stack of start states.  A loop that did not take the closed form fails
    both rows (measured inf).
    """
    worst_u = 0.0
    worst_phase, phase_bound = 0.0, 10.0 * prop.tolerance
    unrouted = []
    for loop, members in loops:
        ladder = phases.decompose(loop, np.stack(members), prop, with_unitary=True)
        for psi, ref in zip(members, ladder):
            d = phases.decompose_loop(loop, psi, prop, with_unitary=True)
            if d.route != phases.ROUTE_FRAME:
                unrouted.append(loop.label)
                continue
            worst_u = max(worst_u, float(np.max(np.abs(d.unitary - ref.unitary))))
            # decompose's own bound: 10 tol + 1e-11 |phase|
            bound = 10.0 * prop.tolerance + phases._QUAD_RTOL * abs(ref.dynamical)
            for dev in (
                angle_dist(d.total, ref.total),
                abs(d.dynamical - ref.dynamical),
                angle_dist(d.geometric, ref.geometric),
            ):
                if dev / bound > worst_phase / phase_bound:
                    worst_phase, phase_bound = dev, bound
    if unrouted:
        worst_u = worst_phase = math.inf
        detail += f"; not on the closed-form route: {unrouted[0]}"
    return [
        _le(f"route_vs_ladder_unitary_{tag}", worst_u, 1e-9, detail),
        _le(f"route_vs_ladder_phases_{tag}", worst_phase, phase_bound, detail),
    ]


def _control_loops(nmr, prop):
    """The ``negated`` and ``time_reversed`` second loops of the echo on
    each (schedule, cyclic pair), from the echo's mid state U1 psi_plus
    and from a fixed state off the xz plane, where z . (n x r0) != 0."""
    off_plane = state_of_angles(1.0, 0.5)
    loops = []
    for s, pair in nmr:
        u1 = phases.decompose_loop(s, pair.psi_plus, prop, with_unitary=True).unitary
        mid = pauli.normalize(u1 @ pair.psi_plus)
        for rule in ("negated", "time_reversed"):
            loops.append((gates.REVERSAL_RULES[rule](s), (mid, off_plane)))
    return loops


def check_route_vs_ladder(cfg: Config):
    """The closed-form route against the CF4 ladder on both platforms.

    Rotating drive: both ``fig1`` control branches (static z field) at the
    first, middle and last operation time of the ``[fig1]`` grid.  Charge
    drive: the ``[verify]`` reference loop (10 tau0) and 3, 30 and the
    longest ``[fig2]`` operation time.  The rotating drive's control rows
    run its ``negated`` and ``time_reversed`` loops from states off their
    frame axes.  The phases row's bound is the one ``decompose`` accepts a
    rung pair at; it is printed for the worst loop.  This is the charge
    platform's propagator oracle.
    """
    prop = cfg.propagator
    f = cfg.fig1
    ratios = f.tau_grid.values()
    nmr = []
    for r in (ratios[0], ratios[len(ratios) // 2], ratios[-1]):
        for delta in (0, 1):
            p = f.params(r, "a", delta)
            nmr.append((nmr_schedule(p), phases.cyclic_pair_nmr(p)))
    charge = []
    for r in (3.0, 10.0, 30.0, cfg.fig2.tau_grid.values()[-1]):
        jp = _josephson_reference(cfg, r)
        charge.append((experiments.josephson_schedule(jp), phases.cyclic_pair_josephson(jp)))
    controls = _control_loops(nmr, prop)
    detail = (
        f"{len(nmr)} negated and {len(nmr)} time-reversed loops; "
        "the echo's mid state and a state off the xz plane"
    )
    return (
        _route_rows("rotating_drive", nmr, prop)
        + _route_rows("charge_drive", charge, prop)
        + _held_to_ladder("rotating_drive_controls", controls, prop, detail)
    )


# ---------------------------------------------------------------------------
# cyclicity
# ---------------------------------------------------------------------------

def _nmr_reference(cfg: Config) -> NmrParams:
    """The uncoupled ``[fig1]`` variant-a drive at tau / tau0 = 4."""
    return replace(cfg.fig1.params(4.0, "a"), j=0.0)


def _josephson_reference(cfg: Config, ratio=10.0):
    f = cfg.fig2
    tau = ratio * experiments.tau0_candidates(f)["ej_avg"]
    return f.params(f.cos_chi0, 2.0 * np.pi / tau)


def check_cyclicity(cfg: Config):
    """Both platforms' cyclic pairs really return after one loop; a wrong
    cone angle visibly does not (sensitivity control)."""
    prop = cfg.propagator
    out = []

    p = _nmr_reference(cfg)
    # One propagator serves the true pair and the shifted-cone control.
    u = total_unitary(nmr_schedule(p), prop)
    pair = phases.cyclic_pair_nmr(p)
    out.append(_le("cyclicity_rotating_drive", phases._pair_defect(u, pair), 1e-8))

    jp = _josephson_reference(cfg)
    js = experiments.josephson_schedule(jp)
    jpair = phases.cyclic_pair_josephson(jp)
    out.append(_le("cyclicity_charge_drive", phases.verify_cyclic(js, jpair, prop), 1e-8))

    bad = phases.cyclic_pair(pair.chi + 0.3)
    out.append(
        _ge(
            "cyclicity_probe_detects_wrong_cone",
            phases._pair_defect(u, bad),
            1e-3,
            "defect for a deliberately shifted cone angle",
        )
    )

    zero = nmr_schedule(NmrParams(omega0=0.0, omega1=0.0, omega=1.0))
    u = total_unitary(zero, prop)
    out.append(
        _le("zero_field_identity", float(np.max(np.abs(u - np.eye(2)))), 1e-12)
    )
    return out


# ---------------------------------------------------------------------------
# one-loop phase law
# ---------------------------------------------------------------------------

def _pair_geometric(s, pair, prop):
    """Geometric phases of both pair members, from one ladder."""
    d_plus, d_minus = phases.decompose(s, [pair.psi_plus, pair.psi_minus], prop)
    return d_plus.geometric, d_minus.geometric


def check_loop_phase_law(cfg: Config):
    """Measured one-loop geometric phase vs pi (1 - cos chi) across cones,
    then the Bloch-path solid angle vs total minus dynamical.

    Counterclockwise rotating drive: axis-aligned member carries the
    negative loop phase.  The designed charge drive runs clockwise, so
    there the aligned member carries the positive loop phase.  The
    solid-angle row reads the psi_plus Bloch paths of every third cone's
    two ladders; a path that does not close fails the row (measured inf).
    """
    prop = cfg.propagator
    chis = cfg.verify.chi_grid.values()
    sampled = []  # (schedule label, psi_plus decomposition) of chis[::3]

    worst = 0.0
    for i, chi in enumerate(chis):
        p = cfg.verify.cone(chi)
        s = nmr_schedule(p)
        pair = phases.cyclic_pair_nmr(p)
        law = phases.loop_phase(chi)
        d_plus, d_minus = phases.decompose(s, [pair.psi_plus, pair.psi_minus], prop)
        worst = max(worst, angle_dist(d_plus.geometric, -law), angle_dist(d_minus.geometric, law))
        if i % 3 == 0:
            sampled.append((s.label, d_plus))
    out = [_le("loop_phase_law_rotating_drive", worst, 1e-7, f"{len(chis)} cone angles")]

    f = cfg.fig2
    worst = 0.0
    for i, chi in enumerate(chis):
        jp = f.params(float(np.cos(chi)), cfg.verify.josephson_omega)
        js = experiments.josephson_schedule(jp)
        jpair = phases.cyclic_pair_josephson(jp)
        d_plus = phases.decompose(js, jpair.psi_plus, prop)
        worst = max(worst, angle_dist(d_plus.geometric, phases.loop_phase(chi)))
        if i % 3 == 0:
            sampled.append((js.label, d_plus))
    out.append(_le("loop_phase_law_charge_drive", worst, 1e-7, f"{len(chis)} cone angles"))

    worst = 0.0
    open_paths = []
    for label, d in sampled:
        try:
            worst = max(worst, angle_dist(wrap_pi(phases.solid_angle(d.bloch).gamma), d.geometric))
        except ValueError:
            open_paths.append(label)
    detail = f"{len(sampled)} cyclic runs"
    if open_paths:
        worst = math.inf
        detail += f"; Bloch path not closed: {open_paths[0]}"
    out.append(_le("solid_angle_vs_decomposition", worst, 1e-6, detail))
    return out


# ---------------------------------------------------------------------------
# antisymmetry
# ---------------------------------------------------------------------------

def check_antisymmetry(cfg: Config):
    """Antipodal pair members acquire opposite geometric phases."""
    prop = cfg.propagator
    p = _nmr_reference(cfg)
    pair = phases.cyclic_pair_nmr(p)
    gp, gm = _pair_geometric(nmr_schedule(p), pair, prop)
    out = [_le("antisymmetry_rotating_drive", angle_dist(gm, -gp), 1e-8)]

    jp = _josephson_reference(cfg)
    jpair = phases.cyclic_pair_josephson(jp)
    gp, gm = _pair_geometric(experiments.josephson_schedule(jp), jpair, prop)
    out.append(_le("antisymmetry_charge_drive", angle_dist(gm, -gp), 1e-8))
    return out


# ---------------------------------------------------------------------------
# conditional-phase flatness (resonance-locked drive)
# ---------------------------------------------------------------------------

def check_conditional_flatness(cfg: Config):
    """With the z field locked to the drive (variant b), both conditional
    phases are time-independent: pi for control 0 and 3 pi / 4 for control 1
    per loop; doubled loops give (2 pi, 3 pi / 2)."""
    _, columns = experiments.fig1_sweep(cfg, "b")
    cols = dict(columns)
    g0 = np.asarray(cols["gamma0_exact"])
    g1 = np.asarray(cols["gamma1_exact"])
    npts = len(g0)
    detail = f"{npts} operation times in [{cfg.fig1.tau_grid.lo:g}, {cfg.fig1.tau_grid.hi:g}] tau0"
    dist0 = max(angle_dist(g, np.pi) for g in g0)
    dist1 = max(angle_dist(g, 0.75 * np.pi) for g in g1)
    var0 = max(angle_dist(g, g0[0]) for g in g0)
    var1 = max(angle_dist(g, g1[0]) for g in g1)
    dbl0 = max(angle_dist(2.0 * g, 2.0 * np.pi) for g in g0)
    dbl1 = max(angle_dist(2.0 * g, 1.5 * np.pi) for g in g1)
    return [
        _le("conditional_phase_control0_vs_pi", dist0, 1e-7, detail),
        _le("conditional_phase_control1_vs_3pi4", dist1, 1e-7, detail),
        _le("conditional_phase_control0_variation", var0, 1e-7, detail),
        _le("conditional_phase_control1_variation", var1, 1e-7, detail),
        _le("doubled_loop_control0_vs_2pi", dbl0, 1e-6, detail),
        _le("doubled_loop_control1_vs_3pi2", dbl1, 1e-6, detail),
    ]


# ---------------------------------------------------------------------------
# charge-qubit figure (exact flat phase, adiabatic crossover)
# ---------------------------------------------------------------------------

def charge_figure_checks(main, inset):
    """Checks shared by the figure runner and the verification suite.

    ``main`` and ``inset`` are fig2c_sweep results.  Asserts the exact
    per-loop phases (pi/4 and pi/8 for the shipped cone angles), the
    adiabatic curve's approach, and that the 10% crossover lands within a
    factor of 3 of 70 qubit timescales for at least one timescale reading.
    """
    checks = []
    for tag, (params, columns, extras) in (("main", main), ("inset", inset)):
        cols = dict(columns)
        target = extras["gamma_target"]
        g = np.asarray(cols["gamma_exact"])
        dist = max(angle_dist(x, target) for x in g)
        checks.append(
            _le(
                f"charge_phase_{tag}_vs_target",
                dist,
                1e-7,
                f"target {target:.12g} rad at cos_chi0 = {params['cos_chi0']:g}",
            )
        )
    params, columns, extras = main
    dev = np.asarray(dict(columns)["rel_deviation"])
    checks.append(
        _le(
            "charge_adiabatic_final_deviation",
            dev[-1],
            0.10,
            "relative adiabatic deviation at the longest operation time",
        )
    )
    checks.append(
        _ge(
            "charge_adiabatic_deviation_shrinks",
            dev[0] - dev[-1],
            0.0,
            "first minus last relative deviation",
        )
    )
    ratios = {
        name: (val / 70.0 if val is not None else None)
        for name, val in extras["tau_star_over_tau0"].items()
    }
    ok = any(r is not None and 1.0 / 3.0 <= r <= 3.0 for r in ratios.values())
    best = min(
        (abs(np.log(r)) for r in ratios.values() if r is not None and r > 0),
        default=math.inf,
    )
    detail = "; ".join(
        f"tau*/tau0[{k}] = {extras['tau_star_over_tau0'][k]:.4g}"
        if extras["tau_star_over_tau0"][k] is not None
        else f"tau*/tau0[{k}] = none"
        for k in sorted(ratios)
    )
    checks.append(
        CheckResult(
            "charge_crossover_near_70_tau0",
            float(np.exp(best)) if math.isfinite(best) else math.nan,
            3.0,
            ok,
            "window",
            detail,
        )
    )
    for k in sorted(ratios):
        v = extras["tau_star_over_tau0"][k]
        checks.append(
            _report(f"charge_tau_star_over_tau0_{k}", v if v is not None else math.nan)
        )
    return checks


def check_charge_figure(cfg: Config):
    main = experiments.fig2c_sweep(cfg, cfg.fig2.cos_chi0)
    inset = experiments.fig2c_sweep(cfg, cfg.fig2.cos_chi0_inset)
    return charge_figure_checks(main, inset)


# ---------------------------------------------------------------------------
# echo protocol: dynamical cancellation, composite distances
# ---------------------------------------------------------------------------

def check_echo_cancellation(cfg: Config):
    """Two loops with the sign-flipped retraced second period: dynamical
    phases cancel (asserted); the composite's distance to the identity and
    to the doubled-cone target are reported as 1 - gate fidelity,
    quantifying that the literal echo rule inverts the whole first loop
    rather than doubling its geometric phase.  The detail keeps the
    phase-aligned entry deviation, which is ill-conditioned when the
    trace is near 0 (the charge drive's doubled target is traceless)."""
    out = []
    p = cfg.fig1.params(4.0, "b")
    runs = [
        ("rotating_drive", nmr_schedule(p), phases.cyclic_pair_nmr(p)),
    ]
    jp = _josephson_reference(cfg)
    runs.append(
        ("charge_drive", experiments.josephson_schedule(jp), phases.cyclic_pair_josephson(jp))
    )
    for tag, s, pair in runs:
        rep = gates.synthesize_double_loop(s, pair, cfg.propagator)
        out.append(_le(f"echo_dynamical_cancellation_{tag}", abs(rep.dynamical_sum), 1e-6))
        out.append(_le(f"echo_composite_cyclic_{tag}", rep.composite_defect, 1e-6))
        out.append(
            _report(
                f"echo_distance_to_identity_{tag}",
                1.0 - rep.fidelity_identity,
                f"aligned deviation {rep.deviation_identity:.12g}",
            )
        )
        out.append(
            _report(
                f"echo_distance_to_doubled_target_{tag}",
                1.0 - rep.fidelity_target,
                f"aligned deviation {rep.deviation_target:.12g}; "
                f"geometric sum {rep.geometric_sum:.12g}",
            )
        )
    return out


# ---------------------------------------------------------------------------
# gate algebra
# ---------------------------------------------------------------------------

def check_gate_algebra(cfg: Config):
    """Matrix-level gate laws on dense parameter grids and random draws."""
    del cfg  # pure matrix algebra; numerics-free
    pairs, specs = 10_000, 1_000
    chis = np.linspace(0.0, np.pi, 50)
    gammas = np.linspace(-np.pi, np.pi, 50)
    worst_unit = 0.0
    worst_eig = 0.0
    for chi in chis:
        pair = phases.cyclic_pair(chi)
        for gamma in gammas:
            u = gates.build_gate(gates.GateSpec(chi, gamma))
            worst_unit = max(worst_unit, pauli.unitarity_defect(u))
            lam = np.exp(1j * gamma)
            worst_eig = max(
                worst_eig,
                float(np.max(np.abs(u @ pair.psi_plus - lam * pair.psi_plus))),
                float(np.max(np.abs(u @ pair.psi_minus - np.conj(lam) * pair.psi_minus))),
            )
    out = [
        _le("gate_unitarity_grid", worst_unit, 1e-12, "50x50 parameter grid"),
        _le("gate_eigenphase_grid", worst_eig, 1e-12, "50x50 parameter grid"),
    ]

    def disagrees(a, b):
        """1 if the commutator norm and ``gates.noncommutable`` disagree."""
        ua, ub = gates.build_gate(a), gates.build_gate(b)
        direct = float(np.max(np.abs(ua @ ub - ub @ ua))) > 1e-9
        return int(direct != gates.noncommutable(a, b))

    rng = np.random.default_rng(20240817)
    disagree = 0
    for _ in range(pairs):
        a = gates.GateSpec(*rng.uniform(-np.pi, np.pi, 2))
        b = gates.GateSpec(*rng.uniform(-np.pi, np.pi, 2))
        disagree += disagrees(a, b)
    # the criterion's zero set, sampled on purpose
    for chi in np.linspace(-2.0, 2.0, 7):
        for gamma in np.linspace(-3.0, 3.0, 7):
            cases = [
                (gates.GateSpec(chi, 0.0), gates.GateSpec(chi + 1.0, gamma)),
                (gates.GateSpec(chi, np.pi), gates.GateSpec(chi + 1.0, gamma)),
                (gates.GateSpec(chi, gamma), gates.GateSpec(chi, gamma + 0.5)),
            ]
            disagree += sum(disagrees(a, b) for a, b in cases)
    out.append(
        _le(
            "noncommutability_criterion_agreement",
            disagree,
            0,
            f"{pairs} random pairs plus the criterion zero set",
        )
    )

    disagree = 0
    for _ in range(specs):
        tq = gates.TwoQubitGateSpec(
            gates.GateSpec(*rng.uniform(-np.pi, np.pi, 2)),
            gates.GateSpec(*rng.uniform(-np.pi, np.pi, 2)),
        )
        separable = gates.block_phase_separable(gates.build_two_qubit(tq))
        disagree += int(separable == gates.nontrivial_two_qubit(tq))
    for _ in range(specs // 10):
        spec = gates.GateSpec(*rng.uniform(-np.pi, np.pi, 2))
        tq = gates.TwoQubitGateSpec(spec, spec)
        separable = gates.block_phase_separable(gates.build_two_qubit(tq))
        disagree += int(separable == gates.nontrivial_two_qubit(tq))
    out.append(
        _le(
            "nontriviality_vs_separability_agreement",
            disagree,
            0,
            f"{specs} random conditional specs plus equal-branch draws",
        )
    )
    return out


# ---------------------------------------------------------------------------
# two-qubit block exactness
# ---------------------------------------------------------------------------

def check_block_exactness(cfg: Config):
    """4x4 conditional totals equal the 2x2 eigenblock predictions.

    An independent cross-check: the 4x4 side is the closed-form propagator
    (one ``eigh`` of the constant rotating-frame Hamiltonian), the block
    side CF4 ladders on each eigenblock's schedule.
    """
    f = cfg.fig1
    worst = 0.0
    runs = 0
    for variant in ("a", "b"):
        for r in cfg.verify.block_tau_over_tau0:
            p = f.params(r, variant)
            model = nmr_two_qubit(p, omega1_control=3.0 * f.coupling_j)
            u = two_qubit_unitary(model)
            for delta in (0, 1):
                pair = phases.cyclic_pair_nmr(replace(p, delta=delta))
                angle = experiments._block_angle(model, pair, delta, cfg.propagator)
                expected = experiments._block_total(model, angle, delta)
                dense = experiments._dense_total(u, pair, delta)
                worst = max(worst, angle_dist(dense, expected))
                runs += 1
    return [
        _le(
            "block_vs_dense_conditional_totals",
            worst,
            1e-8,
            f"{runs} runs over both drive variants",
        )
    ]


# ---------------------------------------------------------------------------
# rotation invariance
# ---------------------------------------------------------------------------

def check_rotation_invariance(cfg: Config):
    """Rigidly rotating drive and initial state preserves the geometric
    phase while shifting the cone angle by exactly the rotation angle."""
    prop = cfg.propagator
    p = _nmr_reference(cfg)
    s = nmr_schedule(p)
    pair = phases.cyclic_pair_nmr(p)
    base = phases.decompose(s, pair.psi_plus, prop).geometric

    worst_gamma = 0.0
    worst_chi = 0.0
    for dchi in cfg.verify.rotation_angles:
        spin = pauli.expm_pauli(np.array([0.0, 1.0, 0.0]), -0.5 * dchi)
        psi = spin @ pair.psi_plus
        g = phases.decompose(rotate_schedule(s, dchi), psi, prop).geometric
        worst_gamma = max(worst_gamma, angle_dist(g, base))
        theta = float(np.arccos(np.clip(pauli.bloch_of_state(psi)[2], -1.0, 1.0)))
        folded = abs(wrap_pi(pair.chi + dchi))
        worst_chi = max(worst_chi, abs(theta - folded))
    detail = "rotations " + " ".join(f"{a:.6g}" for a in cfg.verify.rotation_angles)
    return [
        _le("rotation_invariance_of_phase", worst_gamma, 1e-8, detail),
        _le("rotation_shifts_cone_angle", worst_chi, 1e-12, detail),
    ]


# ---------------------------------------------------------------------------
# aggregate
# ---------------------------------------------------------------------------

ALL_CHECKS = (
    check_oracle_equivalence,
    check_route_vs_ladder,
    check_cyclicity,
    check_loop_phase_law,
    check_antisymmetry,
    check_conditional_flatness,
    check_charge_figure,
    check_echo_cancellation,
    check_gate_algebra,
    check_block_exactness,
    check_rotation_invariance,
)


def run_all(cfg: Config) -> VerificationReport:
    """Run every check family against one configuration."""
    checks = []
    for fn in ALL_CHECKS:
        checks.extend(fn(cfg))
    return VerificationReport(tuple(checks))
