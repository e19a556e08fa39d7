import numpy as np
import pytest

from geomgates import evolve, fields, gates, pauli, phases, verify
from geomgates.config import load_config

RNG_SEED = 20240509

P = fields.NmrParams(omega0=2.0, omega1=0.9, omega=1.1)


def _projector_form(chi, gamma):
    """Independent construction: e^{i gamma} P+ + e^{-i gamma} P-."""
    pair = phases.cyclic_pair(chi)
    pp = np.outer(pair.psi_plus, pair.psi_plus.conj())
    pm = np.outer(pair.psi_minus, pair.psi_minus.conj())
    return np.exp(1j * gamma) * pp + np.exp(-1j * gamma) * pm


def test_build_gate_matches_projector_construction():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(40):
        chi, gamma = rng.uniform(-np.pi, np.pi, 2)
        u = gates.build_gate(gates.GateSpec(chi, gamma))
        assert np.allclose(u, _projector_form(chi, gamma), atol=1e-13)
        assert pauli.unitarity_defect(u) < 1e-14


def test_build_gate_special_points():
    # gamma = pi flips every state's sign regardless of the cone
    for chi in (0.3, 1.2, 2.9):
        assert np.allclose(gates.build_gate(gates.GateSpec(chi, np.pi)), -np.eye(2), atol=1e-15)
    # equatorial cone with quarter phase: i sigma_x (a NOT up to phase)
    u = gates.build_gate(gates.GateSpec(np.pi / 2.0, np.pi / 2.0))
    assert np.allclose(u, 1j * pauli.SIGMA_X, atol=1e-15)
    # polar cone: pure z phase gate
    u = gates.build_gate(gates.GateSpec(0.0, 0.7))
    assert np.allclose(u, np.diag([np.exp(0.7j), np.exp(-0.7j)]), atol=1e-15)


def test_gate_eigenphases_on_pair():
    chi, gamma = 0.9, -1.3
    pair = phases.cyclic_pair(chi)
    u = gates.build_gate(gates.GateSpec(chi, gamma))
    assert np.max(np.abs(u @ pair.psi_plus - np.exp(1j * gamma) * pair.psi_plus)) < 1e-14
    assert np.max(np.abs(u @ pair.psi_minus - np.exp(-1j * gamma) * pair.psi_minus)) < 1e-14


def test_noncommutable_matches_commutator():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(300):
        a = gates.GateSpec(*rng.uniform(-np.pi, np.pi, 2))
        b = gates.GateSpec(*rng.uniform(-np.pi, np.pi, 2))
        ua, ub = gates.build_gate(a), gates.build_gate(b)
        comm = float(np.max(np.abs(ua @ ub - ub @ ua)))
        assert gates.noncommutable(a, b) == (comm > 1e-9)
    # the zero set: equal cones, or either gamma a multiple of pi
    same = gates.GateSpec(0.4, 0.9)
    assert not gates.noncommutable(same, gates.GateSpec(0.4, -2.0))
    assert not gates.noncommutable(gates.GateSpec(0.1, np.pi), gates.GateSpec(1.0, 0.9))
    assert not gates.noncommutable(gates.GateSpec(0.1, 0.0), gates.GateSpec(1.0, 0.9))
    assert gates.noncommutable(gates.GateSpec(0.1, 0.5), gates.GateSpec(1.0, 0.9))


def test_commutator_magnitude_identity():
    # largest commutator entry = 2 |sin g1 sin g2 sin(chi2 - chi1)|
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(50):
        a = gates.GateSpec(*rng.uniform(-np.pi, np.pi, 2))
        b = gates.GateSpec(*rng.uniform(-np.pi, np.pi, 2))
        ua, ub = gates.build_gate(a), gates.build_gate(b)
        comm = float(np.max(np.abs(ua @ ub - ub @ ua)))
        crit = 2.0 * abs(np.sin(a.gamma) * np.sin(b.gamma) * np.sin(b.chi - a.chi))
        assert abs(comm - crit) < 1e-12


def test_build_two_qubit_block_structure():
    tq = gates.TwoQubitGateSpec(gates.GateSpec(0.4, 0.9), gates.GateSpec(1.1, -0.3))
    u4 = gates.build_two_qubit(tq)
    assert np.allclose(u4[:2, :2], gates.build_gate(tq.spec0))
    assert np.allclose(u4[2:, 2:], gates.build_gate(tq.spec1))
    assert np.max(np.abs(u4[:2, 2:])) == 0.0 and np.max(np.abs(u4[2:, :2])) == 0.0
    assert pauli.unitarity_defect(u4) < 1e-14


def test_nontrivial_vs_separability():
    distinct = gates.TwoQubitGateSpec(gates.GateSpec(0.4, 0.9), gates.GateSpec(1.1, -0.3))
    assert gates.nontrivial_two_qubit(distinct)
    assert not gates.block_phase_separable(gates.build_two_qubit(distinct))
    equal = gates.TwoQubitGateSpec(gates.GateSpec(0.4, 0.9), gates.GateSpec(0.4, 0.9))
    assert not gates.nontrivial_two_qubit(equal)
    assert gates.block_phase_separable(gates.build_two_qubit(equal))


def test_antipodal_gamma_branch_is_phase_separable():
    # equal cones with gamma offset pi: U1 = -U0, a local operation even
    # though the parameters differ -- the documented corner case where the
    # parameter criterion and strict separability part ways
    spec = gates.GateSpec(0.8, 0.6)
    anti = gates.GateSpec(0.8, 0.6 + np.pi)
    assert np.allclose(gates.build_gate(anti), -gates.build_gate(spec), atol=1e-14)
    tq = gates.TwoQubitGateSpec(spec, anti)
    assert gates.nontrivial_two_qubit(tq)
    assert gates.block_phase_separable(gates.build_two_qubit(tq))


def test_gate_laws_on_stacks_equal_per_entry_calls():
    # a (15, 4) stack of (chi0, gamma0, chi1, gamma1) rows: random, equal
    # branches, gamma offset by pi, gamma0 = pi, so each predicate answers
    # both ways
    rng = np.random.default_rng(RNG_SEED)
    rows = rng.uniform(-np.pi, np.pi, (60, 4))
    rows[::4, 2:] = rows[::4, :2]
    rows[1::4, 2:] = rows[1::4, :2] + [0.0, np.pi]
    rows[2::4, 1] = np.pi
    rows = rows.reshape(15, 4, 4)
    a, b = gates.GateSpec(rows[..., 0], rows[..., 1]), gates.GateSpec(rows[..., 2], rows[..., 3])

    def laws(a, b):
        tq = gates.TwoQubitGateSpec(a, b)
        u4 = gates.build_two_qubit(tq)
        return {
            "build_gate": gates.build_gate(a),
            "build_two_qubit": u4,
            "noncommutable": gates.noncommutable(a, b),
            "nontrivial_two_qubit": gates.nontrivial_two_qubit(tq),
            "block_phase_separable": gates.block_phase_separable(u4),
            "angle_dist": pauli.angle_dist(a.gamma, b.gamma),
        }

    stacked = laws(a, b)
    assert stacked["build_gate"].shape == (15, 4, 2, 2)
    assert stacked["build_two_qubit"].shape == (15, 4, 4, 4)
    # a stack's unitarity defect is its worst entry's
    defects = [pauli.unitarity_defect(u) for u in stacked["build_two_qubit"].reshape(-1, 4, 4)]
    assert pauli.unitarity_defect(stacked["build_two_qubit"]) == max(defects)
    for name in ("noncommutable", "nontrivial_two_qubit", "block_phase_separable"):
        assert stacked[name].shape == (15, 4)
        assert stacked[name].any() and not stacked[name].all(), name
    for idx in np.ndindex(rows.shape[:-1]):
        chi0, gamma0, chi1, gamma1 = map(float, rows[idx])
        single = laws(gates.GateSpec(chi0, gamma0), gates.GateSpec(chi1, gamma1))
        for name, value in single.items():
            assert np.asarray(value).tobytes() == np.asarray(stacked[name][idx]).tobytes(), name


def test_gate_algebra_draws_follow_the_per_case_order(monkeypatch):
    # verify.check_gate_algebra draws its random cases as stacks; they are
    # the draws of one uniform(-pi, pi, 2) call per gate spec, in the order
    # of a per-case loop: 10,000 pairs, then 1,000 conditional specs, then
    # 100 equal-branch specs
    seen = {}

    def recording(name, law):
        def wrapped(*args):
            seen[name] = args
            return law(*args)

        return wrapped

    monkeypatch.setattr(gates, "noncommutable", recording("pairs", gates.noncommutable))
    monkeypatch.setattr(
        gates, "nontrivial_two_qubit", recording("branches", gates.nontrivial_two_qubit)
    )
    verify.check_gate_algebra(load_config())

    rng = np.random.default_rng(20240817)

    def spec():
        return rng.uniform(-np.pi, np.pi, 2)

    pairs = [np.concatenate([spec(), spec()]) for _ in range(10_000)]
    branches = [np.concatenate([spec(), spec()]) for _ in range(1_000)]
    branches += [np.tile(spec(), 2) for _ in range(100)]
    a, b = seen["pairs"]
    drawn = np.stack([a.chi, a.gamma, b.chi, b.gamma], -1)
    assert drawn.shape == (10_147, 4)
    np.testing.assert_array_equal(drawn[:10_000], pairs)
    (tq,) = seen["branches"]
    drawn = np.stack([tq.spec0.chi, tq.spec0.gamma, tq.spec1.chi, tq.spec1.gamma], -1)
    np.testing.assert_array_equal(drawn, branches)


def test_gate_fidelity_and_alignment():
    u = gates.build_gate(gates.GateSpec(0.7, 1.1))
    v = np.exp(0.9j) * u
    assert abs(gates.gate_fidelity(u, v) - 1.0) < 1e-14
    assert gates.max_aligned_deviation(u, v) < 1e-14
    ph = gates.align_phase(u, v)
    assert np.max(np.abs(ph * v - u)) < 1e-14
    w = gates.build_gate(gates.GateSpec(0.7, 1.3))
    assert gates.gate_fidelity(u, w) < 1.0 - 1e-4


def test_gate_fidelity_never_exceeds_one():
    # the 50x50 grid of verify.check_gate_algebra; unclipped, 672 of its
    # gates read 1.0000000000000002 against themselves
    for chi in np.linspace(0.0, np.pi, 50):
        for gamma in np.linspace(-np.pi, np.pi, 50):
            u = gates.build_gate(gates.GateSpec(chi, gamma))
            assert gates.gate_fidelity(u, u) <= 1.0


def test_reconstruct_gate_from_runs_matches_cone_form(accurate):
    s = fields.nmr_schedule(P)
    pair = phases.cyclic_pair_nmr(P)
    assert phases.verify_cyclic(s, pair, accurate) <= 1e-6
    u = evolve.total_unitary(s, accurate)
    gamma = pauli.overlap_phase(pair.psi_plus, evolve.final_state(s, pair.psi_plus, accurate))
    target = gates.build_gate(gates.GateSpec(pair.chi, gamma))
    assert gates.max_aligned_deviation(target, u) < 1e-8
    # the loop eigenphase is the full (dynamical + geometric) phase; the
    # rotating frame gives it in closed form
    omega_eff = np.hypot(P.omega0, P.omega1 + P.omega)
    expected = np.pi + np.pi * omega_eff / P.omega
    assert abs(pauli.wrap_pi(gamma - expected)) < 1e-8


def test_reconstruct_rejects_noncyclic_pair(accurate):
    # a pair off the cone does not return, so the propagator cannot take
    # the cone-gate form for it
    s = fields.nmr_schedule(P)
    wrong = phases.cyclic_pair(phases.cyclic_pair_nmr(P).chi + 0.4)
    assert phases.verify_cyclic(s, wrong, accurate) > 1e-6


def test_double_loop_echo_cancels_dynamical_phase(accurate):
    s = fields.nmr_schedule(P)
    pair = phases.cyclic_pair_nmr(P)
    rep = gates.synthesize_double_loop(s, pair, accurate)
    assert rep.flags["dynamical_cancelled"]
    assert rep.flags["cyclic"]
    assert rep.flags["identity_reached"]
    assert abs(rep.dynamical_sum) < 1e-8
    assert rep.deviation_identity < 1e-8
    assert abs(rep.loop2["dynamical"] + rep.loop1["dynamical"]) < 1e-8
    assert abs(rep.loop2["geometric"] + rep.loop1["geometric"]) < 1e-8


def test_double_loop_time_reversed_rule_does_not_cancel(accurate):
    # retracing without the sign flip reverses the geometry instead of the
    # energy: the dynamical phases add up
    s = fields.nmr_schedule(P)
    pair = phases.cyclic_pair_nmr(P)
    rep = gates.synthesize_double_loop(s, pair, accurate, reversal="time_reversed")
    assert not rep.flags["dynamical_cancelled"]
    assert abs(rep.dynamical_sum) > 0.1


def test_double_loop_time_reversed_matches_closed_form(accurate):
    # the retraced loop is the clockwise drive, so both factors follow from
    # the rotating-frame closed form, with omega -> -omega for the second
    p = fields.NmrParams(2.0, 0.9, 1.1)
    s = fields.nmr_schedule(p)
    rep = gates.synthesize_double_loop(
        s, phases.cyclic_pair_nmr(p), accurate, reversal="time_reversed"
    )
    tau, w, z = p.tau, p.omega, p.z_effective
    zhat = np.array([0.0, 0.0, 1.0])
    u_ccw = pauli.expm_pauli(zhat, -0.5 * w * tau) @ pauli.expm_pauli(
        np.array([p.omega0, 0.0, z + w]), 0.5 * tau
    )
    u_cw = pauli.expm_pauli(zhat, 0.5 * w * tau) @ pauli.expm_pauli(
        np.array([p.omega0, 0.0, z - w]), 0.5 * tau
    )
    assert np.max(np.abs(rep.matrix - u_cw @ u_ccw)) <= 1e-9


def test_double_loop_composite_defect_is_never_negative(accurate):
    # the echo composite is the identity to rounding, so the fidelity can
    # round a last ulp above 1
    p = fields.NmrParams(omega0=7.7, omega1=0.8, omega=0.15, j=1.0, delta=0)
    s = fields.nmr_schedule(p)
    rep = gates.synthesize_double_loop(s, phases.cyclic_pair_nmr(p), accurate)
    assert rep.composite_defect >= 0.0
    assert rep.flags["cyclic"]


def test_double_loop_unknown_rule_rejected(accurate):
    s = fields.nmr_schedule(P)
    pair = phases.cyclic_pair_nmr(P)
    with pytest.raises(KeyError):
        gates.synthesize_double_loop(s, pair, accurate, reversal="nope")


def test_gate_report_json_round_trip(tmp_path, accurate):
    import json

    s = fields.nmr_schedule(P)
    pair = phases.cyclic_pair_nmr(P)
    rep = gates.synthesize_double_loop(s, pair, accurate)
    path = tmp_path / "report.json"
    gates.gate_report_to_json(rep, path)
    doc = json.loads(path.read_text())
    m = np.array(doc["matrix_re"]) + 1j * np.array(doc["matrix_im"])
    assert np.allclose(m, rep.matrix)
    assert doc["flags"]["dynamical_cancelled"] is True
