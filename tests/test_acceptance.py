"""Acceptance gate: one test per shipped claim, at the stated tolerances.

Each test runs the corresponding verification-suite check family against
the packaged physical parameters (sweep grids are thinned for runtime but
span the full stated ranges) and prints one PASS line with the worst
measured value; run with ``pytest -v`` to see one line per criterion.
"""

from dataclasses import replace

import pytest

from geomgates import verify
from geomgates.config import GridSpec, load_config


@pytest.fixture(scope="module")
def acc():
    # the packaged numerics: 4096 steps per period, tolerance 1e-10
    cfg = load_config()
    return replace(
        cfg,
        fig1=replace(cfg.fig1, tau_grid=GridSpec(1.0, 100.0, 9, scale="log")),
        fig2=replace(cfg.fig2, tau_grid=GridSpec(1.0, 200.0, 25, scale="log")),
        verify=replace(cfg.verify, chi_grid=GridSpec(0.1, 3.0, 9, scale="linear")),
    )


@pytest.fixture(scope="module")
def loop_law(acc):
    """Loop-phase-law rows, then the solid-angle row read from the same ladders."""
    return verify.check_loop_phase_law(acc)


def _settle(checks):
    """Assert every asserted row and emit one summary line."""
    failures = [c for c in checks if c.asserted and not c.passed]
    for c in checks:
        mark = {"le": "<=", "ge": ">=", "window": "within", "report": "="}[c.kind]
        print(f"  {c.name}: {c.measured:.6g} {mark} {c.bound:.6g}"
              + (f"  [{c.detail}]" if c.detail else ""))
    assert not failures, "; ".join(
        f"{c.name}: measured {c.measured:.6g} vs bound {c.bound:.6g}" for c in failures
    )


def test_01_oracle_equivalence(acc):
    checks = verify.check_oracle_equivalence(acc)
    _settle(checks)
    print("PASS criterion 1: stepper matches the closed-form oracle "
          f"(worst infidelity {checks[0].measured:.3g}, "
          f"worst phase {checks[1].measured:.3g} rad)")


def test_02_cyclicity(acc):
    checks = verify.check_cyclicity(acc)
    _settle(checks)
    print("PASS criterion 2: cyclic pairs return after one period on both "
          f"platforms (worst defect {max(c.measured for c in checks[:2]):.3g})")


def test_03_loop_phase_law(loop_law):
    checks = loop_law[:2]
    assert [c.name for c in checks] == [
        "loop_phase_law_rotating_drive", "loop_phase_law_charge_drive"
    ]
    _settle(checks)
    print("PASS criterion 3: one-loop geometric phase follows "
          "+/- pi (1 - cos chi) on both platforms "
          f"(worst deviation {max(c.measured for c in checks):.3g} rad)")


def test_04_solid_angle_consistency(loop_law):
    checks = loop_law[2:]
    assert [c.name for c in checks] == ["solid_angle_vs_decomposition"]
    _settle(checks)
    print("PASS criterion 4: Bloch-path solid angle equals total minus "
          f"dynamical (worst gap {checks[0].measured:.3g} rad)")


def test_05_antisymmetry(acc):
    checks = verify.check_antisymmetry(acc)
    _settle(checks)
    print("PASS criterion 5: antipodal members acquire opposite phases "
          f"(worst asymmetry {max(c.measured for c in checks):.3g} rad)")


def test_06_conditional_flatness(acc):
    checks = verify.check_conditional_flatness(acc)
    _settle(checks)
    print("PASS criterion 6: resonance-locked conditional phases flat at "
          "(pi, 3 pi / 4), doubled (2 pi, 3 pi / 2) "
          f"(worst deviation {max(c.measured for c in checks):.3g} rad)")


def test_07_charge_figure(acc):
    checks = verify.check_charge_figure(acc)
    _settle(checks)
    window = next(c for c in checks if c.kind == "window")
    print("PASS criterion 7: charge-qubit phase flat at pi/4 (inset pi/8); "
          f"10% crossover within factor {window.measured:.3g} of 70 qubit "
          "timescales for the closest reading")


def test_08_echo_cancellation(acc):
    checks = verify.check_echo_cancellation(acc)
    _settle(checks)
    worst = max(c.measured for c in checks if c.name.startswith("echo_dynamical"))
    print("PASS criterion 8: echoed second loop cancels the dynamical phase "
          f"on both platforms (worst residue {worst:.3g} rad); composite "
          "distances to identity and doubled-cone target reported above")


def test_09_gate_algebra(acc):
    checks = verify.check_gate_algebra(acc)
    _settle(checks)
    print("PASS criterion 9: gate matrices unitary with the designed "
          "eigenphases; commutation and separability criteria agree with "
          "direct matrix checks on every sampled pair")


def test_10_block_exactness(acc):
    checks = verify.check_block_exactness(acc)
    _settle(checks)
    print("PASS criterion 10: dense 4x4 conditional totals equal eigenblock "
          f"predictions (worst gap {checks[0].measured:.3g} rad)")


def test_11_rotation_invariance(acc):
    checks = verify.check_rotation_invariance(acc)
    _settle(checks)
    print("PASS criterion 11: rigid schedule rotations preserve the phase "
          f"and shift the cone angle exactly "
          f"(worst phase drift {checks[0].measured:.3g} rad)")
