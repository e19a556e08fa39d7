import json
from dataclasses import replace

import numpy as np
import pytest

from geomgates import experiments, fields, pauli
from geomgates.config import ConfigError, GridSpec, load_config


@pytest.fixture(scope="module")
def mini():
    """Default parameters, packaged numerics included, with grids cut down
    for unit-test runtimes."""
    cfg = load_config()
    return replace(
        cfg,
        fig1=replace(cfg.fig1, tau_grid=GridSpec(1.0, 16.0, 3, scale="log")),
        fig2=replace(
            cfg.fig2,
            tau_grid=GridSpec(5.0, 120.0, 7, scale="log"),
            field_samples=256,
        ),
        sweep=replace(cfg.sweep, detuning_grid=GridSpec(0.0, 20.0, 3, scale="linear")),
    )


def test_fig1b_mini_grid_is_flat(mini):
    params, columns = experiments.fig1_sweep(mini, "b")
    cols = dict(columns)
    assert params["experiment"] == "fig1b"
    for g in cols["gamma0_exact"]:
        assert pauli.angle_dist(g, np.pi) < 1e-8
    for g in cols["gamma1_exact"]:
        assert pauli.angle_dist(g, 0.75 * np.pi) < 1e-8
    assert np.max(np.abs(cols["defect0"])) < 1e-8
    # cone angles fixed by the resonance lock
    assert np.allclose(cols["chi0"], np.pi / 2.0, atol=1e-12)
    assert np.allclose(cols["chi1"], np.arccos(0.25), atol=1e-12)


def test_fig1a_exact_approaches_adiabatic_at_long_times():
    cfg = load_config()
    slow = replace(
        cfg, fig1=replace(cfg.fig1, tau_grid=GridSpec(2.0, 128.0, 3, scale="log"))
    )
    _, columns = experiments.fig1_sweep(slow, "a")
    cols = dict(columns)
    for delta in (0, 1):
        gaps = [
            pauli.angle_dist(g, a)
            for g, a in zip(cols[f"gamma{delta}_exact"], cols[f"gamma{delta}_adiabatic"])
        ]
        assert gaps[-1] < gaps[0]
        assert gaps[-1] < 0.06


def test_fig1_rejects_unknown_variant(mini):
    with pytest.raises(ConfigError):
        experiments.fig1_sweep(mini, "c")


def test_tau0_candidates_ordering_and_values(cfg):
    t0 = experiments.tau0_candidates(cfg.fig2)
    assert abs(t0["e_plus"] - 1.0 / 7.8125) < 1e-15
    assert abs(t0["e_minus_abs"] - 1.0 / 4.6875) < 1e-15
    # the loop average sits between the coupling extremes
    assert t0["e_plus"] < t0["ej_avg"] < t0["e_minus_abs"]


def test_ej_average_matches_dense_quadrature(cfg):
    f = cfg.fig2
    p = fields.JosephsonParams(
        e1=f.e1, e2=f.e2, e_ch=f.e_ch, chi0=float(np.arccos(f.cos_chi0)), omega=1.0
    )
    ts = np.linspace(0.0, p.tau, 200_001)
    dense = np.trapezoid(fields.josephson_ej(p, ts), ts) / p.tau
    assert abs(experiments.ej_average(f) - dense) < 1e-9


def test_crossover_time_interpolates_log_log():
    taus = np.geomspace(1.0, 100.0, 25)
    devs = 2.0 / taus
    got = experiments.crossover_time(taus, devs, threshold=0.1)
    assert abs(got - 20.0) < 1e-9
    assert experiments.crossover_time(taus[:10], devs[:10], threshold=0.01) is None
    assert experiments.crossover_time(taus, 0.05 * np.ones_like(taus)) == taus[0]


def test_field_trace_invariants(mini):
    params, columns = experiments.fig2_field_trace(mini)
    cols = dict(columns)
    e_plus = mini.fig2.e1 + mini.fig2.e2
    assert abs(cols["Bx"][0] - e_plus) < 1e-12
    assert abs(cols["By"][0]) < 1e-12
    chi0 = np.arccos(mini.fig2.cos_chi0)
    ej = np.hypot(cols["Bx"], cols["By"])
    assert np.max(np.abs(cols["Bz"] - params["omega"] - ej / np.tan(chi0))) < 1e-9


def test_detuning_sweep_decoupled_control_keeps_fidelity(mini):
    decoupled = replace(mini, sweep=replace(mini.sweep, coupling_j=0.0))
    _, columns = experiments.detuning_sweep(decoupled)
    cols = dict(columns)
    assert np.min(cols["fidelity_control"]) > 1.0 - 1e-9
    assert np.max(np.abs(cols["block_phase_err0"])) < 1e-8


def test_detuning_sweep_fidelity_improves_with_detuning(mini):
    _, columns = experiments.detuning_sweep(mini)
    cols = dict(columns)
    fid = cols["fidelity_control"]
    assert fid[-1] > fid[0]
    assert np.max(np.abs(cols["block_phase_err0"])) < 1e-8
    assert np.max(np.abs(cols["block_phase_err1"])) < 1e-8


def test_run_fig1_writes_deterministic_csv(tmp_path, mini):
    a = experiments.run_fig1(mini, "b", tmp_path / "one")
    b = experiments.run_fig1(mini, "b", tmp_path / "two")
    assert a.name == "fig1b.csv"
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith("# experiment = fig1b\n")
    assert "# omega0 = 7.745966692414834" in text


def test_run_sweep_writes_deterministic_csv(tmp_path, mini):
    # three detunings, so the byte comparison covers several rows
    assert len(mini.sweep.detuning_grid.values()) > 1
    a = experiments.run_sweep(mini, tmp_path / "one")
    b = experiments.run_sweep(mini, tmp_path / "two")
    assert a.name == "sweep.csv"
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().startswith("# experiment = sweep\n")


def test_run_fig1_json_format(tmp_path, mini):
    path = experiments.run_fig1(mini, "b", tmp_path, fmt="json")
    doc = json.loads(path.read_text())
    assert doc["params"]["experiment"] == "fig1b"
    assert len(doc["columns"]["tau_over_tau0"]) == 3


def test_run_fig2b_and_fig2c_outputs(tmp_path, mini):
    trace = experiments.run_fig2b(mini, tmp_path)
    assert trace.exists()
    paths, report = experiments.run_fig2c(mini, tmp_path)
    names = sorted(p.name for p in paths)
    assert names == ["fig2c.csv", "fig2c_crossover.json", "fig2c_inset.csv"]
    assert report.passed
    doc = json.loads((tmp_path / "fig2c_crossover.json").read_text())
    assert set(doc["main"]["tau0"]) == {"e_plus", "e_minus_abs", "ej_avg"}
    assert doc["main"]["tau_star"] is not None


def test_write_rejects_unknown_format(tmp_path, mini):
    with pytest.raises(ConfigError):
        experiments._write(tmp_path, "x", "xml", {}, [("a", [1.0])])


GATE_SPEC_NMR = {
    "platform": "nmr",
    "omega0": 7.745966692414834,
    "omega1": 0.8,
    "omega": 1.9364916731037085,
    "j": 1.0,
    "delta": 0,
}


def _spec_file(tmp_path, doc):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return path


def test_run_gate_nmr(tmp_path, mini):
    path, report = experiments.run_gate(mini, _spec_file(tmp_path, GATE_SPEC_NMR), tmp_path)
    assert path.name == "gate_report.json"
    assert report.flags["dynamical_cancelled"]
    assert json.loads(path.read_text())["flags"]["cyclic"] is True


def test_run_gate_writes_deterministic_json(tmp_path, mini):
    spec = _spec_file(tmp_path, GATE_SPEC_NMR)
    a, _ = experiments.run_gate(mini, spec, tmp_path / "one")
    b, _ = experiments.run_gate(mini, spec, tmp_path / "two")
    assert a.name == "gate_report.json"
    assert a.read_bytes() == b.read_bytes()


def test_run_gate_josephson(tmp_path, mini):
    doc = {
        "platform": "josephson",
        "e1": 1.5625,
        "e2": 6.25,
        "e_ch": 39.0625,
        "cos_chi0": 0.75,
        "omega": 1.0,
    }
    _, report = experiments.run_gate(mini, _spec_file(tmp_path, doc), tmp_path)
    assert report.flags["dynamical_cancelled"]
    assert abs(report.loop1["geometric"] - np.pi / 4.0) < 1e-8


def test_run_gate_error_paths(tmp_path, mini):
    with pytest.raises(ConfigError, match="not found"):
        experiments.run_gate(mini, tmp_path / "missing.json", tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        experiments.run_gate(mini, bad, tmp_path)
    with pytest.raises(ConfigError, match="platform"):
        experiments.run_gate(mini, _spec_file(tmp_path, {"platform": "ion"}), tmp_path)
    incomplete = dict(GATE_SPEC_NMR)
    del incomplete["omega"]
    with pytest.raises(ConfigError):
        experiments.run_gate(mini, _spec_file(tmp_path, incomplete), tmp_path)
    unknown_rule = dict(GATE_SPEC_NMR, reversal="sideways")
    with pytest.raises(ConfigError, match="reversal"):
        experiments.run_gate(mini, _spec_file(tmp_path, unknown_rule), tmp_path)
