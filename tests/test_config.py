import configparser
import shutil
from dataclasses import replace

import numpy as np
import pytest

from geomgates import config, experiments


def _write_modified(tmp_path, mutate):
    """Copy the packaged defaults, apply ``mutate`` to the parser, save."""
    cp = configparser.ConfigParser()
    cp.read(config.default_config_path())
    mutate(cp)
    path = tmp_path / "case.ini"
    with open(path, "w") as fh:
        cp.write(fh)
    return path


def test_default_config_loads_with_documented_values(cfg):
    assert abs(cfg.fig1.omega0 - 2.0 * np.sqrt(15.0)) < 1e-12
    assert cfg.fig1.tau_grid.points == 60
    assert cfg.fig2.e2 == 4.0 * cfg.fig2.e1
    assert abs(cfg.fig2.e_ch - 5.0 * (cfg.fig2.e1 + cfg.fig2.e2)) < 1e-12
    assert cfg.propagator.tolerance == 1e-10
    assert cfg.verify.oracle_grid.points == 5
    assert len(cfg.verify.rotation_angles) == 3
    assert str(config.default_config_path()).endswith("default.ini")


def test_grid_spec_values():
    lin = config.GridSpec(0.0, 10.0, 5, scale="linear")
    assert np.allclose(lin.values(), [0.0, 2.5, 5.0, 7.5, 10.0])
    log = config.GridSpec(1.0, 100.0, 3, scale="log")
    assert np.allclose(log.values(), [1.0, 10.0, 100.0])


def test_grid_spec_validation():
    with pytest.raises(config.ConfigError):
        config.GridSpec(0.0, 1.0, 1)
    with pytest.raises(config.ConfigError):
        config.GridSpec(2.0, 1.0, 5)
    with pytest.raises(config.ConfigError):
        config.GridSpec(0.0, 1.0, 5, scale="log")
    with pytest.raises(config.ConfigError):
        config.GridSpec(0.0, 1.0, 5, scale="cubic")


def test_missing_file_raises():
    with pytest.raises(config.ConfigError, match="not found"):
        config.load_config("/no/such/file.ini")


def test_missing_section_raises(tmp_path):
    path = _write_modified(tmp_path, lambda cp: cp.remove_section("fig2"))
    with pytest.raises(config.ConfigError, match=r"\[fig2\]"):
        config.load_config(path)


def test_missing_physical_key_raises(tmp_path):
    path = _write_modified(tmp_path, lambda cp: cp.remove_option("fig1", "omega0"))
    with pytest.raises(config.ConfigError, match="omega0"):
        config.load_config(path)


def test_non_numeric_value_raises(tmp_path):
    path = _write_modified(tmp_path, lambda cp: cp.set("fig1", "coupling_j", "strong"))
    with pytest.raises(config.ConfigError, match="not a number"):
        config.load_config(path)


@pytest.mark.parametrize(
    "section, key, raw",
    [
        ("fig1", "omega0", "nan"),
        ("fig2", "e1", "inf"),
        ("fig1", "tau_max", "-inf"),
        ("verify", "rotation_angles", "0.0 nan"),
    ],
)
def test_non_finite_value_raises(tmp_path, section, key, raw):
    path = _write_modified(tmp_path, lambda cp: cp.set(section, key, raw))
    with pytest.raises(config.ConfigError, match=key):
        config.load_config(path)


@pytest.mark.parametrize(
    "e1, e2, message",
    [("0.0", "6.25", "must be positive"), ("1.5625", "-1.0", "must be positive"),
     ("6.25", "6.25", "must differ")],
)
def test_impossible_junction_energies_raise(tmp_path, e1, e2, message):
    def mutate(cp):
        cp.set("fig2", "e1", e1)
        cp.set("fig2", "e2", e2)

    with pytest.raises(config.ConfigError, match=message):
        config.load_config(_write_modified(tmp_path, mutate))


@pytest.mark.parametrize("e_ch", ["0.0", "-39.0"])
def test_nonpositive_charging_energy_raises(tmp_path, e_ch):
    path = _write_modified(tmp_path, lambda cp: cp.set("fig2", "e_ch", e_ch))
    with pytest.raises(config.ConfigError, match="e_ch must be positive"):
        config.load_config(path)


def test_bad_grid_bounds_raise(tmp_path):
    def mutate(cp):
        cp.set("fig1", "tau_min", "50.0")
        cp.set("fig1", "tau_max", "2.0")

    with pytest.raises(config.ConfigError, match="increase"):
        config.load_config(_write_modified(tmp_path, mutate))


def test_numerics_section_is_optional(tmp_path):
    path = _write_modified(tmp_path, lambda cp: cp.remove_section("numerics"))
    loaded = config.load_config(path)
    assert loaded.propagator.steps_per_period >= 16


def test_stale_method_key_is_ignored(tmp_path):
    path = _write_modified(tmp_path, lambda cp: cp.set("numerics", "method", "richardson"))
    loaded = config.load_config(path)
    assert loaded.propagator == config.load_config().propagator


def test_with_numerics_overrides_only_requested_fields(cfg):
    out = cfg.with_numerics(steps=512, tol=1e-6)
    assert out.propagator.steps_per_period == 512
    assert out.propagator.tolerance == 1e-6
    assert out.propagator.max_refinements == cfg.propagator.max_refinements
    assert out.fig1 == cfg.fig1
    same = cfg.with_numerics()
    assert same.propagator == cfg.propagator


def test_with_numerics_validates(cfg):
    with pytest.raises(config.ConfigError):
        cfg.with_numerics(tol=-1.0)
    with pytest.raises(config.ConfigError):
        cfg.with_numerics(steps=4)
    with pytest.raises(config.ConfigError):
        cfg.with_numerics(tol=float("inf"))


def test_fig1_params_scale_with_the_coupling(cfg):
    # the packaged coupling is 1, where omega1_a * J and omega1_a / J agree
    f = replace(cfg.fig1, coupling_j=2.0, omega1_a=3.0)
    for delta in (0, 1):
        a, b = f.params(4.0, "a", delta), f.params(4.0, "b", delta)
        for p in (a, b):
            assert (p.omega0, p.omega, p.j, p.delta) == (f.omega0, f.omega0 / 4.0, 2.0, delta)
        assert a.omega1 == 6.0
        assert b.omega1 == 2.0 - f.omega0 / 4.0


def test_config_is_immutable(cfg):
    with pytest.raises(Exception):
        cfg.fig1 = None


def test_unreadable_config_content(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("just some words\nwithout sections\n")
    with pytest.raises(config.ConfigError):
        config.load_config(bad)


def test_config_round_trips_through_copy(tmp_path, cfg):
    copied = tmp_path / "copy.ini"
    shutil.copy(config.default_config_path(), copied)
    again = config.load_config(copied)
    assert again.fig1 == cfg.fig1
    assert again.fig2 == cfg.fig2
    assert again.sweep == cfg.sweep
    assert again.verify == cfg.verify


_NMR_SPEC = {"platform": "nmr", "omega0": 7.75, "omega1": 0.8, "omega": 1.94}
_CHARGE_SPEC = {
    "platform": "josephson", "e1": 1.5625, "e2": 6.25, "e_ch": 39.0625,
    "cos_chi0": 0.8, "omega": 1.0,
}


@pytest.mark.parametrize(
    "section, edits, ini_prefix, spec",
    [
        ("fig2", {"e2": "1.5625"}, "[fig2] ", dict(_CHARGE_SPEC, e2=1.5625)),
        ("fig2", {"e_ch": "-39.0"}, "[fig2] ", dict(_CHARGE_SPEC, e_ch=-39.0)),
        ("fig2", {"cos_chi0": "2"}, "[fig2] ", dict(_CHARGE_SPEC, cos_chi0=2)),
        ("fig2", {"e1": "1e300"}, "[fig2] ", dict(_CHARGE_SPEC, e1=1e300)),
        ("sweep", {"omega": "1e-320"}, "[sweep] ", dict(_NMR_SPEC, omega=1e-320)),
        (
            "verify", {"josephson_omega": "1e-320"}, "[verify] josephson_omega: ",
            dict(_CHARGE_SPEC, omega=1e-320),
        ),
    ],
    ids=[
        "symmetric-junction", "charging-energy", "cos-chi0", "junction-overflow",
        "nmr-period-overflow", "charge-period-overflow",
    ],
)
def test_each_drive_rule_reads_the_same_through_both_readers(
    tmp_path, section, edits, ini_prefix, spec
):
    def mutate(cp):
        for key, value in edits.items():
            cp.set(section, key, value)

    with pytest.raises(config.ConfigError) as ini:
        config.load_config(_write_modified(tmp_path, mutate))
    with pytest.raises(config.ConfigError) as gate:
        experiments._gate_inputs(spec)
    ini_msg, gate_msg = str(ini.value), str(gate.value)
    assert ini_msg.startswith(ini_prefix) and gate_msg.startswith("gate spec: ")
    assert ini_msg[len(ini_prefix):] == gate_msg[len("gate spec: "):]


def test_load_config_equals_a_fresh_parse_on_miss_and_hit(tmp_path):
    path = tmp_path / "copy.ini"
    shutil.copy(config.default_config_path(), path)
    fresh = config._parse.__wrapped__(str(path), path.read_text(encoding="utf-8"))
    before = config._parse.cache_info()
    miss = config.load_config(path)
    hit = config.load_config(path)
    after = config._parse.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
    assert miss == fresh
    assert hit == fresh
