import configparser
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import geomgates
from geomgates import cli
from geomgates.config import default_config_path


def _run_python(*args):
    """Run a fresh interpreter that imports this checkout's geomgates."""
    src = str(Path(geomgates.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.fixture()
def fast_ini(tmp_path):
    """Config with small grids so CLI runs stay quick."""
    cp = configparser.ConfigParser()
    cp.read(default_config_path())
    cp.set("fig1", "tau_points", "3")
    cp.set("fig1", "tau_max", "16.0")
    cp.set("fig2", "tau_points", "5")
    cp.set("fig2", "tau_min", "40.0")
    cp.set("fig2", "tau_max", "120.0")
    cp.set("fig2", "field_samples", "64")
    cp.set("sweep", "detuning_points", "2")
    path = tmp_path / "fast.ini"
    with open(path, "w") as fh:
        cp.write(fh)
    return path


def test_fig1b_writes_csv(tmp_path, fast_ini, capsys):
    out = tmp_path / "out"
    rc = cli.main(["fig1b", "--config", str(fast_ini), "--out", str(out)])
    assert rc == 0
    assert (out / "fig1b.csv").exists()
    assert "fig1b.csv" in capsys.readouterr().out


def test_steps_and_tol_overrides_land_in_header(tmp_path, fast_ini):
    out = tmp_path / "out"
    rc = cli.main(
        [
            "fig1a",
            "--config", str(fast_ini),
            "--out", str(out),
            "--steps", "512",
            "--tol", "1e-8",
        ]
    )
    assert rc == 0
    text = (out / "fig1a.csv").read_text()
    assert "# steps_per_period = 512" in text
    assert "# tolerance = 1e-08" in text


def _numerics_ini(path, grids=(), **numerics):
    """Packaged config with the given [numerics] and (section, key, value)
    grid keys replaced, written to ``path``."""
    cp = configparser.ConfigParser()
    cp.read(default_config_path())
    for key, value in numerics.items():
        cp.set("numerics", key, value)
    for section, key, value in grids:
        cp.set(section, key, value)
    with open(path, "w") as fh:
        cp.write(fh)
    return path


def test_coarse_numerics_converge_on_packaged_physics(tmp_path):
    # the dynamical-phase bound follows the tolerance (10 * 1e-3 rad); a
    # fixed 1e-9 rad bound stopped this ladder after 6 rungs with exit 2
    ini = _numerics_ini(
        tmp_path / "coarse.ini", steps_per_period="16", max_refinements="6", tolerance="1e-3"
    )
    assert cli.main(["fig1a", "--config", str(ini), "--out", str(tmp_path)]) == 0


def test_verify_fails_an_open_bloch_path_without_traceback(tmp_path, capsys):
    # at tolerance 1 a charge loop's ladder stops before its Bloch path
    # closes; the solid-angle row fails and names that path
    ini = _numerics_ini(
        tmp_path / "loose.ini",
        grids=[
            ("fig1", "tau_points", "3"),
            ("fig2", "tau_points", "3"),
            ("fig2", "field_samples", "64"),
            ("sweep", "detuning_points", "2"),
            ("verify", "chi_points", "3"),
            ("verify", "oracle_points", "2"),
        ],
        steps_per_period="16",
        max_refinements="2",
        tolerance="1.0",
    )
    assert cli.main(["verify", "--config", str(ini), "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    row = next(line for line in out.splitlines() if "solid_angle_vs_decomposition" in line)
    assert row.startswith("FAIL solid_angle_vs_decomposition: measured = inf")
    assert "Bloch path not closed: josephson(" in row


def test_fig2c_reports_and_exits_zero(tmp_path, fast_ini, capsys):
    out = tmp_path / "out"
    rc = cli.main(["fig2c", "--config", str(fast_ini), "--out", str(out)])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "overall: PASS" in captured
    assert (out / "fig2c_crossover.json").exists()


def test_json_format(tmp_path, fast_ini):
    out = tmp_path / "out"
    rc = cli.main(
        ["fig1a", "--config", str(fast_ini), "--out", str(out), "--format", "json"]
    )
    assert rc == 0
    doc = json.loads((out / "fig1a.json").read_text())
    assert "gamma0_exact" in doc["columns"]


def test_sweep_subcommand(tmp_path, fast_ini):
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(fast_ini), "--out", str(out)]) == 0
    assert (out / "sweep.csv").exists()


def test_missing_config_exits_two(tmp_path, capsys):
    rc = cli.main(["fig1a", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_broken_config_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[fig1]\nomega0 = fast\n")
    rc = cli.main(["fig1a", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 2


def test_non_finite_config_exits_two(tmp_path, fast_ini, capsys):
    cp = configparser.ConfigParser()
    cp.read(fast_ini)
    cp.set("fig1", "omega0", "nan")
    bad = tmp_path / "nan.ini"
    with open(bad, "w") as fh:
        cp.write(fh)
    rc = cli.main(["fig1b", "--config", str(bad), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1
    assert "omega0" in err and "not finite" in err


@pytest.mark.parametrize("command", ["fig2b", "fig2c", "verify"])
def test_symmetric_junction_exits_two(tmp_path, fast_ini, capsys, command):
    cp = configparser.ConfigParser()
    cp.read(fast_ini)
    cp.set("fig2", "e2", cp.get("fig2", "e1"))
    bad = tmp_path / "symmetric.ini"
    with open(bad, "w") as fh:
        cp.write(fh)
    rc = cli.main([command, "--config", str(bad), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1
    assert "e1 must differ from e2" in err


def test_defect_columns_are_nonnegative(tmp_path, fast_ini):
    out = tmp_path / "out"
    assert cli.main(["fig1b", "--config", str(fast_ini), "--out", str(out), "--format", "json"]) == 0
    assert cli.main(["fig2c", "--config", str(fast_ini), "--out", str(out), "--format", "json"]) == 0
    seen = 0
    for name in ("fig1b", "fig2c", "fig2c_inset"):
        columns = json.loads((out / f"{name}.json").read_text())["columns"]
        for key, values in columns.items():
            if key.startswith("defect") or key == "cyclicity_defect":
                assert min(values) >= 0.0, (name, key, min(values))
                seen += 1
    assert seen == 4


def test_gate_subcommand_success_and_failure(tmp_path, fast_ini, capsys):
    spec = {
        "platform": "nmr",
        "omega0": 7.745966692414834,
        "omega1": 0.8,
        "omega": 1.9364916731037085,
    }
    good = tmp_path / "gate.json"
    good.write_text(json.dumps(spec))
    out = tmp_path / "out"
    rc = cli.main(["gate", str(good), "--config", str(fast_ini), "--out", str(out)])
    assert rc == 0
    assert (out / "gate_report.json").exists()
    assert "dynamical_cancelled: True" in capsys.readouterr().out

    # retracing without the sign flip leaves the dynamical phase in place
    adding = tmp_path / "gate2.json"
    adding.write_text(json.dumps(dict(spec, reversal="time_reversed")))
    rc = cli.main(["gate", str(adding), "--config", str(fast_ini), "--out", str(out)])
    assert rc == 1


def test_gate_missing_spec_exits_two(tmp_path, fast_ini):
    rc = cli.main(
        ["gate", str(tmp_path / "none.json"), "--config", str(fast_ini), "--out", str(tmp_path)]
    )
    assert rc == 2


def test_gate_spec_not_an_object_exits_two(tmp_path, fast_ini, capsys):
    spec = tmp_path / "list.json"
    spec.write_text("[1, 2]")
    rc = cli.main(["gate", str(spec), "--config", str(fast_ini), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1
    assert "gate spec must be a JSON object" in err


def test_infinite_tolerance_exits_two(tmp_path, fast_ini, capsys):
    rc = cli.main(
        ["fig1a", "--config", str(fast_ini), "--out", str(tmp_path), "--tol", "inf"]
    )
    assert rc == 2
    assert "tolerance" in capsys.readouterr().err


def test_nonconvergence_exits_two_with_one_line(tmp_path, fast_ini, capsys):
    cp = configparser.ConfigParser()
    cp.read(fast_ini)
    cp.set("numerics", "steps_per_period", "16")
    cp.set("numerics", "tolerance", "1e-300")
    cp.set("numerics", "max_refinements", "1")
    ini = tmp_path / "strict.ini"
    with open(ini, "w") as fh:
        cp.write(fh)
    rc = cli.main(["fig1b", "--config", str(ini), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1
    assert "did not converge after 1 refinements" in err
    assert "bound 1e-300" in err


def test_cli_import_loads_no_scipy():
    probe = (
        "import sys, geomgates.cli; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    run = _run_python("-c", probe)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_diverging_gate_prints_only_the_one_line_error(tmp_path, fast_ini):
    # A loop lasting ~6e300 cannot converge; the error must come without a
    # numerical warning ahead of it.  pytest captures warnings, so this runs
    # in a fresh interpreter.
    cp = configparser.ConfigParser()
    cp.read(fast_ini)
    cp.set("numerics", "steps_per_period", "16")
    cp.set("numerics", "max_refinements", "2")
    ini = tmp_path / "slow.ini"
    with open(ini, "w") as fh:
        cp.write(fh)
    spec = tmp_path / "gate.json"
    spec.write_text(
        json.dumps({"platform": "nmr", "omega0": 2.0, "omega1": 0.9, "omega": 1e-300})
    )
    run = _run_python(
        "-m", "geomgates.cli", "gate", str(spec), "--config", str(ini),
        "--out", str(tmp_path / "out"),
    )
    assert run.returncode == 2
    assert run.stderr.count("\n") == 1
    assert "did not converge" in run.stderr
    assert "Warning" not in run.stderr


_NMR_SPEC = {"platform": "nmr", "omega0": 7.75, "omega1": 0.8, "omega": 1.94}
_CHARGE_SPEC = {
    "platform": "josephson", "e1": 1.5625, "e2": 6.25, "e_ch": 39.0625,
    "cos_chi0": 0.8, "omega": 1.0,
}


@pytest.mark.parametrize(
    "spec, message",
    [
        (dict(_NMR_SPEC, omega0=None), "omega0 must be a finite number"),
        (dict(_NMR_SPEC, reversal=["a"]), "unknown reversal"),
        (dict(_NMR_SPEC, omega1=float("nan")), "omega1 must be a finite number"),
        (dict(_NMR_SPEC, omega0=float("inf")), "omega0 must be a finite number"),
        (dict(_NMR_SPEC, delta=0.7), "delta must be the integer 0 or 1"),
        (dict(_CHARGE_SPEC, cos_chi0=2), "cos_chi0 must lie strictly inside (-1, 1)"),
        (dict(_CHARGE_SPEC, e_ch=-39.0), "e_ch must be positive"),
        (dict(_NMR_SPEC, omega0=1e300), "the drive field overflows a float"),
        (dict(_CHARGE_SPEC, e1=1e300, e_ch=39.0), "drive parameters overflow a float"),
    ],
    ids=[
        "null", "unhashable-reversal", "nan", "infinity", "fractional-delta", "cos-above-one",
        "negative-charging-energy", "overflowing-field", "overflowing-junction",
    ],
)
def test_bad_gate_spec_exits_two_with_one_line(tmp_path, fast_ini, spec, message):
    # A fresh interpreter, so a traceback or a numerical warning would show
    # on stderr.  The small rung cap keeps a missed check cheap.
    cp = configparser.ConfigParser()
    cp.read(fast_ini)
    cp.set("numerics", "max_refinements", "2")
    ini = tmp_path / "capped.ini"
    with open(ini, "w") as fh:
        cp.write(fh)
    path = tmp_path / "gate.json"
    path.write_text(json.dumps(spec))
    run = _run_python(
        "-m", "geomgates.cli", "gate", str(path), "--config", str(ini),
        "--out", str(tmp_path / "out"),
    )
    assert run.returncode == 2
    assert run.stderr.count("\n") == 1
    assert message in run.stderr
    assert "Traceback" not in run.stderr and "Warning" not in run.stderr


def _capped_copy(ini, path, section, edits):
    """``ini`` at 16 steps per period and 2 rungs, with ``edits`` in ``section``."""
    cp = configparser.ConfigParser()
    cp.read(ini)
    cp.set("numerics", "steps_per_period", "16")
    cp.set("numerics", "max_refinements", "2")
    for key, value in edits.items():
        cp.set(section, key, value)
    with open(path, "w") as fh:
        cp.write(fh)
    return path


@pytest.mark.parametrize(
    "command, edits, message",
    [
        ("fig2b", {"field_tau_over_tau0": "0"}, "field_tau_over_tau0 must be positive"),
        ("fig2b", {"field_tau_over_tau0": "-5"}, "field_tau_over_tau0 must be positive"),
        ("fig2b", {"field_tau_over_tau0": "1e-320"}, "drive frequency or period overflows"),
        ("fig2c", {"e1": "1e300"}, "junction energies overflow a float"),
    ],
    ids=["zero-field-trace", "negative-field-trace", "subnormal-field-trace", "huge-junction"],
)
def test_bad_fig2_ini_exits_two_with_one_line(tmp_path, fast_ini, command, edits, message):
    # A fresh interpreter, so a traceback would show on stderr.
    ini = _capped_copy(fast_ini, tmp_path / "bad.ini", "fig2", edits)
    run = _run_python(
        "-m", "geomgates.cli", command, "--config", str(ini), "--out", str(tmp_path / "out")
    )
    assert run.returncode == 2
    assert run.stderr.count("\n") == 1
    assert message in run.stderr
    assert "Traceback" not in run.stderr


_PERIOD_OVERFLOW = "period 2 pi / omega = inf"


@pytest.mark.parametrize(
    "command, section, edits, spec, message",
    [
        # the rotating-frame field (omega0, 0, z + omega) overflows in |B'|^2
        ("sweep", "sweep", {"omega": "1e300"}, None, "[sweep] the drive field overflows a float"),
        ("sweep", "sweep", {"omega": "1e-320"}, None, _PERIOD_OVERFLOW),
        ("sweep", "sweep", {"omega0": "1e200"}, None, "[sweep] the drive field overflows a float"),
        ("verify", "verify", {"josephson_omega": "1e-320"}, None, _PERIOD_OVERFLOW),
        ("gate", "fig1", {}, dict(_NMR_SPEC, omega=1e-320), _PERIOD_OVERFLOW),
        ("gate", "fig1", {}, dict(_CHARGE_SPEC, omega=1e-320), _PERIOD_OVERFLOW),
    ],
    ids=[
        "sweep-fast-drive", "sweep-slow-drive", "sweep-strong-drive", "verify-slow-charge-drive",
        "slow-nmr-gate", "slow-charge-gate",
    ],
)
def test_overflowing_drives_exit_two_with_one_line(
    tmp_path, fast_ini, command, section, edits, spec, message
):
    # A fresh interpreter, so a numerical warning ahead of the error would
    # show on stderr.
    ini = _capped_copy(fast_ini, tmp_path / "bad.ini", section, edits)
    args = [command, "--config", str(ini), "--out", str(tmp_path / "out")]
    if spec is not None:
        path = tmp_path / "gate.json"
        path.write_text(json.dumps(spec))
        args.insert(1, str(path))
    run = _run_python("-m", "geomgates.cli", *args)
    assert run.returncode == 2
    assert run.stderr.count("\n") == 1
    assert message in run.stderr
    assert "Traceback" not in run.stderr and "Warning" not in run.stderr


_TINY_JUNCTIONS = {"e1": "1e-307", "e2": "4e-307", "e_ch": "5e-307", "tau_max": "2"}


@pytest.mark.parametrize(
    "command, edits, spec",
    [
        ("fig2c", _TINY_JUNCTIONS, None),
        ("verify", _TINY_JUNCTIONS, None),
        ("gate", {}, dict(_CHARGE_SPEC, e1=1e-170, e2=4e-170, e_ch=5e-170, cos_chi0=0.75,
                          omega=1e-170)),
    ],
    ids=["fig2c", "verify", "gate"],
)
def test_underflowing_junction_energies_exit_two_with_one_line(tmp_path, command, edits, spec):
    # (e1 - e2)^2 and (e1 + e2)^2 underflow to 0, so E_J would read 0/0;
    # a fresh interpreter, so a numerical warning would show on stderr
    ini = _capped_copy(default_config_path(), tmp_path / "tiny.ini", "fig2", edits)
    args = [command, "--config", str(ini), "--out", str(tmp_path / "out")]
    if spec is not None:
        path = tmp_path / "gate.json"
        path.write_text(json.dumps(spec))
        args.insert(1, str(path))
    run = _run_python("-m", "geomgates.cli", *args)
    assert run.returncode == 2
    assert run.stderr.count("\n") == 1
    assert "junction energies underflow a float" in run.stderr
    assert "Traceback" not in run.stderr and "Warning" not in run.stderr


@pytest.mark.parametrize(
    "command, section, edits, message",
    [
        ("fig1a", "fig1", {"tau_scale": "linear", "tau_min": "0"}, "[fig1] tau grid must be"),
        ("fig2c", "fig2", {"tau_scale": "linear", "tau_min": "0"}, "[fig2] tau grid must be"),
        ("verify", "verify", {"chi_min": "0"}, "chi grid must lie strictly inside (0, pi)"),
        ("verify", "verify", {"oracle_scale": "linear", "oracle_min": "0"}, "oracle grid must"),
        ("verify", "verify", {"block_tau_over_tau0": "0 1"}, "block_tau_over_tau0 must be"),
    ],
    ids=["fig1-tau-zero", "fig2-tau-zero", "chi-zero", "oracle-zero", "block-tau-zero"],
)
def test_loop_grids_outside_their_domain_exit_two(
    tmp_path, fast_ini, capsys, command, section, edits, message
):
    ini = _capped_copy(fast_ini, tmp_path / "bad.ini", section, edits)
    rc = cli.main([command, "--config", str(ini), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1
    assert message in err


def test_gate_rejects_the_table_format_flag(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"platform": "nmr", "omega0": 2.0, "omega1": 0.9, "omega": 1.1}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["gate", str(spec), "--out", str(tmp_path / "out"), "--format", "csv"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    with pytest.raises(SystemExit) as exc:
        cli.main(["gate", "-h"])
    assert exc.value.code == 0
    gate_help = capsys.readouterr().out
    assert "--tol" in gate_help and "--format" not in gate_help
    with pytest.raises(SystemExit):
        cli.main(["fig2b", "-h"])
    assert "--format" in capsys.readouterr().out


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit) as exc:
        cli.main(["render"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "geomgates" in capsys.readouterr().out


_SPEC_KEYS = (
    "platform", "omega0", "omega1", "omega", "j", "delta", "reversal",
    "e1", "e2", "e_ch", "cos_chi0", "chi0", "e_i", "nxc",
)
_ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, 1, -1, 0.0, -0.0, 1e-300, 5e-324, 1e300, -1e308, 1.7976931348623157e308]),
    st.sampled_from(["nmr", "josephson", "negated_reversed", "time_reversed"]),
)
_DROP = object()  # mutation that deletes the key
_MUTATIONS = st.lists(
    st.tuples(st.sampled_from(_SPEC_KEYS), st.one_of(st.just(_DROP), _ODD_VALUES)),
    min_size=1,
    max_size=3,
)


@pytest.fixture(scope="module")
def capped_ini(tmp_path_factory):
    """Packaged config capped at 64 steps per period: 16, doubled twice."""
    cp = configparser.ConfigParser()
    cp.read(default_config_path())
    cp.set("numerics", "steps_per_period", "16")
    cp.set("numerics", "max_refinements", "2")
    path = tmp_path_factory.mktemp("fuzz") / "capped.ini"
    with open(path, "w") as fh:
        cp.write(fh)
    return path


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
@given(base=st.sampled_from([_NMR_SPEC, _CHARGE_SPEC]), mutations=_MUTATIONS)
# e_minus**2 of Python floats raised OverflowError out of cyclic_pair_josephson
@example(base=_CHARGE_SPEC, mutations=[("e1", 1e300)])
def test_mutated_gate_specs_exit_cleanly(capped_ini, base, mutations):
    spec = dict(base)
    for key, value in mutations:
        if value is _DROP:
            spec.pop(key, None)
        else:
            spec[key] = value
    path = capped_ini.parent / "gate.json"
    path.write_text(json.dumps(spec))
    rc = cli.main(["gate", str(path), "--config", str(capped_ini), "--out", str(path.parent)])
    assert rc in (0, 1, 2)


# Keys of the sections the fuzz mutates.  Counts (grid points, steps,
# rungs) draw small values only: a large count is valid input whose run
# time or memory grows with it (steps double with every rung), not a
# malformed one.
_INI_FLOAT_KEYS = {
    "numerics": ("tolerance",),
    "fig1": ("omega0", "omega1_a", "coupling_j", "tau_min", "tau_max"),
    "fig2": (
        "e1", "e2", "e_ch", "cos_chi0", "cos_chi0_inset", "tau_min", "tau_max",
        "field_tau_over_tau0",
    ),
    "sweep": ("omega0", "omega1_target", "coupling_j", "omega", "detuning_min", "detuning_max"),
    "verify": ("chi_min", "chi_max", "field_scale", "josephson_omega", "oracle_min", "oracle_max"),
}
_INI_COUNT_KEYS = {
    "numerics": ("steps_per_period",),
    "fig1": ("tau_points",),
    "fig2": ("tau_points", "field_samples"),
    "sweep": ("detuning_points",),
    "verify": ("chi_points", "oracle_points"),
}
_INI_SCALE_KEYS = {
    "fig1": ("tau_scale",),
    "fig2": ("tau_scale",),
    "sweep": ("detuning_scale",),
    "verify": ("chi_scale", "oracle_scale"),
}
_INI_LIST_KEYS = {"verify": ("block_tau_over_tau0", "rotation_angles")}
_INI_TEXT = st.sampled_from(["", "x", "1.5.2", "0x10", "1e", "nan", "inf", "-inf", "[1]", "1,2"])
_INI_FLOATS = st.one_of(
    st.floats(-50.0, 50.0).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0", "-0.0", "-1", "1e-300", "5e-324", "1e300", "-1e308", "1e400"]),
    _INI_TEXT,
)
_INI_COUNTS = st.one_of(
    st.integers(-3, 40).map(str), st.sampled_from(["2.0", "1e1", "-0"]), _INI_TEXT
)
_INI_RUNGS = st.one_of(st.integers(-3, 4).map(str), st.sampled_from(["2.0", "-0"]), _INI_TEXT)
_INI_LISTS = st.one_of(
    st.lists(_INI_FLOATS.filter(lambda v: " " not in v), max_size=3).map(" ".join), _INI_TEXT
)
_INI_MUTATION = st.one_of(
    *[
        st.tuples(st.just(sec), st.sampled_from(keys), values)
        for table, values in (
            (_INI_FLOAT_KEYS, _INI_FLOATS),
            (_INI_COUNT_KEYS, _INI_COUNTS),
            ({"numerics": ("max_refinements",)}, _INI_RUNGS),
            (_INI_SCALE_KEYS, st.one_of(st.sampled_from(["log", "linear", "LOG"]), _INI_TEXT)),
            (_INI_LIST_KEYS, _INI_LISTS),
        )
        for sec, keys in table.items()
    ],
    # a dropped key or an unknown one
    st.tuples(
        st.sampled_from(sorted(_INI_FLOAT_KEYS)),
        st.sampled_from([k for keys in _INI_FLOAT_KEYS.values() for k in keys] + ["bogus"]),
        st.sampled_from([None, "1.0"]),
    ),
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(["fig1a", "fig1b", "fig2b", "fig2c", "sweep", "verify"]),
    mutations=st.lists(_INI_MUTATION, min_size=1, max_size=3),
)
# [sweep] drives whose period or squared field overflows a float
@example(command="sweep", mutations=[("sweep", "omega", "1e300")])
@example(command="sweep", mutations=[("sweep", "omega", "1e-320")])
@example(command="sweep", mutations=[("sweep", "omega0", "1e200")])
def test_mutated_ini_exits_cleanly(tmp_path_factory, command, mutations):
    cp = configparser.ConfigParser()
    cp.read(default_config_path())
    # 16 steps doubled twice; the loose tolerance lets the sweep converge
    for key, value in (("steps_per_period", "16"), ("max_refinements", "2"), ("tolerance", "1e-3")):
        cp.set("numerics", key, value)
    for section, key, value in (
        ("fig1", "tau_points", "3"),
        ("fig2", "tau_points", "3"),
        ("fig2", "field_samples", "64"),
        ("sweep", "detuning_points", "2"),
        ("verify", "chi_points", "3"),
        ("verify", "oracle_points", "2"),
    ):
        cp.set(section, key, value)
    for section, key, value in mutations:
        if value is None:
            cp.remove_option(section, key)
        else:
            cp.set(section, key, value)
    work = tmp_path_factory.mktemp("inifuzz")
    path = work / "mutated.ini"
    with open(path, "w") as fh:
        cp.write(fh)
    rc = cli.main([command, "--config", str(path), "--out", str(work)])
    assert rc in (0, 1, 2)
