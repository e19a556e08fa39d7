"""INI-backed experiment configuration.

Physical parameters (field amplitudes, junction energies, cone angles,
sweep end points) must be stated explicitly in the file: there are no
in-code fallbacks for them, so every exported figure is reproducible from
its config alone.  Only numerical knobs (step counts, tolerance, refinement
cap) carry defaults, and those can be overridden per run.

The loader only parses: the parameter classes it builds own every drive
rule, and their ValueError becomes a ConfigError prefixed with the section
and key.  A loop grid is checked by building its fastest and slowest loop.
Only rules with no parameter counterpart (grid domains, a positive
``[fig1] omega0``, ``field_samples >= 16``) are written here.

The packaged ``configs/default.ini`` documents every key.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .evolve import PropagatorConfig
from .fields import JosephsonParams, NmrParams

__all__ = [
    "ConfigError",
    "GridSpec",
    "Fig1Config",
    "Fig2Config",
    "SweepConfig",
    "VerifyConfig",
    "Config",
    "load_config",
    "default_config_path",
]

# tau / tau0 of verify's charge reference loops (the middle one its reference drive)
CHARGE_REFERENCE_RATIOS = (3.0, 10.0, 30.0)


class ConfigError(Exception):
    """Missing, malformed, or inconsistent configuration input."""


@dataclass(frozen=True)
class GridSpec:
    """Strictly increasing 1-d sweep grid."""

    lo: float
    hi: float
    points: int
    scale: str = "log"  # 'log' or 'linear'

    def __post_init__(self):
        if self.points < 2:
            raise ConfigError(f"grid needs at least 2 points, got {self.points}")
        if not self.lo < self.hi:
            raise ConfigError(f"grid bounds must increase, got [{self.lo}, {self.hi}]")
        if self.scale not in ("log", "linear"):
            raise ConfigError(f"grid scale must be 'log' or 'linear', got {self.scale!r}")
        if self.scale == "log" and self.lo <= 0.0:
            raise ConfigError("log grids need a positive lower bound")

    def values(self):
        if self.scale == "log":
            return np.geomspace(self.lo, self.hi, self.points)
        return np.linspace(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class Fig1Config:
    """Rotating-drive conditional-phase sweep (energies in units of the
    zz coupling)."""

    omega0: float
    omega1_a: float
    coupling_j: float
    tau_grid: GridSpec

    def params(self, ratio, variant, delta=0) -> NmrParams:
        """Drive of the loop at tau / tau0 = ratio: omega = omega0 / ratio,
        with omega1 = omega1_a * J (variant 'a') or J - omega (variant 'b')."""
        omega = self.omega0 / ratio
        omega1 = self.omega1_a * self.coupling_j if variant == "a" else self.coupling_j - omega
        return NmrParams(self.omega0, omega1, omega, self.coupling_j, delta)


@dataclass(frozen=True)
class Fig2Config:
    """Charge-qubit sweep (energies in micro-eV)."""

    e1: float
    e2: float
    e_ch: float
    cos_chi0: float
    cos_chi0_inset: float
    tau_grid: GridSpec
    field_tau_over_tau0: float
    field_samples: int = 4096

    def params(self, cos_chi0, omega) -> JosephsonParams:
        """Drive at the cone angle arccos(cos_chi0) and frequency omega."""
        return JosephsonParams.from_cos_chi0(
            cos_chi0, e1=self.e1, e2=self.e2, e_ch=self.e_ch, omega=omega
        )


@dataclass(frozen=True)
class SweepConfig:
    """Control-leakage detuning sweep for the coupled pair."""

    omega0: float
    omega1_target: float
    coupling_j: float
    omega: float
    detuning_grid: GridSpec


@dataclass(frozen=True)
class VerifyConfig:
    """Grids used by the verification suite."""

    chi_grid: GridSpec
    field_scale: float
    josephson_omega: float
    oracle_grid: GridSpec
    block_tau_over_tau0: tuple
    rotation_angles: tuple

    def cone(self, chi) -> NmrParams:
        """Unit-frequency rotating drive of field scale b on the cone chi."""
        b = self.field_scale
        return NmrParams(omega0=b * np.sin(chi), omega1=b * np.cos(chi) - 1.0, omega=1.0)


@dataclass(frozen=True)
class Config:
    propagator: PropagatorConfig
    fig1: Fig1Config
    fig2: Fig2Config
    sweep: SweepConfig
    verify: VerifyConfig

    def with_numerics(self, steps=None, tol=None) -> "Config":
        """Copy with CLI-level numerical overrides applied."""
        kw = {}
        if steps is not None:
            kw["steps_per_period"] = int(steps)
        if tol is not None:
            kw["tolerance"] = float(tol)
        if not kw:
            return self
        prop = _built("--steps/--tol:", replace, self.propagator, **kw)
        return replace(self, propagator=prop)


def default_config_path() -> Path:
    return Path(str(resources.files("geomgates").joinpath("configs/default.ini")))


def _require(cp, section, key):
    if not cp.has_section(section):
        raise ConfigError(f"missing section [{section}]")
    if not cp.has_option(section, key):
        raise ConfigError(f"missing key '{key}' in section [{section}]")
    return cp.get(section, key)


def _number(raw, section, key):
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from exc
    if not np.isfinite(value):
        raise ConfigError(f"[{section}] {key} = {raw!r} is not finite")
    return value


def _require_float(cp, section, key):
    return _number(_require(cp, section, key), section, key)


def _require_int(cp, section, key):
    raw = _require(cp, section, key)
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not an integer") from exc


def _grid(cp, section, prefix, default_scale="log"):
    return GridSpec(
        lo=_require_float(cp, section, f"{prefix}_min"),
        hi=_require_float(cp, section, f"{prefix}_max"),
        points=_require_int(cp, section, f"{prefix}_points"),
        scale=cp.get(section, f"{prefix}_scale", fallback=default_scale),
    )


def _float_list(cp, section, key):
    raw = _require(cp, section, key)
    vals = tuple(_number(tok, section, key) for tok in raw.replace(",", " ").split())
    if not vals:
        raise ConfigError(f"[{section}] {key} must not be empty")
    return vals


def _built(where, make, *args, **kw):
    """``make(*args, **kw)``; a ValueError becomes a ConfigError after ``where``."""
    try:
        return make(*args, **kw)
    except ValueError as exc:
        raise ConfigError(f"{where} {exc}") from exc


def _fig1_loops(f: Fig1Config, where, lo, hi):
    """Build the fastest (lo) and slowest (hi) loops of both variants and controls."""
    if not lo > 0.0:
        raise ConfigError(f"{where} must be positive, got {lo!r}")
    for ratio in (lo, hi):
        for variant in ("a", "b"):
            for delta in (0, 1):
                _built(f"{where}:", f.params, ratio, variant, delta)


def _fig2_loops(f: Fig2Config, where, lo, hi):
    """Build the fastest and the slowest loop at tau / tau0 in [lo, hi], at
    both cone angles.  A loop runs at omega = 2 pi <E_J> / (tau / tau0), and
    the loop average <E_J> lies in [|e1 - e2|, e1 + e2]."""
    if not lo > 0.0:
        raise ConfigError(f"{where} must be positive, got {lo!r}")
    for cos_chi0 in (f.cos_chi0, f.cos_chi0_inset):
        _built(f"{where}:", f.params, cos_chi0, 2.0 * np.pi * (f.e1 + f.e2) / lo)
        _built(f"{where}:", f.params, cos_chi0, 2.0 * np.pi * abs(f.e1 - f.e2) / hi)


def _propagator(cp) -> PropagatorConfig:
    sec = "numerics"
    kw = {}
    if cp.has_section(sec):
        if cp.has_option(sec, "steps_per_period"):
            kw["steps_per_period"] = _require_int(cp, sec, "steps_per_period")
        if cp.has_option(sec, "tolerance"):
            kw["tolerance"] = _require_float(cp, sec, "tolerance")
        if cp.has_option(sec, "max_refinements"):
            kw["max_refinements"] = _require_int(cp, sec, "max_refinements")
    return _built("[numerics]", PropagatorConfig, **kw)


def load_config(path=None) -> Config:
    """Parse a config file (the packaged default when ``path`` is None).

    Raises
    ------
    ConfigError
        On unreadable files, missing physical parameters, non-numeric
        values, or inconsistent grids.
    """
    src = Path(path) if path is not None else default_config_path()
    if not src.is_file():
        raise ConfigError(f"config file not found: {src}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(src) as fh:
            cp.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"cannot parse {src}: {exc}") from exc

    fig1 = Fig1Config(
        omega0=_require_float(cp, "fig1", "omega0"),
        omega1_a=_require_float(cp, "fig1", "omega1_a"),
        coupling_j=_require_float(cp, "fig1", "coupling_j"),
        tau_grid=_grid(cp, "fig1", "tau"),
    )
    if fig1.omega0 <= 0.0:
        raise ConfigError("[fig1] omega0 must be positive")
    _fig1_loops(fig1, "[fig1] tau grid", fig1.tau_grid.lo, fig1.tau_grid.hi)

    fig2 = Fig2Config(
        e1=_require_float(cp, "fig2", "e1"),
        e2=_require_float(cp, "fig2", "e2"),
        e_ch=_require_float(cp, "fig2", "e_ch"),
        cos_chi0=_require_float(cp, "fig2", "cos_chi0"),
        cos_chi0_inset=_require_float(cp, "fig2", "cos_chi0_inset"),
        tau_grid=_grid(cp, "fig2", "tau"),
        field_tau_over_tau0=_require_float(cp, "fig2", "field_tau_over_tau0"),
        field_samples=_require_int(cp, "fig2", "field_samples"),
    )
    # the unit-speed loop whose junction energy the experiments average
    _built("[fig2]", fig2.params, fig2.cos_chi0, 2.0 * np.pi)
    _built("[fig2] cos_chi0_inset:", fig2.params, fig2.cos_chi0_inset, 2.0 * np.pi)
    if fig2.field_samples < 16:
        raise ConfigError("[fig2] field_samples must be at least 16")
    ratio = fig2.field_tau_over_tau0
    _fig2_loops(fig2, "[fig2] field_tau_over_tau0", ratio, ratio)
    _fig2_loops(fig2, "[fig2] tau grid", fig2.tau_grid.lo, fig2.tau_grid.hi)
    lo, hi = min(CHARGE_REFERENCE_RATIOS), max(CHARGE_REFERENCE_RATIOS)
    _fig2_loops(fig2, f"[fig2] e1, e2, e_ch at verify's tau / tau0 = {lo:g} to {hi:g}", lo, hi)

    sweep = SweepConfig(
        omega0=_require_float(cp, "sweep", "omega0"),
        omega1_target=_require_float(cp, "sweep", "omega1_target"),
        coupling_j=_require_float(cp, "sweep", "coupling_j"),
        omega=_require_float(cp, "sweep", "omega"),
        detuning_grid=_grid(cp, "sweep", "detuning", default_scale="linear"),
    )
    w0, w1, w = sweep.omega0, sweep.omega1_target, sweep.omega
    for delta in (0, 1):
        _built("[sweep]", NmrParams, w0, w1, w, sweep.coupling_j, delta)
    # the decoupled control qubit's drive at the detuning grid's ends
    for detuning in (sweep.detuning_grid.lo, sweep.detuning_grid.hi):
        _built("[sweep] detuning grid:", NmrParams, w0, w1 + detuning, w)

    verify = VerifyConfig(
        chi_grid=_grid(cp, "verify", "chi", default_scale="linear"),
        field_scale=_require_float(cp, "verify", "field_scale"),
        josephson_omega=_require_float(cp, "verify", "josephson_omega"),
        oracle_grid=_grid(cp, "verify", "oracle"),
        block_tau_over_tau0=_float_list(cp, "verify", "block_tau_over_tau0"),
        rotation_angles=_float_list(cp, "verify", "rotation_angles"),
    )
    if verify.field_scale <= 0.0:
        raise ConfigError("[verify] field_scale must be positive")
    if not 0.0 < verify.chi_grid.lo <= verify.chi_grid.hi < np.pi:
        raise ConfigError("[verify] chi grid must lie strictly inside (0, pi)")
    if not verify.oracle_grid.lo > 0.0:
        raise ConfigError("[verify] oracle grid must be positive")
    for chi in (verify.chi_grid.lo, verify.chi_grid.hi):
        _built("[verify] field_scale:", verify.cone, chi)
        cos_chi = float(np.cos(chi))
        _built("[verify] josephson_omega:", fig2.params, cos_chi, verify.josephson_omega)
    # the oracle drive grid's weakest and strongest corners
    for corner in (verify.oracle_grid.lo, verify.oracle_grid.hi):
        _built("[verify] oracle grid:", NmrParams, corner, corner, corner)
    r = verify.block_tau_over_tau0
    _fig1_loops(fig1, "[verify] block_tau_over_tau0", min(r), max(r))

    return Config(
        propagator=_propagator(cp),
        fig1=fig1,
        fig2=fig2,
        sweep=sweep,
        verify=verify,
    )
