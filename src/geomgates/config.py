"""INI-backed experiment configuration.

Physical parameters (field amplitudes, junction energies, cone angles,
sweep end points) must be stated explicitly in the file: there are no
in-code fallbacks for them, so every exported figure is reproducible from
its config alone.  Only numerical knobs (step counts, tolerance, refinement
cap) carry defaults, and those can be overridden per run.

The packaged ``configs/default.ini`` documents every key.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .evolve import PropagatorConfig

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
        try:
            prop = replace(self.propagator, **kw)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return replace(self, propagator=prop)


def default_config_path() -> Path:
    return Path(str(resources.files("geomgates").joinpath("configs/default.ini")))


def _require(cp, section, key):
    if not cp.has_section(section):
        raise ConfigError(f"missing section [{section}]")
    if not cp.has_option(section, key):
        raise ConfigError(f"missing key '{key}' in section [{section}]")
    return cp.get(section, key)


def _require_float(cp, section, key):
    raw = _require(cp, section, key)
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from exc
    if not np.isfinite(value):
        raise ConfigError(f"[{section}] {key} = {raw!r} is not finite")
    return value


def _require_int(cp, section, key):
    raw = _require(cp, section, key)
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not an integer") from exc


def _grid(cp, section, prefix, default_scale="log"):
    scale = cp.get(section, f"{prefix}_scale", fallback=default_scale)
    try:
        return GridSpec(
            lo=_require_float(cp, section, f"{prefix}_min"),
            hi=_require_float(cp, section, f"{prefix}_max"),
            points=_require_int(cp, section, f"{prefix}_points"),
            scale=scale,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"[{section}] {prefix} grid: {exc}") from exc


def _float_list(raw, section, key):
    try:
        vals = tuple(float(tok) for tok in raw.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number list") from exc
    if not vals:
        raise ConfigError(f"[{section}] {key} must not be empty")
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"[{section}] {key} = {raw!r} has a non-finite entry")
    return vals


def _check_loops(where, slow, fast, lo, hi):
    """ConfigError unless every loop runs at a positive finite drive
    frequency rate / r with a finite period 2 pi r / rate, for every rate
    in [slow, fast] and time ratio r in [lo, hi]."""
    if not lo > 0.0:
        raise ConfigError(f"{where} must be positive, got {lo!r}")
    if not (np.isfinite(fast / lo) and np.isfinite(2.0 * np.pi * (hi / slow))):
        raise ConfigError(f"{where}: a loop's drive frequency or period overflows a float")


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
    try:
        return PropagatorConfig(**kw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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
    # a loop at tau / tau0 = r runs at omega = omega0 / r
    _check_loops("[fig1] tau grid", fig1.omega0, fig1.omega0, fig1.tau_grid.lo, fig1.tau_grid.hi)

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
    if not (fig2.e1 > 0.0 and fig2.e2 > 0.0):
        raise ConfigError("[fig2] junction energies e1, e2 must be positive")
    if fig2.e1 == fig2.e2:
        raise ConfigError("[fig2] junction asymmetry required: e1 must differ from e2")
    if not fig2.e_ch > 0.0:
        raise ConfigError("[fig2] charging energy e_ch must be positive")
    for name, c in (("cos_chi0", fig2.cos_chi0), ("cos_chi0_inset", fig2.cos_chi0_inset)):
        if not -1.0 < c < 1.0:
            raise ConfigError(f"[fig2] {name} must lie strictly inside (-1, 1)")
    if fig2.field_samples < 16:
        raise ConfigError("[fig2] field_samples must be at least 16")
    e_plus = fig2.e1 + fig2.e2
    if not np.isfinite(e_plus * e_plus):
        raise ConfigError("[fig2] junction energies overflow a float: (e1 + e2)^2 is not finite")
    # A loop at tau / tau0 = r runs at omega = 2 pi <E_J> / r, and the loop
    # average <E_J> of the junction energy lies in [|e1 - e2|, e1 + e2].
    rates = (2.0 * np.pi * abs(fig2.e1 - fig2.e2), 2.0 * np.pi * e_plus)
    ratio = fig2.field_tau_over_tau0
    _check_loops("[fig2] field_tau_over_tau0", *rates, ratio, ratio)
    _check_loops("[fig2] tau grid", *rates, fig2.tau_grid.lo, fig2.tau_grid.hi)

    sweep = SweepConfig(
        omega0=_require_float(cp, "sweep", "omega0"),
        omega1_target=_require_float(cp, "sweep", "omega1_target"),
        coupling_j=_require_float(cp, "sweep", "coupling_j"),
        omega=_require_float(cp, "sweep", "omega"),
        detuning_grid=_grid(cp, "sweep", "detuning", default_scale="linear"),
    )
    if sweep.omega <= 0.0:
        raise ConfigError("[sweep] omega must be positive")

    verify = VerifyConfig(
        chi_grid=_grid(cp, "verify", "chi", default_scale="linear"),
        field_scale=_require_float(cp, "verify", "field_scale"),
        josephson_omega=_require_float(cp, "verify", "josephson_omega"),
        oracle_grid=_grid(cp, "verify", "oracle"),
        block_tau_over_tau0=_float_list(
            _require(cp, "verify", "block_tau_over_tau0"), "verify", "block_tau_over_tau0"
        ),
        rotation_angles=_float_list(
            _require(cp, "verify", "rotation_angles"), "verify", "rotation_angles"
        ),
    )
    if verify.field_scale <= 0.0:
        raise ConfigError("[verify] field_scale must be positive")
    if verify.josephson_omega <= 0.0:
        raise ConfigError("[verify] josephson_omega must be positive")
    if not 0.0 < verify.chi_grid.lo <= verify.chi_grid.hi < np.pi:
        raise ConfigError("[verify] chi grid must lie strictly inside (0, pi)")
    if not verify.oracle_grid.lo > 0.0:
        raise ConfigError("[verify] oracle grid must be positive")
    r = verify.block_tau_over_tau0
    _check_loops("[verify] block_tau_over_tau0", fig1.omega0, fig1.omega0, min(r), max(r))

    return Config(
        propagator=_propagator(cp),
        fig1=fig1,
        fig2=fig2,
        sweep=sweep,
        verify=verify,
    )
