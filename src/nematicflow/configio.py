"""Experiment configuration: sectioned key=value files.

The sections are [grid], [time], [coefficients], [initial], [twin],
[verify] and [output]; _KNOWN lists every key with the cast applied to its
value and the dataclass field it fills.  Each section's dataclass is built
from the keys that are set, so the defaults and the rules on values live in
the dataclasses (GridSpec, SolverConfig, LeslieCoefficients.ansatz,
InitialSpec, TwinSpec, the EnsembleSpecs of VerifySpec, ExperimentConfig)
and nowhere else; the README's config reference lists them.  [time] needs
both dt and t_end when it sets anything, and explicit mu1..mu6 in
[coefficients] come as a full set that replaces the preset.

Unknown sections ([DEFAULT] included) or keys raise ConfigError (catching
typos beats silently ignoring them), and so does every set number that is
not finite, whether or not the command reads it, and every value a
dataclass rejects.  Values are literal: there is no %(name)s interpolation.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from typing import Optional

from .dynamics import LeslieCoefficients, SolverConfig
from .grid import GridSpec
from .harness import EnsembleSpec


def _director(raw):
    parts = [float(x) for x in raw.split(",")]
    if len(parts) != 2:
        raise ValueError("director needs two comma-separated numbers")
    return tuple(parts)


def _grids(raw):
    return tuple(int(x) for x in raw.split(","))


# section -> key -> (cast of the raw value, field it fills)
_KNOWN = {
    "grid": {"n": (int, "n_modes")},
    "time": {"dt": (float, "dt"), "t_end": (float, "t_end"),
             "scheme": (str, "scheme"), "cadence": (int, "record_cadence")},
    "coefficients": {"preset": (str, "preset"), "nu": (float, "nu"),
                     **{f"mu{k}": (float, f"mu{k}") for k in range(1, 7)}},
    "initial": {"profile": (str, "profile"), "seed": (int, "seed"),
                "decay": (float, "decay"), "band": (float, "band"),
                "amplitude_u": (float, "amplitude_u"),
                "amplitude_d": (float, "amplitude_d"),
                "director": (_director, "director")},
    "twin": {"mode": (str, "mode"), "seed": (int, "seed"),
             "delta": (float, "delta"), "decay": (float, "decay"),
             "band": (float, "band")},
    "verify": {"n_trials": (int, "n_trials"), "seed": (int, "seed"),
               "grids": (_grids, "grids")},
    "output": {"dir": (str, "output_dir")},
}


class ConfigError(ValueError):
    """Raised for unreadable, unknown, or inconsistent configuration."""


def _require(ok, section, message):
    if not ok:
        raise ConfigError(f"[{section}] {message}")


def _check_seed_and_band(section, seed, band):
    _require(seed >= 0, section, f"seed must be nonnegative, got {seed}")
    _require(band is None or band > 0, section,
             f"band must be positive, got {band}")


@dataclass(frozen=True)
class InitialSpec:
    profile: str = "random"
    seed: int = 0
    decay: float = 3.0
    band: Optional[float] = None
    amplitude_u: float = 0.5
    amplitude_d: float = 0.25
    director: tuple = (1.0, 0.0)

    def __post_init__(self):
        _require(self.profile in ("random", "rest-unit", "rest-uniform"),
                 "initial", f"unknown profile {self.profile!r}")
        _check_seed_and_band("initial", self.seed, self.band)


@dataclass(frozen=True)
class TwinSpec:
    mode: str = "identical"
    seed: int = 1
    delta: float = 0.0
    decay: float = 2.5
    band: Optional[float] = None

    def __post_init__(self):
        _require(self.mode in ("identical", "perturb"), "twin",
                 f"mode must be identical or perturb, got {self.mode!r}")
        _require(self.delta >= 0, "twin",
                 f"delta must be nonnegative, got {self.delta}")
        _require(self.mode == "perturb" or self.delta == 0, "twin",
                 f"delta = {self.delta} needs mode = perturb")
        _check_seed_and_band("twin", self.seed, self.band)


@dataclass(frozen=True)
class VerifySpec:
    n_trials: int = 100
    seed: int = 7000
    grids: tuple = (64, 128)

    def __post_init__(self):
        self.ensembles()

    def ensembles(self):
        """One EnsembleSpec per grid; EnsembleSpec holds the rules."""
        return [EnsembleSpec(n, self.n_trials, self.seed) for n in self.grids]


@dataclass(frozen=True)
class ExperimentConfig:
    grid: Optional[GridSpec]
    solver: Optional[SolverConfig]
    coeffs: LeslieCoefficients
    initial: InitialSpec = field(default_factory=InitialSpec)
    twin: TwinSpec = field(default_factory=TwinSpec)
    verify: VerifySpec = field(default_factory=VerifySpec)
    output_dir: str = "."


def _get(parser, section, key, cast):
    raw = parser.get(section, key)
    try:
        value = cast(raw)
        numbers = value if isinstance(value, tuple) else (value,)
        if not all(math.isfinite(v) for v in numbers if isinstance(v, float)):
            raise ValueError("not a finite number")
        return value
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def _build(section, make, values):
    """make(**values), its ValueError turned into a ConfigError naming the
    section."""
    try:
        return make(**values)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def _coefficients(values):
    """The explicit mu1..mu6 set when given, else the preset's."""
    preset = values.pop("preset", None)
    _require(preset in (None, "ansatz"), "coefficients",
             f"unknown preset {preset!r}")
    mus = {k: v for k, v in values.items() if k.startswith("mu")}
    if not mus:
        return _build("coefficients", LeslieCoefficients.ansatz, values)
    _require(len(mus) == 6, "coefficients", "explicit coefficients need all "
             "of mu1..mu6, got " + ", ".join(sorted(mus)))
    return _build("coefficients", LeslieCoefficients, mus)


def parse_config(path):
    """Read an experiment configuration file into an ExperimentConfig."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    # configparser would copy [DEFAULT] keys into every section
    if parser.defaults():
        raise ConfigError(f"unknown config section [{parser.default_section}]")
    values = {section: {} for section in _KNOWN}
    for section in parser.sections():
        if section not in _KNOWN:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if key not in _KNOWN[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            cast, name = _KNOWN[section][key]
            values[section][name] = _get(parser, section, key, cast)

    grid, time = values["grid"], values["time"]
    if time and not {"dt", "t_end"} <= time.keys():
        raise ConfigError("[time] needs both dt and t_end")
    return ExperimentConfig(
        grid=_build("grid", GridSpec, grid) if grid else None,
        solver=_build("time", SolverConfig, time) if time else None,
        coeffs=_coefficients(values["coefficients"]),
        initial=InitialSpec(**values["initial"]),
        twin=TwinSpec(**values["twin"]),
        verify=_build("verify", VerifySpec, values["verify"]),
        **values["output"],
    )
