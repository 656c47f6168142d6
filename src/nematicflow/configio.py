"""Experiment configuration: sectioned key=value files.

Sections and keys (all optional unless noted):

  [grid]          n = 64 (required for run/twin/decompose)
  [time]          dt = 1e-3 (required), t_end = 1.0 (required),
                  scheme = imex1|imex2, cadence = 1
  [coefficients]  preset = ansatz (default), nu = 1.0; or explicit
                  mu1..mu6 overriding the preset
  [initial]       profile = random|rest-unit|rest-uniform, seed = 0,
                  decay = 3.0, band = N/4, amplitude_u = 0.5,
                  amplitude_d = 0.25, director = 1,0
  [twin]          mode = identical|perturb, seed = 1, delta = 0.0,
                  decay = 2.5, band = N/4
  [verify]        n_trials = 100, seed = 7000, grids = 64,128
  [output]        dir = .

Unknown sections or keys raise ConfigError (catching typos beats silently
ignoring them), and so do non-finite numbers, negative seeds and bands that
are not positive.  Values are literal: there is no %(name)s interpolation.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from typing import Optional

from .dynamics import LeslieCoefficients, SolverConfig
from .grid import GridSpec

_KNOWN = {
    "grid": {"n"},
    "time": {"dt", "t_end", "scheme", "cadence"},
    "coefficients": {"preset", "nu", "mu1", "mu2", "mu3", "mu4", "mu5", "mu6"},
    "initial": {"profile", "seed", "decay", "band", "amplitude_u",
                "amplitude_d", "director"},
    "twin": {"mode", "seed", "delta", "decay", "band"},
    "verify": {"n_trials", "seed", "grids"},
    "output": {"dir"},
}


class ConfigError(ValueError):
    """Raised for unreadable, unknown, or inconsistent configuration."""


@dataclass(frozen=True)
class InitialSpec:
    profile: str = "random"
    seed: int = 0
    decay: float = 3.0
    band: Optional[float] = None
    amplitude_u: float = 0.5
    amplitude_d: float = 0.25
    director: tuple = (1.0, 0.0)


@dataclass(frozen=True)
class TwinSpec:
    mode: str = "identical"
    seed: int = 1
    delta: float = 0.0
    decay: float = 2.5
    band: Optional[float] = None


@dataclass(frozen=True)
class VerifySpec:
    n_trials: int = 100
    seed: int = 7000
    grids: tuple = (64, 128)


@dataclass(frozen=True)
class ExperimentConfig:
    grid: Optional[GridSpec]
    solver: Optional[SolverConfig]
    coeffs: LeslieCoefficients
    initial: InitialSpec = field(default_factory=InitialSpec)
    twin: TwinSpec = field(default_factory=TwinSpec)
    verify: VerifySpec = field(default_factory=VerifySpec)
    output_dir: str = "."


def _get(parser, section, key, cast, default):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    try:
        value = cast(raw)
        numbers = value if isinstance(value, tuple) else (value,)
        if not all(math.isfinite(v) for v in numbers if isinstance(v, float)):
            raise ValueError("not a finite number")
        return value
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def _director(raw):
    parts = [float(x) for x in raw.split(",")]
    if len(parts) != 2:
        raise ValueError("director needs two comma-separated numbers")
    return tuple(parts)


def _grids(raw):
    return tuple(int(x) for x in raw.split(","))


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

    for section in parser.sections():
        if section not in _KNOWN:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if key not in _KNOWN[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    try:
        grid = None
        if parser.has_option("grid", "n"):
            grid = GridSpec(_get(parser, "grid", "n", int, None))
        solver = None
        if parser.has_option("time", "dt"):
            if not parser.has_option("time", "t_end"):
                raise ConfigError("[time] t_end is required when dt is given")
            solver = SolverConfig(
                dt=_get(parser, "time", "dt", float, None),
                t_end=_get(parser, "time", "t_end", float, None),
                scheme=_get(parser, "time", "scheme", str, "imex1"),
                record_cadence=_get(parser, "time", "cadence", int, 1),
            )
        explicit = [k for k in ("mu1", "mu2", "mu3", "mu4", "mu5", "mu6")
                    if parser.has_option("coefficients", k)]
        if explicit:
            if len(explicit) != 6:
                raise ConfigError(
                    "explicit coefficients need all of mu1..mu6, got "
                    + ", ".join(explicit)
                )
            coeffs = LeslieCoefficients(*(
                _get(parser, "coefficients", k, float, None)
                for k in ("mu1", "mu2", "mu3", "mu4", "mu5", "mu6")
            ))
        else:
            preset = _get(parser, "coefficients", "preset", str, "ansatz")
            if preset != "ansatz":
                raise ConfigError(f"unknown coefficient preset {preset!r}")
            coeffs = LeslieCoefficients.ansatz(
                _get(parser, "coefficients", "nu", float, 1.0)
            )
    except ValueError as exc:
        # GridSpec/SolverConfig/LeslieCoefficients validation failures
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc

    initial = InitialSpec(
        profile=_get(parser, "initial", "profile", str, "random"),
        seed=_get(parser, "initial", "seed", int, 0),
        decay=_get(parser, "initial", "decay", float, 3.0),
        band=_get(parser, "initial", "band", float, None),
        amplitude_u=_get(parser, "initial", "amplitude_u", float, 0.5),
        amplitude_d=_get(parser, "initial", "amplitude_d", float, 0.25),
        director=_get(parser, "initial", "director", _director, (1.0, 0.0)),
    )
    if initial.profile not in ("random", "rest-unit", "rest-uniform"):
        raise ConfigError(f"unknown initial profile {initial.profile!r}")

    twin = TwinSpec(
        mode=_get(parser, "twin", "mode", str, "identical"),
        seed=_get(parser, "twin", "seed", int, 1),
        delta=_get(parser, "twin", "delta", float, 0.0),
        decay=_get(parser, "twin", "decay", float, 2.5),
        band=_get(parser, "twin", "band", float, None),
    )
    if twin.mode not in ("identical", "perturb"):
        raise ConfigError(f"twin mode must be identical or perturb, got {twin.mode!r}")
    if twin.delta < 0:
        raise ConfigError("twin delta must be nonnegative")

    verify = VerifySpec(
        n_trials=_get(parser, "verify", "n_trials", int, 100),
        seed=_get(parser, "verify", "seed", int, 7000),
        grids=_get(parser, "verify", "grids", _grids, (64, 128)),
    )
    for name, spec in (("initial", initial), ("twin", twin), ("verify", verify)):
        if spec.seed < 0:
            raise ConfigError(f"[{name}] seed must be nonnegative, got {spec.seed}")
    for name, band in (("initial", initial.band), ("twin", twin.band)):
        if band is not None and band <= 0:
            raise ConfigError(f"[{name}] band must be positive, got {band}")
    output_dir = _get(parser, "output", "dir", str, ".")
    return ExperimentConfig(
        grid=grid,
        solver=solver,
        coeffs=coeffs,
        initial=initial,
        twin=twin,
        verify=verify,
        output_dir=output_dir,
    )
