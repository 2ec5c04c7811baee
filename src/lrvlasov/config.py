"""Solver configuration: dataclass, preset resolution and file parsing.

The config file is a flat key=value format with four sections, [preset],
[grid], [method] and [output].  Unknown keys are rejected with the offending
line number so typos cannot silently fall back to defaults.  A preset supplies
defaults for everything; file values override the preset and command-line
``--set section.key=value`` pairs override both.  The dimension is the
preset's alone (``SolverConfig.dim``); no file, override or field sets it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .presets import get_preset

METHODS = ("plain", "conservative", "macro")


@dataclass(kw_only=True)
class SolverConfig:
    # the fields without a default are the preset's (``from_preset``)
    preset: str
    method: str = "macro"
    nx: int
    nx2: int = 0                 # 0 means "same as nx" (2D only)
    nv: int                      # per velocity dimension
    x_min: float
    x_max: float
    v_max: float
    beta: float
    eps: float
    cfl: float = 0.3
    t_end: float
    output_every: int = 10
    poisson_sign: float = 1.0
    rank_cap: int

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if not (0.0 < self.cfl <= 1.0):
            raise ConfigError(f"cfl must be in (0, 1], got {self.cfl}")
        if self.eps < 0:
            raise ConfigError(f"eps must be >= 0, got {self.eps}")
        if self.t_end < 0:
            raise ConfigError(f"t_end must be >= 0, got {self.t_end}")
        if self.poisson_sign not in (1.0, -1.0):
            raise ConfigError(f"poisson_sign must be 1 or -1, got {self.poisson_sign}")
        if self.poisson_sign == -1.0 and get_preset(self.preset).kinetic_forcing is not None:
            raise ConfigError(f"preset {self.preset!r} is manufactured for div E = rho - mean "
                              f"rho and needs poisson_sign 1, got -1")
        if self.output_every < 1:
            raise ConfigError(f"output_every must be >= 1, got {self.output_every}")
        if self.rank_cap < 1:
            raise ConfigError(f"rank_cap must be >= 1, got {self.rank_cap}")
        if self.dim == "1d1v" and self.nx2 not in (0, self.nx):
            raise ConfigError(f"nx2 must be 0 or nx={self.nx} in 1d1v, got {self.nx2}")
        if self.nx2 == 0:
            self.nx2 = self.nx
        spatial = {"1d1v": ("nx", self.nx), "2d2v": ("nx and nx2", self.nx * self.nx2)}
        for name, points in (spatial[self.dim], ("nv", self.nv)):
            if 8 * points > sys.maxsize:  # the bound io._read_array applies
                raise ConfigError(f"{name}: a grid of {points} points is more than "
                                  f"8-byte values can address")

    @property
    def dim(self) -> str:
        """"1d1v" or "2d2v": the preset's, and set nowhere else."""
        return get_preset(self.preset).dim


def from_preset(name: str, **overrides) -> SolverConfig:
    """Config with the benchmark parameters of the named preset as defaults.

    Overrides merge before construction so that the derived default (nx2
    following nx) resolves against the final values.
    """
    p = get_preset(name)
    values = dict(preset=p.name, nx=p.nx, nv=p.nv,
                  x_min=p.x_min, x_max=p.x_max, v_max=p.v_max,
                  beta=p.beta, eps=p.eps, t_end=p.t_end, rank_cap=p.rank_cap)
    values.update(overrides)
    return SolverConfig(**values)


# keys accepted per section, mapped to SolverConfig field and type
_SCHEMA = {
    "preset": {"name": ("preset", str)},
    "grid": {
        "nx": ("nx", int), "nx2": ("nx2", int), "nv": ("nv", int),
        "xmin": ("x_min", float), "xmax": ("x_max", float),
        "vmax": ("v_max", float), "beta": ("beta", float),
    },
    "method": {
        "variant": ("method", str),
        "eps": ("eps", float),
        "cfl": ("cfl", float),
        "t_end": ("t_end", float),
        "rank_cap": ("rank_cap", int),
        "poisson_sign": ("poisson_sign", float),
    },
    "output": {"every": ("output_every", int)},
}


def _convert(raw: str, typ, where: str):
    raw = raw.strip()
    try:
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {typ.__name__}") from None


def _parse_file(path: str | Path) -> dict[str, object]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, object] = {}
    section = None
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip().lower()
            if section not in _SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        if section is None:
            raise ConfigError(f"{path}:{lineno}: key outside of any [section]")
        key, raw = (s.strip() for s in stripped.split("=", 1))
        if key not in _SCHEMA[section]:
            known = ", ".join(sorted(_SCHEMA[section]))
            raise ConfigError(
                f"{path}:{lineno}: unknown key {key!r} in [{section}] (known: {known})")
        field_name, typ = _SCHEMA[section][key]
        values[field_name] = _convert(raw, typ, f"{path}:{lineno}")
    return values


def parse_overrides(pairs) -> dict[str, object]:
    """Parse ``section.key=value`` strings from the command line."""
    out: dict[str, object] = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"--set expects section.key=value, got {pair!r}")
        dotted, raw = pair.split("=", 1)
        if "." not in dotted:
            raise ConfigError(f"--set expects section.key=value, got {pair!r}")
        section, key = (s.strip().lower() for s in dotted.split(".", 1))
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"unknown --set target {dotted!r}")
        field_name, typ = _SCHEMA[section][key]
        out[field_name] = _convert(raw, typ, f"--set {pair}")
    return out


def load_config(path: str | Path | None = None, preset: str | None = None,
                overrides=()) -> SolverConfig:
    """Resolve a full configuration from file, preset name and overrides."""
    values: dict[str, object] = {}
    if path is not None:
        values.update(_parse_file(path))
    if preset is not None:
        values["preset"] = preset
    if "preset" not in values:
        required = "a [preset] section with name=<preset> (or --preset)"
        raise ConfigError(f"no preset selected; config requires {required}")
    values.update(parse_overrides(overrides))
    return from_preset(str(values.pop("preset")), **values)
