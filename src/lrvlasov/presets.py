"""Benchmark presets: initial data, domains and manufactured sources.

Every preset assembles its initial distribution analytically in factored form
(all initial data are short sums of separable products).  The ``forced``
preset carries a manufactured kinetic forcing and matching macroscopic
sources; with them the pair

    f(x, v, t) = (2 - cos(2x - 2 pi t)) exp(-(4v - 1)^2 / 4)
    E(x, t)    = -(sqrt(pi)/4) sin(2x - 2 pi t)

solves the forced system exactly (the field satisfies E_x = rho - sqrt(pi)),
stays rank one, and is used for convergence studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .grids import SpatialGrid, VelocityGrid
from .htucker import HtTensor
from .lowrank import LowRankMatrix

_SQPI = np.sqrt(np.pi)


@dataclass(frozen=True)
class Preset:
    name: str
    dim: str                      # "1d1v" | "2d2v"
    x_min: float
    x_max: float
    v_max: float
    beta: float                   # weight parameter
    eps: float                    # default truncation threshold
    nx: int                       # default points per spatial dimension
    nv: int                       # default points per velocity dimension
    t_end: float
    init: Callable                # (sgrid, *vgrids) -> f in the format of dim
    rank_cap: int = 60
    kinetic_forcing: Optional[Callable] = None  # (t, sgrid, *vgrids) -> block of f's format
    macro_sources: Optional[Callable] = None    # (x, t, E) -> (s_rho, s_J, s_e)
    exact_f: Optional[Callable] = None          # (t, x, v) -> dense array


# --------------------------------------------------------------------------
# forced convergence benchmark

def _forced_vprofile(v: np.ndarray) -> np.ndarray:
    return np.exp(-((4.0 * v - 1.0) ** 2) / 4.0)


def _forced_init(sgrid: SpatialGrid, vgrid: VelocityGrid) -> LowRankMatrix:
    x = sgrid.nodes(0)
    g = _forced_vprofile(vgrid.v)
    ux = np.column_stack([2.0 * np.ones_like(x), -np.cos(2.0 * x)])
    uv = np.column_stack([g, g])
    return LowRankMatrix(np.ones(2), ux, uv)


def _forced_forcing(t: float, sgrid: SpatialGrid, vgrid: VelocityGrid) -> LowRankMatrix:
    x = sgrid.nodes(0)
    v = vgrid.v
    g = _forced_vprofile(v)
    th2 = np.sin(2.0 * x - 2.0 * np.pi * t)
    th4 = np.sin(4.0 * x - 4.0 * np.pi * t)
    ux = np.column_stack([th2, th4])
    uv = np.column_stack([
        ((4.0 * _SQPI + 2.0) * v - (2.0 * np.pi + _SQPI)) * g,
        _SQPI * (0.25 - v) * g,
    ])
    return LowRankMatrix(np.ones(2), ux, uv)


def _forced_macro_sources(x: np.ndarray, t: float, e_field: np.ndarray):
    # closed-form sources; the field factor in the energy source is the exact
    # field, so every term is a pure grid harmonic and the discrete totals
    # cancel exactly (the numerical field would leak O(error) into the totals).
    # macro.rate adds the work E . mean(J) itself, -(pi/16) sin(2x - 2 pi t)
    # on the exact solution, so s_e carries its opposite
    th2 = np.sin(2.0 * x - 2.0 * np.pi * t)
    th4 = np.sin(4.0 * x - 4.0 * np.pi * t)
    cth2 = np.cos(2.0 * x - 2.0 * np.pi * t)
    s_rho = _SQPI / 4.0 * (1.0 - 4.0 * np.pi) * th2
    s_j = _SQPI / 16.0 * (3.0 + 4.0 * _SQPI - 4.0 * np.pi) * th2 - np.pi / 16.0 * th4
    s_e = (_SQPI / 128.0 * (7.0 + 8.0 * _SQPI - 12.0 * np.pi) * th2
           - np.pi / 64.0 * th4
           + _SQPI / 8.0 * (2.0 - (1.0 - 4.0 * np.pi) * cth2) * (-_SQPI / 4.0 * th2)
           + np.pi / 16.0 * th2)
    return s_rho, s_j, s_e


def _forced_exact(t: float, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.outer(2.0 - np.cos(2.0 * x - 2.0 * np.pi * t), _forced_vprofile(v))


def forced_exact_field(t: float, x: np.ndarray) -> np.ndarray:
    return -_SQPI / 4.0 * np.sin(2.0 * x - 2.0 * np.pi * t)


# --------------------------------------------------------------------------
# cosine-perturbed presets: Landau damping, bump on tail, two streams

def _cosine_init_1d(alpha: float, k: float, profile: Callable):
    """(1 + alpha cos(k x)) g(v) as two separable terms."""
    def init(sgrid: SpatialGrid, vgrid: VelocityGrid) -> LowRankMatrix:
        x = sgrid.nodes(0)
        g = profile(vgrid.v)
        ux = np.column_stack([np.ones_like(x), alpha * np.cos(k * x)])
        return LowRankMatrix(np.ones(2), ux, np.column_stack([g, g]))
    return init


def _cosine_init_2d(alpha: float, k: float, norm: float, profile: Callable):
    """(1 + alpha (cos(k x1) + cos(k x2))) / norm * g(v1) g(v2), rank one."""
    def init(sgrid: SpatialGrid, v1: VelocityGrid, v2: VelocityGrid) -> HtTensor:
        x1 = sgrid.nodes(0)
        x2 = sgrid.nodes(1)
        spatial = (1.0 + alpha * (np.cos(k * x1)[:, None] + np.cos(k * x2)[None, :]))
        spatial = spatial / norm
        return HtTensor(spatial.reshape(-1, 1), np.eye(1), np.ones((1, 1, 1)),
                        profile(v1.v)[:, None], profile(v2.v)[:, None],
                        sgrid.n)
    return init


def _maxwellian(v: np.ndarray) -> np.ndarray:
    return np.exp(-v**2 / 2.0) / np.sqrt(2.0 * np.pi)


def _bump_on_tail(n_p: float, n_b: float, u: float, v_t: float) -> Callable:
    return lambda v: n_p * np.exp(-v**2 / 2.0) + n_b * np.exp(-((v - u) ** 2) / (2.0 * v_t))


def _two_beams(v0: float) -> Callable:
    return lambda v: np.exp(-((v - v0) ** 2) / 2.0) + np.exp(-((v + v0) ** 2) / 2.0)


PRESETS: dict[str, Preset] = {
    "forced": Preset(
        name="forced", dim="1d1v",
        x_min=-np.pi, x_max=np.pi, v_max=4.0, beta=2.0, eps=1e-4,
        nx=128, nv=256, t_end=1.0,
        init=_forced_init,
        kinetic_forcing=_forced_forcing,
        macro_sources=_forced_macro_sources,
        exact_f=_forced_exact,
    ),
    "weak_landau_1d": Preset(
        name="weak_landau_1d", dim="1d1v",
        x_min=0.0, x_max=4.0 * np.pi, v_max=6.0, beta=2.0, eps=1e-5,
        nx=64, nv=129, t_end=20.0,
        init=_cosine_init_1d(alpha=0.01, k=0.5, profile=_maxwellian),
    ),
    "strong_landau_1d": Preset(
        name="strong_landau_1d", dim="1d1v",
        x_min=0.0, x_max=4.0 * np.pi, v_max=6.0, beta=2.0, eps=1e-3,
        nx=128, nv=257, t_end=20.0,
        init=_cosine_init_1d(alpha=0.5, k=0.5, profile=_maxwellian),
    ),
    "bump_on_tail": Preset(
        name="bump_on_tail", dim="1d1v",
        x_min=0.0, x_max=2.0 * np.pi / 0.3, v_max=10.0, beta=3.0, eps=1e-4,
        nx=128, nv=256, t_end=30.0,
        # conservative and macro reach rank 61 near t = 23.5, past the
        # default cap of 60
        rank_cap=80,
        init=_cosine_init_1d(alpha=0.04, k=0.3, profile=_bump_on_tail(
            n_p=0.9 / np.sqrt(2.0 * np.pi), n_b=0.2 / np.sqrt(2.0 * np.pi), u=4.5, v_t=0.5)),
    ),
    "weak_landau_2d2v": Preset(
        name="weak_landau_2d2v", dim="2d2v",
        x_min=0.0, x_max=4.0 * np.pi, v_max=6.0, beta=2.0, eps=1e-5,
        nx=16, nv=32, t_end=5.0,
        init=_cosine_init_2d(alpha=0.01, k=0.5, norm=2.0 * np.pi,
                                profile=lambda v: np.exp(-v**2 / 2.0)),
    ),
    "two_stream_2d2v": Preset(
        name="two_stream_2d2v", dim="2d2v",
        # beta = 2 <v^2> of the two unit-variance beams at +-2.4, so the weight
        # is the Gaussian of the profile's temperature
        x_min=0.0, x_max=2.0 * np.pi / 0.2, v_max=8.0, beta=13.5, eps=1e-5,
        nx=16, nv=32, t_end=5.0,
        init=_cosine_init_2d(alpha=0.001, k=0.2, norm=4.0 * 2.0 * np.pi,
                                profile=_two_beams(2.4)),
    ),
}


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"unknown preset {name!r}; available: {known}") from None
