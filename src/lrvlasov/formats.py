"""Per-format problem classes: where the dimension is decided.

``FORMATS`` picks the subclass of ``Problem`` for the configured dimension; it
supplies what the stepper needs, with one meaning in both formats: moments,
scaling, transport blocks, KFVS fluxes, plain and moment-pinned truncation of
a list of blocks, and ranks.  Both formats take their moments in the
macroscopic state's ``(2 + d, *n)`` layout (rows rho, J_1 .. J_d, kappa), a
pin's target is given in it, and both build their carriers from one
``projection.MomentBasis`` of the shared velocity grid.  Below it only
``macro`` keeps per-format code, one KFVS flux contraction each; the
macroscopic rate and state and the field solve are written once for any
dimension.  Layer functions are looked up on their modules at call time, so
wrappers installed there (tracing, test doubles) see each call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import htucker as ht
from . import lowrank, macro, projection, upwind
from .config import SolverConfig
from .grids import (GaussianWeight, SpatialGrid, VelocityGrid, make_velocity_grid,
                    spatial_grid_1d, spatial_grid_2d)
from .presets import Preset


@dataclass
class Problem:
    """Resolved grids, bases and preset hooks for one run."""

    cfg: SolverConfig
    preset: Preset
    sgrid: SpatialGrid
    vgrids: tuple[VelocityGrid, ...]                  # one per velocity dimension
    basis: projection.MomentBasis                     # one for every velocity dimension

    def rate(self, u: np.ndarray, f, field, t: float) -> np.ndarray:
        """-div F + S for the stacked macroscopic state, fluxes taken from f."""
        return macro.rate(u, self.fluxes(f), field, self.sgrid,
                          self.preset.macro_sources, t)


@dataclass
class Problem1D(Problem):
    """1D1V: the two-factor ``LowRankMatrix``."""

    @classmethod
    def build(cls, cfg: SolverConfig, preset: Preset) -> "Problem1D":
        vgrid = make_velocity_grid(cfg.nv, cfg.v_max, GaussianWeight(cfg.beta))
        return cls(cfg, preset, spatial_grid_1d(cfg.nx, cfg.x_min, cfg.x_max), (vgrid,),
                   projection.MomentBasis.build(vgrid))

    @property
    def vgrid(self) -> VelocityGrid:
        return self.vgrids[0]

    def initial(self):
        return self.preset.init_1d(self.sgrid, self.vgrid)

    def moments(self, f):
        return projection.moments(f, self.vgrid)

    def scale(self, f, a: float):
        return lowrank.scale(f, a)

    def transport(self, f, field, t: float) -> list:
        """-(v d/dx + E d/dv) f as four blocks, plus any manufactured forcing."""
        (hx,) = self.sgrid.h
        v, hv = self.vgrid.v, self.vgrid.h
        (e,) = field.E
        diff, block = upwind.upwind_derivative, lowrank.LowRankMatrix
        blocks = [
            block(-f.C, diff(f.Ux, "plus", hx, "periodic", axis=0),
                  np.maximum(v, 0.0)[:, None] * f.Uv),
            block(-f.C, diff(f.Ux, "minus", hx, "periodic", axis=0),
                  np.minimum(v, 0.0)[:, None] * f.Uv),
            block(-f.C, np.maximum(e, 0.0)[:, None] * f.Ux,
                  diff(f.Uv, "plus", hv, "zero", axis=0)),
            block(-f.C, np.minimum(e, 0.0)[:, None] * f.Ux,
                  diff(f.Uv, "minus", hv, "zero", axis=0)),
        ]
        if self.preset.kinetic_forcing is not None:
            blocks.append(self.preset.kinetic_forcing(t, self.sgrid, self.vgrid))
        return blocks

    def fluxes(self, f) -> list:
        return macro.kfvs_fluxes_1d(f, self.vgrid)

    def truncate(self, blocks):
        return lowrank.truncate_sum(blocks, self.cfg.eps)

    def pin(self, blocks, target=None):
        return projection.truncate_sum_to_moments(blocks, target, self.basis, self.cfg.eps)

    def ranks(self, f) -> tuple[int, ...]:
        return (f.rank,)


@dataclass
class Problem2D(Problem):
    """2D2V: the hierarchical ``HtTensor``."""

    @classmethod
    def build(cls, cfg: SolverConfig, preset: Preset) -> "Problem2D":
        v = make_velocity_grid(cfg.nv, cfg.v_max, GaussianWeight(cfg.beta))
        return cls(cfg, preset, spatial_grid_2d(cfg.nx, cfg.nx2, cfg.x_min, cfg.x_max),
                   (v, v), projection.MomentBasis.build(v))

    def initial(self):
        return self.preset.init_2d(self.sgrid, self.vgrids)

    def moments(self, f):
        return ht.ht_moments(f, self.vgrids)

    def scale(self, f, a: float):
        return ht.ht_scale(f, a)

    def transport(self, f, field, t: float) -> list:
        return ht.ht_transport_blocks(f, field, self.sgrid.h, self.vgrids)

    def fluxes(self, f) -> list:
        return macro.kfvs_fluxes_2d(f, self.vgrids)

    def truncate(self, blocks):
        return ht.ht_truncate_sum(blocks, self.cfg.eps)

    def pin(self, blocks, target=None):
        return ht.ht_truncate_to_moments(blocks, target, self.basis, self.cfg.eps)

    def ranks(self, f) -> tuple[int, ...]:
        return f.ranks


FORMATS = {"1d1v": Problem1D, "2d2v": Problem2D}
