"""Per-format problem classes: where the dimension is decided.

``FORMATS`` picks the subclass of ``Problem`` for the preset's dimension
(``SolverConfig.dim``); it supplies what the stepper needs, with one meaning
in both formats: moments, scaling, transport blocks, KFVS fluxes, plain and
moment-pinned truncation of a list of blocks, and ranks.  What does not touch
the factors is written once on ``Problem``: ``build`` makes ``dims`` spatial
axes and ``dims`` velocity axes sharing one grid, ``initial`` calls the
preset's one ``init(sgrid, *vgrids)`` hook, the transport
-(v . grad_x + E . grad_v) f is ``Problem.transport`` and the LoMaC moment
pin is ``Problem.pin``, for any dimension.  Each format keeps only what
reads or writes its factors: ``factors`` and ``block``, the transport's
primitives, and ``scale``, ``add``, ``moments``, ``lift``, ``fluxes``,
``truncate`` and ``ranks``; ``moments``, ``truncate`` and ``pin`` take a
block list.  Both formats take their moments in the macroscopic state's
``(2 + d, *n)`` layout (rows rho, J_1 .. J_d, kappa, where the state holds
e = kappa + sign |E|^2 / 2), ``lift`` makes the exact carrier of moments in
it, and both build their carriers from one ``projection.MomentBasis`` of the
shared velocity grid, which also holds the velocity tables that every moment
and flux contraction reads, built once per grid.  Below it only ``macro``
keeps per-format code, one KFVS flux contraction each.  Layer functions are
looked up on their modules at call time, so wrappers installed there
(tracing, test doubles) see each call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import htucker as ht
from . import lowrank, macro, projection, upwind
from .config import SolverConfig
from .grids import GaussianWeight, SpatialGrid, VelocityGrid, make_velocity_grid
from .presets import Preset


@dataclass
class Problem:
    """Resolved grids, bases and preset hooks for one run."""

    dims: ClassVar[int]                               # spatial (= velocity) dimensions

    cfg: SolverConfig
    preset: Preset
    sgrid: SpatialGrid
    vgrids: tuple[VelocityGrid, ...]                  # one per velocity dimension
    basis: projection.MomentBasis                     # one for every velocity dimension

    @classmethod
    def build(cls, cfg: SolverConfig, preset: Preset) -> "Problem":
        """The grids of ``cfg`` in ``dims`` dimensions; every velocity
        dimension shares one grid and so one moment basis."""
        d = cls.dims
        v = make_velocity_grid(cfg.nv, cfg.v_max, GaussianWeight(cfg.beta))
        sgrid = SpatialGrid((cfg.nx, cfg.nx2)[:d], (cfg.x_min,) * d, (cfg.x_max,) * d)
        return cls(cfg, preset, sgrid, (v,) * d, projection.MomentBasis.build(v))

    @property
    def vgrid(self) -> VelocityGrid:
        """The velocity grid that every velocity dimension shares."""
        return self.vgrids[0]

    def initial(self):
        return self.preset.init(self.sgrid, *self.vgrids)

    def rate(self, u: np.ndarray, f, field, t: float) -> np.ndarray:
        """-div F + S for the stacked macroscopic state, fluxes taken from f."""
        return macro.rate(u, self.fluxes(f), field, self.sgrid,
                          self.preset.macro_sources, t)

    def transport(self, f, field, t: float) -> list:
        """-(v . grad_x + E . grad_v) f as blocks, plus any manufactured forcing.

        Each axis gives two blocks split on the sign of its speed, the
        one-sided derivative on one factor and the sign-split multiplier on
        the other: the spatial axes first (speed v_d), then the velocity
        axes (speed E_d).
        """
        ux, leaves = self.factors(f)
        blocks = []
        for axis, (hx, leaf, g) in enumerate(zip(self.sgrid.h, leaves, self.vgrids)):
            for bias, v in (("plus", np.maximum(g.v, 0.0)), ("minus", np.minimum(g.v, 0.0))):
                du = upwind.upwind_derivative(ux, bias, hx, "periodic", axis=axis)
                blocks.append(self.block(f, du, axis, v[:, None] * leaf))
        for axis, (e, leaf, g) in enumerate(zip(field.E, leaves, self.vgrids)):
            for bias, ep in (("plus", np.maximum(e, 0.0)), ("minus", np.minimum(e, 0.0))):
                dv = upwind.upwind_derivative(leaf, bias, g.h, "zero", axis=0)
                blocks.append(self.block(f, ux * ep[..., None], axis, dv))
        if self.preset.kinetic_forcing is not None:
            blocks.append(self.preset.kinetic_forcing(t, self.sgrid, *self.vgrids))
        return blocks

    def pin(self, blocks, target=None):
        """Truncation of sum(blocks) with its moments pinned to ``target`` (the
        sum's own if None): the zero-moment remainder, the blocks minus their
        own carrier, is cut once in the norm weighted by 1/w, and one carrier,
        lifted from the target minus the cut's leak, is added back."""
        own = self.moments(blocks)
        rem = self.truncate([*blocks, self.scale(self.lift(own), -1.0)], self.vgrid.w_points)
        leak = self.moments([rem])
        return self.add(self.lift((own if target is None else target) - leak), rem)


@dataclass
class Problem1D(Problem):
    """1D1V: the two-factor ``LowRankMatrix``."""

    dims = 1

    def moments(self, blocks):
        return projection.moments(lowrank.add(*blocks), self.vgrid)

    def lift(self, m):
        return projection.lift_moments(m, self.basis)

    def scale(self, f, a: float):
        return lowrank.scale(f, a)

    def add(self, *terms):
        return lowrank.add(*terms)

    def factors(self, f):
        """The spatial factor on the grid, (*n, r), and the velocity leaves."""
        return f.Ux, (f.Uv,)

    def block(self, f, ux, axis: int, leaf):
        """-f with its spatial factor and the leaf of velocity ``axis`` replaced."""
        return lowrank.LowRankMatrix(-f.C, ux, leaf)

    def fluxes(self, f) -> list:
        return macro.kfvs_fluxes_1d(f, self.vgrid)

    def truncate(self, blocks, w_points=None):
        return lowrank.truncate_sum(blocks, self.cfg.eps, w_points)

    def ranks(self, f) -> tuple[int, ...]:
        return (f.rank,)


@dataclass
class Problem2D(Problem):
    """2D2V: the hierarchical ``HtTensor``."""

    dims = 2

    def moments(self, blocks):
        return ht.ht_moments(blocks, self.vgrids)

    def lift(self, m):
        return ht.ht_lift_moments(m, self.basis)

    def scale(self, f, a: float):
        return ht.ht_scale(f, a)

    def add(self, *terms):
        return ht.ht_add(*terms)

    def factors(self, f):
        return f.Ux.reshape(*f.nx, -1), (f.Uv1, f.Uv2)

    def block(self, f, ux, axis: int, leaf):
        # every block keeps f's Bvv object, so _Runs contracts them together
        uv1, uv2 = (leaf, f.Uv2) if axis == 0 else (f.Uv1, leaf)
        return ht.HtTensor(ux.reshape(f.Ux.shape[0], -1), -f.B, f.Bvv, uv1, uv2, f.nx)

    def fluxes(self, f) -> list:
        return macro.kfvs_fluxes_2d(f, self.vgrids)

    def truncate(self, blocks, w_points=None):
        return ht.ht_truncate_sum(blocks, self.cfg.eps, w_points)

    def ranks(self, f) -> tuple[int, ...]:
        return f.ranks


FORMATS = {"1d1v": Problem1D, "2d2v": Problem2D}
