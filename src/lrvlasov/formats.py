"""Per-format problem classes: where the dimension is decided.

``FORMATS`` picks the subclass of ``Problem`` for the preset's dimension
(``SolverConfig.dim``); it supplies what the stepper needs, with one meaning
in both formats: moments, scaling, transport blocks, KFVS fluxes, plain and
moment-pinned truncation of a list of blocks, and ranks.  What does not touch
the factors is written once on ``Problem``: ``build`` makes ``dims`` spatial
axes and ``dims`` velocity axes sharing one grid, ``initial`` calls the
preset's one ``init(sgrid, *vgrids)`` hook, the transport
-(v . grad_x + E . grad_v) f is ``Problem.transport``, the moments and KFVS
fluxes are ``Problem.moments`` and ``Problem.fluxes``, and the LoMaC moment
pin is ``Problem.pin``, for any dimension.  Each format keeps only what
reads or writes its factors: ``factors`` and ``block``, the transport's
primitives, ``fields``, its one contraction of a block list with a velocity
table (``lowrank.fields``, ``htucker.pair_fields``), and ``scale``, ``add``,
``lift``, ``truncate`` and ``ranks``; ``moments``, ``fields``, ``truncate``
and ``pin`` take a block list.  ``truncate`` is the format's one truncation
(``lowrank.truncate_sum``, ``htucker.ht_truncate_sum``): plain, or, given
the weight's roots and the carrier frame of ``MomentBasis``, the pin's cut,
the part of the sum orthogonal to the carriers in the 1/w-weighted
coordinates, cut in that norm.  That cut takes no moments in either format:
1D1V projects the stacked velocity factor off the carrier frame, 2D2V the
pair unfold off the carriers' moment span in pair coordinates.  Both formats
take their moments in the macroscopic state's ``(2 + d, *n)`` layout (rows
rho, J_1 .. J_d, kappa, where the state holds e = kappa + sign |E|^2 / 2),
``lift`` makes the exact carrier of moments in it, and both build their
carriers from one ``projection.MomentBasis`` of the shared velocity grid,
which also holds the velocity tables of the moments and fluxes, built once
per grid.  Layer functions are looked up on their modules at call time, so
wrappers installed there (tracing, test doubles) see each call.
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

    def moments(self, blocks) -> np.ndarray:
        """The moments of sum(blocks), ``(2 + d, *n)``: rho, J_1 .. J_d, kappa."""
        return self.fields(blocks, self.basis.moments[self.dims])

    def fluxes(self, f) -> np.ndarray:
        """The KFVS split fluxes of f, ``(d, 2, 2 + d, *n)``: per axis, (plus, minus)."""
        d = self.dims
        return self.fields([f], self.basis.fluxes[d]).reshape(d, 2, 2 + d, *self.sgrid.n)

    def rate(self, u: np.ndarray, f, field, t: float) -> np.ndarray:
        """-div F + S for the stacked macroscopic state, fluxes taken from f."""
        return macro.rate(u, self.fluxes(f), field, self.sgrid,
                          self.preset.macro_sources, t)

    def transport(self, f, field, t: float, c: float = 1.0) -> list:
        """c times -(v . grad_x + E . grad_v) f as blocks, plus c times any
        manufactured forcing.

        Each axis gives two blocks split on the sign of its speed, the
        one-sided derivative on one factor and the sign-split multiplier on
        the other: the spatial axes first (speed v_d, split on ``basis``),
        then the velocity axes (speed E_d); one stencil call gives both.
        Every block shares f scaled once by -c, which is c times -f bit for
        bit, since negation is exact.
        """
        ux, leaves = self.factors(f)
        g = self.scale(f, -c)
        b, hv = self.basis, self.vgrid.h
        blocks = []
        for axis, (hx, leaf) in enumerate(zip(self.sgrid.h, leaves)):
            plus, minus = upwind.derivatives(ux, hx, "periodic", axis=axis)
            blocks += (self.block(g, plus, axis, b.plus[:, None] * leaf),
                       self.block(g, minus, axis, b.minus[:, None] * leaf))
        for axis, (e, leaf) in enumerate(zip(field.E, leaves)):
            plus, minus = upwind.derivatives(leaf, hv, "zero", axis=0)
            blocks += (self.block(g, ux * np.maximum(e, 0.0)[..., None], axis, plus),
                       self.block(g, ux * np.minimum(e, 0.0)[..., None], axis, minus))
        if self.preset.kinetic_forcing is not None:
            blocks.append(self.scale(self.preset.kinetic_forcing(t, self.sgrid, *self.vgrids), c))
        return blocks

    def pin(self, blocks, target=None):
        """Truncation of sum(blocks) with its moments pinned to ``target`` (the
        sum's own if None): the format's ``truncate`` of the blocks' part off
        the carriers, cut in the 1/w-weighted norm, which takes no moments,
        then one carrier, lifted from the target minus the cut's leak, added
        back."""
        rem = self.truncate(blocks, self.basis.sqrt_w, self.basis.zero_frame)
        if target is None:
            target = self.moments(blocks)
        return self.add(self.lift(target - self.moments([rem])), rem)


@dataclass
class Problem1D(Problem):
    """1D1V: the two-factor ``LowRankMatrix``."""

    dims = 1

    def fields(self, blocks, table):
        f = blocks[0] if len(blocks) == 1 else lowrank.add(*blocks)
        return lowrank.fields(f, table)

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
        """f with its spatial factor and the leaf of velocity ``axis`` replaced."""
        return lowrank.LowRankMatrix(f.C, ux, leaf)

    def truncate(self, blocks, sqrt_w=None, frame=None):
        return lowrank.truncate_sum(blocks, self.cfg.eps, sqrt_w, frame)

    def ranks(self, f) -> tuple[int, ...]:
        return (f.rank,)


@dataclass
class Problem2D(Problem):
    """2D2V: the hierarchical ``HtTensor``."""

    dims = 2

    def fields(self, blocks, table):
        return ht.pair_fields(blocks, *table)

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
        return ht.HtTensor(ux.reshape(f.Ux.shape[0], -1), f.B, f.Bvv, uv1, uv2, f.nx)

    def truncate(self, blocks, sqrt_w=None, frame=None):
        return ht.ht_truncate_sum(blocks, self.cfg.eps, sqrt_w, frame)

    def ranks(self, f) -> tuple[int, ...]:
        return f.ranks


FORMATS = {"1d1v": Problem1D, "2d2v": Problem2D}
