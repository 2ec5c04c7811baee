"""Velocity moments and the moment-conserving decomposition for 1D1V.

Moments share the macroscopic state's layout: one stacked ``(2 + d, *n)``
array with rows rho, J_1 .. J_d, kappa (here d = 1), the kinetic-energy
density in the last row where the state holds the total energy
e = kappa + sign |E|^2 / 2 (``poisson.ElectricField.energy_density``).  The
distribution is split as f = carrier + remainder, where the carrier is an
exact three-term object built from the weighted-orthogonal velocity basis
{1, v, v^2 - c} and reproduces the moments of f; ``MomentBasis`` is that
basis for both formats (in 2D2V each velocity leaf holds it), built once per
velocity grid with the grid's quadrature tables for the moments and KFVS
fluxes of both formats, so no call rebuilds a velocity column.  The remainder
has zero moments and is the only part rank truncation may touch; the pinned
truncation that cuts it and adds one carrier back is written once for both
formats, as ``formats.Problem.pin``, over ``moments`` and ``lift_moments``
here.  Moment quadrature uses the plain h_v inner product, while basis
orthogonality lives in the w-weighted product; the two must not be
conflated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .grids import VelocityGrid
from .lowrank import LowRankMatrix, add, recompress, scale


@dataclass(frozen=True)
class MomentBasis:
    """The velocity constants of one grid, read-only and built once per grid
    object (``build`` is cached on the grid's identity).

    The weighted-orthogonal basis {1, v, v^2 - c} with its norms and the
    carrier frame w(v) {1, v, v^2 - c}, an (nv, 3) array that both formats'
    carriers take their velocity factors from; and the plain-quadrature
    tables (h times the monomials) of the moments and KFVS fluxes:

    moment_table  (nv, 3)  [1, v, v^2/2], the 1D moments rho, J, kappa
    flux_table    (nv, 6)  [v+, v+^2, v+^3/2, v-, v-^2, v-^3/2], the 1D
                           split fluxes, v+ = max(v, 0) and v- = min(v, 0)
    pair_moments  two (nv, 5) leaves, this grid as the first velocity and
                  as the second: [1, v, 1, v^2, 1] and [1, 1, v, 1, v^2],
                  the 2D moment pair functionals
    pair_fluxes   two (nv, 20) leaves of the 2D split-flux pair functionals
                  (``macro.kfvs_fluxes_2d``): per axis and sign, s = v+ or
                  v- of that axis against o, the other velocity, the pairs
                  (s, 1), (s^2, 1), (s, o), (s^3, 1), (s, o^2); the axis's own
                  leaf holds [s, s^2, s, s^3, s] and the other [1, 1, o, 1, o^2]
    """

    grid: VelocityGrid
    c: float
    norm1_sq: float   # ||1||_w^2
    norm2_sq: float   # ||v||_w^2
    norm3_sq: float   # ||v^2 - c||_w^2
    frame: np.ndarray
    moment_table: np.ndarray
    flux_table: np.ndarray
    pair_moments: tuple[np.ndarray, np.ndarray]
    pair_fluxes: tuple[np.ndarray, np.ndarray]

    @classmethod
    @functools.lru_cache(maxsize=8)  # the latest grids keep theirs
    def build(cls, grid: VelocityGrid) -> "MomentBasis":
        w, v, h = grid.w, grid.v, grid.h
        n1 = float(np.sum(w))
        c = float(np.dot(v**2, w)) / n1
        if c <= 0:
            raise DomainError("nonpositive basis constant; weight or grid invalid")
        n2 = float(np.dot(v**2, w))
        n3 = float(np.dot((v**2 - c) ** 2, w))
        one = np.ones_like(v)
        plus, minus = np.maximum(v, 0.0), np.minimum(v, 0.0)
        first = h * np.column_stack([one, v, one, v**2, one])
        second = h * np.column_stack([one, one, v, one, v**2])
        own = [h * np.column_stack([s, s**2, s, s**3, s]) for s in (plus, minus)]
        basis = cls(grid=grid, c=c, norm1_sq=n1, norm2_sq=n2, norm3_sq=n3,
                    frame=grid.w_points[:, None] * np.column_stack([one, v, v**2 - c]),
                    moment_table=h * np.column_stack([one, v, 0.5 * v**2]),
                    flux_table=np.hstack([h * np.column_stack([s, s**2, 0.5 * s**3])
                                          for s in (plus, minus)]),
                    pair_moments=(first, second),
                    pair_fluxes=(np.hstack([*own, second, second]),
                                 np.hstack([second, second, *own])))
        for a in (basis.frame, basis.moment_table, basis.flux_table, *basis.pair_moments,
                  *basis.pair_fluxes):
            a.flags.writeable = False
        return basis

    def vectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        v = self.grid.v
        return np.ones_like(v), v, v**2 - self.c


def moments(f: LowRankMatrix, grid: VelocityGrid) -> np.ndarray:
    """(rho, J, kappa) stacked, (3, nx), by factor-wise quadrature: one
    chain through the grid's ``moment_table``."""
    if f.Uv.shape[0] != grid.n:
        raise DimensionError("velocity factor length does not match grid")
    weights = (f.Uv.T @ MomentBasis.build(grid).moment_table) * f.C[:, None]   # (r, 3)
    return weights.T @ f.Ux.T


def lift_moments(m: np.ndarray, basis: MomentBasis) -> LowRankMatrix:
    """Exact rank-3 carrier whose moments are m.

    Stored un-recompressed as exactly three terms so that conservation is
    enforced structurally even when terms degenerate.
    """
    rho, j, kappa = m
    ux = np.column_stack([
        rho / basis.norm1_sq,
        j / basis.norm2_sq,
        (2.0 * kappa - basis.c * rho) / basis.norm3_sq,
    ])
    return LowRankMatrix(np.ones(3), ux, basis.frame)


def moment_split(f: LowRankMatrix, basis: MomentBasis) -> tuple[LowRankMatrix, LowRankMatrix]:
    """Decompose f into the moment carrier and the zero-moment remainder."""
    carrier = lift_moments(moments(f, basis.grid), basis)
    remainder = recompress(add(f, scale(carrier, -1.0)))
    return carrier, remainder

