"""Velocity moments and the moment-conserving decomposition for 1D1V.

Moments share the macroscopic state's layout: one stacked ``(2 + d, *n)``
array with rows rho, J_1 .. J_d, kappa (here d = 1), the kinetic-energy
density in the last row where the state holds the total energy.  The
distribution is split as f = carrier + remainder, where the carrier is an
exact three-term object built from the weighted-orthogonal velocity basis
{1, v, v^2 - c} and reproduces the moments of f; ``MomentBasis`` is that
basis for both formats (in 2D2V each velocity leaf holds it).  The remainder
has zero moments and is the only part rank truncation may touch.  A pinned
truncation cuts the remainder once and adds one carrier, lifted from the
target moments minus whatever the cut leaked into the remainder, so its rank
is the remainder's plus three.  Moment quadrature uses the plain h_v inner
product, while basis orthogonality lives in the w-weighted product; the two
must not be conflated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .grids import VelocityGrid
from .lowrank import LowRankMatrix, add, recompress, scale, truncate_sum


@dataclass(frozen=True)
class MomentBasis:
    """Weighted-orthogonal velocity basis {1, v, v^2 - c}, its norms and the
    carrier frame w(v) {1, v, v^2 - c}, a read-only (nv, 3) array that both
    formats' carriers take their velocity factors from."""

    grid: VelocityGrid
    c: float
    norm1_sq: float   # ||1||_w^2
    norm2_sq: float   # ||v||_w^2
    norm3_sq: float   # ||v^2 - c||_w^2
    frame: np.ndarray

    @classmethod
    def build(cls, grid: VelocityGrid) -> "MomentBasis":
        w, v = grid.w, grid.v
        n1 = float(np.sum(w))
        c = float(np.dot(v**2, w)) / n1
        if c <= 0:
            raise DomainError("nonpositive basis constant; weight or grid invalid")
        n2 = float(np.dot(v**2, w))
        n3 = float(np.dot((v**2 - c) ** 2, w))
        frame = grid.w_points[:, None] * np.column_stack([np.ones_like(v), v, v**2 - c])
        frame.flags.writeable = False
        return cls(grid=grid, c=c, norm1_sq=n1, norm2_sq=n2, norm3_sq=n3, frame=frame)

    def vectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        v = self.grid.v
        return np.ones_like(v), v, v**2 - self.c


def moments(f: LowRankMatrix, grid: VelocityGrid) -> np.ndarray:
    """(rho, J, kappa) stacked, (3, nx), by factor-wise quadrature."""
    if f.Uv.shape[0] != grid.n:
        raise DimensionError("velocity factor length does not match grid")
    h, v = grid.h, grid.v
    m0 = h * f.Uv.sum(axis=0)                  # <Uv_l, 1>
    m1 = h * (f.Uv.T @ v)                      # <Uv_l, v>
    m2 = h * (f.Uv.T @ (0.5 * v**2))           # <Uv_l, v^2/2>
    return np.stack([f.Ux @ (f.C * m0), f.Ux @ (f.C * m1), f.Ux @ (f.C * m2)])


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


def truncate_conservative(f: LowRankMatrix, basis: MomentBasis, eps: float) -> LowRankMatrix:
    """Truncate the remainder only; the moments of f are preserved exactly."""
    return truncate_sum_to_moments([f], None, basis, eps)


def truncate_to_moments(f: LowRankMatrix, m_target: np.ndarray | None, basis: MomentBasis,
                        eps: float) -> LowRankMatrix:
    """Like truncate_conservative but pins the moments to external values."""
    return truncate_sum_to_moments([f], m_target, basis, eps)


def truncate_sum_to_moments(terms, m_target: np.ndarray | None, basis: MomentBasis,
                            eps: float) -> LowRankMatrix:
    """Pinned truncation of sum(terms): moments equal ``m_target``.

    The remainder, the terms minus the sum's own moment carrier, is
    weighted-truncated once; the one carrier added to it is lifted from
    ``m_target`` minus the remainder's own (leaked) moments, so the result's
    moments equal ``m_target``.  Without a target the moments of the sum,
    taken once for the remainder, are kept.
    """
    terms = list(terms)
    own = moments(add(*terms), basis.grid)
    remainder = truncate_sum([*terms, scale(lift_moments(own, basis), -1.0)], eps,
                             basis.grid.w_points)
    leak = moments(remainder, basis.grid)
    return add(lift_moments((own if m_target is None else m_target) - leak, basis), remainder)
