"""Velocity moments and the moment-conserving decomposition for 1D1V.

Moments share the macroscopic state's layout: one stacked ``(2 + d, *n)``
array with rows rho, J_1 .. J_d, kappa, the kinetic-energy density in the
last row where the state holds the total energy e = kappa + sign |E|^2 / 2
(``poisson.ElectricField.energy_density``).  The distribution is split as
f = carrier + remainder, where the carrier is an exact three-term object built
from the weighted-orthogonal velocity basis {1, v, v^2 - c} and reproduces
the moments of f; ``MomentBasis`` is that basis for both formats (in 2D2V
each velocity leaf holds it), built once per velocity grid with the grid's
velocity tables of the moments and KFVS fluxes in both dimensions, which
``formats.Problem`` contracts with each format's one primitive
(``lowrank.fields``, ``htucker.pair_fields``), so no call rebuilds a velocity
column.  The remainder has zero moments and is the only part rank truncation
may touch; the pinned truncation that cuts it and adds one carrier back is
written once for both formats, as ``formats.Problem.pin``, over those moments
and ``lift_moments`` here.  In the coordinates of the norm weighted by 1/w
(f / sqrt(w)) the carrier is the orthogonal projection of f onto the columns
``MomentBasis.zero_frame``, in 2D2V onto the pair span of that frame's
F_1 F_1, F_v F_1, F_1 F_v and (F_kappa F_1 + F_1 F_kappa) / sqrt(2), so
neither pin forms a carrier to subtract: given the weight's roots and the
frame, each format's one truncation (``lowrank.truncate_sum``,
``htucker.ht_truncate_sum``) projects the stacked velocity factor off the
frame in 1D, the pair unfold off the pair span in 2D; ``moment_split`` keeps
the subtraction.
Moment quadrature uses the plain h_v inner product, while basis
orthogonality lives in the w-weighted product; the two must not be
conflated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import DomainError
from .grids import VelocityGrid
from .lowrank import LowRankMatrix, add, fields, recompress, scale

# rho, J1, J2, kappa from the pair functionals 1 1, v1 1, 1 v2, v1^2 1, 1 v2^2
_MOMENT_WEIGHTS = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                            [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.5],
                            [0.0, 0.0, 0.0, 0.5]])
# per axis k and sign, the pair functionals s 1, s^2 1, s o, s^3 1, s o^2 (s the
# sign-split velocity of axis k, o the other one) give that split flux's rows rho,
# J1, J2, e as the moment map gives rho, J1, J2, kappa; s^2 is the current along
# axis k and s o the other one, so the second axis swaps the two current columns
_FLUX_WEIGHTS = (np.kron(np.diag([1.0, 1.0, 0.0, 0.0]), _MOMENT_WEIGHTS)
                 + np.kron(np.diag([0.0, 0.0, 1.0, 1.0]), _MOMENT_WEIGHTS[:, [0, 2, 1, 3]]))


@dataclass(frozen=True)
class MomentBasis:
    """The velocity constants of one grid, read-only and built once per grid
    object (``build`` is cached on the grid's identity).

    The weighted-orthogonal basis {1, v, v^2 - c} with its norms and the
    carrier frame w(v) {1, v, v^2 - c}, an (nv, 3) array that both formats'
    carriers take their velocity factors from, and its columns divided by the
    basis norms ``norms`` = (||1||_w, ||v||_w, ||v^2 - c||_w) (``unit_frame``,
    each velocity leaf of the 2D carrier); the same frame in the
    coordinates of the norm weighted by 1/w, the orthonormal columns
    sqrt(w) {1, v, v^2 - c} / ||.|| (``zero_frame``) with the point roots
    ``sqrt_w`` = sqrt(w(v_j)) that map into them, from which both pins'
    zero-moment cuts project; the transport's sign-split speeds ``plus`` = v+ =
    max(v, 0) and ``minus`` = v- = min(v, 0); and the plain-quadrature tables
    (h times the monomials) of the moments and KFVS fluxes, keyed by d:

    moments[1]  (nv, 3)  [1, v, v^2/2], the 1D moments rho, J, kappa
    fluxes[1]   (nv, 6)  [v+, v+^2, v+^3/2, v-, v-^2, v-^3/2], the 1D split fluxes
    moments[2]  (leaf1, leaf2, weights): (nv, 5) leaves for this grid as the
                first velocity and as the second, [1, v, 1, v^2, 1] and
                [1, 1, v, 1, v^2], and the (5, 4) map from those pair
                functionals to rho, J1, J2, kappa
    fluxes[2]   (leaf1, leaf2, weights): (nv, 20) leaves of the 2D split-flux
                pair functionals and their (20, 16) map to the flux rows: per
                axis and sign, s = v+ or v- of that axis against o, the other
                velocity, the pairs (s, 1), (s^2, 1), (s, o), (s^3, 1),
                (s, o^2); the axis's own leaf holds [s, s^2, s, s^3, s] and
                the other [1, 1, o, 1, o^2]

    A 1D table is what ``lowrank.fields`` contracts, a 2D one the arguments
    of ``htucker.pair_fields`` after the blocks.
    """

    grid: VelocityGrid
    c: float
    norm1_sq: float   # ||1||_w^2
    norm2_sq: float   # ||v||_w^2
    norm3_sq: float   # ||v^2 - c||_w^2
    frame: np.ndarray
    norms: np.ndarray
    unit_frame: np.ndarray
    sqrt_w: np.ndarray
    zero_frame: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    moments: MappingProxyType
    fluxes: MappingProxyType

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
        sqrt_w = np.sqrt(grid.w_points)
        vectors = np.column_stack([one, v, v**2 - c])
        weighted = sqrt_w[:, None] * vectors
        frame = grid.w_points[:, None] * vectors
        norms = np.sqrt([n1, n2, n3])
        basis = cls(grid=grid, c=c, norm1_sq=n1, norm2_sq=n2, norm3_sq=n3,
                    frame=frame, norms=norms, unit_frame=frame / norms, plus=plus, minus=minus,
                    sqrt_w=sqrt_w, zero_frame=weighted / np.linalg.norm(weighted, axis=0),
                    moments=MappingProxyType({
                        1: h * np.column_stack([one, v, 0.5 * v**2]),
                        2: (first, second, _MOMENT_WEIGHTS)}),
                    fluxes=MappingProxyType({
                        1: np.hstack([h * np.column_stack([s, s**2, 0.5 * s**3])
                                      for s in (plus, minus)]),
                        2: (np.hstack([*own, second, second]),
                            np.hstack([second, second, *own]), _FLUX_WEIGHTS)}))
        for a in (basis.frame, basis.norms, basis.unit_frame, basis.sqrt_w, basis.zero_frame,
                  plus, minus, basis.moments[1], basis.fluxes[1], *basis.moments[2],
                  *basis.fluxes[2]):
            a.flags.writeable = False
        return basis

    def vectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        v = self.grid.v
        return np.ones_like(v), v, v**2 - self.c


def lift_moments(m: np.ndarray, basis: MomentBasis) -> LowRankMatrix:
    """Exact rank-3 carrier whose moments are m.

    Stored un-recompressed as exactly three terms so that conservation is
    enforced structurally even when terms degenerate.
    """
    rho, j, kappa = m
    ux = np.empty((rho.shape[0], 3))
    np.divide(rho, basis.norm1_sq, out=ux[:, 0])
    np.divide(j, basis.norm2_sq, out=ux[:, 1])
    np.divide(2.0 * kappa - basis.c * rho, basis.norm3_sq, out=ux[:, 2])
    return LowRankMatrix(np.ones(3), ux, basis.frame)


def moment_split(f: LowRankMatrix, basis: MomentBasis) -> tuple[LowRankMatrix, LowRankMatrix]:
    """Decompose f into the moment carrier and the zero-moment remainder."""
    carrier = lift_moments(fields(f, basis.moments[1]), basis)
    remainder = recompress(add(f, scale(carrier, -1.0)))
    return carrier, remainder

