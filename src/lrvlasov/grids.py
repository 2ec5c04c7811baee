"""Uniform phase-space grids, quadrature weights and velocity inner products.

Spatial grids are always periodic; there is no other kind.  For n points on
[x_min, x_max) the node x_max is the periodic image of x_min and is not
stored, so h = (x_max - x_min) / n and FFT-based field solves map one-to-one
onto nodes.  Velocity grids include both endpoints, v_0 = -v_max and
v_{n-1} = +v_max, so h = 2 v_max / (n - 1); nodes are constructed
symmetrically so that v_j == -v_{n-1-j} holds bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, GridSizeError

# five-point interface reconstruction needs this many cells on periodic axes
MIN_STENCIL_POINTS = 8


@dataclass(frozen=True)
class GaussianWeight:
    """Velocity weight function w(v) = exp(-v^2 / beta), beta > 0."""

    beta: float = 2.0

    def __post_init__(self):
        if self.beta <= 0:
            raise DomainError(f"weight parameter beta must be positive, got {self.beta}")

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return np.exp(-np.asarray(v) ** 2 / self.beta)


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic tensor-product spatial grid in 1 or 2 dimensions."""

    n: tuple[int, ...]
    x_min: tuple[float, ...]
    x_max: tuple[float, ...]

    def __post_init__(self):
        if len(self.n) not in (1, 2):
            raise DimensionError("only 1D and 2D spatial grids are supported")
        for nd in self.n:
            if nd < MIN_STENCIL_POINTS:
                raise GridSizeError(
                    f"spatial grid needs at least {MIN_STENCIL_POINTS} points per "
                    f"dimension for the interface stencils, got {nd}"
                )
        for a, b in zip(self.x_min, self.x_max):
            if not b > a:
                raise DomainError(f"spatial domain needs x_max > x_min, got [{a}, {b})")

    @property
    def ndim(self) -> int:
        return len(self.n)

    @property
    def h(self) -> tuple[float, ...]:
        return tuple((b - a) / nd for a, b, nd in zip(self.x_min, self.x_max, self.n))

    @property
    def cell_volume(self) -> float:
        vol = 1.0
        for hd in self.h:
            vol *= hd
        return vol

    def nodes(self, axis: int = 0) -> np.ndarray:
        return self.x_min[axis] + self.h[axis] * np.arange(self.n[axis])


def spatial_grid_1d(n: int, x_min: float, x_max: float) -> SpatialGrid:
    return SpatialGrid(n=(n,), x_min=(x_min,), x_max=(x_max,))


def spatial_grid_2d(n1: int, n2: int, x_min: float, x_max: float) -> SpatialGrid:
    """Square periodic grid [x_min, x_max)^2, possibly anisotropic in count."""
    return SpatialGrid(n=(n1, n2), x_min=(x_min, x_min), x_max=(x_max, x_max))


@dataclass(frozen=True, eq=False)
class VelocityGrid:
    """Velocity grid with plain and weighted quadrature vectors.

    ``w_points`` holds the point values w(v_j) used to scale distributions,
    while ``w`` holds the weighted-quadrature vector w(v_j) * h entering the
    weighted inner product.  Both are kept because scaling and quadrature use
    different objects and must not be conflated.  A grid compares and hashes
    by identity, so the tables built from it (``projection.MomentBasis``) are
    cached per grid object.
    """

    n: int
    v_max: float
    h: float
    v: np.ndarray
    w_points: np.ndarray
    w: np.ndarray
    weight: GaussianWeight


def make_velocity_grid(n: int, v_max: float, weight: GaussianWeight | None = None) -> VelocityGrid:
    """Build a symmetric velocity grid spanning [-v_max, v_max] inclusive,
    with at least the points the five-point stencils need."""
    if n < MIN_STENCIL_POINTS:
        raise GridSizeError(
            f"velocity grid needs at least {MIN_STENCIL_POINTS} points, got {n}")
    if v_max <= 0:
        raise DomainError(f"v_max must be positive, got {v_max}")
    weight = weight or GaussianWeight()
    h = 2.0 * v_max / (n - 1)
    # (j - c) and -(j - c) are exact negatives, so v_j == -v_{n-1-j} bit-exactly
    v = h * (np.arange(n) - (n - 1) / 2.0)
    w_points = weight(v)
    if np.any(w_points <= 0):
        raise DomainError("weight function must be strictly positive on the grid")
    return VelocityGrid(n=n, v_max=v_max, h=h, v=v, w_points=w_points,
                        w=w_points * h, weight=weight)


def plain_inner(f: np.ndarray, g: np.ndarray, grid: VelocityGrid) -> float:
    """Rectangle-rule inner product h * sum_j f_j g_j."""
    f = np.asarray(f)
    g = np.asarray(g)
    if f.shape != (grid.n,) or g.shape != (grid.n,):
        raise DimensionError(f"expected vectors of length {grid.n}")
    return grid.h * float(np.dot(f, g))


def weighted_inner(f: np.ndarray, g: np.ndarray, grid: VelocityGrid) -> float:
    """Weighted inner product sum_j f_j g_j w_j with w_j = w(v_j) h."""
    f = np.asarray(f)
    g = np.asarray(g)
    if f.shape != (grid.n,) or g.shape != (grid.n,):
        raise DimensionError(f"expected vectors of length {grid.n}")
    return float(np.dot(f * g, grid.w))
