"""Spectral field solves and discrete field energy on the periodic spatial grids.

The potential solves -lap(phi) = rho - mean(rho) in Fourier space, with one
transform over all grid axes for any dimension and the zero mode gauged to
zero; each transform is ``np.fft.fft`` or ``ifft`` run axis by axis in the
order of ``fftn``, the last axis first, which gives ``fftn``'s bits without
its per-call setup, and the field's components share one inverse transform.
The field is E = -sign * grad(phi), differentiated spectrally so that
single-mode densities produce node-exact fields, and
div E = sign * (rho - mean(rho)).  The field carries its sign, and so its
share sign * |E|^2 / 2 of the conserved energy density.  The squared
wavenumbers and the stacked derivative factors are built once per grid and
shared, read-only, by every solve on it.

On a grid whose field operator, the real (ndim N x N) matrix of that solve,
has at most ``_OPERATOR_WORDS`` words (1D grids of up to 256 points), the
solve is instead one product of the operator, built once per grid from the
transform solve and shared read-only, with the density less a constant; it
matches the transform path to round-off (a few eps_mach of max|E|), not bit
for bit.  The 2D presets' grids, 16 x 16 and up, take the transforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError
from .grids import SpatialGrid

# the largest field operator applied as a product (512 KiB): a solve on 64 to
# 256 points then costs 9-19 us against 21-27 us for the transforms (1 BLAS
# thread), and every 2D preset grid, 16 x 16 (2^17 words) and up, keeps the
# transform path and its bits
_OPERATOR_WORDS = 2 ** 16


@dataclass
class ElectricField:
    """Field values on spatial nodes, one array of E per dimension, and its sign."""

    E: tuple[np.ndarray, ...]
    sign: float = 1.0

    def magnitude_squared(self) -> np.ndarray:
        out = self.E[0] ** 2
        for comp in self.E[1:]:
            out = out + comp**2
        return out

    def energy_density(self) -> np.ndarray:
        """The field's share of the energy density, sign * |E|^2 / 2."""
        return 0.5 * self.sign * self.magnitude_squared()


def _wavenumbers(n: int, h: float) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(n, d=h)


def _derivative_factor(n: int, h: float) -> np.ndarray:
    # zero the Nyquist mode of the derivative (standard for even n; smooth
    # fields have negligible content there)
    k = _wavenumbers(n, h)
    ik = 1j * k
    if n % 2 == 0:
        ik[n // 2] = 0.0
    return ik


def _per_axis(grid: SpatialGrid, factor) -> list[np.ndarray]:
    """``factor(n, h)`` of every grid axis, shaped to broadcast along that axis."""
    return [factor(n, h).reshape([-1 if b == a else 1 for b in range(grid.ndim)])
            for a, (n, h) in enumerate(zip(grid.n, grid.h))]


@lru_cache(maxsize=16)
def _factors(grid: SpatialGrid) -> tuple[np.ndarray, np.ndarray]:
    """``ksq`` with its zero mode set to 1, and the derivative factors of
    every axis stacked, ``(ndim, *n)``, built once per grid and shared
    read-only by every solve."""
    ksq = sum(k**2 for k in _per_axis(grid, _wavenumbers))
    ksq[(0,) * grid.ndim] = 1.0
    derivs = np.stack(np.broadcast_arrays(*_per_axis(grid, _derivative_factor)))
    for a in (ksq, derivs):
        a.flags.writeable = False
    return ksq, derivs


def _transform(a: np.ndarray, fft, dims: int | None = None) -> np.ndarray:
    """``fft`` along the last ``dims`` axes (all by default), the last first:
    the order and so the bits of ``np.fft.fftn`` and ``ifftn``, without their
    per-call setup; leading axes are a batch, each of whose slices gets the
    bits of its own transform."""
    for axis in range(a.ndim - 1, a.ndim - 1 - (a.ndim if dims is None else dims), -1):
        a = fft(a, axis=axis)
    return a


@lru_cache(maxsize=16)
def _field_operator(grid: SpatialGrid) -> np.ndarray | None:
    """The real (ndim * N, N) map from a density to the stacked components of
    its field at sign 1, N the grid's point count, built once per grid from
    the transform solve of every unit density and shared read-only; None
    when it has more than ``_OPERATOR_WORDS`` words.  It maps constants to
    round-off, as the transform solve's gauge maps them to zero."""
    n = math.prod(grid.n)
    if grid.ndim * n * n > _OPERATOR_WORDS:
        return None
    ksq, derivs = _factors(grid)
    phi_hat = _transform(np.eye(n).reshape(n, *grid.n), np.fft.fft, grid.ndim)
    phi_hat[(slice(None),) + (0,) * grid.ndim] = 0.0
    phi_hat /= ksq
    fields = _transform(-derivs[:, None] * phi_hat, np.fft.ifft, grid.ndim).real
    op = np.ascontiguousarray(fields.reshape(grid.ndim, n, n).transpose(0, 2, 1)).reshape(-1, n)
    op.flags.writeable = False
    return op


def solve_poisson(rho: np.ndarray, grid: SpatialGrid, sign: float = 1.0) -> ElectricField:
    """Solve for the self-consistent field of a charge density on the
    periodic grid.

    The background density is the discrete mean of rho, which enforces the
    solvability condition exactly.  A grid small enough for ``_field_operator``
    takes the field as one product of its operator with rho - rho[0], which
    differs from rho - mean(rho) by a constant the operator maps to
    round-off, and which is exactly zero for a constant density, whose mean
    need not be exact in floating point; its field is exactly zero, as on the
    transform path.  Any other grid takes every component of the field from
    one batched inverse transform.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.shape != grid.n:
        raise DimensionError(f"rho shape {rho.shape} does not match grid {grid.n}")
    op = _field_operator(grid)
    if op is not None:
        flat = rho.ravel()
        field = sign * (op @ (flat - flat[0]))
        return ElectricField(tuple(field.reshape(grid.ndim, *grid.n)), sign)
    ksq, derivs = _factors(grid)
    phi_hat = _transform(rho, np.fft.fft)
    phi_hat[(0,) * grid.ndim] = 0.0
    phi_hat /= ksq  # whose zero mode is 1, so phi_hat's stays 0
    return ElectricField(tuple(_transform(-sign * derivs * phi_hat, np.fft.ifft, grid.ndim).real),
                         sign)


def divergence(field: ElectricField, grid: SpatialGrid) -> np.ndarray:
    """Spectral divergence of the field (diagnostic for the solve identity)."""
    return sum(np.fft.ifftn(d * np.fft.fftn(e)).real
               for d, e in zip(_factors(grid)[1], field.E))


def field_energy(field: ElectricField, grid: SpatialGrid) -> float:
    """The field's share of the energy, sign * 0.5 * sum |E|^2 * cell volume."""
    return 0.5 * field.sign * grid.cell_volume * float(field.magnitude_squared().sum())
