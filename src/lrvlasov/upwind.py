"""Fifth-order conservative upwind operators in flux-difference form.

The interface value at x_{j+1/2} is reconstructed with the classical linear
five-point upwind weights,

    plus  (left-biased, for positive speeds):  cells j-2 .. j+2,
          coefficients  1/30, -13/60, 47/60, 9/20, -1/20
    minus (right-biased, for negative speeds): cells j-1 .. j+3,
          coefficients -1/20, 9/20, 47/60, -13/60, 1/30

and derivatives are formed as (Fhat_{j+1/2} - Fhat_{j-1/2}) / h so that cell
sums telescope.  The kinetic transport terms and the macroscopic flux update
share this code path, which is what makes their discretizations compatible.

Both operators work along ``axis`` without ghost-cell padding.  The n + 1
interfaces of an n-cell axis read the n + 6 cells -3 .. n+2; one gather index
per ``(n, boundary)``, built once and read-only, names the source cell of
each: periodic indices wrap, and zero-extended ones point at a single zero
row appended after the last cell.  One ``np.take`` along the axis, viewed
last (a transpose, no copy), forms that extended array, and its five
weighted slices are added, in stencil order, to an array of zeros, so every
interface value is rounded exactly as the written-out sum.

The output is that C-ordered array with the stencil axis last, returned as
a transposed view with the axis back in place, so the axis varies fastest in
memory; ``flux_difference`` keeps the layout of its input.  Elementwise
values do not depend on layout, but the BLAS products that consume these
factors do: their blocking follows the strides, so another layout changes
the last bits of every truncation and with them the golden diagnostics.
Accumulating in that layout also keeps each of the five updates a
contiguous pass.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigError, GridSizeError

PLUS_COEFFS = np.array([1 / 30, -13 / 60, 47 / 60, 9 / 20, -1 / 20])
MINUS_COEFFS = np.array([-1 / 20, 9 / 20, 47 / 60, -13 / 60, 1 / 30])

# the plus stencil at interface i - 1/2 starts at extended cell i (cell i - 3),
# the minus stencil one cell later
_START = {"plus": (PLUS_COEFFS, 0), "minus": (MINUS_COEFFS, 1)}


def _check(values: np.ndarray, bias: str, boundary: str, axis: int) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if bias not in ("plus", "minus"):
        raise ConfigError(f"bias must be 'plus' or 'minus', got {bias!r}")
    if boundary not in ("periodic", "zero"):
        raise ConfigError(f"boundary must be 'periodic' or 'zero', got {boundary!r}")
    n = values.shape[axis]
    if boundary == "periodic" and n < 8:
        raise GridSizeError(f"periodic reconstruction needs >= 8 cells, got {n}")
    if boundary == "zero" and n < 5:
        raise GridSizeError(f"zero-extension reconstruction needs >= 5 cells, got {n}")
    return values


@lru_cache(maxsize=None)
def _gather(n: int, boundary: str) -> np.ndarray:
    """Source of extended cells -3 .. n+2; index n is the appended zero row."""
    cells = np.arange(-3, n + 3)
    index = cells % n if boundary == "periodic" else np.where(
        (cells >= 0) & (cells < n), cells, n)
    index.flags.writeable = False
    return index


def reconstruct_interface(values, bias: str, boundary: str, axis: int = -1) -> np.ndarray:
    """Interface values Fhat_{j+1/2} for j = -1 .. n-1 (n+1 values along axis).

    Index i of the output is the interface at position i - 1/2; for periodic
    data the first and last entries are bit-identical by construction.
    """
    values = _check(values, bias, boundary, axis)
    ndim = values.ndim
    axis = range(ndim)[axis]
    last = values.transpose(*range(axis), *range(axis + 1, ndim), axis)
    n = last.shape[-1]
    if boundary == "zero":
        last = np.concatenate((last, np.zeros(last.shape[:-1] + (1,))), axis=-1)
    ext = np.take(last, _gather(n, boundary), axis=-1)

    coeffs, start = _START[bias]
    fhat = np.zeros(last.shape[:-1] + (n + 1,))
    for k, c in enumerate(coeffs):
        fhat += c * ext[..., start + k : start + k + n + 1]
    return fhat.transpose(*range(axis), ndim - 1, *range(axis, ndim - 1))


def flux_difference(fhat, h: float, axis: int = -1) -> np.ndarray:
    """(Fhat_{j+1/2} - Fhat_{j-1/2}) / h; cell sums telescope exactly."""
    fhat = np.asarray(fhat, dtype=float)
    before = (slice(None),) * range(fhat.ndim)[axis]
    return (fhat[(*before, slice(1, None))] - fhat[(*before, slice(None, -1))]) / h


def upwind_derivative(u, bias: str, h: float, boundary: str, axis: int = -1) -> np.ndarray:
    """Locally conservative fifth-order upwind derivative along ``axis``."""
    return flux_difference(reconstruct_interface(u, bias, boundary, axis=axis), h, axis=axis)
