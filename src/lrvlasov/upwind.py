"""Fifth-order conservative upwind operators in flux-difference form.

The interface value at x_{j+1/2} is reconstructed with the classical linear
five-point upwind weights,

    plus  (left-biased, for positive speeds):  cells j-2 .. j+2,
          coefficients  1/30, -13/60, 47/60, 9/20, -1/20
    minus (right-biased, for negative speeds): cells j-1 .. j+3,
          coefficients -1/20, 9/20, 47/60, -13/60, 1/30

and derivatives are formed as (Fhat_{j+1/2} - Fhat_{j-1/2}) / h: each
interface value is shared by the cells beside it, so cell sums telescope.
The kinetic transport and the macroscopic flux update share these weights,
which is what makes their discretizations compatible.

Both stencils are banded operators, applied in read-only blocks built once
per ``(n, boundary)``, and per h for derivatives, straight from the weights
(a bounded cache, ``_operator``).  Output rows are grouped in blocks of
``_BLOCK``; a block holds both biases of its rows and keeps only the source
cells those rows touch: block b's column c is cell b * _BLOCK - 3 + c, wrapped
for periodic data, and for zero extension a cell off the grid keeps an
in-range index and a zero coefficient.  Every periodic block is the same
block, so it is held once and broadcast over the blocks.  A call is one
``take`` of the cached slab index along the axis (moved first) and one
batched ``np.matmul`` that gives both biases; the boundary and the cell count
are checked when an operator is built.

``interfaces`` gives Fhat_{i-1/2}, i = 0 .. n, for both biases: interface
i - 1/2 reads cells i-3 .. i+2 (plus weights in taps 0-4, minus in taps 1-5).
It is the flux-difference input of ``macro.rate``, which differences it with
``flux_difference``, so the cell sums of the macroscopic update telescope;
the periodic end values are one value, the last row copied from the first.
``derivatives`` folds the difference and 1/h into its blocks (seven taps,
cells j-3 .. j+3), so it matches the difference of the interface values at
round-off and its periodic cell sums vanish at round-off; the transport's
conservation comes from the moment pin, not from these sums.
``reconstruct_interface`` and ``upwind_derivative`` are one bias of these.

Every call writes one fresh C-ordered array of shape (rows, 2, *others), the
stencil axis first, then the bias, then the other axes in order, and returns
it viewed as (2, ...) with the axis in place.  So the output's bytes and
layout do not depend on the input's layout; the BLAS products that consume
these factors block their sums by the strides, so this fixes the last bits
of every truncation, which resumes repeat.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConfigError, GridSizeError

PLUS_COEFFS = np.array([1 / 30, -13 / 60, 47 / 60, 9 / 20, -1 / 20])
MINUS_COEFFS = np.array([-1 / 20, 9 / 20, 47 / 60, -13 / 60, 1 / 30])

_BLOCK = 16                                       # output rows per operator block
# tap k of interface i - 1/2 is cell i - 3 + k; the minus stencil starts one later
_TAPS = np.array([np.append(PLUS_COEFFS, 0.0), np.insert(MINUS_COEFFS, 0, 0.0)])
_BIAS = {"plus": 0, "minus": 1}
_MIN_CELLS = {"periodic": 8, "zero": 5}


def _row(bias: str) -> int:
    if bias not in _BIAS:
        raise ConfigError(f"bias must be 'plus' or 'minus', got {bias!r}")
    return _BIAS[bias]


@lru_cache(maxsize=16)
def _operator(n: int, boundary: str, h: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Read-only slab index ``(nb, width)`` and blocks ``(nb, 2 * _BLOCK, width)``.

    Rows are the interface values (h None; row i reads cells i-3 .. i+2) or
    the derivatives (row j reads cells j-3 .. j+3 with weights
    (T[k-1] - T[k]) / h, T the six interface taps).  Block b's column c is
    cell b * _BLOCK - 3 + c, and its row 2q + bias is output row
    b * _BLOCK + q of that bias, whose tap k sits in column q + k: each tap
    has exactly one column, however often a wrapped cell recurs in the block.
    Periodic blocks are all one block, held once and broadcast; zero
    extension zeroes the off-grid columns of its edge blocks.  The boundary
    and the cell count are checked here, so only a new operator pays for it.
    """
    if boundary not in _MIN_CELLS:
        raise ConfigError(f"boundary must be 'periodic' or 'zero', got {boundary!r}")
    if n < _MIN_CELLS[boundary]:
        raise GridSizeError(f"{boundary} stencil needs >= {_MIN_CELLS[boundary]} cells, got {n}")
    taps, rows = _TAPS, n + 1
    if h is not None:
        ext = np.pad(_TAPS, ((0, 0), (1, 1)))
        taps, rows = (ext[:, :-1] - ext[:, 1:]) / h, n
    k = taps.shape[1]
    width = _BLOCK + k - 1
    cells = np.add.outer(_BLOCK * np.arange(-(-rows // _BLOCK)), np.arange(width) - 3)
    tap = np.arange(width) - np.arange(_BLOCK)[:, None]            # [q, c] -> k
    band = np.where((tap >= 0) & (tap < k), taps[:, tap.clip(0, k - 1)], 0.0)
    band = band.transpose(1, 0, 2).reshape(2 * _BLOCK, width)
    band.flags.writeable = False
    if boundary == "periodic":
        index = cells % n
        blocks = np.broadcast_to(band, (cells.shape[0], *band.shape))  # read-only
    else:
        index = cells.clip(0, n - 1)
        blocks = np.where(((cells >= 0) & (cells < n))[:, None, :], band, 0.0)
        blocks.flags.writeable = False
    index.flags.writeable = False
    return index, blocks


@lru_cache(maxsize=16)
def _axes(ndim: int, axis: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """``axis`` in range(ndim), the transpose that moves it first, and the one
    that takes the output's (rows, bias, others) to (bias, ..., rows, ...)."""
    axis = range(ndim)[axis]
    return (axis, (axis, *range(axis), *range(axis + 1, ndim)),
            (1, *range(2, axis + 2), 0, *range(axis + 2, ndim + 1)))


def _apply(values, boundary: str, axis: int, h: float | None) -> np.ndarray:
    """Both biases' rows of the ``(n, boundary, h)`` operator along ``axis``."""
    values = np.asarray(values, dtype=float)
    axis, front, back = _axes(values.ndim, axis)
    n = values.shape[axis]
    index, blocks = _operator(n, boundary, h)
    moved = values.transpose(front)
    others = moved.shape[1:]
    slab = moved.take(index, axis=0).reshape(*index.shape, math.prod(others))
    out = np.matmul(blocks, slab).reshape(index.shape[0] * _BLOCK, 2, *others)[:n + (h is None)]
    if h is None and boundary == "periodic":
        out[n] = out[0]
    return out.transpose(back)


def interfaces(values, boundary: str, axis: int = -1) -> np.ndarray:
    """Fhat_{j+1/2}, j = -1 .. n-1, of both biases: (2, ...), plus then minus, n+1
    values along ``axis`` (index i at i - 1/2; periodic end values one value)."""
    return _apply(values, boundary, axis, None)


def flux_difference(fhat, h: float, axis: int = -1) -> np.ndarray:
    """(Fhat_{j+1/2} - Fhat_{j-1/2}) / h; cell sums telescope exactly."""
    fhat = np.asarray(fhat, dtype=float)
    before = (slice(None),) * range(fhat.ndim)[axis]
    out = fhat[(*before, slice(1, None))] - fhat[(*before, slice(None, -1))]
    out /= h
    return out


def derivatives(u, h: float, boundary: str, axis: int = -1) -> np.ndarray:
    """Both biases' conservative upwind derivatives along ``axis``: (2, *u.shape)."""
    return _apply(u, boundary, axis, float(h))


def reconstruct_interface(values, bias: str, boundary: str, axis: int = -1) -> np.ndarray:
    """The ``bias`` row of ``interfaces``."""
    return interfaces(values, boundary, axis=axis)[_row(bias)]


def upwind_derivative(u, bias: str, h: float, boundary: str, axis: int = -1) -> np.ndarray:
    """The ``bias`` row of ``derivatives``."""
    return derivatives(u, h, boundary, axis=axis)[_row(bias)]
