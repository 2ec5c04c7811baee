"""Fifth-order conservative upwind operators in flux-difference form.

The interface value at x_{j+1/2} is reconstructed with the classical linear
five-point upwind weights,

    plus  (left-biased, for positive speeds):  cells j-2 .. j+2,
          coefficients  1/30, -13/60, 47/60, 9/20, -1/20
    minus (right-biased, for negative speeds): cells j-1 .. j+3,
          coefficients -1/20, 9/20, 47/60, -13/60, 1/30

and derivatives are formed as (Fhat_{j+1/2} - Fhat_{j-1/2}) / h: each
interface value is shared by the cells beside it, so cell sums telescope.
The kinetic transport and the macroscopic flux update share this code path,
which is what makes their discretizations compatible.

``interfaces`` is the one stencil call, for both biases.  Interface i - 1/2
(i = 0 .. n) reads the window of cells i-3 .. i+2; a read-only window index
per ``(n, boundary)``, built once, names each tap's source (periodic indices
wrap, zero-extended ones point at one zero row appended after the last
cell).  One ``np.take`` along the axis, viewed last (a transpose, no copy),
forms the ``(..., n+1, 6)`` windows, and one product with the read-only
``(6, 2)`` table ``_TABLE`` (plus weights in taps 0-4, minus in taps 1-5)
gives both biases' values, summed in the BLAS kernel's order and so at
round-off from the stencil-order sum; ``derivatives`` adds one difference
divided by h, and ``reconstruct_interface`` and ``upwind_derivative`` are
one bias of these.  The windows are a fresh C-ordered array, so the output's
bytes and layout (bias first, each bias C-ordered with the stencil axis
last, viewed with the axis in place) do not depend on the input's layout;
the BLAS products that consume these factors block their sums by the
strides, so it fixes the last bits of every truncation, which resumes repeat.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigError, GridSizeError

PLUS_COEFFS = np.array([1 / 30, -13 / 60, 47 / 60, 9 / 20, -1 / 20])
MINUS_COEFFS = np.array([-1 / 20, 9 / 20, 47 / 60, -13 / 60, 1 / 30])

# tap k of interface i - 1/2 is cell i - 3 + k; the minus stencil starts one later
_TABLE = np.column_stack([np.append(PLUS_COEFFS, 0.0), np.insert(MINUS_COEFFS, 0, 0.0)])
_TABLE.flags.writeable = False
_BIAS = {"plus": 0, "minus": 1}
_MIN_CELLS = {"periodic": 8, "zero": 5}


def _row(bias: str) -> int:
    if bias not in _BIAS:
        raise ConfigError(f"bias must be 'plus' or 'minus', got {bias!r}")
    return _BIAS[bias]


@lru_cache(maxsize=None)
def _gather(n: int, boundary: str) -> np.ndarray:
    """(n+1, 6): source of cell i - 3 + k at [i, k]; index n is the appended zero row."""
    cells = np.add.outer(np.arange(n + 1), np.arange(-3, 3))
    window = np.where((cells >= 0) & (cells < n), cells, n) if boundary == "zero" else cells % n
    window.flags.writeable = False
    return window


def interfaces(values, boundary: str, axis: int = -1) -> np.ndarray:
    """Fhat_{j+1/2}, j = -1 .. n-1, of both biases: (2, ...), plus then minus, n+1
    values along ``axis`` (index i at i - 1/2; periodic end values bit-identical)."""
    values = np.asarray(values, dtype=float)
    if boundary not in _MIN_CELLS:
        raise ConfigError(f"boundary must be 'periodic' or 'zero', got {boundary!r}")
    ndim, axis, n = values.ndim, range(values.ndim)[axis], values.shape[axis]
    if n < _MIN_CELLS[boundary]:
        raise GridSizeError(f"{boundary} stencil needs >= {_MIN_CELLS[boundary]} cells, got {n}")
    last = values.transpose(*range(axis), *range(axis + 1, ndim), axis)
    if boundary == "zero":
        last = np.concatenate((last, np.zeros(last.shape[:-1] + (1,))), axis=-1)
    windows = np.take(last, _gather(n, boundary), axis=-1).reshape(-1, 6)
    fhat = (_TABLE.T @ windows.T).reshape(2, *last.shape[:-1], n + 1)
    return fhat.transpose(0, *range(1, axis + 1), ndim, *range(axis + 1, ndim))


def flux_difference(fhat, h: float, axis: int = -1) -> np.ndarray:
    """(Fhat_{j+1/2} - Fhat_{j-1/2}) / h; cell sums telescope exactly."""
    fhat = np.asarray(fhat, dtype=float)
    before = (slice(None),) * range(fhat.ndim)[axis]
    return (fhat[(*before, slice(1, None))] - fhat[(*before, slice(None, -1))]) / h


def derivatives(u, h: float, boundary: str, axis: int = -1) -> np.ndarray:
    """Both biases' conservative upwind derivatives along ``axis``: (2, *u.shape)."""
    return flux_difference(interfaces(u, boundary, axis), h, axis=range(1, np.ndim(u) + 1)[axis])


def reconstruct_interface(values, bias: str, boundary: str, axis: int = -1) -> np.ndarray:
    """The ``bias`` row of ``interfaces``."""
    return interfaces(values, boundary, axis=axis)[_row(bias)]


def upwind_derivative(u, bias: str, h: float, boundary: str, axis: int = -1) -> np.ndarray:
    """The ``bias`` row of ``derivatives``."""
    return derivatives(u, h, boundary, axis=axis)[_row(bias)]
