"""Factored representation of the 1D1V solution and its rank arithmetic.

A distribution on an Nx x Nv grid is stored as f = sum_l C_l Ux[:,l] o Uv[:,l].
Sums concatenate factor blocks exactly.  Every truncation, recompression
included, runs ``_range_finder``, the sketch loop of both formats, on the sum
formed densely: at most 128 x 257 for the 1D presets, and cheaper to form
than the stacked factors are to orthonormalize.  It stops once the exact error
of the returned matrix, the explicit residual of the sketch plus the
discarded singular values, is within eps, so the bound holds whatever the
draws; they can only cost rank.  The sum, its residual and the stacked
velocity factors live in one workspace per grid that every call reuses, so a
warm call faults in no page (``_Workspace``); the 2D truncation in
``htucker`` takes its large arrays from the same workspace, and nothing
either returns aliases it.  ``truncate_sum`` is the one
entry point for a cut; given weights it scales the velocity factors by
1/sqrt(w(v_j)) (point values, not quadrature weights), truncates, and scales
back, so its error is controlled in the norm weighted by 1/w.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError

# relative singular-value floor used when removing exactly redundant terms
DEFAULT_DROPTOL = 1e-14

_SKETCH_MARGIN = 8   # sketch columns beyond the kept rank and the largest block rank
# n -> (generator, rows drawn so far): a memo of a function of n alone, so no
# caller sees what another asked for; stdlib draws keep numpy.random unimported
_TEST_ROWS: dict[int, tuple[random.Random, np.ndarray]] = {}


@dataclass
class LowRankMatrix:
    C: np.ndarray   # (r,) coefficients; nonnegative and sorted after truncation
    Ux: np.ndarray  # (Nx, r) spatial factors
    Uv: np.ndarray  # (Nv, r) velocity factors

    @property
    def rank(self) -> int:
        return self.C.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.Ux.shape[0], self.Uv.shape[0])

    def dense(self) -> np.ndarray:
        return (self.Ux * self.C[None, :]) @ self.Uv.T


def zero(nx: int, nv: int) -> LowRankMatrix:
    return LowRankMatrix(np.zeros(0), np.zeros((nx, 0)), np.zeros((nv, 0)))


def scale(f: LowRankMatrix, a: float) -> LowRankMatrix:
    return LowRankMatrix(a * f.C, f.Ux, f.Uv)


def _check_shapes(terms) -> tuple[int, int]:
    shape = terms[0].shape
    for t in terms[1:]:
        if t.shape != shape:
            raise DimensionError(f"shape mismatch in sum: {t.shape} vs {shape}")
    return shape


def add(*terms: LowRankMatrix) -> LowRankMatrix:
    """Exact sum by factor concatenation; rank is the sum of ranks."""
    if not terms:
        raise ValueError("add() needs at least one term")
    _check_shapes(terms)
    if len(terms) == 1:
        return terms[0]
    return LowRankMatrix(
        np.concatenate([t.C for t in terms]),
        np.hstack([t.Ux for t in terms]),
        np.hstack([t.Uv for t in terms]),
    )


def scale_bound(f: LowRankMatrix) -> float:
    """Triangle-inequality bound on the Frobenius norm of the dense form.

    Unlike the norm itself this does not vanish under cancellation between
    terms, which makes it the right yardstick for dropping numerically zero
    singular values of near-cancelling sums.
    """
    if f.rank == 0:
        return 0.0
    return float(np.sum(np.abs(f.C) * np.linalg.norm(f.Ux, axis=0)
                        * np.linalg.norm(f.Uv, axis=0)))


def keep_count(s: np.ndarray, eps: float, missed: float = 0.0) -> int:
    """Smallest kept count of the sorted spectrum s whose discarded tail,
    sqrt(missed + ||s[k:]||^2), is <= eps; s.size if none is.

    ``missed`` is the squared norm of what the spectrum does not cover."""
    tails = np.sqrt(missed + np.cumsum(s[::-1] ** 2))[::-1]  # tails[k] = the tail after k
    ok = tails <= eps
    return int(np.argmax(ok)) if ok.any() else s.size


def _test_matrix(n: int, p: int) -> np.ndarray:
    """The first p columns of the fixed n-row Gaussian test matrix.

    Column j holds the j-th n draws of ``random.Random(0)``, extended in
    order and cached, so it is the same whatever p and whatever was asked
    for before.
    """
    if n not in _TEST_ROWS:
        _TEST_ROWS[n] = (random.Random(0), np.empty((0, n)))
    rng, rows = _TEST_ROWS[n]
    if rows.shape[0] < p:
        new = [[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(p - rows.shape[0])]
        rows = np.vstack([rows, new])
        _TEST_ROWS[n] = (rng, rows)
    return rows[:p].T


def _range_finder(apply, count, n: int, width: int, most: int):
    """The adaptive randomized range finder (Halko, Martinsson & Tropp, SIAM
    Rev. 2011) of every truncation but the hierarchical one at eps = 0.

    Q = qr(apply(Omega)) for the first p = min(width, most) columns Omega of
    the fixed n-row ``_test_matrix``; ``count(Q)`` returns the kept rank and
    what else the caller needs.  The sketch doubles until it is
    ``_SKETCH_MARGIN`` columns wider than the kept rank (without that margin
    the frame sees only as far as the cut and the rank grows) or spans the
    rank bound ``most``.  Returns (Q, kept rank, the rest of ``count(Q)``).
    """
    while True:
        p = min(width, most)
        q = np.linalg.qr(apply(_test_matrix(n, p)))[0]
        keep, extras = count(q)
        if p == most or p >= keep + _SKETCH_MARGIN:
            return q, keep, extras
        width *= 2


class _Workspace:
    """The large arrays of one grid's truncations, reused by the next call.

    Both formats draw on it: ``_truncate`` for the 1D sum, its residual and
    the stacked velocity factors, ``htucker`` for the stacked spatial product,
    the pair Gram, their Hadamard product and the pair unfold's scratch.
    Fresh arrays of that size lie above glibc's trim threshold: freeing them
    returns the heap top to the kernel, and the next call faults every page
    back in (about 160 minor faults per strong_landau_1d step, 300 per
    weak_landau_2d2v step, when each call allocated its own).  Reused, they
    touch no fresh page once warm.  Each named buffer grows to the largest
    size asked for and is handed out as a contiguous prefix.  Every call
    overwrites what it reads, so no result depends on an earlier call, and
    nothing a truncation returns aliases a buffer.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, *shape: int) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)


@functools.lru_cache(maxsize=4)  # the latest grids keep theirs, so the memory is bounded
def _workspace(*shape: int) -> _Workspace:
    """The workspace of the grid whose tensors have this ``shape``."""
    return _Workspace()


def _weight_root(w_points, *lengths: int):
    """sqrt(w) of the weights at the velocity nodes, checked against the
    length of every velocity factor; None without weights."""
    if w_points is None:
        return None
    w_points = np.asarray(w_points, dtype=float)
    if any(w_points.shape != (n,) for n in lengths):
        raise DimensionError("weight vector length does not match velocity factors")
    if np.any(w_points <= 0):
        raise DomainError("weights must be strictly positive")
    return np.sqrt(w_points)


def _truncate(terms, eps: float, sqrt_w=None):
    """The one truncation behind every public entry point.

    S = sum_b (Ux_b C_b) Uv_b^T (velocity columns divided by ``sqrt_w``) is
    formed densely and sketched by ``_range_finder``: Q = qr(S Omega),
    B = Q^T S, B = V s U^T from the SVD of B^T.  The error of keeping k
    singular triplets is exactly ||S - Q B||_F^2 + sum_{i>=k} s_i^2, the
    first term from the explicit residual, so no squared norm is subtracted.
    The rank bound of S is min(Nx, Nv, sum of ranks).  eps = 0 sketches at
    that bound and cuts at ``DEFAULT_DROPTOL`` times the blocks' summed
    ``scale_bound``.

    S, the residual and the stacked velocity factors are written with
    ``out=`` into the grid's ``_Workspace``; nothing returned aliases it.
    """
    nx, nv = terms[0].shape
    terms = [t for t in terms if t.rank]
    if not terms:
        return zero(nx, nv)
    ws = _workspace(nx, nv)
    x = np.hstack([t.Ux * t.C for t in terms])
    v = np.concatenate([t.Uv for t in terms], axis=1, out=ws.take("stack", nv, x.shape[1]))
    if sqrt_w is not None:
        np.divide(v, sqrt_w[:, None], out=v)
    s_mat = np.matmul(x, v.T, out=ws.take("s_mat", nx, nv))
    most = min(s_mat.shape[0], s_mat.shape[1], x.shape[1])
    if eps == 0.0:
        eps = DEFAULT_DROPTOL * float(np.linalg.norm(x, axis=0) @ np.linalg.norm(v, axis=0))
        width = most
    else:  # both formats start at the largest block rank + the margin
        width = max(t.rank for t in terms) + _SKETCH_MARGIN
    resid = ws.take("resid", nx, nv)

    def count(q):
        b = q.T @ s_mat
        u, s, vt = np.linalg.svd(b.T, full_matrices=False)
        tail = np.subtract(s_mat, np.matmul(q, b, out=resid), out=resid).ravel()
        return keep_count(s, eps, float(tail @ tail)), (u, s, vt)

    q, keep, (u, s, vt) = _range_finder(lambda omega: s_mat @ omega, count,
                                        s_mat.shape[1], width, most)
    uv = u[:, :keep]
    return LowRankMatrix(s[:keep], q @ vt[:keep].T,
                         uv if sqrt_w is None else uv * sqrt_w[:, None])


def truncate_sum(terms, eps: float, w_points=None) -> LowRankMatrix:
    """Truncation of sum(terms) with Frobenius error <= eps, taken in the norm
    weighted by 1/w when ``w_points`` (w at the velocity nodes) is given.

    The result has orthonormal factors and sorted nonnegative coefficients;
    eps = 0 keeps the sum to 1e-14 of its blocks' magnitude bounds.
    """
    if eps < 0:
        raise DomainError(f"truncation threshold must be >= 0, got {eps}")
    terms = list(terms)
    return _truncate(terms, eps, _weight_root(w_points, _check_shapes(terms)[1]))


def recompress(f: LowRankMatrix) -> LowRankMatrix:
    """Canonicalize: orthonormal factors, sorted nonnegative coefficients.

    The singular-value tail up to ``DEFAULT_DROPTOL`` * scale_bound(f) is
    removed, eliminating exactly (or numerically) redundant terms; the dense
    form is preserved to that accuracy.
    """
    return _truncate([f], 0.0)

