"""Factored representation of the 1D1V solution and its rank arithmetic.

A distribution on an Nx x Nv grid is stored as f = sum_l C_l Ux[:,l] o Uv[:,l].
Sums concatenate factor blocks exactly.  Every truncation, recompression
included, is ``truncate_sum``: it runs ``_range_finder``, the sketch loop of
both formats, on the sum formed densely (at eps = 0 the sum is its own
sketch), at most 128 x 257 for the 1D presets, and cheaper to form than the
stacked factors are to orthonormalize.
It stops once the error of the returned matrix, the explicit residual of the
sketch plus the discarded spectrum of the sketched rows B = Q^T S, is within
eps, so the bound holds whatever the draws; they can only cost rank.  At
eps > 0 that spectrum comes from ``eigh`` of the small p x p Gram B B^T,
cheaper than the SVD of B, with its round-off counted in the tail; cuts that
round-off could reach (``_SVD_SWITCH``), and eps = 0, take the SVD of B.
The spatial stack is one
concatenation of the blocks' factors, scaled in place by their concatenated
coefficients.  The sum, its residual and the stacked velocity factors live
in one workspace per grid that every call reuses, so a warm call faults in
no page (``_Workspace``); the 2D truncation in ``htucker`` takes its large
arrays from the same workspace, and nothing either returns aliases it.
Given the weight's roots and an orthonormal frame, ``truncate_sum`` cuts in
the norm weighted by 1/w: it scales the velocity factors by 1/sqrt(w(v_j))
(point values, not quadrature weights), projects them off the frame,
v <- v - Q (Q^T v), truncates and scales back; with the moment carriers'
frame it is the 1D pin's cut, which subtracts no carrier.  The 2D
truncation's exact count at eps = 0 is this loop too, on its root
matricization.  ``fields`` is the format's one contraction with a velocity
table, behind both the moments and the KFVS fluxes.
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
# Over-estimate of the Gram route's round-off in a counted squared tail, per
# unit of ||S||_F^2: on 24000 cuts of the seven sum kinds of the tests, at
# eps/||S|| from 1e-8 to 0.1, the exact error^2 exceeded the counted tail by at
# most 6.0 eps_mach ||S||_F^2 (the Gram's own rounding and eigh's backward error)
_GRAM_ROUNDOFF = 64.0 * np.finfo(float).eps
# eps^2 at most this multiple of the round-off takes the SVD of B (eps/||S|| <=
# 3.8e-6): there the added round-off would cost rank, and eigh's smallest
# values, accurate only to eps_mach lambda_1, blur the tail; above it the
# round-off is <= 1e-3 eps^2, and the 1D presets, cutting at eps/||S|| of
# 3.4e-5 to 3.9e-5, keep the SVD's ranks
_SVD_SWITCH = 1e3
# n -> (generator, read-only C-ordered (n, drawn) columns): a memo of a
# function of n alone, so no caller sees what another asked for; stdlib draws
# keep numpy.random unimported
_TEST_COLS: dict[int, tuple[random.Random, np.ndarray]] = {}


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
        np.concatenate([t.Ux for t in terms], axis=1),
        np.concatenate([t.Uv for t in terms], axis=1),
    )


def fields(f: LowRankMatrix, table: np.ndarray) -> np.ndarray:
    """sum_l C_l Ux[:, l] <Uv[:, l], table[:, q]>, one (Nx,) field per column
    q of the (Nv, k) velocity ``table``: a (k, Nx) array, by one chain of
    factor products that never forms f."""
    if f.Uv.shape[0] != table.shape[0]:
        raise DimensionError("velocity factor length does not match the table")
    return ((f.Uv.T @ table) * f.C[:, None]).T @ f.Ux.T


def keep_count(s: np.ndarray, eps: float, missed: float = 0.0) -> int:
    """Smallest kept count of the sorted spectrum s whose discarded tail,
    sqrt(missed + ||s[k:]||^2), is <= eps; s.size if none is.

    ``missed`` is the squared norm of what the spectrum does not cover."""
    if math.isnan(eps):  # no tail is <= NaN, so a non-finite cut keeps everything
        return s.size
    # the tails after s.size - 1, s.size - 2, ..., 0 kept, ascending: how many
    # are <= eps is how many to drop
    tails = (s[::-1] ** 2).cumsum(dtype=float)
    tails += missed
    np.sqrt(tails, out=tails)
    return s.size - int(tails.searchsorted(eps, side="right"))


def _gram_spectrum(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a symmetric Gram, the values in descending order and
    clipped at 0 (round-off leaves the smallest slightly negative), the
    vectors a reversed view of ``eigh``'s, column i belonging to value i."""
    lam, vec = np.linalg.eigh(gram)
    return np.maximum(lam[::-1], 0.0), vec[:, ::-1]


def _test_matrix(n: int, p: int) -> np.ndarray:
    """The first p columns of the fixed n-row Gaussian test matrix: a
    read-only view of C-ordered columns, each row contiguous, which BLAS
    multiplies faster than the transposed draws.

    Column j holds the j-th n draws of ``random.Random(0)``, extended in
    order and cached, so it is the same whatever p and whatever was asked
    for before.
    """
    rng, cols = _TEST_COLS.get(n) or (random.Random(0), np.empty((n, 0)))  # built on a miss only
    if cols.shape[1] < p:
        new = [[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(p - cols.shape[1])]
        cols = np.hstack([cols, np.array(new).T])
        cols.flags.writeable = False
        _TEST_COLS[n] = (rng, cols)
    return cols[:, :p]


def _range_finder(apply, count, n: int, width: int, most: int):
    """The adaptive randomized range finder (Halko, Martinsson & Tropp, SIAM
    Rev. 2011) of every truncation at eps > 0.

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

    Both formats draw on it: ``truncate_sum`` for the 1D sum, its residual and
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


def truncate_sum(terms, eps: float, sqrt_w=None, frame=None) -> LowRankMatrix:
    """Truncation of sum(terms) with Frobenius error <= eps, in the norm
    weighted by 1/w when ``sqrt_w`` = sqrt(w(v_j)) is given, of the part of
    the sum that the orthonormal (nv, k) ``frame`` does not reach in that
    norm's coordinates when it is given.

    S = sum_b (Ux_b C_b) Uv_b^T (velocity columns divided by ``sqrt_w``, then
    projected off ``frame``, v <- v - frame (frame^T v)) is formed densely
    and sketched by ``_range_finder``: Q = qr(S Omega), B = Q^T S.  With the
    eigenpairs lambda_i, V of the p x p Gram B B^T, descending, the result is
    Ux = Q V_k, C = sqrt(lambda_k), Uv = B^T V_k / sqrt(lambda_k), that is
    Q V_k V_k^T B, whose squared error is exactly ||S - Q B||_F^2 +
    sum_{i>=k} lambda_i, the first term from the explicit residual, so no
    squared norm is subtracted; the counted tail adds ``_GRAM_ROUNDOFF``
    ||S||_F^2 for the Gram's round-off, an over-estimate that never floors the
    threshold.  Where eps^2 is within ``_SVD_SWITCH`` of that term, and at
    eps = 0, B = V s U^T comes from the SVD of B^T instead, with the same
    identity in s_i^2 and no round-off term.  The rank bound of S is
    min(Nx, Nv, sum of ranks).  eps = 0 takes Q = qr(S), S being its own
    sketch, and cuts at ``DEFAULT_DROPTOL`` times the summed products of the
    stacked columns' norms as S sees them (scaled and projected), a bound on
    ||S|| that survives cancellation.

    The result has orthonormal factors (velocity factors orthonormal in the
    weighted coordinates: to round-off on the SVD route, to about
    eps_mach lambda_1 / lambda_k on the Gram route, at most 4.6e-12 on the 1D
    presets' cuts) and sorted nonnegative coefficients; the cut neither
    touches nor returns anything in the frame's span, so with the moment
    carriers' frame (``projection.MomentBasis.zero_frame``) the result has
    zero moments to round-off.  Only the lengths of ``sqrt_w`` and ``frame``
    are checked: the caller builds them once per grid (positive roots,
    orthonormal columns).  S, the residual and the stacked velocity factors
    are written with ``out=`` into the grid's ``_Workspace``; nothing returned
    aliases it.
    """
    if eps < 0:
        raise DomainError(f"truncation threshold must be >= 0, got {eps}")
    terms = list(terms)
    nx, nv = _check_shapes(terms)
    if any(a is not None and a.shape[0] != nv for a in (sqrt_w, frame)):
        raise DimensionError("weight or frame length does not match velocity factors")
    terms = [t for t in terms if t.rank]
    if not terms:
        return zero(nx, nv)
    ws = _workspace(nx, nv)
    x = np.concatenate([t.Ux for t in terms], axis=1)
    x *= np.concatenate([t.C for t in terms])  # each block's Ux C, scaled in place
    v = np.concatenate([t.Uv for t in terms], axis=1, out=ws.take("stack", nv, x.shape[1]))
    if sqrt_w is not None:
        np.divide(v, sqrt_w[:, None], out=v)
    if frame is not None:
        np.subtract(v, frame @ (frame.T @ v), out=v)
    s_mat = np.matmul(x, v.T, out=ws.take("s_mat", nx, nv))
    resid = ws.take("resid", nx, nv)

    # eps = 0 and NaN take the SVD too, as no eps^2 is above an infinite term
    roundoff = _GRAM_ROUNDOFF * float(np.vdot(s_mat, s_mat)) if eps > 0.0 else math.inf
    exact = not eps * eps > _SVD_SWITCH * roundoff  # eps ** 2 raises above 1e154

    def count(q):  # also B, its spectrum s and V, and on the SVD route Uv
        b = q.T @ s_mat
        tail = np.subtract(s_mat, np.matmul(q, b, out=resid), out=resid).ravel()
        missed = float(tail @ tail)
        if exact:
            u, s, vt = np.linalg.svd(b.T, full_matrices=False)
            return keep_count(s, eps, missed), (b, s, vt.T, u)
        lam, vec = _gram_spectrum(b @ b.T)
        s = np.sqrt(lam)  # a zero value, kept only when no tail meets eps, has no Uv
        keep = min(keep_count(s, eps, missed + roundoff), np.count_nonzero(s))
        return keep, (b, s, vec, None)

    if eps == 0.0:
        # a test matrix as wide as the rank bound is square on the row space of
        # S and can blur its smallest directions (a residual of 1.2e-12 ||S||
        # on a 28-column sum whose spectrum spans 1e9), so S is its own sketch
        eps = DEFAULT_DROPTOL * float(np.linalg.norm(x, axis=0) @ np.linalg.norm(v, axis=0))
        q = np.linalg.qr(s_mat)[0]
        keep, (b, s, vec, u) = count(q)
    else:  # both formats start at the largest block rank + the margin
        q, keep, (b, s, vec, u) = _range_finder(
            lambda omega: s_mat @ omega, count, nv, max(t.rank for t in terms) + _SKETCH_MARGIN,
            min(nx, nv, x.shape[1]))
    rot, s = vec[:, :keep], s[:keep]
    uv = u[:, :keep] if u is not None else (b.T @ rot) / s
    return LowRankMatrix(s, q @ rot, uv if sqrt_w is None else uv * sqrt_w[:, None])


def recompress(f: LowRankMatrix) -> LowRankMatrix:
    """Canonicalize: orthonormal factors, sorted nonnegative coefficients.

    The singular-value tail up to ``DEFAULT_DROPTOL`` times the summed
    products of its columns' norms is removed, eliminating exactly (or
    numerically) redundant terms; the dense form is preserved to that
    accuracy.
    """
    return truncate_sum([f], 0.0)

