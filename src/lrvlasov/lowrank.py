"""Factored representation of the 1D1V solution and its rank arithmetic.

A distribution on an Nx x Nv grid is stored as f = sum_l C_l Ux[:,l] o Uv[:,l].
Sums concatenate factor blocks exactly; canonicalization runs a thin QR on each
factor block followed by an SVD of the small core, which is also how rank
truncation and the weighted truncation are realized.  The weighted truncation
scales the velocity factors by 1/sqrt(w(v_j)) (point values, not quadrature
weights), truncates, and scales back, so its error is controlled in the norm
weighted by 1/w.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, DomainError

# relative singular-value floor used when removing exactly redundant terms
DEFAULT_DROPTOL = 1e-14


@dataclass
class LowRankMatrix:
    C: np.ndarray   # (r,) coefficients; nonnegative and sorted after recompress
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
    return replace(f, C=a * f.C)


def add(*terms: LowRankMatrix) -> LowRankMatrix:
    """Exact sum by factor concatenation; rank is the sum of ranks."""
    if not terms:
        raise ValueError("add() needs at least one term")
    shape = terms[0].shape
    for t in terms[1:]:
        if t.shape != shape:
            raise DimensionError(f"shape mismatch in add: {t.shape} vs {shape}")
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


def recompress(f: LowRankMatrix, droptol: float = DEFAULT_DROPTOL) -> LowRankMatrix:
    """Canonicalize: orthonormal factors, sorted nonnegative coefficients.

    ``droptol`` removes singular values below droptol * scale_bound(f),
    eliminating exactly (or numerically) redundant terms; the dense form is
    preserved to that accuracy.
    """
    if f.rank == 0:
        return f
    floor = droptol * scale_bound(f)
    qx, rx = np.linalg.qr(f.Ux)
    qv, rv = np.linalg.qr(f.Uv)
    core = (rx * f.C[None, :]) @ rv.T
    u, s, vt = np.linalg.svd(core)
    keep = int(np.sum(s > floor)) if s.size and s[0] > 0.0 else 0
    return LowRankMatrix(s[:keep], qx @ u[:, :keep], qv @ vt[:keep].T)


def keep_count(s: np.ndarray, eps: float) -> int:
    """Smallest kept count of the sorted spectrum s whose discarded tail has
    2-norm <= eps."""
    tails = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]  # tails[k] = ||s[k:]||_2
    ok = tails <= eps
    return int(np.argmax(ok)) if ok.any() else s.size


def truncate(f: LowRankMatrix, eps: float) -> LowRankMatrix:
    """Rank truncation with Frobenius tail sqrt(sum_{k>r} s_k^2) <= eps.

    eps = 0 reduces to recompression.
    """
    if eps < 0:
        raise DomainError(f"truncation threshold must be >= 0, got {eps}")
    g = recompress(f)
    if eps == 0.0 or g.rank == 0:
        return g
    keep = keep_count(g.C, eps)
    return LowRankMatrix(g.C[:keep], g.Ux[:, :keep], g.Uv[:, :keep])


def truncate_weighted(f: LowRankMatrix, w_points: np.ndarray, eps: float) -> LowRankMatrix:
    """sqrt(w)-conjugated truncation acting purely on the velocity factors."""
    w_points = np.asarray(w_points, dtype=float)
    if w_points.shape != (f.Uv.shape[0],):
        raise DimensionError("weight vector length does not match velocity factors")
    if np.any(w_points <= 0):
        raise DomainError("weights must be strictly positive")
    root = np.sqrt(w_points)
    scaled = LowRankMatrix(f.C, f.Ux, f.Uv / root[:, None])
    t = truncate(scaled, eps)
    return LowRankMatrix(t.C, t.Ux, t.Uv * root[:, None])
