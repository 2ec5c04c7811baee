"""Hierarchical tensor format for the 2D2V solution.

The dimension tree is fixed: the two spatial dimensions form a single
full-grid leaf (frame ``Ux`` over the flattened (x1, x2) index), the velocity
dimensions are separate leaves (``Uv1``, ``Uv2``) joined by the transfer
tensor ``Bvv``, and the root transfer ``B`` couples the spatial frame to the
velocity-pair columns:

    f[i, j1, j2] = sum_{lx, lv} Ux[i, lx] B[lx, lv]
                   * sum_{l1, l2} Bvv[l1, l2, lv] Uv1[j1, l1] Uv2[j2, l2]

Addition concatenates blocks exactly.  Truncation orthogonalizes leaves to
root, then cuts three nodes (the root separation and the two velocity leaves)
by their singular spectra with per-node tolerance eps/sqrt(3), which bounds
the total error by eps in the Frobenius norm.  Physical space is never
compressed below the stored spatial frame: its rank only changes through the
root separation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, DomainError
from .grids import VelocityGrid
from .lowrank import DEFAULT_DROPTOL
from .poisson import ElectricField
from .upwind import upwind_derivative


@dataclass
class HtTensor:
    Ux: np.ndarray    # (n1*n2, r_x) spatial frame, full grid in space
    B: np.ndarray     # (r_x, r_v) root transfer
    Bvv: np.ndarray   # (r1, r2, r_v) velocity-pair transfer
    Uv1: np.ndarray   # (nv1, r1)
    Uv2: np.ndarray   # (nv2, r2)
    nx: tuple[int, int]
    canonical: bool = False

    @property
    def ranks(self) -> tuple[int, int, int, int]:
        """(r_x, r_v, r1, r2): spatial frame, root separation, velocity leaves."""
        return (self.Ux.shape[1], self.B.shape[1], self.Uv1.shape[1], self.Uv2.shape[1])

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return (*self.nx, self.Uv1.shape[0], self.Uv2.shape[0])

    def storage_size(self) -> int:
        return self.Ux.size + self.B.size + self.Bvv.size + self.Uv1.size + self.Uv2.size

    def dense(self) -> np.ndarray:
        pair = np.einsum("ac,bd,cde->abe", self.Uv1, self.Uv2, self.Bvv,
                         optimize=True)
        full = np.einsum("il,le,abe->iab", self.Ux, self.B, pair, optimize=True)
        return full.reshape(self.shape)


def ht_zero(nx: tuple[int, int], nv1: int, nv2: int) -> HtTensor:
    n = nx[0] * nx[1]
    return HtTensor(np.zeros((n, 0)), np.zeros((0, 0)), np.zeros((0, 0, 0)),
                    np.zeros((nv1, 0)), np.zeros((nv2, 0)), nx, canonical=True)


def ht_scale(f: HtTensor, a: float) -> HtTensor:
    return replace(f, B=a * f.B, canonical=False)


def ht_add(*terms: HtTensor) -> HtTensor:
    """Exact sum by block concatenation; all hierarchical ranks add."""
    if not terms:
        raise ValueError("ht_add() needs at least one term")
    shape = terms[0].shape
    for t in terms[1:]:
        if t.shape != shape:
            raise DimensionError(f"shape mismatch in ht_add: {t.shape} vs {shape}")
    if len(terms) == 1:
        return terms[0]
    rx = [t.Ux.shape[1] for t in terms]
    rv = [t.B.shape[1] for t in terms]
    r1 = [t.Uv1.shape[1] for t in terms]
    r2 = [t.Uv2.shape[1] for t in terms]
    b = np.zeros((sum(rx), sum(rv)))
    bvv = np.zeros((sum(r1), sum(r2), sum(rv)))
    ox = ov = o1 = o2 = 0
    for t, nx_, nv_, n1_, n2_ in zip(terms, rx, rv, r1, r2):
        b[ox:ox + nx_, ov:ov + nv_] = t.B
        bvv[o1:o1 + n1_, o2:o2 + n2_, ov:ov + nv_] = t.Bvv
        ox, ov, o1, o2 = ox + nx_, ov + nv_, o1 + n1_, o2 + n2_
    return HtTensor(
        np.hstack([t.Ux for t in terms]), b, bvv,
        np.hstack([t.Uv1 for t in terms]), np.hstack([t.Uv2 for t in terms]),
        terms[0].nx, canonical=False,
    )


def _mode1(mat: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(p,a),(a,b,c) -> (p,b,c)"""
    return np.tensordot(mat, t, axes=(1, 0))


def _mode2(mat: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(q,b),(a,b,c) -> (a,q,c)"""
    return np.moveaxis(np.tensordot(mat, t, axes=(1, 1)), 0, 1)


def _gram_whiten(a: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Whitener w and triangular-like r with a ~= (a @ w) @ r, a @ w orthonormal.

    Built from the equilibrated Gram matrix: roughly an order of magnitude
    cheaper than Householder QR on the tall stacks assembled by a time step,
    at the cost of a sqrt(machine-eps) accuracy floor on small singular
    values.  Only used on the truncating path, where everything near that
    floor is discarded anyway.  Returning the whitener instead of the
    orthonormal factor lets callers postpone the tall product until after
    rank decisions have shrunk it.
    """
    m = a.shape[1]
    if m == 0:
        return np.zeros((0, 0)), np.zeros((0, 0))
    norms = np.sqrt(np.einsum("ij,ij->j", a, a))
    safe = np.where(norms > 0, norms, 1.0)
    g = (a.T @ a) / np.outer(safe, safe)
    lam, vec = np.linalg.eigh(g)
    lam = lam[::-1]
    vec = vec[:, ::-1]
    top = max(lam[0], 0.0)
    nmax = float(np.max(norms, initial=0.0))
    lam_floor = 0.0 if nmax == 0.0 else (floor / nmax) ** 2
    cut = max(lam_floor, 100.0 * m * np.finfo(float).eps * max(top, 1e-300))
    k = int(np.sum(lam > cut))
    if k == 0:
        return np.zeros((m, 0)), np.zeros((0, m))
    root = np.sqrt(lam[:k])
    w = (vec[:, :k] / root[None, :]) / safe[:, None]
    r = root[:, None] * (vec[:, :k].T * safe[None, :])
    return w, r


def _assemble_sum(terms):
    """Shared stacking for sum routines: leaf QRs, pair unfold, spatial stack.

    Block-diagonal transfer tensors of a concatenated sum are mostly zeros;
    orthogonalizing the stacked leaves first and mapping each term's transfer
    into the shared leaf bases keeps every intermediate at its true size.
    Returns (q1, q2, mat, ux_cat, apply_b) where mat is the pair unfold in the
    (q1 o q2) basis and apply_b(rv) evaluates blockdiag(B_t) @ rv.T without
    forming the block diagonal.
    """
    shape = terms[0].shape
    for t in terms[1:]:
        if t.shape != shape:
            raise DimensionError(f"shape mismatch in sum: {t.shape} vs {shape}")
    q1, r1 = np.linalg.qr(np.hstack([t.Uv1 for t in terms]))
    q2, r2 = np.linalg.qr(np.hstack([t.Uv2 for t in terms]))
    off1 = np.cumsum([0] + [t.Uv1.shape[1] for t in terms])
    off2 = np.cumsum([0] + [t.Uv2.shape[1] for t in terms])
    bvv = np.concatenate(
        [_mode2(r2[:, off2[i]:off2[i + 1]],
                _mode1(r1[:, off1[i]:off1[i + 1]], t.Bvv))
         for i, t in enumerate(terms)], axis=2)
    mat = bvv.reshape(-1, bvv.shape[2])
    ux_cat = np.hstack([t.Ux for t in terms])
    offv = np.cumsum([0] + [t.B.shape[1] for t in terms])

    def apply_b(rv: np.ndarray) -> np.ndarray:
        return np.vstack([t.B @ rv[:, offv[i]:offv[i + 1]].T
                          for i, t in enumerate(terms)])

    return q1, q2, mat, ux_cat, apply_b


def ht_canonicalize_sum(terms) -> HtTensor:
    """Canonical form of sum(terms) without materializing the padded sum."""
    terms = list(terms)
    q1, q2, mat, ux_cat, apply_b = _assemble_sum(terms)
    qv, rv = np.linalg.qr(mat)
    bvv = qv.reshape(q1.shape[1], q2.shape[1], -1)
    qx, rx = np.linalg.qr(ux_cat)
    b = rx @ apply_b(rv)
    return HtTensor(qx, b, bvv, q1, q2, terms[0].nx, canonical=True)


def ht_canonicalize(f: HtTensor) -> HtTensor:
    """Orthonormalize every frame and the velocity-pair transfer (leaves to root)."""
    return ht_canonicalize_sum([f])


def _keep_count(s: np.ndarray, tol: float, floor: float) -> int:
    if s.size == 0 or s[0] <= 0.0:
        return 0
    tails = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]
    ok = tails <= max(tol, floor)
    return int(np.argmax(ok)) if ok.any() else s.size


def scale_bound(f: HtTensor) -> float:
    """Frobenius-norm bound from block magnitudes; survives cancellation."""
    ux = np.linalg.norm(f.Ux, axis=0)
    u1 = np.linalg.norm(f.Uv1, axis=0)
    u2 = np.linalg.norm(f.Uv2, axis=0)
    pair = u2 @ np.tensordot(u1, np.abs(f.Bvv), axes=(0, 0))
    return float(ux @ np.abs(f.B) @ pair)


def _finish_truncation(ux, core, uv1, uv2, nx, tol, floor):
    """Leaf cuts on the root-weighted core, then re-orthonormalized assembly."""
    def leaf_cut(gram_axes, frame):
        gram = np.tensordot(core, core, axes=(gram_axes, gram_axes))
        lam, vec = np.linalg.eigh(gram)
        lam = np.maximum(lam[::-1], 0.0)
        vec = vec[:, ::-1]
        k = max(_keep_count(np.sqrt(lam), tol, floor), 1)
        return frame @ vec[:, :k], vec[:, :k]

    new_uv1, rot1 = leaf_cut((1, 2), uv1)
    core = _mode1(rot1.T, core)
    new_uv2, rot2 = leaf_cut((0, 2), uv2)
    core = _mode2(rot2.T, core)

    # restore orthonormal pair transfer; the root picks up the R factor
    mat = core.reshape(-1, core.shape[2])
    qv, rv = np.linalg.qr(mat)
    bvv = qv.reshape(core.shape[0], core.shape[1], -1)
    return HtTensor(ux, rv.T, bvv, new_uv1, new_uv2, nx, canonical=True)


def ht_truncate_sum(terms, eps: float, droptol: float = DEFAULT_DROPTOL) -> HtTensor:
    """Hierarchical truncation of sum(terms), total Frobenius error <= eps.

    eps > 0 takes the fast Gram orthogonalization route (its noise floor sits
    orders of magnitude below any kept singular value), postponing the tall
    products until rank decisions have shrunk them, and finishes with an exact
    re-canonicalization of the small result.  eps = 0 keeps everything and
    uses Householder QR throughout so round trips are clean to machine
    precision.
    """
    if eps < 0:
        raise DomainError(f"truncation threshold must be >= 0, got {eps}")
    terms = list(terms)
    floor = droptol * sum(scale_bound(t) for t in terms)
    tol = eps / np.sqrt(3.0)
    nx = terms[0].nx
    nv1, nv2 = terms[0].Uv1.shape[0], terms[0].Uv2.shape[0]

    if eps == 0.0:
        g = ht_canonicalize_sum(terms)
        if min(g.ranks) == 0:
            return ht_zero(g.nx, nv1, nv2)
        # root separation: with orthonormal frames the singular values of B
        # are those of the (x)|(v1,v2) matricization
        u, s, vt = np.linalg.svd(g.B, full_matrices=False)
        keep = _keep_count(s, tol, floor)
        if keep == 0:
            return ht_zero(g.nx, nv1, nv2)
        ux = g.Ux @ u[:, :keep]
        core = (g.Bvv @ vt[:keep].T) * s[:keep]
        return _finish_truncation(ux, core, g.Uv1, g.Uv2, g.nx, tol, floor)

    q1, q2, mat, ux_cat, apply_b = _assemble_sum(terms)
    w_v, r_v = _gram_whiten(mat, floor)
    w_x, r_x = _gram_whiten(ux_cat, floor)
    if r_v.shape[0] == 0 or r_x.shape[0] == 0:
        return ht_zero(nx, nv1, nv2)
    b = r_x @ apply_b(r_v)
    u, s, vt = np.linalg.svd(b, full_matrices=False)
    keep = _keep_count(s, tol, floor)
    if keep == 0:
        return ht_zero(nx, nv1, nv2)
    ux = ux_cat @ (w_x @ u[:, :keep])
    pair = mat @ (w_v @ vt[:keep].T)
    core = pair.reshape(q1.shape[1], q2.shape[1], keep) * s[:keep]
    out = _finish_truncation(ux, core, q1, q2, nx, tol, floor)
    # the Gram route leaves the frames only near-orthonormal; one exact pass
    # over the now-small object restores machine-precision canonical form
    return ht_canonicalize(out)


def ht_truncate(f: HtTensor, eps: float, droptol: float = DEFAULT_DROPTOL) -> HtTensor:
    """Hierarchical rank truncation with total Frobenius error <= eps."""
    return ht_truncate_sum([f], eps, droptol=droptol)


def _check_weights(f: HtTensor, w1: np.ndarray, w2: np.ndarray) -> None:
    if w1.shape != (f.Uv1.shape[0],) or w2.shape != (f.Uv2.shape[0],):
        raise DimensionError("weight vectors do not match velocity frames")
    if np.any(w1 <= 0) or np.any(w2 <= 0):
        raise DomainError("weights must be strictly positive")


def ht_truncate_weighted_sum(terms, w1_points: np.ndarray, w2_points: np.ndarray,
                             eps: float) -> HtTensor:
    """sqrt(w)-conjugated hierarchical truncation of a sum of terms."""
    terms = list(terms)
    w1 = np.asarray(w1_points, float)
    w2 = np.asarray(w2_points, float)
    for t in terms:
        _check_weights(t, w1, w2)
    s1, s2 = np.sqrt(w1), np.sqrt(w2)
    scaled = [replace(t, Uv1=t.Uv1 / s1[:, None], Uv2=t.Uv2 / s2[:, None],
                      canonical=False) for t in terms]
    out = ht_truncate_sum(scaled, eps)
    return replace(out, Uv1=out.Uv1 * s1[:, None], Uv2=out.Uv2 * s2[:, None],
                   canonical=False)


# ---------------------------------------------------------------------------
# moments and the moment-conserving carrier

@dataclass
class Moments2D:
    rho: np.ndarray
    J1: np.ndarray
    J2: np.ndarray
    kappa: np.ndarray

    def max_abs(self) -> float:
        return max(float(np.max(np.abs(a), initial=0.0))
                   for a in (self.rho, self.J1, self.J2, self.kappa))


def ht_pair_contraction(f: HtTensor, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_{l1, l2} a[l1] b[l2] Bvv[l1, l2, l] for leaf contractions a, b."""
    return b @ np.tensordot(a, f.Bvv, axes=(0, 0))


def ht_spatial_fields(f: HtTensor, coeffs: np.ndarray) -> np.ndarray:
    """Map per-column velocity-pair contractions (r_v, k) to k spatial fields."""
    return (f.Ux @ (f.B @ coeffs)).T.reshape(-1, *f.nx)


def ht_moments(f: HtTensor, grids: tuple[VelocityGrid, VelocityGrid]) -> Moments2D:
    """(rho, J1, J2, kappa) on the spatial grid; the velocity pair is never
    densified, only contracted leaf by leaf through the transfer tensor."""
    g1, g2 = grids
    if f.Uv1.shape[0] != g1.n or f.Uv2.shape[0] != g2.n:
        raise DimensionError("velocity frames do not match grids")
    h1, h2 = g1.h, g2.h
    one1 = h1 * f.Uv1.sum(axis=0)
    one2 = h2 * f.Uv2.sum(axis=0)
    v1m = h1 * (f.Uv1.T @ g1.v)
    v2m = h2 * (f.Uv2.T @ g2.v)
    sq1 = h1 * (f.Uv1.T @ g1.v**2)
    sq2 = h2 * (f.Uv2.T @ g2.v**2)

    def pair(a, b):
        return ht_pair_contraction(f, a, b)

    coeffs = np.column_stack([
        pair(one1, one2),
        pair(v1m, one2),
        pair(one1, v2m),
        0.5 * pair(sq1, one2) + 0.5 * pair(one1, sq2),
    ])
    fields = ht_spatial_fields(f, coeffs)
    return Moments2D(rho=fields[0], J1=fields[1], J2=fields[2], kappa=fields[3])


@dataclass(frozen=True)
class MomentBasis2D:
    """Orthonormal moment basis for the velocity pair.

    Both velocity directions must share grid and weight; the three leaf frame
    vectors are the weight-scaled {1, v, v^2 - c} normalized by (c1, c2, c3),
    and the sparse pair transfer couples them into the four moment tensors.
    """

    grid: VelocityGrid
    c: float
    c1: float
    c2: float
    c3: float
    frame: np.ndarray         # (nv, 3) leaf frame, shared by both leaves
    pair_transfer: np.ndarray  # (3, 3, 4)

    @classmethod
    def build(cls, grid1: VelocityGrid, grid2: VelocityGrid) -> "MomentBasis2D":
        if (grid1.n != grid2.n or grid1.v_max != grid2.v_max
                or grid1.weight != grid2.weight):
            raise DimensionError("velocity grids and weights must match in both directions")
        g = grid1
        w, v, wp = g.w, g.v, g.w_points
        c1 = float(np.sqrt(np.sum(w)))
        c = float(np.dot(v**2, w)) / c1**2
        c2 = float(np.sqrt(np.dot(v**2, w)))
        c3 = float(np.sqrt(np.dot((v**2 - c) ** 2, w)))
        frame = np.column_stack([wp / c1, wp * v / c2, wp * (v**2 - c) / c3])
        bt = np.zeros((3, 3, 4))
        bt[0, 0, 0] = 1.0
        bt[1, 0, 1] = 1.0
        bt[0, 1, 2] = 1.0
        bt[2, 0, 3] = 1.0 / np.sqrt(2.0)
        bt[0, 2, 3] = 1.0 / np.sqrt(2.0)
        return cls(grid=g, c=c, c1=c1, c2=c2, c3=c3, frame=frame, pair_transfer=bt)


def ht_lift_moments(m: Moments2D, basis: MomentBasis2D, nx: tuple[int, int]) -> HtTensor:
    """Exact carrier tensor whose moments are m; all internal ranks are fixed."""
    b = basis
    ux = np.column_stack([
        m.rho.reshape(-1) / b.c1**2,
        m.J1.reshape(-1) / (b.c1 * b.c2),
        m.J2.reshape(-1) / (b.c1 * b.c2),
        np.sqrt(2.0) * (m.kappa.reshape(-1) - b.c * m.rho.reshape(-1)) / (b.c1 * b.c3),
    ])
    return HtTensor(ux, np.eye(4), b.pair_transfer.copy(), b.frame.copy(),
                    b.frame.copy(), nx, canonical=False)


def ht_remove_moments(f: HtTensor, basis: MomentBasis2D,
                      grids: tuple[VelocityGrid, VelocityGrid]) -> HtTensor:
    """Subtract the moment carrier of f, leaving a zero-moment tensor."""
    m = ht_moments(f, grids)
    return ht_add(f, ht_scale(ht_lift_moments(m, basis, f.nx), -1.0))


# ---------------------------------------------------------------------------
# transport right-hand side

def ht_transport_blocks(f: HtTensor, field: ElectricField, hx: tuple[float, float],
                        grids: tuple[VelocityGrid, VelocityGrid]) -> list[HtTensor]:
    """-(v1 d/dx1 + v2 d/dx2 + E1 d/dv1 + E2 d/dv2) f as eight separable terms.

    Each transport direction splits on the sign of its speed, applying the
    matching one-sided derivative to one frame and the sign-split multiplier
    to the other.  The blocks are returned unconcatenated so callers can feed
    them to the fused sum routines.
    """
    n1, n2 = f.nx
    e1, e2 = field.E
    v1, v2 = grids[0].v, grids[1].v
    ux_grid = f.Ux.reshape(n1, n2, -1)
    terms = []

    for bias, vpart in (("plus", np.maximum(v1, 0.0)), ("minus", np.minimum(v1, 0.0))):
        du = upwind_derivative(ux_grid, bias, hx[0], "periodic", axis=0)
        terms.append(replace(f, Ux=du.reshape(n1 * n2, -1), B=-f.B,
                             Uv1=vpart[:, None] * f.Uv1, canonical=False))
    for bias, vpart in (("plus", np.maximum(v2, 0.0)), ("minus", np.minimum(v2, 0.0))):
        du = upwind_derivative(ux_grid, bias, hx[1], "periodic", axis=1)
        terms.append(replace(f, Ux=du.reshape(n1 * n2, -1), B=-f.B,
                             Uv2=vpart[:, None] * f.Uv2, canonical=False))
    for bias, epart in (("plus", np.maximum(e1, 0.0)), ("minus", np.minimum(e1, 0.0))):
        mx = (ux_grid * epart[:, :, None]).reshape(n1 * n2, -1)
        dv = upwind_derivative(f.Uv1, bias, grids[0].h, "zero", axis=0)
        terms.append(replace(f, Ux=mx, B=-f.B, Uv1=dv, canonical=False))
    for bias, epart in (("plus", np.maximum(e2, 0.0)), ("minus", np.minimum(e2, 0.0))):
        mx = (ux_grid * epart[:, :, None]).reshape(n1 * n2, -1)
        dv = upwind_derivative(f.Uv2, bias, grids[1].h, "zero", axis=0)
        terms.append(replace(f, Ux=mx, B=-f.B, Uv2=dv, canonical=False))
    return terms

