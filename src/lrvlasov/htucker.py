"""Hierarchical tensor format for the 2D2V solution.

The dimension tree is fixed: the two spatial dimensions form a single
full-grid leaf (frame ``Ux`` over the flattened (x1, x2) index), the velocity
dimensions are separate leaves (``Uv1``, ``Uv2``) joined by the transfer
tensor ``Bvv``, and the root transfer ``B`` couples the spatial frame to the
velocity-pair columns:

    f[i, j1, j2] = sum_{lx, lv} Ux[i, lx] B[lx, lv]
                   * sum_{l1, l2} Bvv[l1, l2, lv] Uv1[j1, l1] Uv2[j2, l2]

Addition concatenates blocks exactly.  ``ht_truncate_sum`` is the one
truncation of a block sum, plain or, given the weights w at the nodes of the
velocity grid both leaves share, in the norm weighted by 1/(w(v1) w(v2)).  It
cuts three nodes (the root separation and the two velocity leaves) by their
singular spectra with per-node tolerance eps/sqrt(3), which bounds the total
error by eps in the Frobenius norm (Grasedyck's hierarchical SVD bound).  For
eps > 0 the root cut of a block sum comes from the 1D truncation's loop,
``lowrank._range_finder``, applied to the sum's (space | velocity pair)
matrix through the blocks' own factors, so the sum is never formed; one
subspace iteration then sharpens the frame.  Its fixed test matrix makes the
result a function of the input alone, so a resumed run repeats an
uninterrupted one bit for bit.  eps = 0
goes through the same stacked leaves and pair unfold, but forms the unfold
and takes the root spectrum exactly from Householder QRs and one small SVD;
only there does a floor of 1e-14 times the blocks' summed magnitude bounds
drop numerically zero directions.  Physical space is never compressed below
the stored spatial frame: its rank only changes through the root separation.
The large per-call arrays (the stacked spatial products, the pair Gram, their
Hadamard product and the pair unfold's block-by-block sum) come from the
grid's ``lowrank._workspace``, which the 1D truncation also draws on, so a
warm truncation faults in no fresh page; nothing returned aliases it.

Moments and KFVS fluxes are separable velocity-pair functionals, taken for
all blocks of a sum in one batched contraction (``_pair_fields``): one matrix
product per leaf, one per run of blocks sharing a Bvv, one spatial product per
block; the leaf columns are the read-only tables of the grids'
``projection.MomentBasis``, built once per grid.  ``ht_moments`` takes a
block list, like every sum routine here, and its moments come out in the
macroscopic state's layout, one stacked ``(4, n1, n2)`` array with rows rho,
J1, J2, kappa.  The transport blocks are built in ``formats``, which writes
that operator once for both formats.

The moment pin is written once for both formats, as ``formats.Problem.pin``,
over ``ht_moments``, ``ht_lift_moments`` and the weighted ``ht_truncate_sum``;
a pinned state's ranks are its remainder's plus the carrier's (4, 4, 3, 3).
The carrier's velocity leaves both hold the 1D ``projection.MomentBasis``
frame {1, v, v^2 - c}, coupled by one fixed pair transfer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .grids import VelocityGrid
from .lowrank import (DEFAULT_DROPTOL, _SKETCH_MARGIN, _check_shapes, _range_finder,
                      _weight_root, _workspace, keep_count)
from .projection import MomentBasis


@dataclass
class HtTensor:
    Ux: np.ndarray    # (n1*n2, r_x) spatial frame, full grid in space
    B: np.ndarray     # (r_x, r_v) root transfer
    Bvv: np.ndarray   # (r1, r2, r_v) velocity-pair transfer
    Uv1: np.ndarray   # (nv1, r1)
    Uv2: np.ndarray   # (nv2, r2)
    nx: tuple[int, int]

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
                    np.zeros((nv1, 0)), np.zeros((nv2, 0)), nx)


def ht_scale(f: HtTensor, a: float) -> HtTensor:
    return HtTensor(f.Ux, a * f.B, f.Bvv, f.Uv1, f.Uv2, f.nx)


def ht_add(*terms: HtTensor) -> HtTensor:
    """Exact sum by block concatenation; all hierarchical ranks add."""
    if not terms:
        raise ValueError("ht_add() needs at least one term")
    _check_shapes(terms)
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
    return HtTensor(np.hstack([t.Ux for t in terms]), b, bvv,
                    np.hstack([t.Uv1 for t in terms]), np.hstack([t.Uv2 for t in terms]),
                    terms[0].nx)


def scale_bound(f: HtTensor) -> float:
    """Frobenius-norm bound from block magnitudes; survives cancellation."""
    ux = np.linalg.norm(f.Ux, axis=0)
    u1 = np.linalg.norm(f.Uv1, axis=0)
    u2 = np.linalg.norm(f.Uv2, axis=0)
    pair = u2 @ np.tensordot(u1, np.abs(f.Bvv), axes=(0, 0))
    return float(ux @ np.abs(f.B) @ pair)


def _finish_truncation(ux, core, uv1, uv2, nx, tol, exact, sqrt_w):
    """Leaf cuts at tol on the root-weighted core, then re-orthonormalized
    assembly; ``exact`` takes the leaf spectra from SVDs, not Grams, and the
    leaves are scaled back by ``sqrt_w`` when it is given."""
    def leaf_cut(axis, frame):
        if exact:  # a Gram's squared spectrum blurs below sqrt(eps_mach)
            unfold = np.moveaxis(core, axis, 0).reshape(core.shape[axis], -1)
            vec, s, _ = np.linalg.svd(unfold, full_matrices=False)
        else:
            others = tuple(a for a in range(3) if a != axis)
            lam, vec = np.linalg.eigh(np.tensordot(core, core, axes=(others, others)))
            s = np.sqrt(np.maximum(lam[::-1], 0.0))
            vec = vec[:, ::-1]
        k = max(keep_count(s, tol), 1)
        return frame @ vec[:, :k], vec[:, :k]

    new_uv1, rot1 = leaf_cut(0, uv1)
    core = np.tensordot(rot1.T, core, axes=(1, 0))  # (k1, b, c)
    new_uv2, rot2 = leaf_cut(1, uv2)
    core = np.moveaxis(np.tensordot(rot2.T, core, axes=(1, 1)), 0, 1)  # (k1, k2, c)
    if sqrt_w is not None:
        new_uv1, new_uv2 = new_uv1 * sqrt_w[:, None], new_uv2 * sqrt_w[:, None]

    # restore orthonormal pair transfer; the root picks up the R factor
    mat = core.reshape(-1, core.shape[2])
    qv, rv = np.linalg.qr(mat)
    bvv = qv.reshape(core.shape[0], core.shape[1], -1)
    return HtTensor(ux, rv.T, bvv, new_uv1, new_uv2, nx)


_GRAM_NOISE = 4.0 * np.finfo(float).eps  # round-off per unit of summed absolute products


class _Runs:
    """Blocks reordered so that those sharing one Bvv object are contiguous.

    A step's f^n and its transport blocks share f^n's Bvv, so a contraction
    through the transfer tensors takes one matrix product per run of blocks,
    not one per block.  ``o1``, ``o2`` and ``ov`` are the blocks' offsets in
    the stacked Uv1, Uv2 and root columns.
    """

    def __init__(self, terms):
        runs = {}
        for t in terms:
            runs.setdefault(id(t.Bvv), []).append(t)
        self.terms = [t for run in runs.values() for t in run]
        self.runs = np.cumsum([0] + [len(run) for run in runs.values()])
        self.o1, self.o2, self.ov = (
            np.cumsum([0] + [t.Bvv.shape[i] for t in self.terms]) for i in range(3))

    def khatri_rao(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Root coefficients of p separable pair vectors, shape (sum r_v, p).

        x1 (sum r1, p) and x2 (sum r2, p) hold the vectors' leaf factors
        contracted with the stacked leaf columns; row block t of the result
        is sum_{a, b} x1[o1_t + a, j] x2[o2_t + b, j] Bvv_t[a, b, :].  Per run
        the Khatri-Rao products of the blocks' leaf coordinates go through the
        shared Bvv in one matrix product.
        """
        p = x1.shape[1]
        out = []
        for lo, hi in zip(self.runs[:-1], self.runs[1:]):
            bvv = self.terms[lo].Bvv
            a, b, k = bvv.shape
            m = hi - lo
            y1 = x1[self.o1[lo]:self.o1[hi]].reshape(m, a, p).transpose(1, 0, 2)
            y2 = x2[self.o2[lo]:self.o2[hi]].reshape(m, b, p).transpose(1, 0, 2)
            kr = (y1[:, None] * y2[None]).reshape(a * b, m * p)
            z = bvv.reshape(a * b, k).T @ kr
            out.append(z.reshape(k, m, p).transpose(1, 0, 2).reshape(m * k, p))
        return np.vstack(out)


class _PairUnfold(_Runs):
    """Pair unfold of a block sum in the stacked leaf bases, never formed.

    Column block t is term t's Bvv with its first two indices mapped through
    the term's blocks of the stacked leaf R factors, so the matrix has
    n1 * n2 rows (the velocity pair in the q1 o q2 basis) and one column per
    term and root index.  The Gram and the sketch take a few matrix products
    per term and run of terms sharing one Bvv, not per pair of terms.  The
    Gram and the unfold are written into the grid's workspace ``ws``.
    """

    def __init__(self, terms):
        super().__init__(terms)
        self.ws = _workspace(*terms[0].shape)
        self.q1, self.r1 = np.linalg.qr(np.hstack([t.Uv1 for t in self.terms]))
        self.q2, self.r2 = np.linalg.qr(np.hstack([t.Uv2 for t in self.terms]))

    def _leaves(self, s: int) -> tuple[np.ndarray, np.ndarray]:
        return (self.r1[:, self.o1[s]:self.o1[s + 1]], self.r2[:, self.o2[s]:self.o2[s + 1]])

    def gram(self) -> np.ndarray:
        """mat^T mat from the leaf R factors, one term against each later run.

        Block (s, t) is sum Bvv_s[a, b, k] G1[s a, t c] G2[s b, t d]
        Bvv_t[c, d, l] with G1, G2 the stacked leaves' Grams; the lower
        triangle follows by symmetry.
        """
        n = self.ov[-1]
        gv = self.ws.take("gv", n, n)
        for s, ts in enumerate(self.terms):
            a, b, k = ts.Bvv.shape
            r1s, r2s = self._leaves(s)
            rows = slice(self.ov[s], self.ov[s + 1])
            for lo, hi in zip(self.runs[:-1], self.runs[1:]):
                if hi <= s:
                    continue
                lo = max(lo, s)
                bt = self.terms[lo].Bvv
                c, d, l = bt.shape
                m = hi - lo
                # y[t, (c, b), k] = sum_a G1[s a, t c] Bvv_s[a, b, k]
                y = (self.r1[:, self.o1[lo]:self.o1[hi]].T @ r1s) @ ts.Bvv.reshape(a, -1)
                # u[t, (c, b), l] = sum_d G2[s b, t d] Bvv_t[c, d, l]
                g2 = r2s.T @ self.r2[:, self.o2[lo]:self.o2[hi]]
                u = np.matmul(g2.reshape(b, m, d).transpose(1, 0, 2)[:, None], bt)
                block = np.matmul(y.reshape(m, c * b, k).transpose(0, 2, 1),
                                  u.reshape(m, c * b, l))
                gv[rows, self.ov[lo]:self.ov[hi]] = block.transpose(1, 0, 2).reshape(k, -1)
            gv[self.ov[s + 1]:, rows] = gv[rows, self.ov[s + 1]:].T
        return gv

    def rmatmul(self, omega1: np.ndarray, omega2: np.ndarray) -> np.ndarray:
        """mat^T (omega1 . omega2): column j of the test matrix is the
        Khatri-Rao column omega1[:, j] (x) omega2[:, j], contracted leaf by
        leaf, so it is never formed."""
        return self.khatri_rao(self.r1.T @ omega1, self.r2.T @ omega2)

    def matmul(self, w: np.ndarray) -> np.ndarray:
        """mat w as an (n1, n2, k) core, summed block by block in place."""
        shape = (self.r1.shape[0], self.r2.shape[0], w.shape[1])
        core, part = self.ws.take("core", *shape), self.ws.take("core_part", *shape)
        for s, ts in enumerate(self.terms):
            a, b, _ = ts.Bvv.shape
            r1s, r2s = self._leaves(s)
            x = (ts.Bvv.reshape(a * b, -1) @ w[self.ov[s]:self.ov[s + 1]]).reshape(a, -1)
            x = (r1s @ x).reshape(-1, b, w.shape[1])
            if s == 0:
                np.matmul(r2s, x, out=core)
            else:
                np.add(core, np.matmul(r2s, x, out=part), out=core)
        return core


def ht_truncate_sum(terms, eps: float, w_points=None) -> HtTensor:
    """Hierarchical truncation of sum(terms), total Frobenius error <= eps,
    taken in the norm weighted by 1/(w(v1) w(v2)) when ``w_points`` (w at the
    nodes of the velocity grid both leaves share) is given: the leaves are
    scaled by 1/sqrt(w) before the cut and by sqrt(w) after it.

    eps > 0: the spatial frame comes from ``lowrank._range_finder`` on the
    root matricization M = Ux_cat blockdiag(B_t) mat^T (rows: space;
    columns: velocity pair), where mat is the pair unfold in the stacked leaf
    bases.  M is only ever applied (``_PairUnfold``): a test column's first
    n1 rows and the rest are the leaf vectors of omega_1 (x) omega_2, applied
    leaf by leaf (the per-leaf sketch of Al Daas et al., SISC 2023, for
    tensor-train sums).  The kept count is the fewest singular values, from
    the p x p Gram (Q^T M)(Q^T M)^T, whose tail plus what the frame misses,
    ||M||_F^2 - sum of s^2 (exact, from the spatial and pair Grams; nothing
    at the rank bound of M), is within eps/sqrt(3), or within the Gram
    products' round-off (4 machine eps times their absolute sum) where
    cancelling blocks put eps/sqrt(3) beneath it.  One subspace iteration,
    Q <- orth(M M^T Q), which costs only products with the Grams, then
    sharpens the frame near the cut; it replaces Q where its own exact tail
    allows no larger kept rank.  The kept frame Q U and the pair core are
    orthonormal, so no re-canonicalization follows.  Both velocity leaves are
    then cut at eps/sqrt(3) from the core's Grams.

    eps = 0 forms the pair unfold, mat = ``_PairUnfold.matmul(I)``, and
    takes the root spectrum exactly, from the SVD of R_x R_m^T after
    Householder QRs of Xb and mat.  Its only cut, at the root and at both
    leaves (SVDs of the core's unfoldings), is the floor 1e-14 * sum of the
    blocks' ``scale_bound``, which drops numerically zero directions.
    """
    if eps < 0:
        raise DomainError(f"truncation threshold must be >= 0, got {eps}")
    terms = list(terms)
    _check_shapes(terms)
    nx = terms[0].nx
    nv1, nv2 = terms[0].Uv1.shape[0], terms[0].Uv2.shape[0]
    sqrt_w = _weight_root(w_points, nv1, nv2)
    terms = [t for t in terms if min(t.ranks) > 0]  # zero blocks add nothing
    if sqrt_w is not None:
        terms = [HtTensor(t.Ux, t.B, t.Bvv, t.Uv1 / sqrt_w[:, None], t.Uv2 / sqrt_w[:, None],
                          t.nx) for t in terms]
    if not terms:
        return ht_zero(nx, nv1, nv2)
    pair = _PairUnfold(terms)
    ws = pair.ws
    xb = ws.take("xb", nx[0] * nx[1], pair.ov[-1])
    for s, t in enumerate(pair.terms):
        np.matmul(t.Ux, t.B, out=xb[:, pair.ov[s]:pair.ov[s + 1]])
    n1, n2 = pair.q1.shape[1], pair.q2.shape[1]

    if eps == 0.0:
        # M = Xb mat^T: the root spectrum is that of R_x R_m^T
        tol = DEFAULT_DROPTOL * sum(scale_bound(t) for t in terms)
        qx, rx = np.linalg.qr(xb)
        qm, rm = np.linalg.qr(pair.matmul(np.eye(xb.shape[1])).reshape(n1 * n2, -1))
        u, s, vt = np.linalg.svd(rx @ rm.T, full_matrices=False)
        keep = keep_count(s, tol)
        if keep == 0:
            return ht_zero(nx, nv1, nv2)
        core = (qm @ (vt[:keep].T * s[:keep])).reshape(n1, n2, keep)
        return _finish_truncation(qx @ u[:, :keep], core, pair.q1, pair.q2, nx, tol,
                                  exact=True, sqrt_w=sqrt_w)

    tol = eps / np.sqrt(3.0)
    gv = pair.gram()
    products = np.matmul(xb.T, xb, out=ws.take("products", *gv.shape))
    np.multiply(products, gv, out=products)
    norm2 = float(products.sum())
    # blocks that cancel leave ||M||^2 far below the products it sums, whose
    # round-off sets the finest tail the Grams can tell from zero
    cut2 = max(tol ** 2, _GRAM_NOISE * float(np.abs(products, out=products).sum()))
    if norm2 <= cut2:
        return ht_zero(nx, nv1, nv2)
    most = min(xb.shape[0], xb.shape[1], n1 * n2)

    def count(q):  # also Q^T Xb and the eigenpairs of (Q^T M)(Q^T M)^T, largest first
        z = q.T @ xb
        lam, vec = np.linalg.eigh(z @ gv @ z.T)
        lam, vec = np.maximum(lam[::-1], 0.0), vec[:, ::-1]
        missed = max(norm2 - lam.sum(), 0.0) if q.shape[1] < most else 0.0
        return keep_count(np.sqrt(lam), np.sqrt(cut2), missed), (z, vec, lam)

    q, keep, (z, vec, lam) = _range_finder(
        lambda omega: xb @ pair.rmatmul(omega[:n1], omega[n1:]), count, n1 + n2,
        max(t.Ux.shape[1] for t in terms) + _SKETCH_MARGIN, most)
    # lam[k] <= s_k(M)^2 <= the best tail after k kept, so a fewer-kept cut
    # can exist only if lam[keep - 1] <= cut2; then one subspace iteration,
    # M M^T Q = Xb gv (Q^T Xb)^T, sharpens the frame near the cut and is kept
    # where it cuts no later
    if q.shape[1] < most and lam[keep - 1] <= cut2:
        sharp = np.linalg.qr(xb @ (gv @ z.T))[0]
        keep2, (sharp_z, vec2, _) = count(sharp)
        if keep2 <= keep:
            q, z, keep, vec = sharp, sharp_z, keep2, vec2
    ux = q @ vec[:, :keep]
    core = pair.matmul(z.T @ vec[:, :keep])
    return _finish_truncation(ux, core, pair.q1, pair.q2, nx, tol, exact=False, sqrt_w=sqrt_w)


# ---------------------------------------------------------------------------
# moments and the moment-conserving carrier

def _pair_fields(terms, leaf1: np.ndarray, leaf2: np.ndarray,
                 weights: np.ndarray) -> np.ndarray:
    """Spatial fields sum_t sum_q weights[q, m] <leaf1[:, q] (x) leaf2[:, q], t>.

    Column q of ``leaf1`` and ``leaf2`` is one separable velocity-pair
    functional; the result has one (n1, n2) field per column of ``weights``.
    One matrix product per leaf contracts every functional with every block's
    frame, one per run of blocks sharing a Bvv maps them to root
    coefficients, and one spatial product per block adds its fields in.
    """
    nx = terms[0].nx
    out = np.zeros((weights.shape[1], nx[0] * nx[1]))
    terms = [t for t in terms if min(t.ranks) > 0]  # zero blocks add nothing
    if terms:
        runs = _Runs(terms)
        x1 = np.hstack([t.Uv1 for t in runs.terms]).T @ leaf1
        x2 = np.hstack([t.Uv2 for t in runs.terms]).T @ leaf2
        coeffs = runs.khatri_rao(x1, x2) @ weights
        for s, t in enumerate(runs.terms):
            out += (t.B @ coeffs[runs.ov[s]:runs.ov[s + 1]]).T @ t.Ux.T
    return out.reshape(-1, *nx)


# rho, J1, J2, kappa from the pair functionals 1 1, v1 1, 1 v2, v1^2 1, 1 v2^2
_MOMENT_WEIGHTS = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                            [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.5],
                            [0.0, 0.0, 0.0, 0.5]])


def _moment_leaves(terms, grids: tuple[VelocityGrid, VelocityGrid]):
    """The grids' ``pair_moments`` leaves, checked against the terms."""
    g1, g2 = grids
    for t in terms:
        if t.Uv1.shape[0] != g1.n or t.Uv2.shape[0] != g2.n:
            raise DimensionError("velocity frames do not match grids")
    return MomentBasis.build(g1).pair_moments[0], MomentBasis.build(g2).pair_moments[1]


def ht_moments(terms, grids: tuple[VelocityGrid, VelocityGrid]) -> np.ndarray:
    """(rho, J1, J2, kappa) of sum(terms) stacked, (4, n1, n2), all blocks in
    one batched contraction; the velocity pair is never densified, only
    contracted leaf by leaf through the transfer tensors."""
    terms = list(terms)
    return _pair_fields(terms, *_moment_leaves(terms, grids), _MOMENT_WEIGHTS)


# the pair transfer of every carrier: leaf pairs (1, 1), (v, 1), (1, v) and
# (v^2 - c, 1), (1, v^2 - c) give the four orthonormal moment tensors
_PAIR_TRANSFER = np.zeros((3, 3, 4))
_PAIR_TRANSFER[[0, 1, 0, 2, 0], [0, 0, 1, 0, 2], [0, 1, 2, 3, 3]] = (
    1.0, 1.0, 1.0, 1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0))
_PAIR_TRANSFER.flags.writeable = False


def ht_lift_moments(m: np.ndarray, basis: MomentBasis) -> HtTensor:
    """Exact carrier tensor whose moments are m, (4, n1, n2); all internal
    ranks are fixed.

    Both velocity leaves hold the frame {1, v, v^2 - c} of ``basis``, weight
    scaled and normalized by the basis norms."""
    norms = np.sqrt([basis.norm1_sq, basis.norm2_sq, basis.norm3_sq])
    c1, c2, c3 = norms
    frame = basis.frame / norms
    rho, j1, j2, kappa = m.reshape(4, -1)
    ux = np.column_stack([
        rho / c1**2,
        j1 / (c1 * c2),
        j2 / (c1 * c2),
        np.sqrt(2.0) * (kappa - basis.c * rho) / (c1 * c3),
    ])
    return HtTensor(ux, np.eye(4), _PAIR_TRANSFER, frame, frame, m.shape[1:])

