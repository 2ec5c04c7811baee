"""Hierarchical tensor format for the 2D2V solution.

The dimension tree is fixed: the two spatial dimensions form a single
full-grid leaf (frame ``Ux`` over the flattened (x1, x2) index), the velocity
dimensions are separate leaves (``Uv1``, ``Uv2``) joined by the transfer
tensor ``Bvv``, and the root transfer ``B`` couples the spatial frame to the
velocity-pair columns:

    f[i, j1, j2] = sum_{lx, lv} Ux[i, lx] B[lx, lv]
                   * sum_{l1, l2} Bvv[l1, l2, lv] Uv1[j1, l1] Uv2[j2, l2]

Addition concatenates blocks exactly.  ``ht_truncate_sum`` is the one
truncation of a block sum: plain, or, given the weight's roots and the
carriers' frame, the pin's cut, which truncates the sum's part orthogonal to
the carriers' moment span in the norm weighted by 1/(w(v1) w(v2)), w at the
nodes of the velocity grid both leaves share.  The projection off that span
enters the squared norm and the pair Gram once, and the sketch and the core
as rank-4 corrections.  The blocks' velocity leaves are stacked and each
stack is divided by sqrt(w) once, so every block's leaf columns are scaled
alike whether or not blocks share a leaf array.  Each velocity leaf is taken
in the grid's own coordinates, where the frame's columns are the moment
span's leaf functionals.  A truncation cuts three nodes (the root separation
and the two velocity leaves) by their singular spectra; Grasedyck's
hierarchical SVD bound keeps the total error within eps in the Frobenius norm
when the squared tails add up to at most eps^2.  Each leaf is cut at
eps/sqrt(3), and the root at what the two leaves leave of eps^2, which is at
least eps^2/3.  For eps > 0 the root's directions come from the 1D
truncation's loop, ``lowrank._range_finder``, applied to the sum's (space |
velocity pair) matrix through the blocks' own factors, so the sum is never
formed; one subspace iteration then sharpens the frame.  Its fixed test
matrix makes the result a function of the input alone, so a resumed run
repeats an uninterrupted one bit for bit.  eps = 0 goes through the same stacked leaves
and pair unfold, forms the root matricization and counts it exactly with
the 1D truncation itself, ``lowrank.truncate_sum`` at eps = 0; only there
does a floor of 1e-14 times a magnitude bound drop numerically zero
directions.  Physical space is never compressed below the stored spatial
frame: its rank only changes through the root separation.
The large per-call arrays (the stacked spatial products, the pair Gram, their
Hadamard product and the pair unfold's block-by-block sum) come from the
grid's ``lowrank._workspace``, which the 1D truncation also draws on, so a
warm truncation faults in no fresh page; nothing returned aliases it.

Moments and KFVS fluxes are separable velocity-pair functionals, taken for
all blocks of a sum in the format's one batched contraction, ``pair_fields``:
one matrix product per leaf, one per run of blocks sharing a Bvv, one spatial
product per block.  Its leaf columns and weight maps are the read-only tables
of ``projection.MomentBasis``, built once per grid; ``formats.Problem`` takes
the moments and fluxes through it.  The transport blocks are built in
``formats``, which writes that operator once for both formats.

The moment pin is written once for both formats, as ``formats.Problem.pin``,
over the projected ``ht_truncate_sum``, the moments of its remainder (the
leaf cuts' leak) and ``ht_lift_moments``; a pinned state's ranks are its
remainder's plus the carrier's (4, 4, 3, 3).  The carrier's velocity leaves
both hold the 1D ``projection.MomentBasis`` frame {1, v, v^2 - c}, coupled by
one fixed pair transfer; in the 1/w-weighted coordinates it is the
orthogonal projection onto the moment span that the cut projects off.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import lowrank
from .errors import DimensionError, DomainError
from .lowrank import (DEFAULT_DROPTOL, _SKETCH_MARGIN, _check_shapes, _gram_spectrum,
                      _range_finder, _workspace, keep_count)
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
    return HtTensor(np.concatenate([t.Ux for t in terms], axis=1), b, bvv,
                    np.concatenate([t.Uv1 for t in terms], axis=1),
                    np.concatenate([t.Uv2 for t in terms], axis=1), terms[0].nx)


def _cut_leaves(core, spans, tol, exact):
    """Both velocity leaves cut at tol on the root-weighted core (n1, n2, c)
    in the grid's coordinates, the second after the first: (new uv1, new
    uv2, the (k1, k2, c) core in them, the two discarded squared tails
    summed).  ``exact`` takes the leaf spectra from SVDs, not Grams; each
    leaf's Gram is the symmetric product of the core's unfolding for it with
    its own transpose.  A cut leaf is its rotation, of at most ``spans``
    columns: the dimensions of the spaces the unfoldings lie in, past which
    a spectrum holds only round-off."""
    def leaf_cut(unfold, span):
        if exact:  # a Gram's squared spectrum blurs below sqrt(eps_mach)
            vec, s, _ = np.linalg.svd(unfold, full_matrices=False)
        else:
            lam, vec = _gram_spectrum(unfold @ unfold.T)
            s = np.sqrt(lam)
        k = min(max(keep_count(s, tol), 1), span)
        return vec[:, :k], float(s[k:] @ s[k:])

    _, l, c = core.shape
    first = core.reshape(core.shape[0], -1)  # (n1, (n2, c))
    uv1, tail1 = leaf_cut(first, spans[0])
    core = np.dot(uv1.T, first).reshape(-1, l, c)  # (k1, n2, c)
    k1 = core.shape[0]
    second = core.transpose(1, 0, 2).reshape(l, -1)  # (n2, (k1, c)), formed
    uv2, tail2 = leaf_cut(second, spans[1])
    core = np.dot(uv2.T, second).reshape(-1, k1, c).transpose(1, 0, 2)  # (k1, k2, c)
    return uv1, uv2, core, tail1 + tail2


def _finish_truncation(ux, core, uv1, uv2, nx, sqrt_w):
    """Re-orthonormalized assembly of the cut nodes, the leaves scaled back
    by ``sqrt_w`` when it is given."""
    if sqrt_w is not None:
        uv1, uv2 = uv1 * sqrt_w[:, None], uv2 * sqrt_w[:, None]
    # restore orthonormal pair transfer; the root picks up the R factor
    mat = core.reshape(-1, core.shape[2])
    qv, rv = np.linalg.qr(mat)
    bvv = qv.reshape(core.shape[0], core.shape[1], -1)
    return HtTensor(ux, rv.T, bvv, uv1, uv2, nx)


_GRAM_NOISE = 4.0 * np.finfo(float).eps  # round-off per unit of summed absolute products


class _Runs:
    """Blocks reordered so that those sharing one Bvv object are contiguous.

    A step's f^n and its transport blocks share f^n's Bvv, so a contraction
    through the transfer tensors takes one matrix product per run of blocks,
    not one per block.  ``runs`` holds the runs' bounds in ``terms``, and
    ``o1``, ``o2`` and ``ov`` the blocks' offsets in the stacked Uv1, Uv2 and
    root columns, all as Python ints.
    """

    def __init__(self, terms):
        runs = {}
        for t in terms:
            runs.setdefault(id(t.Bvv), []).append(t)
        self.terms = [t for run in runs.values() for t in run]
        self.runs = list(accumulate(map(len, runs.values()), initial=0))
        self.o1, self.o2, self.ov = (list(accumulate(sizes, initial=0))
                                     for sizes in zip(*(t.Bvv.shape for t in self.terms)))

    def khatri_rao(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Root coefficients of p separable pair vectors, shape (sum r_v, p).

        x1 (sum r1, p) and x2 (sum r2, p) hold the vectors' leaf factors
        contracted with the stacked leaf columns; row block t of the result
        is sum_{a, b} x1[o1_t + a, j] x2[o2_t + b, j] Bvv_t[a, b, :].  Per run
        the Khatri-Rao products of the blocks' leaf coordinates go through the
        shared Bvv in one matrix product, written into its rows of the result.
        """
        p = x1.shape[1]
        out = np.empty((self.ov[-1], p))
        for lo, hi in zip(self.runs, self.runs[1:]):
            bvv = self.terms[lo].Bvv
            a, b, k = bvv.shape
            m = hi - lo
            # each leaf's coordinates formed as (a, m p), so the product runs
            # along rows of m p, not of p
            y1 = x1[self.o1[lo]:self.o1[hi]].reshape(m, a, p).transpose(1, 0, 2)
            y2 = x2[self.o2[lo]:self.o2[hi]].reshape(m, b, p).transpose(1, 0, 2)
            kr = (y1.reshape(a, 1, m * p) * y2.reshape(1, b, m * p)).reshape(a * b, m * p)
            z = (bvv.reshape(a * b, k).T @ kr).reshape(k, m, p)
            out[self.ov[lo]:self.ov[hi]].reshape(m, k, p)[...] = z.transpose(1, 0, 2)
        return out


# the pair transfer of every carrier: leaf pairs (1, 1), (v, 1), (1, v) and
# (v^2 - c, 1), (1, v^2 - c) of the orthonormal frame {F_1, F_v, F_kappa}
# give the four orthonormal moment tensors F_1 F_1, F_v F_1, F_1 F_v and
# (F_kappa F_1 + F_1 F_kappa) / sqrt(2), which span Pi; pair functional q of
# the moment span is leaf column _PI_LEAVES[0][q] against _PI_LEAVES[1][q],
# and _PI_WEIGHTS maps the five to the four
_PI_LEAVES = ([0, 1, 0, 2, 0], [0, 0, 1, 0, 2])
_PAIR_TRANSFER = np.zeros((3, 3, 4))
_PAIR_TRANSFER[(*_PI_LEAVES, [0, 1, 2, 3, 3])] = (
    1.0, 1.0, 1.0, 1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0))
_PAIR_TRANSFER.flags.writeable = False
_PI_WEIGHTS = _PAIR_TRANSFER[_PI_LEAVES]
_PI_WEIGHTS.flags.writeable = False


class _PairUnfold(_Runs):
    """Pair unfold of a block sum on the velocity grid, never formed.

    Column block t is term t's Bvv with its first two indices mapped through
    the term's columns of the stacked leaves ``r1``, ``r2``, so the matrix
    has n1 * n2 rows (the velocity pair on the grid) and one column per term
    and root index.  The Gram and the sketch take a few matrix products
    per term and run of terms sharing one Bvv, not per pair of terms.  The
    Gram and the unfold are written into the grid's workspace ``ws``.

    Given ``sqrt_w``, the stacked leaves are divided by it once, which puts
    the sum in the 1/w-weighted coordinates.  Given a leaf ``frame``, ``pi``
    holds the moment span Pi's leaf functionals, columns of the frame, ``c``
    = mat^T Pi (the pin's cut), and ``rmatmul`` and ``matmul`` apply the
    unfold projected off Pi, whose Gram is gram() - c c^T.
    """

    def __init__(self, terms, frame=None, sqrt_w=None):
        super().__init__(terms)
        self.ws = _workspace(*terms[0].shape)
        self.r1 = np.concatenate([t.Uv1 for t in self.terms], axis=1)
        self.r2 = np.concatenate([t.Uv2 for t in self.terms], axis=1)
        if sqrt_w is not None:
            for stack in (self.r1, self.r2):
                np.divide(stack, sqrt_w[:, None], out=stack)
        self.pi = self.c = None
        if frame is not None:
            self.pi = (frame[:, _PI_LEAVES[0]], frame[:, _PI_LEAVES[1]])
            self.c = self.khatri_rao(self.r1.T @ self.pi[0], self.r2.T @ self.pi[1]) @ _PI_WEIGHTS

    def gram(self) -> np.ndarray:
        """mat^T mat from the stacked leaves, one term against each later run.

        Block (s, t) is sum Bvv_s[a, b, k] G1[s a, t c] G2[s b, t d]
        Bvv_t[c, d, l] with G1, G2 the stacked leaves' Grams; the lower
        triangle follows by symmetry.
        """
        r1, r2, o1, o2, ov = self.r1, self.r2, self.o1, self.o2, self.ov
        n = ov[-1]
        gv = self.ws.take("gv", n, n)
        for s, ts in enumerate(self.terms):
            a, b, k = ts.Bvv.shape
            r1s, r2s = r1[:, o1[s]:o1[s + 1]], r2[:, o2[s]:o2[s + 1]]
            bvv_s = ts.Bvv.reshape(a, -1)
            for lo, hi in zip(self.runs, self.runs[1:]):
                if hi <= s:
                    continue
                lo = max(lo, s)
                bt = self.terms[lo].Bvv
                c, d, l = bt.shape
                m = hi - lo
                # y[t, (c, b), k] = sum_a G1[s a, t c] Bvv_s[a, b, k]
                y = (r1[:, o1[lo]:o1[hi]].T @ r1s) @ bvv_s
                # u[t, (c, b), l] = sum_d G2[s b, t d] Bvv_t[c, d, l]
                g2 = r2s.T @ r2[:, o2[lo]:o2[hi]]
                u = np.matmul(g2.reshape(b, m, d).transpose(1, 0, 2)[:, None], bt)
                # written straight into gv's (k, l) blocks, each one BLAS product
                out = gv[ov[s]:ov[s + 1], ov[lo]:ov[hi]].reshape(k, m, l).transpose(1, 0, 2)
                np.matmul(y.reshape(m, c * b, k).transpose(0, 2, 1), u.reshape(m, c * b, l),
                          out=out)
            gv[ov[s + 1]:, ov[s]:ov[s + 1]] = gv[ov[s]:ov[s + 1], ov[s + 1]:].T
        return gv

    def rmatmul(self, omega1: np.ndarray, omega2: np.ndarray) -> np.ndarray:
        """mat^T (omega1 . omega2), projected off Pi given a frame: column j
        of the test matrix is the Khatri-Rao column omega1[:, j] (x)
        omega2[:, j], contracted leaf by leaf, so it is never formed, and its
        Pi coordinates come from the five leaf functionals the same way."""
        out = self.khatri_rao(self.r1.T @ omega1, self.r2.T @ omega2)
        if self.c is not None:
            out -= self.c @ (_PI_WEIGHTS.T @ ((self.pi[0].T @ omega1) * (self.pi[1].T @ omega2)))
        return out

    def matmul(self, w: np.ndarray) -> np.ndarray:
        """mat w as an (n1, n2, k) core, summed block by block in place and
        projected off Pi given a frame."""
        r1, r2, o1, o2, ov = self.r1, self.r2, self.o1, self.o2, self.ov
        p = w.shape[1]
        shape = (r1.shape[0], r2.shape[0], p)
        core, part = self.ws.take("core", *shape), self.ws.take("core_part", *shape)
        for s, ts in enumerate(self.terms):
            a, b, _ = ts.Bvv.shape
            x = (ts.Bvv.reshape(a * b, -1) @ w[ov[s]:ov[s + 1]]).reshape(a, -1)
            x = (r1[:, o1[s]:o1[s + 1]] @ x).reshape(-1, b, p)
            if s == 0:
                np.matmul(r2[:, o2[s]:o2[s + 1]], x, out=core)
            else:
                np.add(core, np.matmul(r2[:, o2[s]:o2[s + 1]], x, out=part), out=core)
        if self.c is not None:  # core -= Pi (C^T w), one leaf functional at a time
            pi1, pi2 = self.pi
            y = pi2.T[:, :, None] * (_PI_WEIGHTS @ (self.c.T @ w))[:, None]
            core -= (pi1 @ y.reshape(pi1.shape[1], -1)).reshape(shape)
        return core


def ht_truncate_sum(terms, eps: float, sqrt_w=None, frame=None) -> HtTensor:
    """Hierarchical truncation of sum(terms), total Frobenius error <= eps,
    in the norm weighted by 1/(w(v1) w(v2)) when ``sqrt_w`` = sqrt(w(v_j))
    is given, of the part of the sum orthogonal in that norm to the moment
    span Pi = {F_1 F_1, F_v F_1, F_1 F_v, (F_kappa F_1 + F_1 F_kappa) /
    sqrt(2)} of the orthonormal (nv, 3) ``frame`` when it is given.

    eps > 0: the spatial frame comes from ``lowrank._range_finder`` on the
    root matricization M = Ux_cat blockdiag(B_t) mat^T (rows: space;
    columns: velocity pair), where mat is the pair unfold on the velocity
    grid.  M is only ever applied (``_PairUnfold``): a test column's first
    nv1 rows and the rest are the leaf vectors of omega_1 (x) omega_2,
    applied leaf by leaf (the per-leaf sketch of Al Daas et al., SISC 2023,
    for tensor-train sums).  The kept count is the fewest singular values,
    from the p x p Gram (Q^T M)(Q^T M)^T, whose tail plus what the frame
    misses, ||M||_F^2 - sum of s^2 (exact, from the spatial and pair Grams;
    nothing at the rank bound of M), is within eps/sqrt(3), or within the
    Gram products' round-off (4 machine eps times their absolute sum) where
    cancelling blocks put eps/sqrt(3) beneath it.  One subspace iteration,
    Q <- orth(M M^T Q), which costs only products with the Grams, then
    sharpens the frame near the cut; it replaces Q where its own exact tail
    allows no larger kept rank.  Both velocity leaves are then cut at
    eps/sqrt(3) from the core's Grams, and the root is cut again, to the
    fewest of the counted directions whose exact tail squared is within
    eps^2 minus the two leaves' discarded squared tails (never finer than
    that round-off floor): the leaves' spectra have gaps and seldom spend
    their share.  The kept frame Q U and the pair core are orthonormal, so
    no re-canonicalization follows.

    eps = 0 forms M, with mat = ``_PairUnfold.matmul(I)``, and counts it
    exactly with ``lowrank.truncate_sum`` at eps = 0, whose explicit
    residual and droptol floor drop only numerically zero directions; both
    leaves are then cut by SVDs of the core's unfoldings at 1e-14 times the
    kept root's norm.

    Given a frame, the cut applies I - Pi Pi^T through C = mat^T Pi.  It
    enters ||M||^2 (whose round-off floor adds ||Xb C||^2) and the pair Gram
    once, gv <- gv - C C^T, so the count's Gram and the subspace iteration
    read the projected Gram as they would an unprojected one; the sketch and
    the core keep their rank-4 corrections; eps = 0 projects the formed
    unfold.  Pi is not a product of leaf projectors, so the leaf cuts leak
    into it within their error (round-off at eps = 0); the pin lifts that
    leak.  Only the lengths of ``sqrt_w`` and ``frame`` are checked: the
    caller builds them once per grid (positive roots, orthonormal columns).
    """
    if eps < 0:
        raise DomainError(f"truncation threshold must be >= 0, got {eps}")
    terms = list(terms)
    _check_shapes(terms)
    nx, (nv1, nv2) = terms[0].nx, terms[0].shape[2:]
    if any(a is not None and a.shape[0] != n for a in (sqrt_w, frame) for n in (nv1, nv2)):
        raise DimensionError("weight or frame length does not match velocity leaves")
    terms = [t for t in terms if min(t.ranks) > 0]  # zero blocks add nothing
    if not terms:
        return ht_zero(nx, nv1, nv2)
    pair = _PairUnfold(terms, frame, sqrt_w)
    ws = pair.ws
    xb = ws.take("xb", nx[0] * nx[1], pair.ov[-1])
    for s, t in enumerate(pair.terms):
        np.matmul(t.Ux, t.B, out=xb[:, pair.ov[s]:pair.ov[s + 1]])
    # each leaf of the core lies in its stacked columns' span, and the
    # frame's when the unfold is projected
    spans = [r.shape[1] + (0 if frame is None else frame.shape[1]) for r in (pair.r1, pair.r2)]

    if eps == 0.0:  # the exact count of M = Xb mat^T is the 1D loop's
        cols = xb.shape[1]
        mat = pair.matmul(np.eye(cols)).reshape(nv1 * nv2, cols)
        root = lowrank.truncate_sum([lowrank.LowRankMatrix(np.ones(cols), xb, mat)], 0.0)
        if root.rank == 0:
            return ht_zero(nx, nv1, nv2)
        core = (root.Uv * root.C).reshape(nv1, nv2, -1)
        tol = DEFAULT_DROPTOL * float(np.linalg.norm(root.C))  # of the kept root
        uv1, uv2, core, _ = _cut_leaves(core, spans, tol, exact=True)
        return _finish_truncation(root.Ux, core, uv1, uv2, nx, sqrt_w)

    tol = eps / np.sqrt(3.0)
    gv = pair.gram()
    products = np.matmul(xb.T, xb, out=ws.take("products", *gv.shape))
    np.multiply(products, gv, out=products)
    norm2 = float(products.sum())
    moment2 = 0.0
    if pair.c is not None:  # ||Xb C||^2 off ||M||^2, C C^T off the pair Gram
        moment2 = float(np.sum((xb @ pair.c) ** 2))
        norm2 -= moment2
        gv -= pair.c @ pair.c.T
    # blocks that cancel, or a sum mostly in Pi, leave ||M||^2 far below the
    # products it sums, whose round-off sets the finest tail the Grams can
    # tell from zero
    cut2 = max(tol ** 2,
               _GRAM_NOISE * (float(np.abs(products, out=products).sum()) + moment2))
    if norm2 <= cut2:
        return ht_zero(nx, nv1, nv2)
    most = min(xb.shape[0], xb.shape[1], nv1 * nv2)

    def count(q):  # also Q^T Xb and the eigenpairs of (Q^T M)(Q^T M)^T
        z = q.T @ xb
        lam, vec = _gram_spectrum(z @ gv @ z.T)
        missed = max(norm2 - lam.sum(), 0.0) if q.shape[1] < most else 0.0
        return keep_count(np.sqrt(lam), np.sqrt(cut2), missed), (z, vec, lam, missed)

    q, keep, (z, vec, lam, missed) = _range_finder(
        lambda omega: xb @ pair.rmatmul(omega[:nv1], omega[nv1:]), count, nv1 + nv2,
        max(t.Ux.shape[1] for t in terms) + _SKETCH_MARGIN, most)
    # lam[k] <= s_k(M)^2 <= the best tail after k kept, so a fewer-kept cut
    # can exist only if lam[keep - 1] <= cut2; then one subspace iteration,
    # M M^T Q = Xb gv (Q^T Xb)^T, sharpens the frame near the cut and is kept
    # where it cuts no later
    if q.shape[1] < most and lam[keep - 1] <= cut2:
        sharp = np.linalg.qr(xb @ (gv @ z.T))[0]
        keep2, (sharp_z, vec2, lam2, missed2) = count(sharp)
        if keep2 <= keep:
            q, z, keep, vec, lam, missed = sharp, sharp_z, keep2, vec2, lam2, missed2
    core = pair.matmul(z.T @ vec[:, :keep])
    uv1, uv2, core, leaf2 = _cut_leaves(core, spans, tol, exact=False)
    # Grasedyck's bound asks only tau_root^2 + tau_1^2 + tau_2^2 <= eps^2, and
    # the leaves, cut at tol each, rarely spend their 2 tol^2: the root keeps
    # the fewest of its counted directions whose exact tail fits in what they
    # leave, never cut finer than the floor cut2.  Dropping root columns only
    # shrinks the leaf tails, which are sums over the columns.
    keep = keep_count(np.sqrt(lam), np.sqrt(max(eps ** 2 - leaf2, cut2)), missed)
    if keep == 0:
        return ht_zero(nx, nv1, nv2)
    return _finish_truncation(q @ vec[:, :keep], core[:, :, :keep], uv1, uv2, nx, sqrt_w)


# ---------------------------------------------------------------------------
# velocity-pair contractions and the moment-conserving carrier

def pair_fields(terms, leaf1: np.ndarray, leaf2: np.ndarray,
                weights: np.ndarray) -> np.ndarray:
    """Spatial fields sum_t sum_q weights[q, m] <leaf1[:, q] (x) leaf2[:, q], t>.

    Column q of ``leaf1`` and ``leaf2`` is one separable velocity-pair
    functional; the result has one (n1, n2) field per column of ``weights``.
    One matrix product per leaf contracts every functional with every block's
    frame, one per run of blocks sharing a Bvv maps them to root
    coefficients, and one spatial product per block adds its fields in; the
    velocity pair is never densified.
    """
    terms = list(terms)
    if any(t.Uv1.shape[0] != leaf1.shape[0] or t.Uv2.shape[0] != leaf2.shape[0]
           for t in terms):
        raise DimensionError("velocity frames do not match the pair tables")
    nx = terms[0].nx
    out = np.zeros((weights.shape[1], nx[0] * nx[1]))
    terms = [t for t in terms if min(t.ranks) > 0]  # zero blocks add nothing
    if terms:
        runs = _Runs(terms)
        x1 = np.concatenate([t.Uv1 for t in runs.terms], axis=1).T @ leaf1
        x2 = np.concatenate([t.Uv2 for t in runs.terms], axis=1).T @ leaf2
        coeffs = runs.khatri_rao(x1, x2) @ weights
        for s, t in enumerate(runs.terms):
            out += (t.B @ coeffs[runs.ov[s]:runs.ov[s + 1]]).T @ t.Ux.T
    return out.reshape(-1, *nx)


def ht_lift_moments(m: np.ndarray, basis: MomentBasis) -> HtTensor:
    """Exact carrier tensor whose moments are m, (4, n1, n2); all internal
    ranks are fixed.

    Both velocity leaves are ``basis.unit_frame``, the frame {1, v, v^2 - c}
    weight scaled and normalized by the basis norms, built once per grid; the
    four spatial columns are written in place."""
    c1, c2, c3 = basis.norms
    rho, j1, j2, kappa = m.reshape(4, -1)
    ux = np.empty((rho.shape[0], 4))
    np.divide(rho, c1**2, out=ux[:, 0])
    np.divide(j1, c1 * c2, out=ux[:, 1])
    np.divide(j2, c1 * c2, out=ux[:, 2])
    np.divide(np.sqrt(2.0) * (kappa - basis.c * rho), c1 * c3, out=ux[:, 3])
    return HtTensor(ux, np.eye(4), _PAIR_TRANSFER, basis.unit_frame, basis.unit_frame,
                    m.shape[1:])
