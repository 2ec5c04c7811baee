import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lrvlasov
from lrvlasov import lowrank
from lrvlasov.errors import DimensionError, DomainError
from lrvlasov.grids import GaussianWeight, make_velocity_grid
from lrvlasov.htucker import HtTensor, ht_add, ht_truncate_sum
from lrvlasov.lowrank import LowRankMatrix, add, recompress, scale, truncate_sum, zero

from reference import dense_truncate, dense_weighted_truncate, scale_bound


def random_lowrank(rng, nx=16, nv=24, rank=4, scale_factor=1.0):
    return LowRankMatrix(
        scale_factor * np.abs(rng.standard_normal(rank)) + 0.1,
        rng.standard_normal((nx, rank)),
        rng.standard_normal((nv, rank)),
    )


def test_add_single_term_identity(rng):
    a = random_lowrank(rng)
    assert add(a) is a


def test_add_matches_dense(rng):
    a = random_lowrank(rng, rank=1)
    b = random_lowrank(rng, rank=2)
    s = add(a, b)
    assert s.rank == 3
    assert np.allclose(s.dense(), a.dense() + b.dense(), atol=1e-13)


def test_add_cancellation_dense_zero(rng):
    a = random_lowrank(rng)
    s = add(a, scale(a, -1.0))
    assert s.rank == 2 * a.rank
    assert np.max(np.abs(s.dense())) < 1e-13 * np.max(np.abs(a.dense()))


def test_add_shape_mismatch(rng):
    a = random_lowrank(rng, nx=16)
    b = random_lowrank(rng, nx=17)
    with pytest.raises(DimensionError):
        add(a, b)


def test_recompress_idempotent(rng):
    a = recompress(random_lowrank(rng))
    b = recompress(a)
    # recompressing recompressed factors changes nothing beyond round-off
    assert b.rank == a.rank
    assert np.allclose(b.C, a.C, rtol=1e-13, atol=0)
    assert np.allclose(b.dense(), a.dense(), rtol=0, atol=1e-13 * np.abs(a.dense()).max())


def test_recompress_cancellation_rank_zero(rng):
    a = random_lowrank(rng)
    out = recompress(add(a, scale(a, -1.0)))
    assert out.rank == 0
    assert out.Ux.shape == (16, 0) and out.Uv.shape == (24, 0)


def test_recompress_redundant_terms_match_dense_svd(rng):
    # oracle: dense SVD of the represented matrix
    dense = rng.standard_normal((16, 5)) @ rng.standard_normal((5, 32))
    u, s, vt = np.linalg.svd(dense, full_matrices=False)
    terms = []
    for i in range(5):
        for frac in (0.25, 0.35, 0.4) if i < 2 else (0.5, 0.5):
            terms.append(LowRankMatrix(np.array([s[i] * frac]), u[:, [i]], vt[[i]].T))
    stored = add(*terms)
    assert stored.rank == 12
    out = recompress(stored)
    assert out.rank == 5
    assert np.allclose(out.C, s[:5], atol=1e-12 * s[0])
    assert np.allclose(out.dense(), dense, atol=1e-12 * s[0])


def test_recompress_orthonormal_and_sorted(rng):
    out = recompress(add(random_lowrank(rng), random_lowrank(rng)))
    r = out.rank
    assert np.allclose(out.Ux.T @ out.Ux, np.eye(r), atol=1e-12)
    assert np.allclose(out.Uv.T @ out.Uv, np.eye(r), atol=1e-12)
    assert np.all(np.diff(out.C) <= 0)
    assert np.all(out.C >= 0)


def test_truncate_eps_zero_preserves(rng):
    a = add(random_lowrank(rng), random_lowrank(rng))
    out = truncate_sum([a], 0.0)
    assert np.allclose(out.dense(), a.dense(), atol=1e-13 * np.abs(a.dense()).max())


def test_truncate_rank_one_stays(rng):
    a = random_lowrank(rng, rank=1)
    assert truncate_sum([a], 1e-4).rank == 1


def test_truncate_constructed_spectrum():
    # constructed diagonal oracle: sv {1, 1e-3, 1e-9}, eps 1e-4 keeps two
    nx, nv = 12, 14
    sv = np.array([1.0, 1e-3, 1e-9])
    ux = np.linalg.qr(np.random.default_rng(0).standard_normal((nx, 3)))[0]
    uv = np.linalg.qr(np.random.default_rng(1).standard_normal((nv, 3)))[0]
    f = LowRankMatrix(sv, ux, uv)
    out = truncate_sum([f], 1e-4)
    assert out.rank == 2
    err = np.linalg.norm(out.dense() - f.dense())
    assert err == pytest.approx(1e-9, rel=1e-6)
    assert err <= 1e-4


def test_truncate_matches_dense_oracle(rng):
    for _ in range(20):
        a = add(random_lowrank(rng, rank=3), random_lowrank(rng, rank=3, scale_factor=1e-3))
        eps = 10.0 ** rng.uniform(-8, -1)
        out = truncate_sum([a], eps)
        dense = a.dense()
        assert np.linalg.norm(out.dense() - dense) <= eps * (1 + 1e-10)
        oracle = dense_truncate(dense, eps)
        # same kept rank as the dense SVD oracle
        assert out.rank == np.linalg.matrix_rank(oracle, tol=1e-12 * max(1.0, np.abs(oracle).max()))


def test_truncate_rank_monotone_in_eps(rng):
    a = add(random_lowrank(rng), random_lowrank(rng, scale_factor=1e-2))
    ranks = [truncate_sum([a], eps).rank for eps in (1e-10, 1e-6, 1e-3, 1e-1, 1.0)]
    assert ranks == sorted(ranks, reverse=True)


def test_weighted_truncate_flat_weight_equals_plain(rng):
    a = add(random_lowrank(rng), random_lowrank(rng))
    eps = 1e-3
    flat = truncate_sum([a], eps, np.ones(a.Uv.shape[0]))
    plain = truncate_sum([a], eps)
    assert np.allclose(flat.dense(), plain.dense(), atol=1e-13)


def test_weighted_truncate_eps_zero(rng):
    a = random_lowrank(rng)
    w = np.exp(-np.linspace(-3, 3, a.Uv.shape[0]) ** 2 / 2)
    out = truncate_sum([a], 0.0, np.sqrt(w))
    assert np.allclose(out.dense(), a.dense(), atol=1e-12 * np.abs(a.dense()).max())


def test_weighted_truncate_matches_dense_weighted_svd(rng):
    # oracle: dense weighted SVD with a Gaussian weight
    nv = 24
    v = np.linspace(-4, 4, nv)
    w = np.exp(-v**2 / 2)
    a = add(random_lowrank(rng, nv=nv, rank=3),
            random_lowrank(rng, nv=nv, rank=3, scale_factor=1e-4))
    eps = 1e-3
    out = truncate_sum([a], eps, np.sqrt(w))
    # error measured after scaling by 1/sqrt(w)
    err = (out.dense() - a.dense()) / np.sqrt(w)[None, :]
    assert np.linalg.norm(err) <= eps * (1 + 1e-10)
    oracle = dense_weighted_truncate(a.dense(), w, eps)
    assert np.allclose(out.dense(), oracle, atol=1e-11 * np.abs(oracle).max())


def test_projected_truncate_matches_dense_projected_svd(rng):
    # oracle: the dense weighted sum projected off an orthonormal frame, then
    # a dense SVD; the cut is orthogonal to the frame in weighted coordinates
    nv = 24
    root = np.sqrt(np.exp(-np.linspace(-4, 4, nv) ** 2 / 2))
    frame = np.linalg.qr(rng.standard_normal((nv, 2)))[0]
    terms = [random_lowrank(rng, nv=nv, rank=3),
             random_lowrank(rng, nv=nv, rank=3, scale_factor=1e-4)]
    eps = 1e-3
    out = truncate_sum(terms, eps, root, frame)
    scaled = sum(t.dense() for t in terms) / root
    projected = scaled - (scaled @ frame) @ frame.T
    assert np.linalg.norm(out.dense() / root - projected) <= eps * (1 + 1e-10)
    assert np.abs((out.dense() / root) @ frame).max() < 1e-12 * np.abs(projected).max()
    oracle = dense_truncate(projected, eps)
    assert np.allclose(out.dense() / root, oracle, atol=1e-11 * np.abs(oracle).max())
    with pytest.raises(DimensionError):
        truncate_sum(terms, eps, root, frame[1:])
    with pytest.raises(DomainError):
        truncate_sum(terms, -eps, root, frame)


def test_zero_object_round_trips():
    z = zero(8, 9)
    assert z.rank == 0
    assert np.all(z.dense() == 0.0)
    assert truncate_sum([z], 1e-3).rank == 0
    out = add(z, z)
    assert recompress(out).rank == 0


def test_negative_eps_rejected(rng):
    with pytest.raises(DomainError):
        truncate_sum([random_lowrank(rng)], -1e-3)


def test_extreme_eps_cut_everything_or_nothing(rng):
    # the route test squares eps, which must not overflow as eps ** 2 does
    f = random_lowrank(rng)
    for eps in (1e300, np.inf):
        assert truncate_sum([f], eps).rank == 0
    for eps in (5e-324, float("nan")):
        assert truncate_sum([f], eps).rank == f.rank


def _keep_count_by_definition(s, eps, missed=0.0):
    """The smallest k whose tail sqrt(missed + ||s[k:]||^2), summed from the
    last value up, is <= eps; s.size if none is."""
    tails = np.sqrt(missed + np.cumsum(s[::-1] ** 2))[::-1]
    return next((k for k in range(s.size) if tails[k] <= eps), s.size)


def test_keep_count_matches_its_definition():
    rng = np.random.default_rng(30)
    for _ in range(2000):
        s = np.sort(np.abs(rng.standard_normal(int(rng.integers(0, 20)))))[::-1]
        s *= 10.0 ** rng.uniform(-8, 2)
        missed = float(rng.choice([0.0, rng.uniform(0, 1e-2) * float(s @ s)]))
        tails = np.sqrt(missed + np.cumsum(s[::-1] ** 2))
        # random thresholds, and every tail itself: a tie at eps keeps the tie
        for eps in (rng.uniform(0, 1.2) * (tails[-1] if s.size else 1.0), *tails):
            assert lowrank.keep_count(s, eps, missed) == _keep_count_by_definition(s, eps, missed)


def test_keep_count_edge_cases():
    s = np.array([3.0, 2.0, 2.0, 1.0, 1.0, 0.0, 0.0])  # tails squared 0, 0, 1, 2, 6, 10, 19
    assert lowrank.keep_count(s, np.sqrt(2.0)) == 3
    assert lowrank.keep_count(s, np.sqrt(6.0)) == 2
    assert lowrank.keep_count(s, 0.0) == 5  # eps = 0 drops exact zeros only
    assert lowrank.keep_count(s, 1e-300) == 5
    assert lowrank.keep_count(s, np.inf) == 0
    assert lowrank.keep_count(s, -1.0) == s.size
    assert lowrank.keep_count(np.zeros(0), 1.0) == 0  # an empty spectrum keeps nothing
    assert lowrank.keep_count(np.zeros(0), 1.0, missed=4.0) == 0
    # what the spectrum misses is never dropped: missed >= eps^2 keeps everything
    assert lowrank.keep_count(s, 1.0, missed=1.0 + 1e-12) == s.size
    assert lowrank.keep_count(s, 2.0, missed=4.5) == s.size
    assert lowrank.keep_count(s, 2.0, missed=3.0) == 4


def test_keep_count_non_finite_input():
    s = np.array([3.0, 2.0, 1.0, 0.5])
    # a NaN threshold keeps everything: the 2D root re-cut passes
    # sqrt(max(eps^2 - leaf tails, floor)), NaN when a leaf tail is, and a
    # non-finite state must reach the run's checks, not become an empty cut
    assert lowrank.keep_count(s, float("nan")) == s.size
    assert lowrank.keep_count(s, np.sqrt(max(1e-5 ** 2 - np.nan, 1e-12))) == s.size
    assert lowrank.keep_count(s, 10.0, missed=float("nan")) == s.size
    assert lowrank.keep_count(s, 10.0, missed=float("inf")) == s.size
    for bad in ([3.0, np.nan, 1.0, 0.5], [np.nan, 2.0, 1.0, 0.5], [3.0, 2.0, np.inf, 0.5],
                [3.0, 2.0, 1.0, np.nan]):
        bad = np.array(bad)
        for eps in (0.4, 0.6, 1.2, 2.0, 5.0, np.inf):
            assert lowrank.keep_count(bad, eps) == _keep_count_by_definition(bad, eps)


@given(st.integers(0, 500))
def test_truncate_error_bound_property(seed):
    # spec invariant: ||dense(truncate_sum([f], eps)) - dense(f)||_F <= eps
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, 7))
    f = LowRankMatrix(np.abs(rng.standard_normal(rank)) * 10.0 ** rng.integers(-4, 3),
                      rng.standard_normal((10, rank)), rng.standard_normal((12, rank)))
    eps = 10.0 ** rng.uniform(-10, 0)
    out = truncate_sum([f], eps)
    assert np.linalg.norm(out.dense() - f.dense()) <= eps + 1e-13 * np.linalg.norm(f.dense())


# ---------------------------------------------------------------------------
# the sketched block-sum truncation against a dense SVD

_SUM_KINDS = ("cancelling", "weighted_vmax8", "duplicate", "zero", "one_block", "full_width",
              "split_plateau")


def _graded(rng, nx, nv, rank, decay, maxwellian=None):
    """A block with coefficients 10^(-decay k); velocity factors are shifted
    Maxwellians times low-order polynomials when ``maxwellian`` holds v."""
    if maxwellian is None:
        uv = rng.standard_normal((nv, rank))
    else:
        v = maxwellian
        shift = rng.uniform(-3.0, 3.0, rank)
        c = rng.standard_normal((3, rank))
        poly = c[0] + c[1] * (v[:, None] / 4.0) + c[2] * (v[:, None] / 4.0) ** 2
        uv = np.exp(-(v[:, None] - shift) ** 2 / 2.0) * poly
    return LowRankMatrix(10.0 ** (-decay * np.arange(rank)) * rng.uniform(0.5, 2.0, rank),
                         rng.standard_normal((nx, rank)), uv)


def _sum_case(kind, rng):
    """(terms, w_points or None) for one kind of block sum."""
    nx, nv = int(rng.integers(8, 41)), int(rng.integers(9, 42))
    decay = rng.uniform(0.2, 1.5)
    if kind == "cancelling":  # |sum| ~ 1e-3 of the blocks' magnitudes
        f = _graded(rng, nx, nv, int(rng.integers(2, 9)), decay)
        small = scale(_graded(rng, nx, nv, int(rng.integers(1, 4)), decay), 1e-3)
        return [f, small, scale(f, -1.0)], None
    if kind == "weighted_vmax8":  # the solver's 1/w-weighted norm at v_max 8
        grid = make_velocity_grid(nv, 8.0, GaussianWeight(2.0))
        terms = [_graded(rng, nx, nv, int(rng.integers(1, 9)), decay, grid.v)
                 for _ in range(int(rng.integers(1, 6)))]
        return terms, grid.w_points
    if kind == "duplicate":  # rank-deficient: repeated and rescaled blocks
        f = _graded(rng, nx, nv, int(rng.integers(1, 9)), decay)
        return [f, f, scale(f, 0.5), _graded(rng, nx, nv, 2, decay)], None
    if kind == "zero":  # rank-0 blocks, zero coefficients, or nothing else
        blocks = [zero(nx, nv), LowRankMatrix(np.zeros(3), rng.standard_normal((nx, 3)),
                                              rng.standard_normal((nv, 3)))]
        if rng.random() < 0.5:
            blocks.append(_graded(rng, nx, nv, int(rng.integers(1, 6)), decay))
        return blocks, None
    if kind == "one_block":
        return [_graded(rng, nx, nv, int(rng.integers(1, 25)), decay)], None
    if kind == "full_width":  # a flat spectrum wider than the first sketch
        return [_graded(rng, nx, nv, int(rng.integers(10, 30)), 0.01) for _ in range(3)], None
    # a few large directions over a flat tail of 20-40 split into rank-4 blocks:
    # the first sketch (largest block rank + 8 columns) misses much of the tail
    nx, nv = int(rng.integers(20, 41)), int(rng.integers(21, 42))
    tail = LowRankMatrix(np.full(40, 10.0 ** rng.uniform(-6, -3)),
                         rng.standard_normal((nx, 40)) / np.sqrt(nx),
                         rng.standard_normal((nv, 40)) / np.sqrt(nv))
    blocks = [LowRankMatrix(tail.C[i:i + 4], tail.Ux[:, i:i + 4], tail.Uv[:, i:i + 4])
              for i in range(0, int(rng.integers(20, 41)), 4)]
    return [_graded(rng, nx, nv, int(rng.integers(2, 6)), 1.0), *blocks], None


def _cut(terms, eps, w_points):
    """truncate_sum, or the same cut in the norm weighted by 1/w when the
    weights ``w_points`` at the velocity nodes are given."""
    if w_points is None:
        return truncate_sum(terms, eps)
    return truncate_sum(terms, eps, np.sqrt(w_points))


@settings(max_examples=120)
@given(kind=st.sampled_from(_SUM_KINDS), seed=st.integers(0, 2**20),
       log_eps=st.floats(-8.0, -0.5))
# eps/||S|| about 5e-8: the Gram spectrum's tail is round-off there, and
# without the SVD at such eps the cut missed eps (err 2.8477e-6 > 2.8399e-6)
@example(kind="split_plateau", seed=9859, log_eps=-4.0)
def test_truncate_sum_meets_eps_against_dense(kind, seed, log_eps):
    terms, w = _sum_case(kind, np.random.default_rng(seed))
    root = np.ones(terms[0].shape[1]) if w is None else np.sqrt(w)
    dense = add(*terms).dense()
    weighted = dense / root[None, :]
    bound = sum(scale_bound(LowRankMatrix(t.C, t.Ux, t.Uv / root[:, None])) for t in terms)
    s = np.linalg.svd(weighted, compute_uv=False)
    norm = float(np.linalg.norm(s))
    eps = 10.0 ** log_eps * (norm if norm > 0 else 1.0)
    if kind == "full_width":  # keep all but a few of the flat directions
        eps = 0.5 * float(np.linalg.norm(s[-3:]))
    if kind == "split_plateau":  # cut inside the flat tail
        eps = 10.0 ** (log_eps / 8.0) * float(np.linalg.norm(s[terms[0].rank:]))
    out = _cut(terms, eps, w)
    err = np.linalg.norm((out.dense() - dense) / root[None, :])
    assert err <= eps + 1e-13 * bound
    # the dense optimum: the fewest kept singular values whose tail is <= eps
    tails = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]
    optimum = int(np.argmax(tails <= eps)) if (tails <= eps).any() else s.size
    # a flat tail that the first sketch misses is where the draws cost rank:
    # of 1500 such sums 114 kept one more than the optimum and 4 two more
    assert out.rank <= optimum + (2 if kind == "split_plateau" else 1)
    # the same bits on a repeat, also after a wider sketch of the same nv
    recompress(_graded(np.random.default_rng(1), 48, dense.shape[1], 48, 0.01))
    again = _cut(terms, eps, w)
    for a, b in ((out.C, again.C), (out.Ux, again.Ux), (out.Uv, again.Uv)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    # eps = 0 keeps the sum within criterion 6's 1e-11
    exact = _cut(terms, 0.0, w)
    top = np.max(np.abs(dense), initial=0.0)
    assert np.max(np.abs(exact.dense() - dense), initial=0.0) <= 1e-11 * top
    if top == 0.0:
        assert exact.rank == 0 and out.rank == 0


@pytest.mark.parametrize("weighted", [False, True])
def test_only_cuts_near_the_gram_round_off_take_the_svd(rng, monkeypatch, weighted):
    # eps^2 within 1e3 of the Gram's round-off (eps/||S|| <= 3.8e-6) takes
    # the SVD of B; coarser cuts take the spectrum of the p x p Gram B B^T
    grid = make_velocity_grid(50, 6.0, GaussianWeight(2.0))
    terms = [_graded(rng, 40, 50, r, 0.7) for r in (6, 9, 4)]
    w = grid.w_points if weighted else None
    root = np.sqrt(w) if weighted else np.ones(50)
    dense = add(*terms).dense()
    norm = float(np.linalg.norm(dense / root[None, :]))
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    for rel, takes_svd in ((1e-8, True), (1e-10, True), (1e-4, False), (1e-2, False)):
        calls.clear()
        out = _cut(terms, rel * norm, w)
        assert bool(calls) == takes_svd
        assert np.linalg.norm((out.dense() - dense) / root[None, :]) <= rel * norm
        # the Gram route's velocity factors are orthonormal to about 1e-11
        uv = out.Uv / root[:, None]
        assert np.abs(uv.T @ uv - np.eye(out.rank)).max() <= 1e-10


# ---------------------------------------------------------------------------
# the truncation's workspace and first sketch width

@pytest.mark.parametrize("dim", [1, 2])
def test_first_sketch_is_largest_block_rank_plus_margin(rng, monkeypatch, dim):
    # both formats run lowrank's one sketch loop
    widths = []
    draw = lowrank._test_matrix
    monkeypatch.setattr(lowrank, "_test_matrix", lambda n, p: widths.append(p) or draw(n, p))
    ranks = (3, 7, 5, 6, 4)
    if dim == 1:
        terms = [random_lowrank(rng, nx=40, nv=50, rank=r) for r in ranks]
        truncate_sum(terms, 1e-3 * np.linalg.norm(add(*terms).dense()))
    else:
        terms = [HtTensor(*(rng.standard_normal(shape) for shape in
                            ((64, r), (r, r), (r, r, r), (16, r), (16, r))), (8, 8))
                 for r in ranks]
        ht_truncate_sum(terms, 1e-3 * np.linalg.norm(ht_add(*terms).dense()))
    # 15 of the 25 columns the sum can span
    assert widths[0] == 7 + lowrank._SKETCH_MARGIN == 15


def test_test_matrix_is_c_ordered_and_the_same_whatever_p(monkeypatch):
    # columns of one fixed draw sequence, whatever p and call order, each row
    # contiguous and read-only; only a cache miss builds a generator
    n = 37
    built = []
    generator = lowrank.random.Random
    monkeypatch.setattr(lowrank, "random",
                        SimpleNamespace(Random=lambda seed: built.append(seed) or generator(seed)))
    monkeypatch.delitem(lowrank._TEST_COLS, n, raising=False)
    narrow, wide = lowrank._test_matrix(n, 5), lowrank._test_matrix(n, 12)
    again = lowrank._test_matrix(n, 9)
    assert built == [0]
    for cols in (narrow, wide, again):
        assert cols.strides[1] == cols.itemsize and not cols.flags.writeable
    assert np.array_equal(wide[:, :5], narrow) and np.array_equal(wide[:, :9], again)
    rng = generator(0)
    assert np.array_equal(wide.T, [[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(12)])


def test_result_does_not_alias_the_workspace(rng):
    grid = make_velocity_grid(50, 6.0, GaussianWeight(2.0))
    first = [random_lowrank(rng, nx=40, nv=50, rank=r) for r in (4, 6)]
    kept = [truncate_sum(first, 1e-6), _cut(first, 1e-6, grid.w_points)]
    saved = [(f.C.tobytes(), f.Ux.tobytes(), f.Uv.tobytes()) for f in kept]
    # later calls on the same grid, narrower and wider stacks, weighted and not
    for ranks in ((2,), (9, 8, 7), (5, 5)):
        other = [random_lowrank(rng, nx=40, nv=50, rank=r) for r in ranks]
        truncate_sum(other, 1e-6)
        _cut(other, 1e-6, grid.w_points)
        recompress(add(*other))
    assert [(f.C.tobytes(), f.Ux.tobytes(), f.Uv.tobytes()) for f in kept] == saved


_FAULTS_PER_STEP = """
import json, resource, sys
from lrvlasov import driver
from lrvlasov.config import from_preset

preset, overrides, runs = json.loads(sys.argv[1])
for _ in range(runs):  # all but the last run warm the process
    problem, hist = driver.initialize(from_preset(preset, **overrides))
    steps = driver._march(problem, hist)
    next(steps)  # the first step sizes the workspace and draws the test matrix
    before, first = resource.getrusage(resource.RUSAGE_SELF), hist.step
    for _ in steps:
        pass
after = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({"steps": hist.step - first, "minflt": after.ru_minflt - before.ru_minflt}))
"""


def _faults_per_step(preset: str, overrides: dict, runs: int = 1) -> dict:
    # one BLAS thread, as the benchmark runs, since a second thread's arena
    # keeps the heap top from being trimmed and hides the faults; the child
    # gets a fixed environment, because the count of heap trims moves with its
    # size (12 against 297 faults on one parent, with PYTEST_VERSION set or not)
    src = str(Path(lrvlasov.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": path, "PYTHONHASHSEED": "0",
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", _FAULTS_PER_STEP,
                          json.dumps([preset, overrides, runs])], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.skipif(sys.platform != "linux", reason="counts glibc heap trims as minor faults")
@pytest.mark.parametrize("method", ["plain", "macro"])
def test_warm_1d_steps_fault_in_no_fresh_pages(method):
    # fresh 128 x 257 temporaries per truncation cost about 160 minor faults a step
    counts = _faults_per_step("strong_landau_1d", {"method": method, "t_end": 0.5})
    assert counts["steps"] > 100
    assert counts["minflt"] < 10 * counts["steps"]


@pytest.mark.skipif(sys.platform != "linux", reason="counts glibc heap trims as minor faults")
@pytest.mark.parametrize("grid", [{"t_end": 1.0}, {"nx": 32, "nv": 64, "t_end": 0.5}],
                         ids=["preset", "32x64"])
def test_warm_2d_steps_fault_in_no_fresh_pages(grid):
    # fresh per-call arrays in htucker cost about 250 minor faults a step; the
    # 2D workspace grows with the ranks over a run's first ~100 steps, so a
    # first run of the same grid warms the process and the second is counted
    counts = _faults_per_step("weak_landau_2d2v", grid, runs=2)
    assert counts["steps"] > 40
    assert counts["minflt"] < 10 * counts["steps"]
