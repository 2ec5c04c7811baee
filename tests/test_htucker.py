from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lrvlasov.config import from_preset
from lrvlasov.driver import setup
from lrvlasov.errors import DimensionError, DomainError
from lrvlasov.grids import make_velocity_grid, spatial_grid_2d
from lrvlasov.htucker import (_PAIR_TRANSFER, HtTensor, _PairUnfold, ht_add,
                              ht_lift_moments, ht_moments, ht_scale, ht_truncate_sum,
                              ht_truncate_to_moments, ht_zero)
from lrvlasov.macro import kfvs_fluxes_2d
from lrvlasov.poisson import ElectricField
from lrvlasov.projection import MomentBasis

from reference import (dense_moments_2d, dense_pair_basis, dense_pair_functionals_2d,
                       dense_pair_quadrature, dense_remove_moments_2d)

NX = (8, 8)
NV = 16


@pytest.fixture(scope="module")
def vgrid():
    return make_velocity_grid(NV, 6.0)


@pytest.fixture(scope="module")
def basis(vgrid):
    return MomentBasis.build(vgrid)


def random_ht(rng, r=2, nx=NX, nv=(NV, NV)):
    return HtTensor(rng.standard_normal((nx[0] * nx[1], r)),
                    rng.standard_normal((r, r)), rng.standard_normal((r, r, r)),
                    rng.standard_normal((nv[0], r)), rng.standard_normal((nv[1], r)),
                    nx)


def test_storage_counts(rng):
    f = random_ht(rng, r=3)
    rx, rv, r1, r2 = f.ranks
    n = NX[0] * NX[1]
    expect = n * rx + rx * rv + r1 * r2 * rv + NV * r1 + NV * r2
    assert f.storage_size() == expect


def test_add_identity_and_dense(rng):
    a, b = random_ht(rng, r=2), random_ht(rng, r=2)
    assert ht_add(a) is a
    s = ht_add(a, b)
    assert s.ranks == (4, 4, 4, 4)
    assert np.allclose(s.dense(), a.dense() + b.dense(), atol=1e-13)


def test_add_cancellation(rng):
    a = random_ht(rng, r=3)
    z = ht_add(a, ht_scale(a, -1.0))
    assert np.max(np.abs(z.dense())) < 1e-12 * np.abs(a.dense()).max()
    assert ht_truncate_sum([z], 0.0).ranks == (0, 0, 0, 0)


def test_add_shape_mismatch(rng):
    with pytest.raises(DimensionError):
        ht_add(random_ht(rng), random_ht(rng, nv=(NV, NV + 1)))


def test_canonicalize_preserves_and_orthonormal(rng):
    s = ht_add(random_ht(rng, r=3), random_ht(rng, r=2))
    c = ht_truncate_sum([s], 0.0)
    assert np.allclose(c.dense(), s.dense(), atol=1e-12 * np.abs(s.dense()).max())
    for frame in (c.Ux, c.Uv1, c.Uv2):
        k = frame.shape[1]
        assert np.allclose(frame.T @ frame, np.eye(k), atol=1e-12)
    unfold = c.Bvv.reshape(-1, c.Bvv.shape[2])
    assert np.allclose(unfold.T @ unfold, np.eye(unfold.shape[1]), atol=1e-12)


def test_truncate_eps_zero_roundtrip(rng):
    s = ht_add(random_ht(rng, r=3), random_ht(rng, r=2))
    out = ht_truncate_sum([s], 0.0)
    assert np.allclose(out.dense(), s.dense(), atol=1e-11 * np.abs(s.dense()).max())


def test_truncate_rank_one_product(rng):
    # exact separable product keeps hierarchical ranks (1,1,1,1)
    f = HtTensor(rng.standard_normal((NX[0] * NX[1], 1)), np.eye(1),
                 np.ones((1, 1, 1)), rng.standard_normal((NV, 1)),
                 rng.standard_normal((NV, 1)), NX)
    out = ht_truncate_sum([f], 1e-6)
    assert out.ranks == (1, 1, 1, 1)
    assert np.allclose(out.dense(), f.dense(), atol=1e-12 * np.abs(f.dense()).max())


def test_truncate_error_bound_synthetic(rng):
    # synthetic spectrum: dominant + small terms; dense oracle for the error
    a = random_ht(rng, r=2)
    b = ht_scale(random_ht(rng, r=3), 1e-5)
    s = ht_add(a, b)
    for eps in (1e-7, 1e-3, 1e-1):
        out = ht_truncate_sum([a, b], eps)
        err = np.linalg.norm((out.dense() - s.dense()).ravel())
        assert err <= eps * (1 + 1e-8) + 1e-12


def test_truncate_fast_path_matches_qr_path(rng):
    # same inputs through eps>0 (Gram route) and a tiny-eps QR-equivalent run
    terms = [random_ht(rng, r=2), ht_scale(random_ht(rng, r=2), 1e-2)]
    dense = sum(t.dense() for t in terms)
    out = ht_truncate_sum(terms, 1e-9)
    assert np.allclose(out.dense(), dense, atol=1e-8)
    for frame in (out.Ux, out.Uv1, out.Uv2):
        k = frame.shape[1]
        assert np.allclose(frame.T @ frame, np.eye(k), atol=1e-12)


def test_weighted_truncate_flat_equals_plain(rng):
    s = ht_add(random_ht(rng, r=2), ht_scale(random_ht(rng, r=2), 1e-3))
    eps = 1e-2
    flat = ht_truncate_sum([s], eps, np.ones(NV))
    plain = ht_truncate_sum([s], eps)
    assert np.allclose(flat.dense(), plain.dense(), atol=1e-10)


def test_weighted_truncate_eps_zero_and_bound(rng, vgrid):
    s = ht_add(random_ht(rng, r=2), ht_scale(random_ht(rng, r=3), 1e-4))
    wp = vgrid.w_points
    out0 = ht_truncate_sum([s], 0.0, wp)
    assert np.allclose(out0.dense(), s.dense(), atol=1e-11 * np.abs(s.dense()).max())
    eps = 1e-2
    out = ht_truncate_sum([s], eps, wp)
    scale2 = np.sqrt(np.outer(wp, wp))
    err = (out.dense() - s.dense()) / scale2[None, None, :, :]
    assert np.linalg.norm(err.ravel()) <= eps * (1 + 1e-8)


def test_weighted_truncate_weight_validation(rng, vgrid):
    s = random_ht(rng)
    bad = np.ones(NV)
    bad[0] = 0.0
    with pytest.raises(DomainError):
        ht_truncate_sum([s], 1e-3, bad)
    with pytest.raises(DimensionError):
        ht_truncate_sum([s], 1e-3, np.ones(NV + 1))
    with pytest.raises(DomainError):
        ht_truncate_sum([s], -1.0)


def test_moments_zero_and_dense_oracle(rng, vgrid):
    z = ht_zero(NX, NV, NV)
    mz = ht_moments([z], (vgrid, vgrid))
    assert mz.shape == (4, *NX) and np.all(mz == 0)
    f = random_ht(rng, r=3)
    m = ht_moments([f], (vgrid, vgrid))
    rho_d, j1_d, j2_d, kap_d = dense_moments_2d(f.dense(), vgrid, vgrid)
    ref = np.abs(rho_d).max() + 1.0
    assert np.allclose(m, np.stack([rho_d, j1_d, j2_d, kap_d]), atol=1e-12 * ref)


def test_moments_product_maxwellian(rng, vgrid):
    maxw = np.exp(-vgrid.v**2 / 2.0)
    f = HtTensor(np.ones((NX[0] * NX[1], 1)), np.eye(1), np.ones((1, 1, 1)),
                 maxw[:, None], maxw[:, None], NX)
    m = ht_moments([f], (vgrid, vgrid))
    mass1d = vgrid.h * maxw.sum()
    rho, j1, j2, kappa = m
    assert np.allclose(rho, mass1d**2, rtol=1e-13)
    assert np.max(np.abs(j1)) < 1e-14
    assert np.max(np.abs(j2)) < 1e-14
    second = vgrid.h * np.dot(maxw, vgrid.v**2)
    assert np.allclose(kappa, mass1d * second, rtol=1e-12)


def test_pair_transfer_sparsity():
    bt = _PAIR_TRANSFER
    assert not bt.flags.writeable
    nonzero = {idx: bt[idx] for idx in zip(*np.nonzero(bt))}
    expect = {(0, 0, 0): 1.0, (1, 0, 1): 1.0, (0, 1, 2): 1.0,
              (2, 0, 3): 1.0 / np.sqrt(2.0), (0, 2, 3): 1.0 / np.sqrt(2.0)}
    assert set(nonzero) == set(expect)
    for idx, val in expect.items():
        assert nonzero[idx] == pytest.approx(val, rel=1e-15)


def test_pair_basis_orthonormal(vgrid):
    # the four moment tensors are orthonormal in the doubly weighted product
    tensors, _ = dense_pair_basis(vgrid)
    ww = np.outer(vgrid.w, vgrid.w)
    gram = np.array([[np.sum(a * b * ww) for b in tensors] for a in tensors])
    assert np.allclose(gram, np.eye(4), atol=1e-12)


def test_lift_zero_and_degenerate(rng, vgrid, basis):
    z = np.zeros((4, *NX))
    assert np.max(np.abs(ht_lift_moments(z, basis).dense())) == 0.0
    rho = np.abs(rng.standard_normal(NX)) + 1.0
    m = np.stack([rho, np.zeros(NX), np.zeros(NX), basis.c * rho])
    lifted = ht_lift_moments(m, basis)
    # fourth column vanishes; effective separation rank collapses to 1
    assert ht_truncate_sum([lifted], 0.0).ranks[0] == 1


def test_lift_roundtrip(rng, vgrid, basis):
    for _ in range(30):
        m = np.stack([rng.standard_normal(NX), rng.standard_normal(NX),
                      rng.standard_normal(NX), rng.standard_normal(NX)])
        got = ht_moments([ht_lift_moments(m, basis)], (vgrid, vgrid))
        assert np.max(np.abs(got - m)) < 1e-12 * (np.abs(m).max() + 1.0)


def _zero_moments():
    return np.zeros((4, *NX))


def test_remove_moments(rng, vgrid, basis):
    # pinning to zero moments at eps = 0 removes the moment carrier
    f = random_ht(rng, r=3)
    out = ht_truncate_to_moments([f], _zero_moments(), basis, 0.0)
    m = ht_moments([out], (vgrid, vgrid))
    ref = np.abs(ht_moments([f], (vgrid, vgrid))).max() + 1.0
    assert np.abs(m).max() < 1e-12 * ref
    # dense complement-projection oracle
    oracle = dense_remove_moments_2d(f.dense(), vgrid)
    assert np.allclose(out.dense(), oracle, atol=1e-11 * np.abs(f.dense()).max())
    # idempotence
    out2 = ht_truncate_to_moments([out], _zero_moments(), basis, 0.0)
    assert np.allclose(out2.dense(), out.dense(), atol=1e-11 * np.abs(f.dense()).max())


def test_weighted_truncate_eps_zero_keeps_faint_directions(vgrid, basis):
    # a zero-moment remainder plus its tiny leak carrier: in the 1/w-weighted
    # norm its leaf spectra span about 1e9, more than a Gram resolves, and
    # eps = 0 still keeps every direction
    wp, grids = vgrid.w_points, (vgrid, vgrid)
    metric = np.sqrt(np.outer(wp, wp))[None, None]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        f = random_ht(rng, r=3)
        own = ht_lift_moments(ht_moments([f], grids), basis)
        rem = ht_truncate_sum([f, ht_scale(own, -1.0)], 0.0, wp)
        leak = ht_lift_moments(ht_moments([rem], grids), basis)
        faint = ht_add(ht_scale(leak, -1.0), rem)
        out = ht_truncate_sum([faint], 0.0, wp)
        assert out.ranks == rem.ranks
        err = np.linalg.norm((out.dense() - faint.dense()) / metric)
        assert err <= 1e-13 * np.linalg.norm(faint.dense() / metric)


def test_carrier_in_span_annihilated(rng, vgrid, basis):
    m = np.stack([rng.standard_normal(NX), rng.standard_normal(NX),
                  rng.standard_normal(NX), rng.standard_normal(NX)])
    carrier = ht_lift_moments(m, basis)
    out = ht_truncate_to_moments([carrier], _zero_moments(), basis, 0.0)
    assert np.max(np.abs(out.dense())) < 1e-12 * (np.abs(carrier.dense()).max() + 1)


def test_transport_rhs_zero_cases():
    problem = setup(from_preset("weak_landau_2d2v", nx=NX[0], nv=NV))
    vgrid = problem.vgrids[0]
    field = ElectricField(E=(np.zeros(NX), np.zeros(NX)))
    z = ht_zero(NX, NV, NV)
    out = ht_add(*problem.transport(z, field, 0.0))
    assert np.max(np.abs(out.dense())) == 0.0
    # spatially uniform state with no field: all terms vanish
    maxw = np.exp(-vgrid.v**2 / 2.0)
    f = HtTensor(np.ones((NX[0] * NX[1], 1)), np.eye(1), np.ones((1, 1, 1)),
                 maxw[:, None], maxw[:, None], NX)
    out = ht_add(*problem.transport(f, field, 0.0))
    assert np.max(np.abs(out.dense())) < 1e-12


def test_canonicalize_sum_matches_add(rng):
    terms = [random_ht(rng, r=2) for _ in range(4)]
    fused = ht_truncate_sum(terms, 0.0)
    plain = ht_add(*terms)
    assert np.allclose(fused.dense(), plain.dense(),
                       atol=1e-12 * np.abs(plain.dense()).max())


# ---------------------------------------------------------------------------
# randomized rounding of block sums against dense

def _step_like_sum(rng, kind, nv):
    """f^{n-2}, f^n and transport-style blocks sharing f^n's Bvv object (each
    swaps one leaf frame and the spatial frame, like a step's transport terms),
    a small carrier-like term and a zero-rank block."""
    f = random_ht(rng, r=int(rng.integers(1, 5)), nv=nv)
    blocks = [ht_scale(random_ht(rng, r=int(rng.integers(1, 4)), nv=nv), 0.25),
              ht_scale(f, 0.75)]
    for i in range(int(rng.integers(2, 9))):
        leaf = "Uv1" if i % 2 == 0 else "Uv2"
        blocks.append(replace(f, Ux=rng.standard_normal(f.Ux.shape),
                              B=rng.uniform(-0.1, 0.1) * f.B,
                              **{leaf: rng.standard_normal(getattr(f, leaf).shape)}))
    blocks += [ht_scale(random_ht(rng, r=1, nv=nv), 1e-3), ht_zero(NX, *nv)]
    if kind == "deficient":   # repeated directions: rank well below the block count
        blocks += [ht_scale(b, -0.5) for b in blocks[1:4]]
    if kind == "cancelling":  # the sum is zero up to round-off
        blocks += [ht_scale(b, -1.0) for b in blocks]
    return blocks


@given(st.integers(0, 2**32 - 1), st.sampled_from(["full", "deficient", "cancelling"]),
       st.booleans(), st.none() | st.floats(-5.0, -1.0))
def test_truncate_sum_randomized_meets_eps_against_dense(seed, kind, weighted, log_eps):
    # log_eps None is eps = 0: a faint rank-1 block at 1e-9 of the scale joins
    # the sum, and the result must match the dense sum to round-off
    rng = np.random.default_rng(seed)
    nv = (int(rng.integers(5, 9)), int(rng.integers(5, 9)))
    if weighted:  # one weight vector: both leaves share one velocity grid
        nv = (nv[0], nv[0])
    blocks = _step_like_sum(rng, kind, nv)
    w1 = rng.uniform(0.2, 2.0, nv[0]) if weighted else np.ones(nv[0])
    w2 = w1 if weighted else np.ones(nv[1])
    metric = np.sqrt(np.outer(w1, w2))[None, None]
    dense = sum(b.dense() for b in blocks)
    scale = (sum(np.linalg.norm(b.dense() / metric) for b in blocks) if kind == "cancelling"
             else np.linalg.norm(dense / metric))
    if log_eps is None:
        faint = random_ht(rng, r=1, nv=nv)
        blocks.append(ht_scale(faint, 1e-9 * scale / np.linalg.norm(faint.dense() / metric)))
        dense = dense + blocks[-1].dense()
        eps, bound = 0.0, 1e-12 * scale
    else:
        eps = bound = 10.0 ** log_eps * scale

    def rounded():
        return ht_truncate_sum(blocks, eps, w1 if weighted else None)

    out = rounded()
    assert np.linalg.norm((out.dense() - dense) / metric) <= bound * (1 + 1e-8)
    r1, r2, rv = out.Bvv.shape
    frames = (out.Ux, out.Uv1 / np.sqrt(w1)[:, None], out.Uv2 / np.sqrt(w2)[:, None],
              out.Bvv.reshape(r1 * r2, rv))
    for frame in frames:
        assert np.allclose(frame.T @ frame, np.eye(frame.shape[1]), rtol=0, atol=1e-12)
    # the same bits on a repeat, also after a truncation of another leaf size
    # and a wider sketch of this one
    ht_truncate_sum(_step_like_sum(rng, "full", (nv[0] + 1, nv[1] + 2)), 1e-9)
    ht_truncate_sum(blocks, 1e-6 * bound)
    again = rounded()
    assert again.ranks == out.ranks
    for name in ("Ux", "B", "Bvv", "Uv1", "Uv2"):
        assert np.array_equal(getattr(again, name), getattr(out, name))


@given(st.integers(0, 2**32 - 1), st.sampled_from(["full", "deficient", "cancelling",
                                                   "all_zero"]))
def test_batched_moments_and_fluxes_against_dense(seed, kind):
    # ht_moments of the sum and of each block, and kfvs_fluxes_2d, against dense quadrature
    # on step-like block lists (shared-Bvv runs, a zero-rank block), and on a
    # sum whose blocks are all rank 0; the error is relative to the same
    # quadrature of |blocks| against |weights|, which cancellation leaves alone
    rng = np.random.default_rng(seed)
    nv = (int(rng.integers(8, 12)), int(rng.integers(8, 12)))  # grids need 8 points
    grids = (make_velocity_grid(nv[0], 4.0), make_velocity_grid(nv[1], 5.0))
    if kind == "all_zero":
        blocks = [ht_zero(NX, *nv), ht_scale(ht_zero(NX, *nv), 2.0)]
    else:
        blocks = _step_like_sum(rng, kind, nv)
    weights = dense_pair_functionals_2d(*grids)
    dense = [b.dense() for b in blocks]
    total, size = sum(dense), sum(np.abs(d) for d in dense)

    def check(got, weight, of=total, bound=size):
        oracle = dense_pair_quadrature(of, weight, *grids)
        scale = dense_pair_quadrature(bound, np.abs(weight), *grids).max()
        assert np.all(np.abs(got - oracle) <= 1e-13 * scale)

    for got, weight in zip(ht_moments(blocks, grids), weights["moments"]):
        check(got, weight)
    for b, d in zip(blocks, dense):
        for got, weight in zip(ht_moments([b], grids), weights["moments"]):
            check(got, weight, d, np.abs(d))
    fluxes = kfvs_fluxes_2d(ht_add(*blocks), grids)
    split = weights["fluxes"]  # x1 plus, x1 minus, x2 plus, x2 minus
    for (plus, minus), w_plus, w_minus in zip(fluxes, split[0::2], split[1::2]):
        for got, weight in [*zip(plus, w_plus), *zip(minus, w_minus)]:
            check(got, weight)


def test_khatri_rao_rmatmul_matches_formed_unfold(rng):
    # the per-leaf sketch product equals the formed pair unfold applied to
    # the dense Khatri-Rao test matrix
    nv = (7, 6)
    blocks = [b for b in _step_like_sum(rng, "full", nv) if min(b.ranks) > 0]
    pair = _PairUnfold(blocks)
    n1, n2 = pair.q1.shape[1], pair.q2.shape[1]
    cols = pair.ov[-1]
    mat = pair.matmul(np.eye(cols)).reshape(n1 * n2, cols)
    omega1, omega2 = rng.standard_normal((n1, 5)), rng.standard_normal((n2, 5))
    dense = (omega1[:, None, :] * omega2[None, :, :]).reshape(n1 * n2, 5)
    got = pair.rmatmul(omega1, omega2)
    assert got.shape == (cols, 5)
    assert np.all(np.abs(got - mat.T @ dense) <= 1e-13 * (np.abs(mat).T @ np.abs(dense)))


def test_truncate_sum_floor_only_at_eps_zero(rng, monkeypatch):
    # the droptol floor is the only cut at eps = 0; eps > 0 cuts at
    # eps/sqrt(3) alone and takes no per-block magnitude bound
    import lrvlasov.htucker as ht_mod

    calls = []
    bound = ht_mod.scale_bound
    monkeypatch.setattr(ht_mod, "scale_bound", lambda f: calls.append(f) or bound(f))
    terms = [random_ht(rng, r=3), ht_scale(random_ht(rng, r=2), 1e-3)]
    ht_truncate_sum(terms, 1e-4)
    ht_truncate_sum(terms, 1e-4, np.ones(NV))
    assert calls == []
    ht_truncate_sum(terms, 0.0)
    assert len(calls) == len(terms)


def test_truncate_sum_result_does_not_alias_the_workspace(rng):
    grids = [(NX, NV), ((4, 6), 10)]
    weights = {nv: make_velocity_grid(nv, 6.0).w_points for _, nv in grids}
    cases = [(nx, nv, eps, w) for nx, nv in grids for eps in (0.0, 1e-3)
             for w in (None, weights[nv])]

    def truncate_all(ranks):
        return [ht_truncate_sum([random_ht(rng, r, nx, (nv, nv)) for r in ranks], eps, w)
                for nx, nv, eps, w in cases]

    def saved(fs):
        return [[getattr(f, k).tobytes() for k in ("Ux", "B", "Bvv", "Uv1", "Uv2")] for f in fs]

    kept = truncate_all((2, 3))
    before = saved(kept)
    # later calls on the same grids, narrower and wider sums
    for ranks in ((1,), (4, 5, 3), (2, 2)):
        truncate_all(ranks)
    assert saved(kept) == before
