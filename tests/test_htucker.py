from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lrvlasov.config import from_preset
from lrvlasov.driver import run, setup
from lrvlasov.errors import DimensionError, DomainError
from lrvlasov.grids import make_velocity_grid, spatial_grid_2d
import lrvlasov.htucker as ht
from lrvlasov import lowrank
from lrvlasov.htucker import (_PAIR_TRANSFER, HtTensor, _PairUnfold, ht_add, ht_lift_moments,
                              ht_scale, ht_truncate_sum, ht_zero)
from lrvlasov.poisson import ElectricField
from lrvlasov.projection import MomentBasis

from reference import (dense_functionals, dense_moments_2d, dense_pair_basis,
                       dense_quadrature, dense_remove_moments_2d, scale_bound)

NX = (8, 8)
NV = 16


@pytest.fixture(scope="module")
def vgrid():
    return make_velocity_grid(NV, 6.0)


@pytest.fixture(scope="module")
def basis(vgrid):
    return MomentBasis.build(vgrid)


@pytest.fixture(scope="module")
def problem():
    """weak_landau_2d2v on NX cells, whose velocity grid at NV points is
    make_velocity_grid(NV, 6.0)."""
    return setup(from_preset("weak_landau_2d2v", nx=NX[0], nv=NV))


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
    out0 = ht_truncate_sum([s], 0.0, np.sqrt(wp))
    assert np.allclose(out0.dense(), s.dense(), atol=1e-11 * np.abs(s.dense()).max())
    eps = 1e-2
    out = ht_truncate_sum([s], eps, np.sqrt(wp))
    scale2 = np.sqrt(np.outer(wp, wp))
    err = (out.dense() - s.dense()) / scale2[None, None, :, :]
    assert np.linalg.norm(err.ravel()) <= eps * (1 + 1e-8)


def test_weighted_truncate_weight_validation(rng, basis):
    s = random_ht(rng)
    frame = basis.zero_frame
    with pytest.raises(DimensionError):
        ht_truncate_sum([s], 1e-3, np.ones(NV + 1), frame)
    with pytest.raises(DimensionError):
        ht_truncate_sum([s], 1e-3, np.ones(NV), frame[1:])
    with pytest.raises(DomainError):
        ht_truncate_sum([s], -1.0, np.ones(NV), frame)
    with pytest.raises(DomainError):
        ht_truncate_sum([s], -1.0)


def test_moments_zero_and_dense_oracle(rng, problem, vgrid):
    z = ht_zero(NX, NV, NV)
    mz = problem.moments([z])
    assert mz.shape == (4, *NX) and np.all(mz == 0)
    f = random_ht(rng, r=3)
    m = problem.moments([f])
    rho_d, j1_d, j2_d, kap_d = dense_moments_2d(f.dense(), vgrid, vgrid)
    ref = np.abs(rho_d).max() + 1.0
    assert np.allclose(m, np.stack([rho_d, j1_d, j2_d, kap_d]), atol=1e-12 * ref)


def test_moments_product_maxwellian(rng, problem, vgrid):
    maxw = np.exp(-vgrid.v**2 / 2.0)
    f = HtTensor(np.ones((NX[0] * NX[1], 1)), np.eye(1), np.ones((1, 1, 1)),
                 maxw[:, None], maxw[:, None], NX)
    m = problem.moments([f])
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


def test_lift_roundtrip(rng, problem, basis):
    for _ in range(30):
        m = np.stack([rng.standard_normal(NX), rng.standard_normal(NX),
                      rng.standard_normal(NX), rng.standard_normal(NX)])
        got = problem.moments([ht_lift_moments(m, basis)])
        assert np.max(np.abs(got - m)) < 1e-12 * (np.abs(m).max() + 1.0)


def _zero_moments():
    return np.zeros((4, *NX))


@pytest.fixture(scope="module")
def exact_pin(problem):
    """``Problem.pin`` at eps = 0 on ``problem``'s grids."""
    return replace(problem, cfg=replace(problem.cfg, eps=0.0)).pin


def test_remove_moments(rng, problem, vgrid, exact_pin):
    # pinning to zero moments at eps = 0 removes the moment carrier
    f = random_ht(rng, r=3)
    out = exact_pin([f], _zero_moments())
    m = problem.moments([out])
    ref = np.abs(problem.moments([f])).max() + 1.0
    assert np.abs(m).max() < 1e-12 * ref
    # dense complement-projection oracle
    oracle = dense_remove_moments_2d(f.dense(), vgrid)
    assert np.allclose(out.dense(), oracle, atol=1e-11 * np.abs(f.dense()).max())
    # idempotence
    out2 = exact_pin([out], _zero_moments())
    assert np.allclose(out2.dense(), out.dense(), atol=1e-11 * np.abs(f.dense()).max())


def test_weighted_truncate_eps_zero_keeps_faint_directions(problem, vgrid, basis):
    # a zero-moment remainder plus its tiny leak carrier: in the 1/w-weighted
    # norm its leaf spectra span about 1e9, more than a Gram resolves, and
    # eps = 0 still keeps every direction
    wp = vgrid.w_points
    metric = np.sqrt(np.outer(wp, wp))[None, None]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        f = random_ht(rng, r=3)
        own = ht_lift_moments(problem.moments([f]), basis)
        rem = ht_truncate_sum([f, ht_scale(own, -1.0)], 0.0, np.sqrt(wp))
        leak = ht_lift_moments(problem.moments([rem]), basis)
        faint = ht_add(ht_scale(leak, -1.0), rem)
        out = ht_truncate_sum([faint], 0.0, np.sqrt(wp))
        assert out.ranks == rem.ranks
        err = np.linalg.norm((out.dense() - faint.dense()) / metric)
        assert err <= 1e-13 * np.linalg.norm(faint.dense() / metric)


def test_carrier_in_span_annihilated(rng, basis, exact_pin):
    m = np.stack([rng.standard_normal(NX), rng.standard_normal(NX),
                  rng.standard_normal(NX), rng.standard_normal(NX)])
    carrier = ht_lift_moments(m, basis)
    out = exact_pin([carrier], _zero_moments())
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


def _projected_sums(rng, g):
    """2D block lists on the velocity grid g: narrow sums, whose stacked
    leaves are fewer than g's points (QR leaf coordinates), saturated ones
    (the grid's own), each also cancelling (a block and its negative beside
    a small one), and a two-beam profile with a transport-sized kick."""
    wp, v = g.w_points, g.v

    def shaped(r, size=1.0):
        return HtTensor(size * rng.standard_normal((NX[0] * NX[1], r)),
                        rng.standard_normal((r, r)), rng.standard_normal((r, r, r)),
                        wp[:, None] * rng.standard_normal((g.n, r)),
                        wp[:, None] * rng.standard_normal((g.n, r)), NX)

    x = np.linspace(0.0, 2.0 * np.pi, NX[0], endpoint=False)
    beams = (np.exp(-((v - 2.4) ** 2) / 2.0) + np.exp(-((v + 2.4) ** 2) / 2.0))[:, None]
    space = np.add.outer(np.ones(NX[0]), 1e-3 * np.cos(x)).reshape(-1, 1)
    two_beam = HtTensor(space, np.eye(1), np.ones((1, 1, 1)), beams, beams, NX)
    kick = HtTensor(1e-2 * rng.standard_normal((NX[0] * NX[1], 2)), np.eye(2),
                    np.eye(2)[:, :, None] * np.ones(2), np.hstack([v[:, None] * beams, beams]),
                    np.hstack([beams, np.gradient(beams[:, 0], g.h)[:, None]]), NX)
    big, wide = shaped(3), shaped(g.n // 2 + 1)
    return {
        "narrow": [shaped(int(r)) for r in rng.integers(1, 4, size=3)],
        "narrow_cancelling": [big, shaped(2, 1e-3), ht_scale(big, -1.0)],
        "saturated": [shaped(g.n // 2), shaped(g.n // 2 - 1), shaped(3)],
        "saturated_cancelling": [wide, shaped(g.n // 2 - 1, 1e-3), ht_scale(wide, -1.0)],
        "two_beam": [two_beam, kick],
    }


@pytest.mark.parametrize("rel_eps", [1e-3, 1e-6, 0.0])
@pytest.mark.parametrize("v_max", [6.0, 8.0])
def test_projected_cut_and_pin_against_dense_sums(rel_eps, v_max):
    # dense oracles at small sizes: the cut is within eps of the dense sum
    # projected off the carriers' moment span, in the norm weighted by
    # 1/(w(v1) w(v2)), and so is the pin of the sum to its own moments; the
    # pinned moments are the target's to 1e-12 of the blocks' absolute
    # moments.  eps is taken relative to the blocks' weighted magnitude bound,
    # which the Gram route resolves down to about 1e-7.  Unlike the 1D cut,
    # the leaf cuts leak moments at the truncation level (Pi is not a
    # product of leaf projectors), and the pin lifts that leak; at eps = 0
    # the leak is round-off.
    base = setup(from_preset("weak_landau_2d2v", nx=NX[0], nv=NV, v_max=v_max))
    g = base.vgrid
    metric = np.sqrt(np.outer(g.w_points, g.w_points))[None, None]
    root = np.sqrt(g.w_points)[:, None]
    weights = [np.abs(w) for w in dense_functionals(g, 2)["moments"]]
    rng = np.random.default_rng(24)
    for _ in range(3):
        for name, blocks in _projected_sums(rng, g).items():
            width = sum(b.Uv1.shape[1] for b in blocks)
            assert (width >= g.n) == name.startswith("saturated"), name
            dense = sum(b.dense() for b in blocks)
            size = sum(np.abs(b.dense()) for b in blocks)
            scale_m = max(dense_quadrature(size, w, g).max() for w in weights)
            scale_w = sum(scale_bound(HtTensor(b.Ux, b.B, b.Bvv, b.Uv1 / root, b.Uv2 / root, NX))
                          for b in blocks)
            eps = rel_eps * scale_w
            problem = replace(base, cfg=replace(base.cfg, eps=eps))
            bound = eps * (1 + 1e-8) + 1e-12 * scale_w
            rem = problem.truncate(blocks, problem.basis.sqrt_w, problem.basis.zero_frame)
            projected = dense_remove_moments_2d(dense, g) / metric
            err = np.linalg.norm(rem.dense() / metric - projected)
            assert err <= bound, name
            if eps > 0:  # no more root rank than a dense SVD needs at eps/sqrt(3),
                # the least the leaves can leave the root
                s = np.linalg.svd(projected.reshape(NX[0] * NX[1], -1), compute_uv=False)
                tails = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]
                assert rem.ranks[0] <= int(np.sum(tails > eps / np.sqrt(3.0))), name
            if eps == 0:
                assert np.abs(problem.moments([rem])).max() <= 1e-12 * scale_m, name
            own = np.stack(dense_moments_2d(dense, g, g))
            target = own + 1e-3 * scale_m * rng.standard_normal(own.shape)
            pinned = problem.pin(blocks)
            for want, out in ((own, pinned), (target, problem.pin(blocks, target))):
                assert np.abs(problem.moments([out]) - want).max() <= 1e-12 * scale_m, name
            assert np.linalg.norm((pinned.dense() - dense) / metric) <= bound, name


def test_root_takes_what_exact_leaves_leave(rng):
    # velocity leaves of rank 3, exactly representable, so the leaf cuts
    # discard round-off and the root may take nearly all of eps^2: its rank
    # is no more than a dense SVD needs at eps itself, not at eps/sqrt(3)
    nv, rv = (NV, NV), 9
    s = 0.5 ** np.arange(rv)
    f = HtTensor(np.linalg.qr(rng.standard_normal((NX[0] * NX[1], rv)))[0], np.diag(s),
                 np.linalg.qr(rng.standard_normal((rv, rv)))[0].reshape(3, 3, rv),
                 *(np.linalg.qr(rng.standard_normal((n, 3)))[0] for n in nv), NX)
    dense = f.dense()
    sv = np.linalg.svd(dense.reshape(NX[0] * NX[1], -1), compute_uv=False)
    tails = np.sqrt(np.cumsum(sv[::-1] ** 2))[::-1]
    for k in range(7):  # k = 0: a sum within eps of zero
        eps = 1.5 * tails[k]  # cut at eps keeps k; at eps/sqrt(3), more
        assert int(np.sum(tails > eps)) == k < int(np.sum(tails > eps / np.sqrt(3.0)))
        out = ht_truncate_sum([ht_scale(f, 0.5), ht_scale(f, 0.5)], eps)
        assert out.ranks[0] <= k
        assert np.linalg.norm((out.dense() - dense).ravel()) <= eps * (1 + 1e-8)


def test_every_pinned_cut_of_weak_landau_2d2v_meets_eps(monkeypatch):
    # the shipped presets (macro) to t = 0.6: each pin's cut is within eps of
    # the dense sum projected off the moment span, in the norm weighted by
    # 1/(w(v1) w(v2)); the root spends what the leaves leave of eps^2, so the
    # calls run close to eps.  two_stream_2d2v makes 20 cuts; its weight is
    # fitted to its beams (at beta 2 all 20 missed eps, by up to 6.4x)
    cut = ht.ht_truncate_sum
    for preset, calls in (("weak_landau_2d2v", 30), ("two_stream_2d2v", 20)):
        cfg = from_preset(preset, method="macro", t_end=0.6)
        g = setup(cfg).vgrid
        ratios = []

        def checked(terms, eps, sqrt_w=None, frame=None):
            assert frame is not None  # under macro every cut is a pin's
            terms = list(terms)
            out = cut(terms, eps, sqrt_w, frame)
            metric = np.outer(sqrt_w, sqrt_w)[None, None]
            projected = dense_remove_moments_2d(sum(t.dense() for t in terms), g)
            ratios.append(np.linalg.norm((out.dense() - projected) / metric) / eps)
            return out

        monkeypatch.setattr(ht, "ht_truncate_sum", checked)
        run(cfg)
        assert len(ratios) >= calls, preset
        assert max(ratios) <= 1 + 1e-8, (preset, sorted(ratios)[-3:])


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
# eps = 0 on a root of exactly as many columns as its rank: a Gaussian sketch
# that wide missed the faint block by 1.2x the bound
@example(seed=439, kind="full", weighted=False, log_eps=None)
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
        return ht_truncate_sum(blocks, eps, np.sqrt(w1) if weighted else None)

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


def test_khatri_rao_rmatmul_matches_formed_unfold(rng):
    # the per-leaf sketch product equals the formed pair unfold applied to
    # the dense Khatri-Rao test matrix, also with the unfold projected off
    # the moment span of an orthonormal leaf frame
    for nv, projected in (((7, 6), False), ((7, 7), True)):
        frame = np.linalg.qr(rng.standard_normal((7, 3)))[0] if projected else None
        blocks = [b for b in _step_like_sum(rng, "full", nv) if min(b.ranks) > 0]
        pair = _PairUnfold(blocks, frame)
        n1, n2 = pair.r1.shape[0], pair.r2.shape[0]
        cols = pair.ov[-1]
        mat = pair.matmul(np.eye(cols)).reshape(n1 * n2, cols)
        omega1, omega2 = rng.standard_normal((n1, 5)), rng.standard_normal((n2, 5))
        dense = (omega1[:, None, :] * omega2[None, :, :]).reshape(n1 * n2, 5)
        got = pair.rmatmul(omega1, omega2)
        assert got.shape == (cols, 5)
        assert np.all(np.abs(got - mat.T @ dense) <= 1e-13 * (np.abs(mat).T @ np.abs(dense)))


def test_pair_gram_matches_formed_unfold(rng):
    # gram() is mat^T mat of the formed pair unfold mat = matmul(I), to
    # round-off of |mat|^T |mat|; with a frame, mat is projected off the
    # moment span and its Gram is gram() - c c^T.  Step-like sums: two Bvv
    # runs, leaves shared by several blocks, and a zero-rank block, dropped as
    # ht_truncate_sum drops it; leaves in the grid's coordinates (nv 7) and in
    # their QR (nv 40), weighted or not
    for seed in range(4):
        for nv, projected, weighted in (((7, 6), False, False), ((7, 7), True, True),
                                        ((40, 40), False, True), ((40, 40), True, False)):
            frame = np.linalg.qr(rng.standard_normal((nv[0], 3)))[0] if projected else None
            sqrt_w = rng.uniform(0.5, 1.5, nv[0]) if weighted else None
            blocks = _step_like_sum(np.random.default_rng(seed), "full", nv)
            assert len({id(b.Bvv) for b in blocks}) < len(blocks) - 1
            assert any(min(b.ranks) == 0 for b in blocks)
            pair = _PairUnfold([b for b in blocks if min(b.ranks) > 0], frame, sqrt_w)
            assert len(pair.runs) > 2
            n1, n2 = pair.r1.shape[0], pair.r2.shape[0]
            assert (n1 < nv[0]) == (nv[0] == 40)
            cols = pair.ov[-1]
            mat = pair.matmul(np.eye(cols)).reshape(n1 * n2, cols).copy()
            gram = pair.gram().copy()
            if projected:
                gram -= pair.c @ pair.c.T
            bound = np.abs(mat).T @ np.abs(mat)
            assert np.all(np.abs(gram - mat.T @ mat) <= 1e-13 * bound)


def test_truncate_sum_same_bits_for_shared_or_copied_leaves(rng):
    # the stacked leaves are divided by sqrt(w) once, whichever blocks share
    # which leaf array: blocks holding equal copies of their leaves truncate
    # bit for bit as blocks sharing them
    basis = MomentBasis.build(make_velocity_grid(12, 6.0))
    for kind in ("full", "deficient"):
        blocks = _step_like_sum(rng, kind, (12, 12))
        copies = [replace(b, Uv1=b.Uv1.copy(), Uv2=b.Uv2.copy()) for b in blocks]
        for args in ((), (basis.sqrt_w,), (basis.sqrt_w, basis.zero_frame)):
            for eps in (0.0, 1e-3):
                shared = ht_truncate_sum(blocks, eps, *args)
                copied = ht_truncate_sum(copies, eps, *args)
                assert shared.ranks == copied.ranks
                for name in ("Ux", "B", "Bvv", "Uv1", "Uv2"):
                    assert getattr(shared, name).tobytes() == getattr(copied, name).tobytes()


def test_truncate_sum_floor_only_at_eps_zero(rng, monkeypatch):
    # the droptol floor is the only cut at eps = 0, where the 1D truncation
    # counts the formed root matricization exactly; eps > 0 cuts the leaves
    # at eps/sqrt(3) and the root at what they leave of eps^2, and forms no
    # matricization to count
    calls = []
    cut = lowrank.truncate_sum
    monkeypatch.setattr(lowrank, "truncate_sum", lambda *a: calls.append(a) or cut(*a))
    terms = [random_ht(rng, r=3), ht_scale(random_ht(rng, r=2), 1e-3)]
    ht_truncate_sum(terms, 1e-4)
    ht_truncate_sum(terms, 1e-4, np.ones(NV))
    assert calls == []
    ht_truncate_sum(terms, 0.0)
    assert len(calls) == 1


def test_truncate_sum_result_does_not_alias_the_workspace(rng):
    grids = [(NX, NV), ((4, 6), 10)]
    weights = {nv: np.sqrt(make_velocity_grid(nv, 6.0).w_points) for _, nv in grids}
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
