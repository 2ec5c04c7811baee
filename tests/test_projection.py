from dataclasses import replace

import numpy as np
import pytest

from lrvlasov.config import from_preset
from lrvlasov.driver import setup
from lrvlasov.errors import DimensionError
from lrvlasov.grids import GaussianWeight, make_velocity_grid, weighted_inner
from lrvlasov import lowrank
from lrvlasov.lowrank import LowRankMatrix, add, recompress, scale, zero
from lrvlasov.projection import MomentBasis, lift_moments, moment_split

from reference import dense_carrier, dense_moments, dense_weighted_projection, scale_bound

NV = 33
NX = 16


@pytest.fixture(scope="module")
def vgrid():
    return make_velocity_grid(NV, 6.0)


@pytest.fixture(scope="module")
def basis(vgrid):
    return MomentBasis.build(vgrid)


@pytest.fixture(scope="module")
def problem():
    # weak_landau_1d's velocity grid at NV points is make_velocity_grid(NV, 6.0)
    return setup(from_preset("weak_landau_1d", nx=NX, nv=NV))


def pin(problem, f, eps, target=None):
    """The one moment pin, ``Problem.pin``, of f alone at threshold eps."""
    return replace(problem, cfg=replace(problem.cfg, eps=eps)).pin([f], target)


def random_lr(rng, rank=4, nx=NX, nv=NV):
    return LowRankMatrix(np.abs(rng.standard_normal(rank)) + 0.1,
                         rng.standard_normal((nx, rank)),
                         rng.standard_normal((nv, rank)))


def test_basis_orthogonality(vgrid, basis):
    b1, b2, b3 = basis.vectors()
    assert abs(weighted_inner(b1, b2, vgrid)) < 1e-12
    assert abs(weighted_inner(b1, b3, vgrid)) < 1e-12 * basis.norm1_sq
    assert abs(weighted_inner(b2, b3, vgrid)) < 1e-12
    assert basis.c > 0


def test_moments_zero(problem):
    m = problem.moments([zero(NX, NV)])
    assert m.shape == (3, NX) and np.all(m == 0)


def test_moments_maxwellian_profile(problem, vgrid):
    # dense quadrature oracle for a separable product g(x) x Maxwellian
    rng = np.random.default_rng(1)
    gx = 1.0 + 0.3 * rng.standard_normal(NX)
    maxw = np.exp(-vgrid.v**2 / 2.0)
    f = LowRankMatrix(np.ones(1), gx[:, None], maxw[:, None])
    m = problem.moments([f])
    rho_d, j_d, k_d = dense_moments(f.dense(), vgrid)
    assert np.allclose(m[0], rho_d, atol=1e-14)
    assert np.allclose(m[1], j_d, atol=1e-14)
    assert np.allclose(m[2], k_d, atol=1e-14)
    # J vanishes for the even profile; kappa tracks the discrete second moment
    assert np.max(np.abs(m[1])) < 1e-14
    mass_g = vgrid.h * maxw.sum()
    second = 0.5 * vgrid.h * np.dot(maxw, vgrid.v**2)
    assert np.allclose(m[0], gx * mass_g, atol=1e-14)
    assert np.allclose(m[2], m[0] * (second / mass_g), atol=1e-13)


def test_moments_match_dense_random(rng, problem, vgrid):
    f = random_lr(rng, rank=6)
    m = problem.moments([f])
    rho_d, j_d, k_d = dense_moments(f.dense(), vgrid)
    scale_ref = np.abs(rho_d).max() + 1.0
    assert np.allclose(m[0], rho_d, atol=1e-13 * scale_ref)
    assert np.allclose(m[1], j_d, atol=1e-13 * scale_ref)
    assert np.allclose(m[2], k_d, atol=1e-13 * scale_ref)


def test_moments_grid_mismatch(rng, problem):
    f = random_lr(rng, nv=NV + 1)
    with pytest.raises(DimensionError):
        problem.moments([f])


def test_lift_zero_moments(basis):
    m = np.zeros((3, NX))
    out = lift_moments(m, basis)
    assert np.max(np.abs(out.dense())) == 0.0


def test_lift_degenerate_third_term(rng, basis, vgrid):
    # kappa = c rho / 2 makes the third carrier term vanish identically
    rho = np.abs(rng.standard_normal(NX)) + 1.0
    m = np.stack([rho, np.zeros(NX), 0.5 * basis.c * rho])
    out = lift_moments(m, basis)
    assert recompress(out).rank <= 1


def test_lift_roundtrip_random(rng, basis, problem):
    for _ in range(30):
        m = np.stack([rng.standard_normal(NX) * 3.0, rng.standard_normal(NX),
                      rng.standard_normal(NX)])
        got = problem.moments([lift_moments(m, basis)])
        assert np.allclose(got, m, atol=1e-12 * np.abs(m).max())


def test_lift_matches_dense_carrier(rng, basis, vgrid):
    m = np.stack([rng.standard_normal(NX), rng.standard_normal(NX),
                  rng.standard_normal(NX)])
    lifted = lift_moments(m, basis).dense()
    oracle = dense_carrier(*m, vgrid)
    assert np.allclose(lifted, oracle, atol=1e-13 * np.abs(oracle).max())


def test_split_carrier_exactness_on_subspace(rng, basis, vgrid):
    # f entirely inside the weighted moment subspace leaves no remainder
    wp = vgrid.w_points
    v = vgrid.v
    coeff = rng.standard_normal((NX, 3))
    dense = coeff @ np.stack([wp, wp * v, wp * v**2])
    u, s, vt = np.linalg.svd(dense, full_matrices=False)
    f = LowRankMatrix(s[:3], u[:, :3], vt[:3].T)
    carrier, remainder = moment_split(f, basis)
    assert np.max(np.abs(remainder.dense())) < 1e-12 * np.abs(dense).max()


def test_split_moment_bookkeeping(rng, basis, problem):
    f = random_lr(rng, rank=6)
    carrier, remainder = moment_split(f, basis)
    m_f = problem.moments([f])
    m_c = problem.moments([carrier])
    ref = np.abs(m_f).max() + 1.0
    assert np.allclose(m_c[0], m_f[0], atol=1e-12 * ref)
    m_r = problem.moments([remainder])
    assert np.abs(m_r).max() < 1e-11 * ref


def test_split_matches_dense_projection(rng, basis, vgrid):
    # dense projection oracle: carrier = w * (projection of f/w onto the basis)
    f = random_lr(rng, rank=6)
    carrier, _ = moment_split(f, basis)
    oracle = dense_weighted_projection(f.dense(), vgrid)
    assert np.allclose(carrier.dense(), oracle, atol=1e-11 * np.abs(oracle).max())


def test_projector_idempotence(rng, basis, vgrid):
    f = random_lr(rng)
    carrier, _ = moment_split(f, basis)
    carrier2, rem2 = moment_split(carrier, basis)
    assert np.allclose(carrier2.dense(), carrier.dense(),
                       atol=1e-11 * np.abs(carrier.dense()).max())
    assert np.max(np.abs(rem2.dense())) < 1e-11 * np.abs(carrier.dense()).max()


def test_pin_eps_zero(rng, problem):
    f = random_lr(rng)
    out = pin(problem, f, 0.0)
    assert np.allclose(out.dense(), f.dense(), atol=1e-11 * np.abs(f.dense()).max())


def test_pin_moment_preservation(rng, problem, basis):
    # the suite's seed and ten more: a pin that moves at round-off must keep
    # both bounds on every one of them, not just on one draw
    for source in [rng, *(np.random.default_rng(s) for s in range(10))]:
        _check_pin_moment_preservation(source, problem, basis)


def _check_pin_moment_preservation(rng, problem, basis):
    for k in range(100):
        f = random_lr(rng, rank=int(rng.integers(1, 7)))
        if k % 2:
            # a zero-moment part far above the moments, whose truncation
            # round-off leaks into them
            f = add(f, scale(moment_split(random_lr(rng, rank=3), basis)[1], 200.0))
        eps = 10.0 ** rng.uniform(-8, -2)
        out = pin(problem, f, eps)
        m_in, m_out = problem.moments([f]), problem.moments([out])
        ref = np.abs(m_in).max() + 1e-3
        assert np.max(np.abs(m_out - m_in)) < 1e-12 * ref
        # rank bound: one three-term carrier plus the truncated remainder
        _, remainder = moment_split(f, basis)
        r2 = lowrank.truncate_sum([remainder], eps, basis.sqrt_w).rank
        assert out.rank <= 3 + r2


def _block_sums(rng, g, nx=NX):
    """1D block lists: random blocks shaped like w, a zero-moment part 200x
    the moments beside them, cancelling sums (a block and its negative beside
    a small one), and a two-beam profile with a transport-sized perturbation,
    alone and inside a cancelling sum."""
    wp, v = g.w_points, g.v

    def shaped(rank, size=1.0):
        return LowRankMatrix(size * (np.abs(rng.standard_normal(rank)) + 0.1),
                             rng.standard_normal((nx, rank)),
                             wp[:, None] * rng.standard_normal((g.n, rank)))

    x = np.linspace(0.0, 2.0 * np.pi, nx, endpoint=False)
    beams = np.exp(-((v - 2.4) ** 2) / 2.0) + np.exp(-((v + 2.4) ** 2) / 2.0)
    two_beam = LowRankMatrix(np.ones(2), np.column_stack([np.ones(nx), 1e-3 * np.cos(x)]),
                             np.column_stack([beams, beams]))
    kick = LowRankMatrix(1e-2 * np.ones(2), rng.standard_normal((nx, 2)),
                         np.column_stack([v * beams, np.gradient(beams, g.h)]))
    big = shaped(3)
    _, zero_part = moment_split(random_lr(rng, rank=3, nx=nx, nv=g.n), MomentBasis.build(g))
    return {
        "random": [shaped(int(r)) for r in rng.integers(1, 4, size=3)],
        "zero_moment_heavy": [shaped(2), scale(zero_part, 200.0)],
        "cancelling": [big, shaped(2, 1e-3), scale(big, -1.0)],
        "two_beam": [two_beam, kick],
        "two_beam_cancelling": [two_beam, kick, scale(two_beam, -1.0), two_beam],
    }


@pytest.mark.parametrize("eps", [1e-3, 1e-7, 0.0])
@pytest.mark.parametrize("v_max", [6.0, 8.0])
def test_zero_moment_cut_and_pin_against_dense_sums(eps, v_max):
    # dense oracles at small sizes, relative to the blocks' absolute moments
    # and 1/w-weighted magnitude bound: the cut has no moments and no more
    # rank than a dense SVD of the sum's projection off the carriers (at
    # eps > 0), the pin has the target's moments, and the pin of the sum to
    # its own moments is within eps of it in the norm weighted by 1/w
    problem = setup(from_preset("weak_landau_1d", nx=NX, nv=NV, v_max=v_max, eps=eps))
    g = problem.vgrid
    root = np.sqrt(g.w_points)
    frame = np.linalg.qr(root[:, None] * np.vander(g.v, 3))[0]
    table = g.h * np.abs(np.column_stack([np.ones(g.n), g.v, 0.5 * g.v**2]))
    rng = np.random.default_rng(23)
    for _ in range(5):
        for name, blocks in _block_sums(rng, g).items():
            dense = sum(b.dense() for b in blocks)
            scale_m = (sum(np.abs(b.dense()) for b in blocks) @ table).max()
            scale_w = sum(scale_bound(LowRankMatrix(b.C, b.Ux, b.Uv / root[:, None]))
                          for b in blocks)
            rem = problem.truncate(blocks, problem.basis.sqrt_w, problem.basis.zero_frame)
            assert np.abs(problem.moments([rem])).max() <= 1e-12 * scale_m, name
            if eps > 0:
                z = dense / root
                s = np.linalg.svd(z - (z @ frame) @ frame.T, compute_uv=False)
                tails = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]
                assert rem.rank <= int(np.sum(tails > eps)), name
            own = np.stack(dense_moments(dense, g))
            target = own + 1e-3 * scale_m * rng.standard_normal(own.shape)
            pinned = problem.pin(blocks)
            for want, out in ((own, pinned), (target, problem.pin(blocks, target))):
                assert np.abs(problem.moments([out]) - want).max() <= 1e-12 * scale_m, name
            err = np.linalg.norm((pinned.dense() - dense) / root)
            assert err <= eps * (1 + 1e-8) + 1e-12 * scale_w, name


def test_pin_weighted_error_bound(rng, problem, vgrid):
    # constructed fast-decaying remainder spectrum; dense weighted-SVD oracle
    f = add(random_lr(rng, rank=2), scale(random_lr(rng, rank=3), 1e-5))
    eps = 1e-3
    out = pin(problem, f, eps)
    err = (out.dense() - f.dense()) / np.sqrt(vgrid.w_points)[None, :]
    assert np.linalg.norm(err) <= eps * (1 + 1e-8)


def test_pinned_moments_definitional_match(rng, problem):
    f = random_lr(rng)
    eps = 1e-4
    own = problem.moments([f])
    a = pin(problem, f, eps)
    b = pin(problem, f, eps, own)
    assert np.allclose(a.dense(), b.dense(), atol=1e-13 * np.abs(a.dense()).max())


def test_pinned_moments_zero_target(rng, problem):
    f = random_lr(rng)
    m0 = np.zeros((3, NX))
    out = pin(problem, f, 1e-4, m0)
    m_out = problem.moments([out])
    assert np.abs(m_out).max() < 1e-12 * (np.abs(problem.moments([f])).max() + 1.0)


def test_pinned_moments_track_target(rng, problem):
    for _ in range(30):
        f = random_lr(rng)
        own = problem.moments([f])
        delta = 1e-3 * rng.standard_normal(NX)
        target = own + delta
        out = pin(problem, f, 1e-5, target)
        got = problem.moments([out])
        ref = np.abs(target).max() + 1.0
        assert np.max(np.abs(got - target)) < 1e-12 * ref


def test_bump_weight_basis_still_orthogonal():
    g = make_velocity_grid(64, 10.0, GaussianWeight(3.0))
    b = MomentBasis.build(g)
    b1, b2, b3 = b.vectors()
    assert abs(weighted_inner(b1, b3, g)) < 1e-12 * b.norm1_sq
