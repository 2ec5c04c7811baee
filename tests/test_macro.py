import numpy as np
import pytest

from lrvlasov.config import from_preset
from lrvlasov.driver import setup
from lrvlasov.grids import spatial_grid_1d, spatial_grid_2d
from lrvlasov.htucker import HtTensor, ht_zero
from lrvlasov.lowrank import LowRankMatrix, zero
from lrvlasov.macro import combine, rate
from lrvlasov.poisson import ElectricField
from lrvlasov.upwind import flux_difference, reconstruct_interface, upwind_derivative

from reference import dense_kfvs_fluxes

NX, NV = 16, 33


@pytest.fixture(scope="module")
def problem():
    """The 1D fluxes on the velocity grid of NV points on [-8, 8]."""
    return setup(from_preset("weak_landau_1d", nx=NX, nv=NV, v_max=8.0))


@pytest.fixture(scope="module")
def vgrid(problem):
    return problem.vgrid


@pytest.fixture(scope="module")
def problem2():
    """The 2D fluxes on 8 x 8 cells and the velocity grid of 16 points on [-6, 6]."""
    return setup(from_preset("weak_landau_2d2v", nx=8, nv=16))


@pytest.fixture(scope="module")
def sgrid():
    return spatial_grid_1d(NX, 0.0, 2.0 * np.pi)


def zero_field(n):
    return ElectricField(E=(np.zeros(n),))


def state(*rows):
    """Stacked macroscopic state: rho, J_1..J_d, e."""
    return np.stack(rows)


def test_fluxes_zero(problem):
    [(plus, minus)] = problem.fluxes(zero(NX, NV))
    assert np.all(plus == 0.0) and np.all(minus == 0.0)


def test_fluxes_even_profile_mass_cancellation(problem, vgrid, rng):
    gx = np.abs(rng.standard_normal(NX)) + 1.0
    maxw = np.exp(-vgrid.v**2 / 2.0)
    f = LowRankMatrix(np.ones(1), gx[:, None], maxw[:, None])
    [(plus, minus)] = problem.fluxes(f)
    # odd integrand: F+ and F- mass fluxes cancel exactly in the sum
    assert np.allclose(plus[0] + minus[0], 0.0, atol=1e-14)
    assert np.allclose(plus[0], -minus[0], atol=1e-14)


def test_fluxes_shifted_maxwellian_analytic():
    # dense quadrature + analytic Gaussian-moment oracle
    problem = setup(from_preset("weak_landau_1d", nx=8, nv=257, v_max=10.0))
    g = problem.vgrid
    u = 1.3
    maxw = np.exp(-((g.v - u) ** 2) / 2.0)
    gx = np.ones(8)
    f = LowRankMatrix(np.ones(1), gx[:, None], maxw[:, None])
    [(plus, minus)] = problem.fluxes(f)
    unsplit = plus + minus
    dense = dense_kfvs_fluxes(f.dense(), g)
    assert np.allclose(unsplit, dense["plus"] + dense["minus"], atol=1e-13)
    root = np.sqrt(2.0 * np.pi)
    analytic = np.array([root * u, root * (u**2 + 1.0), 0.5 * root * u * (u**2 + 3.0)])
    for i in range(3):
        assert unsplit[i][0] == pytest.approx(analytic[i], rel=1e-8)


def test_split_consistency_random(rng, problem, vgrid):
    f = LowRankMatrix(np.abs(rng.standard_normal(4)) + 0.1,
                      rng.standard_normal((NX, 4)), rng.standard_normal((NV, 4)))
    [(plus, minus)] = problem.fluxes(f)
    h, v = vgrid.h, vgrid.v
    dense = f.dense()
    unsplit_oracle = np.stack([h * dense @ v, h * dense @ v**2, 0.5 * h * dense @ v**3])
    assert np.allclose(plus + minus, unsplit_oracle,
                       atol=1e-12 * np.abs(unsplit_oracle).max())


def test_kinetic_macro_flux_compatibility(rng, problem, sgrid, vgrid):
    # the v-quadrature of the kinetic x-transport term equals the divergence
    # of the reconstructed macro mass flux (linearity of the stencils)
    f = LowRankMatrix(np.abs(rng.standard_normal(3)) + 0.1,
                      rng.standard_normal((NX, 3)), rng.standard_normal((NV, 3)))
    (hx,) = sgrid.h
    v = vgrid.v
    vp, vm = np.maximum(v, 0.0), np.minimum(v, 0.0)
    kinetic = np.zeros(NX)
    for l in range(f.rank):
        wp = vgrid.h * np.dot(f.Uv[:, l], vp)
        wm = vgrid.h * np.dot(f.Uv[:, l], vm)
        kinetic += f.C[l] * (upwind_derivative(f.Ux[:, l], "plus", hx, "periodic") * wp
                             + upwind_derivative(f.Ux[:, l], "minus", hx, "periodic") * wm)
    [(plus, minus)] = problem.fluxes(f)
    fhat = (reconstruct_interface(plus[0], "plus", "periodic")
            + reconstruct_interface(minus[0], "minus", "periodic"))
    macro = flux_difference(fhat, hx)
    assert np.allclose(kinetic, macro, atol=1e-12 * (np.abs(macro).max() + 1))


def test_step_coefficient_identity(problem, sgrid):
    rng = np.random.default_rng(0)
    u_n = state(rng.standard_normal(NX), rng.standard_normal(NX), rng.standard_normal(NX))
    u_nm2 = state(rng.standard_normal(NX), rng.standard_normal(NX), rng.standard_normal(NX))
    fs = problem.fluxes(zero(NX, NV))
    out = combine([u_nm2, u_n], [0.25, 0.75], rate(u_n, fs, zero_field(NX), sgrid), 1.5 * 0.1)
    assert np.allclose(out[0], 0.25 * u_nm2[0] + 0.75 * u_n[0], atol=1e-15)
    assert np.allclose(out[-1], 0.25 * u_nm2[-1] + 0.75 * u_n[-1], atol=1e-15)


def test_step_total_telescoping(rng, problem, sgrid, vgrid):
    f = LowRankMatrix(np.abs(rng.standard_normal(3)) + 0.5,
                      rng.standard_normal((NX, 3)) ** 2 + 0.5,
                      np.exp(-vgrid.v[:, None] ** 2 / 2.0) * np.ones((1, 3)))
    fs = problem.fluxes(f)
    u_n = state(np.abs(rng.standard_normal(NX)) + 1.0,
                rng.standard_normal(NX), np.abs(rng.standard_normal(NX)) + 1.0)
    u_nm2 = u_n
    dt = 0.05
    out = combine([u_nm2, u_n], [0.25, 0.75], rate(u_n, fs, zero_field(NX), sgrid), 1.5 * dt)
    # zero source: totals follow the multistep combination exactly
    for row in (0, -1):  # rho, e
        total_out = out[row].sum()
        expect = 0.25 * u_nm2[row].sum() + 0.75 * u_n[row].sum()
        assert total_out == pytest.approx(expect, rel=1e-13)


def test_momentum_source_is_rho_e(rng, problem, sgrid):
    u_n = state(np.abs(rng.standard_normal(NX)) + 1.0, np.zeros(NX), np.ones(NX))
    fs = problem.fluxes(zero(NX, NV))
    e = rng.standard_normal(NX)
    field = ElectricField(E=(e,))
    dt = 0.2
    out = combine([u_n, u_n], [0.25, 0.75], rate(u_n, fs, field, sgrid), 1.5 * dt)
    assert np.allclose(out[1], 1.5 * dt * u_n[0] * e, atol=1e-14)


def test_energy_row_gains_the_mean_current_work(rng, problem, sgrid):
    # with no flux, the energy rate is E . mean(J), whatever J's profile; its
    # total vanishes with that of E
    e = np.fft.irfft(np.fft.rfft(rng.standard_normal(NX)) * (np.arange(NX // 2 + 1) > 0), NX)
    j = rng.standard_normal(NX) + 0.7
    u = state(np.ones(NX), j, np.ones(NX))
    out = rate(u, problem.fluxes(zero(NX, NV)), ElectricField(E=(e,)), sgrid)
    assert np.array_equal(out[-1], e * j.mean())
    assert abs(out[-1].sum()) < 1e-14 * np.abs(out[-1]).sum()


def test_euler_stage_consistency(rng, problem, sgrid, vgrid):
    # one Euler stage equals the multistep with both levels set equal and the
    # coefficients collapsed (u + dt L(u)); verified against a manual build
    f = LowRankMatrix(np.abs(rng.standard_normal(2)) + 0.5,
                      rng.standard_normal((NX, 2)), rng.standard_normal((NV, 2)))
    fs = problem.fluxes(f)
    [(plus, minus)] = fs
    u = state(rng.standard_normal(NX), rng.standard_normal(NX), rng.standard_normal(NX))
    dt = 0.03
    (hx,) = sgrid.h
    out = combine([u], [1.0], rate(u, fs, zero_field(NX), sgrid), dt)
    fhat0 = (reconstruct_interface(plus[0], "plus", "periodic")
             + reconstruct_interface(minus[0], "minus", "periodic"))
    expect_rho = u[0] - dt * flux_difference(fhat0, hx)
    assert np.allclose(out[0], expect_rho, atol=1e-14)


# ---------------------------------------------------------------------------
# 2D


def random_ht(rng, nx=(8, 8), nv=(16, 16), r=2):
    return HtTensor(rng.standard_normal((nx[0] * nx[1], r)),
                    rng.standard_normal((r, r)), rng.standard_normal((r, r, r)),
                    rng.standard_normal((nv[0], r)), rng.standard_normal((nv[1], r)),
                    nx)


def test_fluxes_2d_zero(problem2):
    (x1_plus, _), (_, x2_minus) = problem2.fluxes(ht_zero((8, 8), 16, 16))
    assert np.all(x1_plus == 0) and np.all(x2_minus == 0)


def test_fluxes_2d_parity(problem2):
    # even product Maxwellian: all odd-monomial unsplit fluxes vanish
    g = problem2.vgrid
    maxw = np.exp(-g.v**2 / 2.0)
    f = HtTensor(np.ones((64, 1)), np.eye(1), np.ones((1, 1, 1)),
                 maxw[:, None], maxw[:, None], (8, 8))
    (x1_plus, x1_minus), _ = problem2.fluxes(f)
    for i in (0, 2, 3):  # rho, J2 and e fluxes along x1 are odd in v1
        assert np.max(np.abs(x1_plus[i] + x1_minus[i])) < 1e-13


def test_fluxes_2d_match_dense(rng, problem2):
    g = problem2.vgrid
    f = random_ht(rng)
    (x1_plus, _), _ = problem2.fluxes(f)
    dense = f.dense()
    hh = g.h * g.h
    v = g.v
    vp = np.maximum(v, 0.0)
    phi = {
        0: np.multiply.outer(vp, np.ones_like(v)),
        1: np.multiply.outer(vp**2, np.ones_like(v)),
        2: np.multiply.outer(vp, v),
        3: 0.5 * (np.multiply.outer(vp**3, np.ones_like(v))
                  + np.multiply.outer(vp, v**2)),
    }
    for i in range(4):
        oracle = hh * np.tensordot(dense, phi[i], axes=((2, 3), (0, 1)))
        assert np.allclose(x1_plus[i], oracle, atol=1e-12 * (np.abs(oracle).max() + 1))


def test_macro_step_2d_telescoping(rng, problem2):
    sg = spatial_grid_2d(8, 8, 0.0, 2 * np.pi)
    f = random_ht(rng)
    fs = problem2.fluxes(f)
    u = state(rng.standard_normal((8, 8)), rng.standard_normal((8, 8)),
              rng.standard_normal((8, 8)), rng.standard_normal((8, 8)))
    field = ElectricField(E=(np.zeros((8, 8)), np.zeros((8, 8))))
    out = combine([u, u], [0.25, 0.75], rate(u, fs, field, sg), 1.5 * 0.02)
    for row in (0, -1):  # rho, e
        assert out[row].sum() == pytest.approx(u[row].sum(), rel=1e-12)


def test_macro_step_2d_dimension_splitting(rng, problem2):
    # separable state with E=0: the 2D update is the sum of the per-direction
    # 1D updates applied to the same fluxes
    sg = spatial_grid_2d(8, 8, 0.0, 2 * np.pi)
    f = random_ht(rng)
    fs = problem2.fluxes(f)
    (x1_plus, x1_minus), (x2_plus, x2_minus) = fs
    u = state(rng.standard_normal((8, 8)), rng.standard_normal((8, 8)),
              rng.standard_normal((8, 8)), rng.standard_normal((8, 8)))
    field = ElectricField(E=(np.zeros((8, 8)), np.zeros((8, 8))))
    dt = 0.02
    out = combine([u, u], [0.25, 0.75], rate(u, fs, field, sg), 1.5 * dt)
    h1, h2 = sg.h
    manual = []
    for i, arr in enumerate(u):  # rho, J1, J2, e
        f1 = (reconstruct_interface(x1_plus[i], "plus", "periodic", axis=0)
              + reconstruct_interface(x1_minus[i], "minus", "periodic", axis=0))
        f2 = (reconstruct_interface(x2_plus[i], "plus", "periodic", axis=1)
              + reconstruct_interface(x2_minus[i], "minus", "periodic", axis=1))
        div = flux_difference(f1, h1, axis=0) + flux_difference(f2, h2, axis=1)
        manual.append(arr + 1.5 * dt * (-div))
    # both levels equal: multistep collapses to u + (3/2) dt L
    assert np.allclose(out[0], manual[0], atol=1e-13)
    assert np.allclose(out[1], manual[1], atol=1e-13)
    assert np.allclose(out[2], manual[2], atol=1e-13)
    assert np.allclose(out[3], manual[3], atol=1e-13)
