import numpy as np
import pytest

from lrvlasov.grids import make_velocity_grid, spatial_grid_1d, spatial_grid_2d
from lrvlasov.htucker import HtTensor
from lrvlasov.lowrank import LowRankMatrix, zero
from lrvlasov.macro import combine, kfvs_fluxes_1d, kfvs_fluxes_2d, rate
from lrvlasov.poisson import ElectricField
from lrvlasov.upwind import flux_difference, reconstruct_interface, upwind_derivative

from reference import dense_kfvs_fluxes

NX, NV = 16, 33


@pytest.fixture(scope="module")
def vgrid():
    return make_velocity_grid(NV, 8.0)


@pytest.fixture(scope="module")
def sgrid():
    return spatial_grid_1d(NX, 0.0, 2.0 * np.pi)


def zero_field(n):
    return ElectricField(E=(np.zeros(n),))


def state(*rows):
    """Stacked macroscopic state: rho, J_1..J_d, e."""
    return np.stack(rows)


def test_fluxes_zero(vgrid):
    [(plus, minus)] = kfvs_fluxes_1d(zero(NX, NV), vgrid)
    assert np.all(plus == 0.0) and np.all(minus == 0.0)


def test_fluxes_even_profile_mass_cancellation(vgrid, rng):
    gx = np.abs(rng.standard_normal(NX)) + 1.0
    maxw = np.exp(-vgrid.v**2 / 2.0)
    f = LowRankMatrix(np.ones(1), gx[:, None], maxw[:, None])
    [(plus, minus)] = kfvs_fluxes_1d(f, vgrid)
    # odd integrand: F+ and F- mass fluxes cancel exactly in the sum
    assert np.allclose(plus[0] + minus[0], 0.0, atol=1e-14)
    assert np.allclose(plus[0], -minus[0], atol=1e-14)


def test_fluxes_shifted_maxwellian_analytic(rng):
    # dense quadrature + analytic Gaussian-moment oracle
    g = make_velocity_grid(257, 10.0)
    u = 1.3
    maxw = np.exp(-((g.v - u) ** 2) / 2.0)
    gx = np.ones(8)
    f = LowRankMatrix(np.ones(1), gx[:, None], maxw[:, None])
    [(plus, minus)] = kfvs_fluxes_1d(f, g)
    unsplit = plus + minus
    dense = dense_kfvs_fluxes(f.dense(), g)
    assert np.allclose(unsplit, dense["plus"] + dense["minus"], atol=1e-13)
    root = np.sqrt(2.0 * np.pi)
    analytic = np.array([root * u, root * (u**2 + 1.0), 0.5 * root * u * (u**2 + 3.0)])
    for i in range(3):
        assert unsplit[i][0] == pytest.approx(analytic[i], rel=1e-8)


def test_split_consistency_random(rng, vgrid):
    f = LowRankMatrix(np.abs(rng.standard_normal(4)) + 0.1,
                      rng.standard_normal((NX, 4)), rng.standard_normal((NV, 4)))
    [(plus, minus)] = kfvs_fluxes_1d(f, vgrid)
    h, v = vgrid.h, vgrid.v
    dense = f.dense()
    unsplit_oracle = np.stack([h * dense @ v, h * dense @ v**2, 0.5 * h * dense @ v**3])
    assert np.allclose(plus + minus, unsplit_oracle,
                       atol=1e-12 * np.abs(unsplit_oracle).max())


def test_kinetic_macro_flux_compatibility(rng, sgrid, vgrid):
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
    [(plus, minus)] = kfvs_fluxes_1d(f, vgrid)
    fhat = (reconstruct_interface(plus[0], "plus", "periodic")
            + reconstruct_interface(minus[0], "minus", "periodic"))
    macro = flux_difference(fhat, hx)
    assert np.allclose(kinetic, macro, atol=1e-12 * (np.abs(macro).max() + 1))


def test_step_coefficient_identity(sgrid):
    rng = np.random.default_rng(0)
    u_n = state(rng.standard_normal(NX), rng.standard_normal(NX), rng.standard_normal(NX))
    u_nm2 = state(rng.standard_normal(NX), rng.standard_normal(NX), rng.standard_normal(NX))
    fs = kfvs_fluxes_1d(zero(NX, NV), make_velocity_grid(NV, 8.0))
    out = combine([u_nm2, u_n], [0.25, 0.75], rate(u_n, fs, zero_field(NX), sgrid), 1.5 * 0.1)
    assert np.allclose(out[0], 0.25 * u_nm2[0] + 0.75 * u_n[0], atol=1e-15)
    assert np.allclose(out[-1], 0.25 * u_nm2[-1] + 0.75 * u_n[-1], atol=1e-15)


def test_step_total_telescoping(rng, sgrid, vgrid):
    f = LowRankMatrix(np.abs(rng.standard_normal(3)) + 0.5,
                      rng.standard_normal((NX, 3)) ** 2 + 0.5,
                      np.exp(-vgrid.v[:, None] ** 2 / 2.0) * np.ones((1, 3)))
    fs = kfvs_fluxes_1d(f, vgrid)
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


def test_momentum_source_is_rho_e(rng, sgrid, vgrid):
    u_n = state(np.abs(rng.standard_normal(NX)) + 1.0, np.zeros(NX), np.ones(NX))
    fs = kfvs_fluxes_1d(zero(NX, NV), vgrid)
    e = rng.standard_normal(NX)
    field = ElectricField(E=(e,))
    dt = 0.2
    out = combine([u_n, u_n], [0.25, 0.75], rate(u_n, fs, field, sgrid), 1.5 * dt)
    assert np.allclose(out[1], 1.5 * dt * u_n[0] * e, atol=1e-14)


def test_energy_row_gains_the_mean_current_work(rng, sgrid, vgrid):
    # with no flux, the energy rate is E . mean(J), whatever J's profile; its
    # total vanishes with that of E
    e = np.fft.irfft(np.fft.rfft(rng.standard_normal(NX)) * (np.arange(NX // 2 + 1) > 0), NX)
    j = rng.standard_normal(NX) + 0.7
    u = state(np.ones(NX), j, np.ones(NX))
    out = rate(u, kfvs_fluxes_1d(zero(NX, NV), vgrid), ElectricField(E=(e,)), sgrid)
    assert np.array_equal(out[-1], e * j.mean())
    assert abs(out[-1].sum()) < 1e-14 * np.abs(out[-1]).sum()


def test_euler_stage_consistency(rng, sgrid, vgrid):
    # one Euler stage equals the multistep with both levels set equal and the
    # coefficients collapsed (u + dt L(u)); verified against a manual build
    f = LowRankMatrix(np.abs(rng.standard_normal(2)) + 0.5,
                      rng.standard_normal((NX, 2)), rng.standard_normal((NV, 2)))
    fs = kfvs_fluxes_1d(f, vgrid)
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


def test_fluxes_2d_zero():
    g = make_velocity_grid(16, 6.0)
    from lrvlasov.htucker import ht_zero
    (x1_plus, _), (_, x2_minus) = kfvs_fluxes_2d(ht_zero((8, 8), 16, 16), (g, g))
    assert np.all(x1_plus == 0) and np.all(x2_minus == 0)


def test_fluxes_2d_parity():
    # even product Maxwellian: all odd-monomial unsplit fluxes vanish
    g = make_velocity_grid(16, 6.0)
    maxw = np.exp(-g.v**2 / 2.0)
    f = HtTensor(np.ones((64, 1)), np.eye(1), np.ones((1, 1, 1)),
                 maxw[:, None], maxw[:, None], (8, 8))
    (x1_plus, x1_minus), _ = kfvs_fluxes_2d(f, (g, g))
    for i in (0, 2, 3):  # rho, J2 and e fluxes along x1 are odd in v1
        assert np.max(np.abs(x1_plus[i] + x1_minus[i])) < 1e-13


def test_fluxes_2d_match_dense(rng):
    g = make_velocity_grid(16, 6.0)
    f = random_ht(rng)
    (x1_plus, _), _ = kfvs_fluxes_2d(f, (g, g))
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


def test_macro_step_2d_telescoping(rng):
    g = make_velocity_grid(16, 6.0)
    sg = spatial_grid_2d(8, 8, 0.0, 2 * np.pi)
    f = random_ht(rng)
    fs = kfvs_fluxes_2d(f, (g, g))
    u = state(rng.standard_normal((8, 8)), rng.standard_normal((8, 8)),
              rng.standard_normal((8, 8)), rng.standard_normal((8, 8)))
    field = ElectricField(E=(np.zeros((8, 8)), np.zeros((8, 8))))
    out = combine([u, u], [0.25, 0.75], rate(u, fs, field, sg), 1.5 * 0.02)
    for row in (0, -1):  # rho, e
        assert out[row].sum() == pytest.approx(u[row].sum(), rel=1e-12)


def test_macro_step_2d_dimension_splitting(rng):
    # separable state with E=0: the 2D update is the sum of the per-direction
    # 1D updates applied to the same fluxes
    g = make_velocity_grid(16, 6.0)
    sg = spatial_grid_2d(8, 8, 0.0, 2 * np.pi)
    f = random_ht(rng)
    fs = kfvs_fluxes_2d(f, (g, g))
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
