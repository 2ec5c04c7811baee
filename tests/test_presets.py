import numpy as np

from lrvlasov.config import from_preset
from lrvlasov.driver import initialize
from lrvlasov.grids import make_velocity_grid, spatial_grid_1d
from lrvlasov.lowrank import recompress
from lrvlasov.poisson import solve_poisson
from lrvlasov.presets import PRESETS, forced_exact_field, get_preset

from reference import dense_moments


def test_registry_complete():
    assert set(PRESETS) == {"forced", "weak_landau_1d", "strong_landau_1d",
                            "bump_on_tail", "weak_landau_2d2v", "two_stream_2d2v"}


def test_weak_landau_initial_rank_two():
    cfg = from_preset("weak_landau_1d")
    problem, hist = initialize(cfg)
    f0 = hist.fs[-1]
    assert f0.rank == 2
    x = problem.sgrid.nodes(0)
    v = problem.vgrid.v
    expect = (1.0 + 0.01 * np.cos(0.5 * x))[:, None] * (
        np.exp(-v**2 / 2.0) / np.sqrt(2.0 * np.pi))[None, :]
    assert np.allclose(f0.dense(), expect, atol=1e-15)


def test_bump_on_tail_profile_values():
    cfg = from_preset("bump_on_tail")
    problem, hist = initialize(cfg)
    v = problem.vgrid.v
    n_p = 0.9 / np.sqrt(2.0 * np.pi)
    n_b = 0.2 / np.sqrt(2.0 * np.pi)
    profile = n_p * np.exp(-v**2 / 2.0) + n_b * np.exp(-((v - 4.5) ** 2) / 1.0)
    x = problem.sgrid.nodes(0)
    expect = (1.0 + 0.04 * np.cos(0.3 * x))[:, None] * profile[None, :]
    assert np.allclose(hist.fs[-1].dense(), expect, atol=1e-15)
    assert cfg.beta == 3.0


def test_two_stream_2d2v_initial_structure():
    cfg = from_preset("two_stream_2d2v", nx=8, nv=16)
    problem, hist = initialize(cfg)
    f0 = hist.fs[-1]
    assert f0.ranks == (1, 1, 1, 1)
    g = problem.vgrids[0]
    beams = np.exp(-((g.v - 2.4) ** 2) / 2.0) + np.exp(-((g.v + 2.4) ** 2) / 2.0)
    x1 = problem.sgrid.nodes(0)
    dense = f0.dense()
    expect00 = (1.0 + 0.001 * (np.cos(0.2 * x1[0]) + np.cos(0.2 * x1[0]))) / (
        4.0 * 2.0 * np.pi) * np.outer(beams, beams)
    assert np.allclose(dense[0, 0], expect00, atol=1e-15)


def test_forced_initial_moments_analytic():
    # analytic Gaussian moments of exp(-(4v-1)^2/4); x profile (2 - cos 2x)
    cfg = from_preset("forced", nx=64, nv=512, v_max=8.0)
    problem, hist = initialize(cfg)
    m = problem.moments([hist.fs[-1]])
    x = problem.sgrid.nodes(0)
    profile = 2.0 - np.cos(2.0 * x)
    sq = np.sqrt(np.pi)
    assert np.allclose(m[0], profile * sq / 2.0, rtol=1e-10)
    assert np.allclose(m[1], profile * sq / 8.0, rtol=1e-10)
    assert np.allclose(m[2], profile * 3.0 * sq / 64.0, rtol=1e-10)
    rho_d, j_d, k_d = dense_moments(hist.fs[-1].dense(), problem.vgrid)
    assert np.allclose(m[0], rho_d, atol=1e-14)


def test_forced_field_consistency():
    # the self-consistent field of the exact density matches the closed form
    # (and satisfies E_x = rho - sqrt(pi) with the standard solver sign)
    cfg = from_preset("forced")
    problem, hist = initialize(cfg)
    m = problem.moments([hist.fs[-1]])
    field = solve_poisson(m[0], problem.sgrid, sign=+1.0)
    x = problem.sgrid.nodes(0)
    exact = forced_exact_field(0.0, x)
    assert np.max(np.abs(field.E[0] - exact)) < 2e-9  # quadrature tail of rho


def test_forced_kinetic_forcing_is_pde_residual():
    # psi must equal f_t + v f_x + E f_v for the exact pair, pointwise; the
    # derivatives of the closed-form solution are differentiated by hand
    preset = get_preset("forced")
    sgrid = spatial_grid_1d(48, -np.pi, np.pi)
    vgrid = make_velocity_grid(96, 4.0)
    x = sgrid.nodes(0)
    v = vgrid.v
    t = 0.37
    th = 2.0 * x - 2.0 * np.pi * t
    g = np.exp(-((4.0 * v - 1.0) ** 2) / 4.0)
    ft = np.outer(-2.0 * np.pi * np.sin(th), g)
    fx = np.outer(2.0 * np.sin(th), g)
    fv = np.outer(2.0 - np.cos(th), -2.0 * (4.0 * v - 1.0) * g)
    e = forced_exact_field(t, x)
    lhs = ft + v[None, :] * fx + e[:, None] * fv
    psi = preset.kinetic_forcing(t, sgrid, vgrid).dense()
    assert np.max(np.abs(lhs - psi)) < 1e-13 * np.max(np.abs(psi))


def test_forced_macro_sources_are_moment_residuals():
    # moment-system residual oracle: the printed sources must equal
    # d/dt(moment) + d/dx(flux) - physical source of the exact solution, the
    # physical sources being rho E for J and the mean current's work E mean(J)
    # for e
    preset = get_preset("forced")
    n = 256
    sgrid = spatial_grid_1d(n, -np.pi, np.pi)
    x = sgrid.nodes(0)
    t = 0.211
    sq = np.sqrt(np.pi)
    th = 2.0 * x - 2.0 * np.pi * t

    profile = 2.0 - np.cos(th)
    rho = profile * sq / 2.0
    j = profile * sq / 8.0
    sigma = profile * 3.0 * sq / 32.0
    q_flux = profile * 7.0 * sq / 256.0
    e_exact = forced_exact_field(t, x)
    e_density = profile * 3.0 * sq / 64.0 + 0.5 * e_exact**2

    dt = 1e-6

    def at(tt):
        pr = 2.0 - np.cos(2.0 * x - 2.0 * np.pi * tt)
        ee = forced_exact_field(tt, x)
        return (pr * sq / 2.0, pr * sq / 8.0, pr * 3.0 * sq / 64.0 + 0.5 * ee**2)

    rho_p, j_p, e_p = at(t + dt)
    rho_m, j_m, e_m = at(t - dt)
    s_rho, s_j, s_e = preset.macro_sources(x, t, e_exact)

    resid_rho = (rho_p - rho_m) / (2 * dt) + np.gradient(j, x, edge_order=2) - s_rho
    resid_j = ((j_p - j_m) / (2 * dt) + np.gradient(sigma, x, edge_order=2)
               - rho * e_exact - s_j)
    resid_e = ((e_p - e_m) / (2 * dt) + np.gradient(q_flux, x, edge_order=2)
               - e_exact * np.mean(j) - s_e)
    scale = np.max(np.abs(s_rho))
    # gradient() is second order; residuals vanish at that level
    assert np.max(np.abs(resid_rho)) < 1e-3 * scale
    assert np.max(np.abs(resid_j)) < 1e-3 * scale
    assert np.max(np.abs(resid_e)) < 1e-3 * scale


def test_forced_initial_data_rank_one_after_recompress():
    cfg = from_preset("forced")
    problem, hist = initialize(cfg)
    assert recompress(hist.fs[-1]).rank == 1


def test_2d_weak_landau_moments_uniform_background():
    cfg = from_preset("weak_landau_2d2v", nx=8, nv=32)
    problem, hist = initialize(cfg)
    m = problem.moments([hist.fs[-1]])
    # alpha perturbation rides on a uniform background of unit density
    assert np.allclose(m[0].mean(), 1.0, rtol=1e-6)
    assert np.max(np.abs(m[1])) < 1e-14
