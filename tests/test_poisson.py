import numpy as np
import pytest

from lrvlasov import poisson
from lrvlasov.errors import DimensionError
from lrvlasov.grids import SpatialGrid, spatial_grid_1d, spatial_grid_2d
from lrvlasov.poisson import ElectricField, divergence, field_energy, solve_poisson


def test_constant_density_zero_field():
    g = spatial_grid_1d(32, 0.0, 2.0 * np.pi)
    field = solve_poisson(1.7 * np.ones(32), g)
    assert np.allclose(field.E[0], 0.0, atol=1e-15)


def test_single_mode_1d():
    # analytic mode solve: rho = rho_bar + a cos(kx) -> E = (a/k) sin(kx)
    g = spatial_grid_1d(64, 0.0, 4.0 * np.pi)
    x = g.nodes(0)
    k, a = 0.5, 0.01
    field = solve_poisson(1.0 + a * np.cos(k * x), g, sign=1.0)
    assert np.max(np.abs(field.E[0] - (a / k) * np.sin(k * x))) < 1e-12


def test_sign_flip():
    g = spatial_grid_1d(64, 0.0, 4.0 * np.pi)
    x = g.nodes(0)
    f_plus = solve_poisson(1.0 + 0.1 * np.cos(0.5 * x), g, sign=1.0)
    f_minus = solve_poisson(1.0 + 0.1 * np.cos(0.5 * x), g, sign=-1.0)
    assert np.allclose(f_plus.E[0], -f_minus.E[0], atol=1e-14)


def test_two_mode_2d_separable():
    g = spatial_grid_2d(32, 32, 0.0, 4.0 * np.pi)
    x1 = g.nodes(0)[:, None]
    x2 = g.nodes(1)[None, :]
    k = 0.5
    rho = 1.0 + np.cos(k * x1) + np.cos(k * x2) + 0.0 * x2
    field = solve_poisson(rho, g)
    assert np.max(np.abs(field.E[0] - np.sin(k * x1) / k)) < 1e-12
    assert np.max(np.abs(field.E[1] - np.sin(k * x2) / k)) < 1e-12


def test_mean_field_zero():
    rng = np.random.default_rng(4)
    g = spatial_grid_1d(64, -np.pi, np.pi)
    x = g.nodes(0)
    rho = 1.0 + sum(rng.standard_normal() * np.cos(m * x + rng.standard_normal())
                    for m in range(1, 8))
    field = solve_poisson(rho, g)
    assert abs(np.mean(field.E[0])) < 1e-12


def test_divergence_identity_multimode():
    # spectral div E recovers the density fluctuation
    g = spatial_grid_1d(64, 0.0, 2.0 * np.pi)
    x = g.nodes(0)
    rho = 2.0 + 0.3 * np.cos(3 * x) + 0.2 * np.sin(7 * x) + 0.05 * np.cos(11 * x)
    field = solve_poisson(rho, g)
    assert np.max(np.abs(divergence(field, g) - (rho - rho.mean()))) < 1e-11

    g2 = spatial_grid_2d(32, 32, 0.0, 2.0 * np.pi)
    x1 = g2.nodes(0)[:, None]
    x2 = g2.nodes(1)[None, :]
    rho2 = 1.0 + 0.2 * np.cos(2 * x1) * np.sin(3 * x2) + 0.1 * np.sin(x1 + 0.0 * x2)
    field2 = solve_poisson(rho2, g2)
    assert np.max(np.abs(divergence(field2, g2) - (rho2 - rho2.mean()))) < 1e-11


def test_linearity_in_rho():
    g = spatial_grid_1d(32, 0.0, 2.0 * np.pi)
    x = g.nodes(0)
    r1 = np.cos(x)
    r2 = np.sin(2 * x)
    e12 = solve_poisson(r1 + 2.0 * r2, g).E[0]
    e1 = solve_poisson(r1, g).E[0]
    e2 = solve_poisson(r2, g).E[0]
    assert np.allclose(e12, e1 + 2.0 * e2, atol=1e-13)


def test_field_energy_values():
    g = spatial_grid_1d(128, 0.0, 2.0 * np.pi)
    x = g.nodes(0)
    zero = solve_poisson(np.ones(128), g)
    assert field_energy(zero, g) == 0.0
    # E = sin(x) on [0, 2pi): energy = pi/2 exactly (discrete trig identity)
    field = ElectricField(E=(np.sin(x),))
    assert field_energy(field, g) == pytest.approx(np.pi / 2.0, abs=1e-12)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_energy_density_carries_the_sign(sign):
    # the field's share of the energy density is sign |E|^2 / 2, and
    # field_energy is its total: negative for sign -1
    g = spatial_grid_2d(16, 12, 0.0, 2.0 * np.pi)
    x1, x2 = g.nodes(0)[:, None], g.nodes(1)[None, :]
    field = solve_poisson(1.0 + 0.3 * np.cos(x1) * np.sin(2 * x2), g, sign)
    assert field.sign == sign
    msq = field.E[0] ** 2 + field.E[1] ** 2
    assert np.array_equal(field.energy_density(), 0.5 * sign * msq)
    energy = field_energy(field, g)
    assert np.sign(energy) == sign
    assert energy == pytest.approx(0.5 * sign * g.cell_volume * msq.sum(), rel=1e-15)
    assert np.array_equal(ElectricField(E=field.E).energy_density(), 0.5 * msq)  # sign 1


def test_weak_landau_initial_field_energy():
    # combine the mode solve with the trig sum: 0.5 (a/k)^2 (L/2)
    k, a = 0.5, 0.01
    g = spatial_grid_1d(64, 0.0, 2.0 * np.pi / k)
    x = g.nodes(0)
    field = solve_poisson(1.0 + a * np.cos(k * x), g)
    expect = 0.5 * (a / k) ** 2 * (2.0 * np.pi / k) / 2.0
    assert field_energy(field, g) == pytest.approx(expect, rel=1e-12)


def test_error_paths():
    g = spatial_grid_1d(32, 0.0, 1.0)
    with pytest.raises(DimensionError):
        solve_poisson(np.ones(31), g)


def _bits(field):
    return [a.tobytes() for a in field.E]


@pytest.mark.parametrize("n", [(64,), (16, 12)])
def test_solves_share_read_only_factors(n):
    # the spectral factors are built once per grid, shared by every solve on
    # it (an equal grid built again included), and cannot be written
    rng = np.random.default_rng(8)

    def make():
        return SpatialGrid(n=n, x_min=(0.0,) * len(n), x_max=(2.0 * np.pi,) * len(n))

    g = make()
    rho = 1.0 + 0.1 * rng.standard_normal(n)
    poisson._factors.cache_clear()
    first = solve_poisson(rho, g)
    factors = poisson._factors(g)
    solve_poisson(2.0 * rho, make(), sign=-1.0)
    assert poisson._factors(make()) is factors
    assert poisson._factors.cache_info().misses == 1

    ksq, derivs = factors
    for a in (ksq, *derivs):
        with pytest.raises(ValueError):
            a[(0,) * len(n)] = 123.0
        with pytest.raises(ValueError):
            a *= 2.0
    again = solve_poisson(rho, g)
    poisson._factors.cache_clear()
    fresh = solve_poisson(rho, g)
    assert _bits(again) == _bits(fresh) == _bits(first)


@pytest.mark.parametrize("n", [(64,), (128,), (16, 16), (32, 32), (257,)])
def test_solve_transforms_axis_by_axis_as_fftn(n):
    # fft and ifft run axis by axis, the last axis first, are fftn and ifftn
    # bit for bit, and so is the solve built on them wherever the field
    # operator would have more than 2^16 words; (64,) and (128,) take the
    # operator instead (test_small_grids_solve_by_one_read_only_operator)
    rng = np.random.default_rng(4)
    g = SpatialGrid(n=n, x_min=(0.0,) * len(n), x_max=(2.0 * np.pi,) * len(n))
    rho = 1.0 + 0.1 * rng.standard_normal(n)
    spectrum = np.fft.fftn(rho)
    assert poisson._transform(rho, np.fft.fft).tobytes() == spectrum.tobytes()
    assert poisson._transform(spectrum, np.fft.ifft).tobytes() == np.fft.ifftn(spectrum).tobytes()
    if n in ((64,), (128,)):
        assert poisson._field_operator(g) is not None
        return
    assert poisson._field_operator(g) is None
    ksq, derivs = poisson._factors(g)
    zero = (0,) * len(n)
    spectrum[zero] = 0.0
    phi = spectrum / ksq
    phi[zero] = 0.0
    for sign in (1.0, -1.0):
        want = [np.fft.ifftn(-sign * d * phi).real for d in derivs]
        assert _bits(solve_poisson(rho, g, sign)) == [a.tobytes() for a in want]


@pytest.mark.parametrize("n", [(64,), (128,), (256,), (8, 8)])
def test_small_grids_solve_by_one_read_only_operator(n):
    # up to 2^16 words the field is one product of an operator built once per
    # grid (an equal grid built again included) that cannot be written; it
    # matches the fftn formula within 1e-14 of max|E| (9.7e-16 measured), and
    # a constant density, whose mean need not be exact, gives exactly zero
    rng = np.random.default_rng(5)

    def make():
        return SpatialGrid(n=n, x_min=(0.0,) * len(n), x_max=(2.0 * np.pi,) * len(n))

    g = make()
    poisson._field_operator.cache_clear()
    rho = 1.0 + 0.1 * rng.standard_normal(n)
    first = solve_poisson(rho, g)
    op = poisson._field_operator(g)
    assert op.shape == (len(n) * rho.size, rho.size)
    solve_poisson(2.0 * rho, make(), sign=-1.0)
    assert poisson._field_operator(make()) is op
    assert poisson._field_operator.cache_info().misses == 1
    with pytest.raises(ValueError):
        op[0, 0] = 123.0
    with pytest.raises(ValueError):
        op *= 2.0
    assert _bits(solve_poisson(rho, g)) == _bits(first)

    ksq, derivs = poisson._factors(g)
    zero = (0,) * len(n)
    spectrum = np.fft.fftn(rho)
    spectrum[zero] = 0.0
    phi = spectrum / ksq
    for sign in (1.0, -1.0):
        want = [np.fft.ifftn(-sign * d * phi).real for d in derivs]
        got = solve_poisson(rho, g, sign).E
        top = max(np.abs(w).max() for w in want)
        assert max(np.abs(a - w).max() for a, w in zip(got, want)) <= 1e-14 * top
        constant = solve_poisson(np.full(n, 1.7), g, sign)
        assert all(not e.any() for e in constant.E)

