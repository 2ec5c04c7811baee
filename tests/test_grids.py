import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lrvlasov.errors import DimensionError, DomainError, GridSizeError
from lrvlasov.grids import (GaussianWeight, make_velocity_grid, plain_inner,
                            spatial_grid_1d, weighted_inner)


def test_tiny_grid_endpoints():
    # nine points on [-4, 4] put every node, and the spacing, on an integer
    g = make_velocity_grid(9, 4.0)
    assert np.array_equal(g.v, np.arange(-4.0, 5.0))
    assert g.h == 1.0


def test_minimum_size_enforced():
    with pytest.raises(GridSizeError):
        make_velocity_grid(5, 6.0)


def test_weight_at_origin():
    g = make_velocity_grid(129, 6.0, GaussianWeight(2.0))
    j0 = 64  # v = 0 node
    assert g.v[j0] == 0.0
    assert g.w[j0] == pytest.approx(12.0 / 128.0, abs=0.0)


def test_gaussian_mass_quadrature():
    # analytic oracle: the rectangle rule on a truncated Gaussian misses the
    # exact tail mass 2 * int_6^inf exp(-v^2/2) dv ~ 4.9e-9 (and gains half an
    # endpoint weight); the quadrature itself is spectrally accurate
    from scipy.special import erfc

    g = make_velocity_grid(257, 6.0)
    total = np.sum(g.h * np.exp(-g.v**2 / 2.0))
    tail = 2.0 * np.sqrt(np.pi / 2.0) * erfc(6.0 / np.sqrt(2.0))
    endpoints = g.h * np.exp(-18.0)  # rectangle rule counts both endpoints fully
    # next Euler-Maclaurin correction is O(h^2 e^-18) ~ 3e-11
    assert total == pytest.approx(np.sqrt(2.0 * np.pi) - tail + endpoints, abs=1e-10)
    assert abs(total - np.sqrt(2.0 * np.pi)) < 1e-8


def test_node_symmetry_bit_exact():
    for n in (32, 129, 256):
        g = make_velocity_grid(n, 6.0)
        assert np.all(g.v == -g.v[::-1])
        assert np.all(g.w_points == g.w_points[::-1])


def test_spatial_grid_periodic_spacing():
    g = spatial_grid_1d(64, 0.0, 4.0 * np.pi)
    x = g.nodes(0)
    assert g.h[0] == pytest.approx(4.0 * np.pi / 64)
    # x_max excluded: last node one spacing short of the period
    assert x[-1] == pytest.approx(4.0 * np.pi - g.h[0])
    assert x[0] == 0.0


def test_plain_inner_rectangle_rule_exact():
    g = make_velocity_grid(64, 4.0)
    ones = np.ones(g.n)
    assert plain_inner(ones, ones, g) == pytest.approx(g.h * g.n, rel=1e-15)


def test_weighted_inner_zero_and_parity():
    g = make_velocity_grid(129, 6.0)
    ones = np.ones(g.n)
    assert weighted_inner(np.zeros(g.n), g.v, g) == 0.0
    # odd integrand with even weight on a symmetric grid
    assert abs(weighted_inner(ones, g.v, g)) < 1e-14
    assert abs(weighted_inner(g.v, g.v**2, g)) < 1e-13


def test_weighted_inner_second_moment_ratio():
    # oracle: direct summation of the basis constant
    g = make_velocity_grid(129, 6.0)
    ones = np.ones(g.n)
    c = weighted_inner(ones, g.v**2, g) / weighted_inner(ones, ones, g)
    direct = np.dot(g.v**2, g.w) / np.sum(g.w)
    assert c == pytest.approx(direct, rel=1e-14)
    assert c > 0


def test_inner_product_length_check():
    g = make_velocity_grid(32, 4.0)
    with pytest.raises(DimensionError):
        weighted_inner(np.ones(31), np.ones(32), g)


def test_weight_parameter_validation():
    with pytest.raises(DomainError):
        GaussianWeight(0.0)
    with pytest.raises(DomainError):
        make_velocity_grid(32, -1.0)


@given(st.floats(0.5, 4.0), st.floats(0.5, 4.0), st.integers(9, 60))
def test_weighted_inner_bilinear(a, b, n):
    g = make_velocity_grid(n, 5.0)
    f1, f2 = np.sin(g.v), np.cos(g.v)
    lhs = weighted_inner(a * f1 + b * f2, g.v, g)
    rhs = a * weighted_inner(f1, g.v, g) + b * weighted_inner(f2, g.v, g)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
