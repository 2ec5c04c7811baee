import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrvlasov.errors import ConfigError, GridSizeError
from lrvlasov.upwind import (MINUS_COEFFS, PLUS_COEFFS, _operator, derivatives,
                             flux_difference, interfaces)
from reference import padded_reconstruct_interface, padded_upwind_derivative

ROW = {"plus": 0, "minus": 1}  # each bias's row of a stencil call


def test_stencil_coefficients():
    assert np.allclose(PLUS_COEFFS, [1 / 30, -13 / 60, 47 / 60, 9 / 20, -1 / 20])
    assert np.allclose(MINUS_COEFFS, [-1 / 20, 9 / 20, 47 / 60, -13 / 60, 1 / 30])
    assert PLUS_COEFFS.sum() == pytest.approx(1.0, abs=1e-15)
    assert MINUS_COEFFS.sum() == pytest.approx(1.0, abs=1e-15)


def test_constant_reconstruction():
    u = 3.7 * np.ones(16)
    for bias in ("plus", "minus"):
        fhat = interfaces(u, "periodic")[ROW[bias]]
        assert np.allclose(fhat, 3.7, atol=1e-14)


def test_periodic_endpoints_identical():
    # interface n - 1/2 is interface -1/2, whichever operator block holds it
    rng = np.random.default_rng(3)
    for n in (8, 15, 16, 17, 32, 33):
        u = rng.standard_normal((n, 4))
        for bias in ("plus", "minus"):
            fhat = interfaces(u, "periodic", axis=0)[ROW[bias]]
            assert fhat.shape == (n + 1, 4)
            assert fhat[0].tobytes() == fhat[-1].tobytes()


def test_linear_data_interior_exact():
    # cell-average reconstruction reproduces polynomials up to degree 4, so
    # linear point data yields the exact midpoint value j + 1/2 away from
    # the zero-extension boundary
    n = 20
    u = np.arange(n, dtype=float)
    for bias in ("plus", "minus"):
        fhat = interfaces(u, "zero")[ROW[bias]]
        interior = fhat[4:-4]
        expect = np.arange(3, n - 4) + 0.5
        assert np.allclose(interior, expect, atol=1e-12)


def _sliding_average_inverse(x, h):
    # H with (1/h) * integral of H over [x-h/2, x+h/2] = sin(x): H = sin(x)/sinc
    return np.sin(x) * (h / 2.0) / np.sin(h / 2.0)


@pytest.mark.parametrize("bias", ["plus", "minus"])
def test_reconstruction_fifth_order(bias):
    # oracle: interface values of the sliding-average inverse of sin
    errs = []
    for n in (64, 128):
        h = 2.0 * np.pi / n
        x = h * np.arange(n)
        fhat = interfaces(np.sin(x), "periodic")[ROW[bias]]
        x_if = h * np.arange(-1, n) + h / 2.0
        errs.append(np.max(np.abs(fhat - _sliding_average_inverse(x_if, h))))
    assert errs[0] / errs[1] >= 2.0**4.8


def test_flux_difference_constant_and_telescoping():
    fhat = 2.5 * np.ones(17)
    assert np.allclose(flux_difference(fhat, 0.1), 0.0)
    rng = np.random.default_rng(11)
    u = rng.standard_normal(24)
    h = 0.37
    d = derivatives(u, h, "periodic")[0]
    assert abs(h * d.sum()) < 1e-13 * np.max(np.abs(u))


def test_zero_extension_telescoping_identity():
    rng = np.random.default_rng(5)
    u = rng.standard_normal(40)
    h = 0.2
    for bias in ("plus", "minus"):
        fhat = interfaces(u, "zero")[ROW[bias]]
        d = flux_difference(fhat, h)
        assert h * d.sum() == pytest.approx(fhat[-1] - fhat[0], abs=1e-13)


@pytest.mark.parametrize("bias", ["plus", "minus"])
def test_derivative_fifth_order_on_sine(bias):
    errs = []
    for n in (64, 128):
        h = 2.0 * np.pi / n
        x = h * np.arange(n)
        d = derivatives(np.sin(x), h, "periodic")[ROW[bias]]
        errs.append(np.max(np.abs(d - np.cos(x))))
    order = np.log2(errs[0] / errs[1])
    assert order >= 4.8


def test_plus_minus_difference_high_order():
    errs = []
    for n in (64, 128):
        h = 2.0 * np.pi / n
        x = h * np.arange(n)
        dp, dm = derivatives(np.sin(x), h, "periodic")
        errs.append(np.max(np.abs(dp - dm)))
    assert errs[0] / errs[1] >= 2.0**4.5


def test_maxwellian_derivative_zero_extension():
    # analytic oracle at the central node of a symmetric grid
    n = 257
    v = np.linspace(-6.0, 6.0, n)
    h = v[1] - v[0]
    f = np.exp(-v**2 / 2.0)
    exact = -v * f
    for bias in ("plus", "minus"):
        d = derivatives(f, h, "zero")[ROW[bias]]
        assert abs(d[n // 2] - exact[n // 2]) < 1e-6


def test_linearity():
    rng = np.random.default_rng(2)
    u, w = rng.standard_normal(16), rng.standard_normal(16)
    a, b = 1.3, -0.7
    lhs = derivatives(a * u + b * w, 0.5, "periodic")[0]
    rhs = (a * derivatives(u, 0.5, "periodic")[0]
           + b * derivatives(w, 0.5, "periodic")[0])
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_2d_axis_application():
    rng = np.random.default_rng(9)
    u = rng.standard_normal((12, 9))
    cols = np.stack([derivatives(u[:, j], 0.3, "periodic")[0]
                     for j in range(u.shape[1])], axis=1)
    assert np.allclose(derivatives(u, 0.3, "periodic", axis=0)[0], cols)


def test_validation_errors():
    with pytest.raises(ConfigError):
        interfaces(np.ones(16), "reflect")
    with pytest.raises(GridSizeError):
        interfaces(np.ones(6), "periodic")
    with pytest.raises(GridSizeError):
        interfaces(np.ones(4), "zero")


def _layout(a):
    """Strides of the axes longer than 1 (a length-1 axis has no layout)."""
    return [s for s, n in zip(a.strides, a.shape) if n > 1]


def _one_bias_layout(shape, axis):
    """The documented layout of one bias: a row of a C-ordered
    (rows, 2, *others) array, viewed with the stencil axis in place."""
    moved = np.moveaxis(np.empty(shape), axis, 0)
    return _layout(np.moveaxis(np.empty((moved.shape[0], 2, *moved.shape[1:]))[:, 0], 0, axis))


@st.composite
def _stencil_case(draw):
    ndim = draw(st.integers(1, 3))
    axis = draw(st.integers(-ndim, ndim - 1))
    boundary = draw(st.sampled_from(["periodic", "zero"]))
    n = draw(st.integers(8 if boundary == "periodic" else 5, 40))
    shape = [draw(st.integers(1, 6)) for _ in range(ndim)]
    shape[axis] = n
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if layout == "strided":
        # every other entry of a larger array, reversed along one axis
        big = rng.standard_normal([2 * s for s in shape])
        flip = draw(st.integers(0, ndim - 1))
        values = big[tuple(slice(None, None, -2) if a == flip else slice(None, None, 2)
                           for a in range(ndim))]
    else:
        values = np.asarray(rng.standard_normal(shape), order=layout)
    # signed zeros where a stencil can sum to zero
    values[rng.random(values.shape) < 0.1] = -0.0
    bias = draw(st.sampled_from(["plus", "minus"]))
    return values, bias, boundary, axis


def _layouts(values):
    """C, F and strided arrays holding ``values``; the strided one takes every
    other entry of a larger array, reversed along the first axis."""
    big = np.zeros([2 * n for n in values.shape])
    view = big[tuple(slice(None, None, -2 if a == 0 else 2) for a in range(values.ndim))]
    view[...] = values
    return np.ascontiguousarray(values), np.asfortranarray(values), view


@settings(max_examples=200)
@given(_stencil_case(), st.floats(0.01, 10.0))
def test_stencil_matches_padded_oracle_within_round_off(case, h):
    # (a) within round-off of the stencil-order sum: each side sums the five
    # products c_k u_{j+k} in its own order, within gamma_5 S of the exact sum
    # (S = sum_k |c_k| |u_{j+k}|, gamma_5 = 5u / (1 - 5u), u = eps / 2), so
    # interfaces differ by at most 2 gamma_5 S < 6 eps S.  A derivative sums
    # seven products with the weights (c_{k-1} - c_k) / h, each rounded twice,
    # so it is within (7 + 2) u (S_j + S_{j+1}) / h of the exact difference;
    # the oracle's two sums, one difference and one division add (5 + 1 + 1) u
    # (S_j + S_{j+1}) / h: 8 eps (S_j + S_{j+1}) / h bounds both to first order.
    # (b) the bytes and the layout of every output do not depend on the
    # input's layout, which resumed runs rely on; the layout is the
    # documented one (``_one_bias_layout``).
    values, bias, boundary, axis = case
    eps = np.finfo(float).eps
    scale = padded_reconstruct_interface(values, bias, boundary, axis, magnitude=True)
    lead = (slice(None),) * range(values.ndim)[axis]
    pair = scale[(*lead, slice(1, None))] + scale[(*lead, slice(None, -1))]
    for call, want, bound in (
        (lambda u: interfaces(u, boundary, axis=axis)[ROW[bias]],
         padded_reconstruct_interface(values, bias, boundary, axis), 6 * eps * scale),
        (lambda u: derivatives(u, h, boundary, axis=axis)[ROW[bias]],
         padded_upwind_derivative(values, bias, h, boundary, axis), 8 * eps * pair / h),
    ):
        got = [call(u) for u in _layouts(values)]
        assert got[0].shape == want.shape
        assert np.all(np.abs(got[0] - want) <= bound)
        for other in got[1:]:
            assert other.tobytes() == got[0].tobytes()
            assert _layout(other) == _layout(got[0]) == _one_bias_layout(want.shape, axis)


@pytest.mark.parametrize("boundary", ["periodic", "zero"])
@pytest.mark.parametrize("axis", [0, 1, -1])
def test_pair_call_is_both_single_bias_calls(rng, boundary, axis):
    # the one stencil call holds both biases, each row in the documented
    # one-bias layout; a derivative row is the flux difference of the same
    # interface row, within the padded-oracle test's two bounds summed
    # (6 + 8 eps) and the difference's own rounding
    u = rng.standard_normal((9, 10, 11))
    fhat, d = interfaces(u, boundary, axis=axis), derivatives(u, 0.7, boundary, axis=axis)
    assert fhat.shape[0] == d.shape[0] == 2
    lead = (slice(None),) * range(u.ndim)[axis]
    for row, bias in enumerate(("plus", "minus")):
        scale = padded_reconstruct_interface(u, bias, boundary, axis, magnitude=True)
        pair = scale[(*lead, slice(1, None))] + scale[(*lead, slice(None, -1))]
        diff = flux_difference(fhat[row], 0.7, axis=axis)
        assert np.all(np.abs(d[row] - diff) <= 16 * np.finfo(float).eps * pair / 0.7)
        assert _layout(fhat[row]) == _one_bias_layout(fhat.shape[1:], axis)
        assert _layout(d[row]) == _one_bias_layout(u.shape, axis)


@pytest.mark.parametrize("boundary", ["periodic", "zero"])
@pytest.mark.parametrize("axis", [0, -1])
@pytest.mark.parametrize("n", [8, 15, 16, 17, 21, 22, 33])
def test_block_edges_match_padded_oracle(rng, n, boundary, axis):
    # grids shorter than, equal to and just past the 16-row blocks: a periodic
    # block of 8 or 15 cells wraps onto itself, and each wrapped cell must be
    # counted once per tap; the bounds are those of the round-off test
    values = rng.standard_normal((n, 5) if axis == 0 else (5, n))
    eps, h = np.finfo(float).eps, 0.3
    lead = (slice(None),) * range(values.ndim)[axis]
    fhat, d = interfaces(values, boundary, axis=axis), derivatives(values, h, boundary, axis=axis)
    for row, bias in enumerate(("plus", "minus")):
        scale = padded_reconstruct_interface(values, bias, boundary, axis, magnitude=True)
        pair = scale[(*lead, slice(1, None))] + scale[(*lead, slice(None, -1))]
        want = padded_reconstruct_interface(values, bias, boundary, axis)
        assert np.all(np.abs(fhat[row] - want) <= 6 * eps * scale)
        want = padded_upwind_derivative(values, bias, h, boundary, axis)
        assert np.all(np.abs(d[row] - want) <= 8 * eps * pair / h)


def test_operator_cache_is_bounded_and_read_only():
    # one block set per (n, boundary, h), kept read-only in a bounded cache
    derivatives(np.ones((33, 2)), 0.25, "zero", axis=0)
    assert _operator.cache_info().maxsize == 16
    index, blocks = _operator(33, "zero", 0.25)
    with pytest.raises(ValueError):
        blocks[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        index[0, 0] = 0
    # every periodic block is the same block, held once: a 128-cell derivative
    # operator keeps 5.6 KB of blocks instead of 45 KB
    for n, h in ((16, None), (64, 0.25), (128, 0.25), (128, None)):
        index, blocks = _operator(n, "periodic", h)
        base = blocks
        while base.base is not None:
            base = base.base
        assert blocks.shape[0] == index.shape[0] > 1
        assert base.nbytes == blocks[0].nbytes
        with pytest.raises(ValueError):
            blocks[..., 0] = 1.0
    # zero extension keeps its own edge blocks
    index, blocks = _operator(128, "zero", 0.25)
    assert blocks.base is None and blocks.nbytes == index.shape[0] * blocks[0].nbytes
    assert not np.array_equal(blocks[0], blocks[1])
