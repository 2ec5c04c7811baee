"""The per-format problem: grids and initial data from the preset's
dimension, and ``Problem.transport``, ``Problem.moments`` and
``Problem.fluxes``, written once for both formats, against dense stencils and
dense quadrature."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lrvlasov import upwind
from lrvlasov.config import from_preset
from lrvlasov.driver import setup
from lrvlasov.formats import FORMATS
from lrvlasov.htucker import HtTensor, ht_add
from lrvlasov.lowrank import LowRankMatrix, add
from lrvlasov.poisson import ElectricField
from lrvlasov.presets import PRESETS

import reference


@pytest.mark.parametrize("dim", ["1d1v", "2d2v"])
def test_transport_matches_dense(rng, dim):
    # two sign-split blocks per spatial and per velocity axis, then the
    # forced preset's manufactured forcing; every 2D block keeps f's Bvv, so
    # a truncation contracts them in one run
    t, r = 0.3, 3
    if dim == "1d1v":
        problem = setup(from_preset("forced", nx=16, nv=24))
        sg, (g,) = problem.sgrid, problem.vgrids
        f = LowRankMatrix(rng.standard_normal(r), rng.standard_normal((16, r)),
                          rng.standard_normal((24, r)))
        field = ElectricField(E=(rng.standard_normal(16),))
        blocks = problem.transport(f, field, t)
        assert len(blocks) == 5
        forcing = problem.preset.kinetic_forcing(t, sg, g).dense()
        out = add(*blocks).dense()
        oracle = reference.dense_transport_rhs(f.dense(), field.E[0], sg, g, forcing)
    else:
        problem = setup(from_preset("weak_landau_2d2v", nx=8, nv=16))
        sg, (g1, g2) = problem.sgrid, problem.vgrids
        f = HtTensor(rng.standard_normal((64, r)), rng.standard_normal((r, r)),
                     rng.standard_normal((r, r, r)), rng.standard_normal((16, r)),
                     rng.standard_normal((16, r)), (8, 8))
        field = ElectricField(E=(rng.standard_normal((8, 8)), rng.standard_normal((8, 8))))
        blocks = problem.transport(f, field, t)
        assert len(blocks) == 8
        assert all(b.Bvv is f.Bvv for b in blocks)
        out = ht_add(*blocks).dense()
        oracle = reference.dense_transport_rhs_2d(f.dense(), field, sg, g1, g2)
    assert np.allclose(out, oracle, atol=1e-11 * (np.abs(oracle).max() + 1))


@pytest.mark.parametrize("name", ["weak_landau_1d", "weak_landau_2d2v"])
def test_one_stencil_call_per_array_and_axis(rng, monkeypatch, name):
    # the transport takes both biases' derivatives of the spatial factor along
    # each spatial axis and of each velocity leaf in one operator application,
    # and the macroscopic rate each axis's stacked (plus, minus) flux pair's
    # interface values in one
    problem = setup(from_preset(name, nx=8, nv=16))
    d = problem.dims
    f = _random_state(rng, problem, 3)
    field = ElectricField(E=tuple(rng.standard_normal(problem.sgrid.n) for _ in range(d)))
    calls = []
    stencil = upwind._apply
    monkeypatch.setattr(upwind, "_apply",
                        lambda *args, **kwargs: calls.append(args) or stencil(*args, **kwargs))
    assert len(problem.transport(f, field, 0.0)) == 4 * d
    assert len(calls) == 2 * d
    calls.clear()
    problem.rate(problem.moments([f]), f, field, 0.0)
    assert [a[0].shape for a in calls] == [(2, 2 + d, *problem.sgrid.n)] * d


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_initial_state_has_the_format_and_grid_of_the_preset(name):
    # one build and one init hook for both formats: the preset's dim picks
    # the class, which makes dims spatial and dims velocity grids
    dim = PRESETS[name].dim
    problem = setup(from_preset(name, nx=8, nv=16))
    f = problem.initial()
    assert type(problem) is FORMATS[dim]
    assert isinstance(f, {"1d1v": LowRankMatrix, "2d2v": HtTensor}[dim])
    assert problem.sgrid.n == (8,) * problem.dims
    assert [g.n for g in problem.vgrids] == [16] * problem.dims
    assert f.shape == (*problem.sgrid.n, *(g.n for g in problem.vgrids))


def _random_state(rng, problem, r):
    """A state of rank r in ``problem``'s format; r = 0 is a zero-rank block."""
    n, nv = problem.sgrid.n, problem.vgrid.n
    if problem.dims == 1:
        return LowRankMatrix(rng.standard_normal(r), rng.standard_normal((n[0], r)),
                             rng.standard_normal((nv, r)))
    return HtTensor(rng.standard_normal((n[0] * n[1], r)), rng.standard_normal((r, r)),
                    rng.standard_normal((r, r, r)), rng.standard_normal((nv, r)),
                    rng.standard_normal((nv, r)), n)


def _step_like_blocks(rng, problem, kind):
    """f^{n-2}, f^n and the transport blocks of f^n under a random field (in
    2D they share f^n's Bvv object, so the contraction takes them as one run),
    a small term and a zero-rank block; "deficient" repeats some of them,
    "cancelling" adds every block's negative, "all_zero" is two rank-0 blocks."""
    if kind == "all_zero":
        z = _random_state(rng, problem, 0)
        return [z, problem.scale(z, 2.0)]
    f = _random_state(rng, problem, int(rng.integers(1, 5)))
    field = ElectricField(E=tuple(rng.standard_normal(problem.sgrid.n)
                                  for _ in range(problem.dims)))
    blocks = [problem.scale(_random_state(rng, problem, int(rng.integers(1, 4))), 0.25),
              problem.scale(f, 0.75),
              *(problem.scale(b, rng.uniform(-0.1, 0.1)) for b in problem.transport(f, field, 0.0)),
              problem.scale(_random_state(rng, problem, 1), 1e-3),
              _random_state(rng, problem, 0)]
    if kind == "deficient":   # repeated directions: rank well below the block count
        blocks += [problem.scale(b, -0.5) for b in blocks[1:4]]
    if kind == "cancelling":  # the sum is zero up to round-off
        blocks += [problem.scale(b, -1.0) for b in blocks]
    return blocks


@pytest.mark.parametrize("name", ["weak_landau_1d", "weak_landau_2d2v"])
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["full", "deficient", "cancelling", "all_zero"]))
def test_moments_and_fluxes_against_dense(name, seed, kind):
    # Problem.moments of the sum and of each block, and Problem.fluxes, each
    # one velocity contraction of the format, against dense quadrature on
    # step-like block lists; the error is relative to the same quadrature of
    # |blocks| against |weights|, which cancellation leaves alone
    rng = np.random.default_rng(seed)
    problem = setup(from_preset(name, nx=8, nv=int(rng.integers(8, 12))))  # 8 points at least
    g, d, n = problem.vgrid, problem.dims, problem.sgrid.n
    blocks = _step_like_blocks(rng, problem, kind)
    weights = reference.dense_functionals(g, d)
    dense = [b.dense() for b in blocks]
    total, size = sum(dense), sum(np.abs(x) for x in dense)

    def check(got, weight, of=total, bound=size):
        oracle = reference.dense_quadrature(of, weight, g)
        scale = reference.dense_quadrature(bound, np.abs(weight), g).max()
        assert np.all(np.abs(got - oracle) <= 1e-13 * scale)

    for got, weight in zip(problem.moments(blocks), weights["moments"], strict=True):
        check(got, weight)
    for b, x in zip(blocks, dense):
        for got, weight in zip(problem.moments([b]), weights["moments"], strict=True):
            check(got, weight, x, np.abs(x))
    fluxes = problem.fluxes(problem.add(*blocks))
    assert fluxes.shape == (d, 2, 2 + d, *n)
    for axis, pair in zip(fluxes, weights["fluxes"], strict=True):
        for split, split_weights in zip(axis, pair, strict=True):  # plus, then minus
            for got, weight in zip(split, split_weights, strict=True):
                check(got, weight)
