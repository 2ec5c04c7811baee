"""The per-format problem: grids and initial data from the preset's
dimension, and ``Problem.transport``, written once for both formats, against
dense stencils."""

import numpy as np
import pytest

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
