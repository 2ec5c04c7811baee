"""The 2D2V format against the 1D1V format, on data flat in one spatial axis.

weak_landau_2d2v's data with the cosine kept in one spatial axis only and the
normalized Maxwellian M in both velocities, (1 + 0.01 cos(0.5 x_d)) M(v_1)
M(v_2), has the exact solution f_1D(x_d, v_d, t) M(v_other): the field has no
component along the flat axis, and nothing moves along it.  So the 2D run's
field energy per unit length of the flat axis is the field energy of
weak_landau_1d on the same x and v grids, stepped with the 2D run's step
sizes.  That covers the 2D transport of each axis, the Poisson solve, the
macro rate and the pin against an independent run, which no regeneration of
the golden files can move.

The 2D charge is the 1D charge times the grid's quadrature of M(v_other),
1 - 9.3e-10, so the two field energies differ by its square at t = 0 already;
that ratio is divided out.  What is left at eps = 0 is the same factor acting
on the field over the steps.  Largest gaps measured over the whole run,
relative to the largest 1D field energy (1 BLAS thread): plain 2.8e-11 and
macro 1.0e-11 at eps = 0 to t = 0.25 (13 steps), macro 7.4e-6 at eps 1e-5 to
t = 2 (103 steps), where the two formats cut at eps in norms of different
dimension; the field energy falls to 1.5e-5 of its largest value there.
"""

from dataclasses import replace

import numpy as np
import pytest

from lrvlasov import presets
from lrvlasov.config import from_preset
from lrvlasov.driver import _march, advance, diagnostics_row, initialize
from lrvlasov.htucker import HtTensor


def _flat_init(axis: int):
    """weak_landau_2d2v's initial data varying along spatial ``axis`` alone,
    with the normalized Maxwellian in both velocities."""
    def init(sgrid, v1, v2):
        wave = 1.0 + 0.01 * np.cos(0.5 * sgrid.nodes(axis))
        flat = np.ones(sgrid.n[1 - axis])
        spatial = np.multiply.outer(*((wave, flat) if axis == 0 else (flat, wave)))
        m1, m2 = (np.exp(-g.v ** 2 / 2.0)[:, None] / np.sqrt(2.0 * np.pi) for g in (v1, v2))
        return HtTensor(spatial.reshape(-1, 1), np.eye(1), np.ones((1, 1, 1)), m1, m2, sgrid.n)
    return init


def _efield(problem, hist) -> float:
    return diagnostics_row(problem, hist, 0.0).efield_energy


@pytest.mark.parametrize("axis", [0, 1], ids=["flat_in_x2", "flat_in_x1"])
@pytest.mark.parametrize("method,eps,t_end,bound", [
    ("plain", 0.0, 0.25, 1e-10),
    ("macro", 0.0, 0.25, 1e-10),
    ("macro", 1e-5, 2.0, 5e-5),
])
def test_flat_2d_run_reproduces_the_1d_run(monkeypatch, axis, method, eps, t_end, bound):
    monkeypatch.setitem(presets.PRESETS, "weak_landau_2d2v",
                        replace(presets.PRESETS["weak_landau_2d2v"], init=_flat_init(axis)))
    problem, hist = initialize(from_preset("weak_landau_2d2v", method=method, eps=eps,
                                           t_end=t_end))
    w2, dts = [_efield(problem, hist)], []
    for _ in _march(problem, hist):
        dts.append(hist.dts[-1])
        w2.append(_efield(problem, hist))
    problem1, hist1 = initialize(from_preset("weak_landau_1d", method=method, eps=eps,
                                             nx=problem.sgrid.n[axis], nv=problem.cfg.nv))
    w1 = [_efield(problem1, hist1)]
    for dt in dts:
        advance(problem1, hist1, dt)
        w1.append(_efield(problem1, hist1))
    per_length = np.array(w2) / (problem.cfg.x_max - problem.cfg.x_min)
    w1 = np.array(w1)
    gap = np.abs(per_length * (w1[0] / per_length[0]) - w1) / w1.max()
    assert gap.max() <= bound, (int(gap.argmax()), gap.max())
