from dataclasses import replace

import numpy as np
import pytest

import lrvlasov.htucker as ht
import lrvlasov.macro as macro
from lrvlasov.config import from_preset
from lrvlasov.driver import History, advance, initialize, select_dt, step
from lrvlasov.errors import NonFiniteError, RankOverflowError
from lrvlasov.formats import Problem
from lrvlasov.lowrank import LowRankMatrix
from lrvlasov.poisson import field_energy, solve_poisson
from lrvlasov.driver import run

from reference import dense_moments, dense_moments_2d, dense_step_1d
import reference


def test_select_dt_formula_and_monotonicity():
    cfg = from_preset("weak_landau_1d")
    problem, hist = initialize(cfg)
    field = hist.newest(problem)[1]
    dt = select_dt(problem, field, cfg.cfl)
    # frozen regression baseline for the default weak Landau configuration
    assert dt == pytest.approx(0.00974941329769426, rel=1e-12)
    assert select_dt(problem, field, 2 * cfg.cfl) == pytest.approx(2 * dt, rel=1e-14)
    # with no field the bound reduces to cfl h_x / v_max
    zero_field = solve_poisson(np.ones(cfg.nx), problem.sgrid)
    (hx,) = problem.sgrid.h
    assert select_dt(problem, zero_field, cfg.cfl) == pytest.approx(
        cfg.cfl * hx / cfg.v_max, rel=1e-14)


def test_initial_macro_state_consistency():
    cfg = from_preset("weak_landau_1d")
    problem, hist = initialize(cfg)
    f0, u0 = hist.fs[-1], hist.us[-1]
    m0 = problem.moments([f0])
    field = solve_poisson(m0[0], problem.sgrid)
    assert np.allclose(u0[0], m0[0])
    assert np.allclose(u0[-1], m0[-1] + 0.5 * field.E[0] ** 2)


@pytest.mark.parametrize("preset", ["weak_landau_1d", "weak_landau_2d2v"])
def test_moments_share_the_macro_layout(preset):
    # moments are u's rows rho, J_1 .. J_d with kappa where u holds
    # e = kappa + |E|^2 / 2, and a pin takes its target in that layout
    problem, hist = initialize(from_preset(preset, nx=8, nv=16, t_end=0.0))
    f0, u0 = hist.fs[0], hist.us[0]
    m = problem.moments([f0])
    assert m.shape == u0.shape == (2 + len(problem.vgrids), *problem.sgrid.n)
    assert np.array_equal(u0[:-1], m[:-1])
    field = solve_poisson(m[0], problem.sgrid, problem.cfg.poisson_sign)
    assert np.array_equal(u0[-1], m[-1] + 0.5 * field.magnitude_squared())
    target = m * (1.0 + 1e-3 * np.random.default_rng(3).standard_normal(m.shape))
    got = problem.moments([problem.pin([f0], target)])
    assert np.abs(got - target).max() < 1e-12 * np.abs(target).max()


def test_multistep_ready_logic():
    h = History()
    h.fs = [1, 2, 3]
    h.us = [None, None, None]
    h.dts = [0.1, 0.1]
    assert h.multistep_ready(0.1)
    assert not h.multistep_ready(0.05)
    h.dts = [0.1, 0.05]
    assert not h.multistep_ready(0.05)


def test_end_time_zero_single_record():
    cfg = from_preset("weak_landau_1d", t_end=0.0)
    series = run(cfg)
    assert len(series) == 1
    assert series[0].t == 0.0
    assert series[0].ranks == (2,)


def test_startup_second_order():
    # Heun startup against the manufactured solution with the truncation
    # floor pushed out of the way; dt stays below the CFL limit (~6e-3 at
    # this mesh).  The spatial error floor is common to all runs, so the
    # Richardson-style differences isolate the O(dt^2) time error
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        cfg = from_preset("forced", nx=64, nv=128, eps=1e-12)
        problem, hist = initialize(cfg)
        nsteps = int(round(1.6e-2 / dt))
        for _ in range(nsteps):
            advance(problem, hist, dt)
        exact = problem.preset.exact_f(hist.t, problem.sgrid.nodes(0), problem.vgrid.v)
        errs.append(np.max(np.abs(hist.fs[-1].dense() - exact)))
    assert (errs[0] - errs[2]) / (errs[1] - errs[2]) > 3.0


def test_startup_primes_multistep():
    cfg = from_preset("weak_landau_1d", nx=32, nv=65)
    problem, hist = initialize(cfg)
    dt = 5e-3
    assert not hist.multistep_ready(dt)
    for _ in range(2):
        advance(problem, hist, dt)
    assert hist.step == 2
    assert len(hist.fs) == 3
    assert hist.multistep_ready(dt)
    # conservation honored during startup for the macro method
    m0 = problem.moments([hist.fs[0]])
    m2 = problem.moments([hist.fs[-1]])
    vol = problem.sgrid.cell_volume
    assert vol * m2[0].sum() == pytest.approx(vol * m0[0].sum(), rel=1e-13)


def test_startup_rank_four_forced():
    # at the preset's default mesh the remainder stays a single term, so the
    # stored rank settles at 3 + 1 after startup
    cfg = from_preset("forced")
    problem, hist = initialize(cfg)
    dt = select_dt(problem, hist.newest(problem)[1], cfg.cfl)
    for _ in range(12):
        advance(problem, hist, dt)
    assert hist.fs[-1].rank == 4


def test_macro_moments_pinned_each_step():
    cfg = from_preset("weak_landau_1d", t_end=0.0)
    problem, hist = initialize(cfg)
    dt = 5e-3
    for _ in range(4):
        advance(problem, hist, dt)
    m = problem.moments([hist.fs[-1]])
    rho, j, e = hist.us[-1]
    field = solve_poisson(rho, problem.sgrid, cfg.poisson_sign)
    kappa_u = e - 0.5 * field.E[0] ** 2
    ref = np.abs(rho).max()
    assert np.max(np.abs(m - np.stack([rho, j, kappa_u]))) < 1e-12 * ref


def test_macro_moments_pinned_2d():
    cfg = from_preset("weak_landau_2d2v", nx=8, nv=16, t_end=0.0)
    problem, hist = initialize(cfg)
    dt = 4e-3
    for _ in range(4):
        advance(problem, hist, dt)
    m = problem.moments([hist.fs[-1]])
    rho, j1, j2, e = hist.us[-1]
    field = solve_poisson(rho, problem.sgrid, cfg.poisson_sign)
    kappa_u = e - 0.5 * field.magnitude_squared()
    ref = np.abs(rho).max()
    assert np.max(np.abs(m - np.stack([rho, j1, j2, kappa_u]))) < 1e-12 * ref


@pytest.mark.parametrize("preset,grid,t_end", [("weak_landau_1d", {}, 2.0),
                                               ("weak_landau_2d2v", {"nx": 8, "nv": 16}, 1.0)])
def test_poisson_sign_minus_one_conserves_its_energy(preset, grid, t_end):
    # with div E = -(rho - mean) the energy is kappa - |E|^2 / 2; the energy
    # column holds it to round-off under macro and to the truncation's level
    # under the kinetic methods, and the field's share is negative
    for method, tol in (("plain", 1e-5), ("conservative", 1e-5), ("macro", 1e-13)):
        rows = run(from_preset(preset, method=method, poisson_sign=-1.0, t_end=t_end,
                               output_every=1, **grid))
        e0 = rows[0].energy
        assert rows[-1].t == t_end and all(r.efield_energy < 0 for r in rows)
        assert max(abs(r.energy - e0) for r in rows) <= tol * abs(e0), method


def test_macro_pin_target_is_the_sums_kinetic_energy(monkeypatch):
    # bump_on_tail carries a mean current; with its work E . mean(J) in the
    # energy row the co-evolved kappa stays on the pinned sum's own (the
    # energy row without it parted from it by 6e-4 within t = 1)
    gaps = []
    pin = Problem.pin

    def recording(self, blocks, target=None):
        own = self.moments(blocks)
        gaps.append(np.abs(target[-1] - own[-1]).max())
        return pin(self, blocks, target)

    monkeypatch.setattr(Problem, "pin", recording)
    run(from_preset("bump_on_tail", method="macro", t_end=1.0))
    assert len(gaps) > 100 and max(gaps) < 1e-6


@pytest.mark.parametrize("preset,carrier", [("weak_landau_1d", (3,)),
                                            ("weak_landau_2d2v", (4, 4, 3, 3))])
def test_pin_adds_one_carrier_to_the_truncated_remainder(preset, carrier):
    # the pinned state is the weighted-truncated zero-moment remainder plus one
    # carrier of fixed ranks, whose moments are the target's
    problem, _ = initialize(from_preset(preset, nx=8, nv=16, t_end=0.0))
    nx, g, dims = problem.sgrid.n, problem.vgrid, problem.dims
    wp = g.w_points
    rng = np.random.default_rng(5)
    for _ in range(5):
        blocks = []
        for r in rng.integers(1, 4, size=3):
            ux = rng.standard_normal((int(np.prod(nx)), r))
            if dims == 1:
                c = np.abs(rng.standard_normal(r)) + 0.1
                blocks.append(LowRankMatrix(c, ux, wp[:, None] * rng.standard_normal((g.n, r))))
            else:
                b, bvv = rng.standard_normal((r, r)), rng.standard_normal((r, r, r))
                uv1, uv2 = (wp[:, None] * rng.standard_normal((g.n, r)) for _ in range(2))
                blocks.append(ht.HtTensor(ux, b, bvv, uv1, uv2, nx))
        target = rng.standard_normal((2 + dims, *nx))
        out = problem.pin(blocks, target)
        remainder = problem.truncate(blocks, problem.basis.sqrt_w, problem.basis.zero_frame)
        assert problem.ranks(out) == tuple(r + c for r, c in
                                           zip(problem.ranks(remainder), carrier))
        got = problem.moments([out])
        assert np.abs(got - target).max() < 1e-12 * (np.abs(target).max() + 1.0)


def test_conservative_truncation_takes_block_moments_once(monkeypatch):
    # conservative pins to the sum's own moments, which the pin computes for
    # its remainder anyway: one pair contraction over the truncation's blocks,
    # plus one over the remainder for the leak; a target taken apart from the
    # pin would add a call
    import lrvlasov.driver as driver

    calls, per_truncation = [], []
    pair_fields, cut = ht.pair_fields, driver._cut

    def counting_moments(terms, *args, **kwargs):
        terms = list(terms)
        calls.append(len(terms))
        return pair_fields(terms, *args, **kwargs)

    def counting_cut(problem, blocks, u_new):
        calls.clear()
        out = cut(problem, blocks, u_new)
        per_truncation.append((list(calls), len(blocks)))
        return out

    monkeypatch.setattr(ht, "pair_fields", counting_moments)
    monkeypatch.setattr(driver, "_cut", counting_cut)
    run(from_preset("weak_landau_2d2v", nx=8, nv=16, method="conservative", t_end=0.1))
    assert len(per_truncation) >= 4
    assert all(sizes == [blocks, 1] for sizes, blocks in per_truncation)


@pytest.mark.parametrize("method,per_cut", [("plain", 0), ("conservative", 2), ("macro", 1)])
@pytest.mark.parametrize("preset", ["weak_landau_1d", "weak_landau_2d2v"])
def test_pin_takes_moments_of_the_leak_and_the_target_only(monkeypatch, preset, method, per_cut):
    # both formats' zero-moment cuts project off the carriers' moment span and
    # take no moments: a pinned truncation takes the remainder's for the leak,
    # and conservative the blocks' own for its target; each is one call of the
    # format's velocity contraction
    import lrvlasov.driver as driver
    import lrvlasov.lowrank as lowrank

    module, name = (lowrank, "fields") if preset == "weak_landau_1d" else (ht, "pair_fields")
    calls, per_truncation = [], []
    contract, cut = getattr(module, name), driver._cut

    def counting_moments(*args, **kwargs):
        calls.append(1)
        return contract(*args, **kwargs)

    def counting_cut(problem, blocks, target):
        calls.clear()
        out = cut(problem, blocks, target)
        per_truncation.append(len(calls))
        return out

    monkeypatch.setattr(module, name, counting_moments)
    monkeypatch.setattr(driver, "_cut", counting_cut)
    nx, nv = {"weak_landau_1d": (16, 33), "weak_landau_2d2v": (8, 16)}[preset]
    run(from_preset(preset, nx=nx, nv=nv, method=method, t_end=0.1))
    assert len(per_truncation) >= 4
    assert set(per_truncation) == {per_cut}


@pytest.mark.parametrize("method,solves", [("plain", 1), ("macro", 1)])
def test_multistep_step_field_solves(monkeypatch, method, solves):
    # a step of the run loop (CFL bound, then advance) solves once, for the
    # new level, whose field the step observes: under plain from its own
    # moments, under macro from its co-evolved density (the CFL bound of f^n
    # reuses the previous step's); the diagnostics and the next CFL bound
    # then reuse it, except for the diagnostics' own solve under macro
    import lrvlasov.driver as driver
    from lrvlasov.driver import diagnostics_row

    cfg = from_preset("weak_landau_1d", nx=32, nv=65, method=method)
    problem, hist = initialize(cfg)
    dt = 5e-3
    for _ in range(2):
        advance(problem, hist, dt)
    assert hist.multistep_ready(dt)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_poisson(*args, **kwargs)

    monkeypatch.setattr(driver, "solve_poisson", counting)
    select_dt(problem, hist.newest(problem)[1], cfg.cfl)
    advance(problem, hist, dt)
    assert len(calls) == solves
    calls.clear()
    diagnostics_row(problem, hist, 0.0)
    select_dt(problem, hist.newest(problem)[1], cfg.cfl)
    assert len(calls) == (method == "macro")


@pytest.mark.parametrize("preset,grid", [("weak_landau_1d", {"nx": 16, "nv": 33}),
                                         ("weak_landau_2d2v", {"nx": 8, "nv": 16})])
def test_diagnostics_measure_the_kinetic_level(preset, grid):
    # under macro the step reuses the moments of the macroscopic state; the
    # diagnostics row still measures the level: doubling its coefficients
    # doubles the row's mass and leaves newest as it was
    from lrvlasov.driver import diagnostics_row

    problem, hist = initialize(from_preset(preset, method="macro", **grid))
    advance(problem, hist, 5e-3)
    m, field = hist.newest(problem)
    row = diagnostics_row(problem, hist, 0.0)
    f = hist.fs[-1]
    hist.fs[-1] = (replace(f, C=2.0 * f.C) if isinstance(f, LowRankMatrix)
                   else replace(f, B=2.0 * f.B))
    doubled = diagnostics_row(problem, hist, 0.0)
    assert doubled.mass == 2.0 * row.mass
    m2, field2 = hist.newest(problem)
    assert m2.tobytes() == m.tobytes()
    assert [e.tobytes() for e in field2.E] == [e.tobytes() for e in field.E]


def test_rank_cap_aborts():
    cfg = from_preset("strong_landau_1d", nx=32, nv=64, rank_cap=3, t_end=1.0)
    with pytest.raises(RankOverflowError):
        run(cfg)


def test_rank_overflow_leaves_a_snapshot_that_resumes_under_a_larger_cap(tmp_path):
    cfg = from_preset("strong_landau_1d", nx=32, nv=64, rank_cap=3, t_end=1.0, output_every=1)
    with pytest.raises(RankOverflowError, match="the last good state is in") as err:
        run(cfg, snapshot_dir=str(tmp_path))
    last_good = int(str(err.value).split("(step ")[1].split(")")[0])
    path = tmp_path / f"snapshot_{last_good:06d}.bin"
    assert last_good >= 1 and sorted(tmp_path.iterdir()) == [path]
    assert str(path) in str(err.value)
    # rank_cap is not part of the snapshot's signature
    larger = replace(cfg, rank_cap=60)
    full = run(larger)
    resumed = run(larger, resume=str(path))
    assert len(resumed) == len(full) - last_good
    for a, b in zip(resumed, full[last_good:]):
        assert (a.t, a.ranks, a.mass, a.momentum, a.energy, a.efield_energy) == (
            b.t, b.ranks, b.mass, b.momentum, b.energy, b.efield_energy)


def test_run_deterministic():
    cfg = from_preset("weak_landau_1d", t_end=0.3)
    a = run(cfg)
    b = run(cfg)
    for ra, rb in zip(a, b):
        assert ra.t == rb.t
        assert ra.ranks == rb.ranks
        assert ra.mass == rb.mass
        assert ra.momentum == rb.momentum
        assert ra.energy == rb.energy
        assert ra.efield_energy == rb.efield_energy


# ---------------------------------------------------------------------------
# dense full-grid equivalence with eps = 0 (one multistep step per variant)


def _smooth_lowrank(problem, shift):
    x = problem.sgrid.nodes(0)
    v = problem.vgrid.v
    ux = np.column_stack([1.0 + 0.1 * np.cos(x + shift), 0.05 * np.sin(2 * x)])
    uv = np.column_stack([np.exp(-v**2 / 2.0), 0.5 * v * np.exp(-v**2 / 2.0)])
    return LowRankMatrix(np.ones(2), ux, uv)


def _macro_of(problem, f):
    rho, j, kappa = problem.moments([f])
    field = solve_poisson(rho, problem.sgrid)
    return np.stack([rho, j, kappa + 0.5 * field.E[0] ** 2])


@pytest.mark.parametrize("method", ["plain", "conservative", "macro"])
def test_dense_scheme_equivalence_1d(method):
    cfg = from_preset("weak_landau_1d", nx=16, nv=32, eps=0.0, method=method)
    problem, _ = initialize(cfg)
    f_n = _smooth_lowrank(problem, 0.0)
    f_nm2 = _smooth_lowrank(problem, 0.3)
    hist = History()
    dt = 1e-3
    for f in (f_nm2, _smooth_lowrank(problem, 0.15), f_n):
        hist.fs.append(f)
        hist.us.append(_macro_of(problem, f))
    hist.dts = [dt, dt]

    f_new, _, _ = step(problem, hist, dt)
    u_n = hist.us[-1]
    u_nm2 = hist.us[-3]
    dense_new, _ = dense_step_1d(
        f_n.dense(), f_nm2.dense(),
        list(u_n), list(u_nm2),
        method, 0.0, problem.sgrid, problem.vgrid, dt=dt)
    ref = np.linalg.norm(dense_new)
    assert np.linalg.norm(f_new.dense() - dense_new) < 1e-11 * ref


def _smooth_ht(problem, shift):
    x1 = problem.sgrid.nodes(0)[:, None]
    x2 = problem.sgrid.nodes(1)[None, :]
    spatial = 1.0 + 0.05 * np.cos(x1 + shift) + 0.04 * np.sin(x2 + 0.0 * x1)
    g1 = problem.vgrids[0]
    uv1 = np.column_stack([np.exp(-g1.v**2 / 2.0), 0.3 * g1.v * np.exp(-g1.v**2 / 2.0)])
    uv2 = np.column_stack([np.exp(-g1.v**2 / 2.0), 0.2 * (g1.v**2 - 1) * np.exp(-g1.v**2 / 2.0)])
    rng = np.random.default_rng(12)
    bvv = rng.standard_normal((2, 2, 2)) * 0.2 + np.stack([np.eye(2), np.zeros((2, 2))], axis=2)
    ux = np.column_stack([spatial.reshape(-1), 0.02 * (spatial**2).reshape(-1)])
    return ht.HtTensor(ux, np.eye(2), bvv, uv1, uv2, problem.sgrid.n)


def _macro_of_2d(problem, f):
    rho, j1, j2, kappa = problem.moments([f])
    field = solve_poisson(rho, problem.sgrid)
    return np.stack([rho, j1, j2, kappa + 0.5 * field.magnitude_squared()])


@pytest.mark.parametrize("method", ["plain", "conservative", "macro"])
def test_dense_scheme_equivalence_2d(method):
    cfg = from_preset("weak_landau_2d2v", nx=8, nv=16, eps=0.0, method=method)
    problem, _ = initialize(cfg)
    f_n = _smooth_ht(problem, 0.0)
    f_nm2 = _smooth_ht(problem, 0.2)
    hist = History()
    dt = 1e-3
    for f in (f_nm2, _smooth_ht(problem, 0.1), f_n):
        hist.fs.append(f)
        hist.us.append(_macro_of_2d(problem, f))
    hist.dts = [dt, dt]

    f_new, _, _ = step(problem, hist, dt)

    # dense reference, mirroring the scheme on the full 4D array
    g1, g2 = problem.vgrids
    dn, dm2 = f_n.dense(), f_nm2.dense()
    rho_n = dense_moments_2d(dn, g1, g2)[0]
    field_n = solve_poisson(rho_n, problem.sgrid)
    fstar = 0.25 * dm2 + 0.75 * dn + 1.5 * dt * reference.dense_transport_rhs_2d(
        dn, field_n, problem.sgrid, g1, g2)
    if method == "plain":
        dense_new = fstar  # eps = 0: truncation is the identity
    else:
        basis, _ = reference.dense_pair_basis(g1)
        wwp = np.outer(g1.w_points, g2.w_points)
        remainder = reference.dense_remove_moments_2d(fstar, g1)
        carrier_own = fstar - remainder
        if method == "conservative":
            dense_new = carrier_own + remainder
        else:
            u_n, u_nm2 = hist.us[-1], hist.us[-3]
            fs = problem.fluxes(f_n)
            u_new = macro.combine([u_nm2, u_n], [0.25, 0.75],
                                  macro.rate(u_n, fs, field_n, problem.sgrid), 1.5 * dt)
            field_new = solve_poisson(u_new[0], problem.sgrid)
            kappa = u_new[-1] - 0.5 * field_new.magnitude_squared()
            m_target = np.stack([*u_new[:-1], kappa])
            carrier = ht.ht_lift_moments(m_target, problem.basis).dense()
            dense_new = carrier + remainder
    ref = np.linalg.norm(dense_new.ravel())
    assert np.linalg.norm((f_new.dense() - dense_new).ravel()) < 1e-11 * ref


def _dense_heun(f, dt, rhs):
    """Heun in Shu-Osher form: f_a = f + dt L(f), then
    f^{n+1} = 1/2 f + 1/2 f_a + 1/2 dt L(f_a)."""
    f_a = f + dt * rhs(f)
    return 0.5 * f + 0.5 * f_a + 0.5 * dt * rhs(f_a)


def _heun_history(states, dt):
    # three levels whose last two step sizes differ from dt: step runs Heun
    hist = History(fs=list(states), us=[None] * len(states), dts=[dt, 2.0 * dt])
    assert not hist.multistep_ready(dt)
    return hist


def test_dense_heun_equivalence_1d():
    cfg = from_preset("weak_landau_1d", nx=16, nv=32, eps=0.0, method="plain")
    problem, _ = initialize(cfg)
    sgrid, vgrid, dt = problem.sgrid, problem.vgrid, 1e-3
    hist = _heun_history([_smooth_lowrank(problem, s) for s in (0.3, 0.15, 0.0)], dt)

    def rhs(f):
        (e,) = solve_poisson(dense_moments(f, vgrid)[0], sgrid, cfg.poisson_sign).E
        return reference.dense_transport_rhs(f, e, sgrid, vgrid)

    f_new, _, _ = step(problem, hist, dt)
    dense_new = _dense_heun(hist.fs[-1].dense(), dt, rhs)
    assert np.linalg.norm(f_new.dense() - dense_new) < 1e-11 * np.linalg.norm(dense_new)


def test_dense_heun_equivalence_2d():
    cfg = from_preset("weak_landau_2d2v", nx=8, nv=16, eps=0.0, method="plain")
    problem, _ = initialize(cfg)
    (g1, g2), dt = problem.vgrids, 1e-3
    hist = _heun_history([_smooth_ht(problem, s) for s in (0.2, 0.1, 0.0)], dt)

    def rhs(f):
        field = solve_poisson(dense_moments_2d(f, g1, g2)[0], problem.sgrid, cfg.poisson_sign)
        return reference.dense_transport_rhs_2d(f, field, problem.sgrid, g1, g2)

    f_new, _, _ = step(problem, hist, dt)
    dense_new = _dense_heun(hist.fs[-1].dense(), dt, rhs)
    ref = np.linalg.norm(dense_new.ravel())
    assert np.linalg.norm((f_new.dense() - dense_new).ravel()) < 1e-11 * ref


def test_forced_one_step_residual_small():
    # manufactured-solution residual: a single multistep step from exact data
    # leaves an O(dt^3 + h^5) defect
    residuals = []
    for dt in (2e-3, 1e-3):
        cfg = from_preset("forced", nx=64, nv=128)
        problem, _ = initialize(cfg)
        x = problem.sgrid.nodes(0)
        v = problem.vgrid.v
        hist = History()
        for k in (-2, -1, 0):
            t_k = 0.5 + k * dt
            fk = problem.preset.exact_f(t_k, x, v)
            u, s, vt = np.linalg.svd(fk, full_matrices=False)
            f = LowRankMatrix(s[:3], u[:, :3], vt[:3].T)
            hist.fs.append(f)
            hist.us.append(_macro_of(problem, f))
        hist.dts = [dt, dt]
        hist.t = 0.5
        f_new, _, _ = step(problem, hist, dt)
        exact = problem.preset.exact_f(0.5 + dt, x, v)
        residuals.append(np.max(np.abs(f_new.dense() - exact)))
    # one-step error should shrink at least like dt^3 until the h^5 floor
    assert residuals[0] / residuals[1] > 4.0


def _poison_cuts_of_step(monkeypatch, k):
    """Make every ``driver._cut`` of step k return NaN coefficients; returns
    the list of the steps whose cuts ran, one entry a cut."""
    import lrvlasov.driver as driver

    real_step, real_cut, cuts, at = driver.step, driver._cut, [], []

    def tracked(problem, hist, dt):
        at.append(hist.step)
        return real_step(problem, hist, dt)

    def poisoned(problem, blocks, target):
        f = real_cut(problem, blocks, target)
        cuts.append(at[-1])
        if at[-1] != k:
            return f
        return (replace(f, C=f.C * np.nan) if isinstance(f, LowRankMatrix)
                else replace(f, B=f.B * np.nan))

    monkeypatch.setattr(driver, "step", tracked)
    monkeypatch.setattr(driver, "_cut", poisoned)
    return cuts


def test_non_finite_state_stops_run_at_its_step(monkeypatch):
    _poison_cuts_of_step(monkeypatch, 4)
    with pytest.raises(NonFiniteError, match=r"non-finite moments at step 4 \(t=0\.\d+"):
        run(from_preset("weak_landau_1d", nx=16, nv=33, t_end=1.0))


@pytest.mark.parametrize("method", ["plain", "conservative", "macro"])
@pytest.mark.parametrize("preset,grid", [("weak_landau_1d", {"nx": 16, "nv": 33}),
                                         ("weak_landau_2d2v", {"nx": 8, "nv": 16})])
def test_non_finite_heun_stage_stops_the_step(monkeypatch, preset, grid, method):
    # the first stage's level is observed where it is made: its NaN stops
    # step 0 there, before the second stage's cut meets it in the SVD or eigh
    cuts = _poison_cuts_of_step(monkeypatch, 0)
    with pytest.raises(NonFiniteError, match=r"^non-finite moments at step 0 \(t=0\)$"):
        run(from_preset(preset, method=method, t_end=0.1, **grid))
    assert cuts == [0]


@pytest.mark.parametrize("preset,grid", [("weak_landau_1d", {"nx": 16, "nv": 33}),
                                         ("weak_landau_2d2v", {"nx": 8, "nv": 16})])
def test_non_finite_macro_state_stops_the_step(monkeypatch, preset, grid):
    # a NaN rate makes the stage's macroscopic state NaN; the step stops
    # there, before the state becomes a pin target that reaches the SVD or eigh
    monkeypatch.setattr(macro, "rate", lambda u, *args, **kwargs: np.full_like(u, np.nan))
    with pytest.raises(NonFiniteError, match=r"macroscopic state at step 0 \(t=0\)"):
        run(from_preset(preset, t_end=0.1, **grid))


@pytest.mark.parametrize("preset,grid", [("weak_landau_1d", {"nx": 16, "nv": 33}),
                                         ("weak_landau_2d2v", {"nx": 8, "nv": 16})])
def test_non_finite_macro_state_leaves_a_snapshot_that_resumes(monkeypatch, tmp_path, preset,
                                                               grid):
    cfg = from_preset(preset, t_end=0.2, output_every=1, **grid)
    full = run(cfg)
    # a NaN rate from t_k on stops multistep step k before its push
    k = len(full) - 2
    real_rate = macro.rate

    def poisoned(u, *args):
        rate = real_rate(u, *args)
        return rate * np.nan if args[-1] >= full[k].t else rate

    monkeypatch.setattr(macro, "rate", poisoned)
    with pytest.raises(NonFiniteError, match="the last good state is in") as err:
        run(cfg, snapshot_dir=str(tmp_path))
    path = tmp_path / f"snapshot_{k:06d}.bin"
    assert f"macroscopic state at step {k} (t=" in str(err.value)
    assert str(path) in str(err.value) and sorted(tmp_path.iterdir()) == [path]
    monkeypatch.undo()
    resumed = run(cfg, resume=str(path))
    assert len(resumed) == len(full) - k
    for a, b in zip(resumed, full[k:]):
        assert (a.t, a.ranks, a.mass, a.momentum, a.energy, a.efield_energy) == (
            b.t, b.ranks, b.mass, b.momentum, b.energy, b.efield_energy)


def test_non_finite_moments_leave_a_snapshot_that_resumes(monkeypatch, tmp_path):
    # the step observes its level before the push, so the history it leaves
    # is the last good one
    cfg = from_preset("weak_landau_1d", nx=16, nv=33, t_end=0.1, output_every=1)
    full = run(cfg)
    _poison_cuts_of_step(monkeypatch, 2)
    with pytest.raises(NonFiniteError, match="the last good state is in") as err:
        run(cfg, snapshot_dir=str(tmp_path))
    path = tmp_path / "snapshot_000002.bin"
    assert str(err.value).startswith("non-finite moments at step 2 (t=")
    assert str(path) in str(err.value) and sorted(tmp_path.iterdir()) == [path]
    monkeypatch.undo()
    resumed = run(cfg, resume=str(path))
    assert len(resumed) == len(full) - 2
    for a, b in zip(resumed, full[2:]):
        assert (a.t, a.ranks, a.mass, a.momentum, a.energy, a.efield_energy) == (
            b.t, b.ranks, b.mass, b.momentum, b.energy, b.efield_energy)


def test_linalg_error_in_a_step_is_typed(monkeypatch):
    problem, hist = initialize(from_preset("weak_landau_1d", nx=16, nv=33, method="plain"))

    def fail(blocks):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(problem, "truncate", fail)
    with pytest.raises(NonFiniteError, match=r"SVD did not converge at step 0 \(t=0\)"):
        advance(problem, hist, 0.01)
