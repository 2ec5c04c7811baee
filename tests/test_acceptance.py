"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite takes a couple of minutes on a laptop.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import lrvlasov.htucker as ht
from lrvlasov.config import from_preset
from lrvlasov.driver import convergence_table, run, setup
from lrvlasov.grids import make_velocity_grid, spatial_grid_1d
from lrvlasov.lowrank import LowRankMatrix
from lrvlasov.poisson import divergence, solve_poisson
from lrvlasov.projection import MomentBasis, lift_moments, moment_split
from lrvlasov.upwind import upwind_derivative

from reference import landau_energy_decay_rate, landau_peak_energy_ratio


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# shared runs

@pytest.fixture(scope="module")
def weak_landau_series():
    cfg = from_preset("weak_landau_1d")  # 64 x 129, eps=1e-5, t_end=20
    return run(cfg)


def _drift(series, attr, relative=True, component=None):
    vals = np.array([getattr(r, attr) if component is None else getattr(r, attr)[component]
                     for r in series])
    dev = np.max(np.abs(vals - vals[0]))
    return dev / abs(vals[0]) if relative else dev


def test_criterion_1_convergence_table():
    ref_linf = {32: 3.39e-3, 64: 4.07e-4, 128: 9.83e-5, 256: 2.46e-5}
    ref_l2 = {32: 2.28e-3, 64: 2.97e-4, 128: 7.13e-5, 256: 1.85e-5}
    rows = convergence_table([32, 64, 128, 256])
    ok = True
    details = []
    for r in rows:
        n = r["n"]
        ratio_inf = r["linf"] / ref_linf[n]
        ratio_l2 = r["l2"] / ref_l2[n]
        details.append(f"N={n}: Linf {r['linf']:.2e} ({ratio_inf:.2f}x) "
                       f"L2 {r['l2']:.2e} ({ratio_l2:.2f}x)")
        ok &= (1 / 3 <= ratio_inf <= 3) and (1 / 3 <= ratio_l2 <= 3)
        if not np.isnan(r["order_linf"]):
            ok &= 1.7 <= r["order_linf"] <= 3.3
            ok &= 1.7 <= r["order_l2"] <= 3.3
            details.append(f"orders {r['order_linf']:.2f}/{r['order_l2']:.2f}")
    _report(1, "forced-benchmark error table", ok, "; ".join(details))


def test_criterion_2_rank_stationarity():
    series = run(from_preset("forced"))  # default mesh, eps=1e-4, t=1
    ranks = [r.ranks[0] for r in series[1:]]  # t=0 reports the exact initial data
    ok = all(rk == 4 for rk in ranks)
    _report(2, "rank-4 stationarity", ok,
            f"ranks over (0, 1]: {sorted(set(ranks))}")


def test_criterion_3_machine_conservation_1d(weak_landau_series):
    s = weak_landau_series
    mass = _drift(s, "mass")
    mom = _drift(s, "momentum", relative=False, component=0)
    energy = _drift(s, "energy")
    ok = mass <= 1e-11 and mom <= 1e-10 and energy <= 1e-10
    _report(3, "1D1V conservation to round-off", ok,
            f"mass {mass:.2e} (<=1e-11), |momentum| {mom:.2e} (<=1e-10), "
            f"energy {energy:.2e} (<=1e-10)")


def test_criterion_4_variant_contrast():
    # pass condition: the conservation ORDERING holds.  The plain variant is
    # only accurate to the truncation threshold (its largest deviation lands
    # in the expected O(eps) band and every deviation stays far above the
    # conservative variants); mass/momentum are exact for the projection
    # variant but energy is not; the macro-coupled variant conserves all
    # three to round-off.
    stats = {}
    for method in ("plain", "conservative", "macro"):
        cfg = from_preset("bump_on_tail", method=method, t_end=10.0)
        s = run(cfg)
        stats[method] = (
            _drift(s, "mass"),
            _drift(s, "momentum", relative=False, component=0),
            _drift(s, "energy"),
        )
    p, c, m = stats["plain"], stats["conservative"], stats["macro"]
    ok_plain = 1e-6 <= max(p) <= 1e-3 and all(v <= 1e-3 for v in p)
    ok_cons = c[0] <= 1e-11 and c[1] <= 1e-11 and c[2] >= 1e-8
    ok_macro = all(v <= 1e-10 for v in m)
    ok_order = (p[0] > 100 * c[0] and p[1] > 100 * c[1] and p[2] > c[2]
                and c[2] > 100 * m[2])
    ok = ok_plain and ok_cons and ok_macro and ok_order
    _report(4, "bump-on-tail variant ordering", ok,
            f"plain {p[0]:.1e}/{p[1]:.1e}/{p[2]:.1e} (max in [1e-6,1e-3]); "
            f"conservative {c[0]:.1e}/{c[1]:.1e} <=1e-11, energy {c[2]:.1e} >=1e-8; "
            f"macro {max(m):.1e} <=1e-10; ordering "
            f"{'holds' if ok_order else 'broken'}")


def _energy_peaks(series):
    """Times and values of the field-energy peaks over t in [2, 15]."""
    t = np.array([r.t for r in series])
    ee = np.array([r.efield_energy for r in series])
    mask = (t >= 2.0) & (t <= 15.0)
    ti, ei = t[mask], ee[mask]
    peaks = (ei[1:-1] > ei[:-2]) & (ei[1:-1] > ei[2:])
    return ti[1:-1][peaks], ei[1:-1][peaks]


def test_criterion_5_damping_rate(weak_landau_series):
    tp, ep = _energy_peaks(weak_landau_series)
    slope = np.polyfit(tp, np.log(ep), 1)[0]
    theory = landau_energy_decay_rate(0.5)
    rel = abs(slope - theory) / abs(theory)
    ok = rel <= 0.15 and len(tp) >= 4
    _report(5, "weak Landau damping rate", ok,
            f"fit {slope:.4f} vs dispersion-root {theory:.4f} "
            f"({100 * rel:.1f}% off, {len(tp)} peaks)")


@pytest.mark.parametrize("method", ["macro", "plain"])
def test_criterion_5_damping_rate_2d2v(method):
    # weak_landau_2d2v (k = 0.5 on both axes, 16^2 x 32^2) against linear
    # theory, which no golden regeneration can move: the peak fit's rate,
    # and the peaks' level against the initial field energy times the
    # least-damped pair's energy ratio at the theory rate (mean log gap).
    # At beta 2 the weight is the Maxwellian, so E . grad_v of the
    # equilibrium lies in the carriers' span and the macro pin restores it:
    # only the plain run sees a kinetic field term that is missing
    series = run(from_preset("weak_landau_2d2v", method=method, t_end=15.0))
    tp, ep = _energy_peaks(series)
    slope = np.polyfit(tp, np.log(ep), 1)[0]
    theory = landau_energy_decay_rate(0.5)
    rel = abs(slope - theory) / abs(theory)
    level = np.log(series[0].efield_energy * landau_peak_energy_ratio(0.5)) + theory * tp
    gap = float(np.mean(np.log(ep) - level))
    ok = rel <= 0.05 and abs(gap) <= 0.1 and len(tp) >= 4
    _report(5, f"weak Landau damping rate, 2D2V {method}", ok,
            f"fit {slope:.4f} vs dispersion-root {theory:.4f} ({100 * rel:.2f}% off, <=5%), "
            f"peak level gap {gap:+.4f} (|.|<=0.1), {len(tp)} peaks")


def test_criterion_6_dense_scheme_equivalence():
    import test_driver as td

    ok = True
    details = []
    for method in ("plain", "conservative", "macro"):
        try:
            td.test_dense_scheme_equivalence_1d(method)
            td.test_dense_scheme_equivalence_2d(method)
            details.append(f"{method}: 1D+2D <=1e-11")
        except AssertionError as exc:
            ok = False
            details.append(f"{method}: FAILED ({exc})")
    _report(6, "dense full-grid equivalence at eps=0", ok, "; ".join(details))


def test_criterion_7_moment_exactness_suite():
    rng = np.random.default_rng(7)
    nx, nv = 24, 33
    problem = setup(from_preset("weak_landau_1d", nx=nx, nv=nv))
    basis = problem.basis
    basis2 = MomentBasis.build(make_velocity_grid(17, 6.0))
    nx2 = (6, 6)
    worst = {"lift": 0.0, "lift2d": 0.0, "split": 0.0, "trunc": 0.0, "pinned": 0.0}

    for _ in range(200):
        m = np.stack([rng.standard_normal(nx), rng.standard_normal(nx),
                      rng.standard_normal(nx)])
        got = problem.moments([lift_moments(m, basis)])
        ref = np.abs(m).max() + 1.0
        worst["lift"] = max(worst["lift"], np.abs(got - m).max() / ref)

        m2 = np.stack([rng.standard_normal(nx2), rng.standard_normal(nx2),
                       rng.standard_normal(nx2), rng.standard_normal(nx2)])
        got2 = ht.pair_fields([ht.ht_lift_moments(m2, basis2)], *basis2.moments[2])
        ref2 = np.abs(m2).max() + 1.0
        dev2 = np.abs(got2 - m2).max()
        worst["lift2d"] = max(worst["lift2d"], dev2 / ref2)

        rank = int(rng.integers(1, 7))
        f = LowRankMatrix(np.abs(rng.standard_normal(rank)) + 0.1,
                          rng.standard_normal((nx, rank)),
                          rng.standard_normal((nv, rank)))
        m_f = problem.moments([f])
        scale_f = np.abs(m_f).max() + 1.0
        _, remainder = moment_split(f, basis)
        worst["split"] = max(worst["split"],
                             np.abs(problem.moments([remainder])).max() / scale_f)

        eps = 10.0 ** rng.uniform(-8, -2)
        pin = replace(problem, cfg=replace(problem.cfg, eps=eps)).pin
        out = pin([f])
        worst["trunc"] = max(worst["trunc"],
                             np.abs(problem.moments([out]) - m_f).max() / scale_f)

        target = np.stack([m_f[0] + 1e-3 * rng.standard_normal(nx),
                           m_f[1] + 1e-3 * rng.standard_normal(nx),
                           m_f[2] + 1e-3 * rng.standard_normal(nx)])
        pinned = pin([f], target)
        worst["pinned"] = max(worst["pinned"],
                              np.abs(problem.moments([pinned]) - target).max()
                              / (np.abs(target).max() + 1.0))

    ok = (worst["lift"] < 1e-12 and worst["lift2d"] < 1e-12
          and worst["split"] < 1e-11 and worst["trunc"] < 1e-12
          and worst["pinned"] < 1e-12)
    _report(7, "moment exactness (200 random instances each)", ok,
            ", ".join(f"{k} {v:.1e}" for k, v in worst.items()))


def test_criterion_8_2d2v_conservation_and_scaling():
    cfg = from_preset("weak_landau_2d2v")  # 16^2 x 32^2, eps=1e-5, t_end=5
    series = run(cfg)
    mass = _drift(series, "mass")
    j1 = _drift(series, "momentum", relative=False, component=0)
    j2 = _drift(series, "momentum", relative=False, component=1)
    energy = _drift(series, "energy")
    ok_cons = mass <= 1e-10 and j1 <= 1e-10 and j2 <= 1e-10 and energy <= 1e-10

    def timed(nx, nv):
        best = float("inf")
        for _ in range(2):  # best-of-two damps scheduler noise
            t0 = time.perf_counter()
            run(from_preset("weak_landau_2d2v", nx=nx, nv=nv, t_end=1.0))
            best = min(best, time.perf_counter() - t0)
        return best

    run(from_preset("weak_landau_2d2v", t_end=0.2))  # warm-up
    coarse = timed(16, 32)
    fine = timed(32, 64)
    growth = fine / coarse
    ok = ok_cons and growth < 4.0
    _report(8, "2D2V conservation + scaling", ok,
            f"mass {mass:.1e}, J1 {j1:.1e}, J2 {j2:.1e}, energy {energy:.1e} "
            f"(<=1e-10); wall growth {growth:.2f}x (<4, {coarse:.2f}s -> {fine:.2f}s)")


def test_criterion_9_stencil_and_poisson_accuracy():
    errs = []
    for n in (64, 128):
        h = 2.0 * np.pi / n
        x = h * np.arange(n)
        d = upwind_derivative(np.sin(3.0 * x), "plus", h, "periodic")
        errs.append(np.max(np.abs(d - 3.0 * np.cos(3.0 * x))))
    order = float(np.log2(errs[0] / errs[1]))

    g = spatial_grid_1d(64, 0.0, 2.0 * np.pi)
    x = g.nodes(0)
    rho = 1.0 + 0.4 * np.cos(2 * x) + 0.3 * np.sin(5 * x) + 0.1 * np.cos(9 * x)
    field = solve_poisson(rho, g)
    resid = np.max(np.abs(divergence(field, g) - (rho - rho.mean())))
    ok = order >= 4.8 and resid <= 1e-11
    _report(9, "stencil order and spectral residual", ok,
            f"upwind order {order:.2f} (>=4.8), poisson residual {resid:.1e} (<=1e-11)")
