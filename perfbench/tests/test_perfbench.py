"""Tests of the benchmark harness: span arithmetic, wrapping, failure counting."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for p in (str(ROOT / "src"), str(ROOT)):
    if p not in sys.path:
        sys.path.insert(0, p)

import numpy as np  # noqa: E402

import lrvlasov.driver as driver  # noqa: E402
import lrvlasov.htucker as htucker  # noqa: E402
import lrvlasov.lowrank as lowrank  # noqa: E402
import lrvlasov.projection as projection  # noqa: E402
from lrvlasov.grids import GaussianWeight, make_velocity_grid  # noqa: E402
from lrvlasov.io import DiagnosticsRow  # noqa: E402
from perfbench import run as bench  # noqa: E402
from perfbench.spans import Tracer, is_wrapped, self_times, summarize  # noqa: E402
from perfbench.workloads import check  # noqa: E402


def test_self_time_subtracts_children_once():
    spans = [
        ["driver.advance", 0, 100, -1, "r"],
        ["lowrank.truncate", 10, 40, 0, "r"],
        ["lowrank.recompress", 20, 30, 1, "r"],
        ["poisson.solve_poisson", 50, 70, 0, "r"],
    ]
    assert self_times(spans) == [50, 20, 10, 20]
    # overlapping children are covered by their union, never twice
    overlap = [["a.f", 0, 100, -1, "r"], ["b.g", 10, 40, 0, "r"], ["b.h", 30, 60, 0, "r"]]
    assert self_times(overlap)[0] == 50


def test_summary_counts_layer_entries_and_outermost_time():
    spans = [
        ["driver.advance", 0, 100, -1, "r"],
        ["upwind.upwind_derivative", 10, 40, 0, "r"],
        ["upwind.reconstruct_interface", 15, 25, 1, "r"],
        ["htucker.ht_truncate_sum", 50, 90, 0, "r"],
        ["htucker.ht_truncate_sum", 60, 80, 3, "r"],
    ]
    s = summarize(spans)
    assert s["layers"]["upwind"] == {"self_ns": 30, "entries": 1}
    assert s["layers"]["htucker"]["self_ns"] == 40
    assert s["names"]["htucker.ht_truncate_sum"]["calls"] == 2
    assert s["names"]["htucker.ht_truncate_sum"]["ns"] == 40  # nested call not re-added
    assert s["layers"]["driver"]["self_ns"] == 30


def test_each_binding_is_wrapped_once():
    tracer = Tracer()
    try:
        first = sum(tracer.wrap_module(m) for m in (driver, htucker, lowrank, projection))
        assert first > 0
        assert sum(tracer.wrap_module(m) for m in (driver, htucker, lowrank, projection)) == 0
        # driver.ht is the htucker module: its functions carry one wrapper
        assert driver.ht is htucker and is_wrapped(driver.ht.ht_scale)
        assert not is_wrapped(driver.ht.ht_scale.__wrapped__)
        # one function bound in two namespaces gets a wrapper in each
        assert is_wrapped(projection.recompress) and is_wrapped(lowrank.recompress)

        vgrid = make_velocity_grid(16, 6.0, GaussianWeight(2.0))
        basis = projection.MomentBasis.build(vgrid)
        rng = np.random.default_rng(0)
        f = lowrank.LowRankMatrix(np.ones(2), rng.standard_normal((8, 2)),
                                  rng.standard_normal((16, 2)))
        projection.moment_split(f, basis)
        names = [s[0] for s in tracer.spans]
        assert names.count("projection.moment_split") == 1
        assert names.count("lowrank.recompress") == 1
        htucker.ht_scale(htucker.ht_zero((2, 2), 4, 4), 2.0)
        assert [s[0] for s in tracer.spans].count("htucker.ht_scale") == 1
    finally:
        tracer.restore()
    assert not is_wrapped(projection.recompress) and not is_wrapped(driver.solve_poisson)


def _row(t, efield, mass=1.0):
    return DiagnosticsRow(t=t, ranks=(3,), mass=mass, momentum=(0.0,), energy=2.0,
                          efield_energy=efield, wall_ms=1.0)


def test_checks_flag_resume_mismatch_and_non_finite():
    spec = {"conservation": None, "efield_ref": (0.5, 1e-3), "resume": True}
    ok = [[_row(0.0, 0.5), _row(1.0, 0.5)], [_row(1.0, 0.5)]]
    assert check(spec, ok) == []
    off_by_one_bit = np.nextafter(0.5, 1.0)
    legs = [[_row(0.0, 0.5), _row(1.0, 0.5)], [_row(1.0, off_by_one_bit)]]
    assert any("resumed" in f for f in check(spec, legs))
    far = [[_row(0.0, 0.5), _row(1.0, 0.6)], [_row(1.0, 0.6)]]
    assert any("efield_energy" in f for f in check(spec, far))
    nan = [[_row(0.0, 0.5), _row(1.0, float("nan"))], [_row(1.0, 0.5)]]
    assert any("non-finite" in f for f in check(spec, nan))
    drift = {"conservation": "1d", "efield_ref": None, "resume": False}
    assert any("mass" in f for f in check(drift, [[_row(0.0, 0.5), _row(1.0, 0.5, 1.1)]]))


def _tiny_spec(**overrides):
    return {"preset": "weak_landau_1d",
            "overrides": {"nx": 16, "nv": 32, "t_end": 0.05, **overrides},
            "snapshot_every": 0, "resume": False, "conservation": "1d",
            "efield_ref": None}


def test_forced_failure_is_counted_not_raised(tmp_path):
    failing = bench.run_once(_tiny_spec(rank_cap=1), 0, "untraced", tmp_path / "a")
    assert not failing["ok"]
    assert failing["reason"].startswith("RankOverflowError")
    passing = bench.run_once(_tiny_spec(), 0, "untraced", tmp_path / "b")
    assert passing["ok"], passing.get("reason")
    setup = bench.run_once(_tiny_spec(), 0, "setup", tmp_path / "c")
    assert setup["ok"] and "wall_s" not in setup
    metrics = bench.end_to_end([failing, passing, setup])
    assert metrics["wall_s"]["n"] == 1
    assert metrics["wall_s"]["value"] == passing["wall_s"]
    assert metrics["rank_max"]["value"] == passing["rank_max"]
    assert metrics["setup_s"]["n"] == 2
