import contextlib
import io
import math
import re
import tempfile
import zlib
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrvlasov.config import (_SCHEMA, METHODS, SolverConfig, from_preset, load_config,
                             parse_overrides)
from lrvlasov.driver import initialize, run, select_dt, setup
from lrvlasov.errors import ConfigError, DomainError, NonFiniteError, SnapshotError
from lrvlasov.htucker import HtTensor
from lrvlasov.io import (DiagnosticsRow, append_row, read_diagnostics, snapshot_read,
                         snapshot_write)
from lrvlasov.lowrank import LowRankMatrix
from lrvlasov.poisson import ElectricField
from lrvlasov.presets import PRESETS


def test_preset_defaults_weak_landau():
    cfg = from_preset("weak_landau_1d")
    assert cfg.preset == "weak_landau_1d"
    assert cfg.v_max == 6.0
    assert cfg.eps == 1e-5
    assert cfg.x_max == pytest.approx(4.0 * np.pi)
    assert cfg.nx == 64 and cfg.nv == 129


def test_preset_defaults_bump_weight():
    cfg = from_preset("bump_on_tail")
    assert cfg.beta == 3.0
    assert cfg.eps == 1e-4
    assert cfg.nx == 128 and cfg.nv == 256


def test_unknown_preset():
    with pytest.raises(ConfigError, match="unknown preset"):
        from_preset("nope")


def test_config_file_parsing(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("""
# comment line
[preset]
name = weak_landau_1d

[grid]
nx = 32
nv = 65
vmax = 5.5

[method]
variant = conservative
eps = 1e-6
t_end = 2.5

[output]
every = 5
""")
    cfg = load_config(p)
    assert cfg.preset == "weak_landau_1d"
    assert cfg.nx == 32 and cfg.nv == 65
    assert cfg.v_max == 5.5
    assert cfg.method == "conservative"
    assert cfg.eps == 1e-6
    assert cfg.t_end == 2.5
    assert cfg.output_every == 5


def test_config_unknown_key_reports_line(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[preset]\nname = forced\n[grid]\nnxx = 32\n")
    with pytest.raises(ConfigError, match=r"bad.cfg:4.*nxx"):
        load_config(p)


def test_config_unknown_section(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[grids]\nnx = 32\n")
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(p)


def test_config_empty_file_lists_requirement(tmp_path):
    p = tmp_path / "empty.cfg"
    p.write_text("")
    with pytest.raises(ConfigError, match="preset"):
        load_config(p)


def test_config_bad_value(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[preset]\nname = forced\n[grid]\nnx = many\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(p)


def test_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/path.cfg")


def test_overrides():
    vals = parse_overrides(["method.eps=1e-7", "grid.nx=48"])
    assert vals == {"eps": 1e-7, "nx": 48}
    with pytest.raises(ConfigError):
        parse_overrides(["eps=1e-7"])
    with pytest.raises(ConfigError):
        parse_overrides(["method.nope=3"])
    cfg = load_config(preset="forced", overrides=["method.cfl=0.25"])
    assert cfg.cfl == 0.25


def test_invalid_config_values():
    with pytest.raises(ConfigError):
        from_preset("forced", cfl=0.0)
    with pytest.raises(ConfigError):
        from_preset("forced", method="magic")
    with pytest.raises(ConfigError):
        from_preset("forced", eps=-1.0)
    with pytest.raises(ConfigError, match="rank_cap must be >= 1"):
        from_preset("forced", rank_cap=0)


@pytest.mark.parametrize("sign", [0.0, 0.5, 2.0, -1.5])
def test_poisson_sign_other_than_plus_or_minus_one_rejected(sign):
    with pytest.raises(ConfigError, match="poisson_sign must be 1 or -1"):
        from_preset("weak_landau_1d", method="plain", poisson_sign=sign)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_every_preset_and_method_builds_under_either_poisson_sign(sign):
    # the field carries its sign into the energy, so every method takes both;
    # only a manufactured solution fixes the sign
    for preset in PRESETS:
        if sign == -1.0 and PRESETS[preset].kinetic_forcing is not None:
            continue
        for method in METHODS:
            cfg = from_preset(preset, method=method, poisson_sign=sign)
            assert (cfg.method, cfg.poisson_sign) == (method, sign)


def test_forced_refuses_poisson_sign_minus_one(tmp_path, capsys):
    # the manufactured forcing and sources solve div E = +(rho - mean rho); at
    # sign -1 a run would miss the exact solution by O(1) (Linf 0.91 at 32 x 64)
    from lrvlasov.cli import main

    for method in METHODS:
        with pytest.raises(ConfigError, match="needs poisson_sign 1"):
            from_preset("forced", method=method, poisson_sign=-1.0)
    rc = main(["convergence", "--sizes", "8", "--set", "method.poisson_sign=-1",
               "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "poisson_sign" in lines[0]
    assert "Traceback" not in err and not (tmp_path / "convergence.csv").exists()


@pytest.mark.parametrize("override", ["method.poisson_sign=2"])
def test_cli_poisson_sign_refusal_one_line(tmp_path, capsys, override):
    from lrvlasov.cli import main

    rc = main(["run", "--preset", "weak_landau_1d", "--set", "method.t_end=0.05",
               "--set", override, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "poisson_sign" in lines[0]
    assert "Traceback" not in err and not (tmp_path / "diagnostics.csv").exists()


def test_cli_runs_macro_under_poisson_sign_minus_one(tmp_path, capsys):
    # the preset runs macro; with sign -1 its energy column holds
    # kappa - |E|^2 / 2, and the field's share is negative
    from lrvlasov.cli import main

    rc = main(["run", "--preset", "weak_landau_1d", "--set", "method.t_end=0.2",
               "--set", "output.every=1", "--set", "method.poisson_sign=-1",
               "--out", str(tmp_path)])
    assert rc == 0, capsys.readouterr().err
    rows = read_diagnostics(tmp_path / "diagnostics.csv")
    assert len(rows) > 20 and all(r.efield_energy < 0 for r in rows)
    assert max(abs(r.energy - rows[0].energy) for r in rows) < 1e-13 * abs(rows[0].energy)


@pytest.mark.parametrize("preset,method", [
    ("weak_landau_1d", "conservative"), ("weak_landau_1d", "macro"),
    ("weak_landau_2d2v", "plain"), ("weak_landau_2d2v", "conservative"),
    ("two_stream_2d2v", "macro"),
])
def test_eps_relative_rejected_where_unsupported(preset, method):
    # no method in either format has a relative threshold, so the field is gone
    with pytest.raises(TypeError, match="eps_relative"):
        from_preset(preset, method=method, eps_relative=True)
    assert "eps_relative" not in {f.name for f in fields(SolverConfig)}


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_dim_comes_from_the_preset(preset):
    # the preset decides the dimension; a config that names one, even the
    # same, is refused at construction instead of failing inside run
    dim = PRESETS[preset].dim
    assert from_preset(preset).dim == dim
    for value in ("1d1v", "2d2v"):
        with pytest.raises(TypeError, match="dim"):
            from_preset(preset, dim=value)
    assert "dim" not in {f.name for f in fields(SolverConfig)}


def test_eps_relative_key_removed(tmp_path):
    # the absolute eps is the only threshold; a relative one is not a key
    with pytest.raises(ConfigError, match="eps_relative"):
        parse_overrides(["method.eps_relative=true"])
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("[preset]\nname = weak_landau_1d\n[method]\neps_relative = true\n")
    with pytest.raises(ConfigError, match="eps_relative"):
        load_config(path=cfg_file)


@pytest.mark.parametrize("name", [f.name for f in fields(SolverConfig) if f.type == "float"])
def test_non_finite_config_values_rejected(name):
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            from_preset("weak_landau_1d", **{name: bad})


@pytest.mark.parametrize("preset,bounds", [
    ("weak_landau_1d", dict(x_min=20.0)),
    ("weak_landau_1d", dict(x_max=0.0)),
    ("weak_landau_2d2v", dict(x_min=20.0, nx=8, nv=16)),
])
def test_spatial_domain_must_be_ordered(preset, bounds):
    # x_max <= x_min gives a spacing h <= 0 and so a step dt <= 0
    with pytest.raises(DomainError, match="x_max > x_min"):
        initialize(from_preset(preset, **bounds))


def test_nv2_key_removed(tmp_path):
    # both velocity directions of 2D2V share nv; a second size is not a key
    with pytest.raises(ConfigError, match="nv2"):
        parse_overrides(["grid.nv2=16"])
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("[preset]\nname = weak_landau_2d2v\n[grid]\nnv2 = 16\n")
    with pytest.raises(ConfigError, match="nv2"):
        load_config(path=cfg_file)
    problem, _ = initialize(from_preset("weak_landau_2d2v", nx=8, nv=16, t_end=0.0))
    assert [g.n for g in problem.vgrids] == [16, 16]


def test_nx2_rejected_in_1d1v():
    # 1D1V has one spatial axis, so a second size other than nx is an error
    with pytest.raises(ConfigError, match="nx2"):
        from_preset("weak_landau_1d", nx2=9)
    assert from_preset("weak_landau_1d").nx2 == 64
    assert from_preset("weak_landau_1d", nx2=64).nx2 == 64
    assert from_preset("weak_landau_2d2v", nx2=8).nx2 == 8


def test_schema_targets_are_the_config_fields():
    targets = {name for keys in _SCHEMA.values() for name, _ in keys.values()}
    assert targets == {f.name for f in fields(SolverConfig)}


def test_preset_values_have_no_second_default():
    # a preset owns these nine values, so SolverConfig has no default of its
    # own for them that a direct construction could silently take
    owned = {"nx", "nv", "x_min", "x_max", "v_max", "beta", "eps", "t_end", "rank_cap"}
    required = {f.name for f in fields(SolverConfig) if f.default is MISSING}
    assert required == owned | {"preset"}
    with pytest.raises(TypeError, match="nx"):
        SolverConfig(preset="weak_landau_1d")
    p = PRESETS["weak_landau_1d"]
    assert SolverConfig(preset=p.name, **{k: getattr(p, k) for k in owned}) == from_preset(p.name)


def test_readme_config_block_loads_and_names_every_key(tmp_path):
    # the README's example file is a valid config that names every key (a
    # comment counts, as for nx2) and spells out its preset's values
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"```\n(\[preset\]\n.*?\[output\].*?)```", readme, re.S).group(1)
    path = tmp_path / "readme.cfg"
    path.write_text(block)
    cfg = load_config(path=path)
    assert cfg == from_preset(cfg.preset)
    missing = [key for keys in _SCHEMA.values() for key in keys
               if not re.search(rf"\b{key}\b", block)]
    assert missing == []


# zero, negative, non-finite, boundary and unparsable values per key type; none
# makes an accepted run long (grids stay at most 16 x 33, cfl at least 0.3)
_FUZZ_VALUES = {
    int: ["0", "-1", "1", "7", "8", "9", "16", "x", ""],
    float: ["0", "-0.0", "-1", "0.5", "1", "1.5", "nan", "inf", "-inf", "x"],
    str: [*PRESETS, *METHODS, "x", ""],
}
_FUZZ_T_END = ["0", "-1", "0.05", "nan", "inf", "-inf", "x"]  # t_end is the run length
_FUZZ_KEYS = [(f"{section}.{key}", name, typ)
              for section, keys in _SCHEMA.items() for key, (name, typ) in keys.items()]


@settings(max_examples=40)
@given(st.sampled_from(["weak_landau_1d", "weak_landau_2d2v"]),
       st.sampled_from(_FUZZ_KEYS), st.data())
def test_config_fuzz_runs_or_fails_in_one_line(preset, target, data):
    from lrvlasov.cli import main

    key, name, typ = target
    value = data.draw(st.sampled_from(_FUZZ_T_END if name == "t_end" else _FUZZ_VALUES[typ]))
    err = io.StringIO()
    with (tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err),
          contextlib.redirect_stdout(io.StringIO())):
        rc = main(["run", "--preset", preset, "--set", "grid.nx=16", "--set", "grid.nv=33",
                   "--set", "method.t_end=0.05", "--set", f"{key}={value}", "--out", out])
    lines = err.getvalue().strip().splitlines()
    assert rc == 0 or (rc == 2 and len(lines) == 1 and lines[0].startswith("error: ")), \
        (rc, lines)


# ---------------------------------------------------------------------------
# diagnostics CSV


def _stream(series, path) -> None:
    with path.open("w") as fh:
        for row in series:
            append_row(row, fh)


def test_diagnostics_empty_series(tmp_path):
    # no row, no header; the first 1D row writes the 1D header
    path = tmp_path / "d.csv"
    _stream([], path)
    assert path.read_text() == ""
    _stream([DiagnosticsRow(t=0.0, ranks=(2,), mass=1.0, momentum=(0.0,), energy=1.0,
                            efield_energy=0.1, wall_ms=0.0)], path)
    assert path.read_text().startswith("t,rank,mass")


def test_diagnostics_roundtrip_bit_exact(tmp_path):
    rows = [DiagnosticsRow(t=0.1 + 1e-17, ranks=(4,), mass=np.pi,
                           momentum=(np.sqrt(2.0) * 1e-13,), energy=1.0 / 3.0,
                           efield_energy=2.0 / 7.0, wall_ms=13.25)]
    path = tmp_path / "d.csv"
    _stream(rows, path)
    back = read_diagnostics(path)
    assert len(back) == 1
    b = back[0]
    assert b.t == rows[0].t
    assert b.ranks == rows[0].ranks
    assert b.mass == rows[0].mass
    assert b.momentum == rows[0].momentum
    assert b.energy == rows[0].energy
    assert b.efield_energy == rows[0].efield_energy


def test_diagnostics_2d_header(tmp_path):
    rows = [DiagnosticsRow(t=0.0, ranks=(4, 4, 3, 3), mass=1.0, momentum=(0.0, 0.0),
                           energy=1.0, efield_energy=0.1, wall_ms=0.0)]
    path = tmp_path / "d.csv"
    _stream(rows, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,rank_x,rank_vv,rank_v1,rank_v2,mass,mom1,mom2,energy,efield_energy,wall_ms"
    assert read_diagnostics(path)[0].ranks == (4, 4, 3, 3)


def test_append_row_streaming(tmp_path):
    rows = [DiagnosticsRow(t=float(k), ranks=(4,), mass=1.0, momentum=(0.0,),
                           energy=2.0, efield_energy=0.5, wall_ms=float(k))
            for k in range(3)]
    path = tmp_path / "stream.csv"
    with path.open("w") as fh:
        for row in rows:
            append_row(row, fh)
    back = read_diagnostics(path)
    assert [r.t for r in back] == [0.0, 1.0, 2.0]
    assert path.read_text().splitlines()[0].startswith("t,rank,")


def test_diagnostics_roundtrip_with_method_column(tmp_path):
    # the sink ``lrvlasov compare`` writes leads every line with the method
    rows = [DiagnosticsRow(t=0.1 * k, ranks=(4, 4, 3, 3), mass=np.pi, momentum=(1e-13, -2e-13),
                           energy=1.0 / 3.0, efield_energy=2.0 / 7.0, wall_ms=1.5)
            for k in range(2)]
    path = tmp_path / "compare.csv"
    with path.open("w") as fh:
        for method, row in zip(("plain", "macro"), rows):
            append_row(row, fh, method)
    assert path.read_text().startswith("method,t,rank_x,")
    back = read_diagnostics(path)
    assert [(b.t, b.ranks, b.mass, b.momentum, b.energy, b.efield_energy) for b in back] == \
        [(r.t, r.ranks, r.mass, r.momentum, r.energy, r.efield_energy) for r in rows]


def test_weak_landau_mass_column_constant(tmp_path):
    cfg = from_preset("weak_landau_1d", t_end=0.5)
    series = run(cfg)
    path = tmp_path / "d.csv"
    _stream(series, path)
    back = read_diagnostics(path)
    masses = np.array([r.mass for r in back])
    assert np.max(np.abs(masses - masses[0])) / masses[0] < 1e-11


# ---------------------------------------------------------------------------
# snapshots


def test_snapshot_roundtrip_lowrank(tmp_path, rng):
    cfg = from_preset("weak_landau_1d", nx=16, nv=33)
    problem, hist = initialize(cfg)
    f = LowRankMatrix(rng.standard_normal(3) ** 2, rng.standard_normal((16, 3)),
                      rng.standard_normal((33, 3)))
    u = np.stack([rng.standard_normal(16), rng.standard_normal(16),
                  rng.standard_normal(16)])
    hist.fs = [f]
    hist.us = [u]
    hist.t = 0.0625  # at most 7 steps of the grid's CFL step 0.039
    hist.step = 7
    hist.dts = [0.01, 0.01]
    hist.dt_work = 0.01
    path = tmp_path / "s.bin"
    snapshot_write(hist, problem, path)
    back = snapshot_read(path, problem)
    assert back.t == hist.t and back.step == 7
    assert back.dts == [0.01, 0.01] and back.dt_work == 0.01
    g = back.fs[0]
    assert np.array_equal(g.C, f.C)
    assert np.array_equal(g.Ux, f.Ux)
    assert np.array_equal(g.Uv, f.Uv)
    b = back.us[0]
    assert np.array_equal(b[0], u[0])  # rho
    assert np.array_equal(b[1], u[1])  # J
    assert np.array_equal(b[2], u[2])  # e


def test_snapshot_roundtrip_ht(tmp_path, rng):
    # a history with no macroscopic levels, as method=plain keeps it
    cfg = from_preset("weak_landau_2d2v", nx=8, nv=16, method="plain")
    problem, hist = initialize(cfg)
    f = HtTensor(rng.standard_normal((64, 2)), rng.standard_normal((2, 2)),
                 rng.standard_normal((2, 2, 2)), rng.standard_normal((16, 2)),
                 rng.standard_normal((16, 2)), (8, 8))
    hist.fs = [f]
    hist.us = [None]
    path = tmp_path / "s.bin"
    snapshot_write(hist, problem, path)
    back = snapshot_read(path, problem)
    g = back.fs[0]
    for a, b in ((g.Ux, f.Ux), (g.B, f.B), (g.Bvv, f.Bvv), (g.Uv1, f.Uv1),
                 (g.Uv2, f.Uv2)):
        assert np.array_equal(a, b)
    assert g.nx == (8, 8)
    assert back.us[0] is None


def test_snapshot_bad_magic_and_truncation(tmp_path):
    cfg = from_preset("weak_landau_1d", nx=16, nv=33)
    problem, hist = initialize(cfg)
    path = tmp_path / "s.bin"
    snapshot_write(hist, problem, path)
    raw = path.read_bytes()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTASNAP" + raw[8:])
    with pytest.raises(SnapshotError, match="magic"):
        snapshot_read(bad, problem)
    cut = tmp_path / "cut.bin"
    cut.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(SnapshotError, match="truncated"):
        snapshot_read(cut, problem)


def test_snapshot_grid_mismatch(tmp_path):
    cfg = from_preset("weak_landau_1d", nx=16, nv=33)
    problem, hist = initialize(cfg)
    path = tmp_path / "s.bin"
    snapshot_write(hist, problem, path)
    other, _ = initialize(from_preset("weak_landau_1d", nx=32, nv=33))
    with pytest.raises(SnapshotError, match="signature"):
        snapshot_read(path, other)


def test_snapshot_grid_signature_layout(tmp_path):
    # nine words, nv repeated in the slot of the former second velocity size,
    # so files written before that key was removed still load
    from lrvlasov.io import snapshot_parse

    cfg = from_preset("weak_landau_2d2v", nx=8, nv=16, t_end=0.0)
    problem, hist = initialize(cfg)
    path = tmp_path / "s.bin"
    snapshot_write(hist, problem, path)
    sig = snapshot_parse(path)[1][:9]
    assert sig == (8.0, 8.0, 16.0, 16.0, cfg.x_min, cfg.x_max, cfg.v_max, cfg.beta,
                   cfg.eps)
    assert snapshot_read(path, problem).step == 0


@pytest.mark.parametrize("written,resumed", [("plain", "macro"), ("macro", "plain"),
                                              ("macro", "conservative")])
def test_resume_refuses_other_method_levels(tmp_path, written, resumed):
    # macro keeps a (rho, J, e) level beside every kinetic level, the other
    # methods only beside the initial state; a snapshot resumes only where
    # the configured method can step the levels it holds
    grid = {"nx": 16, "nv": 33, "t_end": 0.1}
    run(from_preset("weak_landau_1d", method=written, **grid), snapshot_every=2,
        snapshot_dir=str(tmp_path))
    snap = str(tmp_path / "snapshot_000002.bin")
    with pytest.raises(SnapshotError, match="macroscopic levels"):
        run(from_preset("weak_landau_1d", method=resumed, **grid), resume=snap)
    # under the method that wrote it the same file resumes
    assert run(from_preset("weak_landau_1d", method=written, **grid), resume=snap)


@pytest.mark.parametrize("key,value", [("cfl", 0.2), ("poisson_sign", -1.0),
                                       ("method", "conservative"),
                                       ("preset", "strong_landau_1d")])
def test_resume_refuses_other_run_words(tmp_path, key, value):
    # the stored bits depend on cfl, poisson_sign, method and preset as well
    # as the grid; a snapshot resumes only where all of them match
    grid = {"nx": 16, "nv": 33, "t_end": 0.1, "method": "plain"}
    cfg = from_preset("weak_landau_1d", **grid)
    run(cfg, snapshot_every=2, snapshot_dir=str(tmp_path))
    snap = str(tmp_path / "snapshot_000002.bin")
    if key == "preset":  # another preset on the same grid and domain
        same = {k: getattr(cfg, k) for k in ("x_min", "x_max", "v_max", "beta", "eps")}
        other = from_preset(value, **grid, **same)
    else:
        other = from_preset("weak_landau_1d", **{**grid, key: value})
    with pytest.raises(SnapshotError, match=f"signature differs from config: {key} "):
        run(other, resume=snap)
    # t_end is no signature word: the same file resumes to a later end
    assert run(from_preset("weak_landau_1d", **{**grid, "t_end": 0.2}), resume=snap)


def test_cli_resume_under_other_cfl_one_line(tmp_path, capsys):
    from lrvlasov.cli import main

    grid = ["--set", "grid.nx=16", "--set", "grid.nv=33", "--set", "method.t_end=0.05"]
    assert main(["run", "--preset", "weak_landau_1d", *grid, "--snapshot-every", "1",
                 "--out", str(tmp_path)]) == 0
    snap = sorted(tmp_path.glob("snapshot_*.bin"))[-1]
    capsys.readouterr()
    rc = main(["run", "--preset", "weak_landau_1d", *grid, "--set", "method.cfl=0.2",
               "--resume", str(snap), "--out", str(tmp_path / "resumed")])
    assert rc == 2
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "cfl 0.3 (config 0.2)" in lines[0] and "Traceback" not in err


# written by ``snapshot_write`` (tests/test_golden.py regenerates it):
# weak_landau_1d, macro, grid.nx=16, grid.nv=33, snapshot at step 4 of a run
# to t_end 0.2
SNAPSHOT = Path(__file__).parent / "data" / "weak_landau_1d_step4.bin"


def test_committed_snapshot_resumes_bit_exact():
    cfg = from_preset("weak_landau_1d", nx=16, nv=33, t_end=0.2, output_every=1)
    full = run(cfg)
    resumed = run(cfg, resume=str(SNAPSHOT))
    assert len(resumed) == len(full) - 4
    for a, b in zip(resumed, full[4:]):
        assert (a.t, a.ranks, a.mass, a.momentum, a.energy, a.efield_energy) == (
            b.t, b.ranks, b.mass, b.momentum, b.energy, b.efield_energy)


@pytest.mark.parametrize("version", [1, 2, 4])
def test_cli_refuses_other_snapshot_versions(tmp_path, capsys, version):
    # a version 1 file carries no cfl, poisson_sign, method or preset words,
    # so nothing could refuse a resume under other run settings, and a
    # version 2 file no checksum; every version but 3 ends in one error line
    # naming it
    import struct

    from lrvlasov.cli import main

    raw = bytearray(SNAPSHOT.read_bytes())
    struct.pack_into("<q", raw, 8, version)  # the word after the magic
    path = tmp_path / "other.bin"
    path.write_bytes(bytes(raw))
    for argv in (["inspect", str(path)],
                 ["run", "--preset", "weak_landau_1d", "--set", "grid.nx=16",
                  "--set", "grid.nv=33", "--set", "method.t_end=0.2",
                  "--resume", str(path), "--out", str(tmp_path)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "Traceback" not in err
        assert f"snapshot version {version}, expected 3" in lines[0]


def test_cli_inspect_prints_file_version_and_run_words(capsys):
    from lrvlasov.cli import main

    assert main(["inspect", str(SNAPSHOT)]) == 0
    out = capsys.readouterr().out
    assert "version 3, 1D1V, step 4" in out and "CRC-32 matches" in out
    assert "run: preset=weak_landau_1d method=macro cfl=0.3 poisson_sign=1" in out


@pytest.mark.parametrize("length", [-1, 2**40, 9])
def test_snapshot_bad_text_length(tmp_path, length):
    # the method word's length prefix comes from the file: a negative or huge
    # length, or one past the end of the header text, is refused, not read
    import struct

    cfg = from_preset("weak_landau_1d", nx=16, nv=33)
    problem, hist = initialize(cfg)
    path = tmp_path / "s.bin"
    snapshot_write(hist, problem, path)
    raw = bytearray(path.read_bytes())
    (n_dts,) = struct.unpack_from("<q", raw, 8 + 4 * 8)
    off = 8 + 5 * 8 + 8 * (2 + n_dts) + 11 * 8
    assert struct.unpack_from("<q", raw, off) == (len("macro"),)
    struct.pack_into("<q", raw, off, length)
    path.write_bytes(_sealed(raw))
    with pytest.raises(SnapshotError, match="text length|signature differs"):
        snapshot_read(path, problem)


_COUNT_GRIDS = {"weak_landau_1d": ["--set", "grid.nx=16", "--set", "grid.nv=33"],
                "weak_landau_2d2v": ["--set", "grid.nx=8", "--set", "grid.nv=16"]}


@pytest.fixture(scope="module")
def count_snapshots(tmp_path_factory):
    """A plain snapshot of three levels in each format, written by the CLI."""
    from lrvlasov.cli import main

    snaps = {}
    for preset, grid in _COUNT_GRIDS.items():
        out = tmp_path_factory.mktemp(preset)
        assert main(["run", "--preset", preset, *grid, "--set", "method.variant=plain",
                     "--set", "method.t_end=0.05", "--snapshot-every", "2",
                     "--out", str(out)]) == 0
        snaps[preset] = sorted(out.glob("snapshot_*.bin"))[-1].read_bytes()
    return snaps


@pytest.mark.parametrize("preset", sorted(_COUNT_GRIDS))
@pytest.mark.parametrize("word,value", [("step", -5), ("level count", 0),
                                        ("level count", -1), ("recent-step count", -1),
                                        ("recent-step count", 10**12)])
def test_snapshot_header_count_out_of_range_one_line(tmp_path, capsys, count_snapshots,
                                                     preset, word, value):
    # step, level count and recent-step count follow the magic, version and
    # dimensionality words; each is checked before it sizes a read
    import struct

    from lrvlasov.cli import main

    raw = bytearray(count_snapshots[preset])
    at = {"step": 3, "level count": 4, "recent-step count": 5}[word]
    struct.pack_into("<q", raw, 8 * at, value)
    snap = tmp_path / "s.bin"
    snap.write_bytes(_sealed(raw))
    capsys.readouterr()
    grid = [*_COUNT_GRIDS[preset], "--set", "method.variant=plain", "--set", "method.t_end=0.1"]
    for argv in (["run", "--preset", preset, *grid, "--resume", str(snap),
                  "--out", str(tmp_path / "resumed")], ["inspect", str(snap)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert f"{word} {value} in the snapshot header" in lines[0]
        assert "Traceback" not in err


def test_snapshot_write_is_atomic(tmp_path, monkeypatch):
    import lrvlasov.io as io_mod

    problem, hist = initialize(from_preset("weak_landau_1d", nx=16, nv=33))
    path = tmp_path / "s.bin"
    snapshot_write(hist, problem, path)
    before = path.read_bytes()

    def fail(fh, f, u):
        fh.write(b"partial")
        raise OSError("disk full")

    monkeypatch.setattr(io_mod, "_write_level", fail)
    hist.step += 1
    with pytest.raises(OSError, match="disk full"):
        snapshot_write(hist, problem, path)
    # the earlier snapshot is untouched and no partial file is left beside it
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.bin"]
    fresh = tmp_path / "new.bin"
    with pytest.raises(OSError, match="disk full"):
        snapshot_write(hist, problem, fresh)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.bin"]


def test_resume_bit_exact(tmp_path):
    # uninterrupted run vs snapshot-resume at a mid step, variant with a
    # constant working dt; every recorded quantity must agree bit for bit
    cfg = from_preset("weak_landau_1d", nx=32, nv=65, method="plain",
                      t_end=0.5, output_every=1)
    full = run(cfg, snapshot_every=10, snapshot_dir=str(tmp_path))
    snap = tmp_path / "snapshot_000020.bin"
    assert snap.exists()
    resumed = run(cfg, resume=str(snap))
    tail = {round(r.t, 12): r for r in resumed}
    compared = 0
    for row in full:
        key = round(row.t, 12)
        if key in tail and row.t >= resumed[0].t:
            other = tail[key]
            assert other.mass == row.mass
            assert other.momentum == row.momentum
            assert other.energy == row.energy
            assert other.efield_energy == row.efield_energy
            assert other.ranks == row.ranks
            compared += 1
    assert compared >= 5


def test_cli_run_and_inspect(tmp_path, capsys):
    from lrvlasov.cli import main

    out = tmp_path / "out"
    rc = main(["run", "--preset", "weak_landau_1d",
               "--set", "method.t_end=0.1", "--set", "grid.nx=32",
               "--set", "grid.nv=65", "--out", str(out),
               "--snapshot-every", "5"])
    assert rc == 0
    assert (out / "diagnostics.csv").exists()
    rows = read_diagnostics(out / "diagnostics.csv")
    assert rows[0].t == 0.0
    snaps = sorted(out.glob("snapshot_*.bin"))
    assert snaps
    rc = main(["inspect", str(snaps[-1])])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "1D1V" in captured


def test_cli_convergence_small(tmp_path, capsys):
    from lrvlasov.cli import main

    rc = main(["convergence", "--sizes", "16,32", "--out", str(tmp_path),
               "--set", "method.t_end=0.05"])
    assert rc == 0
    text = (tmp_path / "convergence.csv").read_text().splitlines()
    assert text[0] == "n,linf,order_linf,l2,order_l2"
    assert len(text) == 3


def test_cli_convergence_non_integer_size_one_line(tmp_path, capsys):
    from lrvlasov.cli import main

    rc = main(["convergence", "--sizes", "32,abc", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --sizes")
    assert "Traceback" not in err
    assert not (tmp_path / "convergence.csv").exists()


def test_negative_snapshot_cadence_rejected(tmp_path, capsys):
    # step % -1 == 0 would write a snapshot at every step
    from lrvlasov.cli import main

    cfg = from_preset("weak_landau_1d", nx=16, nv=33, t_end=0.05)
    with pytest.raises(ConfigError, match="snapshot_every"):
        run(cfg, snapshot_every=-1, snapshot_dir=str(tmp_path))
    rc = main(["run", "--preset", "weak_landau_1d", "--set", "grid.nx=16",
               "--set", "grid.nv=33", "--set", "method.t_end=0.05",
               "--snapshot-every", "-1", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "snapshot_every must be >= 0" in lines[0]
    assert not list(tmp_path.iterdir())


def test_snapshot_cadence_without_a_directory_rejected(monkeypatch):
    # a cadence with nowhere to write would silently write nothing
    import lrvlasov.driver as driver

    def no_step(*args):
        pytest.fail("the run took a step")

    monkeypatch.setattr(driver, "advance", no_step)
    with pytest.raises(ConfigError, match="snapshot_every 2 needs a snapshot_dir"):
        run(from_preset("weak_landau_1d", nx=16, nv=33, t_end=0.05), snapshot_every=2)


def test_cli_compare_writes_all_methods(tmp_path):
    from lrvlasov.cli import main

    rc = main(["compare", "--preset", "weak_landau_1d",
               "--set", "method.t_end=0.05", "--set", "grid.nx=32",
               "--set", "grid.nv=65", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "compare.csv").read_text().splitlines()
    methods = {line.split(",")[0] for line in lines[1:]}
    assert methods == {"plain", "conservative", "macro"}


def test_cli_compare_keeps_rows_of_a_failing_method(tmp_path, capsys):
    from lrvlasov.cli import main

    rc = main(["compare", "--preset", "strong_landau_1d", "--set", "grid.nx=32",
               "--set", "grid.nv=64", "--set", "method.rank_cap=3",
               "--set", "method.t_end=1.0", "--set", "output.every=1",
               "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: rank")
    # plain fails first; the rows it recorded up to the failed step were
    # streamed to disk under the header
    failed_step = int(err[0].split("(step ")[1].split(")")[0])
    lines = (tmp_path / "compare.csv").read_text().splitlines()
    assert lines[0] == "method,t,rank,mass,mom1,energy,efield_energy,wall_ms"
    assert len(lines) == 1 + failed_step + 1 and failed_step >= 1
    assert all(line.startswith("plain,") for line in lines[1:])
    assert float(lines[1].split(",")[1]) == 0.0


def test_cli_error_reporting(capsys):
    from lrvlasov.cli import main

    rc = main(["run", "--preset", "unknown_preset"])
    assert rc == 2
    assert "unknown preset" in capsys.readouterr().err


@pytest.mark.parametrize("preset,override", [
    ("weak_landau_1d", "grid.nx=4"),        # GridSizeError
    ("weak_landau_1d", "grid.beta=-1"),     # DomainError
    ("weak_landau_1d", "grid.vmax=0"),      # DomainError
    ("weak_landau_1d", "grid.nx2=9"),       # ConfigError
    ("weak_landau_2d2v", "grid.nv2=16"),    # ConfigError (removed key)
    ("weak_landau_1d", "grid.xmin=20"),     # DomainError (x_min > x_max)
    ("weak_landau_1d", "grid.xmax=0"),      # DomainError (empty domain)
    ("weak_landau_1d", "grid.beta=nan"),    # ConfigError (non-finite)
    ("weak_landau_1d", "method.poisson_sign=nan"),
    ("weak_landau_1d", "method.eps=nan"),
    ("weak_landau_1d", "method.t_end=nan"),
])
def test_cli_typed_errors_one_line(tmp_path, capsys, preset, override):
    from lrvlasov.cli import main

    # the override comes last, so that it also wins for method.t_end
    rc = main(["run", "--preset", preset, "--set", "method.t_end=0.05", "--set", override,
               "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("preset,grid", [("weak_landau_1d", {"nv": 2**62}),
                                         ("weak_landau_1d", {"nx": 2**62}),
                                         ("weak_landau_2d2v", {"nx": 2**31, "nx2": 2**31})])
def test_grid_beyond_addressable_memory_refused(preset, grid):
    # more than sys.maxsize bytes at 8 a point, the bound a snapshot's arrays
    # meet, is refused by the config before any array exists
    with pytest.raises(ConfigError, match="8-byte values can address"):
        from_preset(preset, **grid)


def test_cli_out_of_memory_one_line(tmp_path, capsys, monkeypatch):
    # a grid within that bound that still does not fit in memory ends in one
    # error line, not numpy's traceback
    from lrvlasov import formats
    from lrvlasov.cli import main

    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)")

    monkeypatch.setattr(formats, "make_velocity_grid", no_memory)
    rc = main(["run", "--preset", "weak_landau_1d", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: out of memory: Unable to allocate 745. GiB for an "
                                "array with shape (100000000000,)"]


def test_cli_resume_plain_snapshot_under_macro(tmp_path, capsys):
    from lrvlasov.cli import main

    grid = ["--set", "grid.nx=16", "--set", "grid.nv=33"]
    rc = main(["run", "--preset", "weak_landau_1d", "--set", "method.variant=plain",
               "--set", "method.t_end=0.05", *grid, "--snapshot-every", "1",
               "--out", str(tmp_path)])
    assert rc == 0
    snap = sorted(tmp_path.glob("snapshot_*.bin"))[-1]
    capsys.readouterr()
    rc = main(["run", "--preset", "weak_landau_1d", "--set", "method.t_end=0.1", *grid,
               "--resume", str(snap), "--out", str(tmp_path / "resumed")])
    assert rc == 2
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "macroscopic levels" in lines[0] and "Traceback" not in err
    # the run failed before its first row, so it wrote no diagnostics file
    assert not (tmp_path / "resumed" / "diagnostics.csv").exists()


def _sealed(raw) -> bytes:
    """A snapshot's bytes with their CRC-32 recomputed: a word overwritten in
    them reads as a writer defect would leave it, which only the word checks
    can refuse."""
    body = bytes(raw[:-4])
    return body + zlib.crc32(body).to_bytes(4, "little")


def _snapshot_offsets(raw: bytes) -> dict:
    """Byte offsets in a version 3 snapshot: the header floats t, dt_work,
    dts[i], x_max and eps, each level's kind and macro words, and the first
    payload word of every level array and macro row, named as the snapshot
    checks name them."""
    import struct

    pos = 16  # past the magic and the version word

    def words(n: int) -> tuple:
        nonlocal pos
        pos += 8 * n
        return struct.unpack_from(f"<{n}q", raw, pos - 8 * n)

    dim, _, n_levels, n_dts = words(4)
    at = {"t": pos, "dt_work": pos + 8, "x_max": pos + 8 * (2 + n_dts + 5),
          "eps": pos + 8 * (2 + n_dts + 8),
          **{f"dts[{i}]": pos + 8 * (2 + i) for i in range(n_dts)}}
    pos += 8 * (2 + n_dts + 11)
    for _ in range(2):  # the method and preset texts
        (n,) = words(1)
        pos += n
    names = ("C", "Ux", "Uv") if dim == 1 else ("Ux", "B", "Bvv", "Uv1", "Uv2")
    for i in range(n_levels):
        at[f"level {i} kind"] = pos
        words(1 if dim == 1 else 3)  # the kind word and, in 2D, the spatial words
        for name in names:
            shape = words(words(1)[0])
            at[f"level {i} array {name}"] = pos
            pos += 8 * math.prod(shape)
        at[f"level {i} macro"] = pos
        (d,) = words(1)
        for k in range(d + 2 if d else 0):
            shape = words(words(1)[0])
            at[f"level {i} macro row {k}"] = pos
            pos += 8 * math.prod(shape)
    assert pos + 4 == len(raw)  # the CRC-32 ends the file
    return at


@pytest.mark.parametrize("word,value", [("ndim", 2**40), ("dim", 2**58), ("dim", -1)])
def test_oversized_array_header_refused(tmp_path, capsys, word, value):
    # the first factor's rank or dimension word is corrupted: a shape asking
    # for more than the file holds is refused before any payload is read
    import struct

    from lrvlasov.cli import main
    from lrvlasov.io import snapshot_parse

    problem, hist = initialize(from_preset("weak_landau_1d", nx=16, nv=33))
    path = tmp_path / "s.bin"
    snapshot_write(hist, problem, path)
    raw = bytearray(path.read_bytes())
    ndim_at = _snapshot_offsets(raw)["level 0 kind"] + 8
    assert struct.unpack_from("<2q", raw, ndim_at) == (1, hist.fs[0].rank)
    struct.pack_into("<q", raw, ndim_at if word == "ndim" else ndim_at + 8, value)
    path.write_bytes(_sealed(raw))
    with pytest.raises(SnapshotError, match="corrupt snapshot"):
        snapshot_parse(path)
    capsys.readouterr()
    assert main(["inspect", str(path)]) == 2
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("which,word,message", [
    ("macro", 2, "macro dimensionality word 2 in a 1D snapshot"),
    ("macro", 3, "macro dimensionality word 3 in a 1D snapshot"),
    ("macro", -1, "macro dimensionality word -1 in a 1D snapshot"),
    ("kind", 2, "kinetic block kind 2 in a 1D snapshot"),
])
def test_cli_resume_refuses_foreign_level_words(tmp_path, capsys, which, word, message):
    # a 1D snapshot holds 1D kinetic blocks (kind 1) and 1D macro levels
    # (word 1) or none (word 0); any other word ends the resume with one
    # error line naming it
    import struct

    from lrvlasov.cli import main

    grid = ["--set", "grid.nx=16", "--set", "grid.nv=33", "--set", "method.t_end=0.05"]
    assert main(["run", "--preset", "weak_landau_1d", *grid, "--snapshot-every", "1",
                 "--out", str(tmp_path)]) == 0
    snap = sorted(tmp_path.glob("snapshot_*.bin"))[-1]
    raw = bytearray(snap.read_bytes())
    off = _snapshot_offsets(raw)[f"level 0 {which}"]
    assert struct.unpack_from("<q", raw, off) == (1,)
    struct.pack_into("<q", raw, off, word)
    snap.write_bytes(_sealed(raw))
    capsys.readouterr()
    rc = main(["run", "--preset", "weak_landau_1d", *grid, "--resume", str(snap),
               "--out", str(tmp_path / "resumed")])
    assert rc == 2
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("preset,corrupt,message", [
    ("weak_landau_1d", lambda f, u: (replace(f, Uv=f.Uv[:-1]), u),
     "level 0 array Uv has shape (32, 2), expected (33, r)"),
    ("weak_landau_1d", lambda f, u: (replace(f, C=np.append(f.C, 1.0)), u),
     "level 0 array Ux has shape (16, 2), expected (16, r)"),
    ("weak_landau_1d", lambda f, u: (f, [u[0], u[1], u[2][:-1]]),
     "level 0 macro row 2 has shape (15,), expected (16)"),
    ("weak_landau_2d2v", lambda f, u: (replace(f, Bvv=f.Bvv[..., :-1]), u),
     "level 0 array Bvv has shape"),
    ("weak_landau_2d2v", lambda f, u: (replace(f, nx=(4, 16)), u),
     "level 0 spatial words (4, 16), expected (8, 8)"),
], ids=["1d-Uv", "1d-C", "1d-macro-row", "2d-Bvv", "2d-nx"])
def test_snapshot_level_shapes_checked(tmp_path, preset, corrupt, message):
    # a level's arrays must agree with each other and with the grid words of
    # the signature; the first that does not is named
    from lrvlasov.io import snapshot_parse

    problem, hist = initialize(from_preset(preset, nx=16 if "1d" in preset else 8,
                                           nv=33 if "1d" in preset else 16))
    f, u = corrupt(hist.fs[0], hist.us[0])
    hist.fs, hist.us = [f], [u]
    path = tmp_path / "s.bin"
    snapshot_write(hist, problem, path)
    with pytest.raises(SnapshotError, match=re.escape(message)):
        snapshot_parse(path)


def test_cli_refuses_level_with_foreign_factor_shape(tmp_path, capsys):
    # the first level's Ux words rewritten from (16, r) to (8, 2r): the
    # payload still fits, but inspect and a multistep resume stop at the
    # level with one error line instead of failing deep inside a sum
    import struct

    from lrvlasov.cli import main

    grid = ["--set", "grid.nx=16", "--set", "grid.nv=33", "--set", "method.t_end=0.05"]
    assert main(["run", "--preset", "weak_landau_1d", *grid, "--snapshot-every", "1",
                 "--out", str(tmp_path)]) == 0
    snap = sorted(tmp_path.glob("snapshot_*.bin"))[-1]
    raw = bytearray(snap.read_bytes())
    c_at = _snapshot_offsets(raw)["level 0 kind"] + 8
    (r,) = struct.unpack_from("<q", raw, c_at + 8)
    ux_dims = c_at + 8 * (2 + r) + 8
    assert struct.unpack_from("<2q", raw, ux_dims) == (16, r)
    struct.pack_into("<2q", raw, ux_dims, 8, 2 * r)
    snap.write_bytes(_sealed(raw))
    for argv in (["inspect", str(snap)],
                 ["run", "--preset", "weak_landau_1d", *grid, "--resume", str(snap),
                  "--out", str(tmp_path / "resumed")]):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "Traceback" not in err
        assert f"level 0 array Ux has shape (8, {2 * r}), expected (16, r)" in lines[0]


# a step-3 snapshot (three levels, two recent steps) of each format and the
# grid it resumes on
STEP3_RUNS = {"weak_landau_1d": (16, 33, 0.2), "weak_landau_2d2v": (8, 16, 0.1)}


@pytest.fixture(scope="module")
def step3_snapshots(tmp_path_factory) -> dict:
    snaps = {}
    for preset, (nx, nv, t_end) in STEP3_RUNS.items():
        out = tmp_path_factory.mktemp(preset)
        run(from_preset(preset, nx=nx, nv=nv, t_end=t_end), snapshot_every=3,
            snapshot_dir=str(out))
        snaps[preset] = (out / "snapshot_000003.bin").read_bytes()
    return snaps


def _write_corrupted(snaps, preset, word, value, path):
    """Write the preset's step-3 snapshot to ``path`` with one float word
    overwritten by ``value`` (none if ``word`` is None), sealed."""
    import struct

    raw = bytearray(snaps[preset])
    if word is not None:
        struct.pack_into("<d", raw, _snapshot_offsets(raw)[word], value)
    path.write_bytes(_sealed(raw))
    return path


def _resume_corrupted(snaps, preset, word, value, tmp_path, capsys) -> str:
    """Overwrite one float word of the preset's step-3 snapshot, resume it
    through the CLI to twice its t_end and return its one error line."""
    from lrvlasov.cli import main

    snap = _write_corrupted(snaps, preset, word, value, tmp_path / "bad.bin")
    nx, nv, t_end = STEP3_RUNS[preset]
    capsys.readouterr()
    rc = main(["run", "--preset", preset, "--set", f"grid.nx={nx}", "--set", f"grid.nv={nv}",
               "--set", f"method.t_end={2 * t_end}", "--resume", str(snap),
               "--out", str(tmp_path / "resumed")])
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert rc == 2 and len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in err
    return lines[0]


@pytest.mark.parametrize("preset", sorted(STEP3_RUNS))
@pytest.mark.parametrize("word,value,message", [
    ("t", math.nan, "t is not finite"),
    ("t", -0.5, "out of range: t -0.5"),
    ("dt_work", math.inf, "dt_work is not finite"),
    ("dt_work", -0.01, "out of range: dt_work -0.01"),
    ("dts[0]", math.nan, "dts[0] is not finite"),
    ("dts[0]", 0.0, "out of range: dts[0] 0.0"),
    ("dts[1]", -0.01, "out of range: dts[1] -0.01"),
    ("eps", math.nan, "eps is not finite"),
    ("x_max", 0.0, "x_max 0.0 (config"),  # a zero spacing gives no CFL step to bound t
    ("level 2 array Ux", math.inf, "level 2 array Ux is not finite"),
    ("level 2 macro row 0", math.nan, "level 2 macro row 0 is not finite"),
])
def test_cli_resume_refuses_bad_snapshot_words(step3_snapshots, tmp_path, capsys, preset,
                                               word, value, message):
    # a non-finite float word or array, a negative clock or a recent step
    # that is not positive ends the resume with one line naming the word
    line = _resume_corrupted(step3_snapshots, preset, word, value, tmp_path, capsys)
    assert message in line


def _zero_field_dt(problem) -> float:
    zero = ElectricField(E=tuple(np.zeros(problem.sgrid.n) for _ in problem.vgrids))
    return select_dt(problem, zero, problem.cfg.cfl)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_snapshot_cfl_step_is_select_dt_at_zero_field(preset):
    # the bound on a snapshot's clocks comes from its words alone, and is the
    # largest step the run can take, to the bit
    import lrvlasov.io as lio

    problem = setup(from_preset(preset))
    sig = lio._signature(problem)
    assert lio._cfl_step(len(problem.vgrids), sig) == _zero_field_dt(problem)


@pytest.mark.parametrize("preset", sorted(STEP3_RUNS))
@pytest.mark.parametrize("word,steps", [("t", None), ("t", 6), ("dt_work", 2), ("dts[1]", 2)])
def test_cli_resume_refuses_clocks_beyond_the_cfl_step(step3_snapshots, tmp_path, capsys,
                                                       preset, word, steps):
    # every step is at most the CFL step at zero field, so at step 3 t is at
    # most 3 of them; 1e300, or twice the bound, ends the resume in one line
    nx, nv, _ = STEP3_RUNS[preset]
    dt_cfl = _zero_field_dt(setup(from_preset(preset, nx=nx, nv=nv)))
    value = 1e300 if steps is None else steps * dt_cfl
    line = _resume_corrupted(step3_snapshots, preset, word, value, tmp_path, capsys)
    assert f"out of range: {word} {value!r} above" in line


@pytest.mark.parametrize("preset,word", [("weak_landau_1d", "level 2 array C"),
                                         ("weak_landau_2d2v", "level 2 array B")])
def test_cli_resume_of_overflowing_factor_one_line(step3_snapshots, tmp_path, capsys,
                                                   preset, word):
    # 1e300 is finite, so the file loads; the step it feeds overflows, and
    # the run stops with a typed error naming the step
    line = _resume_corrupted(step3_snapshots, preset, word, 1e300, tmp_path, capsys)
    assert "at step 3 (t=" in line


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("preset,word", [("weak_landau_1d", "level 2 array Ux"),
                                         ("weak_landau_2d2v", "level 2 array Uv1")])
def test_resumed_huge_factor_word_stops_at_the_resumed_step(step3_snapshots, tmp_path, preset,
                                                            word):
    # under macro the moments and field of the newest level come from its
    # macroscopic state, which the word leaves alone; the bound on the
    # level's norm still stops the run before it steps
    snap = _write_corrupted(step3_snapshots, preset, word, 1e300, tmp_path / "huge.bin")
    nx, nv, t_end = STEP3_RUNS[preset]
    with pytest.raises(NonFiniteError, match=r"non-finite moments at step 3 \(t="):
        run(from_preset(preset, nx=nx, nv=nv, t_end=2 * t_end), resume=str(snap))


@pytest.mark.parametrize("preset", sorted(STEP3_RUNS))
def test_resumed_macro_level_has_the_uninterrupted_moments_and_field(tmp_path, preset):
    # the uninterrupted run's newest level keeps what its step observed: the
    # pair its cut took under macro, else the moments of its C-ordered copy;
    # the resumed one derives them from the stored level, to the same bits
    from lrvlasov.driver import _march

    nx, nv, t_end = STEP3_RUNS[preset]
    for method in ("plain", "conservative", "macro"):
        cfg = from_preset(preset, nx=nx, nv=nv, t_end=t_end, method=method)
        problem, hist = initialize(cfg)
        march = _march(problem, hist)
        while hist.step < 3:
            next(march)
        snapshot_write(hist, problem, tmp_path / f"{method}.bin")
        resumed = snapshot_read(tmp_path / f"{method}.bin", setup(cfg))
        (m, field), (m2, field2) = hist.newest(problem), resumed.newest(problem)
        assert m.tobytes() == m2.tobytes()
        assert [e.tobytes() for e in field.E] == [e.tobytes() for e in field2.E]


_FUZZ_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 0.5, 3.0, 1e300, -1e300,
                1e-300, 5e-324, 2.0**62]


def _corrupt(raw: bytearray, data) -> bytearray:
    """Byte flips, a truncation or one float word overwritten, as drawn."""
    import struct

    kind = data.draw(st.sampled_from(["flip", "truncate", "float"]), label="kind")
    if kind == "truncate":
        return raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    if kind == "float":
        at = _snapshot_offsets(raw)
        word = data.draw(st.sampled_from(sorted(at)), label="word")
        struct.pack_into("<d", raw, at[word], data.draw(st.sampled_from(_FUZZ_FLOATS)))
        return raw
    for _ in range(data.draw(st.integers(1, 3), label="flips")):
        # half of the flips land in the first 512 bytes: the header and the
        # first level's words, where the parser's branches are
        pos = data.draw(st.one_of(st.integers(0, 511), st.integers(0, len(raw) - 1)))
        raw[pos] ^= 1 << data.draw(st.integers(0, 7))
    return raw


def _resume_two_steps(path, preset: str) -> None:
    """Resume ``path`` and take two steps under the ratcheted CFL step, as
    ``driver._march`` does but whatever t is; the diagnostics must be finite."""
    from lrvlasov.driver import advance, diagnostics_row, select_dt, setup

    nx, nv, _ = STEP3_RUNS[preset]
    problem = setup(from_preset(preset, nx=nx, nv=nv))
    hist = snapshot_read(path, problem)
    cfl = problem.cfg.cfl
    if hist.dt_work == 0.0:
        hist.dt_work = select_dt(problem, hist.newest(problem)[1], cfl)
    for _ in range(2):
        hist.dt_work = min(hist.dt_work, select_dt(problem, hist.newest(problem)[1], cfl))
        advance(problem, hist, hist.dt_work)
    row = diagnostics_row(problem, hist, 0.0)
    assert np.isfinite([row.t, row.mass, *row.momentum, row.energy, row.efield_energy]).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("word,value", [("level 1 array C", -1e300),
                                        ("level 1 macro row 2", 1e300)])
def test_resumed_huge_level_stops_where_its_field_energy_overflows(step3_snapshots, tmp_path,
                                                                   word, value):
    # the words are finite, and so are the moments of the step they enter;
    # its field energy overflows, and the run stops there
    snap = _write_corrupted(step3_snapshots, "weak_landau_1d", word, value, tmp_path / "huge.bin")
    with pytest.raises(NonFiniteError, match=r"non-finite moments at step [45] \(t="):
        _resume_two_steps(snap, "weak_landau_1d")


@pytest.mark.parametrize("word", [None, "level 1 array C"], ids=["clean", "overflowing"])
def test_cli_resume_prints_only_its_error_line(step3_snapshots, tmp_path, word):
    # run in its own process, where numpy's warnings reach stderr as they do
    # for a user (pytest captures them in process): a resume whose state
    # overflows prints its one error line and nothing else, a clean one nothing
    import os
    import subprocess
    import sys

    snap = _write_corrupted(step3_snapshots, "weak_landau_1d", word, -1e300,
                            tmp_path / "s.bin")
    nx, nv, t_end = STEP3_RUNS["weak_landau_1d"]
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-m", "lrvlasov", "run", "--preset", "weak_landau_1d",
         "--set", f"grid.nx={nx}", "--set", f"grid.nv={nv}", "--set", f"method.t_end={2 * t_end}",
         "--resume", str(snap), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True)
    if word is None:
        assert (out.returncode, out.stderr) == (0, "")
    else:
        assert out.returncode == 2
        assert out.stderr.startswith("error: non-finite moments at step 4")
        assert out.stderr.count("\n") == 1 and out.stderr.endswith("\n")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("preset,word", [("weak_landau_1d", "level 1 macro row 0"),
                                         ("weak_landau_2d2v", "level 2 array Ux")])
def test_resumed_huge_level_stops_where_its_step_leaves_t_unchanged(step3_snapshots, tmp_path,
                                                                    monkeypatch, preset, word):
    # 2^62 is finite, and so is every state it feeds, but its field makes the
    # CFL step too small to change t; the run stops there instead of stepping
    # for ever (the counter fails a run that keeps stepping)
    import lrvlasov.driver as driver

    snap = _write_corrupted(step3_snapshots, preset, word, 2.0**62, tmp_path / "huge.bin")
    calls, real_advance = [], driver.advance

    def counted(*args):
        calls.append(1)
        if len(calls) > 100:
            pytest.fail("the resumed run is still stepping after 100 steps")
        return real_advance(*args)

    monkeypatch.setattr(driver, "advance", counted)
    nx, nv, t_end = STEP3_RUNS[preset]
    with pytest.raises(NonFiniteError, match=r"step size \S+ does not advance t at step \d+ \(t="):
        run(from_preset(preset, nx=nx, nv=nv, t_end=2 * t_end), resume=str(snap))


@pytest.mark.parametrize("preset", sorted(STEP3_RUNS))
def test_resumed_huge_level_stops_where_its_step_collapses(step3_snapshots, tmp_path,
                                                           monkeypatch, preset):
    # 2^52 in the newest level's density gives a field whose CFL step still
    # moves t, by about five ulps; without a floor the run would take one
    # step per few ulps (the counter fails a run that keeps stepping), so it
    # stops where the step falls below its fraction of the zero-field one
    import lrvlasov.driver as driver

    snap = _write_corrupted(step3_snapshots, preset, "level 2 macro row 0", 2.0**52,
                            tmp_path / "huge.bin")
    calls, real_advance = [], driver.advance

    def counted(*args):
        calls.append(1)
        if len(calls) > 100:
            pytest.fail("the resumed run is still stepping after 100 steps")
        return real_advance(*args)

    monkeypatch.setattr(driver, "advance", counted)
    nx, nv, t_end = STEP3_RUNS[preset]
    with pytest.raises(NonFiniteError, match=r"CFL step \S+ is below 0.001 of the zero-field "
                                             r"step at step 3 \(t="):
        run(from_preset(preset, nx=nx, nv=nv, t_end=2 * t_end), resume=str(snap))
    assert calls == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=100)
@given(st.sampled_from(sorted(STEP3_RUNS)), st.data())
def test_corrupted_snapshot_resumes_or_fails_typed(step3_snapshots, preset, data):
    # a corrupted snapshot either resumes and steps to finite diagnostics or
    # ends in a solver error, which the CLI, recording every step, prints as
    # one line; a resume that steps is not run on to t_end, since a huge
    # finite field can make its CFL step arbitrarily small
    from lrvlasov.cli import main
    from lrvlasov.errors import LrvlasovError

    raw = _corrupt(bytearray(step3_snapshots[preset]), data)
    nx, nv, t_end = STEP3_RUNS[preset]
    with tempfile.TemporaryDirectory() as tmp:
        snap = Path(tmp) / "fuzz.bin"
        snap.write_bytes(bytes(raw))
        argvs = [["inspect", str(snap)]]
        try:
            _resume_two_steps(snap, preset)
        except LrvlasovError:
            argvs.append(["run", "--preset", preset, "--set", f"grid.nx={nx}",
                          "--set", f"grid.nv={nv}", "--set", f"method.t_end={2 * t_end}",
                          "--set", "output.every=1", "--resume", str(snap), "--out", tmp])
        for argv in argvs:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = main(argv)
            lines = err.getvalue().strip().splitlines()
            assert rc == 0 or (rc == 2 and len(lines) == 1 and lines[0].startswith("error: ")), \
                (argv[0], rc, lines)


@settings(max_examples=100)
@given(st.sampled_from(sorted(STEP3_RUNS)), st.data())
def test_damaged_snapshot_is_refused(step3_snapshots, preset, data):
    # the checksum covers every byte, so each damage of the kinds above that
    # changes the file is refused; where the magic, the version and the rest
    # of the header words still read, the checksum refuses it, naming the file
    raw = step3_snapshots[preset]
    bad = bytes(_corrupt(bytearray(raw), data))
    nx, nv, _ = STEP3_RUNS[preset]
    problem = setup(from_preset(preset, nx=nx, nv=nv))
    with tempfile.TemporaryDirectory() as tmp:
        snap = Path(tmp) / "damaged.bin"
        snap.write_bytes(bad)
        if bad == raw:
            assert snapshot_read(snap, problem).step == 3
            return
        with pytest.raises(SnapshotError) as err:
            snapshot_read(snap, problem)
    if len(bad) >= 48 and bad[:16] == raw[:16]:  # whole header, magic and version intact
        assert f"{snap}: checksum mismatch" in str(err.value)


@pytest.mark.parametrize("corrupt,message", [
    (lambda h: setattr(h, "t", math.nan), "t is not finite"),
    (lambda h: setattr(h, "dt_work", -1.0), "out of range: dt_work -1.0"),
    (lambda h: setattr(h, "dts", [0.01, 0.0]), "out of range: dts[1] 0.0"),
    (lambda h: h.fs[0].C.__setitem__(0, math.nan), "level 0 array C is not finite"),
    (lambda h: h.us[0].__setitem__((2, 0), math.inf), "level 0 macro row 2 is not finite"),
], ids=["t", "dt_work", "dts", "C", "macro-row"])
def test_snapshot_write_refuses_bad_words(tmp_path, corrupt, message):
    # a history that a resume would refuse is not written
    problem, hist = initialize(from_preset("weak_landau_1d", nx=16, nv=33))
    corrupt(hist)
    with pytest.raises(SnapshotError, match=re.escape(message)):
        snapshot_write(hist, problem, tmp_path / "s.bin")
    assert not list(tmp_path.iterdir())


def test_resume_builds_no_initial_state(tmp_path, monkeypatch):
    # a resume takes every level from the snapshot, so the initial state is
    # never built, and the resumed rows are the uninterrupted run's bits
    from lrvlasov.formats import Problem

    cfg = from_preset("weak_landau_1d", nx=16, nv=33, t_end=0.2, output_every=1)
    full = run(cfg, snapshot_every=3, snapshot_dir=str(tmp_path))

    def refuse(self):
        raise AssertionError("initial state built on resume")

    monkeypatch.setattr(Problem, "initial", refuse)
    resumed = run(cfg, resume=str(tmp_path / "snapshot_000003.bin"))
    assert [(r.t, r.ranks, r.mass, r.momentum, r.energy) for r in resumed] == [
        (r.t, r.ranks, r.mass, r.momentum, r.energy) for r in full[3:]]


def test_cli_rank_overflow_reporting(tmp_path, capsys):
    from lrvlasov.cli import main

    rc = main(["run", "--preset", "strong_landau_1d", "--set", "grid.nx=32",
               "--set", "grid.nv=64", "--set", "method.rank_cap=3",
               "--set", "method.t_end=1.0", "--set", "output.every=1",
               "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: rank")
    # a larger eps is what lowers the rank
    assert "larger eps" in err[0] and "tighten" not in err[0]
    # every step recorded before the error was streamed to disk: t = 0 and
    # each step up to the one named in the message
    lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
    assert lines[0] == "t,rank,mass,mom1,energy,efield_energy,wall_ms"
    failed_step = int(err[0].split("(step ")[1].split(")")[0])
    rows = read_diagnostics(tmp_path / "diagnostics.csv")
    assert len(rows) == failed_step + 1 and failed_step >= 1
    assert rows[0].t == 0.0 and all(r.ranks[0] <= 3 for r in rows)
