"""Golden diagnostics: short runs must reproduce committed results exactly.

Every run takes the Heun startup, at least ten multistep steps and a final
clamped Heun step, and records every step.  All diagnostics columns except
``wall_ms`` are compared as 17-significant-digit strings, which round-trip
float64 exactly, so any change in floating-point results fails here.  BLAS
kernels split their sums by thread, so the last bits of a result depend on the
thread count: every run here, and every regeneration, pins the loaded
OpenBLAS to one thread and restores its count afterwards.

Regenerate the files (only for an intended change of results) with

    PYTHONPATH=src python tests/test_golden.py

which also rewrites ``data/weak_landau_1d_step4.bin``, the snapshot that
``test_io.py`` resumes bit for bit, from the current code.
Before it overwrites a file it prints one line for it: unchanged, or how many
rows changed rank and each float column's largest change relative to the
column's largest magnitude in the old file; for the snapshot, unchanged or
how many bytes differ.
"""

import csv
import ctypes
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from lrvlasov.config import from_preset
from lrvlasov.driver import convergence_table, run

GOLDEN = Path(__file__).parent / "golden"

# file stem -> (preset, config overrides)
RUNS = {
    "weak_landau_1d_plain": ("weak_landau_1d", {"method": "plain", "t_end": 0.15}),
    "weak_landau_1d_conservative": ("weak_landau_1d",
                                    {"method": "conservative", "t_end": 0.15}),
    "weak_landau_1d_macro": ("weak_landau_1d", {"method": "macro", "t_end": 0.15}),
    # kinetic forcing and macro sources; the CFL ratchet re-primes with Heun
    "forced_macro": ("forced", {"method": "macro", "t_end": 0.08}),
    "strong_landau_1d_plain": ("strong_landau_1d", {"method": "plain", "t_end": 0.1}),
    "weak_landau_2d2v_plain": ("weak_landau_2d2v", {"method": "plain", "t_end": 0.25}),
    "weak_landau_2d2v_conservative": ("weak_landau_2d2v",
                                      {"method": "conservative", "t_end": 0.25}),
    "weak_landau_2d2v_macro": ("weak_landau_2d2v", {"method": "macro", "t_end": 0.25}),
    "two_stream_2d2v_macro": ("two_stream_2d2v", {"method": "macro", "t_end": 0.5}),
}
# runs also checked through a snapshot and a resume from it; the first one
# (plain, no macro levels) is checked only there, the macro runs in both formats
# also carry their co-evolved (rho, J, e) levels through the snapshot
RESUMED = ["strong_landau_1d_plain", "weak_landau_1d_macro", "weak_landau_2d2v_macro"]
SNAPSHOT_EVERY = 10
CONVERGENCE_SIZES = [16, 32]


def _blas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy loaded, or None.

    numpy wheels bundle OpenBLAS beside the package; loading it again by path
    returns the handle numpy already uses.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.restype, get.argtypes = ctypes.c_int, []
                    put.restype, put.argtypes = None, [ctypes.c_int]
                    return get, put
    return None


@contextmanager
def one_blas_thread():
    """Run the block with OpenBLAS on one thread, then restore its count."""
    threads = _blas_threads()
    if threads is None:
        yield
        return
    get, put = threads
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


@pytest.fixture(autouse=True)
def _one_blas_thread():
    with one_blas_thread():
        yield


def _g(x: float) -> str:
    return format(x, ".17g")


def _header(row) -> list[str]:
    ranks = (["rank"] if len(row.ranks) == 1
             else ["rank_x", "rank_vv", "rank_v1", "rank_v2"])
    moms = [f"mom{i + 1}" for i in range(len(row.momentum))]
    return ["t", *ranks, "mass", *moms, "energy", "efield_energy"]


def _cells(row) -> list[str]:
    return [_g(row.t), *(str(r) for r in row.ranks), _g(row.mass),
            *(_g(m) for m in row.momentum), _g(row.energy), _g(row.efield_energy)]


def _table(series) -> list[list[str]]:
    return [_header(series[0])] + [_cells(r) for r in series]


def _convergence_table() -> list[list[str]]:
    keys = ["n", "linf", "order_linf", "l2", "order_l2"]
    rows = convergence_table(CONVERGENCE_SIZES)
    return [keys] + [[str(r["n"])] + [_g(r[k]) for k in keys[1:]] for r in rows]


def _run(stem: str, snapshot_dir=None):
    preset, overrides = RUNS[stem]
    cfg = from_preset(preset, output_every=1, **overrides)
    if snapshot_dir is None:
        return run(cfg)
    return run(cfg, snapshot_every=SNAPSHOT_EVERY, snapshot_dir=str(snapshot_dir))


def _read(stem: str) -> list[list[str]]:
    with (GOLDEN / f"{stem}.csv").open(newline="") as fh:
        return list(csv.reader(fh))


def _write(stem: str, table) -> None:
    with (GOLDEN / f"{stem}.csv").open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(table)


@pytest.mark.parametrize("stem", sorted(set(RUNS) - {RESUMED[0]}))
def test_golden_run(stem):
    assert _table(_run(stem)) == _read(stem)


@pytest.mark.parametrize("stem", RESUMED)
def test_golden_snapshot_and_resume(tmp_path, stem):
    full = _run(stem, snapshot_dir=tmp_path)
    assert _table(full) == _read(stem)
    preset, overrides = RUNS[stem]
    cfg = from_preset(preset, output_every=1, **overrides)
    resumed = run(cfg, resume=str(tmp_path / f"snapshot_{SNAPSHOT_EVERY:06d}.bin"))
    # the resumed run records from the snapshot's step on, bit for bit
    assert [_cells(r) for r in resumed] == [_cells(r) for r in full[SNAPSHOT_EVERY:]]


def test_golden_convergence_table():
    assert _convergence_table() == _read("convergence")


def _change(stem: str, table) -> str:
    """What regenerating ``stem`` with ``table`` changes, in one line."""
    if not (GOLDEN / f"{stem}.csv").exists():
        return f"{stem}.csv: new"
    old = _read(stem)
    if old == table:
        return f"{stem}.csv: unchanged"
    header, rows, old_rows = table[0], table[1:], old[1:]
    exact = [i for i, name in enumerate(header) if name == "n" or name.startswith("rank")]
    moved = sum(any(a[i] != b[i] for i in exact) for a, b in zip(rows, old_rows))
    parts = [f"{moved} of {len(rows)} rows changed rank"]
    if len(rows) != len(old_rows):
        parts.append(f"rows {len(old_rows)} -> {len(rows)}")
    for i, name in enumerate(header):
        if i in exact:
            continue
        # relative to the column's largest magnitude, not cell by cell: the
        # momentum totals are round-off, and a cell near zero blew the ratio up
        change = max((abs(float(a[i]) - float(b[i])) for a, b in zip(rows, old_rows)),
                     default=0.0)
        scale = max((abs(float(b[i])) for b in old_rows), default=0.0)
        rel = change / scale if scale else (0.0 if change == 0.0 else float("inf"))
        parts.append(f"{name} {rel:.2g}")
    return f"{stem}.csv: " + ", ".join(parts)


def _regenerate(stem: str, table) -> None:
    print(_change(stem, table))
    _write(stem, table)


def _write_snapshot_fixture(path) -> None:
    """Step 4 of weak_landau_1d (macro, 16 x 33, t_end 0.2) as ``snapshot_write``
    writes it."""
    from lrvlasov.driver import _march, initialize
    from lrvlasov.io import snapshot_write

    problem, hist = initialize(from_preset("weak_landau_1d", nx=16, nv=33, t_end=0.2))
    for _ in _march(problem, hist):
        if hist.step == 4:
            break
    snapshot_write(hist, problem, path)


def _regenerate_snapshot_fixture(path: Path) -> None:
    """Write the snapshot fixture anew, first printing one line for it:
    unchanged, or how many bytes differ."""
    with tempfile.TemporaryDirectory() as tmp:
        fresh = Path(tmp) / path.name
        _write_snapshot_fixture(fresh)
        new = fresh.read_bytes()
    if not path.exists():
        print(f"{path.name}: new")
    elif (old := path.read_bytes()) == new:
        print(f"{path.name}: unchanged")
    else:
        differ = sum(a != b for a, b in zip(old, new)) + abs(len(new) - len(old))
        print(f"{path.name}: {differ} bytes differ ({len(old)} -> {len(new)} bytes)")
    path.write_bytes(new)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with one_blas_thread():
        for name in RUNS:
            _regenerate(name, _table(_run(name)))
        _regenerate("convergence", _convergence_table())
        _regenerate_snapshot_fixture(Path(__file__).parent / "data" / "weak_landau_1d_step4.bin")
