"""Diagnostics CSV emission and binary state snapshots.

CSV columns are fixed per dimensionality, floats are written with 17
significant digits so they round-trip exactly.  Snapshots are little-endian
binary: an 8-byte magic, int64 header words, then factor blocks, each with
explicit dimensions and float64 payload in column-major order.  A snapshot
stores the full multistep lineage (kinetic and macroscopic levels plus the
recent step sizes), so a resumed run reproduces an uninterrupted one
bit-exactly.  ``snapshot_read`` alone decides whether a snapshot resumes
under a config: it refuses non-finite or out-of-range words (as the writer
does), levels of another method, and header config words that differ.
"""

from __future__ import annotations

import math
import os
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SnapshotError
from .htucker import HtTensor
from .lowrank import LowRankMatrix

_MAGIC = b"LRVSNAP\x01"
SNAPSHOT_VERSION = 2


@dataclass
class DiagnosticsRow:
    t: float
    ranks: tuple[int, ...]
    mass: float
    momentum: tuple[float, ...]
    energy: float
    efield_energy: float
    wall_ms: float


def _fmt(x: float) -> str:
    return format(x, ".17g")


def csv_header(row: DiagnosticsRow) -> str:
    """Column names for rows shaped like ``row`` (1D1V or 2D2V)."""
    if len(row.ranks) == 1:
        rank_cols = "rank"
    else:
        rank_cols = "rank_x,rank_vv,rank_v1,rank_v2"
    mom_cols = ",".join(f"mom{i + 1}" for i in range(len(row.momentum)))
    return f"t,{rank_cols},mass,{mom_cols},energy,efield_energy,wall_ms"


def csv_row(row: DiagnosticsRow) -> str:
    """One diagnostics row as CSV cells, floats to 17 significant digits."""
    fields = ([_fmt(row.t)] + [str(r) for r in row.ranks] + [_fmt(row.mass)]
              + [_fmt(m) for m in row.momentum]
              + [_fmt(row.energy), _fmt(row.efield_energy), _fmt(row.wall_ms)])
    return ",".join(fields)


def append_row(row: DiagnosticsRow, sink, method: str | None = None) -> None:
    """Stream one row to an open text sink, writing the header first.

    With ``method`` every line gains a leading ``method`` column, so runs of
    several methods can share one sink.  The sink is flushed after every row,
    so what a run has recorded is on disk even if it fails later.
    """
    header, line = csv_header(row), csv_row(row)
    if method is not None:
        header, line = f"method,{header}", f"{method},{line}"
    if getattr(sink, "_needs_header", True):
        sink.write(header + "\n")
        sink._needs_header = False
    sink.write(line + "\n")
    sink.flush()


def read_diagnostics(path) -> list[DiagnosticsRow]:
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise SnapshotError(f"empty diagnostics file: {path}")
    n_ranks = sum(1 for n in lines[0].split(",") if n.startswith("rank"))
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        ranks = tuple(int(c) for c in cells[1:1 + n_ranks])
        # t, mass, the momentum components, energy, efield_energy, wall_ms
        t, mass, *rest = (float(c) for c in cells[:1] + cells[1 + n_ranks:])
        rows.append(DiagnosticsRow(t, ranks, mass, tuple(rest[:-3]), *rest[-3:]))
    return rows


# ---------------------------------------------------------------------------
# binary snapshots

def _write_words(fh, code: str, *vals) -> None:
    """Eight-byte words: ``code`` is "q" (int64) or "d" (float64)."""
    fh.write(struct.pack(f"<{len(vals)}{code}", *vals))


def _read_words(fh, code: str, n: int) -> tuple:
    raw = fh.read(8 * n)
    if len(raw) != 8 * n:
        raise SnapshotError("truncated snapshot (header)")
    return struct.unpack(f"<{n}{code}", raw)


def _write_array(fh, a: np.ndarray) -> None:
    a = np.asarray(a, dtype=float)
    _write_words(fh, "q", a.ndim, *a.shape)
    fh.write(a.astype("<f8").tobytes(order="F"))


def _bytes_left(fh) -> int:
    return os.fstat(fh.fileno()).st_size - fh.tell()


def _read_array(fh) -> np.ndarray:
    """One array; its rank, dimensions and payload are checked against the
    bytes left in the file, so a corrupt header is refused before anything
    is allocated."""
    (ndim,) = _read_words(fh, "q", 1)
    if not 0 <= 8 * ndim <= _bytes_left(fh):
        raise SnapshotError(f"truncated or corrupt snapshot (array rank {ndim})")
    shape = _read_words(fh, "q", ndim)
    count = math.prod(shape)
    # an empty array has no payload, but numpy must still be able to hold
    # the product of its nonzero dimensions
    if (min(shape, default=0) < 0 or 8 * count > _bytes_left(fh)
            or 8 * math.prod(n for n in shape if n) > sys.maxsize):
        raise SnapshotError(f"truncated or corrupt snapshot (array shape {shape}, "
                            f"{_bytes_left(fh)} bytes left)")
    raw = fh.read(8 * count)
    return np.frombuffer(raw, dtype="<f8").reshape(shape, order="F").copy()


# A level is a kinetic block, kind 1 = LowRankMatrix or 2 = HtTensor (the kind
# word is followed by its two spatial sizes) with the arrays ``_level_shapes``
# names, in field order, then a macro block: the spatial dimensionality d
# (0 = no macro level) and the 2 + d rows rho, J_1..J_d, e, one array each.
# Both the kind and a nonzero d equal the dimensionality in the file header.
_KINETIC = {1: LowRankMatrix, 2: HtTensor}


def _write_level(fh, f, u) -> None:
    kind = next((k for k, cls in _KINETIC.items() if type(f) is cls), None)
    if kind is None:
        raise SnapshotError(f"cannot serialize state of type {type(f).__name__}")
    _write_words(fh, "q", kind, *getattr(f, "nx", ()))
    for a in vars(f).values():
        if isinstance(a, np.ndarray):
            _write_array(fh, a)
    rows = () if u is None else u
    _write_words(fh, "q", max(len(rows) - 2, 0))
    for row in rows:
        _write_array(fh, row)


def _read_level(fh, dim: int, shapes: dict):
    (kind,) = _read_words(fh, "q", 1)
    if kind != dim:
        raise SnapshotError(f"kinetic block kind {kind} in a {dim}D snapshot")
    cls = _KINETIC[kind]
    nx = (_read_words(fh, "q", 2),) if cls is HtTensor else ()
    f = cls(*(_read_array(fh) for _ in shapes), *nx)
    (macro,) = _read_words(fh, "q", 1)
    if macro not in (0, dim):
        raise SnapshotError(f"macro dimensionality word {macro} in a {dim}D snapshot")
    return f, [_read_array(fh) for _ in range(macro + 2)] if macro else []


def _level_shapes(dim: int, sig) -> tuple[dict, tuple]:
    """The arrays a level holds, in field order, with their shapes from the
    signature's grid words, and the grid shape that every macro row has; a
    name is a rank, the same wherever it appears."""
    nx, nx2, nv1, nv2 = sig[:4]
    if dim == 1:
        return {"C": ("r",), "Ux": (nx, "r"), "Uv": (nv1, "r")}, (nx,)
    return ({"Ux": (nx * nx2, "rx"), "B": ("rx", "rv"), "Bvv": ("r1", "r2", "rv"),
             "Uv1": (nv1, "r1"), "Uv2": (nv2, "r2")}, (nx, nx2))


def _check_level(where: str, f, rows, shapes: dict, grid: tuple) -> None:
    """Refuse a level whose arrays disagree with each other or with the grid."""
    def dims(want) -> str:
        return "(" + ", ".join(w if isinstance(w, str) else format(w, ".17g")
                               for w in want) + ")"

    ranks: dict[str, int] = {}
    for name, want in shapes.items():
        got = getattr(f, name).shape
        if len(got) != len(want) or not all(
                ranks.setdefault(w, g) == g if isinstance(w, str) else w == g
                for w, g in zip(want, got)):
            raise SnapshotError(f"{where} array {name} has shape {got}, expected {dims(want)}")
    if getattr(f, "nx", grid) != grid:
        raise SnapshotError(f"{where} spatial words {f.nx}, expected {dims(grid)}")
    for k, row in enumerate(rows):
        if row.shape != grid:
            raise SnapshotError(f"{where} macro row {k} has shape {row.shape}, "
                                f"expected {dims(grid)}")


def _check_words(where: str, hist, sig) -> None:
    """Refuse a non-finite float word or array, a negative t or dt_work and a
    recent step that is not positive; dt_work 0 means no step is chosen yet."""
    named = [("t", hist.t), ("dt_work", hist.dt_work), *zip(_SIGNATURE_NAMES, sig[:11]),
             *((f"dts[{i}]", d) for i, d in enumerate(hist.dts))]
    named += [(f"level {i} array {k}", a) for i, f in enumerate(hist.fs)
              for k, a in vars(f).items() if isinstance(a, np.ndarray)]
    named += [(f"level {i} macro row {k}", row) for i, u in enumerate(hist.us)
              for k, row in enumerate(() if u is None else u)]
    for name, w in named:
        if not np.isfinite(w).all():
            raise SnapshotError(f"{where}: {name} is not finite")
    bad = [f"{name} {w!r}" for name, w in named[:2] if w < 0]
    bad += [f"dts[{i}] {d!r}" for i, d in enumerate(hist.dts) if d <= 0]
    if bad:
        raise SnapshotError(f"{where}: out of range: " + ", ".join(bad))


_TEXT_MAX = 1024  # bytes of a header text word; method and preset names are short


def _write_text(fh, text: str) -> None:
    raw = text.encode()
    _write_words(fh, "q", len(raw))
    fh.write(raw)


def _read_text(fh) -> str:
    (n,) = _read_words(fh, "q", 1)
    if not 0 <= n <= _TEXT_MAX:
        raise SnapshotError(f"text length {n} in the snapshot header")
    raw = fh.read(n)
    if len(raw) != n:
        raise SnapshotError("truncated snapshot (header)")
    return raw.decode(errors="replace")


# The signature: nine grid words (both versions), then, from version 2 on, the
# run words cfl and poisson_sign (floats), method and preset (length-prefixed
# UTF-8).  t_end, the output cadence and rank_cap may change on resume.
_SIGNATURE_NAMES = ("nx", "nx2", "nv", "nv", "x_min", "x_max", "v_max", "beta", "eps",
                    "cfl", "poisson_sign", "method", "preset")


def _signature(problem) -> tuple:
    # both velocity directions share nv, which fills the slot that earlier
    # files gave a second velocity size
    cfg = problem.cfg
    return (float(cfg.nx), float(cfg.nx2), float(cfg.nv), float(cfg.nv),
            cfg.x_min, cfg.x_max, cfg.v_max, cfg.beta, cfg.eps,
            cfg.cfl, cfg.poisson_sign, cfg.method, cfg.preset)


def snapshot_write(hist, problem, path) -> None:
    """Write the history to ``path`` atomically.

    A history whose words ``snapshot_parse`` would refuse is not written.
    The bytes go to ``<path>.tmp``, which replaces ``path`` only once it is
    complete; a failed write removes it, so no partial snapshot is left.
    """
    path = Path(path)
    *words, method, preset = _signature(problem)
    _check_words(str(path), hist, words)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(_MAGIC)
            _write_words(fh, "q", SNAPSHOT_VERSION, len(problem.vgrids), hist.step,
                         len(hist.fs), len(hist.dts))
            _write_words(fh, "d", hist.t, hist.dt_work, *hist.dts, *words)
            _write_text(fh, method)
            _write_text(fh, preset)
            for f, u in zip(hist.fs, hist.us):
                _write_level(fh, f, u)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def snapshot_parse(path):
    """(version, dimensionality, signature, history) stored in a snapshot
    file; the signature has the nine grid words of a version 1 file, all of
    ``_SIGNATURE_NAMES`` from version 2 on.  Each level's factor shapes are
    checked against each other and against the signature's grid words, then
    every float word and array is checked by ``_check_words``."""
    from .driver import History  # deferred: avoids a module import cycle

    path = Path(path)
    with path.open("rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise SnapshotError(f"{path}: bad magic; not a snapshot file")
        version, dim, step, n_levels, n_dts = _read_words(fh, "q", 5)
        if version not in (1, SNAPSHOT_VERSION):
            raise SnapshotError(
                f"{path}: snapshot version {version}, expected 1 or {SNAPSHOT_VERSION}")
        if dim not in _KINETIC:
            raise SnapshotError(f"{path}: unknown snapshot dimensionality {dim}")
        t, dt_work, *dts = _read_words(fh, "d", 2 + n_dts)
        sig = _read_words(fh, "d", 9 if version == 1 else 11)
        if version > 1:
            sig += (_read_text(fh), _read_text(fh))
        hist = History(t=t, step=step, dts=list(dts), dt_work=dt_work)
        shapes, grid = _level_shapes(dim, sig)
        for i in range(n_levels):
            f, rows = _read_level(fh, dim, shapes)
            _check_level(f"{path}: level {i}", f, rows, shapes, grid)
            hist.fs.append(f)
            hist.us.append(np.stack(rows) if rows else None)
    _check_words(str(path), hist, sig)
    return version, dim, sig, hist


def snapshot_read(path, problem):
    """The history in ``path`` if it resumes under ``problem``.  Checked in
    turn: the dimensionality, the macroscopic levels (macro keeps one beside
    every kinetic level, the others only beside the initial state; the only
    method check a version 1 file gets), then the signature."""
    _, dim, sig, hist = snapshot_parse(path)
    if dim != len(problem.vgrids):
        raise SnapshotError(f"{path}: snapshot dimensionality {dim} does not match config")
    method = problem.cfg.method
    if method == "macro" and any(u is None for u in hist.us):
        raise SnapshotError(f"{path}: snapshot has no macroscopic levels, which "
                            f"method=macro needs; resume it under the method that wrote it")
    if method != "macro" and hist.step > 0 and hist.us[-1] is not None:
        raise SnapshotError(f"{path}: snapshot carries macroscopic levels, so "
                            f"method=macro wrote it, not method={method}")
    ours = _signature(problem)
    differ = [f"{name} {a!r} (config {b!r})"
              for name, a, b in zip(_SIGNATURE_NAMES, sig, ours) if a != b]
    if differ:
        raise SnapshotError(f"{path}: snapshot signature differs from config: "
                            + ", ".join(dict.fromkeys(differ)))
    return hist
