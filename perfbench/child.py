"""One run of one workload, in a fresh interpreter.

    python3 -m perfbench.child --spec JSON --seed N --trace 0|1 --t0 T --out DIR
                               [--setup-only]

``--t0`` is the driving process's ``time.monotonic()`` just before it started
this one, so set-up time includes interpreter start and imports.  The last
line of standard output is one JSON object: the run's measurements, its
failed checks, and the error if it raised.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

if __package__ in (None, ""):  # run as a file: make the package importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import spans as spans_mod  # noqa: E402
from perfbench.workloads import check, resolve  # noqa: E402

class SetupDone(Exception):
    """Ends a set-up-only run at its first step."""


class StepHook:
    """Counts ``driver.advance`` calls and notes the first one's start.

    The run loop looks ``advance`` up in the driver's namespace on every
    step, so this one extra Python call per step is all the untraced run
    pays.  It keeps the last ``History`` it saw, whose newest level is the
    final state once the run returns.  With ``stop`` it raises ``SetupDone``
    instead of taking the first step.
    """

    def __init__(self, driver, stop: bool = False) -> None:
        self.driver = driver
        self.inner = driver.advance
        self.stop = stop
        self.first = None
        self.steps = 0
        self.hist = None
        driver.advance = self

    def __call__(self, problem, hist, dt):
        if self.first is None:
            self.first = time.monotonic()
            if self.stop:
                raise SetupDone
        self.steps += 1
        self.hist = hist
        return self.inner(problem, hist, dt)

    def restore(self) -> None:
        self.driver.advance = self.inner


def state_words(state) -> int:
    """float64 words held by a factored state's arrays."""
    import numpy as np

    return sum(v.size for v in vars(state).values() if isinstance(v, np.ndarray))


def blas_info() -> dict:
    """OpenBLAS build string and thread count as the loaded library reports them."""
    info = {"openblas_config": None, "blas_threads": None,
            "env": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "PYTHONHASHSEED")}}
    import numpy as np

    # numpy wheels bundle OpenBLAS beside the package; loading it again by
    # path returns the handle numpy already uses
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.restype, get_threads.argtypes = ctypes.c_int, []
                get_config.restype, get_config.argtypes = ctypes.c_char_p, []
                info["blas_threads"] = int(get_threads())
                info["openblas_config"] = get_config().decode()
                return info
    return info


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, int(round(q / 100.0 * len(ordered) + 0.5)) - 1))
    return ordered[k]


def install_probes(tracer) -> None:
    """Argument and result sizes recorded at the truncation and snapshot spans."""
    tracer.probe("lowrank.truncate", lambda a, kw, out: (a[0].rank, out.rank))

    def ht_cols(a, kw, out):
        terms = a[0] if a else kw["terms"]
        return (sum(t.Ux.shape[1] for t in terms), out.ranks[0])

    tracer.probe("htucker.ht_truncate_sum", ht_cols)

    def snap_bytes(a, kw, out):
        path = a[2] if len(a) > 2 else kw["path"]
        return os.path.getsize(path)

    tracer.probe("io.snapshot_write", snap_bytes)


def layer_metrics(tracer, steps: int) -> dict:
    """The per-layer metrics of one traced run, from its spans and probes."""
    s = spans_mod.summarize(tracer.spans)
    names, layers = s["names"], s["layers"]

    def calls(*keys):
        return sum(names[k]["calls"] for k in keys if k in names)

    def ms(*keys):
        return sum(names[k]["ns"] for k in keys if k in names) / 1e6

    def self_ms(layer):
        return layers.get(layer, {"self_ns": 0})["self_ns"] / 1e6

    def ratio_pair(name):
        vals = tracer.probe_values(name)
        cols = sum(c for c, _ in vals)
        kept = sum(k for _, k in vals)
        return (cols / len(vals) if vals else 0.0), (kept / cols if cols else 0.0)

    step_ms = [d / 1e6 for d in names.get("driver.advance", {"durations": []})["durations"]]
    lr_cols, lr_keep = ratio_pair("lowrank.truncate")
    ht_cols, ht_keep = ratio_pair("htucker.ht_truncate_sum")
    solves = calls("poisson.solve_poisson")
    return {
        "driver.step_ms.p50": _percentile(step_ms, 50) if step_ms else 0.0,
        "driver.step_ms.p95": _percentile(step_ms, 95) if step_ms else 0.0,
        "driver.heun_steps": calls("driver.step_rk2_1d", "driver.step_rk2_2d"),
        "driver.self_ms": self_ms("driver"),
        "driver.select_dt_ms": ms("driver.select_dt"),
        "driver.diagnostics_ms": ms("driver.diagnostics_row"),
        "driver.initialize_ms": ms("driver.initialize"),
        "poisson.solves": solves,
        "poisson.solves_per_step": solves / steps if steps else 0.0,
        "poisson.ms": self_ms("poisson"),
        "upwind.calls": layers.get("upwind", {"entries": 0})["entries"],
        "upwind.ms": self_ms("upwind"),
        "lowrank.recompress_calls": calls("lowrank.recompress"),
        "lowrank.recompress_ms": ms("lowrank.recompress"),
        "lowrank.cols_in": lr_cols,
        "lowrank.keep_ratio": lr_keep,
        "lowrank.add_ms": ms("lowrank.add"),
        "projection.moments_calls": calls("projection.moments"),
        "projection.ms": self_ms("projection"),
        "macro.kfvs_ms": ms("macro.kfvs_fluxes_1d", "macro.kfvs_fluxes_2d"),
        "macro.update_ms": ms("macro.macro_step_1d", "macro.macro_step_2d",
                              "macro.euler_macro_1d", "macro.euler_macro_2d"),
        "htucker.truncate_calls": calls("htucker.ht_truncate_sum"),
        "htucker.truncate_ms": ms("htucker.ht_truncate_sum"),
        "htucker.cols_in": ht_cols,
        "htucker.keep_ratio": ht_keep,
        "htucker.moments_calls": calls("htucker.ht_moments"),
        "htucker.moments_ms": ms("htucker.ht_moments"),
        "htucker.transport_ms": ms("htucker.ht_transport_blocks"),
        "io.snapshot_writes": calls("io.snapshot_write"),
        "io.snapshot_bytes": sum(tracer.probe_values("io.snapshot_write")),
        "io.snapshot_write_ms": ms("io.snapshot_write"),
        "io.snapshot_read_ms": ms("io.snapshot_read"),
    }


def write_spans(tracer, path: Path) -> None:
    """All spans of the run as one JSON document, names interned."""
    names: dict[str, int] = {}
    rows = [[names.setdefault(s[0], len(names)), s[1], s[2], s[3], s[4]]
            for s in tracer.spans]
    doc = {"fields": ["name", "start_ns", "end_ns", "parent", "run_id"],
           "names": list(names), "spans": rows}
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, separators=(",", ":")))
    os.replace(tmp, path)


def run_workload(spec: dict, seed: int, trace: bool, t0: float, out: Path,
                 setup_only: bool = False) -> dict:
    """Set up, run every leg of the workload, check it; measurements as a dict.

    With ``setup_only`` the run stops at its first step and reports only
    ``setup_s``.
    """
    import importlib

    import lrvlasov.driver as driver
    import numpy as np

    cfg = resolve(spec, seed)
    tracer = None
    if trace:
        tracer = spans_mod.Tracer()
        install_probes(tracer)
        for mod in spans_mod.LAYERS:
            tracer.wrap_module(importlib.import_module(f"lrvlasov.{mod}"))
    hook = StepHook(driver, stop=setup_only)
    snap_dir = out / "snapshots"
    legs = []
    try:
        if tracer is not None:
            tracer.run_id = "leg0"
        every = spec["snapshot_every"]
        legs.append(driver.run(cfg, snapshot_every=every,
                               snapshot_dir=str(snap_dir) if every else None))
        if spec["resume"]:
            snaps = sorted(snap_dir.glob("snapshot_*.bin"))
            if not snaps:
                raise RuntimeError("no snapshot was written to resume from")
            if tracer is not None:
                tracer.run_id = "leg1"
            legs.append(driver.run(cfg, resume=str(snaps[-1])))
        end = time.monotonic()
    except SetupDone:
        return {"setup_s": hook.first - t0, "failures": []}
    finally:
        hook.restore()
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(snap_dir, ignore_errors=True)
    result = {
        "setup_s": hook.first - t0,
        "wall_s": end - hook.first,
        "steps": hook.steps,
        "state_words": state_words(hook.hist.fs[-1]),
        "rank_max": max(max(row.ranks) for leg in legs for row in leg),
        "final_ranks": list(legs[-1][-1].ranks),
        "final_efield_energy": legs[-1][-1].efield_energy,
        "failures": check(spec, legs),
        "config": asdict(cfg),
        "numpy": np.__version__,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, hook.steps)
        result["span_count"] = len(tracer.spans)
        write_spans(tracer, out / "spans.json")
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--spec", required=True, help="workload spec as JSON")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--out", required=True, help="directory for snapshots and spans")
    p.add_argument("--setup-only", action="store_true", help="stop at the first step")
    args = p.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        result = run_workload(json.loads(args.spec), args.seed, bool(args.trace),
                              args.t0, out, args.setup_only)
        result["error"] = None
    except Exception as exc:  # the driving process counts it and keeps going
        traceback.print_exc()
        result = {"error": f"{type(exc).__name__}: {exc}", "failures": []}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["python"] = platform.python_version()
    result.update(blas_info())
    print(json.dumps(result))
    return 0 if result["error"] is None and not result["failures"] else 1


if __name__ == "__main__":
    sys.exit(main())
