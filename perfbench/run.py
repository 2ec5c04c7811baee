"""Time-to-t_end benchmark of the solver: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each run of the workload starts in a fresh
interpreter with BLAS pinned to one thread, one run at a time, until about
``--seconds`` have passed: at least three untraced runs, then a few launches
that stop at the first step and only add set-up samples; with ``--trace 1``
untraced and traced runs alternate, at least one of each.  Every run's output
is checked; a run that raises or fails a check counts in ``failed`` and the
benchmark goes on.  The last line of standard output is the JSON result, with
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) as medians over the runs; the lines above it give quartiles
and run counts.  The full record, with provenance, is written to
``.perfbench_out/<workload>-seed<N>-trace<T>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # run as a file: make the package importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"
MIN_RUNS = 3           # untraced runs, so a median is a median
SETUP_SAMPLES = 5      # extra set-up-only launches; set-up time is noisy
MAX_RUNS = 12          # stops a fast-failing program from spinning
HARD_LIMIT_S = 150.0   # no run starts that would end past this
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> (unit, how it is read from one run's result)
END_TO_END = {
    "wall_s": ("s", lambda r: r["wall_s"]),
    "steps_per_s": ("1/s", lambda r: r["steps"] / r["wall_s"]),
    "setup_s": ("s", lambda r: r["setup_s"]),
    "peak_rss_mb": ("MB", lambda r: r["peak_rss_mb"]),
    "state_kb": ("KiB", lambda r: r["state_words"] * 8 / 1024),
    "rank_max": ("count", lambda r: r["rank_max"]),
}

LAYER_UNITS = {
    "driver.step_ms.p50": "ms", "driver.step_ms.p95": "ms", "driver.heun_steps": "count",
    "driver.self_ms": "ms", "driver.select_dt_ms": "ms", "driver.diagnostics_ms": "ms",
    "driver.initialize_ms": "ms",
    "poisson.solves": "count", "poisson.solves_per_step": "1/step", "poisson.ms": "ms",
    "upwind.calls": "count", "upwind.ms": "ms",
    "lowrank.recompress_calls": "count", "lowrank.recompress_ms": "ms",
    "lowrank.cols_in": "cols", "lowrank.keep_ratio": "ratio", "lowrank.add_ms": "ms",
    "projection.moments_calls": "count", "projection.ms": "ms",
    "macro.kfvs_ms": "ms", "macro.update_ms": "ms",
    "htucker.truncate_calls": "count", "htucker.truncate_ms": "ms",
    "htucker.cols_in": "cols", "htucker.keep_ratio": "ratio",
    "htucker.moments_calls": "count", "htucker.moments_ms": "ms",
    "htucker.transport_ms": "ms",
    "io.snapshot_writes": "count", "io.snapshot_bytes": "B",
    "io.snapshot_write_ms": "ms", "io.snapshot_read_ms": "ms",
    "trace.overhead_pct": "%",
}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"  # same dict layouts in every run
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_once(spec: dict, seed: int, kind: str, out: Path, root: Path = ROOT,
             timeout: float = HARD_LIMIT_S) -> dict:
    """One run in a fresh interpreter; never raises for a failed run.

    ``kind`` is "untraced", "traced" or "setup" (stop at the first step).
    The result carries ``kind``, ``ok`` and, when the run failed, ``reason``.
    """
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    cmd = [sys.executable, "-m", "perfbench.child", "--spec", json.dumps(spec),
           "--seed", str(seed), "--trace", str(int(kind == "traced")), "--t0", repr(t0),
           "--out", str(out)] + (["--setup-only"] if kind == "setup" else [])
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "kind": kind, "elapsed_s": time.monotonic() - t0,
                "reason": f"timed out after {timeout:.0f} s"}
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"ok": False, "kind": kind, "elapsed_s": elapsed,
                "reason": f"exit {proc.returncode}: {tail[0]}"}
    result.update(kind=kind, elapsed_s=elapsed)
    if result.get("error"):
        result.update(ok=False, reason=result["error"])
    elif result.get("failures"):
        result.update(ok=False, reason="; ".join(result["failures"]))
    else:
        result["ok"] = True
    return result


def run_series(spec: dict, seed: int, seconds: float, trace: bool, out: Path,
               root: Path = ROOT) -> list[dict]:
    """Runs one after another until ``seconds`` would be overrun.

    Untraced runs followed by set-up-only launches, or, with ``trace``,
    untraced and traced runs alternately.
    """
    runs: list[dict] = []
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S + 20.0  # every child is gone by then
    while len(runs) < MAX_RUNS:
        elapsed = time.monotonic() - start
        if runs:
            est = statistics.median(r["elapsed_s"] for r in runs)
            enough = len(runs) >= (2 if trace else MIN_RUNS)
            if (enough and elapsed + est > seconds) or elapsed + est > HARD_LIMIT_S:
                break
        kind = "traced" if trace and len(runs) % 2 == 1 else "untraced"
        runs.append(run_once(spec, seed, kind, out / f"run{len(runs)}", root,
                             timeout=deadline - time.monotonic()))
    for i in range(0 if trace else SETUP_SAMPLES):
        left = deadline - time.monotonic()
        if left < 1.0:
            break
        runs.append(run_once(spec, seed, "setup", out / f"setup{i}", root,
                             timeout=min(20.0, left)))
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _ok(runs: list[dict], *kinds: str) -> list[dict]:
    return [r for r in runs if r["ok"] and r["kind"] in kinds]


def end_to_end(runs: list[dict]) -> dict:
    """Medians over untraced runs; set-up time over set-up-only launches too."""
    out = {}
    for name, (unit, read) in END_TO_END.items():
        kinds = ("untraced", "setup") if name == "setup_s" else ("untraced",)
        values = [float(read(r)) for r in _ok(runs, *kinds)]
        q1, med, q3 = quartiles(values)
        out[name] = {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}
    return out


def per_layer(runs: list[dict]) -> dict:
    traced, plain = _ok(runs, "traced"), _ok(runs, "untraced")
    out = {}
    for name, unit in LAYER_UNITS.items():
        if name == "trace.overhead_pct":
            t = statistics.median(r["wall_s"] for r in traced)
            u = statistics.median(r["wall_s"] for r in plain)
            values = [100.0 * (t - u) / u]
        else:
            values = [float(r["layers"][name]) for r in traced]
        q1, med, q3 = quartiles(values)
        out[name] = {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}
    return out


def source_provenance(root: Path) -> dict:
    """Git commit when the tree is a checkout, and a digest of the solver source."""
    sha = None
    if (root / ".git").exists():  # an exported tree has no commit to name
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                  capture_output=True, text=True, timeout=10)
            if proc.returncode == 0:
                sha = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()}


def provenance(runs: list[dict], workload: str, seed: int, trace: bool, seconds: float,
               root: Path) -> dict:
    first = next((r for r in runs if "python" in r), {})
    config = next((r["config"] for r in runs if "config" in r), None)
    return {
        **source_provenance(root),
        "python": first.get("python", platform.python_version()),
        "numpy": first.get("numpy"),
        "openblas": first.get("openblas_config"),
        "blas_threads": first.get("blas_threads"),
        "thread_env": first.get("env"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "config": config,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "lrvlasov" / "__init__.py").is_file():
        print(f"perfbench: no solver source at {ROOT / 'src' / 'lrvlasov'}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    runs = run_series(spec, args.seed, args.seconds, bool(args.trace), out)

    failed = [r for r in runs if not r["ok"]]
    for i, r in enumerate(runs):
        status = "ok" if r["ok"] else f"FAILED: {r['reason']}"
        print(f"run {i} ({r['kind']}, {r['elapsed_s']:.2f} s): {status}")
    if not (_ok(runs, "untraced") and (_ok(runs, "traced") or not args.trace)):
        print("perfbench: no successful run to measure", file=sys.stderr)
        return 1
    metrics = per_layer(runs) if args.trace else end_to_end(runs)
    print(f"runs {len(runs)}, runs_failed {len(failed)}")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:14.6g} {m['unit']:7s} "
              f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['n']}")
    prov = provenance(runs, args.workload, args.seed, bool(args.trace), args.seconds, ROOT)
    print("provenance " + json.dumps({k: v for k, v in prov.items() if k != "config"}))
    record = {"provenance": prov, "runs": len(runs), "runs_failed": len(failed),
              "metrics": metrics, "run_results": runs}
    (out / "result.json").write_text(json.dumps(record, indent=1))
    print(f"wrote {(out / 'result.json').relative_to(ROOT)}")
    result = {"correct": not failed, "attempted": len(runs), "failed": len(failed),
              "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                          for k, m in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
