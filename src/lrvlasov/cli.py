"""Command-line interface: run, convergence, compare, inspect."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import load_config
from .errors import ConfigError, LrvlasovError


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="path to a key=value config file")
    p.add_argument("--preset", help="preset name (overrides the config's preset)")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="SECTION.KEY=VALUE", help="override a config value")
    p.add_argument("--out", default=".", help="output directory")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lrvlasov",
                                     description="low-rank Vlasov-Poisson solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configuration to t_end")
    _add_common(p_run)
    p_run.add_argument("--snapshot-every", type=int, default=0, metavar="STEPS")
    p_run.add_argument("--resume", help="resume from a snapshot file")

    p_conv = sub.add_parser("convergence",
                            help="forced-preset refinement study (error table)")
    _add_common(p_conv)
    p_conv.add_argument("--sizes", default="32,64,128,256",
                        help="comma-separated grid sizes")

    p_cmp = sub.add_parser("compare",
                           help="run plain/conservative/macro on one preset")
    _add_common(p_cmp)

    p_ins = sub.add_parser("inspect", help="summarize a snapshot file")
    p_ins.add_argument("snapshot")
    return parser


def _resolve_config(args):
    return load_config(path=args.config, preset=args.preset, overrides=args.overrides)


def _cmd_run(args) -> int:
    from contextlib import ExitStack
    from functools import cache

    from .driver import run
    from .io import append_row

    cfg = _resolve_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "diagnostics.csv"
    # rows are streamed as they are recorded, so a failed run keeps them; the
    # file opens at the first row, so a run failing before it keeps an old one
    with ExitStack() as stack:
        sink = cache(lambda: stack.enter_context(csv_path.open("w")))
        series = run(cfg, snapshot_every=args.snapshot_every, snapshot_dir=str(out),
                     resume=args.resume, on_row=lambda row: append_row(row, sink()))
    last = series[-1]
    print(f"preset={cfg.preset} method={cfg.method} t={last.t:.6g} "
          f"ranks={last.ranks} mass={last.mass:.12g}")
    print(f"wrote {csv_path}")
    return 0


def _cmd_convergence(args) -> int:
    from .config import parse_overrides
    from .driver import convergence_table

    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"--sizes expects comma-separated integers, "
                          f"got {args.sizes!r}") from None
    overrides = parse_overrides(args.overrides)
    rows = convergence_table(sizes, overrides)
    print(f"{'N':>6} {'Linf error':>14} {'order':>7} {'L2 error':>14} {'order':>7}")
    for r in rows:
        o1 = f"{r['order_linf']:7.2f}" if r["order_linf"] == r["order_linf"] else "     --"
        o2 = f"{r['order_l2']:7.2f}" if r["order_l2"] == r["order_l2"] else "     --"
        print(f"{r['n']:>6} {r['linf']:14.4e} {o1} {r['l2']:14.4e} {o2}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "convergence.csv"
    with csv_path.open("w") as fh:
        fh.write("n,linf,order_linf,l2,order_l2\n")
        for r in rows:
            fh.write(f"{r['n']},{r['linf']:.17g},{r['order_linf']:.17g},"
                     f"{r['l2']:.17g},{r['order_l2']:.17g}\n")
    print(f"wrote {csv_path}")
    return 0


def _cmd_compare(args) -> int:
    from dataclasses import replace

    from .config import METHODS
    from .driver import run
    from .io import append_row

    cfg = _resolve_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "compare.csv"
    with csv_path.open("w") as fh:
        for method in METHODS:
            # streamed and flushed per row, so a failing method keeps its rows
            series = run(replace(cfg, method=method),
                         on_row=lambda row, method=method: append_row(row, fh, method))
            print(f"{method}: {len(series)} rows")
    print(f"wrote {csv_path}")
    return 0


def _cmd_inspect(args) -> int:
    from .htucker import HtTensor
    from .io import snapshot_parse

    path = Path(args.snapshot)
    version, dim, sig, hist = snapshot_parse(path)
    print(f"snapshot {path}")
    print(f"  version {version}, {'1D1V' if dim == 1 else '2D2V'}, "
          f"step {hist.step}, t = {hist.t:.9g}")
    print(f"  dt_work = {hist.dt_work:.6g}, recent steps = {[f'{d:.6g}' for d in hist.dts]}")
    print(f"  grid: nx={int(sig[0])}x{int(sig[1])} nv={int(sig[2])}x{int(sig[3])} "
          f"x=[{sig[4]:.6g},{sig[5]:.6g}) v_max={sig[6]:.6g} beta={sig[7]:.6g} "
          f"eps={sig[8]:.3g}")
    if len(sig) > 9:
        cfl, sign, method, preset = sig[9:]
        print(f"  run: preset={preset} method={method} cfl={cfl:.6g} poisson_sign={sign:.6g}")
    for level, f in enumerate(hist.fs):
        if isinstance(f, HtTensor):
            rx, rv, r1, r2 = f.ranks
            print(f"  level {level}: ranks (x={rx}, vv={rv}, v1={r1}, v2={r2})")
        else:
            print(f"  level {level}: rank {f.C.size}, |C| max "
                  f"{np.max(np.abs(f.C), initial=0.0):.6g}")
    return 0


def main(argv=None) -> int:
    """Run one command; a solver or file error ends it with one ``error:`` line.

    Floating-point overflow, invalid and divide warnings are silenced for the
    command, so a state that overflows reports only the typed error that stops
    it; library calls outside the CLI keep numpy's settings.
    """
    args = _build_parser().parse_args(argv)
    command = {"run": _cmd_run, "convergence": _cmd_convergence,
               "compare": _cmd_compare, "inspect": _cmd_inspect}[args.command]
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return command(args)
    except (LrvlasovError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
