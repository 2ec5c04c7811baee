"""Time stepping: one stepper for both formats, and the run loop.

One step advances the kinetic solution with the second-order multistep rule

    f^{n+1,*} = 1/4 f^{n-2} + 3/4 f^n + 3/2 dt * RHS(f^n)

followed by the method-dependent truncation:

    plain         SVD truncation of f^{n+1,*}
    conservative  truncation of the zero-moment remainder only, moments pinned
                  to those of f^{n+1,*}
    macro         same, but the moments come from the co-evolved macroscopic
                  conservation laws (KFVS fluxes of f^n), which makes mass,
                  momentum and energy conservation exact up to round-off

Both pinned methods call one moment pin, ``formats.Problem.pin``.  The
multistep formula assumes three equally spaced time levels.  The step
size is a CFL bound re-evaluated every step but ratcheted (never increased
within a run); whenever the current step size differs from the last two
recorded ones (startup, a ratchet tightening, or the final clamped step) the
step runs Heun in Shu-Osher form instead, which re-primes the lineage:

    f_a = f^n + dt * RHS(f^n),  f^{n+1,*} = 1/2 f^n + 1/2 f_a + 1/2 dt * RHS(f_a)

Both rules are stage tables (``MULTISTEP``, ``HEUN``) that ``step`` runs the
same way in either format: every stage sums weighted earlier levels and a
multiple of dt * RHS of the newest level as factored blocks and truncates
them into a new level, and the macroscopic state, one stacked array of rho,
J_1..J_d, e, is combined with the same weights (``macro.combine``).  Nothing
here branches on the dimension: ``formats`` picks the problem's class
(``Problem1D`` or ``Problem2D``), everything format-specific goes through it,
and below it only ``macro`` keeps one KFVS flux contraction per format.
Moments share the macroscopic state's layout, with kappa in the last row
where the state holds e = kappa + sign |E|^2 / 2, the field's share written
once (``ElectricField.energy_density``).  ``step`` observes each level it
makes (``_observe``), and the observation is the next stage's field and,
kept by ``History.push``, the CFL bound's and the next step's: under macro
the moments and field of the level's macroscopic state (``_macro_pair``),
which its cut was pinned to, so a stage solves Poisson once and takes no
moments of its level; under plain and conservative the level's own.  A
level no step made, at t = 0 or from a snapshot, is observed on first use.
The diagnostics always measure the level's own moments and field.  A
non-finite macroscopic state or level, or a failed factorization, stops
the step with ``NonFiniteError``, as do a step size too small to advance t
and a field so large that the CFL step falls below 1e-3 of the zero-field
one (``_DT_FLOOR``).  A resumed run takes its history from
``io.snapshot_read`` and builds no initial state.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple

import numpy as np

from . import htucker as ht  # noqa: F401  (kept bound as driver.ht for callers)
from . import io as _io
from . import macro
from .config import SolverConfig
from .errors import ConfigError, NonFiniteError, RankOverflowError
from .formats import FORMATS, Problem
from .io import DiagnosticsRow
from .poisson import ElectricField, field_energy, solve_poisson
from .presets import get_preset

_DT_MATCH = 1e-12  # relative tolerance for "same step size" lineage checks
# smallest CFL step a run takes, as a fraction of the zero-field CFL step;
# the shipped presets' smallest is 0.74 (strong_landau_1d)
_DT_FLOOR = 1e-3


def _field_of(problem: Problem, rho: np.ndarray) -> ElectricField:
    return solve_poisson(rho, problem.sgrid, problem.cfg.poisson_sign)


def _macro_pair(problem: Problem, u: np.ndarray) -> tuple[np.ndarray, ElectricField]:
    """The moments and field that the macroscopic state u fixes: u with
    kappa = e - sign |E|^2 / 2 in its last row, and the field of u's density."""
    field = _field_of(problem, u[0])
    m = u.copy()
    m[-1] -= field.energy_density()
    return m, field


def _observe(problem: Problem, hist: History, f, pair):
    """Moments and field of level f: ``pair``, the ``_macro_pair`` of the
    state f was pinned to, under macro, else f's own.

    A level whose factors overflow the bound on its norm, or whose moments
    are not finite or overflow in their sum or field energy, stops the run
    with ``NonFiniteError`` at ``hist``'s step.
    """
    m = field = None
    if math.isfinite(_norm_bound(f)):
        if pair is not None:
            m, field = pair
        else:
            m = problem.moments([f])
            field = _field_of(problem, m[0]) if np.isfinite(m).all() else None
    # finite moments can still overflow in their sum or field energy
    if field is None or not math.isfinite(float(m.sum()) + field_energy(field, problem.sgrid)):
        raise NonFiniteError(f"non-finite moments at step {hist.step} (t={hist.t:.6g})")
    return m, field


def _norm_bound(f) -> float:
    """A bound on ||f||_F^2: the product of its factors' squared Frobenius
    norms, infinite when a factor word is not finite or overflows it."""
    return math.prod(float(np.vdot(a, a)) for a in vars(f).values()
                     if isinstance(a, np.ndarray))


def _contig_state(f):
    """Copy factor arrays to C order.

    Truncation leaves factor blocks as non-contiguous views, and BLAS results
    are not bit-identical across stride layouts; normalizing here makes a run
    resumed from a snapshot (whose arrays are freshly contiguous) reproduce an
    uninterrupted one exactly.
    """
    return type(f)(*(np.ascontiguousarray(v) if isinstance(v, np.ndarray) else v
                     for v in vars(f).values()))


@dataclass
class History:
    """Multistep lineage: up to three kinetic/macro levels plus clocks.

    A macro level is the stacked array of rho, J_1..J_d, e (None if unused).
    """

    fs: list = dataclass_field(default_factory=list)
    us: list = dataclass_field(default_factory=list)
    t: float = 0.0
    step: int = 0
    dts: list = dataclass_field(default_factory=list)  # last two step sizes
    dt_work: float = 0.0
    # ``_observe`` of fs[-1]: its step's, or taken on first use
    seen: tuple = dataclass_field(default=(), repr=False, compare=False)

    def push(self, f, u, dt: float, seen: tuple) -> None:
        self.fs = [*self.fs, f][-3:]
        self.us = [*self.us, u][-3:]
        self.dts = [*self.dts, dt][-2:]
        self.t += dt
        self.step += 1
        self.seen = seen

    def multistep_ready(self, dt: float) -> bool:
        if len(self.fs) < 3 or len(self.dts) < 2:
            return False
        ref = max(abs(dt), 1e-300)
        return all(abs(d - dt) <= _DT_MATCH * ref for d in self.dts[-2:])

    def newest(self, problem: Problem):
        """Moments and field of the newest level, as its step observed them;
        a level that no step made (t = 0, a resumed one) is observed here."""
        if not self.seen:
            pair = _macro_pair(problem, self.us[-1]) if problem.cfg.method == "macro" else None
            self.seen = _observe(problem, self, self.fs[-1], pair)
        return self.seen


def setup(cfg: SolverConfig) -> Problem:
    return FORMATS[cfg.dim].build(cfg, get_preset(cfg.preset))


def initialize(cfg: SolverConfig) -> tuple[Problem, History]:
    """Initial factored state and macroscopic state, history primed at t=0."""
    problem = setup(cfg)
    f0 = problem.initial()
    u0 = problem.moments([f0])
    u0[-1] += _field_of(problem, u0[0]).energy_density()
    return problem, History(fs=[_contig_state(f0)], us=[u0])


def _streaming_speed(problem: Problem) -> float:
    """sum_d v_max/h_x,d: the CFL speed of a zero field."""
    return sum(problem.cfg.v_max / h for h in problem.sgrid.h)


def select_dt(problem: Problem, field: ElectricField, cfl: float) -> float:
    """CFL bound cfl / (sum_d v_max/h_x,d + sum_d max|E_d|/h_v,d)."""
    speed = _streaming_speed(problem)
    for e, vgrid in zip(field.E, problem.vgrids):
        speed += float(np.abs(e).max()) / vgrid.h
    return cfl / speed


# ---------------------------------------------------------------------------
# stage tables and the one stepper

class Stage(NamedTuple):
    """sum_k w_k L_k + c dt RHS(L_-1), the RHS taken at t + t_rhs dt, then cut.

    Levels are counted back from the newest (-1) over the stored history
    followed by the stages already taken.  Every stage takes the RHS of the
    newest level and is truncated by the method's ``_cut`` into a new level,
    and its macroscopic state is combined with the same weights.
    """

    weights: tuple[tuple[int, float], ...]
    c: float
    t_rhs: float = 0.0


MULTISTEP = (Stage(((-3, 0.25), (-1, 0.75)), c=1.5),)
# Heun in Shu-Osher form: f_a, then 1/2 f^n + 1/2 f_a + 1/2 dt RHS(f_a)
HEUN = (Stage(((-1, 1.0),), c=1.0), Stage(((-2, 0.5), (-1, 0.5)), c=0.5, t_rhs=1.0))


def _cut(problem: Problem, blocks: list, target):
    """The method policy: plain truncation, or truncation pinned to moments,
    the blocks' own under conservative, ``target`` under macro."""
    if problem.cfg.method == "plain":
        return problem.truncate(blocks)
    return problem.pin(blocks, target)


def step(problem: Problem, hist: History, dt: float):
    """One multistep or Heun step; returns the new kinetic and macro states
    and the new level's ``_observe``."""
    table = MULTISTEP if hist.multistep_ready(dt) else HEUN
    levels, us = list(hist.fs), list(hist.us)
    pinned_to_state = problem.cfg.method == "macro"
    seen = hist.newest(problem)
    for stage in table:
        field = seen[1]
        t_rhs, c_dt = hist.t + stage.t_rhs * dt, stage.c * dt
        blocks = [problem.scale(levels[k], w) for k, w in stage.weights]
        blocks += problem.transport(levels[-1], field, t_rhs, c_dt)
        u = pair = None
        if pinned_to_state:
            u = macro.combine([us[k] for k, _ in stage.weights], [w for _, w in stage.weights],
                              problem.rate(us[-1], levels[-1], field, t_rhs), c_dt)
            if not np.isfinite(u).all():
                raise NonFiniteError(f"non-finite macroscopic state at step {hist.step} "
                                     f"(t={hist.t:.6g})")
            pair = _macro_pair(problem, u)
        level = _cut(problem, blocks, pair and pair[0])
        del blocks  # so the copy reuses their memory, not raises the step's peak
        levels.append(_contig_state(level))
        us.append(u)
        seen = _observe(problem, hist, levels[-1], pair)
    return levels[-1], us[-1], seen


def advance(problem: Problem, hist: History, dt: float) -> None:
    """One step of the configured scheme, checked against the rank cap."""
    try:
        f_new, u_new, seen = step(problem, hist, dt)
    except np.linalg.LinAlgError as err:  # LAPACK met a non-finite or overflowing state
        raise NonFiniteError(f"{err} at step {hist.step} (t={hist.t:.6g})") from None
    ranks, cap = problem.ranks(f_new), problem.cfg.rank_cap
    if max(ranks) > cap:
        raise RankOverflowError(
            f"rank {ranks} exceeds cap {cap} at t={hist.t:.6g} (step {hist.step}); "
            f"use a larger eps (a coarser truncation keeps fewer ranks) or raise rank_cap")
    hist.push(f_new, u_new, dt, seen)


# ---------------------------------------------------------------------------
# diagnostics and the run loop

def diagnostics_row(problem: Problem, hist: History, wall_ms: float) -> DiagnosticsRow:
    """The newest level's totals, from its own moments and field, so that
    conservation is measured, not assumed from the state it was pinned to."""
    m, field = hist.newest(problem)
    if problem.cfg.method == "macro":
        m = problem.moments([hist.fs[-1]])
        field = _field_of(problem, m[0])
    vol = problem.sgrid.cell_volume
    efield = field_energy(field, problem.sgrid)
    return DiagnosticsRow(
        t=hist.t,
        ranks=problem.ranks(hist.fs[-1]),
        mass=vol * float(np.sum(m[0])),
        momentum=tuple(vol * float(np.sum(j)) for j in m[1:-1]),
        energy=vol * float(np.sum(m[-1])) + efield,
        efield_energy=efield,
        wall_ms=wall_ms,
    )


def _tiny(cfg: SolverConfig) -> float:
    return 1e-12 * max(cfg.t_end, 1.0)


def _march(problem: Problem, hist: History):
    """Advance to t_end under the ratcheted CFL step, yielding after each step."""
    cfg = problem.cfg
    floor = _DT_FLOOR * cfg.cfl / _streaming_speed(problem)
    if hist.dt_work == 0.0:
        hist.dt_work = select_dt(problem, hist.newest(problem)[1], cfg.cfl)
    while hist.t < cfg.t_end - _tiny(cfg):
        hist.dt_work = min(hist.dt_work, select_dt(problem, hist.newest(problem)[1], cfg.cfl))
        dt = min(hist.dt_work, cfg.t_end - hist.t)
        if hist.t + dt == hist.t:  # a step this small leaves the run where it is
            raise NonFiniteError(f"step size {dt:.3g} does not advance t at step {hist.step} "
                                 f"(t={hist.t:.6g})")
        if hist.dt_work < floor:  # a field this large would take steps without end
            raise NonFiniteError(f"CFL step {hist.dt_work:.3g} is below {_DT_FLOOR:g} of the "
                                 f"zero-field step at step {hist.step} (t={hist.t:.6g})")
        advance(problem, hist, dt)
        yield


def run(cfg: SolverConfig, snapshot_every: int = 0, snapshot_dir=None,
        resume=None, on_row=None) -> list[DiagnosticsRow]:
    """Advance to t_end, returning diagnostics at the configured cadence.

    ``on_row(row)`` sees each row as it is recorded, even if the run fails.
    A step that overflows the rank cap, or stops on a non-finite macroscopic
    state or level, a failed factorization, a step size too small to advance
    t or a collapsed CFL step, leaves the last good history in
    ``snapshot_dir`` and names it in its error; after a rank overflow that
    history resumes under a larger ``rank_cap``."""
    if snapshot_every < 0:
        raise ConfigError(f"snapshot_every must be >= 0, got {snapshot_every}")
    if snapshot_every and snapshot_dir is None:
        raise ConfigError(f"snapshot_every {snapshot_every} needs a snapshot_dir")
    if resume is None:
        problem, hist = initialize(cfg)
    else:
        problem = setup(cfg)
        hist = _io.snapshot_read(resume, problem)
    hist.newest(problem)  # the one level no step made; a bad one leaves no snapshot
    series: list[DiagnosticsRow] = []
    clock0 = time.perf_counter()

    def record() -> None:
        wall_ms = 1000.0 * (time.perf_counter() - clock0)
        series.append(diagnostics_row(problem, hist, wall_ms))
        if on_row is not None:
            on_row(series[-1])

    def snapshot() -> str:
        path = f"{snapshot_dir}/snapshot_{hist.step:06d}.bin"
        _io.snapshot_write(hist, problem, path)
        return path

    if hist.step % cfg.output_every == 0:
        record()
    try:
        for _ in _march(problem, hist):
            if hist.step % cfg.output_every == 0:
                record()
            if snapshot_every and hist.step % snapshot_every == 0:
                snapshot()
    except (RankOverflowError, NonFiniteError) as err:
        # advance raises before the push, so hist holds the last good step
        if snapshot_dir is None:
            raise
        raise type(err)(f"{err}; the last good state is in {snapshot()}") from None
    if not series or series[-1].t < hist.t - _tiny(cfg):
        record()
    return series


# ---------------------------------------------------------------------------
# convergence study against the manufactured solution

def forced_errors(cfg: SolverConfig) -> tuple[float, float]:
    """(Linf, L2) error of a forced-preset run at t_end against the exact f."""
    problem, hist = initialize(cfg)
    for _ in _march(problem, hist):
        pass
    exact = problem.preset.exact_f(hist.t, problem.sgrid.nodes(0), problem.vgrid.v)
    err = hist.fs[-1].dense() - exact
    linf = float(np.max(np.abs(err)))
    l2 = float(np.sqrt(problem.sgrid.cell_volume * problem.vgrid.h * np.sum(err**2)))
    return linf, l2


def convergence_table(sizes, base_overrides=None) -> list[dict]:
    """Forced-preset refinement study; rows carry errors and observed orders.

    Meshes are N x 2N, the pairing used by every benchmark in this family.
    The error study runs at cfl 0.2 (tighter than the physics default) so the
    second-order time error sits close to the reference table at every mesh.
    """
    from .config import from_preset

    rows: list[dict] = []
    for n in sizes:
        overrides = {"cfl": 0.2, **(base_overrides or {}), "nx": n, "nv": 2 * n}
        linf, l2 = forced_errors(from_preset("forced", **overrides))
        row = {"n": n, "linf": linf, "l2": l2, "order_linf": float("nan"),
               "order_l2": float("nan")}
        if rows:
            row["order_linf"] = float(np.log2(rows[-1]["linf"] / linf))
            row["order_l2"] = float(np.log2(rows[-1]["l2"] / l2))
        rows.append(row)
    return rows
