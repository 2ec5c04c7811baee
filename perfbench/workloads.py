"""The benchmark's workloads, how a seed moves their input, and output checks.

A workload is a preset run to its t_end, with the changes stated in its spec.
The seed shifts ``x_min`` and ``x_max`` by the same seeded fraction of one
cell: on the periodic domain that only moves the phase of the initial
perturbation, so the physics is unchanged while the floating-point path is a
different one.
"""

from __future__ import annotations

import math
import random

# Each spec: preset, config overrides, snapshot cadence (0 = none), whether a
# second leg resumes from the last snapshot, the conservation limits that
# apply, and the reference final field energy with its relative tolerance.
# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
# References were taken at the commit that added the benchmark, where seeds
# 0-5 stayed within 3e-6 of them; the tolerance leaves room for truncation
# changes at the workloads' eps and still catches a change to the physics.
WORKLOADS: dict[str, dict] = {
    "landau_1d": {
        "preset": "weak_landau_1d",
        "overrides": {},
        "snapshot_every": 0,
        "resume": False,
        "conservation": "1d",
        "efield_ref": (1.1210857e-06, 1e-3),
    },
    "landau_2d2v": {
        "preset": "weak_landau_2d2v",
        "overrides": {},
        "snapshot_every": 0,
        "resume": False,
        "conservation": "2d",
        "efield_ref": (3.4429555e-03, 1e-3),
    },
    "strong_1d_plain": {
        "preset": "strong_landau_1d",
        "overrides": {"method": "plain", "t_end": 5.0},
        "snapshot_every": 200,
        "resume": True,
        "conservation": None,
        "efield_ref": (0.11453976, 1e-3),
    },
}

# acceptance criteria 3 (1D) and 8 (2D): (mass rel, momentum abs, energy rel)
CONSERVATION = {"1d": (1e-11, 1e-10, 1e-10), "2d": (1e-10, 1e-10, 1e-10)}


def seed_shift(seed: int) -> float:
    """Fraction of one cell in [0, 1) by which the seed moves the domain."""
    return random.Random(seed).random()


def resolve(spec: dict, seed: int):
    """Solver config for a workload spec under a seed."""
    from lrvlasov.config import from_preset

    cfg = from_preset(spec["preset"], **spec["overrides"])
    h = (cfg.x_max - cfg.x_min) / cfg.nx
    shift = seed_shift(seed) * h
    return from_preset(spec["preset"], **spec["overrides"],
                       x_min=cfg.x_min + shift, x_max=cfg.x_max + shift)


def _drift(values, relative: bool) -> float:
    dev = max(abs(v - values[0]) for v in values)
    return dev / abs(values[0]) if relative else dev


def check(spec: dict, legs: list[list]) -> list[str]:
    """Failed checks for a run's diagnostics, one message each; [] if all hold.

    ``legs`` holds the diagnostics rows of each leg.  The last leg is the
    resumed one when the spec resumes.
    """
    failures = []
    rows = [row for leg in legs for row in leg]
    for row in rows:
        values = (row.t, row.mass, *row.momentum, row.energy, row.efield_energy)
        if not all(math.isfinite(v) for v in values):
            failures.append(f"non-finite diagnostics at t={row.t!r}")
            return failures
    first = legs[0]
    if spec["conservation"]:
        mass_tol, mom_tol, energy_tol = CONSERVATION[spec["conservation"]]
        mass = _drift([r.mass for r in first], relative=True)
        energy = _drift([r.energy for r in first], relative=True)
        moms = [_drift([r.momentum[k] for r in first], relative=False)
                for k in range(len(first[0].momentum))]
        if mass > mass_tol:
            failures.append(f"mass drift {mass:.3e} > {mass_tol:g}")
        if max(moms) > mom_tol:
            failures.append(f"momentum drift {max(moms):.3e} > {mom_tol:g}")
        if energy > energy_tol:
            failures.append(f"energy drift {energy:.3e} > {energy_tol:g}")
    if spec["efield_ref"] is not None:
        ref, rtol = spec["efield_ref"]
        got = first[-1].efield_energy
        if abs(got - ref) > rtol * abs(ref):
            failures.append(f"final efield_energy {got!r} not within {rtol:g} of {ref!r}")
    if spec["resume"]:
        a, b = _exact_key(first[-1]), _exact_key(legs[-1][-1])
        if a != b:
            failures.append(f"resumed final row {b} differs from uninterrupted {a}")
    return failures


def _exact_key(row) -> tuple:
    """A diagnostics row minus wall_ms, floats as hex so equality is bitwise."""
    return (row.t.hex(), row.ranks, row.mass.hex(), tuple(m.hex() for m in row.momentum),
            row.energy.hex(), row.efield_energy.hex())
