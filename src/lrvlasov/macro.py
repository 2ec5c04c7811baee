"""Macroscopic conservation-law solver with kinetic flux vector splitting.

The conserved unknowns are one stacked ``(2 + d, *n)`` array ``u`` with rows
rho, J_1 .. J_d, e = kappa + sign |E|^2 / 2 on the d-dimensional spatial grid;
the split fluxes, the rates and the kinetic moments (kappa in place of e)
share that layout.  Split fluxes are velocity moments of the kinetic solution
against sign-split monomials v+ = max(v, 0), v- = min(v, 0), one ``(plus,
minus)`` pair per spatial axis; only their contraction with the factored
solution is written once per format (``kfvs_fluxes_1d``, ``kfvs_fluxes_2d``);
in 2D all sixteen split fluxes are one batched pair contraction in
``htucker``.  Interfaces are reconstructed with the same fifth-order upwind
stencils as the kinetic transport, so the two discretizations agree
flux-by-flux.  ``rate`` gives -div F + S for any number of axes, keeping the
totals exact up to source terms, and ``combine`` applies any time-stepping
rule's weights to it.
"""

from __future__ import annotations

import numpy as np

from . import htucker as ht
from .errors import DimensionError
from .grids import SpatialGrid, VelocityGrid
from .lowrank import LowRankMatrix
from .poisson import ElectricField
from .upwind import flux_difference, reconstruct_interface


def kfvs_fluxes_1d(f: LowRankMatrix, grid: VelocityGrid) -> list:
    """Mass, momentum and energy fluxes split on the sign of v: [(plus, minus)]."""
    if f.Uv.shape[0] != grid.n:
        raise DimensionError("velocity factor length does not match grid")
    h, v = grid.h, grid.v

    def against(vv: np.ndarray) -> np.ndarray:
        mono = np.column_stack([vv, vv**2, 0.5 * vv**3])  # (Nv, 3)
        weights = h * (f.Uv.T @ mono) * f.C[:, None]      # (r, 3)
        return (f.Ux @ weights).T                         # (3, Nx)

    return [(against(np.maximum(v, 0.0)), against(np.minimum(v, 0.0)))]


def _flux_weights() -> np.ndarray:
    """(20, 16) map from the 2D flux pair functionals to the flux rows.

    Per axis k and sign, five functionals (s 1, s^2 1, s o, s^3 1, s o^2)
    give the four rows (rho, J1, J2, e) of that axis's split flux; s^2 is the
    current along axis k and s o the other one.
    """
    w = np.zeros((20, 16))
    for k in (0, 1):
        rows = (0, 1 + k, 2 - k, 3, 3)
        for block in (2 * k, 2 * k + 1):
            for i, r in enumerate(rows):
                w[5 * block + i, 4 * block + r] = 0.5 if r == 3 else 1.0
    return w


_FLUX_WEIGHTS = _flux_weights()


def kfvs_fluxes_2d(f: ht.HtTensor, grids: tuple[VelocityGrid, VelocityGrid]) -> list:
    """Direction-split fluxes for (rho, J1, J2, e) from an HtTensor, per axis.

    The flux monomials are (s, s^2, s o, s (s^2 + o^2) / 2), s the sign-split
    velocity of the axis and o the other velocity; all sixteen fluxes come
    from one batched contraction of f's velocity pair.
    """
    g1, g2 = grids
    if f.Uv1.shape[0] != g1.n or f.Uv2.shape[0] != g2.n:
        raise DimensionError("velocity frames do not match grids")
    leaves = ([], [])
    for k in (0, 1):
        g, o = grids[k], grids[1 - k]
        one = np.ones_like(o.v)
        for split in (np.maximum, np.minimum):
            s = split(g.v, 0.0)
            leaves[k].append(g.h * np.column_stack([s, s**2, s, s**3, s]))
            leaves[1 - k].append(o.h * np.column_stack([one, one, o.v, one, o.v**2]))
    fields = ht._pair_fields([f], np.hstack(leaves[0]), np.hstack(leaves[1]), _FLUX_WEIGHTS)
    return [(fields[0:4], fields[4:8]), (fields[8:12], fields[12:16])]


def rate(u: np.ndarray, fluxes, field: ElectricField, sgrid: SpatialGrid,
         extra_source=None, t: float = 0.0) -> np.ndarray:
    """-div F + S for the stacked state u, all conserved variables at once.

    The source is rho E in the momentum rows and the mean current's work
    E . mean(J) in the energy row.  With div E = sign (rho - mean(rho)),
    e gains E . (J - P_L J) for either sign, P_L J the zero-mean curl-free
    part of J; J - P_L J is mean(J) in 1D, and 2D leaves out its
    divergence-free part.  Sum_x E = 0 keeps the totals exact.
    ``extra_source(x, t, E)`` -> (s_rho, s_J, s_e) adds the sources of a
    manufactured solution in 1D.
    """
    div = None
    for ax, ((plus, minus), h) in enumerate(zip(fluxes, sgrid.h), start=1):
        fhat = (reconstruct_interface(plus, "plus", "periodic", axis=ax)
                + reconstruct_interface(minus, "minus", "periodic", axis=ax))
        d = flux_difference(fhat, h, axis=ax)
        div = d if div is None else div + d
    src = np.zeros_like(div)
    src[1:-1] = u[0] * np.stack(field.E)
    src[-1] = sum(e * j.mean() for e, j in zip(field.E, u[1:-1]))
    if extra_source is not None:
        src += np.stack(extra_source(sgrid.nodes(0), t, field.E[0]))
    return -div + src


def combine(states, weights, rate: np.ndarray, c_dt: float):
    """sum_k w_k U_k + c_dt * rate.

    The multistep update is combine([U^{n-2}, U^n], [1/4, 3/4], L(U^n), 3/2 dt).
    Heun's two stages are combine([U^n], [1], L(U^n), dt) for U_a and
    combine([U^n, U_a], [1/2, 1/2], L(U_a), dt/2).  Terms are added left to
    right, so the rounding is that of the written-out formula.
    """
    acc = weights[0] * states[0]
    for w, u in zip(weights[1:], states[1:]):
        acc = acc + w * u
    return acc + c_dt * rate
