"""Macroscopic conservation-law solver with kinetic flux vector splitting.

The conserved unknowns are one stacked ``(2 + d, *n)`` array ``u`` with rows
rho, J_1 .. J_d, e = kappa + sign |E|^2 / 2 on the d-dimensional spatial grid;
the split fluxes, the rates and the kinetic moments (kappa in place of e)
share that layout.  Split fluxes are velocity moments of the kinetic solution
against sign-split monomials v+ = max(v, 0), v- = min(v, 0), one ``(plus,
minus)`` pair per spatial axis; they are taken in ``formats.Problem.fluxes``
by each format's one velocity contraction, so this module reads no format.
One call of the kinetic transport's upwind stencil per axis reconstructs the
stacked pair, plus with the plus bias and minus with the minus bias, so the
two discretizations agree flux-by-flux.  ``rate`` gives -div F + S for any
number of axes, keeping the totals exact up to source terms, and ``combine``
applies any time-stepping rule's weights to it.
"""

from __future__ import annotations

import numpy as np

from .grids import SpatialGrid
from .poisson import ElectricField
from . import upwind


def rate(u: np.ndarray, fluxes, field: ElectricField, sgrid: SpatialGrid,
         extra_source=None, t: float = 0.0) -> np.ndarray:
    """-div F + S for the stacked state u, all conserved variables at once.

    The source is rho E in the momentum rows and the mean current's work
    E . mean(J) in the energy row.  With div E = sign (rho - mean(rho)),
    e gains E . (J - P_L J) for either sign, P_L J the zero-mean curl-free
    part of J; J - P_L J is mean(J) in 1D, and 2D leaves out its
    divergence-free part.  Sum_x E = 0 keeps the totals exact.
    ``extra_source(x, t, E)`` -> (s_rho, s_J, s_e) adds the sources of a
    manufactured solution in 1D.  ``fluxes`` holds one stacked (plus, minus)
    pair ``(2, 2 + d, *n)`` per spatial axis (``formats.Problem.fluxes``).
    """
    div = None
    for ax, (pair, h) in enumerate(zip(fluxes, sgrid.h), start=1):
        fhat = upwind.interfaces(pair, "periodic", axis=ax + 1)
        d = upwind.flux_difference(fhat[0, 0] + fhat[1, 1], h, axis=ax)
        div = d if div is None else np.add(div, d, out=div)
    src = np.zeros_like(div)
    for row, e in enumerate(field.E, start=1):
        np.multiply(u[0], e, out=src[row])
        src[-1] += e * (u[row].sum() / u[row].size)  # mean(J), summed and divided as np.mean
    if extra_source is not None:
        src += np.stack(extra_source(sgrid.nodes(0), t, field.E[0]))
    src -= div  # src + (-div), bit for bit
    return src


def combine(states, weights, rate: np.ndarray, c_dt: float):
    """sum_k w_k U_k + c_dt * rate.

    The multistep update is combine([U^{n-2}, U^n], [1/4, 3/4], L(U^n), 3/2 dt).
    Heun's two stages are combine([U^n], [1], L(U^n), dt) for U_a and
    combine([U^n, U_a], [1/2, 1/2], L(U_a), dt/2).  Terms are added left to
    right, so the rounding is that of the written-out formula.
    """
    acc = weights[0] * states[0]  # a new array, summed into in place
    for w, u in zip(weights[1:], states[1:]):
        acc += w * u
    acc += c_dt * rate
    return acc
