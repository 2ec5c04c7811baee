"""Macroscopic conservation-law solver with kinetic flux vector splitting.

The conserved unknowns are (rho, J, e) in 1D and (rho, J1, J2, e) in 2D.
Split fluxes are velocity moments of the kinetic solution against sign-split
monomials v+ = max(v, 0), v- = min(v, 0); interfaces are reconstructed with
the same fifth-order upwind stencils as the kinetic transport, so the two
discretizations agree flux-by-flux.  Updates are flux differences plus the
field source, keeping the totals exact up to source terms.  The rates
``rate_1d``/``rate_2d`` give -dF + S per dimension; ``combine`` applies any
time-stepping rule's weights to them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionError
from .grids import SpatialGrid, VelocityGrid
from .lowrank import LowRankMatrix
from .poisson import ElectricField
from .upwind import flux_difference, reconstruct_interface


@dataclass
class MacroState1D:
    rho: np.ndarray
    J: np.ndarray
    e: np.ndarray


@dataclass
class MacroState2D:
    rho: np.ndarray
    J1: np.ndarray
    J2: np.ndarray
    e: np.ndarray


@dataclass
class FluxSet1D:
    """Split fluxes per conserved variable, stacked as (3, Nx) arrays."""

    plus: np.ndarray
    minus: np.ndarray

    def unsplit(self) -> np.ndarray:
        return self.plus + self.minus


@dataclass
class FluxSet2D:
    """Split fluxes per direction, stacked as (4, N1, N2) arrays."""

    x1_plus: np.ndarray
    x1_minus: np.ndarray
    x2_plus: np.ndarray
    x2_minus: np.ndarray


def kfvs_fluxes_1d(f: LowRankMatrix, grid: VelocityGrid) -> FluxSet1D:
    """Mass, momentum and energy fluxes split on the sign of v."""
    if f.Uv.shape[0] != grid.n:
        raise DimensionError("velocity factor length does not match grid")
    h, v = grid.h, grid.v
    vp = np.maximum(v, 0.0)
    vm = np.minimum(v, 0.0)

    def against(vv: np.ndarray) -> np.ndarray:
        mono = np.column_stack([vv, vv**2, 0.5 * vv**3])  # (Nv, 3)
        weights = h * (f.Uv.T @ mono) * f.C[:, None]      # (r, 3)
        return (f.Ux @ weights).T                         # (3, Nx)

    return FluxSet1D(plus=against(vp), minus=against(vm))


def _interface_flux(fp: np.ndarray, fm: np.ndarray, axis: int) -> np.ndarray:
    return (reconstruct_interface(fp, "plus", "periodic", axis=axis)
            + reconstruct_interface(fm, "minus", "periodic", axis=axis))


def rate_1d(u: MacroState1D, flux: FluxSet1D, field: ElectricField, grid: SpatialGrid,
            extra_source=None, t: float = 0.0) -> np.ndarray:
    """-dF + S for (rho, J, e), stacked as a (3, Nx) array."""
    (h,) = grid.h
    (e_field,) = field.E
    div = np.stack([
        flux_difference(_interface_flux(flux.plus[i], flux.minus[i], axis=0), h, axis=0)
        for i in range(3)
    ])
    src = np.zeros_like(div)
    src[1] = u.rho * e_field
    if extra_source is not None:
        s_rho, s_j, s_e = extra_source(grid.nodes(0), t, e_field)
        src[0] += s_rho
        src[1] += s_j
        src[2] += s_e
    return -div + src


def combine(states, weights, rate: np.ndarray | None = None, c_dt: float = 0.0):
    """sum_k w_k U_k + c_dt * rate, conserved variable by conserved variable.

    The multistep update is combine([U^{n-2}, U^n], [1/4, 3/4], L(U^n), 3/2 dt)
    and a forward-Euler stage is combine([U], [1], L(U), dt).  Terms are added
    left to right, so the rounding is that of the written-out formula.
    """
    names = [f.name for f in fields(states[0])]
    out = []
    for i, name in enumerate(names):
        acc = weights[0] * getattr(states[0], name)
        for w, u in zip(weights[1:], states[1:]):
            acc = acc + w * getattr(u, name)
        if rate is not None:
            acc = acc + c_dt * rate[i]
        out.append(acc)
    return type(states[0])(*out)


def recover_kinetic_energy(u, field: ElectricField) -> np.ndarray:
    """kappa = e - |E|^2 / 2 on the spatial nodes."""
    return u.e - 0.5 * field.magnitude_squared()


# ---------------------------------------------------------------------------
# 2D2V: fluxes contracted through the hierarchical format, dimension by
# dimension; the J-cross moments are the one place this touches the velocity
# transfer tensor.

def _ht_spatial_fields(f, coeffs: np.ndarray) -> np.ndarray:
    """Map per-column velocity contractions (r_v, k) to k spatial fields."""
    n1, n2 = f.nx
    fields = f.Ux @ (f.B @ coeffs)  # (n1*n2, k)
    return fields.T.reshape(-1, n1, n2)


def _pair_contraction(f, g3: np.ndarray, g4: np.ndarray) -> np.ndarray:
    """<U34_l, g3 o g4> for every velocity-pair column l, plain quadrature."""
    a = g3 @ f.Uv1  # (r3,)
    b = g4 @ f.Uv2  # (r4,)
    return b @ np.tensordot(a, f.Bvv, axes=(0, 0))


def kfvs_fluxes_2d(f, grids: tuple[VelocityGrid, VelocityGrid]) -> FluxSet2D:
    """Direction-split fluxes for (rho, J1, J2, e) from an HtTensor."""
    g1, g2 = grids
    if f.Uv1.shape[0] != g1.n or f.Uv2.shape[0] != g2.n:
        raise DimensionError("velocity frames do not match grids")
    h1, h2 = g1.h, g2.h
    v1, v2 = g1.v, g2.v
    one1, one2 = np.ones_like(v1), np.ones_like(v2)

    def direction(split_v, other_v, other_one, split_h, other_h, along_v1: bool):
        # flux monomials: (s, s^2, s*v_other, s*(s^2 + v_other^2)/2) where s is
        # the sign-split transport velocity of this direction
        def contract(ga, gb):
            if along_v1:
                return _pair_contraction(f, split_h * ga, other_h * gb)
            return _pair_contraction(f, other_h * gb, split_h * ga)

        rho_c = contract(split_v, other_one)
        jpar_c = contract(split_v**2, other_one)
        jperp_c = contract(split_v, other_v)
        e_c = 0.5 * contract(split_v**3, other_one) + 0.5 * contract(split_v, other_v**2)
        if along_v1:
            stack = np.stack([rho_c, jpar_c, jperp_c, e_c])   # (rho, J1, J2, e)
        else:
            stack = np.stack([rho_c, jperp_c, jpar_c, e_c])   # (rho, J1, J2, e)
        return _ht_spatial_fields(f, stack.T)

    v1p, v1m = np.maximum(v1, 0.0), np.minimum(v1, 0.0)
    v2p, v2m = np.maximum(v2, 0.0), np.minimum(v2, 0.0)
    return FluxSet2D(
        x1_plus=direction(v1p, v2, one2, h1, h2, along_v1=True),
        x1_minus=direction(v1m, v2, one2, h1, h2, along_v1=True),
        x2_plus=direction(v2p, v1, one1, h2, h1, along_v1=False),
        x2_minus=direction(v2m, v1, one1, h2, h1, along_v1=False),
    )


def _div_2d(flux: FluxSet2D, grid: SpatialGrid) -> np.ndarray:
    h1, h2 = grid.h
    out = np.empty_like(flux.x1_plus)
    for i in range(4):
        f1 = _interface_flux(flux.x1_plus[i], flux.x1_minus[i], axis=0)
        f2 = _interface_flux(flux.x2_plus[i], flux.x2_minus[i], axis=1)
        out[i] = flux_difference(f1, h1, axis=0) + flux_difference(f2, h2, axis=1)
    return out


def rate_2d(u: MacroState2D, flux: FluxSet2D, field: ElectricField,
            grid: SpatialGrid) -> np.ndarray:
    """-div F + S for (rho, J1, J2, e), stacked as a (4, N1, N2) array."""
    div = _div_2d(flux, grid)
    src = np.zeros_like(div)
    src[1] = u.rho * field.E[0]
    src[2] = u.rho * field.E[1]
    return -div + src
