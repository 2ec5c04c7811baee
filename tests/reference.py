"""Independent reference implementations used as test oracles.

Everything here works on dense arrays and deliberately avoids the factored
code paths it is used to check: moments come from full quadrature sums,
projections from explicitly assembled basis matrices, truncations from dense
(weighted) SVDs, and the time step from applying the upwind operators to the
full 2D / 4D arrays.  The upwind stencil itself is checked against its
ghost-cell (pad and moveaxis) formulation.  The linear damping rate comes
from a dispersion-relation root finder built on the Faddeeva function.
"""

from __future__ import annotations

import numpy as np
from scipy.special import wofz

from lrvlasov.grids import SpatialGrid, VelocityGrid
from lrvlasov.poisson import ElectricField, solve_poisson
from lrvlasov.upwind import (MINUS_COEFFS, PLUS_COEFFS, flux_difference,
                             reconstruct_interface, upwind_derivative)

# ---------------------------------------------------------------------------
# dense moment / projection / truncation oracles (1D1V)


def dense_moments(f: np.ndarray, grid: VelocityGrid):
    """(rho, J, kappa) by direct quadrature over the velocity axis."""
    h, v = grid.h, grid.v
    rho = h * f.sum(axis=1)
    j = h * f @ v
    kappa = 0.5 * h * f @ v**2
    return rho, j, kappa


def dense_carrier(rho, j, kappa, grid: VelocityGrid) -> np.ndarray:
    """Weighted projection target built from explicit basis vectors."""
    w = grid.w
    wp = grid.w_points
    v = grid.v
    n1 = np.sum(w)
    c = np.dot(v**2, w) / n1
    n2 = np.dot(v**2, w)
    n3 = np.dot((v**2 - c) ** 2, w)
    return (np.outer(rho / n1, wp)
            + np.outer(j / n2, wp * v)
            + np.outer((2.0 * kappa - c * rho) / n3, wp * (v**2 - c)))


def dense_weighted_projection(f: np.ndarray, grid: VelocityGrid) -> np.ndarray:
    """w * P(f / w) with P the weighted-orthogonal projection, row by row."""
    wp = grid.w_points
    w = grid.w
    v = grid.v
    c = np.dot(v**2, w) / np.sum(w)
    basis = np.column_stack([np.ones_like(v), v, v**2 - c])
    scaled = f / wp[None, :]
    coeffs = (scaled * w[None, :]) @ basis / np.array(
        [np.dot(b * b, w) for b in basis.T])[None, :]
    return (coeffs @ basis.T) * wp[None, :]


def dense_truncate(f: np.ndarray, eps: float) -> np.ndarray:
    u, s, vt = np.linalg.svd(f, full_matrices=False)
    tails = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]
    ok = tails <= eps
    keep = int(np.argmax(ok)) if ok.any() else s.size
    return (u[:, :keep] * s[:keep]) @ vt[:keep]


def dense_weighted_truncate(f: np.ndarray, w_points: np.ndarray, eps: float) -> np.ndarray:
    root = np.sqrt(w_points)
    return dense_truncate(f / root[None, :], eps) * root[None, :]


def scale_bound(f) -> float:
    """Triangle-inequality bound on the Frobenius norm of a factored tensor's
    dense form (a ``LowRankMatrix`` or an ``HtTensor``), from its factors'
    column norms and the magnitudes of its coefficients.  Unlike the norm it
    does not vanish when blocks cancel, so it is the yardstick for round-off
    of near-cancelling sums."""
    if hasattr(f, "C"):
        return float(np.sum(np.abs(f.C) * np.linalg.norm(f.Ux, axis=0)
                            * np.linalg.norm(f.Uv, axis=0)))
    pair = np.linalg.norm(f.Uv2, axis=0) @ np.tensordot(np.linalg.norm(f.Uv1, axis=0),
                                                        np.abs(f.Bvv), axes=(0, 0))
    return float(np.linalg.norm(f.Ux, axis=0) @ np.abs(f.B) @ pair)


# ---------------------------------------------------------------------------
# dense full-grid scheme (1D1V), mirroring the factored step variant by variant


def dense_transport_rhs(f: np.ndarray, e_field: np.ndarray, sgrid: SpatialGrid,
                        vgrid: VelocityGrid, forcing: np.ndarray | None = None):
    (hx,) = sgrid.h
    v = vgrid.v
    vp, vm = np.maximum(v, 0.0), np.minimum(v, 0.0)
    ep, em = np.maximum(e_field, 0.0), np.minimum(e_field, 0.0)
    rhs = -(upwind_derivative(f, "plus", hx, "periodic", axis=0) * vp[None, :]
            + upwind_derivative(f, "minus", hx, "periodic", axis=0) * vm[None, :]
            + ep[:, None] * upwind_derivative(f, "plus", vgrid.h, "zero", axis=1)
            + em[:, None] * upwind_derivative(f, "minus", vgrid.h, "zero", axis=1))
    if forcing is not None:
        rhs = rhs + forcing
    return rhs


def dense_kfvs_fluxes(f: np.ndarray, grid: VelocityGrid):
    h, v = grid.h, grid.v
    out = {}
    for sign, vv in (("plus", np.maximum(v, 0.0)), ("minus", np.minimum(v, 0.0))):
        out[sign] = np.stack([h * f @ vv, h * f @ vv**2, 0.5 * h * f @ vv**3])
    return out


def dense_macro_step(u_n, u_nm2, fluxes, e_field, dt, sgrid, extra=None, t=0.0):
    (hx,) = sgrid.h
    new = []
    sources = [np.zeros_like(u_n[0]), u_n[0] * e_field, np.zeros_like(u_n[0])]
    if extra is not None:
        s_rho, s_j, s_e = extra(sgrid.nodes(0), t, e_field)
        sources[0] = sources[0] + s_rho
        sources[1] = sources[1] + s_j
        sources[2] = sources[2] + s_e
    for i in range(3):
        fhat = (reconstruct_interface(fluxes["plus"][i], "plus", "periodic")
                + reconstruct_interface(fluxes["minus"][i], "minus", "periodic"))
        div = flux_difference(fhat, hx)
        new.append(0.25 * u_nm2[i] + 0.75 * u_n[i] + 1.5 * dt * (-div + sources[i]))
    return new


def dense_step_1d(f_n, f_nm2, u_n, u_nm2, method, eps, sgrid, vgrid, sign=1.0,
                  dt=1e-3, forcing=None, extra=None, t=0.0):
    """One multistep update of the dense full-grid scheme, all three variants."""
    rho_n = vgrid.h * f_n.sum(axis=1)
    field_n = solve_poisson(rho_n, sgrid, sign)
    (e_n,) = field_n.E
    fstar = 0.25 * f_nm2 + 0.75 * f_n + 1.5 * dt * dense_transport_rhs(
        f_n, e_n, sgrid, vgrid, forcing)
    if method == "plain":
        return dense_truncate(fstar, eps), None
    if method == "conservative":
        carrier = dense_weighted_projection(fstar, vgrid)
        rest = dense_weighted_truncate(fstar - carrier, vgrid.w_points, eps)
        return carrier + rest, None
    fluxes = dense_kfvs_fluxes(f_n, vgrid)
    u_new = dense_macro_step(u_n, u_nm2, fluxes, e_n, dt, sgrid, extra, t)
    field_new = solve_poisson(u_new[0], sgrid, sign)
    kappa = u_new[2] - 0.5 * field_new.E[0] ** 2
    carrier_own = dense_weighted_projection(fstar, vgrid)
    rest = dense_weighted_truncate(fstar - carrier_own, vgrid.w_points, eps)
    carrier = dense_carrier(u_new[0], u_new[1], kappa, vgrid)
    return carrier + rest, u_new


# ---------------------------------------------------------------------------
# dense 4D oracles (2D2V)


def dense_moments_2d(f: np.ndarray, g1: VelocityGrid, g2: VelocityGrid):
    hh = g1.h * g2.h
    rho = hh * f.sum(axis=(2, 3))
    j1 = hh * np.tensordot(f, g1.v, axes=(2, 0)).sum(axis=2)
    j2 = hh * np.tensordot(f.sum(axis=2), g2.v, axes=(2, 0))
    kap = 0.5 * hh * (np.tensordot(f, g1.v**2, axes=(2, 0)).sum(axis=2)
                      + np.tensordot(f.sum(axis=2), g2.v**2, axes=(2, 0)))
    return rho, j1, j2, kap


def dense_functionals(g: VelocityGrid, d: int) -> dict:
    """The velocity weights, on the d-fold grid g x .. x g, of the moments and
    the KFVS split fluxes.

    "moments": rho, J_1 .. J_d, kappa.  "fluxes": per axis, the (plus, minus)
    pair of the (rho, J_1 .. J_d, e) fluxes s (1, v_1 .. v_d, |v|^2 / 2), s
    the sign-split velocity of the axis.
    """
    vs = np.meshgrid(*(g.v,) * d, indexing="ij")
    moments = [np.ones_like(vs[0]), *vs, 0.5 * sum(v**2 for v in vs)]
    fluxes = [[[s * m for m in moments] for s in (np.maximum(v, 0.0), np.minimum(v, 0.0))]
              for v in vs]
    return {"moments": moments, "fluxes": fluxes}


def dense_quadrature(f: np.ndarray, weight: np.ndarray, g: VelocityGrid) -> np.ndarray:
    """h^d sum_j f[..., j] weight[j] over the d velocity axes of f, d = weight.ndim."""
    return g.h**weight.ndim * np.tensordot(f, weight, axes=weight.ndim)


def dense_pair_basis(g: VelocityGrid):
    """The four weighted-orthonormal moment tensors on the velocity pair."""
    w, v, wp = g.w, g.v, g.w_points
    c1 = np.sqrt(np.sum(w))
    c = np.dot(v**2, w) / c1**2
    c2 = np.sqrt(np.dot(v**2, w))
    c3 = np.sqrt(np.dot((v**2 - c) ** 2, w))
    one = np.ones_like(v)
    b1 = np.outer(one, one) / c1**2
    b2 = np.outer(v, one) / (c1 * c2)
    b3 = np.outer(one, v) / (c1 * c2)
    b4 = (np.outer(v**2 - c, one) + np.outer(one, v**2 - c)) / (np.sqrt(2.0) * c1 * c3)
    return [b1, b2, b3, b4], c


def dense_remove_moments_2d(f: np.ndarray, g: VelocityGrid) -> np.ndarray:
    """f - w * P(f / w) on the velocity pair, applied at every spatial node."""
    basis, _ = dense_pair_basis(g)
    ww = np.outer(g.w, g.w)
    wwp = np.outer(g.w_points, g.w_points)
    scaled = f / wwp[None, None, :, :]
    out = f.copy()
    for b in basis:
        coeff = np.tensordot(scaled * ww[None, None, :, :], b, axes=((2, 3), (0, 1)))
        out = out - coeff[:, :, None, None] * (b * wwp)[None, None, :, :]
    return out


def dense_transport_rhs_2d(f: np.ndarray, field: ElectricField, sgrid: SpatialGrid,
                           g1: VelocityGrid, g2: VelocityGrid) -> np.ndarray:
    h1, h2 = sgrid.h
    v1, v2 = g1.v, g2.v
    e1, e2 = field.E
    out = -(upwind_derivative(f, "plus", h1, "periodic", axis=0) * np.maximum(v1, 0)[None, None, :, None]
            + upwind_derivative(f, "minus", h1, "periodic", axis=0) * np.minimum(v1, 0)[None, None, :, None]
            + upwind_derivative(f, "plus", h2, "periodic", axis=1) * np.maximum(v2, 0)[None, None, None, :]
            + upwind_derivative(f, "minus", h2, "periodic", axis=1) * np.minimum(v2, 0)[None, None, None, :]
            + np.maximum(e1, 0)[:, :, None, None] * upwind_derivative(f, "plus", g1.h, "zero", axis=2)
            + np.minimum(e1, 0)[:, :, None, None] * upwind_derivative(f, "minus", g1.h, "zero", axis=2)
            + np.maximum(e2, 0)[:, :, None, None] * upwind_derivative(f, "plus", g2.h, "zero", axis=3)
            + np.minimum(e2, 0)[:, :, None, None] * upwind_derivative(f, "minus", g2.h, "zero", axis=3))
    return out


# ---------------------------------------------------------------------------
# upwind stencil oracle: the ghost-cell formulation, pad and moveaxis


def padded_reconstruct_interface(values, bias: str, boundary: str, axis: int = -1,
                                 magnitude: bool = False):
    """Interface values from four ghost cells per side, summed in stencil order.

    The axis is moved last, padded by wrapping or with zeros, and the five
    shifted slices are added to a zero array that is C-ordered with the axis
    last; the result is that array viewed with the axis back in place.  With
    ``magnitude``, each value is sum_k |c_k| |u_{j+k}| instead, the scale of
    its round-off.
    """
    values = np.moveaxis(np.asarray(values, dtype=float), axis, -1)
    n = values.shape[-1]
    pad = [(0, 0)] * (values.ndim - 1) + [(4, 4)]
    ext = np.pad(values, pad, mode="wrap" if boundary == "periodic" else "constant")
    coeffs = PLUS_COEFFS if bias == "plus" else MINUS_COEFFS
    if magnitude:
        ext, coeffs = np.abs(ext), np.abs(coeffs)
    start = 1 if bias == "plus" else 2
    fhat = np.zeros(values.shape[:-1] + (n + 1,))
    for k, c in enumerate(coeffs):
        fhat += c * ext[..., start + k : start + k + n + 1]
    return np.moveaxis(fhat, -1, axis)


def padded_upwind_derivative(u, bias: str, h: float, boundary: str, axis: int = -1):
    fhat = np.moveaxis(padded_reconstruct_interface(u, bias, boundary, axis), axis, -1)
    return np.moveaxis((fhat[..., 1:] - fhat[..., :-1]) / h, -1, axis)


# ---------------------------------------------------------------------------
# linear Landau damping oracle

def landau_field_root(k: float, guess: complex = 1.4 - 0.15j) -> complex:
    """Least-damped root of 1 + (1 + zeta Z(zeta)) / k^2 = 0, zeta = w/(k sqrt(2)).

    Newton iteration on the plasma dispersion function Z = i sqrt(pi) wofz.
    """
    omega = complex(guess)
    for _ in range(60):
        d = 1e-7 * (1.0 + abs(omega))
        deriv = (_landau_dielectric(omega + d, k) - _landau_dielectric(omega - d, k)) / (2.0 * d)
        step = _landau_dielectric(omega, k) / deriv
        omega -= step
        if abs(step) < 1e-13:
            break
    return omega


def _landau_dielectric(omega: complex, k: float) -> complex:
    zeta = omega / (k * np.sqrt(2.0))
    return 1.0 + (1.0 + zeta * 1j * np.sqrt(np.pi) * wofz(zeta)) / k**2


def landau_energy_decay_rate(k: float) -> float:
    """Decay rate of the electric ENERGY (twice the field amplitude rate)."""
    return 2.0 * landau_field_root(k).imag


def landau_peak_energy_ratio(k: float) -> float:
    """Peak field energy of the least-damped mode pair over the initial field
    energy, at t = 0 of its envelope, for a density perturbation
    alpha cos(k x) of a unit Maxwellian: (2 |c_1| / alpha)^2.

    c_1 = -alpha Z(zeta_1) / (k sqrt(2) eps'(omega_1)) is the residue of the
    density response i alpha int f_M / (omega - k v) dv / eps(omega) at the
    root omega_1 (``landau_field_root``), and the pair omega_1, -conj(omega_1)
    gives the amplitude 2 |c_1| e^{Im(omega_1) t}; the field is the density
    over k, so the energy ratio is the squared density ratio.
    """
    omega = landau_field_root(k)
    zeta = omega / (k * np.sqrt(2.0))
    d = 1e-6 * (1.0 + abs(omega))
    deriv = (_landau_dielectric(omega + d, k) - _landau_dielectric(omega - d, k)) / (2.0 * d)
    c1 = -1j * np.sqrt(np.pi) * wofz(zeta) / (k * np.sqrt(2.0) * deriv)
    return float((2.0 * abs(c1)) ** 2)

