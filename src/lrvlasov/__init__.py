"""Moment-conserving low-rank tensor solver for the Vlasov-Poisson system.

The kinetic distribution is evolved in factored form (an SVD-like
decomposition in 1D1V, a hierarchical tensor format in 2D2V) with fifth-order
upwind transport and a second-order multistep integrator.  Macroscopic mass,
momentum and energy densities are co-evolved through a flux-difference scheme
with kinetic flux vector splitting, and the truncated kinetic solution is
projected so its moments match them, which keeps the invariants conserved to
round-off.
"""

from .config import SolverConfig, from_preset, load_config
from .driver import History, Problem, initialize, run, select_dt
from .grids import (GaussianWeight, SpatialGrid, VelocityGrid, make_velocity_grid,
                    plain_inner, spatial_grid_1d, spatial_grid_2d, weighted_inner)
from .htucker import HtTensor
from .lowrank import LowRankMatrix, add, recompress, truncate_sum
from .poisson import ElectricField, field_energy, solve_poisson
from .projection import MomentBasis

__all__ = [
    "ElectricField", "GaussianWeight", "History", "HtTensor", "LowRankMatrix",
    "MomentBasis", "Problem",
    "SolverConfig", "SpatialGrid", "VelocityGrid",
    "add", "field_energy", "from_preset", "initialize", "load_config",
    "make_velocity_grid", "plain_inner", "recompress", "run",
    "select_dt", "solve_poisson", "spatial_grid_1d", "spatial_grid_2d",
    "truncate_sum", "weighted_inner",
]

__version__ = "0.1.0"
