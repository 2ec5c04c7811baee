"""Exception types shared across the solver, all under ``LrvlasovError``."""


class LrvlasovError(Exception):
    """Base of every solver exception; each also keeps its builtin base."""


class GridSizeError(LrvlasovError, ValueError):
    """Grid too small for the five-point interface stencils."""


class DimensionError(LrvlasovError, ValueError):
    """Array shapes incompatible with the grids or with each other."""


class DomainError(LrvlasovError, ValueError):
    """Invalid parameter domain (nonpositive weights, bad tolerances...)."""


class ConfigError(LrvlasovError, ValueError):
    """Malformed or inconsistent configuration input."""


class SnapshotError(LrvlasovError, RuntimeError):
    """Corrupt, truncated or version-incompatible snapshot file."""


class RankOverflowError(LrvlasovError, RuntimeError):
    """Solution rank exceeded the configured cap."""


class NonFiniteError(LrvlasovError, ArithmeticError):
    """The solution became NaN or infinite, a factorization failed on it, or
    its field made the step too small to go on."""
