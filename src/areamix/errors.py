"""Exception taxonomy.

Input-side problems subclass ValueError so generic callers can catch them
broadly; numerical failures subclass ArithmeticError.  Everything shares the
AreamixError base, and each class carries the exit code and the stderr label
that the command line reports it with.
"""

_CONFIG = (2, "config error")
_DATA = (3, "data error")
_NUMERICAL = (4, "numerical error")


class AreamixError(Exception):
    """Base class for every error raised by this package."""

    exit_code, label = 1, "error"


class ConfigError(AreamixError, ValueError):
    """A run configuration is missing, malformed, or inconsistent."""

    exit_code, label = _CONFIG


class SchemaError(AreamixError, ValueError):
    """A delimited input file does not have the required structure."""

    exit_code, label = _DATA


class DuplicateKeyError(AreamixError, ValueError):
    """The same key (for example an (area, cell) pair) appears twice."""

    exit_code, label = _DATA


class DomainError(AreamixError, ValueError):
    """A value lies outside its mathematical domain."""

    exit_code, label = _DATA


class ShapeError(AreamixError, ValueError):
    """Array dimensions do not conform."""

    exit_code, label = _DATA


class UnknownAreaError(AreamixError, ValueError):
    """An area identifier is not present in the reference table."""

    exit_code, label = _DATA


class InsufficientDataError(AreamixError, ValueError):
    """Too few usable observations for the requested computation."""

    exit_code, label = _DATA


class RankError(AreamixError, ValueError):
    """A design matrix is rank deficient."""

    exit_code, label = _NUMERICAL


class EmptyBasisError(AreamixError, ValueError):
    """No positive eigenvalues survive, so the requested basis is empty."""

    exit_code, label = _NUMERICAL


class DegenerateChainError(AreamixError, ValueError):
    """A chain has no variability where a diagnostic requires some."""

    exit_code, label = _DATA


class DefinitenessError(AreamixError, ArithmeticError):
    """A matrix that must be positive definite is not."""

    exit_code, label = _NUMERICAL


class DivergenceError(AreamixError, ArithmeticError):
    """A sampler produced a non-finite draw."""

    exit_code, label = _NUMERICAL

    def __init__(self, message: str, iteration: int | None = None):
        if iteration is not None:
            message = f"{message} (iteration {iteration})"
        super().__init__(message)
        self.iteration = iteration
