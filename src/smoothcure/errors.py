"""Exception hierarchy shared across the package."""


class CureModelError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(CureModelError):
    """A CSV schema is inconsistent or names columns missing from the file."""


class ParseError(CureModelError):
    """A CSV cell or an input array failed validation; for a CSV cell the
    message names the offending data row."""


class DegenerateCovariateError(CureModelError):
    """A continuous covariate has zero sample variance."""


class EmptyNeighborhoodError(CureModelError):
    """All kernel weights vanish at the requested covariate point."""


class ConfigurationError(CureModelError):
    """Invalid option combination (unknown scenario, empty grid, ...)."""


class SingularHessianError(CureModelError):
    """A design matrix is rank deficient, or a Newton system is singular."""


class NumericalError(CureModelError):
    """A denominator vanished or an objective became undefined mid-algorithm."""


class InferenceError(CureModelError):
    """No bootstrap resample produced a usable refit."""
