"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the function."""


class NonPhysicalCovariance(ValueError):
    """Covariance data violates the uncertainty relation beyond tolerance."""


class ConfigError(ValueError):
    """A run configuration is malformed or inconsistent."""


class DimensionMismatch(ValueError):
    """Array shapes, bit-string lengths or round counts do not line up."""


class ValidityRange(ValueError):
    """Inputs violate the stated validity precondition of a bound."""


class RegimeError(ValueError):
    """Parameters are outside the regime where the estimator chain holds."""


class PrecisionLoss(ArithmeticError):
    """A float result is too inexact to round to the integer it stands for."""
