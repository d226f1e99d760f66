"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the function."""


class NonPhysicalCovariance(ValueError):
    """Covariance data violates the uncertainty relation beyond tolerance."""


class ConfigError(ValueError):
    """A run configuration is malformed or inconsistent."""


class DimensionMismatch(ValueError):
    """Array shapes or declared dimensions do not line up."""


class EmptySelection(ValueError):
    """A role/selection filter matched no rounds."""


class InsufficientRounds(ValueError):
    """Not enough rounds of the required role to perform the operation."""


class EpsilonTooSmall(ValueError):
    """The failure probability requested is below the validity floor."""


class ValidityRange(ValueError):
    """Inputs violate the stated validity precondition of a bound."""


class RegimeError(ValueError):
    """Parameters are outside the regime where the estimator chain holds."""


class LengthError(ValueError):
    """A bit-string or block length constraint is violated."""


class UnknownAxis(ValueError):
    """Sweep axis name does not correspond to a known parameter."""


class PrecisionLoss(ArithmeticError):
    """A float result is too inexact to round to the integer it stands for."""
