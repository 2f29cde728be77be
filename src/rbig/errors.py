"""Exception and warning types shared across the package."""

__all__ = [
    "RbigError",
    "NonFiniteInput",
    "DegenerateDimension",
    "DimensionMismatch",
    "PairedLengthMismatch",
    "PatchLargerThanCube",
    "InfeasibleBudget",
    "SeriesTooShort",
    "NotConvergedWarning",
    "RankDeficientWarning",
]


class RbigError(Exception):
    """Base class for all rbig errors."""


class NonFiniteInput(RbigError):
    """Input contains NaN or infinite values."""


class DegenerateDimension(RbigError):
    """A data dimension has zero range (constant column)."""


class DimensionMismatch(RbigError):
    """Data dimensionality does not match the transform."""


class PairedLengthMismatch(RbigError):
    """Paired datasets have different numbers of rows."""


class PatchLargerThanCube(RbigError):
    """Requested patch does not fit inside the data cube."""


class InfeasibleBudget(RbigError):
    """No patch configuration satisfies the dimensionality budget."""


class SeriesTooShort(RbigError):
    """Time series has too few steps for the requested lag embedding."""


class NotConvergedWarning(UserWarning):
    """Fit stopped at the layer cap before meeting the tolerance."""


class RankDeficientWarning(UserWarning):
    """Sample covariance is numerically rank deficient."""
