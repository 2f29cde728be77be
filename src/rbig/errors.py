"""Exception and warning types shared across the package, and the two rules
every parameter check uses.

Every size, count, seed and bin count follows the integer rule
(:func:`_integer`): an int or numpy integer, never a bool, from the
parameter's least value to 2**63 - 1.  Every real parameter follows the
number rule (:func:`_finite`): a finite int, float or numpy number, never a
bool.  Each refuses a bad value with a one-line ``ValueError`` whose message
starts with the parameter's name.  :func:`_exact_keys` checks a JSON
document's keys.
"""

import math
import numbers
import reprlib

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


def _integer(name: str, value, least: int) -> int:
    """``value`` as an ``int`` if it is an integer (numpy's too, never a
    bool) from ``least`` to ``2**63 - 1``, else a one-line ``ValueError``
    whose message starts with ``name``."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {reprlib.repr(value)}")
    if value >= 2**63:  # beyond numpy's int64
        raise ValueError(f"{name} must be an integer < 2**63, got {reprlib.repr(value)}")
    return int(value)


def _finite(name: str, value) -> float:
    """``value`` as a ``float`` if it is a finite real number (numpy's too,
    never a bool, nor an int beyond the float range), else a one-line
    ``ValueError`` whose message starts with ``name``."""
    try:
        ok = (isinstance(value, numbers.Real) and not isinstance(value, bool)
              and math.isfinite(value))
    except OverflowError:  # an int beyond the float range
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a finite number, got {reprlib.repr(value)}")
    return float(value)


def _exact_keys(doc, names, kind: str) -> None:
    """Require a dict holding exactly the keys ``names``, else a one-line
    ``ValueError`` calling it a ``kind``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{kind} must be a JSON object, got {reprlib.repr(doc)}")
    for name in names:
        if name not in doc:
            raise ValueError(f"{kind} field {name} is missing")
    for key in doc:
        if key not in names:
            raise ValueError(f"{key} is not a {kind} field")
