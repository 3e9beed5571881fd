"""Exception types shared across the package, and the one rule for parameter values."""

import sys
from numbers import Integral, Real

# Closed float ranges (low, high, wording) for ``check_value``; NaN lies in none.
POSITIVE = (5e-324, float("inf"), "must be strictly positive")
NONNEGATIVE = (0.0, sys.float_info.max, "must be finite and nonnegative")
FINITE = (-sys.float_info.max, sys.float_info.max, "must be finite")


class PlcVlcError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(PlcVlcError, ValueError):
    """A parameter or argument violates its documented domain."""


class ConfigError(PlcVlcError, ValueError):
    """A configuration file could not be parsed or validated."""


def is_real(value) -> bool:
    """A ``numbers.Real``, not a bool, that ``float()`` holds without overflow."""
    if isinstance(value, bool) or not isinstance(value, Real):
        return False
    try:
        float(value)
    except OverflowError:  # an int or Fraction beyond the largest float
        return False
    return True


def is_integer(value) -> bool:
    """A ``numbers.Integral``, such as an int or a NumPy integer, that is not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def check_value(name: str, value, bounds: tuple) -> None:
    """Refuse ``value``, naming it ``name``, unless it is real and inside ``bounds``."""
    low, high, wording = bounds
    if not ((type(value) is float or is_real(value)) and low <= value <= high):
        raise ParameterError(f"{name} {wording}, got {value!r}")


def check_fields(params, bounds: tuple, names: tuple) -> None:
    """``check_value`` on each named field of ``params``, naming it ``Class.field``."""
    low, high = bounds[0], bounds[1]
    for name in names:
        value = getattr(params, name)
        # A float inside the bounds passes here: a call per field costs more than the test.
        if type(value) is not float or not low <= value <= high:
            check_value(f"{type(params).__name__}.{name}", value, bounds)
