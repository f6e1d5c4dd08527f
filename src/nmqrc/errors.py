"""Exception types shared across the package, and the integer and real
number checks that raise them."""

import math
from numbers import Integral, Real


class ConfigError(ValueError):
    """An experiment configuration was rejected before any run started."""


class NumericalError(RuntimeError):
    """A numerical failure occurred while a run was in progress."""


class DivergenceError(NumericalError):
    """A recurrence left its guard interval (bad constants or input range)."""


def check_int(name: str, value, error: type[Exception] = ConfigError) -> int:
    """``value`` as an int. A bool or a non-integer (2.5, 2.0, "2") raises
    ``error`` rather than being truncated; numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_real(name: str, value, error: type[Exception] = ConfigError) -> float:
    """``value`` as a float. A bool, a value that is not a real number
    ("1", 1j, None) or one that is not finite raises ``error``; numpy
    scalars pass."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int too large for a float
        number = math.inf
    if not math.isfinite(number):
        raise error(f"{name} must be finite, got {value!r}")
    return number
