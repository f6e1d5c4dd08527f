"""Exception types shared across the package, and the integer check that
raises them."""

from numbers import Integral


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
