"""Exception types shared across the package, and the one integer rule."""

import numbers


class SwitchDiffError(Exception):
    """Base class for all package errors."""


class ConfigError(SwitchDiffError, ValueError):
    """A configuration or input is inconsistent or cannot be satisfied."""


def checked_int(value, name, floor):
    """The integer rule: value as an int if integral (2.0 too) and >= floor, else ConfigError."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if integral and value >= floor:
        return int(value)
    raise ConfigError(f"{name} must be an integer >= {floor}, got {value!r}")


class TailUnresolvable(SwitchDiffError):
    """A regime-row series could not be certified within budget.

    `definitive` distinguishes "this tail can never be certified for the
    requested parameters" from "not certified yet at this truncation".
    """

    def __init__(self, message, definitive=True):
        super().__init__(message)
        self.definitive = definitive


class TruncationLeak(SwitchDiffError):
    """Simulated regime mass above the oracle truncation exceeded tolerance."""
