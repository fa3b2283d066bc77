"""Exception types shared across the package."""


class SwitchDiffError(Exception):
    """Base class for all package errors."""


class ConfigError(SwitchDiffError, ValueError):
    """A configuration or input is inconsistent or cannot be satisfied."""


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
