"""Shared error types.

Bad input of any kind, a scenario key, a law's parameters, a grid, boundary
data or a density outside a tabulated law, raises ``ConfigError`` from
where it is found; no layer translates another's error.  A numerical
failure of a valid run raises one of the three ``RuntimeError`` types.
"""


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration or input data."""


class StabilityError(RuntimeError):
    """A time-step stability precondition is violated."""


class ConditioningError(RuntimeError):
    """A linear system is too ill-conditioned to solve reliably."""


class FixedPointError(RuntimeError):
    """The coupling iteration failed to converge."""

    def __init__(self, message, last_increment=None):
        super().__init__(message)
        self.last_increment = last_increment
