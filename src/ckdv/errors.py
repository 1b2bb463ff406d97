"""Exception types shared across the package, and the positivity check."""

import math


class CkdvError(Exception):
    """Base class for all solver errors."""


class BlowUpError(CkdvError):
    """The discrete solution left the stable regime.

    Raised when a time layer contains non-finite entries or its max-norm
    exceeds ``stepper.BLOWUP_FACTOR`` times the initial max-norm. ``step``
    is the 1-based index of the step being computed when the blow-up was
    detected, and ``time`` the time that step reaches.
    """

    def __init__(self, message: str, step: int, time: float):
        super().__init__(message)
        self.step = step
        self.time = time


class ConfigError(CkdvError, ValueError):
    """Invalid run configuration; ``field`` names the offending key."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def require_positive(name: str, value: float) -> None:
    """Raise :class:`ConfigError` naming ``name`` unless ``value`` is finite and positive."""
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}", field=name)
    if value <= 0:
        raise ConfigError(f"{name} must be positive, got {value}", field=name)
