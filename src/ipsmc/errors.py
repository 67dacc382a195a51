"""Shared exception types."""


class StepSizeError(ValueError):
    """Euler step too coarse: per-coordinate stay probability would go negative."""


class StateSpaceTooLargeError(ValueError):
    """Dense oracle guard tripped (the V**d-state generator would not fit)."""


class InconsistentObservationsError(ValueError):
    """Observations have zero probability under the model."""


class CollapseError(RuntimeError):
    """All particle weights are -inf."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class ConfigError(ValueError):
    """Malformed run configuration."""
