"""Exception types shared across the package."""

__all__ = [
    "DomainError", "EstimationError", "TailMassError", "FeasibilityError", "BadLossError",
    "ConfigError", "WeightsFileError", "WeightsFormatError", "WeightsDimensionError",
]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class EstimationError(RuntimeError):
    """An estimation run could not produce a meaningful result.

    Each subclass that ``estimate`` raises names, as ``status``, the tag of
    the replication row it fails.
    """


class TailMassError(EstimationError):
    """The sampled weighted tail mass is too small for the requested level."""

    status = "tail-mass"


class FeasibilityError(EstimationError):
    """The requested estimation is infeasible at the given sample size."""

    status = "infeasible"


class BadLossError(EstimationError):
    """The loss raised, or returned values that are not finite numbers."""

    status = "bad-loss"


class ConfigError(ValueError):
    """A run configuration failed to parse or validate.

    ``field`` names the offending entry when one can be identified.
    """

    def __init__(self, message, field=None):
        self.field = field
        if field is not None:
            message = f"config field '{field}': {message}"
        super().__init__(message)


class WeightsFileError(ValueError):
    """A network weights file could not be used."""


class WeightsFormatError(WeightsFileError):
    """The weights file exists but its content is malformed."""


class WeightsDimensionError(WeightsFileError):
    """The weights file parses but its array shapes are inconsistent."""
