"""Exception types shared across the package."""

__all__ = [
    "EvidencerError",
    "DomainError",
    "DecompositionError",
    "EstimationError",
    "LayoutError",
    "ParseError",
    "NumericalError",
    "ConfigError",
]


class EvidencerError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(EvidencerError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DecompositionError(EvidencerError):
    """A matrix decomposition failed (non-positive-definite input).

    The message names the offending argument.
    """


class EstimationError(EvidencerError):
    """Model estimation cannot proceed (rank deficiency, degenerate data)."""


class LayoutError(EvidencerError):
    """A session layout request is infeasible."""


class ParseError(EvidencerError, ValueError):
    """A data file could not be parsed; the message carries the line number."""


class NumericalError(EvidencerError):
    """A numerical routine failed to converge to the requested tolerance."""


class ConfigError(EvidencerError, ValueError):
    """An analysis configuration is invalid or inconsistent."""
