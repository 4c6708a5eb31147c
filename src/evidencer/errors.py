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
    """A numerical routine failed to converge to the requested tolerance.

    A failure at one column of a (rows x columns) input carries its 0-based
    index as ``column``; the message names it from 1, as headers do.
    """

    def __init__(self, reason: str, column: int | None = None):
        self.reason, self.column = reason, column
        where = "" if column is None else f" (first at input column {column + 1})"
        super().__init__(reason + where)


class ConfigError(EvidencerError, ValueError):
    """An analysis configuration is invalid or inconsistent."""
