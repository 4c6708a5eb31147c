"""Exception types shared across the package, and the rules for arrays, counts and reals."""

import numbers

import numpy as np

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


def _as_columns(a, ndim: int, error: str) -> np.ndarray:
    """``a`` as ``ndim``-D floats; one dimension short, it gains a trailing
    axis (one voxel, or one design column). Any other dimension count is a
    :class:`DomainError` with ``error``, its ``{shape}`` filled in."""
    a = np.asarray(a, dtype=float)
    if a.ndim == ndim - 1:
        a = a[..., None]
    if a.ndim != ndim:
        raise DomainError(error.format(shape=a.shape))
    return a


def _integral(value) -> int | None:
    """``value`` as an int if it is integral and not a Python or numpy bool, else None."""
    if isinstance(value, (bool, np.bool_)):
        return None
    try:
        count = int(value)
    except (OverflowError, TypeError, ValueError):  # inf, None, nan
        return None
    return count if count == value else None


def _is_real(value) -> bool:
    """Whether ``value`` is a real number, not a bool, that is a finite double."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return bool(np.isfinite(float(value)))
    except OverflowError:  # an integer beyond the double range
        return False
