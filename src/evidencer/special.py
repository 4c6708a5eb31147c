"""Numerically robust special functions.

Evidences and exceedance probabilities reduce to a handful of primitives
collected here: the log gamma function, the digamma function, the
regularized lower incomplete gamma integral (the Gamma CDF), and the Gamma
tail quantiles that bound an integration domain.

A scalar argument of :func:`log_gamma` or :func:`digamma` (a Python number,
a numpy scalar or a 0-d array) is evaluated by the standard library:
``math.lgamma`` and a short digamma series. Array arguments, and every
argument of the other functions, go through scipy's ufuncs, and
``scipy.special`` is imported on the first such call. The first-level
stages need ln G and psi only at the Gamma shapes, which are scalars, so
they never pay for that import (about 0.35 s). This module owns argument
validation and error semantics.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "log_gamma",
    "digamma",
    "reg_lower_incomplete_gamma",
]


def _validated(x, name: str, *, positive: bool = False, nonneg: bool = False):
    """Convert to float array, enforcing finiteness and sign constraints."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite, got {x!r}")
    if positive and not np.all(arr > 0):
        raise DomainError(f"{name} must be strictly positive, got {x!r}")
    if nonneg and not np.all(arr >= 0):
        raise DomainError(f"{name} must be non-negative, got {x!r}")
    return arr


def log_gamma(x) -> np.ndarray | float:
    """Natural log of the gamma function, ``ln G(x)`` for ``x > 0``.

    Accepts scalars or arrays; raises :class:`DomainError` on non-positive
    or non-finite input.
    """
    arr = _validated(x, "x", positive=True)
    if arr.ndim == 0:
        return math.lgamma(float(arr))
    from scipy import special

    return special.gammaln(arr)


def digamma(x) -> np.ndarray | float:
    """Digamma function ``psi(x) = d/dx ln G(x)`` for ``x > 0``."""
    arr = _validated(x, "x", positive=True)
    if arr.ndim == 0:
        return _scalar_digamma(float(arr))
    from scipy import special

    return special.psi(arr)


# B_2k / 2k for k = 1..6: psi(x) ~ ln x - 1/(2x) - sum_k B_2k / (2k x^2k)
_PSI_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760)


def _scalar_digamma(x: float) -> float:
    """psi(x) for a finite x > 0: the recurrence psi(x) = psi(x + 1) - 1/x
    up to x >= 16, then the asymptotic series through x**-12, whose next
    term is below 2e-18 there."""
    shift = 0.0
    while x < 16.0:
        shift += 1.0 / x
        x += 1.0
    r = 1.0 / (x * x)
    series = 0.0
    for c in reversed(_PSI_SERIES):
        series = r * (c + series)
    return math.log(x) - 0.5 / x - series - shift


def reg_lower_incomplete_gamma(a, x) -> np.ndarray | float:
    """Regularized lower incomplete gamma ``P(a, x)`` in ``[0, 1]``.

    Equals the CDF of a Gamma(a, 1) variate at ``x``; monotone
    nondecreasing in ``x``.
    """
    a_arr = _validated(a, "a", positive=True)
    x_arr = _validated(x, "x", nonneg=True)
    from scipy import special

    result = special.gammainc(a_arr, x_arr)
    return float(result) if a_arr.ndim == x_arr.ndim == 0 else result


def gamma_tail_quantiles(shape, tail: float) -> tuple[np.ndarray, np.ndarray]:
    """The Gamma(shape, 1) quantiles at ``tail`` and at ``1 - tail``.

    The upper quantile comes from the complementary inverse, since ``tail``
    is representable where ``1 - tail`` is not. The lower quantile
    underflows to 0 for small shapes.
    """
    shape = _validated(shape, "shape", positive=True)
    if not (0.0 < tail < 0.5):
        raise DomainError(f"tail must lie in (0, 0.5), got {tail!r}")
    from scipy import special

    return special.gammaincinv(shape, tail), special.gammainccinv(shape, tail)
