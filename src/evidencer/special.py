"""Numerically robust special functions.

Evidences and exceedance probabilities reduce to the log gamma and digamma
functions, the regularized lower incomplete gamma integral (the Gamma CDF)
and the Gamma tail quantiles that bound an integration domain.

A scalar argument of :func:`log_gamma` or :func:`digamma` (a Python number,
a numpy scalar or a 0-d array) is evaluated by the standard library:
``math.lgamma`` and a short digamma series. It must be finite and positive,
else :class:`DomainError` (the series would never end at ``-inf``). Arrays,
and every argument of the other functions, go unchecked to scipy's ufuncs:
the library checks its arguments where they enter it. ``scipy.special`` is
imported on the first such call. The first-level stages need ln G and psi
only at the Gamma shapes, which are scalars, so they never pay for that
import (about 0.35 s). Nothing here is public.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__: list = []


def _scalar(x) -> float:
    """A scalar argument as a float, which must be finite and positive."""
    value = float(x)
    if not 0.0 < value < math.inf:
        raise DomainError(f"x must be finite and strictly positive, got {x!r}")
    return value


def log_gamma(x) -> np.ndarray | float:
    """Natural log of the gamma function, ``ln G(x)`` for ``x > 0``."""
    if np.ndim(x):
        from scipy import special

        return special.gammaln(x)
    return math.lgamma(_scalar(x))


def digamma(x) -> np.ndarray | float:
    """Digamma function ``psi(x) = d/dx ln G(x)`` for ``x > 0``."""
    if np.ndim(x):
        from scipy import special

        return special.psi(x)
    return _scalar_digamma(_scalar(x))


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
    """Regularized lower incomplete gamma ``P(a, x)`` in ``[0, 1]`` for
    ``a > 0`` and ``x >= 0``.

    Equals the CDF of a Gamma(a, 1) variate at ``x``; monotone
    nondecreasing in ``x``.
    """
    from scipy import special

    return special.gammainc(a, x)


def gamma_tail_quantiles(shape, tail: float) -> tuple[np.ndarray, np.ndarray]:
    """The Gamma(shape, 1) quantiles at ``tail`` and at ``1 - tail``, for
    ``shape > 0`` and ``tail`` in (0, 0.5).

    The upper quantile comes from the complementary inverse, since ``tail``
    is representable where ``1 - tail`` is not. The lower quantile
    underflows to 0 for small shapes.
    """
    from scipy import special

    return special.gammaincinv(shape, tail), special.gammainccinv(shape, tail)
