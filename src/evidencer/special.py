"""Numerically robust special functions.

Everything downstream (evidences, family aggregation, exceedance
probabilities) reduces to a handful of primitives collected here: the log
gamma function, the digamma function, regularized incomplete gamma and beta
integrals, the Gamma tail quantiles that bound an integration domain, and a
max-shifted log-sum-exp.

The scalar special functions are evaluated through scipy's cephes-backed
ufuncs (13+ significant digits over the ranges used here); this module owns
argument validation and error semantics.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

from .errors import DomainError

__all__ = [
    "log_gamma",
    "digamma",
    "reg_lower_incomplete_gamma",
    "reg_incomplete_beta",
    "log_sum_exp",
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


def _scalar_or_array(result: np.ndarray, *inputs) -> np.ndarray | float:
    if all(np.isscalar(v) or np.ndim(v) == 0 for v in inputs):
        return float(result)
    return result


def log_gamma(x) -> np.ndarray | float:
    """Natural log of the gamma function, ``ln G(x)`` for ``x > 0``.

    Accepts scalars or arrays; raises :class:`DomainError` on non-positive
    or non-finite input.
    """
    arr = _validated(x, "x", positive=True)
    return _scalar_or_array(_sp.gammaln(arr), x)


def digamma(x) -> np.ndarray | float:
    """Digamma function ``psi(x) = d/dx ln G(x)`` for ``x > 0``."""
    arr = _validated(x, "x", positive=True)
    return _scalar_or_array(_sp.psi(arr), x)


def reg_lower_incomplete_gamma(a, x) -> np.ndarray | float:
    """Regularized lower incomplete gamma ``P(a, x)`` in ``[0, 1]``.

    Equals the CDF of a Gamma(a, 1) variate at ``x``; monotone
    nondecreasing in ``x``.
    """
    a_arr = _validated(a, "a", positive=True)
    x_arr = _validated(x, "x", nonneg=True)
    return _scalar_or_array(_sp.gammainc(a_arr, x_arr), a, x)


def reg_incomplete_beta(x, a, b) -> np.ndarray | float:
    """Regularized incomplete beta ``I_x(a, b)``, the Beta(a, b) CDF at x."""
    a_arr = _validated(a, "a", positive=True)
    b_arr = _validated(b, "b", positive=True)
    x_arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x_arr)):
        raise DomainError(f"x must be finite, got {x!r}")
    if np.any(x_arr < 0) or np.any(x_arr > 1):
        raise DomainError(f"x must lie in [0, 1], got {x!r}")
    return _scalar_or_array(_sp.betainc(a_arr, b_arr, x_arr), x, a, b)


def log_sum_exp(values, axis: int | None = None) -> np.ndarray | float:
    """Max-shifted ``log(sum(exp(values)))``.

    Only differences from the running maximum are exponentiated, so the
    result never overflows for finite input and entries far below the
    maximum underflow harmlessly to zero contribution. ``-inf`` entries are
    permitted and behave as zero-probability terms.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise DomainError("log_sum_exp of an empty collection is undefined")
    flat = axis is None
    if flat:
        arr = arr.ravel()
        axis = 0
    if arr.shape[axis] == 0:
        raise DomainError("log_sum_exp along an empty axis is undefined")
    if np.any(np.isnan(arr)) or np.any(arr == np.inf):
        raise DomainError("log_sum_exp requires entries in [-inf, inf)")
    shift = np.max(arr, axis=axis, keepdims=True)
    # all -inf along the axis: the sum is exactly zero, result -inf
    degenerate = ~np.isfinite(shift)
    safe_shift = np.where(degenerate, 0.0, shift)
    with np.errstate(divide="ignore"):
        out = safe_shift.squeeze(axis) + np.log(
            np.sum(np.exp(arr - safe_shift), axis=axis)
        )
    out = np.where(degenerate.squeeze(axis), -np.inf, out)
    if flat:
        return float(out)
    return out


def gamma_tail_quantiles(shape, tail: float) -> tuple[np.ndarray, np.ndarray]:
    """The Gamma(shape, 1) quantiles at ``tail`` and at ``1 - tail``.

    The upper quantile comes from the complementary inverse, since ``tail``
    is representable where ``1 - tail`` is not. The lower quantile
    underflows to 0 for small shapes.
    """
    shape = _validated(shape, "shape", positive=True)
    if not (0.0 < tail < 0.5):
        raise DomainError(f"tail must lie in (0, 0.5), got {tail!r}")
    return _sp.gammaincinv(shape, tail), _sp.gammainccinv(shape, tail)
