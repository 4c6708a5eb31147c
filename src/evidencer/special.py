"""Numerically robust special functions and Gamma-weighted quadrature.

Everything downstream (evidences, family aggregation, exceedance
probabilities) reduces to a handful of primitives collected here: the log
gamma function, the digamma function, regularized incomplete gamma and beta
integrals, a max-shifted log-sum-exp, and composite Gauss-Legendre rules
tuned for integrals of smooth functions against Gamma densities on
``[0, inf)``, built for many shapes at once as congruent rows of one
array (:func:`gamma_quadrature_grid`, the only rule builder).

The scalar special functions are evaluated through scipy's cephes-backed
ufuncs (13+ significant digits over the ranges used here); this module owns
argument validation, error semantics, and the quadrature construction.
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
    "gamma_quadrature_grid",
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


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def gamma_quadrature_grid(
    shapes, rel_tail: float = 1e-12, panels: int = 32
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rules for many Gamma(shape, 1) densities.

    Row ``i`` of the returned ``(nodes, weights)`` arrays is the rule for
    ``shapes[i]``. The domain is ``[0, Q]`` where ``Q`` is the
    Gamma(shape, 1) quantile at ``1 - rel_tail``, so the truncated tail
    carries at most ``rel_tail`` probability mass. Panel boundaries merge
    three ladders: equal probability mass (resolves the density's
    concentration), equal width (bounds the polynomial degree any single
    panel must absorb in the stretched tail), and a geometric refinement
    toward zero (the density is not analytic at the origin for non-integer
    shape, and is singular there for shape < 1). Each panel carries a
    16-point Gauss-Legendre rule.

    ``panels`` sets the equal-mass and equal-width ladder sizes, so every
    row has ``16 * (2 * panels + 31)`` nodes. Boundaries are sorted, not
    deduplicated, to keep the rows congruent: a boundary shared by two
    ladders leaves a zero-width panel whose nodes carry zero weight, and
    may sit at the origin where the density is infinite for shape < 1, so
    integrands are contracted over the positive-weight nodes only.
    """
    shapes = _validated(shapes, "shape", positive=True)
    if shapes.ndim != 1:
        raise DomainError("shapes must be a 1-D array")
    if not (0.0 < rel_tail < 1e-6):
        raise DomainError(f"rel_tail must lie in (0, 1e-6), got {rel_tail!r}")
    if panels < 1:
        raise DomainError("panels must be >= 1")

    mass = 1.0 - rel_tail
    # the far-tail quantile via the complementary inverse: rel_tail is
    # representable where 1 - rel_tail is not
    upper = _sp.gammainccinv(shapes, rel_tail)[:, None]
    mass_grid = _sp.gammaincinv(shapes[:, None], mass * np.arange(1, panels) / panels)
    width_grid = upper * np.arange(1, panels) / panels
    inner = np.minimum(mass_grid[:, :1], width_grid[:, :1]) if panels > 1 else upper
    origin_grid = inner * 4.0 ** (-np.arange(1, 33, dtype=float))
    boundaries = np.sort(
        np.concatenate(
            [np.zeros_like(upper), origin_grid, mass_grid, width_grid, upper], axis=1
        ),
        axis=1,
    )

    half = 0.5 * np.diff(boundaries, axis=1)
    mid = 0.5 * (boundaries[:, :-1] + boundaries[:, 1:])
    nodes = (mid[:, :, None] + half[:, :, None] * _GL_NODES).reshape(shapes.size, -1)
    weights = (half[:, :, None] * _GL_WEIGHTS).reshape(shapes.size, -1)
    return nodes, weights

