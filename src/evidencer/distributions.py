"""Normal-gamma hyperparameter algebra and the KL divergences behind the
complexity penalty.

A normal-gamma parameter set ``(mu, lam, a, b)`` describes the joint prior
or posterior of regression coefficients and residual precision: given
precision ``tau``, coefficients are Gaussian with mean ``mu`` and precision
``tau * lam``; ``tau`` itself is Gamma(a, b). The all-zero instance encodes
the non-informative prior (flat coefficients, Jeffreys precision); it is a
legal *input* to the conjugate update but is rejected by every operation
that would need its log-determinant or density.

The family is conjugate: the posterior of a normal-gamma prior under GLM
data is again a normal-gamma set, so :func:`evidencer.glm.posterior_update`
returns an :class:`NgParams` that carries one ``mu`` column and one ``b``
rate per voxel, and that posterior is directly the prior of a further
update (the held-out session of a cross-validation fold).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DecompositionError, DomainError
from .special import digamma, log_gamma

__all__ = ["NgParams", "kl_mvn", "kl_gamma", "gamma_moments"]

_SYM_RTOL = 1e-12


def _check_symmetric(m: np.ndarray, name: str) -> None:
    scale = np.max(np.abs(m)) if m.size else 0.0
    if scale > 0 and np.max(np.abs(m - m.T)) > _SYM_RTOL * scale:
        raise DomainError(f"{name} must be symmetric to {_SYM_RTOL} relative")


def _cholesky(m: np.ndarray, name: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(
            f"{name} is not positive definite: {exc}"
        ) from None


def _chol_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``(L L') x = rhs`` for a lower Cholesky factor ``L`` and a
    ``(p, V)`` right-hand side: forward substitution with ``L``, then back
    substitution with ``L'``, each row step batched over the V columns."""
    x = np.array(rhs, dtype=float)
    for i in range(x.shape[0]):
        x[i] -= chol[i, :i] @ x[:i]
        x[i] /= chol[i, i]
    for i in reversed(range(x.shape[0])):
        x[i] -= chol[i + 1:, i] @ x[i + 1:]
        x[i] /= chol[i, i]
    return x


def _logdet_from_chol(chol: np.ndarray) -> float:
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


@dataclass
class NgParams:
    """Normal-gamma hyperparameters, optionally carrying per-voxel columns.

    ``mu`` is ``(p,)`` or ``(p, V)``; ``lam`` is a shared ``(p, p)``
    symmetric matrix; ``a`` is a shared scalar; ``b`` is scalar or ``(V,)``,
    and a per-voxel ``b`` next to a ``(p, V)`` mean has one entry per
    column. ``_chol`` may carry an already computed Cholesky factor of
    ``lam``.
    """

    mu: np.ndarray
    lam: np.ndarray
    a: float
    b: np.ndarray | float
    _chol: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        self.lam = np.asarray(self.lam, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.b.ndim == 0:
            self.b = float(self.b)
        self.a = float(self.a)
        if self.mu.ndim not in (1, 2):
            raise DomainError("mu must be a vector or a (p, V) matrix")
        p = self.mu.shape[0]
        if self.lam.shape != (p, p):
            raise DomainError(f"lam must be ({p}, {p}), got {self.lam.shape}")
        _check_symmetric(self.lam, "lam")
        if self.mu.ndim == 2 and np.ndim(self.b) and self.b.shape != self.mu.shape[1:]:
            raise DomainError(
                f"b has shape {self.b.shape} but mu has {self.mu.shape[1]} "
                "voxel columns"
            )
        if self.a < 0 or np.any(np.asarray(self.b) < 0):
            raise DomainError("a and b must be non-negative")

    @classmethod
    def noninformative(cls, p: int) -> "NgParams":
        """The flat-coefficient, Jeffreys-precision instance (all zeros)."""
        return cls(mu=np.zeros(p), lam=np.zeros((p, p)), a=0.0, b=0.0)

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    @property
    def n_voxels(self) -> int:
        """Voxel columns carried by ``mu`` or ``b``; 1 when both are shared."""
        return self.mu.shape[1] if self.mu.ndim == 2 else np.size(self.b)

    @property
    def is_noninformative(self) -> bool:
        return (
            self.a == 0.0
            and np.all(np.asarray(self.b) == 0.0)
            and not np.any(self.lam)
            and not np.any(self.mu)
        )

    @property
    def is_proper(self) -> bool:
        """True when lam is positive definite and a, b strictly positive."""
        if self.a <= 0 or np.any(np.asarray(self.b) <= 0):
            return False
        try:
            self.chol_lam()
        except DecompositionError:
            return False
        return True

    def chol_lam(self) -> np.ndarray:
        if self._chol is None:
            self._chol = _cholesky(self.lam, "lam")
        return self._chol

    def logdet_lam(self) -> float:
        return _logdet_from_chol(self.chol_lam())

    def require_proper(self, operation: str) -> None:
        if not self.is_proper:
            raise DomainError(
                f"{operation} requires a proper normal-gamma parameter set; "
                "the non-informative instance is only valid as an update input"
            )


def kl_mvn(mu1, sigma1, mu2, sigma2) -> float:
    """KL divergence between multivariate normals, KL[N(mu1, sigma1) || N(mu2, sigma2)].

    Log-determinants and the inverse of ``sigma2`` go through Cholesky
    factors; a non-positive-definite covariance raises
    :class:`DecompositionError` naming the offending argument.
    """
    mu1 = np.asarray(mu1, dtype=float).ravel()
    mu2 = np.asarray(mu2, dtype=float).ravel()
    sigma1 = np.asarray(sigma1, dtype=float)
    sigma2 = np.asarray(sigma2, dtype=float)
    k = mu1.size
    if mu2.size != k or sigma1.shape != (k, k) or sigma2.shape != (k, k):
        raise DomainError("kl_mvn arguments have inconsistent dimensions")
    _check_symmetric(sigma1, "sigma1")
    _check_symmetric(sigma2, "sigma2")
    chol1 = _cholesky(sigma1, "sigma1")
    chol2 = _cholesky(sigma2, "sigma2")

    diff = mu2 - mu1
    z = np.linalg.solve(chol2, diff)
    maha = float(z @ z)
    w = np.linalg.solve(chol2, chol1)
    trace = float(np.sum(w * w))
    logdet_ratio = _logdet_from_chol(chol1) - _logdet_from_chol(chol2)
    return 0.5 * (maha + trace - logdet_ratio - k)


def kl_gamma(a1, b1, a2, b2) -> float:
    """KL divergence between Gamma distributions in shape/rate form."""
    for name, v in (("a1", a1), ("b1", b1), ("a2", a2), ("b2", b2)):
        if not np.isfinite(v) or v <= 0:
            raise DomainError(f"{name} must be a positive real, got {v!r}")
    return float(
        a2 * np.log(b1 / b2)
        - (log_gamma(a1) - log_gamma(a2))
        + (a1 - a2) * digamma(a1)
        - (b1 - b2) * a1 / b1
    )


def gamma_moments(a, b) -> tuple:
    """Mean and expected log of a Gamma(a, b) variate: (a/b, psi(a) - ln b).

    Accepts scalars or arrays (broadcast together).
    """
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if np.any(~np.isfinite(a_arr)) or np.any(~np.isfinite(b_arr)):
        raise DomainError("gamma_moments requires finite arguments")
    if np.any(a_arr <= 0) or np.any(b_arr <= 0):
        raise DomainError("gamma_moments requires strictly positive arguments")
    mean = a_arr / b_arr
    log_mean = digamma(a_arr) - np.log(b_arr)
    if np.isscalar(a) and np.isscalar(b):
        return float(mean), float(log_mean)
    return mean, log_mean
