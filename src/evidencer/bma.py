"""Cross-validated Bayesian model averaging of first-level parameter
estimates.

Posterior model probabilities come from log evidences through a mean-shift:
subtracting each voxel's mean evidence before exponentiating leaves the
normalized probabilities unchanged (only evidence differences matter) while
keeping the exponentials representable for spreads of order a thousand
log-units. The full probability matrix is formed once and multiplied
against the estimate matrix; no per-voxel loop.

Averaging comes in two orders: session-wide (average estimates across
sessions first, then weight by whole-run probabilities) and session-wise
(weight per session by that fold's probabilities, then average). Both are
exposed; the session-wide path is the default analysis product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["BetaStack", "PosteriorProbs", "posterior_probabilities", "cv_bma", "oos_bma"]


@dataclass(frozen=True)
class BetaStack:
    """Point estimates for one named regressor: (models x sessions x voxels)."""

    beta: np.ndarray
    regressor_name: str = "effect"

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float)
        if beta.ndim == 2:
            beta = beta[:, :, None]
        if beta.ndim != 3:
            raise DomainError("beta must be (models, sessions, voxels)")
        if not np.all(np.isfinite(beta)):
            raise DomainError("parameter estimates must be finite")
        object.__setattr__(self, "beta", beta)

    @property
    def n_models(self) -> int:
        return self.beta.shape[0]

    @property
    def n_sessions(self) -> int:
        return self.beta.shape[1]

    @property
    def n_voxels(self) -> int:
        return self.beta.shape[2]


@dataclass(frozen=True)
class PosteriorProbs:
    """Per-voxel posterior model probabilities (models x voxels)."""

    pp: np.ndarray

    def __post_init__(self):
        pp = np.atleast_2d(np.asarray(self.pp, dtype=float))
        if np.any(pp < 0):
            raise DomainError("posterior probabilities must be non-negative")
        if np.max(np.abs(pp.sum(axis=0) - 1.0)) > 1e-10:
            raise DomainError("posterior probabilities must sum to 1 per voxel")
        object.__setattr__(self, "pp", pp)

    @property
    def n_models(self) -> int:
        return self.pp.shape[0]

    @property
    def n_voxels(self) -> int:
        return self.pp.shape[1]


def _prior_weights(weights, n: int, what: str) -> np.ndarray:
    """A prior over ``n`` models as a float vector: uniform for ``None``,
    otherwise ``n`` finite, non-negative entries summing to 1 within 1e-12.
    Anything else raises :class:`DomainError` naming ``what``."""
    if weights is None:
        return np.full(n, 1.0 / n)
    try:
        w = np.asarray(weights, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"{what} weights must be numbers, got {weights!r}") from None
    if w.shape != (n,):
        raise DomainError(f"{what} needs {n} weights, got {w.size}")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise DomainError(f"{what} weights must be finite and >= 0")
    if abs(float(w.sum()) - 1.0) > 1e-12:
        raise DomainError(f"{what} weights must sum to 1 within 1e-12")
    return w


def posterior_probabilities(lme: np.ndarray, prior=None) -> PosteriorProbs:
    """Underflow-safe posterior model probabilities from log evidences.

    ``lme`` is (models x voxels); ``prior`` defaults to uniform. The
    voxel-wise mean evidence is subtracted before exponentiation, then each
    column is weighted by the prior and normalized.
    """
    lme = np.atleast_2d(np.asarray(lme, dtype=float))
    m = lme.shape[0]
    if not np.all(np.isfinite(lme)):
        raise DomainError("log model evidences must be finite")
    prior = _prior_weights(prior, m, "model prior")

    shifted = lme - lme.mean(axis=0, keepdims=True)
    # zero-prior models are masked before exponentiation so that an excluded
    # model far above the rest cannot overflow into the weighting
    mask = prior[:, None] > 0
    with np.errstate(over="raise", under="ignore"):
        try:
            weighted = np.where(
                mask, np.exp(np.where(mask, shifted, -np.inf)), 0.0
            ) * prior[:, None]
        except FloatingPointError:
            raise DomainError(
                "evidence spread exceeds the safe range of the mean-shift "
                "(about 1400 log-units); probabilities would overflow"
            ) from None
    total = weighted.sum(axis=0, keepdims=True)
    if np.any(total == 0):
        raise DomainError(
            "a voxel has zero total model mass after prior masking; no "
            "posterior probabilities exist there"
        )
    return PosteriorProbs(pp=weighted / total)


def _check_axes(betas: BetaStack, probs: PosteriorProbs) -> None:
    if betas.n_models != probs.n_models:
        raise DomainError(
            f"estimate stack has {betas.n_models} models, probabilities "
            f"have {probs.n_models}"
        )
    if betas.n_voxels != probs.n_voxels:
        raise DomainError(
            f"estimate stack has {betas.n_voxels} voxels, probabilities "
            f"have {probs.n_voxels}"
        )


def cv_bma(betas: BetaStack, probs: PosteriorProbs) -> np.ndarray:
    """Session-wide averaged estimate per voxel.

    Estimates are averaged across sessions first, then combined across
    models with whole-run posterior probabilities. With a single session
    this is plain model averaging of the per-session estimates.
    """
    _check_axes(betas, probs)
    session_mean = betas.beta.mean(axis=1)
    return np.einsum("mv,mv->v", session_mean, probs.pp)


def oos_bma(betas: BetaStack, per_session_probs) -> np.ndarray:
    """Session-wise averaged estimate per voxel.

    Each session's estimates are combined with that session's own
    posterior probabilities, and the combinations are averaged. Provided
    for comparison against :func:`cv_bma`; with identical probabilities in
    every session the two coincide.
    """
    probs = list(per_session_probs)
    if len(probs) != betas.n_sessions:
        raise DomainError(
            f"need one probability set per session: {betas.n_sessions} "
            f"sessions, {len(probs)} sets"
        )
    out = np.zeros(betas.n_voxels)
    for j, pp in enumerate(probs):
        _check_axes(betas, pp)
        out += np.einsum("mv,mv->v", betas.beta[:, j, :], pp.pp)
    return out / betas.n_sessions
