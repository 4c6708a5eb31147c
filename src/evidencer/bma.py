"""Posterior model probabilities, log family evidence, and cross-validated
Bayesian model averaging of first-level parameter estimates.

Posterior model probabilities, p(m|y) ~ p(y|m) p(m), and a family's
evidence, the sum over its members of p(m|f) p(y|m), are one
prior-weighted sum ``sum_i w_i exp(lme_i)``, formed per voxel relative to
the largest evidence of non-zero weight. That term is its own weight, so
the sum is never zero and nothing overflows, whatever the spread. The
probability matrix is formed once and multiplied against the estimate
matrix; no per-voxel loop.

Averaging comes in two orders: session-wide (average estimates across
sessions first, then weight by whole-run probabilities) and session-wise
(weight per session by that fold's probabilities, then average). Both are
exposed; the session-wide path is the default analysis product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "BetaStack",
    "PosteriorProbs",
    "FamilyPartition",
    "posterior_probabilities",
    "log_family_evidence",
    "cv_bma",
    "oos_bma",
]


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class PosteriorProbs:
    """Per-voxel posterior model probabilities (models x voxels)."""

    pp: np.ndarray

    def __post_init__(self):
        pp = np.atleast_2d(np.asarray(self.pp, dtype=float))
        if np.any(pp < 0):
            raise DomainError("posterior probabilities must be non-negative")
        if np.max(np.abs(pp.sum(axis=0) - 1.0), initial=0.0) > 1e-10:
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


def _weighted_terms(lme: np.ndarray, w: np.ndarray) -> tuple:
    """``w_i exp(lme_i - top)`` per model and voxel of the (models x voxels)
    ``lme``, and ``top``: each voxel's largest evidence among the models of
    non-zero weight. Rows of zero weight are exactly zero."""
    if not np.all(np.isfinite(lme)):
        raise DomainError("log model evidences must be finite")
    live = w > 0
    top = lme[live].max(axis=0)
    terms = np.zeros_like(lme)
    terms[live] = w[live, None] * np.exp(lme[live] - top)
    return terms, top


def posterior_probabilities(lme: np.ndarray, prior=None) -> PosteriorProbs:
    """Posterior model probabilities from (models x voxels) log evidences
    and a ``prior``, uniform by default: each column's weighted terms over
    their sum. A model of zero prior gets zero, however far it leads."""
    lme = np.atleast_2d(np.asarray(lme, dtype=float))
    terms, _ = _weighted_terms(lme, _prior_weights(prior, lme.shape[0], "model prior"))
    return PosteriorProbs(pp=terms / terms.sum(axis=0))


@dataclass(frozen=True)
class FamilyPartition:
    """Named, disjoint, non-empty model-index sets covering the model space,
    with one within-family prior weight vector per family.

    ``weights`` holds one entry per family, ``None`` for uniform; after
    construction it always holds the vectors. A weight of exactly zero
    excludes that model from its family's evidence; weights must be
    non-negative and sum to one per family.
    """

    n_models: int
    families: tuple
    weights: tuple | None = None

    def __post_init__(self):
        if self.n_models < 1:
            raise DomainError("partition needs a positive model count")
        names = [name for name, _ in self.families]
        if len(set(names)) != len(names):
            raise DomainError("family names must be unique")
        seen = []
        normalized = []
        for name, indices in self.families:
            indices = tuple(indices)
            try:
                idx = tuple(int(i) for i in indices)
            except (OverflowError, ValueError):  # nan, inf
                idx = None
            if idx != indices:
                raise DomainError(f"family {name!r} has non-integral indices {indices!r}")
            if not idx:
                raise DomainError(f"family {name!r} is empty")
            if any(i < 0 or i >= self.n_models for i in idx):
                raise DomainError(f"family {name!r} has out-of-range indices")
            seen.extend(idx)
            normalized.append((str(name), idx))
        if sorted(seen) != list(range(self.n_models)):
            raise DomainError(
                "families must partition the model space: every model in "
                "exactly one family"
            )
        object.__setattr__(self, "families", tuple(normalized))
        weights = (None,) * len(normalized) if self.weights is None else self.weights
        if len(weights) != len(normalized):
            raise DomainError(
                f"partition has {len(normalized)} families but {len(weights)} "
                "weight vectors"
            )
        cleaned = tuple(
            _prior_weights(w, len(idx), f"family {name!r}")
            for (name, idx), w in zip(normalized, weights)
        )
        object.__setattr__(self, "weights", cleaned)

    @property
    def names(self) -> tuple:
        return tuple(name for name, _ in self.families)

    @classmethod
    def from_mapping(cls, n_models, families, weights=None) -> "FamilyPartition":
        """Build from ``{name: indices}`` and optional ``{name: weights}``."""
        fams = tuple((name, tuple(idx)) for name, idx in families.items())
        w = tuple((weights or {}).get(name) for name, _ in fams)
        return cls(n_models=n_models, families=fams, weights=w)


def log_family_evidence(lme: np.ndarray, partition: FamilyPartition) -> np.ndarray:
    """Per-family, per-voxel log evidence from a (models x voxels) matrix:
    the log of the weighted sum of the members' evidences, formed as the
    shift plus the log of the sum of their terms. A member of zero weight
    drops out of its family."""
    lme = np.asarray(lme, dtype=float)
    if lme.ndim == 1:
        lme = lme[:, None]
    if lme.shape[0] != partition.n_models:
        raise DomainError(
            f"evidence matrix has {lme.shape[0]} rows but the partition "
            f"covers {partition.n_models} models"
        )
    out = np.empty((len(partition.families), lme.shape[1]))
    for f, ((_, idx), w) in enumerate(zip(partition.families, partition.weights)):
        terms, top = _weighted_terms(lme[list(idx)], w)
        out[f] = top + np.log(terms.sum(axis=0))
    return out


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
