"""Underflow-safe log family evidence from per-model log evidences.

A family's evidence is the prior-weighted average of its members' model
evidences. Working in logs, the members' contributions are exponentiated
only relative to the family's maximum, so models hundreds of log-units
behind the best one underflow to a zero contribution instead of poisoning
the whole family with zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bma import _prior_weights
from .errors import DomainError
from .special import log_sum_exp

__all__ = ["FamilyPartition", "log_family_evidence"]


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
            idx = tuple(int(i) for i in indices)
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
    """Per-family, per-voxel log evidence from a (models x voxels) matrix.

    Each member's evidence is offset by ``log weight + log family size``
    and the family takes the max-shifted sum of exponentials minus ``log
    family size``; for uniform weights the offset is zero. Zero weights
    enter as ``-inf`` and drop out of the sum.
    """
    lme = np.asarray(lme, dtype=float)
    if lme.ndim == 1:
        lme = lme[:, None]
    if lme.shape[0] != partition.n_models:
        raise DomainError(
            f"evidence matrix has {lme.shape[0]} rows but the partition "
            f"covers {partition.n_models} models"
        )
    if not np.all(np.isfinite(lme)):
        raise DomainError("log model evidences must be finite")

    out = np.empty((len(partition.families), lme.shape[1]))
    for f, ((_, idx), w) in enumerate(zip(partition.families, partition.weights)):
        size = len(idx)
        with np.errstate(divide="ignore"):
            member = lme[list(idx)] + (np.log(w) + np.log(size))[:, None]
        out[f] = log_sum_exp(member, axis=0) - np.log(size)
    return out
