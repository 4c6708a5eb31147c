"""Session partitioning and cross-validated evidence assembly.

Each fold trains a posterior on all sessions but one, starting from the
non-informative prior, and scores the held-out session's evidence under
that trained posterior: by conjugacy it is a normal-gamma parameter set
(:class:`~evidencer.distributions.NgParams`), so it serves as the prior
unchanged. Summing the per-fold out-of-sample quantities gives the
cross-validated log model evidence and its accuracy/complexity split.

Every term comes from per-session sufficient statistics, which keeps this
O(S) rather than O(S^2) and each fold's work O(p^2 V): the statistics are
additive, so each fold's training statistics are the totals minus the
held-out session's; both the training and the all-data posterior are one
:func:`~evidencer.glm.posterior_update` of summed statistics; and the
fully-updated posterior (train block then test block) is the same all-data
posterior for every fold, so it is computed once.

Models are compared on the same data, so :func:`cv_lme_models` reads each
session's response once: per session it groups the specs whose response
and precision view the same memory (same data pointer, shape and strides,
as specs built from one array are) and forms the group's statistics with
one :func:`~evidencer.glm.response_stats` pass, which checks the response.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import NgParams
from .errors import DomainError, EstimationError, LayoutError
from .glm import (
    GlmSpec,
    accuracy,
    complexity,
    log_model_evidence,
    posterior_update,
    response_stats,
)

__all__ = [
    "SessionLayout",
    "CvResult",
    "split_single_session",
    "split_glm_spec",
    "cv_lme_models",
]

_MIN_SINGLE_SESSION_SCANS = 40
_DISCARD_RANGE = range(10, 20)
# smallest tolerance on |acc - com - lme|, for data whose round-off bound is tiny
_ACC_COM_FLOOR = 1e-8


@dataclass(frozen=True)
class SessionLayout:
    """Scan-index ranges of the cross-validation folds.

    ``sessions`` holds half-open ``(start, stop)`` ranges over the
    concatenated scan axis; ``discarded`` lists scan indices excluded from
    every fold (non-empty only for the single-session split). Ranges and
    discards are disjoint and together cover ``total_scans`` exactly once.
    """

    sessions: tuple
    discarded: tuple
    total_scans: int

    def __post_init__(self):
        if len(self.sessions) < 2:
            raise LayoutError("a layout needs at least two folds")
        covered = []
        for start, stop in self.sessions:
            if not (0 <= start < stop <= self.total_scans):
                raise LayoutError(f"range ({start}, {stop}) out of bounds")
            covered.extend(range(start, stop))
        covered.extend(self.discarded)
        if sorted(covered) != list(range(self.total_scans)):
            raise LayoutError(
                "session ranges plus discarded indices must cover every scan "
                "exactly once"
            )

    @property
    def n_folds(self) -> int:
        return len(self.sessions)

    @classmethod
    def from_counts(cls, counts) -> "SessionLayout":
        """Contiguous multi-session layout from per-session scan counts."""
        counts = [int(c) for c in counts]
        if any(c <= 0 for c in counts):
            raise LayoutError("every session needs at least one scan")
        edges = np.concatenate([[0], np.cumsum(counts)])
        sessions = tuple(
            (int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])
        )
        return cls(sessions=sessions, discarded=(), total_scans=int(edges[-1]))


def split_single_session(n: int) -> SessionLayout:
    """Split-half layout for a single session of ``n`` scans.

    Discards the smallest block of 10 to 19 consecutive middle scans that
    leaves an even number, yielding two equal halves; the gap breaks the
    temporal dependence between them. At least 40 scans are required, so
    each half can estimate something.
    """
    n = int(n)
    if n < _MIN_SINGLE_SESSION_SCANS:
        raise LayoutError(
            f"single-session split needs at least {_MIN_SINGLE_SESSION_SCANS} "
            f"scans, got {n}"
        )
    discard = next(d for d in _DISCARD_RANGE if (n - d) % 2 == 0)
    half = (n - discard) // 2
    return SessionLayout(
        sessions=((0, half), (half + discard, n)),
        discarded=tuple(range(half, half + discard)),
        total_scans=n,
    )


def split_glm_spec(spec: GlmSpec, layout: SessionLayout) -> list:
    """Slice one session's spec into per-fold specs along the scan axis."""
    if spec.n != layout.total_scans:
        raise LayoutError(
            f"layout covers {layout.total_scans} scans but spec has {spec.n}"
        )
    out = []
    for start, stop in layout.sessions:
        if spec.precision is None:
            precision = None
        elif spec.precision.ndim == 1:
            precision = spec.precision[start:stop]
        else:
            precision = spec.precision[start:stop, start:stop]
        out.append(GlmSpec(Y=spec.Y[start:stop], X=spec.X[start:stop], precision=precision))
    return out


@dataclass
class CvResult:
    """Cross-validated evidences for a set of models.

    ``cv_*`` are (models x voxels); ``oos_*`` are (folds x models x voxels).
    The cross-validated arrays are the exact fold sums of the out-of-sample
    arrays, and accuracy minus complexity reproduces the evidence to within
    ``acc_com_tol``, a per-voxel bound on the sufficient-statistics
    round-off (see :func:`cv_lme_models`).
    """

    model_names: tuple
    cv_lme: np.ndarray
    cv_acc: np.ndarray
    cv_com: np.ndarray
    oos_lme: np.ndarray
    oos_acc: np.ndarray
    oos_com: np.ndarray
    acc_com_tol: np.ndarray | float = _ACC_COM_FLOOR

    def validate(self) -> None:
        if not np.array_equal(self.cv_lme, self.oos_lme.sum(axis=0)):
            raise DomainError("cv_lme must be the exact fold sum of oos_lme")
        if np.any(np.abs(self.cv_acc - self.cv_com - self.cv_lme) > self.acc_com_tol):
            raise DomainError(
                "accuracy minus complexity does not reproduce the evidence"
            )


def _check_sessions(specs, layout: SessionLayout) -> None:
    if len(specs) != layout.n_folds:
        raise DomainError(
            f"layout has {layout.n_folds} folds but {len(specs)} session "
            "specs were given"
        )
    p = specs[0].p
    v = specs[0].n_voxels
    for i, spec in enumerate(specs):
        if spec.p != p or spec.n_voxels != v:
            raise DomainError(
                "per-session specs must share design width and voxel count"
            )
        start, stop = layout.sessions[i]
        if spec.n != stop - start:
            raise LayoutError(
                f"session {i + 1} has {spec.n} scans but its layout range covers "
                f"{stop - start}"
            )


class _Totals(NamedTuple):
    """Sufficient statistics summed over sessions; a valid input to
    :func:`~evidencer.glm.posterior_update`."""

    xtpx: np.ndarray
    xtpy: np.ndarray
    ytpy: np.ndarray
    n: int


def _totals(specs) -> _Totals:
    return _Totals(*(sum(getattr(s, f) for s in specs) for f in _Totals._fields))


def _posterior(stats: _Totals, label: str) -> NgParams:
    """Posterior of summed statistics under the non-informative prior."""
    try:
        return posterior_update(stats, NgParams.noninformative(stats.xtpy.shape[0]))
    except EstimationError as exc:
        raise EstimationError(f"{label} block: {exc}") from None


def _memory_key(a: np.ndarray | None):
    """Arrays with equal keys view the same memory in the same layout."""
    if a is None:
        return None
    return a.__array_interface__["data"][0], a.shape, a.strides


def _share_response_stats(models, n_folds: int) -> None:
    """Give every session's specs their response statistics from one
    :func:`~evidencer.glm.response_stats` pass per distinct (response,
    precision) memory, so models built on the same arrays read each
    session's response once. Specs whose statistics are already formed are
    left as they are."""
    for s in range(n_folds):
        groups = {}
        for specs in models.values():
            spec = specs[s]
            if "_y_stats" not in vars(spec):
                key = _memory_key(spec.Y), _memory_key(spec.precision)
                groups.setdefault(key, []).append(spec)
        for group in groups.values():
            y, precision = group[0].Y, group[0].precision
            try:
                xtpys, ytpy = response_stats(y, [g.X for g in group], precision)
            except DomainError as exc:
                raise DomainError(f"session {s + 1}: {exc}") from None
            for spec, xtpy in zip(group, xtpys):
                spec._y_stats = xtpy, ytpy


def _oos_fold(specs, fold: int, totals: _Totals, post_all: NgParams, label: str):
    held = specs[fold]
    train = _Totals(*(t - getattr(held, f) for t, f in zip(totals, _Totals._fields)))
    # conjugacy: the training posterior is the held-out session's prior
    train_prior = _posterior(train, f"{label}fold {fold + 1} training")
    lme = log_model_evidence(held, train_prior, post_all)
    acc = accuracy(held, post_all)
    com = complexity(train_prior, post_all)
    return lme, acc, com


def _model_folds(specs, layout: SessionLayout, name: str):
    """One model's out-of-sample (lme, acc, com) as a (3, folds, voxels)
    array, and the per-voxel round-off bound on their fold sums' acc - com
    - lme gap."""
    label = f"model {name!r}, "
    totals = _totals(specs)
    post_all = _posterior(totals, f"{label}all-data")
    folds = np.stack(
        [_oos_fold(specs, i, totals, post_all, label) for i in range(layout.n_folds)],
        axis=1,
    )
    scale = np.finfo(float).eps * post_all.a / post_all.b
    return folds, scale * sum(s.n * s.ytpy for s in specs)


def cv_lme_models(models, layout: SessionLayout) -> CvResult:
    """Cross-validated evidences for a name -> per-session-specs mapping.

    A model's designs may differ across sessions in values, not in width.

    Each held-out accuracy expands a residual quadratic form over
    sufficient statistics, whose n-term reductions err by up to about
    ``n * eps/2 * ytpy`` each; scaled by ``a / (2 b)`` of the all-data
    posterior, the fold sums' acc - com - lme gap stays within
    ``sum over folds of n_held * eps * (a / b) * ytpy_held``. That
    bound, floored at 1e-8, is the result's ``acc_com_tol``.

    Models whose session specs view the same response (and precision)
    arrays share one statistics pass per session. Messages count sessions
    and folds from 1, like the ``oos*_fold<i>.csv`` files: a rejected
    response or a scan count that disagrees with the layout names its
    session, and a failed update names the model and the block (``fold i
    training`` or ``all-data``).
    """
    if not models:
        raise DomainError("cv_lme_models needs at least one model")
    names = tuple(models)
    for n in names:
        _check_sessions(models[n], layout)
    _share_response_stats(models, layout.n_folds)
    folds, bounds = zip(*(_model_folds(models[n], layout, n) for n in names))
    # (3, folds, models, voxels); fold sums add the folds in order
    oos = np.stack(folds, axis=2)
    tol = np.maximum(_ACC_COM_FLOOR, np.stack(bounds))
    result = CvResult(names, *oos.sum(axis=1), *oos, acc_com_tol=tol)
    result.validate()
    return result
