"""Session partitioning and cross-validated evidence assembly.

Each fold trains a posterior on all sessions but one, starting from the
non-informative prior, and scores the held-out session's evidence under
that trained posterior: by conjugacy it is a normal-gamma parameter set
(:class:`~evidencer.glm.NgParams`), so it serves as the prior
unchanged. Summing the per-fold out-of-sample quantities gives the
cross-validated log model evidence and its accuracy/complexity split.

Every term comes from per-session sufficient statistics, one
:class:`~evidencer.glm.SessionStats` per model and session, which keeps
this O(S) rather than O(S^2) and each fold's work O(p^2 V): the statistics
add field by field, so each fold's training statistics are the totals
minus the held-out session's; both the training and the all-data
posterior are one :func:`~evidencer.glm.posterior_update` of summed
statistics; and the fully-updated posterior (train block then test block)
is the same all-data posterior for every fold, so it is computed once.
Each fold's (lme, acc, com) is written in place into one (3, folds,
models, voxels) array, whose fold sums are the cross-validated arrays.

Models are compared on the same data, so one response pass per session
serves them all: :func:`_fold_stats` groups specs by the memory of their
response and precision (same data pointer, shape and strides, as specs
built from one array have). The cvlme stage calls it as it reads each
session, then :func:`_cv_folds`; :func:`cv_lme_models` calls it once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EstimationError, EvidencerError, LayoutError
from .glm import (
    GlmSpec,
    NgParams,
    SessionStats,
    _precision_logdet,
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
        for start, stop in self.sessions:
            if not (0 <= start < stop <= self.total_scans):
                raise LayoutError(f"range ({start}, {stop}) out of bounds")
        # ranges, not scan indices: the check costs O(folds + discarded)
        # however many scans the layout covers
        pieces = sorted([*self.sessions, *((i, i + 1) for i in self.discarded)])
        starts = [start for start, _ in pieces]
        stops = [stop for _, stop in pieces]
        if starts != [0, *stops[:-1]] or stops[-1] != self.total_scans:
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
        counts = [_scan_count(c) for c in counts]
        if any(c <= 0 for c in counts):
            raise LayoutError("every session needs at least one scan")
        edges = np.concatenate([[0], np.cumsum(counts)])
        sessions = tuple(
            (int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])
        )
        return cls(sessions=sessions, discarded=(), total_scans=int(edges[-1]))


def _scan_count(value) -> int:
    try:
        count = int(value)
    except (OverflowError, ValueError):  # nan, inf
        count = None
    if count != value or isinstance(value, bool):
        raise LayoutError(f"scan counts must be integers, got {value!r}")
    return count


def split_single_session(n: int) -> SessionLayout:
    """Split-half layout for a single session of ``n`` scans.

    Discards the smallest block of 10 to 19 consecutive middle scans that
    leaves an even number, yielding two equal halves; the gap breaks the
    temporal dependence between them. At least 40 scans are required, so
    each half can estimate something.
    """
    n = _scan_count(n)
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
    """Slice one session's spec into per-fold specs along the scan axis,
    once its whole precision passes the rule each fold's pass applies."""
    _precision_logdet(spec.precision, spec.n)
    return _slice_spec(spec, layout)


def _slice_spec(spec: GlmSpec, layout: SessionLayout) -> list:
    """:func:`split_glm_spec` after its precision check."""
    if spec.n != layout.total_scans:
        raise LayoutError(
            f"layout covers {layout.total_scans} scans but spec has {spec.n}"
        )
    out = []
    for start, stop in layout.sessions:
        precision = spec.precision
        if precision is not None:
            precision = precision[(slice(start, stop),) * precision.ndim]
        out.append(GlmSpec(Y=spec.Y[start:stop], X=spec.X[start:stop], precision=precision))
    return out


@dataclass(eq=False)
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


def _check_sessions(specs, layout: SessionLayout) -> int:
    """The voxel count the specs share, once they fit the layout."""
    if len(specs) != layout.n_folds:
        raise DomainError(
            f"layout has {layout.n_folds} folds but {len(specs)} session "
            "specs were given"
        )
    p, v = specs[0].p, specs[0].n_voxels
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
    return v


def _posterior(stats: SessionStats, label: str) -> NgParams:
    """Posterior of summed statistics under the non-informative prior."""
    try:
        return posterior_update(stats, NgParams.noninformative(stats.p))
    except EstimationError as exc:
        raise EstimationError(f"{label} block: {exc}") from None


def _memory_key(a: np.ndarray | None):
    """Arrays with equal keys view the same memory in the same layout."""
    if a is None:
        return None
    return a.__array_interface__["data"][0], a.shape, a.strides


def _fold_stats(models, first: int) -> dict:
    """Each model's :class:`~evidencer.glm.SessionStats` per fold, from a name
    -> fold-specs mapping whose first fold is session ``first`` (from 0): one
    :func:`~evidencer.glm.response_stats` pass per fold and distinct (response,
    precision) memory. A rejection names the session from 1."""
    stats = {name: [] for name in models}
    for k, specs in enumerate(zip(*models.values())):
        groups = {}
        for name, spec in zip(models, specs):
            key = _memory_key(spec.Y), _memory_key(spec.precision)
            groups.setdefault(key, []).append(name)
        for names in groups.values():
            shared = models[names[0]][k]
            designs = [models[name][k].X for name in names]
            try:
                found = response_stats(shared.Y, designs, shared.precision)
            except EvidencerError as exc:
                raise type(exc)(f"session {first + k + 1}: {exc}") from None
            for name, session in zip(names, found):
                stats[name].append(session)
    return stats


def _model_folds(stats, name: str, out: np.ndarray) -> np.ndarray:
    """Write one model's out-of-sample (lme, acc, com) into the (3, folds,
    voxels) array ``out`` and return the per-voxel round-off bound on their
    fold sums' acc - com - lme gap."""
    label = f"model {name!r}, "
    total = SessionStats(*(sum(field) for field in zip(*stats)))
    post_all = _posterior(total, f"{label}all-data")
    for fold, held in enumerate(stats):
        train = SessionStats(*(t - h for t, h in zip(total, held)))
        # conjugacy: the training posterior is the held-out session's prior
        train_prior = _posterior(train, f"{label}fold {fold + 1} training")
        out[0, fold] = log_model_evidence(held, train_prior, post_all)
        out[1, fold] = accuracy(held, post_all)
        out[2, fold] = complexity(train_prior, post_all)
    scale = np.finfo(float).eps * post_all.a / post_all.b
    return scale * sum(s.n * s.ytpy for s in stats)


def _cv_folds(stats) -> CvResult:
    """:func:`cv_lme_models` after its statistics pass, on a name -> per-fold
    ``SessionStats`` mapping that meets its checks."""
    names = tuple(stats)
    folds = stats[names[0]]
    # (3, folds, models, voxels), C-ordered, so fold sums add the folds in
    # order; each model's folds are written in place
    oos = np.empty((3, len(folds), len(names), folds[0].n_voxels))
    bounds = [_model_folds(stats[n], n, oos[:, :, m]) for m, n in enumerate(names)]
    tol = np.maximum(_ACC_COM_FLOOR, np.stack(bounds))
    result = CvResult(names, *oos.sum(axis=1), *oos, acc_com_tol=tol)
    result.validate()
    return result


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
    arrays share one statistics pass per session; the specs are left as
    they are. Messages count sessions and folds from 1, like the
    ``oos*_fold<i>.csv`` files: a rejected response or precision, or a scan
    count off the layout, names its session; a failed update names the
    model and the block (``fold i training`` or ``all-data``).
    """
    if not models:
        raise DomainError("cv_lme_models needs at least one model")
    voxels = {_check_sessions(specs, layout) for specs in models.values()}
    if len(voxels) > 1:
        raise DomainError(f"models disagree on the voxel count: {sorted(voxels)}")
    return _cv_folds(_fold_stats(models, 0))
