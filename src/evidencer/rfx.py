"""Group-level random-effects Bayesian model selection.

Subjects' log model evidences feed a hierarchical population-proportion
model whose variational inversion yields, per voxel, a Dirichlet posterior
over model frequencies. The fixed point's responsibilities factorise into
``exp(lme - max_k lme)``, formed as a (subjects x models x voxels) array
per cache-sized block of voxels, times per-voxel model weights
``exp(psi(alpha) - max_k psi(alpha))``; an iteration is then two einsum
products over the block, and a voxel whose normalizer underflows takes
the log-space step instead. A block's still-moving voxels stay a prefix
of its arrays: the slots of voxels that stop are refilled from the
block's end, so only the refilling voxels' evidences move.

Exceedance probabilities (the posterior probability that one model is the
most frequent) integrate the product of Gamma CDFs against a Gamma
density, as the MACS toolbox does. The integration works on a whole
(models x voxels) matrix and runs once per distinct concentration column,
on one trapezoid node set in ``log x`` for all of the column's models; a
column's result, or its failure, never depends on the other columns of
its call, so chunking and thread count leave the output bytes unchanged.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .special import digamma, gamma_tail_quantiles, log_gamma, reg_lower_incomplete_gamma

__all__ = [
    "GroupLmeStack",
    "DirichletPosterior",
    "estimate_rfx",
    "ep_integration_stack",
]

# integration settings, recorded in the manifest: the tail mass left outside
# each column's domain, and the change between passes below which it is done
EP_REL_TAIL = 1e-12
EP_TOL = 1e-8
# trapezoid intervals of the first pass, and the count past which a column fails
_FIRST_INTERVALS = 16
_MAX_INTERVALS = 1 << 14
# Gamma-CDF values per block of columns: large enough that ufunc calls dominate
# the Python overhead, small enough that a pass's temporaries stay near 1 MB
_BLOCK_ELEMENTS = 1 << 14
# bytes of exp(lme - max_k lme) per block of the VB fixed point: the
# products read the block's array on every iteration, and at the size of a
# 2 MiB L2 cache it stays there instead of coming from memory
_VB_BLOCK_BYTES = 1 << 21
# smallest normal double, the scale of the VB step's underflow guard
_TINY = np.finfo(float).tiny


@dataclass(frozen=True, eq=False)
class GroupLmeStack:
    """Per-subject evidences: a C-ordered (subjects x models x voxels) array."""

    lme: np.ndarray
    subject_ids: tuple

    def __post_init__(self):
        lme = np.ascontiguousarray(self.lme, dtype=float)
        if lme.ndim == 2:
            lme = lme[:, :, None]
        if lme.ndim != 3:
            raise DomainError("lme must be (subjects, models, voxels)")
        if lme.shape[0] < 2:
            raise DomainError("group analysis needs at least two subjects")
        if lme.shape[1] < 2:
            raise DomainError("group analysis needs at least two models")
        if not np.all(np.isfinite(lme)):
            raise DomainError("group evidences must be finite")
        if len(self.subject_ids) != lme.shape[0]:
            raise DomainError("one subject id per evidence slab required")
        object.__setattr__(self, "lme", lme)
        object.__setattr__(self, "subject_ids", tuple(str(s) for s in self.subject_ids))

    @property
    def n_subjects(self) -> int:
        return self.lme.shape[0]

    @property
    def n_models(self) -> int:
        return self.lme.shape[1]

    @property
    def n_voxels(self) -> int:
        return self.lme.shape[2]


@dataclass(eq=False)
class DirichletPosterior:
    """Voxel-wise Dirichlet posterior over model frequencies.

    ``alpha`` is (models x voxels); per voxel the concentrations sum to
    ``models * alpha0 + n_subjects`` (the variational fixed point conserves
    the subject count). ``converged`` and ``iterations`` record per-voxel
    fixed-point behavior, and ``log_space_steps`` counts the voxel-steps
    that took the log-space step.
    """

    alpha: np.ndarray
    alpha0: float
    n_subjects: int | None = None
    converged: np.ndarray | None = None
    iterations: np.ndarray | None = None
    log_space_steps: int = 0

    def __post_init__(self):
        self.alpha = np.atleast_2d(np.asarray(self.alpha, dtype=float))
        if np.any(self.alpha <= 0) or not np.all(np.isfinite(self.alpha)):
            raise DomainError("concentrations must be finite and positive")
        self.alpha0 = float(self.alpha0)
        if self.alpha0 <= 0:
            raise DomainError("alpha0 must be positive")
        if self.n_subjects is not None:
            k = self.alpha.shape[0]
            target = k * self.alpha0 + self.n_subjects
            if np.max(np.abs(self.alpha.sum(axis=0) - target), initial=0.0) > 1e-8 * target:
                raise DomainError(
                    "concentration mass is inconsistent with the subject count"
                )

    @property
    def expected_freq(self) -> np.ndarray:
        return self.alpha / self.alpha.sum(axis=0, keepdims=True)


def _log_space_step(lme: np.ndarray, alpha: np.ndarray, alpha0: float) -> np.ndarray:
    """One fixed-point update in log space: (subjects x models x B) evidences
    and (models x B) concentrations to the next concentrations.

    Responsibilities are the row-softmax of ``lme + psi(alpha)``,
    max-shifted per subject (which cancels the textbook ``- psi(sum
    alpha)``), so no exponential overflows.
    """
    logu = lme + digamma(alpha)[None, :, :]
    logu -= logu.max(axis=1, keepdims=True)
    u = np.exp(logu)
    return alpha0 + (u / u.sum(axis=1, keepdims=True)).sum(axis=0)


def _vb_step(alpha, e, lme, voxels, alpha0: float) -> tuple:
    """One fixed-point update of the (models x A) concentrations ``alpha``,
    and the number of voxels that took the log-space step.

    ``e`` is the (subjects x models x A) array ``exp(lme - max_k lme)`` of
    the voxels ``voxels``, whose evidences are ``lme[:, :, voxels]``. With
    ``w = exp(psi(alpha) - max_k psi(alpha))`` (the scaling cancels the
    textbook ``- psi(sum alpha)``), subject n's responsibilities are
    ``e[n] * w / d_n`` with ``d_n = sum_k e[n, k] w_k``, and the update is
    ``alpha0 + w * sum_n e[n] / d_n``. einsum adds both sums in sequence per
    voxel, so a voxel's bits depend neither on A, nor on whether ``alpha``
    and ``e`` are prefix views of wider arrays, nor on BLAS; a lone voxel,
    which einsum reduces with another loop, runs as two equal columns. A
    voxel with some ``d_n`` below the subject count times the smallest
    normal double takes :func:`_log_space_step`: there a subject's terms
    have underflowed, or the sum of ``1 / d`` could overflow. The step
    forms ``w`` in digamma's output and the update in the second product's
    output, and writes ``1 / d`` over ``d`` unless a voxel takes the
    log-space step, which reads ``d``.
    """
    if e.shape[2] == 1:
        pair, logged = _vb_step(alpha.repeat(2, 1), e.repeat(2, 2), lme,
                                voxels.repeat(2), alpha0)
        return pair[:, :1], logged // 2
    w = digamma(alpha)
    w -= w.max(axis=0, keepdims=True)
    np.exp(w, out=w)
    d = np.einsum("nka,ka->na", e, w)
    floor = _TINY * e.shape[0]
    factorised = d.min() >= floor
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the log-space branch below still reads d
        r = np.divide(1.0, d, out=d if factorised else None)
        new_alpha = np.einsum("na,nka->ka", r, e)
        new_alpha *= w
        new_alpha += alpha0
    if factorised:
        return new_alpha, 0
    bad = np.flatnonzero((d < floor).any(axis=0))
    new_alpha[:, bad] = _log_space_step(lme[:, :, voxels[bad]], alpha[:, bad], alpha0)
    return new_alpha, bad.size


def estimate_rfx(
    group: GroupLmeStack,
    alpha0: float = 1.0,
    tol: float = 1e-4,
    max_iter: int = 200,
) -> DirichletPosterior:
    """Variational Dirichlet estimation, vectorized over voxels.

    Iterates the fixed point: subject-wise responsibilities are the
    row-softmax of ``lme + psi(alpha) - psi(sum alpha)``, and each model's
    concentration is ``alpha0`` plus its summed responsibilities. The
    softmax factorises into ``exp(lme - max_k lme)`` times per-voxel model
    weights, so an iteration takes digamma and exp of the (models x voxels)
    concentrations and two einsum products (see :func:`_vb_step`). Voxels
    run in blocks whose ``exp(lme - max_k lme)`` fills about
    ``_VB_BLOCK_BYTES``, so the array the products stream stays in cache
    across a block's iterations. Stops per voxel once the largest
    concentration change falls below ``tol``; voxels still moving at
    ``max_iter`` are flagged, not fatal. The still-moving voxels stay a
    prefix of the block's arrays: when some stop at a step that leaves
    ``left`` moving, the still-moving voxels at or past slot ``left`` fill
    the stopped slots below it, and the arrays become their first ``left``
    slots, so only the refilling voxels' slabs are copied. Every voxel's
    arithmetic is independent of the others and of its slot, so blocks,
    slots and chunking leave results unchanged to the bit. ``alpha0`` must
    be a normal double (subnormals overflow digamma) that keeps the
    concentration mass ``k * alpha0 + subjects`` finite, ``tol`` finite and
    positive, and ``max_iter`` an integer, not a bool, from 1 to 2**63 - 1.
    """
    lme = group.lme
    n, k, v = lme.shape
    if not (alpha0 >= np.finfo(float).tiny and np.isfinite(k * float(alpha0) + n)):
        raise DomainError(
            f"alpha0 must be a positive normal double with k * alpha0 + subjects "
            f"finite ({k} models, {n} subjects), got {alpha0!r}"
        )
    if not (np.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and positive, got {tol!r}")
    integral = isinstance(max_iter, numbers.Integral) and not isinstance(max_iter, bool)
    if not integral or not 1 <= max_iter < 2**63:
        raise DomainError(
            f"max_iter must be an integer from 1 to 2**63 - 1, got {max_iter!r}"
        )
    alpha = np.empty((k, v))
    converged = np.zeros(v, dtype=bool)
    iterations = np.full(v, max_iter, dtype=np.int64)
    log_space_steps = 0
    width = max(1, _VB_BLOCK_BYTES // (8 * n * k))

    for lo in range(0, v, width):
        block = lme[:, :, lo : lo + width]
        e = block - block.max(axis=1, keepdims=True)
        np.exp(e, out=e)
        active = np.arange(lo, lo + e.shape[2])
        current = np.full((k, e.shape[2]), alpha0)
        for step in range(1, max_iter + 1):
            new_alpha, logged = _vb_step(current, e, lme, active, alpha0)
            log_space_steps += logged
            done = np.max(np.abs(new_alpha - current), axis=0) < tol
            current = new_alpha
            if done.any():
                stop = np.flatnonzero(done)
                finished = active[stop]
                alpha[:, finished] = current.take(stop, axis=1)
                iterations[finished] = step
                converged[finished] = True
                # still-moving voxels stay a prefix: those at or above left
                # fill the stopped slots below it, and only they move
                left = active.size - stop.size
                holes = stop[: np.searchsorted(stop, left)]
                movers = left + np.flatnonzero(~done[left:])
                e[:, :, holes] = e[:, :, movers]
                current[:, holes] = current[:, movers]
                active[holes] = active[movers]
                active, e, current = active[:left], e[:, :, :left], current[:, :left]
                if left == 0:
                    break
        # voxels still moving at max_iter keep their last iterate
        alpha[:, active] = current

    return DirichletPosterior(
        alpha=alpha,
        alpha0=alpha0,
        n_subjects=n,
        converged=converged,
        iterations=iterations,
        log_space_steps=log_space_steps,
    )


def _node_sums(alpha, t_lo, step, positions, weights) -> np.ndarray:
    """Weighted sums of each (column, model j) row's integrand
    ``x f_j(x) prod_{i != j} F_i(x)`` over the nodes ``t = t_lo + positions
    * step`` of its column, at ``x = e^t``; ``alpha`` is (columns x models).
    Columns run in blocks of about ``_BLOCK_ELEMENTS`` CDF values, and every
    operation is elementwise or sums within a row, so a column's sums do not
    depend on its block.
    """
    n, k = alpha.shape
    sums = np.empty((n, k))
    columns = max(1, _BLOCK_ELEMENTS // (k * positions.size))
    for lo in range(0, n, columns):
        block = slice(lo, lo + columns)
        shape = alpha[block, :, None]
        t = (t_lo[block, None] + positions * step[block, None])[:, None, :]
        x = np.exp(t)
        with np.errstate(divide="ignore"):
            log_cdf = np.log(reg_lower_incomplete_gamma(shape, x))
        # the other rows' log-CDFs from exclusive prefix and suffix sums, not
        # by subtracting a row from the total: a CDF can underflow to 0
        others = np.zeros_like(log_cdf)
        np.cumsum(log_cdf[:, :-1], axis=1, out=others[:, 1:])
        others[:, :-1] += np.cumsum(log_cdf[:, :0:-1], axis=1)[:, ::-1]
        # at huge shapes (near 1e30) the exponent overflows; the caller
        # reports that column's non-finite sum
        with np.errstate(over="ignore"):
            terms = np.exp(shape * t - x - log_gamma(shape) + others)
        # an elementwise product, not a matrix product: BLAS picks its
        # kernels by operand shape, which would tie a column to its block
        sums[block] = (terms * weights).sum(axis=-1)
    return sums


def ep_integration_stack(alpha: np.ndarray) -> tuple:
    """Exceedance probabilities by Gamma-CDF-product integration for a
    (models x voxels) concentration matrix, or one voxel's vector, and their
    diagnostics.

    Model j's EP is the integral of ``f_j(x) prod_{i != j} F_i(x)``, and
    the k integrands sum to the density of M, the maximum of the k Gamma
    variates. The integration runs once per distinct column, by the
    trapezoidal rule in ``t = log x`` on one domain for all the column's
    rows: up to the log of the largest Gamma(alpha_i) quantile at
    ``1 - EP_REL_TAIL``, and from the larger of the log of the largest
    quantile at ``EP_REL_TAIL`` and the point where M's CDF bound
    ``x^(sum alpha) / prod Gamma(alpha_i + 1)`` equals ``EP_REL_TAIL``.
    From ``_FIRST_INTERVALS`` intervals the step halves until a column's
    rows change by less than ``EP_TOL`` and sum to 1 within ``EP_TOL``,
    which guards against a missed peak. A column not done at
    ``_MAX_INTERVALS`` fails, and so does a non-finite sum. Every other
    column still runs, and :class:`NumericalError` names the failing
    concentrations that come first in the input, with the index of their
    first input column as its ``column``, so the error of a matrix is that
    of its first failing slice.

    Returns the raw (not renormalized) EPs and the diagnostics
    ``max_sum_deviation``, ``distinct_columns`` and ``max_nodes``.
    """
    alpha = np.asarray(alpha, dtype=float)
    alpha = alpha[:, None] if alpha.ndim == 1 else alpha  # one voxel
    if alpha.ndim != 2 or alpha.shape[0] < 2:
        raise DomainError(f"need (models x voxels), 2+ models, got shape {alpha.shape}")
    if np.any(alpha <= 0) or not np.all(np.isfinite(alpha)):
        raise DomainError("concentrations must be finite and positive")
    # concentrations are finite and positive, so equal values are equal
    # bytes; the inverse is flattened because its shape under ``axis`` has
    # changed across numpy 2.x releases
    distinct, first, inverse = np.unique(
        alpha, axis=1, return_index=True, return_inverse=True
    )
    inverse = inverse.ravel()
    shapes = distinct.T
    lower, upper = gamma_tail_quantiles(shapes, EP_REL_TAIL)
    with np.errstate(divide="ignore"):
        t_lo = np.log(lower.max(axis=1))
    bound = np.log(EP_REL_TAIL) + log_gamma(shapes + 1.0).sum(axis=1)
    t_lo = np.maximum(t_lo, bound / shapes.sum(axis=1))
    width = np.log(upper.max(axis=1)) - t_lo

    intervals = _FIRST_INTERVALS
    ends = np.r_[0.5, np.ones(intervals - 1), 0.5]
    sums = _node_sums(shapes, t_lo, width / intervals, np.arange(intervals + 1.0), ends)
    previous = sums * (width / intervals)[:, None]
    table = np.empty_like(distinct)
    nodes = np.zeros(distinct.shape[1], dtype=np.int64)
    active = np.arange(distinct.shape[1])
    failures = {}  # distinct column -> reason
    while active.size:
        if intervals == _MAX_INTERVALS:
            reason = f"did not stabilize to {EP_TOL} within {_MAX_INTERVALS + 1} nodes"
            failures.update(dict.fromkeys(active.tolist(), reason))
            break
        intervals *= 2
        step = width[active] / intervals
        odd = np.arange(1.0, intervals, 2.0)
        sums = sums + _node_sums(shapes[active], t_lo[active], step, odd, 1.0)
        phi = sums * step[:, None]
        total = phi.sum(axis=1)
        finite = np.isfinite(total)
        failures.update(dict.fromkeys(active[~finite].tolist(), "gave a non-finite sum"))
        with np.errstate(invalid="ignore"):  # a non-finite row is never done
            done = np.abs(phi - previous).max(axis=1) < EP_TOL
        done &= np.abs(total - 1.0) < EP_TOL
        table[:, active[done]] = phi[done].T
        nodes[active[done]] = intervals + 1
        going = ~done & finite
        active, sums, previous = active[going], sums[going], phi[going]
    if failures:
        column = min(failures, key=first.__getitem__)
        raise NumericalError(
            f"exceedance integration {failures[column]} for concentrations "
            f"{distinct[:, column].tolist()}",
            column=int(first[column]),
        )
    deviation = np.abs(table.sum(axis=0) - 1.0)
    return table[:, inverse], {
        "max_sum_deviation": float(deviation.max(initial=0.0)),
        "distinct_columns": distinct.shape[1],
        "max_nodes": int(nodes.max(initial=0)),
    }
