"""Group-level random-effects Bayesian model selection.

Subjects' log model evidences feed a hierarchical population-proportion
model whose variational inversion yields, per voxel, a Dirichlet posterior
over model frequencies. The fixed point's responsibilities factorise into
``exp(lme - max_k lme)``, formed as a voxel-major array per cache-sized
block of voxels, times per-voxel model weights ``exp(psi(alpha) -
psi(sum alpha))`` scaled to a maximum of one; an iteration is then two
batched matrix-vector products, and a voxel whose normalizer underflows
takes the log-space step instead.
Exceedance probabilities (the posterior probability
that one model is the most frequent) come in three flavors:

* a closed form through the incomplete beta function when exactly two
  models compete,
* Monte Carlo frequencies of the argmax over normalized Gamma draws,
* numerical integration of the product of Gamma CDFs against a Gamma
  density, which is deterministic and considerably cheaper than sampling
  at comparable accuracy.

The closed form and the integration work on whole (models x voxels)
matrices. Integration runs once per distinct concentration column, on one
trapezoid node set in ``log x`` for all of the column's models, and a
column's result never depends on the other columns of its call, so
chunking and thread count leave the output bytes unchanged.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .special import (
    digamma,
    gamma_tail_quantiles,
    log_gamma,
    reg_incomplete_beta,
    reg_lower_incomplete_gamma,
)

__all__ = [
    "GroupLmeStack",
    "DirichletPosterior",
    "estimate_rfx",
    "ep_beta_closed_form",
    "ep_sampling",
    "ep_integration_stack",
    "ep_sampling_stack",
]

# integration settings, recorded in the manifest: the tail mass left outside
# each column's domain, and the change between passes below which it is done
EP_REL_TAIL = 1e-12
EP_TOL = 1e-8
_SAMPLING_BATCH = 262_144
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


@dataclass(frozen=True)
class GroupLmeStack:
    """Per-subject evidences: a (subjects x models x voxels) array."""

    lme: np.ndarray
    subject_ids: tuple

    def __post_init__(self):
        lme = np.asarray(self.lme, dtype=float)
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


@dataclass
class DirichletPosterior:
    """Voxel-wise Dirichlet posterior over model frequencies.

    ``alpha`` is (models x voxels); per voxel the concentrations sum to
    ``models * alpha0 + n_subjects`` (the variational fixed point conserves
    the subject count). ``converged`` and ``iterations`` record per-voxel
    fixed-point behavior.
    """

    alpha: np.ndarray
    alpha0: float
    n_subjects: int | None = None
    converged: np.ndarray | None = None
    iterations: np.ndarray | None = None

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
            if np.max(np.abs(self.alpha.sum(axis=0) - target)) > 1e-8 * target:
                raise DomainError(
                    "concentration mass is inconsistent with the subject count"
                )

    @property
    def expected_freq(self) -> np.ndarray:
        return self.alpha / self.alpha.sum(axis=0, keepdims=True)


def _log_space_step(lme: np.ndarray, alpha: np.ndarray, alpha0: float) -> np.ndarray:
    """One fixed-point update in log space: (subjects x models x B) evidences
    and (models x B) concentrations to the next concentrations.

    Responsibilities are the row-softmax of ``lme + psi(alpha) -
    psi(sum alpha)``, max-shifted per subject, so no exponential overflows
    and each subject's best model keeps a weight of one before normalizing.
    """
    bias = digamma(alpha) - digamma(alpha.sum(axis=0, keepdims=True))
    logu = lme + bias[None, :, :]
    logu -= logu.max(axis=1, keepdims=True)
    u = np.exp(logu)
    return alpha0 + (u / u.sum(axis=1, keepdims=True)).sum(axis=0)


def _vb_step(alpha, e, lme, voxels, alpha0: float) -> np.ndarray:
    """One fixed-point update of the (models x A) concentrations ``alpha``.

    ``e`` is the (A x subjects x models) array ``exp(lme - max_k lme)`` of
    the voxels ``voxels``, whose evidences are ``lme[:, :, voxels]``. With
    ``w = exp(psi(alpha) - psi(sum alpha))`` scaled to a per-voxel maximum
    of one, subject n's responsibilities are ``e[n] * w / d_n`` with
    ``d = e @ w``, so the update is ``alpha0 + w * (e' (1 / d))``. A voxel
    where some ``d_n`` is below the subject count times the smallest normal
    double takes :func:`_log_space_step` instead: there a subject's terms
    have underflowed to zero or to digit-losing subnormals, or the sum of
    ``1 / d`` over subjects could overflow.
    """
    bias = digamma(alpha) - digamma(alpha.sum(axis=0, keepdims=True))
    w = np.exp(bias - bias.max(axis=0, keepdims=True))
    d = np.matmul(e, w.T[:, :, None])[:, :, 0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.matmul((1.0 / d)[:, None, :], e)[:, 0, :]
        new_alpha = alpha0 + w * s.T
    floor = _TINY * e.shape[1]
    if d.min() < floor:
        bad = np.flatnonzero((d < floor).any(axis=1))
        new_alpha[:, bad] = _log_space_step(lme[:, :, voxels[bad]], alpha[:, bad], alpha0)
    return new_alpha


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
    concentrations and two batched matrix-vector products (see
    :func:`_vb_step`). Voxels run in blocks whose ``exp(lme - max_k lme)``
    fills about ``_VB_BLOCK_BYTES``, so the array the products stream stays
    in cache across a block's iterations. Stops per voxel once the largest
    concentration change falls below ``tol``; voxels still moving at
    ``max_iter`` are flagged, not fatal. Every voxel's arithmetic is
    independent of the others, so blocks and chunking leave results
    unchanged to the bit. ``alpha0`` must be a normal double (subnormals
    overflow digamma) that keeps the concentration mass ``k * alpha0 +
    subjects`` finite, ``tol`` finite and positive, and ``max_iter`` an
    integer from 1 to 2**63 - 1.
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
    if not isinstance(max_iter, numbers.Integral) or not 1 <= max_iter < 2**63:
        raise DomainError(
            f"max_iter must be an integer from 1 to 2**63 - 1, got {max_iter!r}"
        )
    alpha = np.empty((k, v))
    converged = np.zeros(v, dtype=bool)
    iterations = np.full(v, max_iter, dtype=np.int64)
    width = max(1, _VB_BLOCK_BYTES // (8 * n * k))

    for lo in range(0, v, width):
        block = lme[:, :, lo : lo + width]
        # voxel-major, so each voxel's (subjects x models) slab is contiguous
        e = np.empty((block.shape[2], n, k))
        np.subtract(block.transpose(2, 0, 1), block.max(axis=1).T[:, :, None], out=e)
        np.exp(e, out=e)
        active = np.arange(lo, lo + e.shape[0])
        current = np.full((k, e.shape[0]), alpha0)
        for step in range(1, max_iter + 1):
            new_alpha = _vb_step(current, e, lme, active, alpha0)
            done = np.max(np.abs(new_alpha - current), axis=0) < tol
            current = new_alpha
            if done.any():
                finished = active[done]
                alpha[:, finished] = current[:, done]
                iterations[finished] = step
                converged[finished] = True
                moving = ~done
                active, e, current = active[moving], e[moving], current[:, moving]
                if active.size == 0:
                    break
        # voxels still moving at max_iter keep their last iterate
        alpha[:, active] = current

    return DirichletPosterior(
        alpha=alpha,
        alpha0=alpha0,
        n_subjects=n,
        converged=converged,
        iterations=iterations,
    )


def _validated_alpha(alpha) -> np.ndarray:
    """Concentrations as a float array whose first axis indexes models."""
    arr = np.asarray(alpha, dtype=float)
    if arr.ndim == 0 or arr.shape[0] < 2:
        raise DomainError("need at least 2 concentration parameters")
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise DomainError("concentrations must be finite and positive")
    return arr


def ep_beta_closed_form(alpha) -> np.ndarray:
    """Exceedance probabilities for exactly two models.

    The two-model Dirichlet marginal is a Beta distribution, so the first
    model exceeds the second with probability one minus the Beta CDF at
    one half. ``alpha`` is one voxel's pair or a (2 x voxels) matrix, and
    the result has the same shape.
    """
    arr = _validated_alpha(alpha)
    if arr.shape[0] != 2:
        raise DomainError(
            f"closed form requires exactly 2 models, got {arr.shape[0]}"
        )
    phi1 = 1.0 - reg_incomplete_beta(0.5, arr[0], arr[1])
    return np.stack([phi1, 1.0 - phi1])


def ep_sampling(alpha, samples: int = 1_000_000, seed: int = 0) -> np.ndarray:
    """Monte Carlo exceedance probabilities from Gamma draws.

    Draws ``samples`` independent Gamma(alpha_j, 1) vectors and counts how
    often each component is the largest; ties (a measure-zero event) go to
    the lowest index. The argmax is invariant under the positive
    normalization to Dirichlet variates, so the division by the sample sum
    is skipped. Deterministic for a fixed seed.
    """
    arr = _validated_alpha(np.ravel(alpha))
    samples = int(samples)
    if samples < 10_000:
        raise DomainError("need at least 1e4 samples for a stable estimate")
    rng = np.random.default_rng(seed)
    k = arr.size
    counts = np.zeros(k, dtype=np.int64)
    remaining = samples
    while remaining > 0:
        batch = min(_SAMPLING_BATCH, remaining)
        draws = rng.gamma(shape=arr, scale=1.0, size=(batch, k))
        counts += np.bincount(np.argmax(draws, axis=1), minlength=k)
        remaining -= batch
    return counts / samples


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
    (models x voxels) concentration matrix, and their diagnostics.

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
    ``_MAX_INTERVALS``, or a non-finite sum, raises :class:`NumericalError`
    naming the concentrations and the first input column that holds them.

    Returns the raw (not renormalized) EPs and the diagnostics
    ``max_sum_deviation``, ``distinct_columns`` and ``max_nodes``.
    """
    alpha = _validated_alpha(np.atleast_2d(alpha))
    # concentrations are finite and positive, so equal values are equal
    # bytes; the inverse is flattened because its shape under ``axis`` has
    # changed across numpy 2.x releases
    distinct, inverse = np.unique(alpha, axis=1, return_inverse=True)
    inverse = inverse.ravel()
    shapes = distinct.T
    lower, upper = gamma_tail_quantiles(shapes, EP_REL_TAIL)
    with np.errstate(divide="ignore"):
        t_lo = np.log(lower.max(axis=1))
    bound = np.log(EP_REL_TAIL) + log_gamma(shapes + 1.0).sum(axis=1)
    t_lo = np.maximum(t_lo, bound / shapes.sum(axis=1))
    width = np.log(upper.max(axis=1)) - t_lo

    def fail(column, reason):
        return NumericalError(
            f"exceedance integration {reason} for concentrations "
            f"{distinct[:, column].tolist()} (first at input column "
            f"{int(np.argmax(inverse == column))})"
        )

    intervals = _FIRST_INTERVALS
    ends = np.r_[0.5, np.ones(intervals - 1), 0.5]
    sums = _node_sums(shapes, t_lo, width / intervals, np.arange(intervals + 1.0), ends)
    previous = sums * (width / intervals)[:, None]
    table = np.empty_like(distinct)
    nodes = np.zeros(distinct.shape[1], dtype=np.int64)
    active = np.arange(distinct.shape[1])
    while active.size:
        if intervals == _MAX_INTERVALS:
            raise fail(active[0], f"did not stabilize to {EP_TOL} within "
                                  f"{_MAX_INTERVALS + 1} nodes")
        intervals *= 2
        step = width[active] / intervals
        odd = np.arange(1.0, intervals, 2.0)
        sums = sums + _node_sums(shapes[active], t_lo[active], step, odd, 1.0)
        phi = sums * step[:, None]
        total = phi.sum(axis=1)
        if not np.all(np.isfinite(total)):
            raise fail(active[np.argmin(np.isfinite(total))], "gave a non-finite sum")
        done = np.abs(phi - previous).max(axis=1) < EP_TOL
        done &= np.abs(total - 1.0) < EP_TOL
        table[:, active[done]] = phi[done].T
        nodes[active[done]] = intervals + 1
        active, sums, previous = active[~done], sums[~done], phi[~done]
    deviation = np.abs(table.sum(axis=0) - 1.0)
    return table[:, inverse], {
        "max_sum_deviation": float(deviation.max(initial=0.0)),
        "distinct_columns": distinct.shape[1],
        "max_nodes": int(nodes.max(initial=0)),
    }


def ep_sampling_stack(
    alpha: np.ndarray,
    samples: int = 1_000_000,
    seed: int = 0,
    voxel_offset: int = 0,
) -> np.ndarray:
    """Sampling EPs per voxel column, with one derived RNG stream each.

    Voxel ``v`` uses the stream seeded by ``(seed, voxel_offset + v)``, so
    results do not depend on chunking or execution order; pass the chunk's
    absolute start as ``voxel_offset`` when processing a slice.
    """
    alpha = np.atleast_2d(np.asarray(alpha, dtype=float))
    out = np.empty_like(alpha)
    for v in range(alpha.shape[1]):
        out[:, v] = ep_sampling(
            alpha[:, v],
            samples=samples,
            seed=np.random.SeedSequence((seed, voxel_offset + v)),
        )
    return out
