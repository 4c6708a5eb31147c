"""Conjugate Bayesian inference for the general linear model with
normal-gamma priors, vectorized across voxels.

One :class:`GlmSpec` holds a session's response matrix (scans x voxels),
its design matrix, and the observation precision. Because the design and
precision are shared across voxels, the posterior coefficient precision and
Gamma shape are computed once per session while coefficient means and Gamma
rates are per-voxel columns; this is what makes the mass-univariate setting
cheap.

A normal-gamma parameter set :class:`NgParams` ``(mu, lam, a, b)``
describes the joint prior or posterior of regression coefficients and
residual precision: given precision ``tau``, coefficients are Gaussian with
mean ``mu`` and precision ``tau * lam``; ``tau`` itself is Gamma(a, b). The
all-zero instance encodes the non-informative prior (flat coefficients,
Jeffreys precision); it is a legal *input* to the conjugate update but is
rejected by every operation that would need its log-determinant or
density. The family is conjugate: :func:`posterior_update` returns an
:class:`NgParams` with ``(p, V)`` means and ``(V,)`` rates, so the
posterior is directly the prior of a further update (the held-out session
of a cross-validation fold).

A spec holds inputs only. The conjugate update and every evidence term
read a session through one :class:`SessionStats`: ``xtpx = X'PX``,
``xtpy = X'PY``, the per-voxel ``ytpy = y'Py``, the scan count ``n`` and
``logdet_precision = log|P|``, so once those are formed the per-voxel work
is O(p^2) whatever the scan count. They come from :func:`response_stats`,
one pass over ``Y`` that serves any number of designs on the same response
and precision; it checks the designs as a spec does, but for the rank
test, the response per voxel, and the precision, which a spec does not, by
the rule that also forms log|P|. It reads each response once, in
fixed-width zero-padded voxel blocks, holds no ``P·Y`` larger than a
block, and gives a voxel the same bits whatever the voxel count or
however the voxels are split over calls. The fields add over sessions, so
summed statistics are as valid an input as one session's. The posterior
mean is solved with the Cholesky factor of its precision by forward and
back substitution.

The three evidence quantities exposed here satisfy, per voxel and exactly
in the algebra, ``log_model_evidence = accuracy - complexity``: accuracy is
the posterior expected log-likelihood, complexity the KL divergence of the
posterior from the prior.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DecompositionError, DomainError, EstimationError, _as_columns
from .special import digamma, log_gamma

__all__ = [
    "NgParams",
    "GlmSpec",
    "SessionStats",
    "response_stats",
    "posterior_update",
    "log_model_evidence",
    "accuracy",
    "complexity",
]

_LOG_2PI = float(np.log(2.0 * np.pi))
_RANK_RTOL = 1e-10
_SYM_RTOL = 1e-12
# design columns per product in the response pass
_STACK = 4
# voxels per block of the response pass: at 200 scans a block is 400 KB,
# so it and BLAS's packed copy of it fit in a 2 MiB L2 cache together
_BLOCK = 256


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
    p = x.shape[0]
    x[0] /= chol[0, 0]  # the first and last steps' row products are empty
    for i in range(1, p):
        x[i] -= chol[i, :i] @ x[:i]
        x[i] /= chol[i, i]
    x[p - 1] /= chol[p - 1, p - 1]
    for i in reversed(range(p - 1)):
        x[i] -= chol[i + 1:, i] @ x[i + 1:]
        x[i] /= chol[i, i]
    return x


def _logdet_from_chol(chol: np.ndarray) -> float:
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


@dataclass(eq=False)
class NgParams:
    """Normal-gamma hyperparameters, optionally carrying per-voxel columns.

    ``mu`` is ``(p,)`` or ``(p, V)``; ``lam`` is a shared ``(p, p)``
    symmetric matrix; ``a`` is a shared scalar; ``b`` is scalar or ``(V,)``,
    and a per-voxel ``b`` next to a ``(p, V)`` mean has one entry per
    column. Entries must be finite, ``a`` and ``b`` non-negative, else
    :class:`DomainError`. ``_chol`` may carry an already computed Cholesky
    factor of ``lam``.
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
        for name in ("mu", "lam", "a", "b"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise DomainError(f"{name} must be finite")
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
                f"{operation} requires a proper normal-gamma parameter set (lam positive "
                "definite, a and b > 0); the non-informative prior is only an update input"
            )


def _as_design(x, n: int, name: str) -> np.ndarray:
    """``x`` as a C-ordered 2-D float array, a vector one column, if it is a
    finite design of ``n`` rows and ``p`` columns, ``1 <= p <= n - 1``;
    else :class:`DomainError` naming ``name``."""
    x = np.ascontiguousarray(_as_columns(x, 2, f"{name} must be a vector or a 2-D array"))
    if x.shape[0] != n:
        raise DomainError(f"Y has {n} scans but {name} has {x.shape[0]}")
    if not np.all(np.isfinite(x)):
        raise DomainError(f"{name} must be finite")
    p = x.shape[1]
    if p == 0:
        raise DomainError(f"{name} has no columns")
    if n < p + 1:
        raise DomainError(f"{name} needs n >= p + 1 scans, got n={n}, p={p}")
    return x


@dataclass(eq=False)
class GlmSpec:
    """One session of data: responses ``Y`` (n x V), design ``X`` (n x p),
    and observation precision ``precision``.

    ``precision`` may be ``None`` (identity), a length-n vector (diagonal),
    or a full symmetric positive-definite (n x n) matrix. ``n >= p + 1``,
    and ``X`` must be finite with full column rank; :func:`response_stats`
    checks ``Y`` and ``precision``, which the spec holds as floats.
    """

    Y: np.ndarray
    X: np.ndarray
    precision: np.ndarray | None = None

    def __post_init__(self):
        self.Y = _as_columns(self.Y, 2, "Y must be a vector or a 2-D array")
        self.X = _as_design(self.X, self.Y.shape[0], "X")
        sv = np.linalg.svd(self.X, compute_uv=False)
        if sv[-1] <= _RANK_RTOL * sv[0]:
            raise EstimationError(
                "design matrix is rank-deficient (smallest singular value "
                f"{sv[-1]:.3e} vs largest {sv[0]:.3e}); drop or merge "
                "collinear regressors"
            )
        if self.precision is not None:
            self.precision = np.asarray(self.precision, dtype=float)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def n_voxels(self) -> int:
        return self.Y.shape[1]


class SessionStats(NamedTuple):
    """A session's sufficient statistics: ``X'PX`` (p x p), ``X'PY``
    (p x V), the per-voxel ``y'Py`` (V,), the scan count and ``log|P|``.
    Every field adds over sessions, so a field-by-field sum is the
    statistics of the joined sessions, and a difference removes one."""

    xtpx: np.ndarray
    xtpy: np.ndarray
    ytpy: np.ndarray
    n: int
    logdet_precision: float

    @property
    def p(self) -> int:
        return self.xtpy.shape[0]

    @property
    def n_voxels(self) -> int:
        return self.xtpy.shape[1]


def _precision_logdet(precision, n: int) -> tuple:
    """A precision over ``n`` scans as C-ordered floats, and its log|P|: ``None``
    (identity), a finite length-n vector of positive entries, or a finite
    symmetric (n, n) matrix with a Cholesky factor; else :class:`DomainError`,
    or :class:`DecompositionError` where not positive definite."""
    if precision is None:
        return None, 0.0
    precision = np.asarray(precision, dtype=float, order="C")
    if not np.all(np.isfinite(precision)):
        raise DomainError("precision must be finite")
    if precision.ndim == 1:
        if precision.shape != (n,):
            raise DomainError("diagonal precision must have length n")
        if np.any(precision <= 0):
            raise DecompositionError(
                "precision is not positive definite: non-positive diagonal entry"
            )
        return precision, float(np.sum(np.log(precision)))
    if precision.ndim != 2:
        raise DomainError("precision must be a vector or a matrix")
    if precision.shape != (n, n):
        raise DomainError("precision matrix must be (n, n)")
    _check_symmetric(precision, "precision")
    return precision, _logdet_from_chol(_cholesky(precision, "precision"))


def _precision_times(precision: np.ndarray | None, m: np.ndarray) -> np.ndarray:
    if precision is None:
        return m
    if precision.ndim == 1:
        return precision[:, None] * m
    return precision @ m


def response_stats(Y: np.ndarray, designs, precision=None) -> list:
    """One :class:`SessionStats` per design in ``designs``, from one pass
    over ``Y``.

    The ``(n, p_i)`` designs share the response ``Y`` and the precision.
    ``log|P|`` is formed once, and the pass reads ``Y`` once, in blocks of
    ``_BLOCK`` voxels, the last one zero-padded to that width. Per block it
    forms ``P y`` (no larger than the block), the block's ``y'Py`` and then
    ``X'PY`` of every design, from one product over the designs' distinct
    columns while the block, and BLAS's packed copy of it, are still in
    cache; each design takes its rows.
    The product runs over stacks of four columns, zero-padded, so BLAS
    always sees the same operand shapes: it picks its kernels by shape, and
    kernels for different shapes round differently. A design's statistics
    are thus bit-identical whether it is alone or shares the pass, and a
    voxel's whatever the voxel count or however the voxels are split over
    calls, or on the inputs' memory order: the pass reads them C-ordered. A
    non-finite ``y'Py`` (a non-finite cell, or an overflow) raises
    :class:`DomainError` naming the voxels, and a block that holds one skips
    the product. ``Y`` and the designs must meet :class:`GlmSpec`'s rules
    but its rank test, a rejected design named by its position from 1, and
    the precision is checked here, by the rule that forms ``log|P|``.
    """
    Y = np.ascontiguousarray(_as_columns(Y, 2, "Y must be a vector or a 2-D array"))
    n, v = Y.shape
    designs = [_as_design(x, n, f"design {i}") for i, x in enumerate(designs, 1)]
    precision, logdet = _precision_logdet(precision, n)
    distinct = {}
    rows = [
        [distinct.setdefault(column.tobytes(), len(distinct)) for column in x.T]
        for x in designs
    ]
    stacked = np.zeros((-(-len(distinct) // _STACK) * _STACK, n))
    for x, r in zip(designs, rows):
        stacked[r] = x.T
    padded = -(-v // _BLOCK) * _BLOCK
    xtpy, ytpy = np.empty((len(stacked), padded)), np.empty(padded)
    finite = True
    for lo in range(0, v, _BLOCK):
        y = Y[:, lo:lo + _BLOCK]
        if y.shape[1] < _BLOCK:
            y = np.zeros((n, _BLOCK))
            y[:, :v - lo] = Y[:, lo:]
        py = _precision_times(precision, y)
        block = np.einsum("nv,nv->v", y, py, out=ytpy[lo:lo + _BLOCK])
        finite = finite and np.isfinite(block).all()
        if finite:  # a non-finite P y would warn in the product
            for i in range(0, len(stacked), _STACK):
                np.matmul(stacked[i:i + _STACK], py, out=xtpy[i:i + _STACK, lo:lo + _BLOCK])
    ytpy = ytpy[:v]
    if not finite:
        bad = np.flatnonzero(~np.isfinite(ytpy))
        raise DomainError(
            f"y'Py is not finite at {bad.size} voxel(s), first at voxel "
            f"v{bad[0] + 1}; the response holds a non-finite cell there, or values "
            "whose quadratic form overflows"
        )
    return [
        SessionStats(
            x.T @ _precision_times(precision, x), xtpy[r, :v], ytpy, n, logdet
        )
        for x, r in zip(designs, rows)
    ]


def _prior_mu_matrix(prior: NgParams, n_voxels: int) -> np.ndarray:
    mu = prior.mu
    if mu.ndim == 1:
        return np.broadcast_to(mu[:, None], (mu.shape[0], n_voxels))
    if mu.shape[1] != n_voxels:
        raise DomainError(
            f"prior carries {mu.shape[1]} voxel columns but data has {n_voxels}"
        )
    return mu


def _prior_b_vector(prior: NgParams, n_voxels: int) -> np.ndarray:
    b = np.atleast_1d(np.asarray(prior.b, dtype=float))
    if b.size == 1:
        return np.broadcast_to(b, (n_voxels,))
    if b.shape != (n_voxels,):
        raise DomainError("prior b must be scalar or one entry per voxel")
    return b


def posterior_update(stats: SessionStats, prior: NgParams) -> NgParams:
    """Conjugate normal-gamma update for all voxels in one pass.

    ``stats`` may be one session's or several sessions' summed. The prior
    may be the non-informative instance (all zeros), any proper parameter
    set, or the posterior of a previous update; chained updates on disjoint
    data blocks commute with a single update on the concatenated data. The
    posterior carries the Cholesky factor of its ``lam``.
    """
    p, V = stats.p, stats.n_voxels
    if prior.dim != p:
        raise DomainError(
            f"prior dimension {prior.dim} does not match design columns {p}"
        )
    mu0 = _prior_mu_matrix(prior, V)
    b0 = _prior_b_vector(prior, V)
    lam0 = prior.lam

    flat = prior.is_noninformative
    lambda_n = stats.xtpx + lam0
    try:
        chol = _cholesky(lambda_n, "lambda_n")
    except DecompositionError:
        if flat:
            raise EstimationError(
                "the data leave the coefficient precision singular under "
                "the non-informative prior; the design is effectively "
                "rank-deficient"
            ) from None
        raise
    if flat:
        # the zero prior's products would only add exact zeros
        rhs, quad_prior = stats.xtpy, 0.0
    else:
        prior_rhs = lam0 @ mu0
        rhs, quad_prior = stats.xtpy + prior_rhs, np.einsum("pv,pv->v", mu0, prior_rhs)
    mu_n = _chol_solve(chol, rhs)

    quad_post = np.einsum("pv,pv->v", mu_n, lambda_n @ mu_n)
    a_n = prior.a + stats.n / 2.0
    b_n = b0 + 0.5 * (stats.ytpy + quad_prior - quad_post)
    bad = np.flatnonzero(b_n <= 0)
    if bad.size:
        raise EstimationError(
            f"posterior rate b is non-positive at {bad.size} voxel(s), first "
            f"at voxel v{bad[0] + 1}; the model fits the voxel's response "
            "exactly, or to round-off, in every session (a constant or all-zero "
            "voxel), or an ill-conditioned design cancels catastrophically"
        )
    return NgParams(mu=mu_n, lam=lambda_n, a=a_n, b=b_n, _chol=chol)


def _check_shape(stats: SessionStats, post: NgParams) -> None:
    if post.mu.shape != (stats.p, stats.n_voxels):
        raise DomainError("posterior shape does not match the statistics")


def _check_consistency(stats: SessionStats, prior: NgParams, post: NgParams) -> None:
    _check_shape(stats, post)
    expected_a = prior.a + stats.n / 2.0
    if abs(post.a - expected_a) > 1e-9 * max(1.0, expected_a):
        raise DomainError(
            f"posterior shape a={post.a} is inconsistent with prior and "
            f"scan count (expected {expected_a})"
        )


def log_model_evidence(stats: SessionStats, prior: NgParams, post: NgParams) -> np.ndarray:
    """Per-voxel log marginal likelihood of the data under the model.

    Requires a strictly proper prior (the non-informative instance has an
    infinite log-determinant penalty and is rejected) and posterior.
    """
    prior.require_proper("log_model_evidence")
    post.require_proper("log_model_evidence")
    _check_consistency(stats, prior, post)
    b0 = _prior_b_vector(prior, stats.n_voxels)
    return (
        0.5 * stats.logdet_precision
        - 0.5 * stats.n * _LOG_2PI
        + 0.5 * prior.logdet_lam()
        - 0.5 * post.logdet_lam()
        + log_gamma(post.a)
        - log_gamma(prior.a)
        + prior.a * np.log(b0)
        - post.a * np.log(post.b)
    )


def accuracy(stats: SessionStats, post: NgParams) -> np.ndarray:
    """Per-voxel posterior expected log-likelihood of the data.

    The residual quadratic form ``(y - X mu)' P (y - X mu)`` is expanded
    over the sufficient statistics, which costs O(p^2) per voxel instead of
    O(n p) and accepts the same cancellation at high SNR as the posterior
    rate ``b``. Requires a proper posterior.
    """
    _check_shape(stats, post)
    post.require_proper("accuracy")
    mu = post.mu
    quad = (
        stats.ytpy
        - 2.0 * np.einsum("pv,pv->v", mu, stats.xtpy)
        + np.einsum("pv,pv->v", mu, stats.xtpx @ mu)
    )
    chol = post.chol_lam()
    w = np.linalg.solve(chol, stats.xtpx)
    trace = float(np.trace(np.linalg.solve(chol.T, w)))
    return (
        -0.5 * (post.a / post.b) * quad
        - 0.5 * trace
        + 0.5 * stats.logdet_precision
        - 0.5 * stats.n * _LOG_2PI
        + 0.5 * stats.n * (digamma(post.a) - np.log(post.b))
    )


def complexity(prior: NgParams, post: NgParams) -> np.ndarray:
    """Per-voxel KL divergence of the posterior from the prior.

    Collected-terms form of the expected coefficient KL (over the posterior
    precision) plus the Gamma precision KL; equals ``accuracy - lme`` up to
    round-off. Requires a proper prior and posterior.
    """
    prior.require_proper("complexity")
    post.require_proper("complexity")
    V = post.n_voxels
    mu0 = _prior_mu_matrix(prior, V)
    b0 = _prior_b_vector(prior, V)
    diff = mu0 - post.mu
    quad = np.einsum("pv,pv->v", diff, prior.lam @ diff)
    trace = float(np.trace(np.linalg.solve(post.lam, prior.lam)))
    return (
        0.5 * (post.a / post.b) * (quad - 2.0 * (post.b - b0))
        + 0.5 * trace
        - 0.5 * (prior.logdet_lam() - post.logdet_lam())
        - 0.5 * post.dim
        + prior.a * np.log(post.b / b0)
        - (log_gamma(post.a) - log_gamma(prior.a))
        + (post.a - prior.a) * digamma(post.a)
    )
