"""Independent correctness checks for benchmark outputs.

Nothing here imports the program under test: evidences are recomputed from
the textbook normal-gamma formulas written out below, exceedance
probabilities by adaptive quadrature (``scipy.integrate.quad``), and the
variational fixed point by one more update step. Each check records its
worst error next to its tolerance; a run fails when any error exceeds its
tolerance or is not finite.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
from scipy import integrate
from scipy.special import digamma, gammainc, gammaincinv, gammaln, logsumexp

from workloads import FAMILIES, MODELS

_LOG_2PI = float(np.log(2.0 * np.pi))

CVLME_RTOL = 1e-8
IDENTITY_RTOL = 1e-8
LFE_RTOL = 1e-10
PP_ATOL = 1e-10
BMA_RTOL = 1e-10
EP_QUAD_ATOL = 1e-6
EP_SUM_ATOL = 1e-6


class Checks:
    """Worst error per named check, against its tolerance."""

    def __init__(self):
        self.errors: dict = {}

    def record(self, name: str, error, tol: float) -> None:
        error = float(np.max(error)) if np.size(error) else 0.0
        worst, _ = self.errors.get(name, (0.0, tol))
        if not np.isfinite(error) or not np.isfinite(worst):
            worst = float("nan")
        else:
            worst = max(worst, error)
        self.errors[name] = (worst, tol)

    def failures(self) -> list:
        return [
            f"{name}: error {err:.3e} > tolerance {tol:.1e}"
            for name, (err, tol) in sorted(self.errors.items())
            if not err <= tol
        ]

    def summary(self) -> dict:
        return {name: [err, tol] for name, (err, tol) in sorted(self.errors.items())}


def _rel(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.abs(a - b) / np.maximum(1.0, np.abs(b))


def _logdet(m):
    sign, value = np.linalg.slogdet(m)
    return value if sign > 0 else float("nan")


def reference_cv_lme(designs, data) -> np.ndarray:
    """Leave-one-session-out cvLME, (models x voxels), from closed forms.

    ``designs`` is (sessions x scans x regressors), ``data`` (sessions x
    scans x voxels), identity precision. Per fold the training sessions
    give the non-informative-prior posterior (least squares, residual
    rate); the held-out session's log marginal likelihood under it uses
    the residual form of the posterior rate.
    """
    s_count = designs.shape[0]
    out = np.zeros((len(MODELS), data.shape[2]))
    for m, cols in enumerate(MODELS.values()):
        xs = [designs[s][:, cols] for s in range(s_count)]
        for held in range(s_count):
            train = [s for s in range(s_count) if s != held]
            lam0 = sum(xs[s].T @ xs[s] for s in train)
            mu0 = np.linalg.solve(lam0, sum(xs[s].T @ data[s] for s in train))
            n0 = sum(data[s].shape[0] for s in train)
            a0 = n0 / 2.0
            b0 = 0.5 * sum(np.sum((data[s] - xs[s] @ mu0) ** 2, axis=0) for s in train)
            x, y = xs[held], data[held]
            lam_n = lam0 + x.T @ x
            mu_n = np.linalg.solve(lam_n, x.T @ y + lam0 @ mu0)
            a_n = a0 + y.shape[0] / 2.0
            diff = mu_n - mu0
            b_n = b0 + 0.5 * (
                np.sum((y - x @ mu_n) ** 2, axis=0)
                + np.einsum("pv,pv->v", diff, lam0 @ diff)
            )
            out[m] += (
                -0.5 * y.shape[0] * _LOG_2PI
                + 0.5 * _logdet(lam0)
                - 0.5 * _logdet(lam_n)
                + gammaln(a_n)
                - gammaln(a0)
                + a0 * np.log(b0)
                - a_n * np.log(b_n)
            )
    return out


def check_first_level(checks, truth, cv_lme, cv_acc, cv_com, oos_lme, oos_acc, oos_com):
    """cvLME of the sample voxels, fold sums and the accuracy/complexity identity."""
    sample = truth["sample"]
    reference = reference_cv_lme(truth["designs"], truth["data_sample"])
    checks.record("cvlme_sample_rel", _rel(cv_lme[:, sample], reference), CVLME_RTOL)
    checks.record("cvlme_fold_sum_rel", _rel(oos_lme.sum(axis=0), cv_lme), CVLME_RTOL)
    checks.record("cv_acc_minus_com_rel", _rel(cv_acc - cv_com, cv_lme), IDENTITY_RTOL)
    checks.record("oos_acc_minus_com_rel", _rel(oos_acc - oos_com, oos_lme), IDENTITY_RTOL)


def reference_lfe(cv_lme) -> np.ndarray:
    names = list(MODELS)
    return np.stack(
        [
            logsumexp(cv_lme[[names.index(m) for m in members]], axis=0)
            - np.log(len(members))
            for members in FAMILIES.values()
        ]
    )


def reference_pp(cv_lme) -> np.ndarray:
    shifted = cv_lme - cv_lme.max(axis=0, keepdims=True)
    weights = np.exp(shifted)
    return weights / weights.sum(axis=0, keepdims=True)


def check_averaging(checks, truth, cv_lme, lfe, pp, bma):
    """LFE by log-sum-exp, PP by softmax, cvBMA as the PP-weighted session mean."""
    checks.record("lfe_rel", _rel(lfe, reference_lfe(cv_lme)), LFE_RTOL)
    reference = reference_pp(cv_lme)
    checks.record("pp_abs", np.abs(pp - reference), PP_ATOL)
    expected = np.einsum("mv,mv->v", truth["betas"].mean(axis=1), reference)
    checks.record("cv_bma_rel", _rel(np.ravel(bma), expected), BMA_RTOL)


def vb_residual(alpha, lme, alpha0) -> np.ndarray:
    """Per voxel, the largest concentration change of one more fixed-point step."""
    bias = digamma(alpha) - digamma(alpha.sum(axis=0, keepdims=True))
    logu = lme + bias[None, :, :]
    logu -= logu.max(axis=1, keepdims=True)
    u = np.exp(logu)
    g = u / u.sum(axis=1, keepdims=True)
    return np.max(np.abs(alpha0 + g.sum(axis=0) - alpha), axis=0)


def check_rfx(checks, lme, alpha, alpha0, vb_tol, expected_freq=None):
    """VB fixed-point residual, conserved mass, and expected frequencies."""
    n_subjects, k, _ = lme.shape
    checks.record("vb_fixed_point_residual", vb_residual(alpha, lme, alpha0), vb_tol)
    mass = k * alpha0 + n_subjects
    checks.record("alpha_mass_rel", _rel(alpha.sum(axis=0), np.full(alpha.shape[1], mass)), 1e-10)
    if expected_freq is not None:
        checks.record(
            "expected_freq_abs",
            np.abs(expected_freq - alpha / alpha.sum(axis=0, keepdims=True)),
            1e-12,
        )


def reference_ep(alpha) -> np.ndarray:
    """Exceedance probabilities of one concentration column by adaptive quadrature."""
    alpha = np.asarray(alpha, dtype=float)
    out = np.empty(alpha.size)
    for j, a in enumerate(alpha):
        others = np.delete(alpha, j)

        def integrand(x, a=a, others=others):
            if x <= 0.0:
                return 0.0
            log_pdf = (a - 1.0) * np.log(x) - x - gammaln(a)
            return float(np.exp(log_pdf) * np.prod(gammainc(others, x)))

        upper = float(gammaincinv(a, 1.0 - 1e-15))
        mode = max(a - 1.0, 0.0)
        points = [mode] if 0.0 < mode < upper else None
        value, _ = integrate.quad(
            integrand, 0.0, upper, points=points, limit=200, epsabs=1e-12, epsrel=1e-10
        )
        out[j] = value
    return out


def check_ep(checks, alpha, ep, sample):
    for v in sample:
        checks.record("ep_quad_abs", np.abs(ep[:, v] - reference_ep(alpha[:, v])), EP_QUAD_ATOL)
    checks.record("ep_sum_abs", np.abs(ep.sum(axis=0) - 1.0), EP_SUM_ATOL)


def file_digests(out_dir: Path, exclude=("timings.csv",)) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file() and p.name not in exclude
    }


def array_digests(arrays: dict) -> dict:
    return {
        name: hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()
        for name, a in sorted(arrays.items())
    }
