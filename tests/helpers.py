"""Shared test fixtures: random instance generators and independent
numerical oracles.

The evidence oracle here never touches the package's evidence formulas: it
integrates the likelihood times the prior density over (coefficient,
precision) with nested adaptive quadrature, in log space with explicit
shifts. It is deliberately restricted to single-coefficient designs, where
the data enter only through three scalar reductions.
"""

from __future__ import annotations

import csv
import itertools
import warnings
from pathlib import Path

import numpy as np
from scipy import integrate
from scipy.special import digamma as _oracle_digamma
from scipy.special import gammaln as _oracle_lgamma

from evidencer.dataio import LabeledMatrix
from evidencer.errors import DecompositionError, DomainError, ParseError
from evidencer.glm import GlmSpec, NgParams, SessionStats, response_stats
from evidencer.rfx import DirichletPosterior, ep_integration_stack


def random_design(rng, n: int, p: int) -> np.ndarray:
    """Well-conditioned design: random columns plus a constant regressor."""
    x = rng.normal(size=(n, p))
    if p >= 1:
        x[:, -1] = 1.0
    return x


def random_spd(rng, p: int, scale: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(p, p))
    return scale * (a @ a.T + p * np.eye(p))


def random_precision(rng, n: int, kind: str):
    """Observation precision in one of the three supported storages."""
    if kind == "identity":
        return None
    if kind == "diagonal":
        return rng.uniform(0.5, 2.0, size=n)
    return random_spd(rng, n, scale=1.0 / n) + 0.5 * np.eye(n)


def random_proper_instance(rng, n=None, p=None, v=None, precision_kind=None):
    """A random GLM spec plus a strictly proper normal-gamma prior."""
    n = int(n if n is not None else rng.integers(8, 65))
    p = int(p if p is not None else rng.integers(1, 7))
    v = int(v if v is not None else rng.integers(1, 33))
    if precision_kind is None:
        precision_kind = ("identity", "diagonal", "full")[int(rng.integers(3))]
    spec = GlmSpec(
        Y=rng.normal(size=(n, v)),
        X=random_design(rng, n, p),
        precision=random_precision(rng, n, precision_kind),
    )
    prior = NgParams(
        mu=rng.normal(size=p),
        lam=random_spd(rng, p, scale=float(rng.uniform(0.2, 2.0))),
        a=float(rng.uniform(0.5, 5.0)),
        b=float(rng.uniform(0.5, 5.0)),
    )
    return spec, prior


def stats_of(spec: GlmSpec) -> SessionStats:
    """The sufficient statistics of one spec, from its own response pass."""
    (stats,) = response_stats(spec.Y, [spec.X], spec.precision)
    return stats


def times_precision(precision, m: np.ndarray) -> np.ndarray:
    if precision is None:
        return m
    if precision.ndim == 1:
        return precision[:, None] * m
    return precision @ m


def accuracy_by_residual(spec: GlmSpec, post) -> np.ndarray:
    """Reference accuracy from the full n x V residual matrix.

    The package expands the residual quadratic form over sufficient
    statistics; this keeps the direct ``(y - X mu)' P (y - X mu)`` form,
    which loses nothing to cancellation when the fit is near perfect. It
    forms ``P resid``, ``X'PX`` and ``log|P|`` from the spec's inputs, not
    from the package's statistics pass.
    """
    precision = spec.precision
    resid = spec.Y - spec.X @ post.mu
    quad = np.einsum("nv,nv->v", resid, times_precision(precision, resid))
    xtpx = spec.X.T @ times_precision(precision, spec.X)
    if precision is None:
        logdet_p = 0.0
    elif precision.ndim == 1:
        logdet_p = float(np.sum(np.log(precision)))
    else:
        logdet_p = float(np.linalg.slogdet(precision)[1])
    trace = float(np.trace(np.linalg.solve(post.lam, xtpx)))
    return (
        -0.5 * (post.a / post.b) * quad
        - 0.5 * trace
        + 0.5 * logdet_p
        - 0.5 * spec.n * np.log(2.0 * np.pi)
        + 0.5 * spec.n * (_oracle_digamma(post.a) - np.log(post.b))
    )


def _covariance_factor(sigma: np.ndarray, name: str) -> np.ndarray:
    """The lower Cholesky factor of a symmetric positive-definite ``sigma``;
    else :class:`DomainError` or :class:`DecompositionError` naming it."""
    scale = np.max(np.abs(sigma))
    if np.max(np.abs(sigma - sigma.T)) > 1e-12 * scale:
        raise DomainError(f"{name} must be symmetric")
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"{name} is not positive definite: {exc}") from None


def kl_mvn(mu1, sigma1, mu2, sigma2) -> float:
    """Reference KL[N(mu1, sigma1) || N(mu2, sigma2)] in its textbook form.

    With ``gamma_moments`` and ``kl_gamma`` it assembles the complexity
    penalty the package computes in collected-terms form: the coefficient
    KL at the posterior mean precision, plus the precision KL.
    """
    mu1 = np.asarray(mu1, dtype=float).ravel()
    mu2 = np.asarray(mu2, dtype=float).ravel()
    sigma1 = np.asarray(sigma1, dtype=float)
    sigma2 = np.asarray(sigma2, dtype=float)
    k = mu1.size
    if mu2.size != k or sigma1.shape != (k, k) or sigma2.shape != (k, k):
        raise DomainError("kl_mvn arguments have inconsistent dimensions")
    chol1 = _covariance_factor(sigma1, "sigma1")
    chol2 = _covariance_factor(sigma2, "sigma2")
    z = np.linalg.solve(chol2, mu2 - mu1)
    w = np.linalg.solve(chol2, chol1)
    logdet1, logdet2 = (2.0 * float(np.sum(np.log(np.diag(c)))) for c in (chol1, chol2))
    return 0.5 * (float(z @ z) + float(np.sum(w * w)) - (logdet1 - logdet2) - k)


def kl_gamma(a1, b1, a2, b2) -> float:
    """Reference KL[Gam(a1, b1) || Gam(a2, b2)], shape/rate form."""
    for name, v in (("a1", a1), ("b1", b1), ("a2", a2), ("b2", b2)):
        if not np.isfinite(v) or v <= 0:
            raise DomainError(f"{name} must be a positive real, got {v!r}")
    return float(
        a2 * np.log(b1 / b2)
        - (_oracle_lgamma(a1) - _oracle_lgamma(a2))
        + (a1 - a2) * _oracle_digamma(a1)
        - (b1 - b2) * a1 / b1
    )


def gamma_moments(a, b) -> tuple:
    """Mean and expected log of a Gamma(a, b) variate, (a/b, psi(a) - ln b),
    for scalars or arrays broadcast together."""
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if not (np.all(np.isfinite(a_arr)) and np.all(np.isfinite(b_arr))):
        raise DomainError("gamma_moments requires finite arguments")
    if np.any(a_arr <= 0) or np.any(b_arr <= 0):
        raise DomainError("gamma_moments requires strictly positive arguments")
    mean = a_arr / b_arr
    log_mean = _oracle_digamma(a_arr) - np.log(b_arr)
    if np.isscalar(a) and np.isscalar(b):
        return float(mean), float(log_mean)
    return mean, log_mean


def _parse_cell_by_float(cell: str, line_no: int):
    text = cell.strip()
    if not text:
        raise ParseError(f"line {line_no}: empty cell")
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"line {line_no}: non-numeric cell {cell!r}") from None


def load_matrix_by_cells(path) -> LabeledMatrix:
    """Reference CSV reader: :mod:`csv` records, one ``float()`` per cell.

    The package reads the numbers with numpy's C reader; this keeps the
    per-cell reader it replaced, which differs only in accepting what
    ``float()`` alone accepts (digit-group underscores, non-ASCII digits).
    Both reject a quoted cell still open at the end of the file.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            # one more empty line: a record of no cells, unless a quoted cell is open
            records = csv.reader(itertools.chain(handle, ["\n"]))
            raw_rows = list(enumerate(records, start=1))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    line_no, cells = raw_rows.pop()
    if cells:
        raise ParseError(f"{path}, line {line_no}: unterminated quoted cell")
    while raw_rows and all(not c.strip() for c in raw_rows[-1][1]):
        raw_rows.pop()
    if not raw_rows:
        raise ParseError(f"{path}: no data rows")

    columns = None
    first_line, first_cells = raw_rows[0]
    if all(not c.strip() for c in first_cells):
        raise ParseError(f"line {first_line}: blank row inside {path}")
    header = True  # unless some cell reads as a number
    for cell in first_cells:
        try:
            float(cell)
        except ValueError:
            continue
        header = False
        break
    if header:
        columns = tuple(c.strip() for c in first_cells)
        raw_rows = raw_rows[1:]

    rows = []
    for line_no, cells in raw_rows:
        if all(not c.strip() for c in cells):
            raise ParseError(f"line {line_no}: blank row inside {path}")
        rows.append([_parse_cell_by_float(c, line_no) for c in cells])
        width = len(columns) if columns is not None else len(rows[0])
        if len(rows[-1]) != width:
            raise ParseError(
                f"line {line_no}: ragged row with {len(rows[-1])} cells, "
                f"expected {width}"
            )
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return LabeledMatrix(values=np.array(rows, dtype=float), columns=columns)


def save_matrix_by_cells(path, values, columns=None) -> None:
    """Reference CSV writer: :mod:`csv` rows of ``f"{v:.16e}"`` cells."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        if columns is not None:
            writer.writerow(list(columns))
        for row in values:
            writer.writerow([f"{v:.16e}" for v in row])


def _loglik_terms(y: np.ndarray, x: np.ndarray, precision):
    """Scalar reductions (yPy, xPy, xPx, logdet P, n) for a 1-column design."""
    y = np.asarray(y, dtype=float).ravel()
    x = np.asarray(x, dtype=float).ravel()
    if precision is None:
        py, px = y, x
        logdet_p = 0.0
    elif np.ndim(precision) == 1:
        py, px = precision * y, precision * x
        logdet_p = float(np.sum(np.log(precision)))
    else:
        py, px = precision @ y, precision @ x
        logdet_p = float(np.linalg.slogdet(precision)[1])
    return float(y @ py), float(x @ py), float(x @ px), logdet_p, y.size


def _log_joint_factory(y, x, precision, log_prior, l0=0.0, mu0=0.0):
    """log[likelihood(b, tau) * prior(b, tau)] for a p=1 model."""
    ypy, xpy, xpx, logdet_p, n = _loglik_terms(y, x, precision)
    half_log_2pi = 0.5 * np.log(2.0 * np.pi)

    def log_joint(b, tau):
        quad = ypy - 2.0 * b * xpy + b * b * xpx
        loglik = (
            0.5 * logdet_p
            + 0.5 * n * np.log(tau)
            - n * half_log_2pi
            - 0.5 * tau * quad
        )
        return loglik + log_prior(b, tau)

    # integration geometry: center and width of the conditional b-bump
    center = (xpy + l0 * mu0) / (xpx + l0)
    width = 1.0 / np.sqrt(xpx + l0)
    return log_joint, center, width


def _log_integral_2d(log_joint, center, width):
    """log of the double integral of exp(log_joint) over b in R, tau > 0."""

    def log_inner(tau):
        scale = width / np.sqrt(tau)
        lo, hi = center - 14.0 * scale, center + 14.0 * scale
        shift = max(log_joint(center, tau), log_joint(0.5 * (lo + hi), tau))
        with warnings.catch_warnings():
            # deep-tail evaluations trip quad's roundoff heuristic; the
            # shifted integrand is fine at the 1e-4 oracle tolerance
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, _ = integrate.quad(
                lambda b: np.exp(log_joint(b, tau) - shift), lo, hi,
                epsabs=1e-12, epsrel=1e-10, limit=100,
            )
        return shift + np.log(val) if val > 0 else -np.inf

    # locate the tau bulk on a log grid, then integrate in u = log(tau)
    u_grid = np.linspace(-18.0, 18.0, 121)
    values = np.array([log_inner(np.exp(u)) + u for u in u_grid])
    u_star = u_grid[int(np.argmax(values))]
    peak = float(values.max())
    keep = values > peak - 45.0
    lo = u_grid[max(int(np.argmax(keep)) - 1, 0)]
    hi = u_grid[min(len(u_grid) - int(np.argmax(keep[::-1])), len(u_grid) - 1)]
    val, _ = integrate.quad(
        lambda u: np.exp(log_inner(np.exp(u)) + u - peak),
        lo, hi, epsabs=1e-12, epsrel=1e-10, limit=200, points=[u_star],
    )
    return peak + np.log(val)


def lme_by_quadrature(y, x, prior: NgParams, precision=None) -> float:
    """Brute-force log evidence for a p=1 model under a proper prior."""
    mu0 = float(np.ravel(prior.mu)[0])
    l0 = float(prior.lam[0, 0])
    a0, b0 = float(prior.a), float(np.ravel(prior.b)[0])
    half_log_2pi = 0.5 * np.log(2.0 * np.pi)

    def log_prior(b, tau):
        return (
            0.5 * np.log(tau * l0)
            - half_log_2pi
            - 0.5 * tau * l0 * (b - mu0) ** 2
            + a0 * np.log(b0)
            - float(_oracle_lgamma(a0))
            + (a0 - 1.0) * np.log(tau)
            - b0 * tau
        )

    log_joint, center, width = _log_joint_factory(
        y, x, precision, log_prior, l0=l0, mu0=mu0
    )
    return _log_integral_2d(log_joint, center, width)


def improper_evidence_by_quadrature(y, x, precision=None) -> float:
    """Brute-force log of the improper-prior marginal, density tau**(-1/2).

    The flat-coefficient, Jeffreys-precision prior limit carries a
    tau**(p/2) factor from the conditional coefficient prior, leaving
    tau**(p/2 - 1); with one coefficient that is tau**(-1/2). Only evidence
    *ratios* under this density are meaningful.
    """

    def log_prior(b, tau):
        return -0.5 * np.log(tau)

    log_joint, center, width = _log_joint_factory(y, x, precision, log_prior)
    return _log_integral_2d(log_joint, center, width)


def vb_step_log_space(lme, alpha, alpha0: float) -> np.ndarray:
    """Reference VB fixed-point update for (subjects x models x voxels)
    evidences: the row-softmax of ``lme + psi(alpha) - psi(sum alpha)``,
    max-shifted per subject, summed over subjects."""
    bias = _oracle_digamma(alpha) - _oracle_digamma(alpha.sum(axis=0, keepdims=True))
    logu = lme + bias[None, :, :]
    logu -= logu.max(axis=1, keepdims=True)
    u = np.exp(logu)
    g = u / u.sum(axis=1, keepdims=True)
    return alpha0 + g.sum(axis=0)


def vb_step_sequential(e, alpha, alpha0: float) -> np.ndarray:
    """Reference factorised VB update for the (subjects x models x voxels)
    ``e = exp(lme - max_k lme)``, in plain ufuncs: ``w = exp(psi(alpha) -
    max_k psi(alpha))``, then ``d_n`` and ``sum_n e[n] / d_n`` added term by
    term in model and subject order, one rounding per operation."""
    psi = _oracle_digamma(alpha)
    w = np.exp(psi - psi.max(axis=0))
    d = e[:, 0] * w[0]
    for j in range(1, e.shape[1]):
        d = d + e[:, j] * w[j]
    r = 1.0 / d
    s = r[0] * e[0]
    for i in range(1, e.shape[0]):
        s = s + r[i] * e[i]
    return alpha0 + w * s


def estimate_rfx_log_space(group, alpha0=1.0, tol=1e-4, max_iter=200):
    """Reference VB Dirichlet loop that works in log space throughout.

    Every iteration gathers the active voxels' evidences and exponentiates
    all subjects x models x voxels shifted log-responsibilities. The
    package forms ``exp(lme - max_k lme)`` once and iterates on per-voxel
    model weights; this keeps the loop it replaced, with the same stopping
    rule.
    """
    lme = group.lme
    n, k, v = lme.shape
    alpha = np.full((k, v), float(alpha0))
    converged = np.zeros(v, dtype=bool)
    iterations = np.zeros(v, dtype=np.int64)
    active = np.arange(v)
    for step in range(1, max_iter + 1):
        new_alpha = vb_step_log_space(lme[:, :, active], alpha[:, active], alpha0)
        delta = np.max(np.abs(new_alpha - alpha[:, active]), axis=0)
        alpha[:, active] = new_alpha
        iterations[active] = step
        done = delta < tol
        converged[active[done]] = True
        active = active[~done]
        if active.size == 0:
            break
    return DirichletPosterior(
        alpha=alpha,
        alpha0=alpha0,
        n_subjects=n,
        converged=converged,
        iterations=iterations,
    )


def build_toy_workspace(
    root,
    seed: int = 123,
    n: int = 24,
    v: int = 12,
    s: int = 2,
    n_subjects: int = 5,
    with_group: bool = True,
    with_betas: bool = True,
    with_families: bool = True,
    extra_config: dict | None = None,
):
    """Write a small two-model analysis (CSV inputs plus config) to disk.

    Returns the config path. Model m1 is the generating model; m2 carries
    one extra noise regressor.
    """
    import json
    from pathlib import Path

    from evidencer.dataio import save_matrix

    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    for sess in range(1, s + 1):
        task = rng.normal(size=(n, 1))
        extra = rng.normal(size=(n, 1))
        const = np.ones((n, 1))
        x1 = np.hstack([task, const])
        x2 = np.hstack([task, extra, const])
        beta = np.vstack([rng.normal(size=(1, v)) + 2.0, np.ones((1, v))])
        y = x1 @ beta + rng.normal(scale=0.8, size=(n, v))
        save_matrix(root / f"Y_s{sess}.csv", y)
        save_matrix(root / f"X1_s{sess}.csv", x1)
        save_matrix(root / f"X2_s{sess}.csv", x2)
        for name, x in (("m1", x1), ("m2", x2)):
            estimate = np.linalg.lstsq(x, y, rcond=None)[0][0]
            save_matrix(root / f"beta_{name}_s{sess}.csv", estimate[None, :])

    config = {
        "models": [
            {"name": "m1", "design": [f"X1_s{i}.csv" for i in range(1, s + 1)]},
            {"name": "m2", "design": [f"X2_s{i}.csv" for i in range(1, s + 1)]},
        ],
        "data": [f"Y_s{i}.csv" for i in range(1, s + 1)],
        "precision": "identity",
        "sessions": {"kind": "multi"},
    }
    if with_families:
        config["families"] = {"simple": ["m1"], "rich": ["m2"]}
    if with_betas:
        config["betas"] = {
            "regressor": "task",
            "files": [
                [f"beta_m1_s{i}.csv" for i in range(1, s + 1)],
                [f"beta_m2_s{i}.csv" for i in range(1, s + 1)],
            ],
        }
    if with_group:
        for i in range(n_subjects):
            lme = rng.normal(size=(2, v)) * 3 - 40
            lme[0] += 4.0
            save_matrix(root / f"sub{i}_cvLME.csv", lme)
        config["subjects"] = [
            {"name": f"sub{i}", "cvlme": f"sub{i}_cvLME.csv"}
            for i in range(n_subjects)
        ]
    if extra_config:
        config.update(extra_config)
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    return config_path


def ep_one_voxel(alpha) -> np.ndarray:
    """Integration EPs of one voxel's concentrations, from a one-column
    ``ep_integration_stack`` call."""
    return ep_integration_stack(np.ravel(np.asarray(alpha, dtype=float))[:, None])[0][:, 0]
