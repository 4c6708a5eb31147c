"""Normal-gamma parameter sets and the Cholesky solve of :mod:`evidencer.glm`,
and the tests' KL and Gamma-moment oracles: closed forms vs Monte Carlo."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import gamma_moments, kl_gamma, kl_mvn

from evidencer.errors import DecompositionError, DomainError
from evidencer.glm import NgParams, _chol_solve
from evidencer.special import digamma

EULER_GAMMA = 0.5772156649015329


def random_cov(rng, k, scale=1.0):
    a = rng.normal(size=(k, k))
    return scale * (a @ a.T + k * np.eye(k))


class TestKlMvn:
    def test_self_divergence_is_zero(self):
        rng = np.random.default_rng(3)
        mu = rng.normal(size=4)
        sigma = random_cov(rng, 4)
        assert kl_mvn(mu, sigma, mu, sigma) == pytest.approx(0.0, abs=1e-12)

    def test_unit_shift_1d(self):
        # N(1, 1) vs N(0, 1): half a squared standardized shift
        assert kl_mvn([1.0], [[1.0]], [0.0], [[1.0]]) == pytest.approx(0.5)

    def test_monte_carlo_log_ratio(self):
        # KL is the expected log density ratio under the first distribution
        rng = np.random.default_rng(7)
        k = 3
        mu1, mu2 = rng.normal(size=k), rng.normal(size=k)
        s1, s2 = random_cov(rng, k), random_cov(rng, k)
        draws = rng.multivariate_normal(mu1, s1, size=1_000_000)

        def logpdf(x, mu, sigma):
            diff = x - mu
            solved = np.linalg.solve(sigma, diff.T).T
            _, logdet = np.linalg.slogdet(sigma)
            return -0.5 * (
                np.einsum("ij,ij->i", diff, solved)
                + logdet
                + k * np.log(2 * np.pi)
            )

        ratios = logpdf(draws, mu1, s1) - logpdf(draws, mu2, s2)
        se = ratios.std(ddof=1) / np.sqrt(ratios.size)
        assert abs(kl_mvn(mu1, s1, mu2, s2) - ratios.mean()) < 3 * se

    def test_rotation_invariance(self):
        rng = np.random.default_rng(21)
        k = 4
        mu1, mu2 = rng.normal(size=k), rng.normal(size=k)
        s1, s2 = random_cov(rng, k), random_cov(rng, k)
        base = kl_mvn(mu1, s1, mu2, s2)
        for _ in range(5):
            q, _ = np.linalg.qr(rng.normal(size=(k, k)))
            rotated = kl_mvn(q @ mu1, q @ s1 @ q.T, q @ mu2, q @ s2 @ q.T)
            np.testing.assert_allclose(rotated, base, atol=1e-9, rtol=1e-9)

    def test_nonnegative_on_perturbed_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = int(rng.integers(1, 5))
            mu = rng.normal(size=k)
            sigma = random_cov(rng, k)
            eps = 1e-7 * rng.normal(size=k)
            val = kl_mvn(mu, sigma, mu + eps, sigma)
            assert val >= -1e-12

    def test_names_offending_argument(self):
        bad = -np.eye(2)
        good = np.eye(2)
        with pytest.raises(DecompositionError, match="sigma1"):
            kl_mvn([0, 0], bad, [0, 0], good)
        with pytest.raises(DecompositionError, match="sigma2"):
            kl_mvn([0, 0], good, [0, 0], bad)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            kl_mvn([0.0], np.eye(1), [0.0, 0.0], np.eye(2))

    def test_quadratic_expectation_identity(self):
        # E[x' A x] = mu' A mu + tr(A Sigma) under x ~ N(mu, Sigma)
        rng = np.random.default_rng(13)
        k = 3
        mu = rng.normal(size=k)
        sigma = random_cov(rng, k)
        a = rng.normal(size=(k, k))
        draws = rng.multivariate_normal(mu, sigma, size=1_000_000)
        vals = np.einsum("ij,jk,ik->i", draws, a, draws)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        expected = mu @ a @ mu + np.trace(a @ sigma)
        assert abs(vals.mean() - expected) < 3 * se


class TestKlGamma:
    def test_identical_is_zero(self):
        assert kl_gamma(1.0, 1.0, 1.0, 1.0) == 0.0

    def test_shape_shift(self):
        # KL[Gam(2,1) || Gam(1,1)] collapses to psi(2) = 1 - euler
        assert kl_gamma(2.0, 1.0, 1.0, 1.0) == pytest.approx(
            1.0 - EULER_GAMMA, abs=1e-10
        )

    def test_monte_carlo_log_ratio(self):
        rng = np.random.default_rng(17)
        a1, b1, a2, b2 = 2.7, 1.3, 4.1, 0.8

        def logpdf(x, a, b):
            from scipy.special import gammaln

            return a * np.log(b) - gammaln(a) + (a - 1) * np.log(x) - b * x

        draws = rng.gamma(a1, 1.0 / b1, size=1_000_000)
        ratios = logpdf(draws, a1, b1) - logpdf(draws, a2, b2)
        se = ratios.std(ddof=1) / np.sqrt(ratios.size)
        assert abs(kl_gamma(a1, b1, a2, b2) - ratios.mean()) < 3 * se

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            a1, b1, a2, b2 = rng.uniform(0.2, 8.0, size=4)
            assert kl_gamma(a1, b1, a2, b2) >= -1e-12

    def test_vanishes_only_at_coincidence(self):
        assert kl_gamma(3.0, 2.0, 3.0, 2.0) == pytest.approx(0.0, abs=1e-14)
        assert kl_gamma(3.0, 2.0, 3.0 + 1e-4, 2.0) > 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            kl_gamma(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            kl_gamma(1.0, 1.0, 1.0, -1.0)


class TestGammaMoments:
    def test_unit(self):
        mean, log_mean = gamma_moments(1.0, 1.0)
        assert mean == 1.0
        assert log_mean == pytest.approx(-EULER_GAMMA, abs=1e-10)

    def test_recurrence_case(self):
        mean, log_mean = gamma_moments(3.0, 3.0)
        assert mean == 1.0
        # psi(3) = psi(1) + 1 + 1/2
        expected = -EULER_GAMMA + 1.5 - np.log(3.0)
        assert log_mean == pytest.approx(expected, abs=1e-10)

    def test_monte_carlo(self):
        rng = np.random.default_rng(23)
        a, b = 2.2, 0.7
        draws = rng.gamma(a, 1.0 / b, size=1_000_000)
        mean, log_mean = gamma_moments(a, b)
        se_mean = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - mean) < 3 * se_mean
        logs = np.log(draws)
        se_log = logs.std(ddof=1) / np.sqrt(logs.size)
        assert abs(logs.mean() - log_mean) < 3 * se_log

    def test_array_broadcast(self):
        mean, log_mean = gamma_moments(np.array([1.0, 2.0]), np.array([1.0, 4.0]))
        np.testing.assert_allclose(mean, [1.0, 0.5])
        np.testing.assert_allclose(
            log_mean, [digamma(1.0), digamma(2.0) - np.log(4.0)]
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            gamma_moments(-1.0, 1.0)


class TestNgParams:
    def test_noninformative_roundtrip(self):
        ni = NgParams.noninformative(3)
        assert ni.is_noninformative
        assert not ni.is_proper

    def test_proper_instance(self):
        rng = np.random.default_rng(29)
        params = NgParams(
            mu=rng.normal(size=2), lam=random_cov(rng, 2), a=1.5, b=2.5
        )
        assert params.is_proper
        assert not params.is_noninformative

    def test_rejects_asymmetric_lam(self):
        with pytest.raises(DomainError):
            NgParams(
                mu=np.zeros(2),
                lam=np.array([[1.0, 0.5], [0.3, 1.0]]),
                a=1.0,
                b=1.0,
            )

    def test_rejects_negative_hyperparameters(self):
        with pytest.raises(DomainError):
            NgParams(mu=np.zeros(1), lam=np.eye(1), a=-0.5, b=1.0)

    def test_improper_rejected_by_guard(self):
        ni = NgParams.noninformative(2)
        with pytest.raises(DomainError, match="proper"):
            ni.require_proper("test operation")

    def test_logdet(self):
        params = NgParams(mu=np.zeros(2), lam=np.diag([2.0, 8.0]), a=1.0, b=1.0)
        assert params.logdet_lam() == pytest.approx(np.log(16.0))

    def test_per_voxel_b_needs_one_entry_per_column(self):
        with pytest.raises(DomainError, match="3 voxel columns"):
            NgParams(mu=np.zeros((2, 3)), lam=np.eye(2), a=1.0, b=np.ones(4))

    def test_n_voxels(self):
        shared = NgParams(mu=np.zeros(2), lam=np.eye(2), a=1.0, b=1.0)
        assert shared.n_voxels == 1
        per_voxel = NgParams(mu=np.zeros((2, 3)), lam=np.eye(2), a=1.0, b=np.ones(3))
        assert per_voxel.n_voxels == 3
        # a scalar rate is shared by every column
        assert NgParams(mu=np.zeros((2, 3)), lam=np.eye(2), a=1.0, b=1.0).n_voxels == 3


# constant of the normwise backward-error bound c * p * eps * |lam| |x|
# checked for the Cholesky substitution solve
SOLVE_C = 4.0


class TestCholSolve:
    @settings(max_examples=300, deadline=None)
    @given(
        p=st.integers(1, 8),
        v=st.integers(1, 50),
        log_cond=st.floats(0.0, 8.0),
        log_scale=st.floats(-6.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_residual_and_agreement_with_lu_solve(
        self, p, v, log_cond, log_scale, seed
    ):
        # lam = Q diag(s) Q' with eigenvalues spread over 10^log_cond
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(p, p)))
        s = 10.0 ** (log_scale - log_cond * np.linspace(0.0, 1.0, p))
        lam = (q * s) @ q.T
        lam = 0.5 * (lam + lam.T)
        rhs = rng.normal(size=(p, v)) * 10.0 ** rng.uniform(-3, 3, size=v)
        x = _chol_solve(np.linalg.cholesky(lam), rhs)

        eps = np.finfo(float).eps
        norm_lam = np.linalg.norm(lam, 2)
        norm_x = np.linalg.norm(x, axis=0)
        residual = np.linalg.norm(lam @ x - rhs, axis=0)
        assert np.all(residual <= SOLVE_C * p * eps * norm_lam * norm_x)
        # both solves are backward stable, so each lies within cond(lam)
        # times that backward error of the exact solution
        reference = np.linalg.solve(lam, rhs)
        bound = 2 * SOLVE_C * p * eps * np.linalg.cond(lam)
        error = np.linalg.norm(x - reference, axis=0)
        assert np.all(error <= bound * np.linalg.norm(reference, axis=0))

    def test_solves_a_triangular_system_exactly(self):
        chol = np.array([[2.0, 0.0], [1.0, 4.0]])
        rhs = chol @ chol.T @ np.array([[1.0, -2.0], [3.0, 0.5]])
        np.testing.assert_array_equal(
            _chol_solve(chol, rhs), np.array([[1.0, -2.0], [3.0, 0.5]])
        )
