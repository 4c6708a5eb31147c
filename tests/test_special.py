"""Special functions: reference values, recurrences, and tail quantiles.

Frozen expected values were computed with mpmath at 30 decimal digits;
integral oracles use scipy's adaptive quadrature over the target density,
which shares no code path with the functions under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import special as sp

from evidencer.errors import DomainError
from evidencer.special import (
    digamma,
    gamma_tail_quantiles,
    log_gamma,
    reg_lower_incomplete_gamma,
)

EULER_GAMMA = 0.5772156649015329


def gamma_pdf(q, shape):
    with np.errstate(divide="ignore"):
        return np.exp((shape - 1.0) * np.log(q) - q - log_gamma(shape))


class TestLogGamma:
    def test_integer_anchors(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0

    def test_half(self):
        # ln Gamma(1/2) = ln sqrt(pi); mpmath reference
        np.testing.assert_allclose(
            log_gamma(0.5), 0.5723649429247001, rtol=1e-12
        )

    def test_accuracy_against_reference(self):
        # reference values from mpmath.loggamma at 30 digits
        cases = {
            1e-3: 6.9071788853838537,
            0.25: 1.2880225246980775,
            3.75: 1.4868155785934171,
            142.5: 562.6460872862025,
            1e6: 12815504.569147612,
        }
        for x, expected in cases.items():
            np.testing.assert_allclose(log_gamma(x), expected, rtol=1e-12)

    def test_rejects_bad_input(self):
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(DomainError):
                log_gamma(bad)

    def test_array_input(self):
        out = log_gamma(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out, [0.0, 0.0, np.log(2.0)])


class TestDigamma:
    def test_euler_mascheroni(self):
        np.testing.assert_allclose(digamma(1.0), -EULER_GAMMA, atol=1e-10)
        np.testing.assert_allclose(digamma(2.0), 1.0 - EULER_GAMMA, atol=1e-10)

    def test_asymptotic_at_large_argument(self):
        # psi(x) ~ ln x - 1/(2x) - 1/(12 x^2) for large x
        x = 1e6
        expected = np.log(x) - 1.0 / (2.0 * x) - 1.0 / (12.0 * x**2)
        np.testing.assert_allclose(digamma(x), expected, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e6))
    def test_recurrence(self, x):
        np.testing.assert_allclose(
            digamma(x + 1.0) - digamma(x), 1.0 / x, atol=1e-10, rtol=1e-10
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            digamma(0.0)
        with pytest.raises(DomainError):
            digamma(-2.5)


class TestScalarPath:
    """Scalar ln Gamma and psi come from the standard library, arrays from
    scipy; the two must agree to a few ulps wherever the package evaluates
    them (Gamma shapes are half-integers in the first level)."""

    @staticmethod
    def arguments():
        rng = np.random.default_rng(2018)
        return np.concatenate(
            [
                np.arange(1, 4001) / 2.0,  # half-integers 0.5 ... 2000
                np.exp(rng.uniform(np.log(1e-6), np.log(1e7), 20_000)),
                np.linspace(1.40, 1.52, 4001),  # around psi's root at 1.4616
            ]
        )

    @pytest.mark.parametrize(
        "scalar, reference", [(log_gamma, sp.gammaln), (digamma, sp.psi)]
    )
    def test_matches_scipy(self, scalar, reference):
        x = self.arguments()
        expected = reference(x)
        got = np.array([scalar(float(v)) for v in x])
        np.testing.assert_array_less(
            np.abs(got - expected), 4e-15 * np.maximum(1.0, np.abs(expected))
        )

    @pytest.mark.parametrize("function", [log_gamma, digamma])
    def test_scalar_kinds_share_one_path(self, function):
        for x in (1e-6, 0.5, 1.4616321449683623, 3.75, 142.5, 1e7):
            results = [function(v) for v in (x, np.float64(x), np.array(x))]
            assert all(type(r) is float for r in results)
            assert results[0] == results[1] == results[2]

    def test_scalar_log_gamma_is_the_standard_library(self):
        for x in (0.5, 12.5, 300.0, 1e6):
            assert log_gamma(x) == math.lgamma(x)

    @pytest.mark.parametrize("function", [log_gamma, digamma])
    def test_one_element_array_stays_an_array(self, function):
        out = function(np.array([2.5]))
        assert isinstance(out, np.ndarray) and out.shape == (1,)
        assert out[0] == function(np.array([2.5, 7.0]))[0]

    @pytest.mark.parametrize("function", [log_gamma, digamma])
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_bad_scalar_raises(self, function, bad):
        for kind in (float, np.float64, np.array):
            with pytest.raises(DomainError):
                function(kind(bad))

    @pytest.mark.parametrize(
        "function, reference", [(log_gamma, sp.gammaln), (digamma, sp.psi)]
    )
    def test_arrays_are_scipy_bit_for_bit(self, function, reference):
        # arrays go to the ufunc as they are, without a copy or a check
        x = self.arguments()
        np.testing.assert_array_equal(function(x), reference(x))
        block = x[:28_000].reshape(4, -1)
        np.testing.assert_array_equal(function(block), reference(block))


class TestRegLowerIncompleteGamma:
    def test_exponential_cdf(self):
        np.testing.assert_allclose(
            reg_lower_incomplete_gamma(1.0, 1.0), 1.0 - np.exp(-1.0), rtol=1e-12
        )

    def test_zero(self):
        assert reg_lower_incomplete_gamma(3.2, 0.0) == 0.0

    def test_against_quadrature_oracle(self):
        # adaptive quadrature of the Gamma density, frozen from a direct run
        a, x = 2.5, 3.7
        oracle, err = integrate.quad(
            lambda t: gamma_pdf(t, a), 0.0, x, epsabs=1e-14, epsrel=1e-14
        )
        assert err < 1e-12
        np.testing.assert_allclose(
            reg_lower_incomplete_gamma(a, x), oracle, atol=1e-10
        )
        np.testing.assert_allclose(oracle, 0.8074495669206042, atol=1e-12)

    def test_monotone_and_saturating(self):
        rng = np.random.default_rng(11)
        for a in rng.uniform(0.2, 30.0, size=8):
            xs = np.linspace(0.0, 50.0 * a, 400)
            vals = reg_lower_incomplete_gamma(a, xs)
            assert np.all(np.diff(vals) >= 0)
            assert vals[-1] > 1.0 - 1e-12
            assert np.all((vals >= 0) & (vals <= 1))


class TestGammaMomentsByMonteCarlo:
    """The digamma function as the mean log of Gamma draws."""

    def test_monte_carlo_gamma_moments(self):
        # 1e6 draws reproduce the Gamma mean and mean-log within 3 SE
        rng = np.random.default_rng(2024)
        a, b = 3.7, 1.9
        draws = rng.gamma(a, 1.0 / b, size=1_000_000)
        mean_se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - a / b) < 3 * mean_se
        logs = np.log(draws)
        log_se = logs.std(ddof=1) / np.sqrt(draws.size)
        assert abs(logs.mean() - (digamma(a) - np.log(b))) < 3 * log_se


def domain_integral(shape, power, tail=1e-12):
    """The integral of ``x^power`` times the Gamma(shape, 1) density between
    the two tail quantiles, by adaptive quadrature."""
    lower, upper = gamma_tail_quantiles(shape, tail)
    points = [shape - 1.0] if lower < shape - 1.0 < upper else None
    value, _ = integrate.quad(
        lambda q: q**power * gamma_pdf(q, shape), lower, upper,
        points=points, epsabs=1e-13, epsrel=1e-12, limit=400,
    )
    return value


class TestGammaQuadrature:
    """The Gamma tail quantiles that bound each exceedance integration."""

    def test_domain_matches_exponential_quantile(self):
        lower, upper = gamma_tail_quantiles(1.0, 1e-12)
        np.testing.assert_allclose(lower, -np.log1p(-1e-12), rtol=1e-9)
        np.testing.assert_allclose(upper, -np.log(1e-12), rtol=1e-9)

    @pytest.mark.parametrize("shape", [0.5, 1.0, 2.5, 7.0, 40.0, 300.0])
    def test_density_normalization(self, shape):
        np.testing.assert_allclose(domain_integral(shape, 0), 1.0, atol=1e-10)

    @pytest.mark.parametrize("shape", [0.5, 1.0, 2.5, 7.0, 40.0, 300.0])
    def test_mean_recovery(self, shape):
        np.testing.assert_allclose(domain_integral(shape, 1), shape, atol=1e-8)

    def test_rule_invariants(self):
        lower, upper = gamma_tail_quantiles(3.0, 1e-12)
        assert 0.0 < lower < 2.0 < upper
        np.testing.assert_allclose(reg_lower_incomplete_gamma(3.0, lower), 1e-12, rtol=1e-9)

    def test_grid_rows_are_the_single_shape_rules(self):
        shapes = np.array([0.001, 0.3, 1.0, 7.0, 300.0])
        lower, upper = gamma_tail_quantiles(shapes, 1e-12)
        assert lower.shape == upper.shape == (5,)
        # at shape 0.001 the lower quantile, about 1e-12000, underflows
        assert lower[0] == 0.0 and np.all(lower[1:] > 0)
        for i, shape in enumerate(shapes):
            row = gamma_tail_quantiles(np.array([shape]), 1e-12)
            np.testing.assert_array_equal(row, [lower[i:i + 1], upper[i:i + 1]])

