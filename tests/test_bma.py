"""Posterior model probabilities and both averaging orders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evidencer.bma import (
    BetaStack,
    FamilyPartition,
    PosteriorProbs,
    cv_bma,
    log_family_evidence,
    oos_bma,
    posterior_probabilities,
)
from evidencer.crossval import SessionLayout, cv_lme_models
from evidencer.errors import DomainError
from evidencer.glm import GlmSpec
from evidencer.rfx import GroupLmeStack, ep_integration_stack, estimate_rfx


class TestPosteriorProbabilities:
    def test_tied_models(self):
        pp = posterior_probabilities(np.array([[-50.0], [-50.0]]))
        np.testing.assert_allclose(pp.pp[:, 0], [0.5, 0.5])

    def test_one_nat_gap(self):
        # a single log-unit of evidence difference puts the leader near 0.73
        pp = posterior_probabilities(np.array([[-10.0], [-11.0]]))
        expected = np.exp(1.0) / (np.exp(1.0) + 1.0)
        np.testing.assert_allclose(pp.pp[0, 0], expected, atol=5e-5)
        np.testing.assert_allclose(pp.pp[0, 0], 0.7311, atol=5e-4)

    def test_five_nat_gap(self):
        pp = posterior_probabilities(np.array([[-10.0], [-15.0]]))
        expected = np.exp(5.0) / (np.exp(5.0) + 1.0)
        np.testing.assert_allclose(pp.pp[0, 0], expected, atol=5e-5)
        np.testing.assert_allclose(pp.pp[0, 0], 0.9933, atol=5e-4)

    def test_shift_invariance_exact(self):
        rng = np.random.default_rng(1)
        lme = rng.normal(size=(4, 6)) * 10 - 300
        base = posterior_probabilities(lme)
        for c in (1000.0, -1000.0):
            shifted = posterior_probabilities(lme + c)
            np.testing.assert_allclose(shifted.pp, base.pp, atol=1e-12)

    def test_huge_spread_stays_finite(self):
        lme = np.array([[0.0], [-1400.0]])
        pp = posterior_probabilities(lme)
        assert np.all(np.isfinite(pp.pp))
        np.testing.assert_allclose(pp.pp[0, 0], 1.0)

    def test_single_model_returns_ones(self):
        pp = posterior_probabilities(np.array([[-123.0, -456.0]]))
        np.testing.assert_array_equal(pp.pp, np.ones((1, 2)))

    def test_nonuniform_prior(self):
        lme = np.array([[0.0], [0.0]])
        pp = posterior_probabilities(lme, prior=[0.8, 0.2])
        np.testing.assert_allclose(pp.pp[:, 0], [0.8, 0.2])

    def test_zero_prior_masks_model(self):
        lme = np.array([[0.0], [5.0]])
        pp = posterior_probabilities(lme, prior=[1.0, 0.0])
        np.testing.assert_allclose(pp.pp[:, 0], [1.0, 0.0])

    def test_masked_leader_3000_nats_above_keeps_survivor_odds(self):
        # a zero-prior leader far above every survivor leaves their odds
        lme = np.array([[0.0], [-3000.0], [-3001.0]])
        pp = posterior_probabilities(lme, prior=[0.0, 0.5, 0.5])
        expected = np.exp(1.0) / (np.exp(1.0) + 1.0)
        np.testing.assert_allclose(pp.pp[:, 0], [0.0, expected, 1 - expected])

    def test_masked_leader_does_not_overflow(self):
        # an excluded model far above the rest must not poison the column
        lme = np.array([[0.0], [-1500.0], [-1501.0]])
        pp = posterior_probabilities(lme, prior=[0.0, 0.5, 0.5])
        expected = np.exp(1.0) / (np.exp(1.0) + 1.0)
        np.testing.assert_allclose(pp.pp[:, 0], [0.0, expected, 1 - expected])

    def test_oversized_spread_is_exact(self):
        pp = posterior_probabilities(np.array([[0.0], [-3000.0]]))
        np.testing.assert_array_equal(pp.pp[:, 0], [1.0, 0.0])

    @pytest.mark.parametrize("c", [5000.0, -5000.0])
    def test_shift_invariance_at_5000_nats(self, c):
        # multiples of 1/8 keep lme + c exact, so only the max-shift rule
        # decides whether the probabilities move; one row trails by 3000
        rng = np.random.default_rng(2)
        lme = np.round(rng.normal(size=(4, 6)) * 80) / 8 - 300
        lme[2, :3] -= 3000.0
        base = posterior_probabilities(lme, prior=[0.1, 0.2, 0.3, 0.4])
        shifted = posterior_probabilities(lme + c, prior=[0.1, 0.2, 0.3, 0.4])
        np.testing.assert_array_equal(shifted.pp, base.pp)

    def test_agrees_with_single_family_evidence(self):
        # with one family holding every model and weighted by the prior,
        # p(m|y) = p(m) exp(lme_m - LFE)
        rng = np.random.default_rng(4)
        lme = rng.normal(size=(5, 40)) * 10 - 300
        lme[3, :5] -= 3000.0
        prior = rng.dirichlet(np.ones(5))
        prior[1] = 0.0
        prior /= prior.sum()
        family = FamilyPartition(5, (("all", tuple(range(5))),), (prior,))
        lfe = log_family_evidence(lme, family)
        pp = posterior_probabilities(lme, prior)
        np.testing.assert_allclose(prior[:, None] * np.exp(lme - lfe), pp.pp, rtol=1e-12)

    def test_rejects_bad_prior(self):
        lme = np.zeros((2, 1))
        with pytest.raises(DomainError):
            posterior_probabilities(lme, prior=[0.5, 0.6])
        with pytest.raises(DomainError):
            posterior_probabilities(lme, prior=[1.5, -0.5])

    def test_rejects_nonfinite_lme(self):
        with pytest.raises(DomainError):
            posterior_probabilities(np.array([[np.inf], [0.0]]))

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-1000.0, max_value=1000.0))
    def test_shift_invariance_property(self, c):
        lme = np.array([[-3.0, -1.0], [-4.0, -9.0], [-5.0, -2.0]])
        base = posterior_probabilities(lme)
        shifted = posterior_probabilities(lme + c)
        np.testing.assert_allclose(shifted.pp, base.pp, atol=1e-12)


class TestCvBma:
    def test_degenerate_probability(self):
        betas = BetaStack(beta=np.array([[[3.0]], [[7.0]]]))
        pp = PosteriorProbs(pp=np.array([[1.0], [0.0]]))
        np.testing.assert_allclose(cv_bma(betas, pp), [3.0])

    def test_even_blend(self):
        betas = BetaStack(beta=np.array([[[2.0]], [[4.0]]]))
        pp = PosteriorProbs(pp=np.array([[0.5], [0.5]]))
        np.testing.assert_allclose(cv_bma(betas, pp), [3.0])

    def test_two_sessions_hand_value(self):
        # model 1 sessions (1, 3), model 2 sessions (2, 6); session means
        # (2, 4); weights (0.75, 0.25) -> 2.5
        betas = BetaStack(beta=np.array([[[1.0], [3.0]], [[2.0], [6.0]]]))
        pp = PosteriorProbs(pp=np.array([[0.75], [0.25]]))
        np.testing.assert_allclose(cv_bma(betas, pp), [2.5])

    def test_convex_hull(self):
        rng = np.random.default_rng(3)
        m, s, v = 4, 3, 10
        betas = BetaStack(beta=rng.normal(size=(m, s, v)))
        lme = rng.normal(size=(m, v))
        pp = posterior_probabilities(lme)
        out = cv_bma(betas, pp)
        means = betas.beta.mean(axis=1)
        assert np.all(out <= means.max(axis=0) + 1e-12)
        assert np.all(out >= means.min(axis=0) - 1e-12)

    def test_memory_order_changes_no_bit(self):
        # the stacks hold C-ordered arrays, so the session mean and the sum
        # over models add in one order whatever the caller's layout
        rng = np.random.default_rng(30)
        beta = rng.normal(size=(3, 4, 1000))
        pp = rng.dirichlet(np.ones(3), size=1000).T
        base = cv_bma(BetaStack(beta=beta), PosteriorProbs(pp=pp))
        ours = cv_bma(
            BetaStack(beta=np.asfortranarray(beta)), PosteriorProbs(pp=np.asfortranarray(pp))
        )
        np.testing.assert_array_equal(ours, base)

    def test_axis_mismatch(self):
        betas = BetaStack(beta=np.zeros((2, 2, 3)))
        pp = PosteriorProbs(pp=np.full((3, 3), 1 / 3))
        with pytest.raises(DomainError):
            cv_bma(betas, pp)


class TestOosBma:
    def test_constant_probabilities_bridge_to_cv(self):
        rng = np.random.default_rng(5)
        m, s, v = 3, 4, 6
        betas = BetaStack(beta=rng.normal(size=(m, s, v)))
        pp = posterior_probabilities(rng.normal(size=(m, v)))
        bridged = oos_bma(betas, [pp] * s)
        np.testing.assert_allclose(bridged, cv_bma(betas, pp), atol=1e-12)

    def test_single_session_equals_cv(self):
        rng = np.random.default_rng(7)
        betas = BetaStack(beta=rng.normal(size=(2, 1, 5)))
        pp = posterior_probabilities(rng.normal(size=(2, 5)))
        np.testing.assert_allclose(
            oos_bma(betas, [pp]), cv_bma(betas, pp), atol=1e-14
        )

    def test_two_session_hand_value(self):
        # per-session blends: (0.73*1 + 0.27*2) and (0.73*3 + 0.27*6),
        # averaged: 2.54
        betas = BetaStack(beta=np.array([[[1.0], [3.0]], [[2.0], [6.0]]]))
        pp = PosteriorProbs(pp=np.array([[0.73], [0.27]]))
        out = oos_bma(betas, [pp, pp])
        hand = 0.5 * ((0.73 * 1 + 0.27 * 2) + (0.73 * 3 + 0.27 * 6))
        np.testing.assert_allclose(out, [hand])
        np.testing.assert_allclose(out, [2.54])

    def test_requires_one_pp_per_session(self):
        betas = BetaStack(beta=np.zeros((2, 3, 4)))
        pp = PosteriorProbs(pp=np.full((2, 4), 0.5))
        with pytest.raises(DomainError):
            oos_bma(betas, [pp, pp])


class TestEntryChecks:
    def test_beta_matrix_is_one_voxel(self):
        beta = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])  # models x sessions
        stack = BetaStack(beta=beta)
        assert stack.beta.shape == (3, 2, 1)
        np.testing.assert_array_equal(stack.beta[:, :, 0], beta)

    @pytest.mark.parametrize("shape", [(3,), (3, 2, 1, 1)])
    def test_beta_rejects_other_dimension_counts(self, shape):
        named = r"^beta must be \(models, sessions, voxels\)$"
        with pytest.raises(DomainError, match=named):
            BetaStack(beta=np.zeros(shape))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_beta_rejects_non_finite_estimates(self, value):
        beta = np.zeros((2, 2, 3))
        beta[1, 0, 2] = value
        with pytest.raises(DomainError, match="^parameter estimates must be finite$"):
            BetaStack(beta=beta)

    def test_probabilities_must_be_non_negative(self):
        with pytest.raises(DomainError, match="must be non-negative$"):
            PosteriorProbs(pp=np.array([[1.5, 0.5], [-0.5, 0.5]]))

    def test_probabilities_must_sum_to_one_per_voxel(self):
        with pytest.raises(DomainError, match="must sum to 1 per voxel$"):
            PosteriorProbs(pp=np.array([[0.5, 0.5], [0.5, 0.4]]))

    def test_family_evidence_reads_a_vector_as_one_voxel(self):
        partition = FamilyPartition.from_mapping(3, {"a": (0, 1), "b": (2,)})
        lme = np.array([-1.0, -3.0, -2.0])
        np.testing.assert_array_equal(
            log_family_evidence(lme, partition), log_family_evidence(lme[:, None], partition)
        )

    def test_family_evidence_needs_one_row_per_model(self):
        partition = FamilyPartition.from_mapping(3, {"a": (0, 1), "b": (2,)})
        named = "^evidence matrix has 2 rows but the partition covers 3 models$"
        with pytest.raises(DomainError, match=named):
            log_family_evidence(np.zeros((2, 4)), partition)

    def test_vector_is_one_voxel(self):
        lme = np.array([-1.0, -3.0, -2.0])
        column = posterior_probabilities(lme[:, None]).pp
        assert column.shape == (3, 1)
        np.testing.assert_array_equal(posterior_probabilities(lme).pp, column)
        np.testing.assert_array_equal(PosteriorProbs(pp=column[:, 0]).pp, column)

    def test_one_voxel_averages_from_its_evidence_vector(self):
        lme = np.array([-1.0, -3.0])
        beta = np.array([[1.0, 2.0], [3.0, 5.0]])  # models x sessions
        averaged = cv_bma(BetaStack(beta=beta), posterior_probabilities(lme))
        reference = cv_bma(
            BetaStack(beta=beta[:, :, None]), posterior_probabilities(lme[:, None])
        )
        np.testing.assert_array_equal(averaged, reference)
        pp = np.exp(2.0) / (np.exp(2.0) + 1.0)
        np.testing.assert_allclose(averaged, [1.5 * pp + 4.0 * (1.0 - pp)], rtol=1e-14)

    def test_three_dimensional_evidences_are_rejected(self):
        lme = np.zeros((2, 3, 1))
        named = r"^lme must be \(models, voxels\)$"
        with pytest.raises(DomainError, match=named):
            posterior_probabilities(lme)
        with pytest.raises(DomainError, match=named):
            log_family_evidence(lme, FamilyPartition.from_mapping(2, {"a": (0,), "b": (1,)}))
        with pytest.raises(DomainError, match=r"^pp must be \(models, voxels\)$"):
            PosteriorProbs(pp=np.full((2, 1, 1), 0.5))


def _no_voxel_cv_lme():
    x = np.random.default_rng(3).normal(size=(20, 2))
    specs = [GlmSpec(Y=np.empty((10, 0)), X=x[:10]), GlmSpec(Y=np.empty((10, 0)), X=x[10:])]
    return cv_lme_models({"m0": specs, "m1": specs}, SessionLayout.from_counts([10, 10])).cv_lme


@pytest.mark.parametrize(
    "run",
    [
        _no_voxel_cv_lme,
        lambda: posterior_probabilities(np.empty((2, 0))).pp,
        lambda: log_family_evidence(
            np.empty((2, 0)), FamilyPartition.from_mapping(2, {"f": (0, 1)})
        ),
        lambda: cv_bma(BetaStack(np.empty((2, 3, 0))), PosteriorProbs(np.empty((2, 0))))[None],
        lambda: estimate_rfx(GroupLmeStack(np.empty((3, 2, 0)), ("s1", "s2", "s3"))).alpha,
        lambda: ep_integration_stack(np.empty((2, 0)))[0],
    ],
    ids=["cv_lme_models", "posterior_probabilities", "log_family_evidence", "cv_bma",
         "estimate_rfx", "ep_integration_stack"],
)
def test_no_voxels_give_empty_results(run):
    # every voxel-wise stage maps a (..., 0) input to a (k, 0) result
    out = run()
    assert out.shape[1] == 0 and out.shape[0] >= 1
