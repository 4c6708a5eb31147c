"""Group-level selection: variational fixed point and exceedance methods."""

import warnings

import numpy as np
import pytest
from helpers import (
    ep_beta_closed_form,
    ep_one_voxel,
    ep_sampling,
    estimate_rfx_log_space,
    vb_step_log_space,
    vb_step_sequential,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import evidencer.rfx as rfx
from evidencer.errors import DomainError, NumericalError
from evidencer.rfx import (
    DirichletPosterior,
    GroupLmeStack,
    ep_integration_stack,
    estimate_rfx,
)


def stack(lme):
    lme = np.asarray(lme, dtype=float)
    ids = tuple(f"s{i}" for i in range(lme.shape[0]))
    return GroupLmeStack(lme=lme, subject_ids=ids)


class TestEstimateRfx:
    def test_symmetric_fixed_point(self):
        n, k, v = 6, 4, 3
        post = estimate_rfx(stack(np.zeros((n, k, v))))
        np.testing.assert_allclose(post.alpha, 1.0 + n / k, atol=1e-12)
        assert post.converged.all()

    def test_dominance_saturation(self):
        n, k = 8, 3
        lme = np.zeros((n, k, 2))
        lme[:, 1, :] = 50.0
        post = estimate_rfx(stack(lme))
        np.testing.assert_allclose(post.alpha[1], 1.0 + n, atol=1e-6)
        np.testing.assert_allclose(post.alpha[0], 1.0, atol=1e-6)
        np.testing.assert_allclose(post.alpha[2], 1.0, atol=1e-6)

    def test_per_subject_shift_invariance(self):
        rng = np.random.default_rng(2)
        lme = rng.normal(size=(5, 3, 4)) * 5
        shifts = rng.normal(size=(5, 1, 4)) * 300
        base = estimate_rfx(stack(lme))
        shifted = estimate_rfx(stack(lme + shifts))
        np.testing.assert_allclose(shifted.alpha, base.alpha, atol=1e-10)

    def test_memory_order_changes_no_bit(self):
        # the stack is held C-ordered, so a Fortran-ordered array's VB loop
        # adds each voxel's terms in the same order
        rng = np.random.default_rng(3)
        lme = rng.normal(size=(20, 3, 3001)) * 3 - 40
        c, f = (estimate_rfx(stack(a)) for a in (lme, np.asfortranarray(lme)))
        for name in ("alpha", "iterations", "converged"):
            np.testing.assert_array_equal(getattr(f, name), getattr(c, name))

    def test_mass_conservation_every_iteration(self):
        # re-run the update by hand and check the mass after each step
        rng = np.random.default_rng(4)
        lme = rng.normal(size=(7, 4, 1)) * 3
        alpha0 = 0.8
        alpha = np.full((4, 1), alpha0)
        from evidencer.special import digamma

        for _ in range(30):
            bias = digamma(alpha) - digamma(alpha.sum(0, keepdims=True))
            logu = lme + bias[None]
            logu -= logu.max(axis=1, keepdims=True)
            u = np.exp(logu)
            g = u / u.sum(axis=1, keepdims=True)
            alpha = alpha0 + g.sum(axis=0)
            np.testing.assert_allclose(
                alpha.sum(axis=0), 4 * alpha0 + 7, atol=1e-10
            )
        post = estimate_rfx(stack(lme), alpha0=alpha0)
        np.testing.assert_allclose(
            post.alpha.sum(axis=0), 4 * alpha0 + 7, atol=1e-10
        )

    def test_argmax_stability_under_shifts(self):
        rng = np.random.default_rng(6)
        lme = rng.normal(size=(6, 5, 8)) * 4
        shifts = rng.uniform(-800, 800, size=(6, 1, 8))
        a = estimate_rfx(stack(lme)).alpha
        b = estimate_rfx(stack(lme + shifts)).alpha
        np.testing.assert_array_equal(a.argmax(axis=0), b.argmax(axis=0))

    def test_nonconvergence_flagged_not_fatal(self):
        rng = np.random.default_rng(8)
        lme = rng.normal(size=(12, 3, 2)) * 2
        post = estimate_rfx(stack(lme), tol=1e-13, max_iter=2)
        assert post.converged.shape == (2,)
        assert not post.converged.any()
        assert post.iterations.max() == 2

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(2, 8),
        n=st.integers(2, 30),
        sd=st.floats(1.0, 5000.0),
        alpha0=st.floats(1e-3, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_log_space_loop(self, k, n, sd, alpha0, seed):
        lme = np.random.default_rng(seed).normal(scale=sd, size=(n, k, 6))
        post = estimate_rfx(stack(lme), alpha0=alpha0)
        reference = estimate_rfx_log_space(stack(lme), alpha0=alpha0)
        np.testing.assert_array_equal(post.iterations, reference.iterations)
        np.testing.assert_array_equal(post.converged, reference.converged)
        np.testing.assert_allclose(post.alpha, reference.alpha, rtol=1e-10, atol=0)

    def test_underflowed_normalizer_takes_log_space_step(self):
        # voxel 0: psi(1e-4) - psi(50) is about -1e4, so w_1 underflows,
        # and subject 0's model-2 evidence is 1000 nats down, so its
        # e[0, 1] does too: d_0 = 0. Voxel 1 keeps the factorised step.
        lme = np.zeros((3, 2, 2))
        lme[0, 1, 0] = -1000.0
        lme[:, :, 1] = [[0.0, -1.0], [-2.0, 0.5], [1.0, 0.0]]
        alpha = np.array([[1e-4, 2.0], [50.0, 3.0]])
        e = np.exp(lme - lme.max(axis=1, keepdims=True))
        w = np.exp(special.digamma(alpha[:, 0]) - special.digamma(alpha[:, 0]).max())
        assert e[0, :, 0] @ w == 0.0
        step, logged = rfx._vb_step(alpha, e, lme, np.arange(2), alpha0=1e-4)
        assert logged == 1
        assert np.all(np.isfinite(step))
        np.testing.assert_allclose(
            step, vb_step_log_space(lme, alpha, 1e-4), rtol=1e-14, atol=0
        )

    def test_input_validation(self):
        with pytest.raises(DomainError):
            GroupLmeStack(lme=np.zeros((1, 3, 2)), subject_ids=("a",))
        with pytest.raises(DomainError):
            GroupLmeStack(lme=np.full((3, 2, 1), np.nan), subject_ids=("a", "b", "c"))
        with pytest.raises(DomainError):
            estimate_rfx(stack(np.zeros((3, 2, 1))), alpha0=0.0)

    @pytest.mark.parametrize(
        "argument, value",
        [
            ("max_iter", 0),
            ("max_iter", -5),
            ("max_iter", 2.5),
            ("max_iter", 10**30),
            ("max_iter", True),
            ("tol", float("nan")),
            ("alpha0", float("nan")),
            ("alpha0", float("inf")),
            ("alpha0", 1e-310),
            ("alpha0", 1e308),
        ],
    )
    def test_bad_argument_is_named(self, argument, value):
        with pytest.raises(DomainError, match=f"^{argument} must be"):
            estimate_rfx(stack(np.zeros((3, 2, 1))), **{argument: value})


def split_case():
    """Voxels for the block and slice checks: moderate evidences; ten
    voxels whose evidences spread past 750 nats, so terms of
    ``exp(lme - max_k lme)`` underflow to zero; and voxel 25, near-flat,
    which converges strictly last, so the active set shrinks to it alone."""
    lme = np.random.default_rng(19).normal(scale=2.0, size=(12, 3, 40))
    lme[:, :, 10:20] *= 500.0
    lme[:, :, 25] *= 0.02
    return stack(lme)


def assert_same_bits(post, reference):
    np.testing.assert_array_equal(post.alpha, reference.alpha)
    np.testing.assert_array_equal(post.iterations, reference.iterations)
    np.testing.assert_array_equal(post.converged, reference.converged)


# a max_iter at which a few of slot_case's voxels are still moving
SLOT_MAX_ITER = 30


def slot_case():
    """24 voxels whose evidence scales, from near-flat to spreads past 750
    nats, make them stop from the second step to the 63rd in an order that
    interleaves their block positions."""
    rng = np.random.default_rng(0)
    lme = rng.normal(scale=2.0, size=(12, 3, 24))
    lme *= rng.choice([0.05, 1.0, 20.0, 500.0], size=24)
    return stack(lme)


def active_sets(monkeypatch, group, voxels):
    """The voxel indices, in slot order, that each fixed-point step of
    ``estimate_rfx`` runs at blocks of ``voxels`` voxels."""
    steps = []
    vb_step = rfx._vb_step

    def spy(alpha, e, lme, active, alpha0):
        if np.unique(active).size == active.size:  # not the lone-voxel pair
            steps.append(active.copy())
        return vb_step(alpha, e, lme, active, alpha0)

    with monkeypatch.context() as patch:
        patch.setattr(rfx, "_vb_step", spy)
        patch.setattr(rfx, "_VB_BLOCK_BYTES", voxels * 8 * group.n_subjects * group.n_models)
        estimate_rfx(group)
    return steps


class TestBlocks:
    """A voxel's fixed point gives the same bits whatever block or slice it
    runs in; CI runs this class at two BLAS threads as well."""

    def test_case_covers_the_edges(self):
        group = split_case()
        spread = np.ptp(group.lme, axis=1).max(axis=0)
        assert (spread > 750.0).sum() == 10
        iterations = estimate_rfx(group).iterations
        assert np.flatnonzero(iterations == iterations.max()).tolist() == [25]
        assert not estimate_rfx(group, max_iter=3).converged.all()

    @pytest.mark.parametrize("max_iter", [200, 3, 1])
    @pytest.mark.parametrize("voxels", [1, 2, 7])
    def test_blocks_change_no_bit(self, monkeypatch, voxels, max_iter):
        group = split_case()
        whole = estimate_rfx(group, max_iter=max_iter)
        bytes_per_voxel = 8 * group.n_subjects * group.n_models
        monkeypatch.setattr(rfx, "_VB_BLOCK_BYTES", voxels * bytes_per_voxel)
        assert_same_bits(estimate_rfx(group, max_iter=max_iter), whole)

    @pytest.mark.parametrize("max_iter", [200, 3, 1])
    @pytest.mark.parametrize("width", [1, 3, 17])
    def test_slices_concatenate_to_the_whole_call(self, width, max_iter):
        group = split_case()
        whole = estimate_rfx(group, max_iter=max_iter)
        parts = [
            estimate_rfx(stack(group.lme[:, :, lo : lo + width]), max_iter=max_iter)
            for lo in range(0, group.n_voxels, width)
        ]
        joined = DirichletPosterior(
            alpha=np.concatenate([p.alpha for p in parts], axis=1),
            alpha0=1.0,
            converged=np.concatenate([p.converged for p in parts]),
            iterations=np.concatenate([p.iterations for p in parts]),
        )
        assert_same_bits(joined, whole)

    @pytest.mark.parametrize("voxels", [1, 4, 9])
    def test_block_that_stops_at_one_step(self, monkeypatch, voxels):
        # copies of one voxel all stop at the same step, so a block's active
        # set empties in a single compaction
        one = split_case().lme[:, :, 25:26]
        group = stack(np.repeat(one, 9, axis=2))
        single = estimate_rfx(stack(one))
        bytes_per_voxel = 8 * group.n_subjects * group.n_models
        monkeypatch.setattr(rfx, "_VB_BLOCK_BYTES", voxels * bytes_per_voxel)
        post = estimate_rfx(group)
        assert single.converged.all() and single.iterations[0] > 1
        assert_same_bits(
            post,
            DirichletPosterior(
                alpha=np.repeat(single.alpha, 9, axis=1),
                alpha0=1.0,
                converged=np.repeat(single.converged, 9),
                iterations=np.repeat(single.iterations, 9),
            ),
        )

    @pytest.mark.parametrize("width", [1, 2, 7])
    def test_log_space_step_changes_no_bit(self, monkeypatch, width):
        # from its uniform start the fixed point keeps every normalizer far
        # above the underflow guard, so the log-space step is reached here
        # from set concentrations: psi(1e-4) is about -1e4, so a model with
        # concentration 1e-4 has w = 0, and a subject that prefers it with
        # its other models over 710 nats down has d_n below the guard
        rng = np.random.default_rng(7)
        lme = rng.normal(scale=400.0, size=(12, 3, 17))
        alpha = np.where(rng.random((3, 17)) < 0.3, 1e-4, rng.uniform(0.5, 8.0, (3, 17)))
        e = np.exp(lme - lme.max(axis=1, keepdims=True))
        logged = []
        log_space_step = rfx._log_space_step

        def spy(lme, alpha, alpha0):
            logged.append(lme.shape[2])
            return log_space_step(lme, alpha, alpha0)

        monkeypatch.setattr(rfx, "_log_space_step", spy)
        whole, count = rfx._vb_step(alpha, e, lme, np.arange(17), 1e-4)
        assert logged and 0 < sum(logged) < 17
        assert count == sum(logged)
        parts = [
            rfx._vb_step(alpha[:, lo : lo + width], e[:, :, lo : lo + width], lme,
                         np.arange(lo, min(lo + width, 17)), 1e-4)[0]
            for lo in range(0, 17, width)
        ]
        np.testing.assert_array_equal(np.concatenate(parts, axis=1), whole)

    @pytest.mark.parametrize("width", [1, 2, 3, 17, 4369])
    def test_vb_step_width_changes_no_bit(self, width):
        # 4,369 voxels fill a block at 20 subjects x 3 models; 4,400 leave a
        # 31-voxel remainder at that width. Parts are C-ordered copies, as
        # estimate_rfx's blocks start: einsum reduces a lone contiguous voxel
        # with another loop and other bits. Once voxels stop, a block is a
        # prefix view (test_vb_step_on_a_prefix_view_changes_no_bit)
        rng = np.random.default_rng(23)
        lme = rng.normal(scale=3.0, size=(20, 3, 4400))
        alpha = rng.uniform(0.5, 12.0, (3, 4400))
        e = np.exp(lme - lme.max(axis=1, keepdims=True))
        whole, logged = rfx._vb_step(alpha, e, lme, np.arange(4400), 1.0)
        assert logged == 0
        parts = [
            rfx._vb_step(alpha[:, lo : lo + width], e[:, :, lo : lo + width].copy(),
                         lme, np.arange(lo, min(lo + width, 4400)), 1.0)[0]
            for lo in range(0, 4400, width)
        ]
        np.testing.assert_array_equal(np.concatenate(parts, axis=1), whole)
        reference = vb_step_sequential(e, alpha, 1.0)
        assert np.all(np.abs(whole - reference) <= 4 * np.spacing(reference))

    @pytest.mark.parametrize("width", [1, 2, 3, 31, 4000])
    def test_vb_step_on_a_prefix_view_changes_no_bit(self, width):
        # after a stop, estimate_rfx steps on e[:, :, :left] and
        # current[:, :left] of wider arrays; the slot fill rests on einsum
        # giving those views the bits of C-ordered copies
        rng = np.random.default_rng(29)
        lme = rng.normal(scale=3.0, size=(20, 3, 4400))
        alpha = rng.uniform(0.5, 12.0, (3, 4400))
        e = np.exp(lme - lme.max(axis=1, keepdims=True))
        voxels = np.arange(width)
        view, logged = rfx._vb_step(alpha[:, :width], e[:, :, :width], lme, voxels, 1.0)
        copy, _ = rfx._vb_step(alpha[:, :width].copy(), e[:, :, :width].copy(), lme,
                               voxels, 1.0)
        assert logged == 0
        np.testing.assert_array_equal(view, copy)

    def test_slot_fill_case_covers_the_edges(self, monkeypatch):
        # in one 24-voxel block, voxels stop interleaved, so stopped slots
        # fall below the still-moving count and voxels from above fill them
        group = slot_case()
        steps = active_sets(monkeypatch, group, voxels=group.n_voxels)
        moves = np.zeros(group.n_voxels, dtype=int)
        for before, after in zip(steps, steps[1:]):
            slot = {voxel: i for i, voxel in enumerate(before.tolist())}
            moved = [voxel for i, voxel in enumerate(after.tolist()) if slot[voxel] != i]
            moves[moved] += 1
        assert moves.max() >= 2  # some voxel moves twice
        assert steps[-1].size == 1  # a lone voxel ends the block
        unconverged = (~estimate_rfx(group, max_iter=SLOT_MAX_ITER).converged).sum()
        assert 0 < unconverged < 6

    @pytest.mark.parametrize("max_iter", [200, SLOT_MAX_ITER])
    @pytest.mark.parametrize("voxels", [2, 5, 9, 24])
    def test_slot_fill_changes_no_bit(self, monkeypatch, voxels, max_iter):
        group = slot_case()
        bytes_per_voxel = 8 * group.n_subjects * group.n_models
        monkeypatch.setattr(rfx, "_VB_BLOCK_BYTES", bytes_per_voxel)
        alone = estimate_rfx(group, max_iter=max_iter)
        monkeypatch.setattr(rfx, "_VB_BLOCK_BYTES", voxels * bytes_per_voxel)
        post = estimate_rfx(group, max_iter=max_iter)
        assert_same_bits(post, alone)
        assert post.log_space_steps == alone.log_space_steps


class TestDirichletPosterior:
    def test_expected_freq_normalizes(self):
        post = DirichletPosterior(alpha=np.array([[2.0], [6.0]]), alpha0=1.0)
        np.testing.assert_allclose(post.expected_freq.sum(axis=0), 1.0)
        np.testing.assert_allclose(post.expected_freq[:, 0], [0.25, 0.75])

    def test_mass_consistency_guard(self):
        with pytest.raises(DomainError):
            DirichletPosterior(
                alpha=np.array([[2.0], [2.0]]), alpha0=1.0, n_subjects=7
            )

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(DomainError):
            DirichletPosterior(alpha=np.array([[0.0], [1.0]]), alpha0=1.0)


class TestEpBetaClosedForm:
    """The two-model oracle in ``helpers`` of criteria 05 and 07."""

    def test_symmetric(self):
        np.testing.assert_allclose(ep_beta_closed_form([1.0, 1.0]), [0.5, 0.5])
        np.testing.assert_allclose(ep_beta_closed_form([7.3, 7.3]), [0.5, 0.5])

    def test_power_law_case(self):
        np.testing.assert_allclose(ep_beta_closed_form([2.0, 1.0]), [0.75, 0.25])

    def test_requires_two_models(self):
        with pytest.raises(DomainError):
            ep_beta_closed_form([1.0, 2.0, 3.0])

    def test_matrix_call_equals_column_calls(self):
        rng = np.random.default_rng(17)
        alpha = rng.uniform(0.3, 40.0, size=(2, 257))
        ep = ep_beta_closed_form(alpha)
        assert ep.shape == alpha.shape
        columns = np.stack(
            [ep_beta_closed_form(alpha[:, v]) for v in range(alpha.shape[1])], axis=1
        )
        np.testing.assert_array_equal(ep, columns)


class TestEpSampling:
    """The Monte Carlo oracle in ``helpers`` of criteria 06-08."""

    def test_symmetric_three_way(self):
        phi = ep_sampling([1.0, 1.0, 1.0], samples=1_000_000, seed=3)
        np.testing.assert_allclose(phi, 1.0 / 3.0, atol=0.002)

    def test_matches_closed_form_within_binomial_noise(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            alpha = rng.uniform(0.8, 10.0, size=2)
            s = 200_000
            phi = ep_sampling(alpha, samples=s, seed=11)
            exact = ep_beta_closed_form(alpha)
            se = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / s)
            assert np.all(np.abs(phi - exact) <= 3 * se + 1e-9)

    def test_sums_to_one_exactly(self):
        phi = ep_sampling([2.0, 3.0, 1.5], samples=50_000, seed=1)
        assert phi.sum() == 1.0

    def test_deterministic_given_seed(self):
        a = ep_sampling([1.5, 2.5, 3.5], samples=100_000, seed=9)
        b = ep_sampling([1.5, 2.5, 3.5], samples=100_000, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_rejects_tiny_sample_count(self):
        with pytest.raises(DomainError):
            ep_sampling([1.0, 2.0], samples=100)


class TestEpIntegration:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            alpha = rng.uniform(0.5, 25.0, size=2)
            np.testing.assert_allclose(
                ep_one_voxel(alpha), ep_beta_closed_form(alpha), atol=1e-6
            )

    def test_exchangeable_components(self):
        for k in (2, 3, 6, 12):
            phi = ep_one_voxel(np.full(k, 2.7))
            np.testing.assert_allclose(phi, 1.0 / k, atol=1e-6)

    def test_matches_sampling(self):
        rng = np.random.default_rng(9)
        alpha = rng.uniform(1.0, 8.0, size=5)
        phi_int = ep_one_voxel(alpha)
        phi_mc = ep_sampling(alpha, samples=1_000_000, seed=13)
        assert np.max(np.abs(phi_int - phi_mc)) < 0.01

    def test_sum_deviation_diagnostic(self):
        ep, info = ep_integration_stack(np.array([[3.0], [4.0], [5.0]]))
        assert info["max_sum_deviation"] < 1e-6
        assert abs(ep.sum() - 1.0) == info["max_sum_deviation"]

    def test_monotone_in_own_concentration(self):
        grid = np.linspace(1.0, 9.0, 9)
        values = [ep_one_voxel([g, 3.0, 2.0])[0] for g in grid]
        assert np.all(np.diff(values) > 0)

    def test_tiny_concentration_with_zero_width_panels(self):
        # at shape 0.001 the lower Gamma quantile underflows to 0, so the
        # domain's left end comes from the bound on the maximum's CDF
        alpha = np.array([0.001, 1.0])
        np.testing.assert_allclose(
            ep_one_voxel(alpha), ep_beta_closed_form(alpha), atol=1e-6
        )

    @pytest.mark.parametrize("alpha", [[0.001, 1.0], [0.05, 0.05]])
    def test_small_concentrations_match_closed_form(self, alpha):
        np.testing.assert_allclose(
            ep_one_voxel(alpha), ep_beta_closed_form(alpha), rtol=0, atol=1e-10
        )

    def test_rejects_bad_alpha(self):
        with pytest.raises(DomainError):
            ep_one_voxel([1.0])
        with pytest.raises(DomainError):
            ep_one_voxel([1.0, -2.0])


class TestEpStacks:
    def test_integration_stack_scatters_unique_columns(self):
        rng = np.random.default_rng(11)
        base = rng.uniform(1.0, 6.0, size=(4, 7))
        alpha = base[:, rng.integers(0, 7, size=300)]
        ep, info = ep_integration_stack(alpha)
        assert info["distinct_columns"] <= 7
        for v in range(0, 300, 50):
            np.testing.assert_array_equal(ep[:, v], ep_one_voxel(alpha[:, v]))

    def test_vector_is_one_voxel(self):
        # a 1-D input is one voxel's concentrations, not one model's row
        alpha = np.array([[1.0, 3.0], [2.0, 0.5], [4.0, 1.5]])
        ep, info = ep_integration_stack(alpha[:, 0])
        np.testing.assert_array_equal(ep, ep_integration_stack(alpha)[0][:, :1])
        assert info["distinct_columns"] == 1
        named = r"^need \(models x voxels\), 2\+ models, got shape \(3, 2, 1\)$"
        with pytest.raises(DomainError, match=named):
            ep_integration_stack(alpha[:, :, None])

    @pytest.mark.parametrize("k, small", [(2, 0.1), (3, 0.1), (12, 0.03)])
    def test_integration_stack_is_split_invariant(self, k, small):
        # columns that converge at the first comparison share blocks with
        # columns of small concentrations, which need more doublings
        rng = np.random.default_rng(100 + k)
        alpha = np.exp(rng.uniform(np.log(0.1), np.log(60.0), size=(k, 40)))
        alpha[:, ::7] = rng.uniform(small, 2 * small, size=(k, 6))
        full, info = ep_integration_stack(alpha)
        assert info["max_nodes"] > 16
        cuts = np.sort(rng.choice(np.arange(1, 40), size=6, replace=False))
        parts = [
            ep_integration_stack(piece)[0] for piece in np.split(alpha, cuts, axis=1)
        ]
        np.testing.assert_array_equal(full, np.hstack(parts))
        np.testing.assert_array_equal(full[:, 3], ep_one_voxel(alpha[:, 3]))

    def test_escalating_column_inside_a_mixed_block(self):
        slow = np.array([0.15, 0.18, 0.1])
        phi, info = ep_integration_stack(slow[:, None])
        assert info["max_nodes"] > 16
        rng = np.random.default_rng(23)
        alpha = rng.uniform(1.0, 20.0, size=(3, 30))
        alpha[:, 11] = slow
        ep, stack_info = ep_integration_stack(alpha)
        np.testing.assert_array_equal(ep[:, 11], phi[:, 0])
        assert stack_info["max_nodes"] == info["max_nodes"]
        assert stack_info["distinct_columns"] == 30

    def test_unstable_column_raises(self):
        alpha = np.array([[2.0, 0.01, 3.0, 0.01], [1.0, 0.01, 4.0, 0.01]])
        named = r"16385 nodes for concentrations \[0.01, 0.01\] \(first at input column {}\)"
        with pytest.raises(NumericalError, match=named.format(2)):
            ep_integration_stack(alpha)
        with pytest.raises(NumericalError, match=named.format(1)):
            ep_integration_stack(alpha[:, 1:2])

    def test_failure_names_the_first_failing_input_column(self):
        # a column that stops stabilizing, and a later one whose sum
        # overflows at the first doubling: the error names the column that
        # comes first in the input, not in sorted order, so a matrix fails
        # as its first failing slice does
        alpha = np.array([[2.0, 1e12, 3.0, 1e30], [1.0, 1.001e12, 4.0, 1e30]])
        with pytest.raises(NumericalError, match="did not stabilize") as whole:
            ep_integration_stack(alpha)
        assert whole.value.column == 1
        assert str(whole.value).endswith(
            "[1000000000000.0, 1001000000000.0] (first at input column 2)"
        )
        with pytest.raises(NumericalError, match="non-finite sum") as tail:
            ep_integration_stack(alpha[:, 2:])
        assert tail.value.column == 1
        assert str(tail.value) == f"{tail.value.reason} (first at input column 2)"

    def test_overflowing_column_raises_without_warning(self):
        # huge shapes overflow the integrand; the error names the column
        # and no RuntimeWarning leaks
        alpha = np.array([[2.0, 1e30], [1.0, 1e30]])
        named = (
            r"non-finite sum for concentrations "
            r"\[1e\+30, 1e\+30\] \(first at input column 2\)"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError, match=named):
                ep_integration_stack(alpha)

    def test_integration_matches_adaptive_quadrature(self):
        # tolerance fixed before the first run: an order of magnitude
        # inside the 1e-8 convergence tolerance of the step halving
        rng = np.random.default_rng(31)
        for k in range(2, 13):
            # concentrations within a factor e^0.3 of a centre, all in [0.5, 2000]
            centre = np.exp(rng.uniform(np.log(0.7), np.log(1400.0)))
            alpha = centre * np.exp(rng.uniform(-0.3, 0.3, size=k))
            phi = ep_one_voxel(alpha)
            for j in range(k):
                others = np.delete(alpha, j)

                def integrand(x):
                    density = np.exp(
                        (alpha[j] - 1.0) * np.log(x) - x - special.gammaln(alpha[j])
                    )
                    return density * np.prod(special.gammainc(others, x))

                upper = special.gammainccinv(alpha[j], 1e-16)
                points = special.gammaincinv(alpha[j], [1e-6, 0.1, 0.5, 0.9, 1 - 1e-6])
                exact, _ = integrate.quad(
                    integrand, 0.0, upper, points=points,
                    epsabs=1e-13, epsrel=1e-12, limit=400,
                )
                assert abs(phi[j] - exact) < 1e-9, (k, j, phi[j], exact)

    @pytest.mark.parametrize(
        "k, low, high",
        [
            (2, 0.5, 30.0),
            (3, 0.5, 30.0),
            (5, 0.5, 30.0),
            (8, 0.5, 30.0),
            (12, 0.5, 30.0),
            (3, 0.02, 3.0),
            (6, 0.02, 3.0),
            (4, 0.05, 500.0),
            (3, 1e3, 1e5),
            (5, 198.0, 202.0),
        ],
    )
    def test_matches_adaptive_quadrature_in_log_x(self, k, low, high):
        # concentrations log-uniform in [low, high]; each row is integrated
        # over t = log x, from below where the maximum's CDF bound
        # x^(sum alpha) / prod Gamma(alpha_i + 1) is 1e-16 to above every
        # model's 1 - 1e-16 quantile, split at every model's peak t = log alpha
        rng = np.random.default_rng(int(k * high))
        alpha = np.exp(rng.uniform(np.log(low), np.log(high), size=(k, 3)))
        ep, _ = ep_integration_stack(alpha)
        for a, phi in zip(alpha.T, ep.T):
            lo = (np.log(1e-16) + special.gammaln(a + 1.0).sum()) / a.sum() - 1.0
            hi = np.log(special.gammainccinv(a, 1e-16).max()) + 0.1
            for j in range(k):
                others = np.delete(a, j)

                def integrand(t):
                    with np.errstate(divide="ignore"):
                        log_cdfs = np.log(special.gammainc(others, np.exp(t)))
                    return np.exp(
                        a[j] * t - np.exp(t) - special.gammaln(a[j]) + log_cdfs.sum()
                    )

                exact, _ = integrate.quad(
                    integrand, lo, hi, points=np.log(a), epsabs=1e-14,
                    epsrel=1e-12, limit=1000,
                )
                assert abs(phi[j] - exact) < 1e-9, (a.tolist(), j, phi[j], exact)

    def test_near_equal_large_concentrations_take_few_nodes(self):
        # the peak in log x is about 1 / sqrt(alpha) wide; the left end at
        # the largest lower quantile keeps the domain near that width, and
        # the sum check refines a column whose nodes step over the peak
        alpha = np.array([[1e5, 2e5], [1.0001e5, 2.0002e5], [0.9999e5, 1.9998e5]])
        ep, info = ep_integration_stack(alpha)
        np.testing.assert_allclose(ep.sum(axis=0), 1.0, rtol=0, atol=1e-9)
        assert info["max_nodes"] <= 65

    def test_large_stack_never_touches_sampling(self):
        rng = np.random.default_rng(13)
        base = rng.uniform(1.0, 9.0, size=(12, 40))
        alpha = base[:, rng.integers(0, 40, size=10_000)]
        ep, _ = ep_integration_stack(alpha)
        assert ep.shape == (12, 10_000)
        np.testing.assert_allclose(ep.sum(axis=0), 1.0, atol=1e-6)
