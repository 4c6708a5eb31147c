"""Session layouts and cross-validated evidence assembly."""

import numpy as np
import pytest
from helpers import (
    accuracy_by_residual,
    improper_evidence_by_quadrature,
    random_design,
    random_precision,
    stats_of,
)

import evidencer.crossval
import evidencer.glm
from evidencer.crossval import (
    SessionLayout,
    cv_lme_models,
    split_glm_spec,
    split_single_session,
)
from evidencer.errors import DomainError, EstimationError, LayoutError
from evidencer.glm import (
    GlmSpec,
    NgParams,
    accuracy,
    log_model_evidence,
    posterior_update,
)


def make_sessions(rng, s=3, n=20, p=2, v=4, precision_kind="identity"):
    specs = []
    for _ in range(s):
        specs.append(
            GlmSpec(
                Y=rng.normal(size=(n, v)) + 1.0,
                X=random_design(rng, n, p),
                precision=random_precision(rng, n, precision_kind),
            )
        )
    layout = SessionLayout.from_counts([n] * s)
    return specs, layout


class TestSessionLayout:
    def test_from_counts(self):
        layout = SessionLayout.from_counts([10, 12])
        assert layout.sessions == ((0, 10), (10, 22))
        assert layout.discarded == ()
        assert layout.n_folds == 2

    def test_rejects_single_fold(self):
        with pytest.raises(LayoutError):
            SessionLayout.from_counts([10])

    def test_rejects_gapped_coverage(self):
        with pytest.raises(LayoutError):
            SessionLayout(sessions=((0, 4), (6, 10)), discarded=(), total_scans=10)

    @pytest.mark.parametrize(
        "sessions, discarded",
        [
            (((0, 6), (4, 10)), ()),  # overlapping folds
            (((0, 5), (5, 10)), (3,)),  # a discard inside a fold
            (((0, 4), (6, 10)), (4,)),  # a scan left out
            (((0, 4), (6, 10)), (4, 4, 5)),  # a scan discarded twice
            (((0, 4), (5, 10)), (4, 10)),  # a discard past the end
            (((0, 4), (5, 10)), (-1, 4)),  # a discard before the start
            (((0, 4), (4, 8)), ()),  # short of the scan count
        ],
    )
    def test_rejects_bad_coverage(self, sessions, discarded):
        with pytest.raises(LayoutError, match="cover every scan exactly once"):
            SessionLayout(sessions=sessions, discarded=discarded, total_scans=10)

    def test_discards_in_any_order(self):
        layout = SessionLayout(
            sessions=((0, 4), (6, 10)), discarded=(5, 4), total_scans=10
        )
        assert layout.n_folds == 2

    def test_split_costs_nothing_per_scan(self):
        # the coverage check walks ranges, so a declared count of a
        # trillion scans allocates nothing in proportion to it
        layout = split_single_session(10**12)
        assert layout.sessions == ((0, 499_999_999_995), (500_000_000_005, 10**12))
        assert len(layout.discarded) == 10

    def test_split_even(self):
        layout = split_single_session(100)
        assert layout.sessions == ((0, 45), (55, 100))
        assert layout.discarded == tuple(range(45, 55))

    def test_split_odd(self):
        layout = split_single_session(101)
        assert layout.sessions == ((0, 45), (56, 101))
        assert len(layout.discarded) == 11

    def test_split_discard_bounds(self):
        # the discard count stays inside [10, 19] and halves stay equal
        for n in range(40, 200):
            layout = split_single_session(n)
            d = len(layout.discarded)
            assert 10 <= d <= 19
            (a0, a1), (b0, b1) = layout.sessions
            assert a1 - a0 == b1 - b0

    @pytest.mark.parametrize(
        "make", [lambda: SessionLayout.from_counts([10.5, 10]), lambda: split_single_session(40.9)],
        ids=["from_counts", "split_single_session"],
    )
    def test_rejects_non_integral_scan_count(self, make):
        with pytest.raises(LayoutError, match=r"(10\.5|40\.9)"):
            make()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_from_counts_rejects_non_finite_scan_count(self, value):
        with pytest.raises(LayoutError, match=f"must be integers, got {value!r}"):
            SessionLayout.from_counts([value, 10])

    def test_from_counts_rejects_boolean_scan_count(self):
        with pytest.raises(LayoutError, match="must be integers, got True"):
            SessionLayout.from_counts([True, 10])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_split_rejects_non_finite_scan_count(self, value):
        with pytest.raises(LayoutError, match=f"must be integers, got {value!r}"):
            split_single_session(value)

    def test_too_small_rejected(self):
        with pytest.raises(LayoutError):
            split_single_session(39)

    def test_split_glm_spec(self):
        rng = np.random.default_rng(2)
        n = 50
        spec = GlmSpec(
            Y=rng.normal(size=(n, 3)),
            X=random_design(rng, n, 2),
            precision=rng.uniform(0.5, 2.0, size=n),
        )
        layout = split_single_session(n)
        parts = split_glm_spec(spec, layout)
        assert len(parts) == 2
        assert parts[0].n == parts[1].n == 20
        np.testing.assert_array_equal(parts[0].Y, spec.Y[:20])
        np.testing.assert_array_equal(parts[1].Y, spec.Y[30:])
        np.testing.assert_array_equal(parts[1].precision, spec.precision[30:])


class TestOosLme:
    def test_identity_per_fold(self):
        rng = np.random.default_rng(4)
        specs, layout = make_sessions(rng, s=3)
        result = cv_lme_models({"m": specs}, layout)
        np.testing.assert_allclose(
            result.oos_lme, result.oos_acc - result.oos_com, atol=1e-8
        )

    def test_identical_sessions_symmetric(self):
        rng = np.random.default_rng(6)
        y = rng.normal(size=(15, 3))
        x = random_design(rng, 15, 2)
        specs = [GlmSpec(Y=y, X=x), GlmSpec(Y=y.copy(), X=x.copy())]
        layout = SessionLayout.from_counts([15, 15])
        lme0, lme1 = cv_lme_models({"m": specs}, layout).oos_lme[:, 0]
        np.testing.assert_allclose(lme0, lme1, rtol=1e-12)

    def test_matches_train_posterior_quadrature(self):
        # brute force: integrate the held-out likelihood against the
        # training posterior density, p = 1
        rng = np.random.default_rng(10)
        for _ in range(3):
            n = 5
            specs = [
                GlmSpec(Y=rng.normal(size=n) + 1.0, X=rng.normal(size=(n, 1)))
                for _ in range(2)
            ]
            layout = SessionLayout.from_counts([n, n])
            lme = cv_lme_models({"m": specs}, layout).oos_lme[1, 0]

            train_post = posterior_update(stats_of(specs[0]), NgParams.noninformative(1))
            from helpers import lme_by_quadrature

            oracle = lme_by_quadrature(
                specs[1].Y[:, 0], specs[1].X, train_post
            )
            assert abs(float(lme[0]) - oracle) < 1e-4

    def test_matches_improper_evidence_ratio(self):
        # fully engine-free route: the held-out evidence is the ratio of
        # improper-prior marginals of all data vs training data
        rng = np.random.default_rng(12)
        n = 6
        y1, y2 = rng.normal(size=n) + 0.5, rng.normal(size=n) + 0.5
        x1, x2 = rng.normal(size=(n, 1)), rng.normal(size=(n, 1))
        specs = [GlmSpec(Y=y1, X=x1), GlmSpec(Y=y2, X=x2)]
        layout = SessionLayout.from_counts([n, n])
        lme = cv_lme_models({"m": specs}, layout).oos_lme[1, 0]
        m_all = improper_evidence_by_quadrature(
            np.concatenate([y1, y2]), np.vstack([x1, x2])
        )
        m_train = improper_evidence_by_quadrature(y1, x1)
        assert abs(float(lme[0]) - (m_all - m_train)) < 1e-4


class TestCvLme:
    def test_sum_is_definitional(self):
        rng = np.random.default_rng(14)
        specs, layout = make_sessions(rng, s=4)
        result = cv_lme_models({"m": specs}, layout)
        np.testing.assert_array_equal(result.cv_lme, result.oos_lme.sum(axis=0))

    def test_session_order_invariance(self):
        rng = np.random.default_rng(16)
        specs, layout = make_sessions(rng, s=2)
        forward = cv_lme_models({"m": specs}, layout)
        backward = cv_lme_models({"m": specs[::-1]}, layout)
        np.testing.assert_allclose(
            forward.cv_lme, backward.cv_lme, rtol=1e-12, atol=1e-12
        )

    @pytest.mark.parametrize("precision_kind", ["identity", "diagonal", "full"])
    def test_matches_naive_path(self, precision_kind):
        # oracle: recompute each fold from scratch with chained updates,
        # no reuse of the shared all-data posterior or totals
        rng = np.random.default_rng(18)
        specs, layout = make_sessions(rng, s=3, precision_kind=precision_kind)
        result = cv_lme_models({"m": specs}, layout)
        for fold in range(3):
            train = [s for i, s in enumerate(specs) if i != fold]
            prior = NgParams.noninformative(specs[0].p)
            post = None
            for block in train:
                post = posterior_update(stats_of(block), prior)
                prior = post
            held_stats = stats_of(specs[fold])
            test_post = posterior_update(held_stats, prior)
            naive = log_model_evidence(held_stats, prior, test_post)
            np.testing.assert_allclose(
                result.oos_lme[fold, 0], naive, rtol=1e-10, atol=1e-10
            )

    def test_cv_identity(self):
        rng = np.random.default_rng(20)
        specs, layout = make_sessions(rng, s=3)
        result = cv_lme_models({"m": specs}, layout)
        np.testing.assert_allclose(
            result.cv_acc - result.cv_com, result.cv_lme, atol=1e-8
        )

    def test_voxel_permutation_invariance(self):
        rng = np.random.default_rng(22)
        specs, layout = make_sessions(rng, s=2, v=6)
        perm = rng.permutation(6)
        permuted = [
            GlmSpec(Y=s.Y[:, perm], X=s.X, precision=s.precision) for s in specs
        ]
        base = cv_lme_models({"m": specs}, layout)
        shuffled = cv_lme_models({"m": permuted}, layout)
        np.testing.assert_allclose(
            shuffled.cv_lme[:, :], base.cv_lme[:, perm], rtol=1e-10, atol=1e-10
        )

    def test_model_stack(self):
        rng = np.random.default_rng(24)
        n, v = 18, 3
        y = [rng.normal(size=(n, v)) for _ in range(2)]
        x1 = [random_design(rng, n, 1) for _ in range(2)]
        x2 = [random_design(rng, n, 2) for _ in range(2)]
        layout = SessionLayout.from_counts([n, n])
        models = {
            "narrow": [GlmSpec(Y=y[s], X=x1[s]) for s in range(2)],
            "wide": [GlmSpec(Y=y[s], X=x2[s]) for s in range(2)],
        }
        result = cv_lme_models(models, layout)
        assert result.model_names == ("narrow", "wide")
        assert result.cv_lme.shape == (2, v)
        assert result.oos_lme.shape == (2, 2, v)
        single = cv_lme_models({"wide": models["wide"]}, layout)
        np.testing.assert_array_equal(result.cv_lme[1], single.cv_lme[0])

    def test_split_half_end_to_end(self):
        rng = np.random.default_rng(26)
        n = 64
        spec = GlmSpec(
            Y=rng.normal(size=(n, 2)) + 2.0, X=random_design(rng, n, 2)
        )
        layout = split_single_session(n)
        parts = split_glm_spec(spec, layout)
        result = cv_lme_models({"m": parts}, layout)
        result.validate()
        assert result.cv_lme.shape == (1, 2)

    def test_folds_written_in_place_sum_exactly(self):
        # three models over four folds land in one (3, folds, models,
        # voxels) array: each model's folds match its own call, and the
        # cross-validated arrays are the fold sums added in fold order
        rng = np.random.default_rng(27)
        n, v = 16, 5
        ys = [rng.normal(size=(n, v)) + 1.0 for _ in range(4)]
        layout = SessionLayout.from_counts([n] * 4)
        models = {
            f"p{p}": [GlmSpec(Y=y, X=random_design(rng, n, p)) for y in ys]
            for p in (1, 2, 3)
        }
        result = cv_lme_models(models, layout)
        for kind in ("lme", "acc", "com"):
            oos, cv = getattr(result, f"oos_{kind}"), getattr(result, f"cv_{kind}")
            assert oos.shape == (4, 3, v) and oos.flags.c_contiguous
            in_order = oos[0] + oos[1] + oos[2] + oos[3]
            assert cv.tobytes() == in_order.tobytes() == oos.sum(axis=0).tobytes()
        for m, name in enumerate(models):
            alone = cv_lme_models({name: models[name]}, layout)
            for kind in ("lme", "acc", "com"):
                shared = getattr(result, f"oos_{kind}")[:, m]
                np.testing.assert_array_equal(shared, getattr(alone, f"oos_{kind}")[:, 0])

    def test_models_must_share_the_voxel_count(self):
        rng = np.random.default_rng(31)
        x = random_design(rng, 20, 2)
        models = {
            name: [GlmSpec(Y=rng.normal(size=(20, v)), X=x) for _ in range(2)]
            for name, v in (("a", 5), ("b", 6))
        }
        with pytest.raises(DomainError, match=r"voxel count: \[5, 6\]"):
            cv_lme_models(models, SessionLayout.from_counts([20, 20]))

    def test_mismatched_sessions_rejected(self):
        rng = np.random.default_rng(28)
        specs, layout = make_sessions(rng, s=2)
        bad = [specs[0], GlmSpec(Y=rng.normal(size=(20, 4)), X=random_design(rng, 20, 3))]
        with pytest.raises(DomainError):
            cv_lme_models({"m": bad}, layout)

    def test_scan_count_mismatch_names_session_from_one(self):
        rng = np.random.default_rng(29)
        layout = SessionLayout.from_counts([12, 12])
        specs = [
            GlmSpec(Y=rng.normal(size=(n, 3)), X=random_design(rng, n, 2))
            for n in (12, 10)
        ]
        with pytest.raises(
            LayoutError, match="session 2 has 10 scans but its layout range covers 12"
        ):
            cv_lme_models({"m": specs}, layout)


def nested_models(rng, precision_kind, single, copies, n=40, v=300):
    """Four nested models over per-session responses; with ``copies`` each
    model gets its own copy of every response and precision array, otherwise
    its own view of the same memory. ``single`` builds one session and
    splits it into halves."""
    sessions = 1 if single else 3
    data = [rng.normal(size=(n, v)) + 4.0 for _ in range(sessions)]
    full = [random_design(rng, n, 4) for _ in range(sessions)]
    precisions = [random_precision(rng, n, precision_kind) for _ in range(sessions)]
    if single:
        layout = split_single_session(n)
    else:
        layout = SessionLayout.from_counts([n] * sessions)

    def own(a):
        if a is None:
            return None
        return a.copy() if copies else a.view()

    models = {}
    nested = {"m0": [3], "m1": [0, 3], "m2": [0, 1, 3], "m3": [0, 1, 2, 3]}
    for name, cols in nested.items():
        specs = [
            GlmSpec(Y=own(y), X=x[:, cols], precision=own(prec))
            for y, x, prec in zip(data, full, precisions)
        ]
        models[name] = split_glm_spec(specs[0], layout) if single else specs
    return models, layout


def count_stats_calls(monkeypatch):
    """Count calls of the response-statistics pass, wherever they come from."""
    calls = []
    original = evidencer.glm.response_stats

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(evidencer.glm, "response_stats", counting)
    monkeypatch.setattr(evidencer.crossval, "response_stats", counting)
    return calls


class TestSharedResponsePass:
    @pytest.mark.parametrize("single", [False, True], ids=["multi", "split"])
    @pytest.mark.parametrize("precision_kind", ["identity", "diagonal", "full"])
    def test_shared_arrays_match_per_model_copies(self, precision_kind, single):
        rng = np.random.default_rng
        shared, layout = nested_models(rng(60), precision_kind, single, copies=False)
        copied, _ = nested_models(rng(60), precision_kind, single, copies=True)
        assert np.shares_memory(shared["m1"][0].Y, shared["m3"][0].Y)
        assert not np.shares_memory(copied["m1"][0].Y, copied["m3"][0].Y)
        one = cv_lme_models(shared, layout)
        separate = cv_lme_models(copied, layout)
        fields = ("cv_lme", "cv_acc", "cv_com", "oos_lme", "oos_acc", "oos_com")
        for field in fields + ("acc_com_tol",):
            np.testing.assert_array_equal(getattr(one, field), getattr(separate, field))

    @pytest.mark.parametrize("single", [False, True], ids=["multi", "split"])
    @pytest.mark.parametrize("copies, per_session", [(False, 1), (True, 4)])
    def test_one_statistics_call_per_session(
        self, monkeypatch, copies, per_session, single
    ):
        calls = count_stats_calls(monkeypatch)
        rng = np.random.default_rng(61)
        models, layout = nested_models(rng, "full", single, copies)
        cv_lme_models(models, layout)
        assert len(calls) == per_session * layout.n_folds

    @pytest.mark.parametrize("single", [False, True], ids=["multi", "split"])
    @pytest.mark.parametrize("precision_kind", ["identity", "diagonal", "full"])
    def test_specs_are_left_as_they_are(self, precision_kind, single):
        rng = np.random.default_rng(62)
        models, layout = nested_models(rng, precision_kind, single, copies=False)
        before = {
            name: [dict(vars(spec)) for spec in specs] for name, specs in models.items()
        }
        cv_lme_models(models, layout)
        for name, specs in models.items():
            for spec, attributes in zip(specs, before[name]):
                assert vars(spec).keys() == attributes.keys()
                assert all(vars(spec)[k] is v for k, v in attributes.items())


class TestFailureLocation:
    @pytest.mark.parametrize(
        "zeroed_sessions, block",
        [((1, 2), "fold 1 training"), ((0, 1, 2), "all-data")],
    )
    def test_singular_block_names_model_and_block(self, zeroed_sessions, block):
        rng = np.random.default_rng(63)
        n = 20
        designs = [random_design(rng, n, 2) for _ in range(3)]
        data = [rng.normal(size=(n, 4)) for _ in range(3)]
        models = {
            "full": [GlmSpec(Y=y, X=x) for y, x in zip(data, designs)],
            "reduced": [GlmSpec(Y=y, X=x[:, 1:]) for y, x in zip(data, designs)],
        }
        # the regressor is non-zero only outside ``zeroed_sessions``; each
        # spec's rank check has already passed, so only the summed blocks
        # that lack a non-zero session are singular
        for s in zeroed_sessions:
            designs[s][:, 0] = 0.0
        with pytest.raises(EstimationError, match=f"^model 'full', {block} block: "):
            cv_lme_models(models, SessionLayout.from_counts([n] * 3))


    @pytest.mark.parametrize("level", [0.0, 100.0])
    def test_exact_fit_names_both_causes_and_the_voxel(self, level):
        # voxel v3 is constant in every session, so the design's constant
        # column fits it exactly and the all-data rate is round-off
        rng = np.random.default_rng(66)
        n = 100
        data = [rng.normal(size=(n, 5)) for _ in range(4)]
        specs = []
        for y in data:
            y[:, 2] = level
            x = np.hstack([rng.normal(size=(n, 1)), np.ones((n, 1))])
            specs.append(GlmSpec(Y=y, X=x))
        with pytest.raises(EstimationError) as caught:
            cv_lme_models({"m": specs}, SessionLayout.from_counts([n] * 4))
        message = str(caught.value)
        assert message.startswith(
            "model 'm', all-data block: posterior rate b is non-positive"
        )
        assert "first at voxel v3;" in message
        assert "(a constant or all-zero voxel)" in message
        assert "ill-conditioned design" in message


class TestResponseCheck:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("precision_kind", ["identity", "diagonal", "full"])
    def test_nonfinite_cell_names_session_and_voxel(self, precision_kind, value):
        rng = np.random.default_rng(64)
        specs, layout = make_sessions(rng, s=3, precision_kind=precision_kind)
        specs[1].Y[7, 2] = value
        expected = r"^session 2: y'Py is not finite at 1 voxel\(s\), first at voxel v3;"
        with pytest.raises(DomainError, match=expected):
            cv_lme_models({"m": specs}, layout)

    @pytest.mark.parametrize("precision_kind", ["identity", "diagonal", "full"])
    def test_overflowing_column_names_session_and_voxel(self, precision_kind):
        # every cell is finite, but the column's squares overflow
        rng = np.random.default_rng(65)
        specs, layout = make_sessions(rng, s=2, precision_kind=precision_kind)
        for spec in specs:
            spec.Y[:, 3] *= 1e160
            assert np.all(np.isfinite(spec.Y))
        expected = r"^session 1: y'Py is not finite at 1 voxel\(s\), first at voxel v4;"
        with pytest.raises(DomainError, match=expected):
            cv_lme_models({"m": specs}, layout)


class TestHighSnrAccuracy:
    @pytest.mark.parametrize("noise_sd", [1.0, 1e-1, 1e-2, 1e-3])
    def test_cancellation_stays_bounded(self, noise_sd):
        # As R^2 -> 1 the sufficient-statistics form ytpy - 2 mu'xtpy +
        # mu'xtpx mu cancels terms of size ytpy down to the residual sum.
        # Each of its n-term reductions errs by at most about n * eps/2 *
        # ytpy, so the held-out accuracy, which scales the form by
        # a / (2 b), may differ from the direct residual form by at most
        # about n * eps * (a / b) * ytpy.
        rng = np.random.default_rng(30)
        sessions, n = 4, 50
        specs = []
        for _ in range(sessions):
            x = np.hstack([rng.normal(size=(n, 1)), np.ones((n, 1))])
            y = x @ np.array([[2.0], [10.0]]) + rng.normal(scale=noise_sd, size=(n, 3))
            specs.append(GlmSpec(Y=y, X=x))
        everything = GlmSpec(
            Y=np.vstack([s.Y for s in specs]), X=np.vstack([s.X for s in specs])
        )
        post = posterior_update(stats_of(everything), NgParams.noninformative(2))
        resid = everything.Y - everything.X @ post.mu
        centered = everything.Y - everything.Y.mean(axis=0)
        r2 = 1.0 - (resid**2).sum(axis=0) / (centered**2).sum(axis=0)
        if noise_sd <= 1e-3:
            assert np.all(r2 > 1.0 - 1e-6)

        eps = np.finfo(float).eps
        for held in specs:
            stats = stats_of(held)
            gap = np.abs(accuracy(stats, post) - accuracy_by_residual(held, post))
            bound = n * eps * (post.a / post.b) * stats.ytpy
            assert np.all(gap <= bound), (gap, bound)

    @pytest.mark.parametrize("baseline, noise_sd", [(3000.0, 10.0), (10.0, 0.01)])
    def test_validate_accepts_fmri_like_scale(self, baseline, noise_sd):
        # Raw-fMRI-like data: 4 x 200 scans on a large baseline. acc - com
        # misses lme by more than 1e-8 here through round-off alone, so
        # validate's tolerance is the per-voxel cancellation bound above,
        # summed over folds, rather than an absolute 1e-8.
        rng = np.random.default_rng(40)
        specs = []
        for _ in range(4):
            x = np.hstack([rng.normal(size=(200, 1)), np.ones((200, 1))])
            y = x @ np.array([[2.0], [baseline]])
            specs.append(GlmSpec(Y=y + rng.normal(scale=noise_sd, size=(200, 50)), X=x))
        layout = SessionLayout.from_counts([200] * 4)
        result = cv_lme_models({"m": specs}, layout)
        gap = np.abs(result.cv_acc - result.cv_com - result.cv_lme)
        assert gap.max() > 1e-8
        everything = GlmSpec(
            Y=np.vstack([s.Y for s in specs]), X=np.vstack([s.X for s in specs])
        )
        post = posterior_update(stats_of(everything), NgParams.noninformative(2))
        eps = np.finfo(float).eps
        bound = sum(s.n * eps * (post.a / post.b) * stats_of(s).ytpy for s in specs)
        np.testing.assert_allclose(result.acc_com_tol[0], np.maximum(1e-8, bound))
        assert np.all(gap <= 0.5 * result.acc_com_tol)

        result.cv_acc = result.cv_acc + 2.0 * result.acc_com_tol
        with pytest.raises(DomainError, match="does not reproduce"):
            result.validate()
