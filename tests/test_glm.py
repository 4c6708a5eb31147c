"""Conjugate GLM inference: update algebra, evidence identities, oracles."""

import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    accuracy_by_residual,
    gamma_moments,
    kl_gamma,
    kl_mvn,
    lme_by_quadrature,
    random_design,
    random_precision,
    random_proper_instance,
    random_spd,
    stats_of,
    times_precision,
)

import evidencer
from evidencer import glm
from evidencer.crossval import SessionLayout, cv_lme_models
from evidencer.errors import DecompositionError, DomainError, EstimationError
from evidencer.glm import (
    _BLOCK,
    GlmSpec,
    NgParams,
    SessionStats,
    posterior_update,
    log_model_evidence,
    accuracy,
    complexity,
    response_stats,
)

_SRC = str(Path(evidencer.__file__).resolve().parent.parent)
# prints the statistics' bytes of identity and diagonal precisions at shapes
# where BLAS picks several kernels
_THREAD_PROBE = """
import hashlib
import numpy as np
from evidencer.glm import response_stats
rng = np.random.default_rng(59)
for n, v in [(200, 2500), (100, 777), (40, 300)]:
    y = rng.normal(size=(n, v)) + 5.0
    x = rng.normal(size=(n, 6))
    for precision in (None, rng.uniform(0.5, 2.0, size=n)):
        for stats in response_stats(y, [x[:, :2], x, x[:, [3]]], precision):
            print(hashlib.sha256(stats.xtpy.tobytes() + stats.ytpy.tobytes()).hexdigest())
"""

NONFINITE = pytest.mark.parametrize(
    "value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"]
)


def cv_of_two(spec: GlmSpec):
    """``cv_lme_models`` on ``spec`` as both of two sessions: a spec holds
    its precision unchecked, and the first response pass checks it."""
    return cv_lme_models({"m": [spec, spec]}, SessionLayout.from_counts([spec.n] * 2))


class TestGlmSpec:
    def test_shapes_and_vector_promotion(self):
        spec = GlmSpec(Y=np.arange(4.0), X=np.ones(4))
        assert spec.Y.shape == (4, 1)
        assert spec.X.shape == (4, 1)
        assert spec.n == 4 and spec.p == 1 and spec.n_voxels == 1

    def test_rejects_too_few_scans(self):
        with pytest.raises(DomainError):
            GlmSpec(Y=np.zeros((2, 1)), X=np.ones((2, 2)))

    def test_rejects_empty_spec(self):
        with pytest.raises(DomainError, match="n >= p \\+ 1"):
            GlmSpec(Y=np.zeros((0, 5)), X=np.zeros((0, 2)))

    def test_rejects_zero_column_design(self):
        with pytest.raises(DomainError, match="no columns"):
            GlmSpec(Y=np.zeros((5, 2)), X=np.zeros((5, 0)))

    @NONFINITE
    def test_rejects_nonfinite_design(self, value):
        x = random_design(np.random.default_rng(3), 8, 2)
        x[5, 1] = value
        with pytest.raises(DomainError, match="X must be finite"):
            GlmSpec(Y=np.zeros((8, 1)), X=x)

    @NONFINITE
    @pytest.mark.parametrize("precision_kind", ["diagonal", "full"])
    def test_rejects_nonfinite_precision(self, precision_kind, value):
        rng = np.random.default_rng(4)
        precision = random_precision(rng, 8, precision_kind)
        precision[(2,) * precision.ndim] = value
        spec = GlmSpec(Y=np.zeros((8, 1)), X=random_design(rng, 8, 2), precision=precision)
        with pytest.raises(DomainError, match="^session 1: precision must be finite$"):
            cv_of_two(spec)

    def test_rejects_rank_deficient_design(self):
        x = np.ones((6, 2))
        with pytest.raises(EstimationError):
            GlmSpec(Y=np.zeros((6, 1)), X=x)

    def test_rejects_bad_precision(self):
        spec = GlmSpec(Y=np.zeros((4, 1)), X=np.ones((4, 1)), precision=np.ones(3))
        with pytest.raises(DomainError, match="^session 1: diagonal precision must have"):
            cv_of_two(spec)

    def test_logdet_precision_variants(self):
        y, x = np.zeros((3, 1)), np.arange(1.0, 4.0)[:, None]
        assert stats_of(GlmSpec(Y=y, X=x)).logdet_precision == 0.0
        diag = GlmSpec(Y=y, X=x, precision=np.array([2.0, 4.0, 8.0]))
        assert stats_of(diag).logdet_precision == pytest.approx(np.log(64.0))
        full = GlmSpec(Y=y, X=x, precision=np.diag([2.0, 4.0, 8.0]))
        assert stats_of(full).logdet_precision == pytest.approx(np.log(64.0))

    @pytest.mark.parametrize("precision_kind", ["identity", "diagonal", "full"])
    def test_holds_inputs_only(self, precision_kind):
        rng = np.random.default_rng(54)
        spec = GlmSpec(
            Y=rng.normal(size=(10, 3)), X=random_design(rng, 10, 2),
            precision=random_precision(rng, 10, precision_kind),
        )
        assert set(vars(spec)) == {"Y", "X", "precision"}


class TestResponseStats:
    @pytest.mark.parametrize("precision_kind", ["identity", "diagonal", "full"])
    def test_rows_do_not_depend_on_the_other_designs(self, precision_kind):
        # nested designs share columns, and together have more distinct
        # columns than one product stack holds; each design's statistics,
        # and so its evidence, are still bit-identical to its own pass, and
        # every field matches its direct formula
        rng = np.random.default_rng(50)
        n, v = 40, 300
        full = random_design(rng, n, 6)
        designs = [full[:, [0, 5]], full[:, [0, 1, 5]], full, full[:, [2]]]
        y = rng.normal(size=(n, v)) + 5.0
        precision = random_precision(rng, n, precision_kind)
        shared = response_stats(y, designs, precision)
        py = times_precision(precision, y)
        dense = np.eye(n) if precision is None else times_precision(precision, np.eye(n))
        for x, stats in zip(designs, shared):
            (alone,) = response_stats(y, [x], precision)
            for name in SessionStats._fields:
                np.testing.assert_array_equal(getattr(stats, name), getattr(alone, name))
            np.testing.assert_array_equal(stats.xtpx, x.T @ times_precision(precision, x))
            np.testing.assert_allclose(stats.xtpy, x.T @ py, rtol=1e-12, atol=1e-12)
            ytpy = np.einsum("nv,nv->v", y, py)
            if precision_kind == "full":  # P @ block rounds unlike P @ y
                np.testing.assert_allclose(stats.ytpy, ytpy, rtol=1e-12, atol=1e-12)
            else:
                np.testing.assert_array_equal(stats.ytpy, ytpy)
            assert stats.n == n
            assert stats.logdet_precision == pytest.approx(
                np.linalg.slogdet(dense)[1], rel=1e-12, abs=1e-12
            )
            assert (stats.p, stats.n_voxels) == (x.shape[1], v)
            prior = NgParams(mu=np.zeros(stats.p), lam=np.eye(stats.p), a=1.0, b=1.0)
            np.testing.assert_array_equal(
                log_model_evidence(stats, prior, posterior_update(stats, prior)),
                log_model_evidence(alone, prior, posterior_update(alone, prior)),
            )

    @pytest.mark.parametrize(
        "v",
        [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK - 1, 2 * _BLOCK, 2 * _BLOCK + 1,
         2 * _BLOCK + 3, 4 * _BLOCK + 3],
    )
    @pytest.mark.parametrize("precision_kind", ["identity", "diagonal", "full"])
    @pytest.mark.parametrize("wide", [False, True], ids=["one-column", "stacked"])
    def test_voxel_chunks_keep_every_bit(self, v, precision_kind, wide):
        # the pass runs over fixed-width padded blocks, so BLAS sees the same
        # shapes however the voxels are split over calls, and a voxel's
        # statistics keep their bits; the stacked designs have more distinct
        # columns than one product stack holds. Voxel counts run past one,
        # two and four blocks
        rng = np.random.default_rng(56)
        n = 30
        x = random_design(rng, n, 6)
        designs = [x[:, :3], x, x[:, [1, 4]]] if wide else [x[:, [0]]]
        y = rng.normal(size=(n, v)) + 5.0
        precision = random_precision(rng, n, precision_kind)
        whole = response_stats(y, designs, precision)
        cuts = sorted({0, 1, v // 2, v - 1, v})
        parts = [response_stats(y[:, a:b], designs, precision) for a, b in zip(cuts, cuts[1:])]
        for d, stats in enumerate(whole):
            pieces = [part[d] for part in parts]
            np.testing.assert_array_equal(
                np.concatenate([p.xtpy for p in pieces], axis=1), stats.xtpy
            )
            np.testing.assert_array_equal(np.concatenate([p.ytpy for p in pieces]), stats.ytpy)
            for p in pieces:
                np.testing.assert_array_equal(p.xtpx, stats.xtpx)
                assert (p.n, p.logdet_precision) == (stats.n, stats.logdet_precision)

    @pytest.mark.parametrize("v", [1, 300, 2503])
    @pytest.mark.parametrize("n", [10, 200])
    @pytest.mark.parametrize("precision_kind", ["identity", "diagonal", "full"])
    def test_block_width_changes_no_bit(self, monkeypatch, n, v, precision_kind):
        # _BLOCK went from 512 voxels to 256 with every statistic's bits kept
        rng = np.random.default_rng(58)
        x = random_design(rng, n, 6)
        designs = [x[:, :3], x, x[:, [1, 4]]]
        y = rng.normal(size=(n, v)) + 5.0
        precision = random_precision(rng, n, precision_kind)
        narrow = response_stats(y, designs, precision)
        monkeypatch.setattr(glm, "_BLOCK", 512)
        for stats, wide in zip(narrow, response_stats(y, designs, precision)):
            for name in SessionStats._fields:
                np.testing.assert_array_equal(getattr(stats, name), getattr(wide, name))

    @pytest.mark.parametrize("precision_kind", ["diagonal", "full"])
    def test_no_full_size_precision_product(self, precision_kind):
        # P y is formed one block at a time; the statistics are p + 1 rows
        rng = np.random.default_rng(57)
        n, v = 200, 20_000
        y = rng.normal(size=(n, v))
        x = random_design(rng, n, 2)
        precision = random_precision(rng, n, precision_kind)
        tracemalloc.start()
        try:
            response_stats(y, [x], precision)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < y.nbytes / 4

    def test_diagonal_and_identity_bits_do_not_depend_on_blas_threads(self):
        # a full precision's P @ block rounds differently at two OpenBLAS
        # threads; the stacks-of-four product and the einsum do not
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
            done = subprocess.run(
                [sys.executable, "-c", _THREAD_PROBE], env=env, capture_output=True,
                text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            runs.append(done.stdout)
        assert runs[0] == runs[1]

    @NONFINITE
    @pytest.mark.parametrize("voxels", [[2 * _BLOCK + 1], [4, 2 * _BLOCK + 1]])
    def test_nonfinite_cell_in_a_padded_block_names_voxel(self, voxels, value):
        # the last block is zero-padded; voxels are counted over the whole
        # response, past a block that already failed, and no product warns
        rng = np.random.default_rng(58)
        y = rng.normal(size=(10, 2 * _BLOCK + 3))
        y[3, voxels] = value
        expected = (
            rf"^y'Py is not finite at {len(voxels)} voxel\(s\), "
            rf"first at voxel v{voxels[0] + 1};"
        )
        for precision_kind in ("identity", "diagonal", "full"):
            precision = random_precision(rng, 10, precision_kind)
            with pytest.raises(DomainError, match=expected):
                response_stats(y, [random_design(rng, 10, 2)], precision)

    @pytest.mark.parametrize(
        "precision, error, message",
        [
            (-np.ones(6), DecompositionError, "non-positive diagonal entry"),
            (np.ones(5), DomainError, "diagonal precision must have length n"),
            (np.array([1.0, 1.0, np.nan, 1.0, 1.0, 1.0]), DomainError, "precision must be finite"),
            (np.eye(6) + np.eye(6, k=1) * 0.5, DomainError, "precision must be symmetric"),
            (np.eye(5), DomainError, r"precision matrix must be \(n, n\)"),
            (np.diag([1.0, 1.0, -1.0, 1.0, 1.0, 1.0]), DecompositionError, "not positive definite"),
            (np.ones((6, 6, 1)), DomainError, "precision must be a vector or a matrix"),
        ],
        ids=["negative-diagonal", "short-diagonal", "nan", "asymmetric", "wrong-shape",
             "indefinite", "three-dimensional"],
    )
    def test_rejects_bad_precision(self, precision, error, message):
        # the response pass checks the precision, one a spec holds too
        rng = np.random.default_rng(55)
        y, x = rng.normal(size=(6, 3)), random_design(rng, 6, 2)
        with pytest.raises(error, match=message) as direct:
            response_stats(y, [x], precision)
        with pytest.raises(error) as relayed:
            cv_of_two(GlmSpec(Y=y, X=x, precision=precision))
        assert type(relayed.value) is type(direct.value)
        assert str(relayed.value) == f"session 1: {direct.value}"

    @pytest.mark.parametrize(
        "case, message",
        [
            ("nan-design", "^design 2 must be finite$"),
            ("vector-design", None),
            ("short-design", "^Y has 20 scans but design 2 has 19$"),
            ("list-response", None),
            ("vector-response", None),
            ("no-columns", "^design 2 has no columns$"),
            ("list-precision", None),
        ],
        ids=["nan-design", "vector-design", "short-design", "list-response",
             "vector-response", "no-columns", "list-precision"],
    )
    def test_takes_inputs_by_the_spec_rule(self, case, message):
        # floats, a vector as one column; a design the spec rejects, but for
        # its rank test, is named by its position from 1
        rng = np.random.default_rng(56)
        y, x = rng.normal(size=(20, 5)), random_design(rng, 20, 2)
        bad = x.copy()
        bad[3, 1] = np.nan
        design = {
            "nan-design": bad, "vector-design": x[:, 1], "short-design": x[:19],
            "no-columns": x[:, :0],
        }.get(case, x)
        response = {"list-response": y.tolist(), "vector-response": y[:, 2]}.get(case, y)
        precision = rng.uniform(0.5, 2.0, size=20).tolist() if case == "list-precision" else None
        if message is not None:
            with pytest.raises(DomainError, match=message):
                response_stats(response, [x, design])
            with pytest.raises(DomainError):
                GlmSpec(Y=response, X=design)
            return
        spec = GlmSpec(Y=response, X=design, precision=precision)
        found = response_stats(response, [x, design], precision)
        for got, want in zip(found, response_stats(spec.Y, [x, spec.X], spec.precision)):
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)

    @NONFINITE
    @pytest.mark.parametrize("precision_kind", ["identity", "diagonal", "full"])
    def test_nonfinite_response_cell_names_voxel(self, precision_kind, value):
        # the spec accepts the response; its statistics pass rejects it
        rng = np.random.default_rng(52)
        y = rng.normal(size=(10, 6))
        y[4, 5] = value
        spec = GlmSpec(
            Y=y, X=random_design(rng, 10, 2),
            precision=random_precision(rng, 10, precision_kind),
        )
        expected = r"^y'Py is not finite at 1 voxel\(s\), first at voxel v6;"
        with pytest.raises(DomainError, match=expected):
            stats_of(spec)

    @pytest.mark.parametrize("precision_kind", ["identity", "diagonal", "full"])
    def test_overflowing_response_names_voxels(self, precision_kind):
        rng = np.random.default_rng(53)
        y = rng.normal(size=(10, 6))
        y[:, [1, 4]] *= 1e160
        spec = GlmSpec(
            Y=y, X=random_design(rng, 10, 2),
            precision=random_precision(rng, 10, precision_kind),
        )
        expected = r"^y'Py is not finite at 2 voxel\(s\), first at voxel v2;"
        with pytest.raises(DomainError, match=expected):
            stats_of(spec)


class TestPosteriorUpdate:
    def test_nonpositive_rate_names_first_voxel_and_count(self):
        # statistics-only input whose y'Py falls below the fitted quadratic
        # form at voxels 3 and 5, so b = (y'Py - mu'X'Py) / 2 < 0 there
        rng = np.random.default_rng(51)
        stats = stats_of(GlmSpec(Y=rng.normal(size=(12, 7)), X=random_design(rng, 12, 2)))
        fitted = np.einsum(
            "pv,pv->v", stats.xtpy, np.linalg.solve(stats.xtpx, stats.xtpy)
        )
        ytpy = stats.ytpy.copy()
        ytpy[[3, 5]] = 0.5 * fitted[[3, 5]]
        with pytest.raises(
            EstimationError, match=r"at 2 voxel\(s\), first at voxel v4;"
        ):
            posterior_update(stats._replace(ytpy=ytpy), NgParams.noninformative(2))

    def test_hand_worked_example(self):
        # constant-only design, two scans at 1 and 3: posterior mean is the
        # sample mean, rate is half the squared residual sum
        spec = GlmSpec(Y=np.array([1.0, 3.0]), X=np.array([[1.0], [1.0]]))
        post = posterior_update(stats_of(spec), NgParams.noninformative(1))
        assert post.mu[0, 0] == pytest.approx(2.0)
        assert post.lam[0, 0] == pytest.approx(2.0)
        assert post.a == pytest.approx(1.0)
        assert post.b[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("precision_kind", ["identity", "diagonal", "full"])
    def test_chaining_equals_joint_update(self, precision_kind):
        rng = np.random.default_rng(42)
        for _ in range(25):
            p = int(rng.integers(1, 7))
            n = int(rng.integers(2 * p + 4, 48))
            spec, prior = random_proper_instance(
                rng, n=n, p=p, precision_kind=precision_kind
            )
            if rng.random() < 0.3:
                prior = NgParams.noninformative(spec.p)
            cut = int(rng.integers(spec.p + 1, spec.n - spec.p))
            if spec.precision is None:
                p1 = p2 = None
            elif spec.precision.ndim == 1:
                p1, p2 = spec.precision[:cut], spec.precision[cut:]
            else:
                p1, p2 = (
                    spec.precision[:cut, :cut],
                    spec.precision[cut:, cut:],
                )
            first = GlmSpec(Y=spec.Y[:cut], X=spec.X[:cut], precision=p1)
            second = GlmSpec(Y=spec.Y[cut:], X=spec.X[cut:], precision=p2)
            if spec.precision is not None and spec.precision.ndim == 2:
                # a full precision couples scans across the cut; rebuild the
                # joint spec from the two independent blocks instead
                joint_precision = np.zeros_like(spec.precision)
                joint_precision[:cut, :cut] = p1
                joint_precision[cut:, cut:] = p2
                spec = GlmSpec(Y=spec.Y, X=spec.X, precision=joint_precision)

            chained = posterior_update(stats_of(second), posterior_update(stats_of(first), prior))
            joint = posterior_update(stats_of(spec), prior)
            np.testing.assert_allclose(chained.mu, joint.mu, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(chained.lam, joint.lam, rtol=1e-10)
            np.testing.assert_allclose(chained.b, joint.b, rtol=1e-10)
            assert chained.a == pytest.approx(joint.a, rel=1e-12)

    @pytest.mark.parametrize("p", [1, 4])
    @pytest.mark.parametrize("precision_kind", ["identity", "diagonal", "full"])
    def test_noninformative_skip_changes_no_bit(self, monkeypatch, precision_kind, p):
        # the non-informative prior skips its zero products; the general
        # formula, which adds them, must give the same bits, and the shared
        # statistics must not be written to
        rng = np.random.default_rng(60 + p)
        n = 3 * p + 9
        spec = GlmSpec(
            Y=rng.normal(size=(n, 37)) * 40.0 + 5.0,
            X=random_design(rng, n, p),
            precision=random_precision(rng, n, precision_kind),
        )
        stats = stats_of(spec)
        xtpy = stats.xtpy.copy()
        skip = posterior_update(stats, NgParams.noninformative(p))
        monkeypatch.setattr(NgParams, "is_noninformative", property(lambda self: False))
        general = posterior_update(stats, NgParams.noninformative(p))
        for name in ("mu", "lam", "b", "_chol"):
            assert getattr(skip, name).tobytes() == getattr(general, name).tobytes(), name
        assert skip.a == general.a
        assert stats.xtpy.tobytes() == xtpy.tobytes()

    def test_voxel_permutation_equivariance(self):
        # bit-equivariant on a C-ordered permuted copy (Y[:, perm] alone is
        # Fortran-ordered, and adds each voxel's terms in another order)
        rng = np.random.default_rng(9)
        spec, prior = random_proper_instance(rng, v=8)
        perm = rng.permutation(8)
        y = np.ascontiguousarray(spec.Y[:, perm])
        permuted_spec = GlmSpec(Y=y, X=spec.X, precision=spec.precision)
        post = posterior_update(stats_of(spec), prior)
        post_perm = posterior_update(stats_of(permuted_spec), prior)
        np.testing.assert_array_equal(post_perm.mu, post.mu[:, perm])
        np.testing.assert_array_equal(post_perm.b, post.b[perm])


class TestEvidenceQuantities:
    def test_identity_lme_acc_com(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            spec, prior = random_proper_instance(rng)
            stats = stats_of(spec)
            post = posterior_update(stats, prior)
            lme = log_model_evidence(stats, prior, post)
            acc = accuracy(stats, post)
            com = complexity(prior, post)
            np.testing.assert_allclose(lme, acc - com, atol=1e-8)

    def test_lme_matches_brute_force_integral(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            n = int(rng.integers(3, 7))
            y = rng.normal(size=n)
            x = rng.normal(size=(n, 1))
            prior = NgParams(
                mu=rng.normal(size=1),
                lam=np.array([[float(rng.uniform(0.3, 2.0))]]),
                a=float(rng.uniform(0.6, 3.0)),
                b=float(rng.uniform(0.6, 3.0)),
            )
            spec = GlmSpec(Y=y, X=x)
            stats = stats_of(spec)
            post = posterior_update(stats, prior)
            lme = float(log_model_evidence(stats, prior, post)[0])
            oracle = lme_by_quadrature(y, x, prior)
            assert abs(lme - oracle) < 1e-4

    @pytest.mark.parametrize("precision_kind", ["identity", "diagonal", "full"])
    def test_accuracy_matches_residual_form(self, precision_kind):
        # the sufficient-statistics expansion against the direct residual
        # form, both under the same posterior
        rng = np.random.default_rng(21)
        for _ in range(50):
            spec, prior = random_proper_instance(rng, precision_kind=precision_kind)
            stats = stats_of(spec)
            post = posterior_update(stats, prior)
            np.testing.assert_allclose(
                accuracy(stats, post),
                accuracy_by_residual(spec, post),
                rtol=1e-10,
                atol=1e-10,
            )

    def test_improper_prior_rejected(self):
        spec = GlmSpec(Y=np.arange(4.0), X=np.ones((4, 1)))
        ni = NgParams.noninformative(1)
        stats = stats_of(spec)
        post = posterior_update(stats, ni)
        with pytest.raises(DomainError):
            log_model_evidence(stats, ni, post)
        with pytest.raises(DomainError):
            complexity(ni, post)

    @pytest.mark.parametrize(
        "evidence",
        [
            lambda stats, prior, post: log_model_evidence(stats, prior, post),
            lambda stats, prior, post: accuracy(stats, post),
            lambda stats, prior, post: complexity(prior, post),
        ],
        ids=["log_model_evidence", "accuracy", "complexity"],
    )
    def test_zero_rate_posterior_rejected(self, evidence):
        # a log of the zero rate would warn and return -inf or nan
        spec, prior = random_proper_instance(np.random.default_rng(8), v=3)
        stats = stats_of(spec)
        post = posterior_update(stats, prior)
        b = post.b.copy()
        b[1] = 0.0
        zero_rate = NgParams(mu=post.mu, lam=post.lam, a=post.a, b=b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="proper"):
                evidence(stats, prior, zero_rate)

    def test_duplicated_voxel_column(self):
        rng = np.random.default_rng(31)
        spec, prior = random_proper_instance(rng, v=3)
        y = np.hstack([spec.Y, spec.Y[:, [1]]])
        doubled = GlmSpec(Y=y, X=spec.X, precision=spec.precision)
        stats = stats_of(doubled)
        post = posterior_update(stats, prior)
        lme = log_model_evidence(stats, prior, post)
        assert lme[3] == lme[1]

    def test_identity_precision_drops_logdet_term(self):
        spec = GlmSpec(Y=np.arange(4.0), X=np.ones((4, 1)))
        assert stats_of(spec).logdet_precision == 0.0

    def test_accuracy_monte_carlo_oracle(self):
        # posterior-expected log-likelihood by direct simulation from the
        # posterior: tau ~ Gamma, coefficients | tau ~ Gaussian
        rng = np.random.default_rng(4)
        spec, prior = random_proper_instance(
            rng, n=16, p=2, v=1, precision_kind="diagonal"
        )
        stats = stats_of(spec)
        post = posterior_update(stats, prior)
        acc = float(accuracy(stats, post)[0])

        draws = 100_000
        tau = rng.gamma(post.a, 1.0 / post.b[0], size=draws)
        chol = np.linalg.cholesky(post.lam)
        z = rng.normal(size=(spec.p, draws))
        betas = post.mu[:, [0]] + np.linalg.solve(chol.T, z) / np.sqrt(tau)

        resid = spec.Y[:, [0]] - spec.X @ betas
        quad = np.einsum("nd,nd->d", resid, spec.precision[:, None] * resid)
        loglik = (
            0.5 * float(np.sum(np.log(spec.precision)))
            + 0.5 * spec.n * np.log(tau)
            - 0.5 * spec.n * np.log(2 * np.pi)
            - 0.5 * tau * quad
        )
        se = loglik.std(ddof=1) / np.sqrt(draws)
        assert abs(loglik.mean() - acc) < 3 * se

    def test_complexity_matches_kl_assembly(self):
        # independent route: expected coefficient KL at the posterior mean
        # precision, plus the Gamma KL, both from the generic divergences
        rng = np.random.default_rng(8)
        for _ in range(50):
            spec, prior = random_proper_instance(rng, v=1)
            post = posterior_update(stats_of(spec), prior)
            com = float(complexity(prior, post)[0])

            tau_bar, _ = gamma_moments(post.a, float(post.b[0]))
            expected_beta_kl = kl_mvn(
                post.mu[:, 0],
                np.linalg.inv(tau_bar * post.lam),
                prior.mu,
                np.linalg.inv(tau_bar * prior.lam),
            )
            tau_kl = kl_gamma(
                post.a, float(post.b[0]), prior.a, float(prior.b)
            )
            np.testing.assert_allclose(com, expected_beta_kl + tau_kl, atol=1e-8)

    def test_complexity_zero_when_posterior_is_prior(self):
        rng = np.random.default_rng(12)
        prior = NgParams(
            mu=rng.normal(size=3), lam=random_spd(rng, 3), a=2.0, b=1.5
        )
        post = NgParams(
            mu=np.tile(prior.mu[:, None], 4), lam=prior.lam.copy(), a=prior.a,
            b=np.full(4, prior.b),
        )
        np.testing.assert_allclose(complexity(prior, post), 0.0, atol=1e-12)

    def test_complexity_nonnegative(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            spec, prior = random_proper_instance(
                rng, n=int(rng.integers(4, 20)), p=int(rng.integers(1, 4)), v=1
            )
            post = posterior_update(stats_of(spec), prior)
            assert complexity(prior, post)[0] >= -1e-10

    def test_irrelevant_regressor_penalized_on_average(self):
        # adding a pure-noise column should not raise the cross-validated
        # evidence on average; informational, printed for the record
        rng = np.random.default_rng(99)
        layout = SessionLayout.from_counts([24, 24])
        deltas = []
        for _ in range(100):
            narrow, wide = [], []
            for _ in range(2):
                n, v = 24, 1
                x1 = np.hstack([rng.normal(size=(n, 1)), np.ones((n, 1))])
                noise_col = rng.normal(size=(n, 1))
                x2 = np.hstack([x1[:, :1], noise_col, x1[:, 1:]])
                beta = np.array([[1.5], [0.3]])
                y = x1 @ beta + rng.normal(scale=0.7, size=(n, v))
                narrow.append(GlmSpec(Y=y, X=x1))
                wide.append(GlmSpec(Y=y, X=x2))
            lme = cv_lme_models({"narrow": narrow, "wide": wide}, layout).cv_lme
            deltas.append(float(lme[1, 0] - lme[0, 0]))
        mean_delta = float(np.mean(deltas))
        print(f"\nirrelevant-regressor mean cvLME change: {mean_delta:+.4f}")
        assert mean_delta < 0.5  # soft sanity; the mean should hover below 0
