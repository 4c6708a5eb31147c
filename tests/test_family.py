"""Log family evidence: shifted-sum arithmetic and partition rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evidencer.errors import DomainError
from evidencer.bma import FamilyPartition, log_family_evidence


def uniform_partition(n_models, groups):
    return FamilyPartition.from_mapping(
        n_models, {f"f{i}": idx for i, idx in enumerate(groups)}
    )


class TestFamilyPartition:
    def test_valid_partition(self):
        part = uniform_partition(4, [(0, 2), (1, 3)])
        assert part.names == ("f0", "f1")

    def test_rejects_overlap(self):
        with pytest.raises(DomainError):
            uniform_partition(3, [(0, 1), (1, 2)])

    def test_rejects_gap(self):
        with pytest.raises(DomainError):
            uniform_partition(3, [(0,), (1,)])

    def test_integral_float_model_count_is_that_count(self):
        part = FamilyPartition(2.0, (("a", (0, 1)),))
        assert part.n_models == 2 and type(part.n_models) is int

    @pytest.mark.parametrize("value", [1.5, True, np.True_, None, float("nan"), 0])
    def test_rejects_non_integral_model_count(self, value):
        with pytest.raises(DomainError, match="^partition needs a positive integral model count"):
            FamilyPartition(value, (("a", (0,)),))

    def test_model_count_past_the_indices_fails_before_listing_it(self):
        with pytest.raises(DomainError, match="^families must partition the model space"):
            FamilyPartition(10**18, (("a", (0,)),))

    def test_rejects_non_integral_index(self):
        with pytest.raises(DomainError, match="1.7"):
            FamilyPartition.from_mapping(2, {"a": (0,), "b": (1.7,)})
        assert FamilyPartition.from_mapping(2, {"a": (0,), "b": (1.0,)}).families[1] == ("b", (1,))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_index(self, value):
        with pytest.raises(DomainError, match=rf"non-integral indices \({value!r},\)"):
            FamilyPartition.from_mapping(2, {"a": (0,), "b": (value,)})

    def test_rejects_boolean_index(self):
        with pytest.raises(DomainError, match=r"non-integral indices \(True,\)"):
            FamilyPartition.from_mapping(2, {"a": (True,), "b": (1,)})

    @pytest.mark.parametrize("value", [np.False_, np.True_])
    def test_rejects_numpy_boolean_index(self, value):
        families = {"a": (value,), "b": (1 - int(value),)}
        with pytest.raises(DomainError, match=f"non-integral indices \\({value!r},\\)"):
            FamilyPartition.from_mapping(2, families)

    def test_rejects_empty_family(self):
        with pytest.raises(DomainError):
            uniform_partition(2, [(0, 1), ()])

    def test_rejects_bad_weights(self):
        with pytest.raises(DomainError):
            FamilyPartition.from_mapping(
                2, {"a": (0, 1)}, {"a": np.array([0.6, 0.6])}
            )
        with pytest.raises(DomainError):
            FamilyPartition.from_mapping(
                2, {"a": (0, 1)}, {"a": np.array([1.2, -0.2])}
            )

    def test_rejects_too_few_weight_vectors(self):
        with pytest.raises(DomainError, match="2 families but 1 weight vectors"):
            FamilyPartition(
                3, (("a", (0,)), ("b", (1, 2))), weights=(np.array([1.0]),)
            )

    def test_missing_weights_are_uniform(self):
        part = FamilyPartition.from_mapping(
            3, {"a": (0,), "b": (1, 2)}, {"b": np.array([0.25, 0.75])}
        )
        np.testing.assert_array_equal(part.weights[0], [1.0])
        np.testing.assert_array_equal(part.weights[1], [0.25, 0.75])
        uniform = uniform_partition(3, [(0,), (1, 2)])
        np.testing.assert_array_equal(uniform.weights[1], [0.5, 0.5])


class TestLogFamilyEvidence:
    def test_singleton_family_passthrough(self):
        lme = np.array([[-10.0, -20.0], [-5.0, -1.0]])
        part = uniform_partition(2, [(0,), (1,)])
        out = log_family_evidence(lme, part)
        np.testing.assert_array_equal(out, lme)

    def test_equal_members_collapse(self):
        lme = np.array([[-33.0], [-33.0]])
        part = uniform_partition(2, [(0, 1)])
        out = log_family_evidence(lme, part)
        np.testing.assert_allclose(out, [[-33.0]], atol=1e-12)

    def test_underflow_member_is_ignored(self):
        # the trailing member sits 1000 log-units down; the family follows
        # the leader minus log(2)
        lme = np.array([[-1000.0], [-2000.0]])
        part = uniform_partition(2, [(0, 1)])
        out = log_family_evidence(lme, part)
        np.testing.assert_allclose(out, [[-1000.0 - np.log(2.0)]], rtol=1e-15)

    def test_uniform_equals_explicit_uniform_weights(self):
        rng = np.random.default_rng(1)
        lme = rng.normal(size=(5, 7)) * 10 - 50
        groups = {"a": (0, 2, 4), "b": (1, 3)}
        implicit = FamilyPartition.from_mapping(5, groups)
        explicit = FamilyPartition.from_mapping(
            5,
            groups,
            {"a": np.full(3, 1.0 / 3.0), "b": np.full(2, 0.5)},
        )
        np.testing.assert_allclose(
            log_family_evidence(lme, implicit),
            log_family_evidence(lme, explicit),
            atol=1e-12,
        )

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-500.0, max_value=500.0))
    def test_constant_shift_covariance(self, c):
        lme = np.array([[-3.0, -8.0], [-4.0, -2.0], [-9.0, -1.0]])
        part = uniform_partition(3, [(0, 1), (2,)])
        base = log_family_evidence(lme, part)
        shifted = log_family_evidence(lme + c, part)
        np.testing.assert_allclose(shifted, base + c, atol=1e-9)

    def test_bracketed_by_max(self):
        rng = np.random.default_rng(3)
        lme = rng.normal(size=(6, 9)) * 20 - 100
        part = uniform_partition(6, [(0, 1, 2), (3, 4, 5)])
        out = log_family_evidence(lme, part)
        for f, (_, idx) in enumerate(part.families):
            top = lme[list(idx)].max(axis=0)
            assert np.all(out[f] <= top + 1e-12)
            assert np.all(out[f] >= top - np.log(len(idx)) - 1e-12)

    def test_small_instance_plain_arithmetic_oracle(self):
        # direct averaging of exponentials is safe for mild evidences
        rng = np.random.default_rng(5)
        for _ in range(25):
            m = int(rng.integers(1, 5))
            lme = rng.uniform(-20.0, 0.0, size=(m, 3))
            part = uniform_partition(m, [tuple(range(m))])
            direct = np.log(np.exp(lme).mean(axis=0))
            out = log_family_evidence(lme, part)
            np.testing.assert_allclose(out[0], direct, atol=1e-12)

    def test_nonuniform_weights(self):
        lme = np.array([[0.0], [0.0]])
        part = FamilyPartition.from_mapping(
            2, {"a": (0, 1)}, {"a": np.array([0.9, 0.1])}
        )
        out = log_family_evidence(lme, part)
        # equal evidences, weighted mean of exponentials is exp(0)
        np.testing.assert_allclose(out, [[0.0]], atol=1e-12)

    def test_zero_weight_excludes_model(self):
        lme = np.array([[-5.0], [999.0]])
        part = FamilyPartition.from_mapping(
            2, {"a": (0, 1)}, {"a": np.array([1.0, 0.0])}
        )
        out = log_family_evidence(lme, part)
        np.testing.assert_allclose(out, [[-5.0]], atol=1e-12)

    def test_rejects_nonfinite_evidence(self):
        part = uniform_partition(2, [(0, 1)])
        with pytest.raises(DomainError):
            log_family_evidence(np.array([[-np.inf], [0.0]]), part)

    def test_weighted_small_instance_oracle(self):
        rng = np.random.default_rng(7)
        lme = rng.uniform(-15.0, 0.0, size=(3, 4))
        w = np.array([0.5, 0.3, 0.2])
        part = FamilyPartition.from_mapping(3, {"a": (0, 1, 2)}, {"a": w})
        direct = np.log(np.einsum("m,mv->v", w, np.exp(lme)))
        out = log_family_evidence(lme, part)
        np.testing.assert_allclose(out[0], direct, atol=1e-12)
