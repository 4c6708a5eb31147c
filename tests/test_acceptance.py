"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report including measured tolerances, runtimes, and the exceedance-method
timing factor.
"""

import csv
import time

import numpy as np
import pytest
from helpers import (
    build_toy_workspace,
    ep_beta_closed_form,
    ep_one_voxel,
    ep_sampling,
    gamma_moments,
    kl_gamma,
    kl_mvn,
    lme_by_quadrature,
    random_proper_instance,
    stats_of,
)

from evidencer.bma import (
    BetaStack,
    FamilyPartition,
    cv_bma,
    log_family_evidence,
    oos_bma,
    posterior_probabilities,
)
from evidencer.cli import main
from evidencer.crossval import SessionLayout, cv_lme_models
from evidencer.glm import (
    GlmSpec,
    NgParams,
    accuracy,
    complexity,
    log_model_evidence,
    posterior_update,
)
from evidencer.rfx import GroupLmeStack, estimate_rfx


def report(number: int, detail: str) -> None:
    print(f"\nACCEPTANCE {number:2d} PASS: {detail}")


def split_spec(spec, cut):
    if spec.precision is None:
        p1 = p2 = None
    elif spec.precision.ndim == 1:
        p1, p2 = spec.precision[:cut], spec.precision[cut:]
    else:
        p1, p2 = spec.precision[:cut, :cut], spec.precision[cut:, cut:]
    first = GlmSpec(Y=spec.Y[:cut], X=spec.X[:cut], precision=p1)
    second = GlmSpec(Y=spec.Y[cut:], X=spec.X[cut:], precision=p2)
    if spec.precision is not None and spec.precision.ndim == 2:
        block = np.zeros_like(spec.precision)
        block[:cut, :cut] = p1
        block[cut:, cut:] = p2
        spec = GlmSpec(Y=spec.Y, X=spec.X, precision=block)
    return spec, first, second


def test_criterion_01_lme_identity():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        spec, prior = random_proper_instance(rng)
        stats = stats_of(spec)
        post = posterior_update(stats, prior)
        lme = log_model_evidence(stats, prior, post)
        gap = np.abs(lme - (accuracy(stats, post) - complexity(prior, post)))
        worst = max(worst, float(gap.max()))
    elapsed = time.perf_counter() - started
    assert worst < 1e-8
    assert elapsed < 10.0
    report(1, f"evidence identity, 1000 instances: worst gap {worst:.2e}, "
              f"{elapsed:.1f}s")


def test_criterion_02_posterior_chaining():
    rng = np.random.default_rng(202)
    started = time.perf_counter()
    for trial in range(500):
        p = int(rng.integers(1, 7))
        n = int(rng.integers(2 * p + 4, 64))
        spec, prior = random_proper_instance(rng, n=n, p=p)
        if trial % 3 == 0:
            prior = NgParams.noninformative(p)
        cut = int(rng.integers(p + 1, n - p))
        spec, first, second = split_spec(spec, cut)
        chained = posterior_update(stats_of(second), posterior_update(stats_of(first), prior))
        joint = posterior_update(stats_of(spec), prior)
        np.testing.assert_allclose(chained.mu, joint.mu, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(chained.lam, joint.lam, rtol=1e-10)
        np.testing.assert_allclose(chained.b, joint.b, rtol=1e-10)
        assert chained.a == pytest.approx(joint.a, rel=1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(2, f"train-then-test chaining, 500 instances incl. flat prior, "
              f"{elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_03_brute_force_evidence_oracle():
    rng = np.random.default_rng(303)
    started = time.perf_counter()
    worst_lme = 0.0
    for _ in range(25):
        n = int(rng.integers(3, 7))
        y = rng.normal(size=n) * float(rng.uniform(0.5, 2.0))
        x = rng.normal(size=(n, 1))
        prior = NgParams(
            mu=rng.normal(size=1),
            lam=np.array([[float(rng.uniform(0.3, 2.5))]]),
            a=float(rng.uniform(0.6, 3.0)),
            b=float(rng.uniform(0.6, 3.0)),
        )
        spec = GlmSpec(Y=y, X=x)
        stats = stats_of(spec)
        post = posterior_update(stats, prior)
        lme = float(log_model_evidence(stats, prior, post)[0])
        worst_lme = max(worst_lme, abs(lme - lme_by_quadrature(y, x, prior)))

    worst_oos = 0.0
    for _ in range(25):
        n = int(rng.integers(4, 7))
        y1, y2 = rng.normal(size=n) + 0.5, rng.normal(size=n) + 0.5
        x1, x2 = rng.normal(size=(n, 1)), rng.normal(size=(n, 1))
        specs = [GlmSpec(Y=y1, X=x1), GlmSpec(Y=y2, X=x2)]
        layout = SessionLayout.from_counts([n, n])
        lme = cv_lme_models({"m": specs}, layout).oos_lme[1, 0]
        train_prior = posterior_update(stats_of(specs[0]), NgParams.noninformative(1))
        oracle = lme_by_quadrature(y2, x2, train_prior)
        worst_oos = max(worst_oos, abs(float(lme[0]) - oracle))
    elapsed = time.perf_counter() - started
    assert worst_lme < 1e-4
    assert worst_oos < 1e-4
    assert elapsed < 60.0
    report(3, f"2-D integral oracle, 50 toys: worst LME gap {worst_lme:.2e}, "
              f"worst oos gap {worst_oos:.2e}, {elapsed:.1f}s")


def test_criterion_04_complexity_decomposition():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(500):
        spec, prior = random_proper_instance(rng, v=1)
        post = posterior_update(stats_of(spec), prior)
        com = float(complexity(prior, post)[0])
        tau_bar, _ = gamma_moments(post.a, float(post.b[0]))
        beta_part = kl_mvn(
            post.mu[:, 0],
            np.linalg.inv(tau_bar * post.lam),
            prior.mu,
            np.linalg.inv(tau_bar * prior.lam),
        )
        tau_part = kl_gamma(post.a, float(post.b[0]), prior.a, float(prior.b))
        worst = max(worst, abs(com - (beta_part + tau_part)))
    assert worst < 1e-8
    report(4, f"complexity = expected-KL + precision-KL, 500 instances: "
              f"worst gap {worst:.2e}")


def test_criterion_05_ep_closed_form_agreement():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(200):
        alpha = rng.uniform(0.5, 25.0, size=2)
        gap = np.abs(ep_one_voxel(alpha) - ep_beta_closed_form(alpha))
        worst = max(worst, float(gap.max()))
    assert worst < 1e-6
    report(5, f"integration vs closed form, 200 pairs: worst gap {worst:.2e}")


@pytest.mark.slow
def test_criterion_06_ep_monte_carlo_agreement():
    rng = np.random.default_rng(606)
    started = time.perf_counter()
    worst = 0.0
    for k in (3, 5, 8, 12):
        for _ in range(20):
            alpha = rng.uniform(0.7, 10.0, size=k)
            phi_int = ep_one_voxel(alpha)
            phi_mc = ep_sampling(alpha, samples=1_000_000,
                                 seed=int(rng.integers(2**31)))
            worst = max(worst, float(np.max(np.abs(phi_int - phi_mc))))
    elapsed = time.perf_counter() - started
    assert worst < 0.01
    assert elapsed < 300.0
    report(6, f"integration vs 1e6-sample MC, k in 3/5/8/12 x 20: worst gap "
              f"{worst:.4f}, {elapsed:.0f}s")


def test_criterion_07_ep_symmetry():
    rng = np.random.default_rng(707)
    for k in (2, 3, 5, 8, 12):
        c = float(rng.uniform(0.8, 12.0))
        alpha = np.full(k, c)
        np.testing.assert_allclose(ep_one_voxel(alpha), 1.0 / k, atol=1e-6)
        if k == 2:
            np.testing.assert_allclose(
                ep_beta_closed_form(alpha), 0.5, atol=1e-6
            )
        samples = 400_000
        phi = ep_sampling(alpha, samples=samples, seed=k)
        binom_se = np.sqrt((1.0 / k) * (1.0 - 1.0 / k) / samples)
        assert np.max(np.abs(phi - 1.0 / k)) <= 3 * binom_se
    report(7, "equal concentrations give 1/k for all three methods")


def test_criterion_08_ep_timing_report(tmp_path):
    rng = np.random.default_rng(808)
    rows = []
    factors = {}
    for k in (2, 3, 4, 6, 8, 12):
        alpha = rng.uniform(1.0, 8.0, size=k)
        started = time.perf_counter()
        ep_one_voxel(alpha)
        t_int = time.perf_counter() - started
        started = time.perf_counter()
        ep_sampling(alpha, samples=1_000_000, seed=k)
        t_samp = time.perf_counter() - started
        rows.append((k, t_int, t_samp))
        factors[k] = t_samp / t_int
    path = tmp_path / "timings.csv"
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["k", "integration_seconds", "sampling_seconds"])
        writer.writerows(rows)
    for k, t_int, t_samp in rows:
        if k >= 4:
            assert t_int < t_samp, f"integration slower than sampling at k={k}"
    pretty = ", ".join(f"k={k}: {f:.0f}x" for k, f in factors.items())
    report(8, f"integration vs 1e6-sample MC speedup (reported, not asserted): "
              f"{pretty}; table at {path}")


def test_criterion_09_posterior_probabilities():
    lme = np.array([[-20.0, -40.0], [-21.0, -45.0]])
    pp = posterior_probabilities(lme)
    assert abs(pp.pp[0, 0] - 0.7311) < 0.0005
    assert abs(pp.pp[0, 1] - 0.9933) < 0.0005
    rng = np.random.default_rng(909)
    base = posterior_probabilities(lme)
    for shift in (1000.0, -1000.0, rng.uniform(-1000, 1000, size=(1, 2))):
        shifted = posterior_probabilities(lme + shift)
        np.testing.assert_allclose(shifted.pp, base.pp, atol=1e-12)
    report(9, "one-evidence-unit gap -> 0.7311, five -> 0.9933; per-voxel "
              "shifts of +-1000 leave probabilities unchanged to 1e-12")


def test_criterion_10_lfe_underflow_suite():
    # spreads of 1500 log-units stay finite and match the shifted-sum value
    lme = np.array([[0.0, -750.0], [-1500.0, -2250.0], [-40.0, -1200.0]])
    part = FamilyPartition.from_mapping(3, {"all": (0, 1, 2)})
    out = log_family_evidence(lme, part)
    assert np.all(np.isfinite(out))
    hand = np.empty(2)
    for v in range(2):
        top = lme[:, v].max()
        hand[v] = top + np.log(np.sum(np.exp(lme[:, v] - top))) - np.log(3.0)
    np.testing.assert_allclose(out[0], hand, atol=1e-9)

    rng = np.random.default_rng(1010)
    wide = rng.uniform(-800.0, 0.0, size=(4, 6))
    part4 = FamilyPartition.from_mapping(4, {"a": (0, 1), "b": (2, 3)})
    base = log_family_evidence(wide, part4)
    for c in (500.0, -500.0, 1500.0):
        np.testing.assert_allclose(
            log_family_evidence(wide + c, part4), base + c, atol=1e-9
        )
    report(10, "family evidence finite at 1500-unit spreads, equals "
               "shifted-sum hand value to 1e-9; constant shifts carry "
               "through exactly")


def test_criterion_11_rfx_fixed_point():
    n, k = 9, 4
    ids = tuple(f"s{i}" for i in range(n))
    symmetric = estimate_rfx(GroupLmeStack(lme=np.zeros((n, k, 2)), subject_ids=ids))
    np.testing.assert_allclose(symmetric.alpha, 1.0 + n / k, atol=1e-12)

    dominant = np.zeros((n, k, 1))
    dominant[:, 2, :] = 50.0
    saturated = estimate_rfx(GroupLmeStack(lme=dominant, subject_ids=ids))
    np.testing.assert_allclose(saturated.alpha[2], 1.0 + n, atol=1e-6)
    for j in (0, 1, 3):
        np.testing.assert_allclose(saturated.alpha[j], 1.0, atol=1e-6)

    rng = np.random.default_rng(1111)
    lme = rng.normal(size=(n, k, 5)) * 4
    shifts = rng.uniform(-500, 500, size=(n, 1, 5))
    a = estimate_rfx(GroupLmeStack(lme=lme, subject_ids=ids))
    b = estimate_rfx(GroupLmeStack(lme=lme + shifts, subject_ids=ids))
    np.testing.assert_allclose(a.alpha, b.alpha, atol=1e-10)
    report(11, "variational fixed point: symmetry, +50 dominance saturation, "
               "per-subject shift invariance")


def test_criterion_12_cvbma_recovery_simulation():
    started = time.perf_counter()
    rng = np.random.default_rng(1212)
    v, s, n = 500, 4, 40

    # model m1: task + constant; model m2 adds a modulator correlated with
    # the task so that omitting a real modulation biases m1's estimate
    tasks, mods, x1s, x2s = [], [], [], []
    for _ in range(s):
        task = rng.normal(size=(n, 1))
        mod = 0.6 * task + 0.8 * rng.normal(size=(n, 1))
        const = np.ones((n, 1))
        tasks.append(task)
        mods.append(mod)
        x1s.append(np.hstack([task, const]))
        x2s.append(np.hstack([task, mod, const]))

    true_task = rng.uniform(0.5, 1.5, size=v)
    true_mod = np.where(np.arange(v) % 2 == 1, 1.2, 0.0)
    specs_m1, specs_m2 = [], []
    betas = np.empty((2, s, v))
    for j in range(s):
        y = (
            tasks[j] @ true_task[None, :]
            + mods[j] @ (true_mod[None, :])
            + 0.4 * np.ones((n, 1)) @ np.ones((1, v))
            + rng.normal(scale=1.0, size=(n, v))
        )
        specs_m1.append(GlmSpec(Y=y, X=x1s[j]))
        specs_m2.append(GlmSpec(Y=y, X=x2s[j]))
        betas[0, j] = np.linalg.lstsq(x1s[j], y, rcond=None)[0][0]
        betas[1, j] = np.linalg.lstsq(x2s[j], y, rcond=None)[0][0]

    layout = SessionLayout.from_counts([n] * s)
    lme = cv_lme_models({"m1": specs_m1, "m2": specs_m2}, layout).cv_lme
    pp = posterior_probabilities(lme)
    stack = BetaStack(beta=betas, regressor_name="task")
    averaged = cv_bma(stack, pp)

    bridge = oos_bma(stack, [pp] * s)
    np.testing.assert_allclose(bridge, averaged, atol=1e-12)

    session_means = betas.mean(axis=1)
    err_bma = (averaged - true_task) ** 2
    err_m = (session_means - true_task[None, :]) ** 2
    groups = np.arange(v).reshape(50, 10)
    wins = 0
    for g in groups:
        worse = max(err_m[0, g].mean(), err_m[1, g].mean())
        if err_bma[g].mean() < worse:
            wins += 1
    elapsed = time.perf_counter() - started
    assert wins >= 48  # 95% of 50 groups, rounded up
    assert elapsed < 60.0
    report(12, f"averaged estimates beat the worse model in {wins}/50 voxel "
               f"groups; session-wise/session-wide bridge exact to 1e-12; "
               f"{elapsed:.1f}s")


def test_criterion_13_pipeline_determinism(tmp_path):
    config_path = build_toy_workspace(tmp_path / "ws", seed=77)
    runs = {
        "one": ["--threads", "1"],
        "two": ["--threads", "1"],
        "four": ["--threads", "4"],
    }
    for label, extra in runs.items():
        code = main(
            [
                "pipeline",
                "--config", str(config_path),
                "--out", str(tmp_path / label),
                *extra,
            ]
        )
        assert code == 0
    names = sorted(
        p.name for p in (tmp_path / "one").iterdir() if p.name != "timings.csv"
    )
    assert "manifest.json" in names
    for name in names:
        reference = (tmp_path / "one" / name).read_bytes()
        assert (tmp_path / "two" / name).read_bytes() == reference, name
        assert (tmp_path / "four" / name).read_bytes() == reference, name
    report(13, f"pipeline outputs byte-identical across reruns and across "
               f"thread counts ({len(names)} files compared)")
