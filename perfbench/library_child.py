"""Library-fit child process.

``library_child.py --seed N --sizes JSON --seconds S --result-out FILE
[--trace-out FILE]`` generates the library-fit inputs in memory, then
repeats the first-level chain (GlmSpec, cv_lme_models, log_family_evidence,
posterior_probabilities, cv_bma) and estimate_rfx until S seconds have
passed (once when traced). Each repetition's wall and CPU time cover only
the calls into the library; its outputs are checked and hashed outside the
timed region, and the summary, with this process's peak RSS, goes to the
result file. The reference work (``reference.py``) is timed before every
repetition and after the last.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import checks
import reference
from cli_child import peak_rss_bytes
import tracer
import workloads


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _library_rep(ev, inputs: dict):
    """One pass of the library-fit chain; returns every product."""
    designs, data = inputs["designs"], inputs["data"]
    models = {
        name: [ev.GlmSpec(Y=data[s], X=designs[s][:, cols]) for s in range(data.shape[0])]
        for name, cols in workloads.MODELS.items()
    }
    layout = ev.SessionLayout.from_counts([data.shape[1]] * data.shape[0])
    cv = ev.cv_lme_models(models, layout)
    order = {name: i for i, name in enumerate(workloads.MODELS)}
    partition = ev.FamilyPartition.from_mapping(
        len(order),
        {fam: tuple(order[m] for m in members) for fam, members in workloads.FAMILIES.items()},
    )
    lfe = ev.log_family_evidence(cv.cv_lme, partition)
    probs = ev.posterior_probabilities(cv.cv_lme)
    bma = ev.cv_bma(ev.BetaStack(beta=inputs["betas"], regressor_name=workloads.BETA_REGRESSOR), probs)
    group = ev.GroupLmeStack(
        lme=inputs["group"],
        subject_ids=tuple(f"sub-{i + 1:02d}" for i in range(inputs["group"].shape[0])),
    )
    post = ev.estimate_rfx(
        group,
        alpha0=workloads.VB["alpha0"],
        tol=workloads.VB["vb_tol"],
        max_iter=workloads.VB["vb_max_iter"],
    )
    return cv, lfe, probs, bma, post


def _check_library(inputs: dict, cv, lfe, probs, bma, post) -> checks.Checks:
    found = checks.Checks()
    sample = inputs["sample"]
    truth = {
        "sample": sample,
        "designs": inputs["designs"],
        "data_sample": inputs["data"][:, :, sample],
        "betas": inputs["betas"],
    }
    checks.check_first_level(
        found, truth, cv.cv_lme, cv.cv_acc, cv.cv_com, cv.oos_lme, cv.oos_acc, cv.oos_com
    )
    checks.check_averaging(found, truth, cv.cv_lme, lfe, probs.pp, bma)
    checks.check_rfx(
        found, inputs["group"], post.alpha, workloads.VB["alpha0"], workloads.VB["vb_tol"],
        post.expected_freq,
    )
    return found


def run_library(args) -> int:
    sizes = workloads.Sizes(**json.loads(args.sizes))
    started = time.perf_counter()
    inputs = workloads.library_inputs(args.seed, sizes)
    generation_s = time.perf_counter() - started

    recorder = None
    if args.trace_out:
        recorder = tracer.Recorder()
        recorder.install(tracer.LIBRARY_HOOKS)
    import evidencer as ev

    reps = []
    reference_s = []
    digests = None
    found = checks.Checks()
    budget_start = time.perf_counter()
    while True:
        reference_s.append(reference.reference_seconds())
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        products = _library_rep(ev, inputs)
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
        cv, lfe, probs, bma, post = products
        rep_checks = _check_library(inputs, *products)
        for name, (err, tol) in rep_checks.errors.items():
            found.record(name, err, tol)
        failures = rep_checks.failures()
        rep_digests = checks.array_digests(
            {
                "cv_lme": cv.cv_lme, "cv_acc": cv.cv_acc, "cv_com": cv.cv_com,
                "oos_lme": cv.oos_lme, "oos_acc": cv.oos_acc, "oos_com": cv.oos_com,
                "lfe": lfe, "pp": probs.pp, "bma": bma, "alpha": post.alpha,
            }
        )
        if digests is None:
            digests = rep_digests
        elif rep_digests != digests:
            failures.append("result digests differ from the first repetition")
        reps.append({"wall_s": wall, "cpu_s": cpu, "failures": failures})
        del products, cv, lfe, probs, bma, post
        if recorder is not None or time.perf_counter() - budget_start >= args.seconds:
            break
    reference_s.append(reference.reference_seconds())

    if recorder is not None:
        recorder.dump(args.trace_out)
    with open(args.result_out, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "generation_s": generation_s,
                "reps": reps,
                "reference_s": reference_s,
                "peak_rss_bytes": peak_rss_bytes(),
                "checks": found.summary(),
                "digests": digests,
            },
            handle,
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sizes", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--result-out", required=True)
    parser.add_argument("--trace-out")
    return run_library(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
