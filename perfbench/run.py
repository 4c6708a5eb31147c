"""Benchmark of evidencer through its public entry points.

Run from the repository root:

    python3 perfbench/run.py --workload subject-cv --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Workloads (sizes in ``workloads.py``):

* ``subject-cv``: ``evidencer pipeline --stages auto`` on one subject's CSV
  workspace (4 sessions x 200 scans x 2,500 voxels, 3 nested models,
  families and betas). CSV parsing and writing dominate; EP does not run.
* ``group-ep``: ``evidencer pipeline --stages auto --threads 1`` on 20
  subjects' cvLME files (3 models x 500 voxels, chunks of 125, every
  concentration column distinct). Integration EP dominates. The traced run
  set adds iterations with ``--threads 2`` (two threads over four chunks,
  through the chunk thread pool) and reports their wall time and speed-up
  as per-layer numbers; their outputs must match the one-thread bytes.
* ``library-fit``: the Python API in one process with no files: the
  first-level chain on 4 x 200 x 50,000 arrays and ``estimate_rfx`` on a
  20 x 3 x 50,000 stack. Pure compute; no CSV and no EP.

Each CLI iteration is a fresh child process, timed from spawn to exit, with
CPU time from ``os.wait4`` and peak RSS as the child reports it
(``cli_child.py``). library-fit runs in one child that
repeats the chain and times each repetition from the first call into
evidencer to the last result. Iterations repeat until ``--seconds`` have
passed. ``setup_s`` comes from several fresh interpreters importing the
entry module. Children run with BLAS pools of one thread, so the only
parallelism is evidencer's own ``--threads``. Timed runs use one thread
because on a shared two-core machine the wall time of a two-thread run
follows the neighbours' load on the second core.

The host's throughput swings by tens of percent over minutes, so the
reported times are scaled to a nominal host speed: the fixed reference
work in ``reference.py`` is timed before every iteration, setup import and
library repetition, and after the last of each phase. Each iteration's
time is multiplied by ``reference.NOMINAL_S`` over the mean of the two
reference passes around it, and ``wall_s``, ``cpu_s`` and ``setup_s`` are
medians of these scaled times. The benchmark pins itself, and so
its children, to one CPU: contention on the host differs between the two
vCPUs, and the reference tracks the program only on the same one. The
traced set's two-thread iterations get every CPU back. The raw medians
and the reference passes go to the result file; the traced run set
reports the reference median as ``host.reference_s``. Per-layer times are
raw.

Every iteration's outputs are checked against independent references
(``checks.py``) and hashed; a nonzero exit, a stage status other than
``ok``, a failed check or a digest that differs from an earlier run of the
same inputs and program source counts as a failed run.

With ``--trace 1`` the untraced iterations run as above, then one traced
run wraps the program's layer entry points (``tracer.py``) and the
per-layer metrics are reported with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Scratch files,
cached inputs, results and traces live under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import scipy

import checks
import reference
import tracer
import workloads

HERE = Path(__file__).resolve().parent
WORK_DIR_NAME = ".perfbench_work"
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s; children are killed past this

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
STAGES = ("cvlme", "anc", "lfe", "bma", "bms", "ep")
PER_LAYER_UNITS = {
    "cli.overhead_s": "s",
    **{f"pipeline.stage.{stage}_s": "s" for stage in STAGES},
    "pipeline.self_s": "s",
    "dataio.load_matrix_s": "s",
    "dataio.load_matrix_calls": "count",
    "dataio.load_matrix_mb": "MB",
    "dataio.save_s": "s",
    "dataio.save_calls": "count",
    "dataio.save_mb": "MB",
    "dataio.load_config_s": "s",
    "glm.GlmSpec_s": "s",
    "glm.GlmSpec_calls": "count",
    "glm.accuracy_s": "s",
    "glm.log_model_evidence_s": "s",
    "glm.complexity_s": "s",
    "crossval.cv_lme_models_s": "s",
    "crossval.y_mb_computed": "MB",
    "family.log_family_evidence_s": "s",
    "bma.posterior_probabilities_s": "s",
    "bma.cv_bma_s": "s",
    "rfx.estimate_rfx_s": "s",
    "rfx.vb_voxel_iterations": "count",
    "rfx.vb_max_iterations": "count",
    "rfx.vb_unconverged": "count",
    "rfx.ep_integration_stack_s": "s",
    "rfx.ep_distinct_columns": "count",
    "rfx.ep_ms_per_column": "ms",
    "rfx.ep_max_sum_deviation": "1",
    "special.gamma_quadrature_s": "s",
    "special.gamma_quadrature_calls": "count",
    "special.reg_lower_incomplete_gamma_s": "s",
    **{f"{layer}.self_s": "s" for layer in tracer.LAYERS},
    "pipeline.threads2_wall_s": "s",
    "pipeline.threads2_speedup": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "host.reference_s": "s",
}
THREADED_ITERATIONS = 2  # group-ep iterations with --threads 2 in a traced run set
# traced span names reported as ``<name>_s`` (total seconds) and, where
# listed in PER_LAYER_UNITS, ``<name>_calls``
TRACED_CALLS = (
    "dataio.load_matrix", "dataio.save", "dataio.load_config",
    "glm.GlmSpec", "glm.accuracy", "glm.log_model_evidence", "glm.complexity",
    "crossval.cv_lme_models", "family.log_family_evidence",
    "bma.posterior_probabilities", "bma.cv_bma",
    "rfx.estimate_rfx", "rfx.ep_integration_stack",
    "special.gamma_quadrature", "special.reg_lower_incomplete_gamma",
)
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ENTRY_MODULES = {"subject-cv": "evidencer.cli", "group-ep": "evidencer.cli", "library-fit": "evidencer"}


class Run:
    """State of one benchmark invocation."""

    def __init__(self, root: Path, workload: str, seed: int, sizes, seconds: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.seconds = seconds
        self.started = time.perf_counter()
        self.work = root / WORK_DIR_NAME
        self.scratch = self.work / "scratch" / f"{workload}-{os.getpid()}"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env.pop("EVIDENCER_THREADS", None)
        # evidencer's own --threads is the only parallelism measured; a BLAS
        # pool on the same two cores would add oversubscription noise
        for name in BLAS_THREAD_VARIABLES:
            self.env[name] = "1"
        self.env["PYTHONPATH"] = str(root / "src")
        inputs = workloads.input_key(workload, seed, sizes)
        self.digest_path = self.work / "digests" / f"{inputs}-{source_hash(root)}.json"
        self.reference_digests = (
            json.loads(self.digest_path.read_text()) if self.digest_path.is_file() else None
        )
        self.checks = checks.Checks()
        self.failures: list = []
        self.attempted = 0
        # seconds of each reference pass, per phase of the run
        self.reference: dict = {"setup": [], "timed": []}
        self.cpus = os.sched_getaffinity(0)

    def time_reference(self, phase: str) -> None:
        self.reference[phase].append(reference.reference_seconds())

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def child(self, argv: list, log_name: str) -> dict:
        """Run ``python argv`` to completion; wall time, CPU time and exit code.

        No peak RSS: ``ru_maxrss`` would include this process's own peak.
        """
        log_path = self.scratch / log_name
        with open(log_path, "w", encoding="utf-8") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], stdout=log, stderr=subprocess.STDOUT,
                env=self.env, cwd=self.root,
            )
            killer = threading.Timer(max(1.0, self.remaining()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "code": proc.returncode,
            "log": log_path,
        }

    def fail(self, label: str, reasons: list) -> None:
        if reasons:
            self.failures.append(f"{label}: " + "; ".join(reasons))

    def compare_digests(self, digests: dict) -> list:
        """Mismatch against earlier runs of the same inputs and source; stores the first."""
        if self.reference_digests is None:
            self.reference_digests = digests
            self.digest_path.parent.mkdir(parents=True, exist_ok=True)
            self.digest_path.write_text(json.dumps(digests, indent=1, sort_keys=True))
            return []
        if digests != self.reference_digests:
            changed = sorted(
                k for k in set(digests) | set(self.reference_digests)
                if digests.get(k) != self.reference_digests.get(k)
            )
            return [f"result digests differ from an earlier run: {', '.join(changed)}"]
        return []


def source_hash(root: Path) -> str:
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


# --- command-line workloads ----------------------------------------------------


def cli_arguments(config: Path, out_dir: Path, threads: int) -> list:
    return [
        "pipeline", "--config", str(config), "--out", str(out_dir), "--stages", "auto",
        "--threads", str(threads),
    ]


def stage_seconds(path: Path) -> dict:
    """Seconds per stage from ``timings.csv``, summing any per-phase rows."""
    out: dict = {}
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            out[row["stage"]] = out.get(row["stage"], 0.0) + float(row["seconds"])
    return out


def check_cli_outputs(run: Run, ws: Path, out: Path) -> tuple:
    """Independent checks of one CLI run's outputs; returns (checks, problems)."""
    found = checks.Checks()
    problems = []
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    for stage, entry in manifest["stages"].items():
        if entry["status"] != "ok":
            problems.append(f"stage {stage}: {entry['status']}")
    truth = dict(np.load(ws / "truth.npz"))
    read = lambda name: workloads.read_csv(out / name)  # noqa: E731
    if run.workload == "subject-cv":
        folds = range(1, run.sizes.sessions + 1)
        cv_lme = read("cvLME.csv")
        checks.check_first_level(
            found, truth, cv_lme, read("cvAcc.csv"), read("cvCom.csv"),
            np.stack([read(f"oosLME_fold{i}.csv") for i in folds]),
            np.stack([read(f"oosAcc_fold{i}.csv") for i in folds]),
            np.stack([read(f"oosCom_fold{i}.csv") for i in folds]),
        )
        checks.check_averaging(
            found, truth, cv_lme, read("LFE.csv"), read("PP.csv"),
            read(f"BMA_{workloads.BETA_REGRESSOR}.csv"),
        )
    else:
        alpha = read("alpha.csv")
        checks.check_rfx(
            found, truth["lme"], alpha, workloads.VB["alpha0"], workloads.VB["vb_tol"],
            read("expected_freq.csv"),
        )
        checks.check_ep(found, alpha, read("EP.csv"), truth["sample"])
    return found, problems


def cli_iteration(run: Run, ws: Path, label: str, traced: bool, threads: int = 1) -> dict:
    out = run.scratch / f"out-{label}"
    shutil.rmtree(out, ignore_errors=True)
    args = cli_arguments(ws / "config.json", out, threads)
    trace_path = run.scratch / f"trace-{label}.json"
    peak_path = run.scratch / f"peak-{label}.txt"
    peak_path.unlink(missing_ok=True)
    if traced:
        argv = [str(HERE / "trace_cli.py"), str(trace_path), *args]
    else:
        argv = [str(HERE / "cli_child.py"), str(peak_path), *args]
    result = run.child(argv, f"{label}.log")
    run.attempted += 1
    problems = []
    if result["code"] != 0:
        problems.append(f"exit code {result['code']} (log {result['log']})")
    if not traced:
        if peak_path.is_file():
            result["peak_rss_mb"] = int(peak_path.read_text(encoding="ascii")) / 1e6
        else:
            result["peak_rss_mb"] = None
            problems.append("the child wrote no peak RSS")
    try:
        found, stage_problems = check_cli_outputs(run, ws, out)
        problems += stage_problems + found.failures()
        for name, (err, tol) in found.errors.items():
            run.checks.record(name, err, tol)
        if not problems:
            problems += run.compare_digests(checks.file_digests(out))
        result["stages"] = stage_seconds(out / "timings.csv")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"outputs unreadable: {type(exc).__name__}: {exc}")
        result["stages"] = {}
    if traced:
        result["trace"] = json.loads(trace_path.read_text()) if trace_path.is_file() else None
    run.fail(label, problems)
    result["failed"] = bool(problems)
    shutil.rmtree(out, ignore_errors=True)
    return result


def cli_loop(run: Run, ws: Path) -> list:
    results = []
    loop_start = time.perf_counter()
    while True:
        run.time_reference("timed")
        results.append(cli_iteration(run, ws, f"iter{len(results) + 1}", traced=False))
        if (
            time.perf_counter() - loop_start >= run.seconds
            or run.remaining() < 3 * results[-1]["wall_s"]
        ):
            run.time_reference("timed")
            return results


# --- library workload -------------------------------------------------------------


def library_child(run: Run, seconds: float, label: str, traced: bool) -> dict:
    result_path = run.scratch / f"{label}-result.json"
    trace_path = run.scratch / f"{label}-trace.json"
    argv = [
        str(HERE / "library_child.py"), "--seed", str(run.seed),
        "--sizes", json.dumps(asdict(run.sizes)), "--seconds", str(seconds),
        "--result-out", str(result_path),
    ]
    if traced:
        argv += ["--trace-out", str(trace_path)]
    proc = run.child(argv, f"{label}.log")
    if proc["code"] != 0 or not result_path.is_file():
        run.attempted += 1
        run.fail(label, [f"exit code {proc['code']} (log {proc['log']})"])
        return {"proc": proc, "reps": [], "generation_s": None}
    result = json.loads(result_path.read_text())
    if not traced:
        run.reference["timed"] += result["reference_s"]
    for name, (err, tol) in result["checks"].items():
        run.checks.record(name, err, tol)
    for i, rep in enumerate(result["reps"], start=1):
        run.attempted += 1
        run.fail(f"{label} repetition {i}", rep["failures"])
    if result["reps"] and not any(rep["failures"] for rep in result["reps"]):
        run.fail(label, run.compare_digests(result["digests"]))
    result["proc"] = proc
    if traced:
        result["trace"] = json.loads(trace_path.read_text()) if trace_path.is_file() else None
    return result


# --- metrics -----------------------------------------------------------------------


def median(values, default=0.0) -> float:
    values = [v for v in values if v is not None]
    return float(statistics.median(values)) if values else default


def setup_seconds(run: Run, repeats: int) -> list:
    """Fresh interpreters importing the entry module, after one warm-up import.

    The warm-up also confirms that the package comes from this checkout's
    ``src``, not from an installed copy.
    """
    module = ENTRY_MODULES[run.workload]
    warm = run.child(["-c", f"import {module}, evidencer; print(evidencer.__file__)"], "warmup.log")
    location = warm["log"].read_text(encoding="utf-8").strip()
    if warm["code"] != 0 or not location.startswith(str(run.root / "src")):
        run.fail("setup", [f"importing {module} from {run.root / 'src'} failed: {location[-300:]}"])
    seconds = []
    for _ in range(repeats):
        run.time_reference("setup")
        seconds.append(run.child(["-c", f"import {module}"], "setup.log")["wall_s"])
    run.time_reference("setup")
    return seconds


def untraced(run: Run):
    """The timed loop; returns (per-iteration samples, generation seconds, cached)."""
    if run.workload == "library-fit":
        result = library_child(run, run.seconds, "timed", traced=False)
        samples = [
            {"wall_s": r["wall_s"], "cpu_s": r["cpu_s"], "peak_rss_mb": result["peak_rss_bytes"] / 1e6}
            for r in result["reps"]
        ]
        return samples, result["generation_s"], False
    started = time.perf_counter()
    ws, built = workloads.workspace(run.work, run.workload, run.seed, run.sizes)
    generation = time.perf_counter() - started
    return cli_loop(run, ws), generation, not built


def scaled(times: list, passes: list) -> list:
    """Times at the nominal host speed; pass i was timed just before time i, the last after."""
    return [
        t * reference.NOMINAL_S / ((passes[i] + passes[i + 1]) / 2) for i, t in enumerate(times)
    ]


def end_to_end_metrics(run: Run, samples: list, setup: list) -> dict:
    timed = run.reference["timed"]
    metrics = {
        name: median(scaled([s[name] for s in samples], timed)) for name in ("wall_s", "cpu_s")
    }
    metrics["peak_rss_mb"] = median(s["peak_rss_mb"] for s in samples)
    metrics["setup_s"] = median(scaled(setup, run.reference["setup"]))
    return metrics


def per_layer_metrics(
    run: Run, samples: list, threaded: list, traced_wall: float, trace: dict | None
) -> tuple:
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    if run.workload != "library-fit":
        metrics["cli.overhead_s"] = median(
            s["wall_s"] - sum(s["stages"].values()) for s in samples if s.get("stages")
        )
        for stage in STAGES:
            metrics[f"pipeline.stage.{stage}_s"] = median(
                s["stages"].get(stage) for s in samples if s.get("stages")
            )
    if threaded:
        metrics["pipeline.threads2_wall_s"] = median(s["wall_s"] for s in threaded)
        metrics["pipeline.threads2_speedup"] = (
            median(s["wall_s"] for s in samples) / metrics["pipeline.threads2_wall_s"]
        )
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - median(s["wall_s"] for s in samples)
    metrics["host.reference_s"] = median(run.reference["timed"])
    if trace is None:
        return metrics, None
    summary = tracer.summarize(trace)
    seconds, calls, counters = summary["seconds"], summary["calls"], summary["counters"]
    for span in TRACED_CALLS:
        metrics[f"{span}_s"] = seconds.get(span, 0.0)
        if f"{span}_calls" in metrics:
            metrics[f"{span}_calls"] = float(calls.get(span, 0))
    metrics["pipeline.self_s"] = summary["pipeline_stage_self_seconds"]
    for layer, value in summary["layer_self_seconds"].items():
        metrics[f"{layer}.self_s"] = value
    metrics["dataio.load_matrix_mb"] = counters.get("dataio.load_matrix_bytes", 0.0) / 1e6
    metrics["dataio.save_mb"] = counters.get("dataio.save_bytes", 0.0) / 1e6
    metrics["crossval.y_mb_computed"] = counters.get("crossval.y_bytes_computed", 0.0) / 1e6
    for name in (
        "rfx.vb_voxel_iterations", "rfx.vb_max_iterations", "rfx.vb_unconverged",
        "rfx.ep_distinct_columns", "rfx.ep_max_sum_deviation",
    ):
        metrics[name] = float(counters.get(name, 0.0))
    columns = metrics["rfx.ep_distinct_columns"]
    if columns:
        metrics["rfx.ep_ms_per_column"] = 1000.0 * metrics["rfx.ep_integration_stack_s"] / columns
    return metrics, summary


def traced_metrics(run: Run, samples: list) -> tuple:
    """Threaded iterations (group-ep) and one traced run; (per-layer metrics, trace summary).

    The traced wall time is measured like the untraced samples (child
    process, or library repetition), so their difference is the tracing
    overhead. Spans go to ``traces/`` under the work directory.
    """
    threaded = []
    if run.workload == "library-fit":
        result = library_child(run, 0.0, "traced", traced=True)
        traced_wall = result["reps"][0]["wall_s"] if result["reps"] else result["proc"]["wall_s"]
    else:
        ws, _ = workloads.workspace(run.work, run.workload, run.seed, run.sizes)
        if run.workload == "group-ep":
            pinned = os.sched_getaffinity(0)
            os.sched_setaffinity(0, run.cpus)
            try:
                threaded = [
                    cli_iteration(run, ws, f"threads2-{i + 1}", traced=False, threads=2)
                    for i in range(THREADED_ITERATIONS)
                ]
            finally:
                os.sched_setaffinity(0, pinned)
        result = cli_iteration(run, ws, "traced", traced=True)
        traced_wall = result["wall_s"]
    spans = result.get("trace")
    metrics, summary = per_layer_metrics(run, samples, threaded, traced_wall, spans)
    if spans is None:
        run.fail("traced run", ["no trace was written"])
    else:
        trace_file = run.work / "traces" / f"{run.workload}-seed{run.seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps({"summary": summary, **spans}))
    return metrics, summary


# --- environment -----------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def environment(run: Run) -> dict:
    cpu_model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append(
            {
                "level": _read(index / "level"),
                "type": _read(index / "type"),
                "size": _read(index / "size"),
            }
        )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "workload": run.workload,
        "sizes": asdict(run.sizes),
        "input_bytes_computed": workloads.input_bytes(run.workload, run.sizes),
        "program_source_sha256_12": source_hash(run.root),
    }


# --- entry point ----------------------------------------------------------------------------


def run_workload(
    root: Path, workload: str, seed: int, seconds: float, trace: bool, sizes,
    setup_repeats: int = SETUP_REPEATS,
) -> dict:
    run = Run(root, workload, seed, sizes, seconds)
    os.sched_setaffinity(0, {min(run.cpus)})
    try:
        setup = [] if trace else setup_seconds(run, setup_repeats)
        samples, generation, cached = untraced(run)
        report = {
            "environment": environment(run),
            "generation_s": generation,
            "inputs_cached": cached,
            "samples": [
                {k: v for k, v in s.items() if k in ("wall_s", "cpu_s", "peak_rss_mb", "stages")}
                for s in samples
            ],
            "setup_samples_s": setup,
            "raw_medians": {
                "wall_s": median(s["wall_s"] for s in samples),
                "cpu_s": median(s["cpu_s"] for s in samples),
                "setup_s": median(setup, default=None),
            },
            "reference_s": run.reference,
        }
        if trace:
            metrics, report["trace_summary"] = traced_metrics(run, samples)
            units = PER_LAYER_UNITS
        else:
            metrics = end_to_end_metrics(run, samples, setup)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(run.scratch, ignore_errors=True)
        os.sched_setaffinity(0, run.cpus)
    report["checks"] = run.checks.summary()
    report["failures"] = run.failures
    attempted = max(run.attempted, 1)
    failed = min(len(run.failures), attempted)
    report["failed_ratio"] = failed / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    report["result"] = result
    out = run.work / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    return report


def print_report(report: dict) -> None:
    env = report["environment"]
    print(f"environment: {json.dumps(env)}")
    gen = report["generation_s"]
    if gen is not None:
        print(f"input generation: {gen:.3f} s ({'cached' if report['inputs_cached'] else 'built'}; not charged)")
    for name, (err, tol) in report["checks"].items():
        print(f"check {name}: worst {err:.3e} (tolerance {tol:.1e})")
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    raw = ", ".join(f"{k} {v:.6g}" for k, v in report["raw_medians"].items() if v is not None)
    print(f"raw medians: {raw}")
    for phase, passes in report["reference_s"].items():
        print(f"reference, {phase}: median {median(passes):.4g} s over {len(passes)} passes")
    result = report["result"]
    print(f"failed_ratio: {report['failed_ratio']:.4f} ({result['failed']}/{result['attempted']})")
    for name, entry in result["metrics"].items():
        print(f"{name}: {entry['value']:.6g} {entry['unit']}")


def smoke(root: Path) -> int:
    """Every workload at toy size, untraced and traced, with every check."""
    ok = True
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            report = run_workload(
                root, workload, 0, 0.0, trace, workloads.SMOKE_SIZES[workload], setup_repeats=1
            )
            result = report["result"]
            ok &= result["correct"]
            print(f"smoke {workload} trace={int(trace)}: {json.dumps(result)}")
            for failure in report["failures"]:
                print(f"FAILED {failure}")
    return 0 if ok else 1


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through Run.child, which stops its child


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description="evidencer benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, all workloads")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "evidencer" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {root / 'src' / 'evidencer'}; "
            "run from the repository root",
            file=sys.stderr,
        )
        return 2
    if args.smoke:
        return smoke(root)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    report = run_workload(
        root, args.workload, args.seed, args.seconds, bool(args.trace),
        workloads.FULL_SIZES[args.workload],
    )
    print_report(report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
