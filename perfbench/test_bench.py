"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench/test_bench.py``.
The smoke test runs every workload at toy size, untraced and traced, with
every correctness and determinism check.
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

import reference
import run
import tracer

ROOT = Path(__file__).resolve().parents[1]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, "pipeline.stage.ep", 0.0, 10.0, None, 1),
        # two overlapping children from worker threads cover [1, 6]
        (2, "rfx.ep_integration_stack", 1.0, 5.0, 1, 2),
        (3, "rfx.ep_integration_stack", 2.0, 6.0, 1, 3),
        (4, "special.gamma_quadrature", 2.0, 3.0, 2, 2),
    ]
    own = tracer.self_times(spans)
    assert own == {1: 5.0, 2: 3.0, 3: 4.0, 4: 1.0}


def test_worker_thread_spans_attach_to_the_blocked_main_span():
    recorder = tracer.Recorder()
    inner = recorder.wrap("rfx.estimate_rfx", lambda: None)

    def stage():
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    recorder.wrap("pipeline.stage.bms", stage)()
    by_name = {name: (span_id, parent) for span_id, name, _, _, parent, _ in recorder.spans}
    assert by_name["rfx.estimate_rfx"][1] == by_name["pipeline.stage.bms"][0]


def test_each_time_is_scaled_by_the_reference_passes_around_it():
    nominal = reference.NOMINAL_S
    slow_then_nominal = SimpleNamespace(
        reference={"timed": [2 * nominal, 2 * nominal, nominal, nominal], "setup": [nominal] * 4}
    )
    samples = [
        {"wall_s": 4.0, "cpu_s": 3.0, "peak_rss_mb": 100.0},
        {"wall_s": 6.0, "cpu_s": 4.5, "peak_rss_mb": 101.0},
        {"wall_s": 9.0, "cpu_s": 8.0, "peak_rss_mb": 102.0},
    ]
    metrics = run.end_to_end_metrics(slow_then_nominal, samples, setup=[1.0, 0.8, 1.2])
    # scaled walls 2.0, 4.0, 9.0; scaled CPU times 1.5, 3.0, 8.0
    assert metrics == pytest.approx(
        {"wall_s": 4.0, "cpu_s": 3.0, "peak_rss_mb": 101.0, "setup_s": 1.0}
    )


def test_smoke_runs_every_workload_with_every_check():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = [
        json.loads(line.split(": ", 1)[1])
        for line in proc.stdout.splitlines()
        if line.startswith("smoke ")
    ]
    assert len(results) == 6
    assert all(r["correct"] and r["failed"] == 0 for r in results)


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "group-ep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
