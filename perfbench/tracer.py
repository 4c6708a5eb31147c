"""Span tracing of the program's layers from the benchmark's side.

The program is not instrumented. Instead the benchmark replaces each
traced name in the namespace where its caller looks it up (for example
``evidencer.pipeline.load_matrix`` or ``evidencer.rfx.gamma_quadrature``)
with a wrapper that records a span: name, start, end and parent. Spans
stay in memory and are written once, when the traced run ends. Optional
observers turn call arguments and results into counters (bytes read, VB
iterations, distinct EP columns); they run after the span closes, so their
cost lands in the tracing overhead, not in a layer.

A name that is missing at its lookup site is skipped and listed, so a
refactor that moves a call shows up as a missing hook rather than a crash.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict

import numpy as np


class Recorder:
    """In-memory spans and counters of one traced run."""

    def __init__(self):
        self.spans: list = []  # (id, name, start, end, parent, thread id)
        self.counters: dict = defaultdict(float)
        self.missing: list = []
        self._ids = itertools.count(1)
        self._stacks: dict = {}
        self._main = threading.main_thread().ident

    def _parent(self, tid: int):
        stack = self._stacks.setdefault(tid, [])
        if stack:
            return stack[-1]
        # a worker thread's first span belongs to whatever the main thread
        # is blocked in, e.g. the stage that mapped chunks over a pool
        main = self._stacks.get(self._main)
        if tid != self._main and main:
            return main[-1]
        return None

    def wrap(self, name: str, fn, observe=None):
        recorder = self

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            parent = recorder._parent(tid)
            span_id = next(recorder._ids)
            stack = recorder._stacks[tid]
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append((span_id, name, start, end, parent, tid))
            if observe is not None:
                observe(recorder.counters, args, kwargs, result)
            return result

        return traced

    def install(self, hooks) -> None:
        """Wrap ``(module, attribute, span name, observer)`` hooks in place."""
        for module_name, attr, name, observe in hooks:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, getattr(module, attr), observe))

    def install_stages(self, module_name: str, table: str, prefix: str) -> None:
        """Wrap every entry of a dispatch table such as the pipeline's stage map."""
        module = importlib.import_module(module_name)
        entries = getattr(module, table, None)
        if not isinstance(entries, dict):
            self.missing.append(f"{module_name}.{table}")
            return
        for key, fn in list(entries.items()):
            entries[key] = self.wrap(f"{prefix}{key}", fn)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": self.spans, "counters": self.counters, "missing": self.missing},
                handle,
            )


# --- observers: (counters, args, kwargs, result) -> None ---------------------


def _first(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _load_bytes(counters, args, kwargs, result):
    counters["dataio.load_matrix_bytes"] += os.path.getsize(_first(args, kwargs, "path"))


def _save_bytes(counters, args, kwargs, result):
    counters["dataio.save_bytes"] += os.path.getsize(_first(args, kwargs, "path"))


def _y_bytes(counters, args, kwargs, result):
    models = _first(args, kwargs, "models")
    specs = next(iter(models.values()))
    counters["crossval.y_bytes_computed"] += sum(s.Y.shape[0] * s.Y.shape[1] * 8 for s in specs)


def _vb_counts(counters, args, kwargs, result):
    iterations = np.asarray(result.iterations)
    counters["rfx.vb_voxel_iterations"] += int(iterations.sum())
    counters["rfx.vb_max_iterations"] = max(
        counters["rfx.vb_max_iterations"], int(iterations.max(initial=0))
    )
    counters["rfx.vb_unconverged"] += int(np.sum(~np.asarray(result.converged, dtype=bool)))


def _ep_counts(counters, args, kwargs, result):
    alpha = np.atleast_2d(np.asarray(_first(args, kwargs, "alpha"), dtype=float))
    ep = result[0] if isinstance(result, tuple) else result
    counters["rfx.ep_distinct_columns"] += np.unique(alpha, axis=1).shape[1]
    counters["rfx.ep_max_sum_deviation"] = max(
        counters["rfx.ep_max_sum_deviation"], float(np.max(np.abs(ep.sum(axis=0) - 1.0)))
    )


# Calls made inside the library, common to every workload.
_INNER_HOOKS = [
    ("evidencer.crossval", "log_model_evidence", "glm.log_model_evidence", None),
    ("evidencer.crossval", "accuracy", "glm.accuracy", None),
    ("evidencer.crossval", "complexity", "glm.complexity", None),
    ("evidencer.rfx", "gamma_quadrature", "special.gamma_quadrature", None),
    ("evidencer.rfx", "reg_lower_incomplete_gamma", "special.reg_lower_incomplete_gamma", None),
]

# Calls the pipeline and the command line make into the other modules.
CLI_HOOKS = [
    ("evidencer.cli", "load_config", "dataio.load_config", None),
    ("evidencer.cli", "run_pipeline", "pipeline.run_pipeline", None),
    ("evidencer.pipeline", "load_matrix", "dataio.load_matrix", _load_bytes),
    ("evidencer.dataio", "save_matrix", "dataio.save", _save_bytes),
    ("evidencer.pipeline", "GlmSpec", "glm.GlmSpec", None),
    ("evidencer.pipeline", "cv_lme_models", "crossval.cv_lme_models", _y_bytes),
    ("evidencer.pipeline", "log_family_evidence", "family.log_family_evidence", None),
    ("evidencer.pipeline", "posterior_probabilities", "bma.posterior_probabilities", None),
    ("evidencer.pipeline", "cv_bma", "bma.cv_bma", None),
    ("evidencer.pipeline", "estimate_rfx", "rfx.estimate_rfx", _vb_counts),
    ("evidencer.pipeline", "ep_integration_stack", "rfx.ep_integration_stack", _ep_counts),
] + _INNER_HOOKS

# Calls the library-fit workload makes through the package namespace.
LIBRARY_HOOKS = [
    ("evidencer", "GlmSpec", "glm.GlmSpec", None),
    ("evidencer", "cv_lme_models", "crossval.cv_lme_models", _y_bytes),
    ("evidencer", "log_family_evidence", "family.log_family_evidence", None),
    ("evidencer", "posterior_probabilities", "bma.posterior_probabilities", None),
    ("evidencer", "cv_bma", "bma.cv_bma", None),
    ("evidencer", "estimate_rfx", "rfx.estimate_rfx", _vb_counts),
] + _INNER_HOOKS


# --- analysis of a dumped trace ----------------------------------------------


def _covered(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for span_id, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for span_id, _, start, end, _, _ in spans:
        inside = [(max(lo, start), min(hi, end)) for lo, hi in children.get(span_id, ())]
        out[span_id] = (end - start) - _covered([iv for iv in inside if iv[1] > iv[0]])
    return out


LAYERS = ("dataio", "glm", "crossval", "family", "bma", "rfx", "special")


def summarize(trace: dict) -> dict:
    """Per span name: total seconds and calls; per layer: self seconds."""
    spans = trace["spans"]
    own = self_times(spans)
    totals = defaultdict(float)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    stage_self = 0.0
    for span_id, name, start, end, _, _ in spans:
        totals[name] += end - start
        calls[name] += 1
        if name.startswith("pipeline.stage."):
            stage_self += own[span_id]
        layer_self[name.split(".", 1)[0]] += own[span_id]
    return {
        "seconds": dict(totals),
        "calls": dict(calls),
        "layer_self_seconds": {layer: layer_self.get(layer, 0.0) for layer in LAYERS},
        "pipeline_stage_self_seconds": stage_self,
        "counters": dict(trace["counters"]),
        "missing_hooks": list(trace["missing"]),
        "span_count": len(spans),
    }
