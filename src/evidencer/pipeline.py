"""Batch analysis pipeline: stage orchestration, persistence, manifest.

Stages form a small dependency graph (accuracy/complexity, family
evidence, and averaging build on the cross-validated evidences; exceedance
probabilities build on the group Dirichlet estimate). A failing stage
aborts only its dependents; the manifest always records per-stage status.

Reruns with the same configuration, seed, and chunk size write
byte-identical result files and manifest regardless of the worker-thread
count: voxel chunk boundaries are fixed by ``chunk_voxels`` alone, chunk
results are written back by index, and every sampling voxel derives its
own RNG stream from (seed, voxel index). Wall-clock timings go to a
separate ``timings.csv`` that is excluded from that guarantee.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .bma import BetaStack, cv_bma, posterior_probabilities
from .crossval import (
    SessionLayout,
    cv_lme_models,
    split_glm_spec,
    split_single_session,
)
from .dataio import ModelSpaceConfig, ResultTable, load_matrix
from .errors import ConfigError, ParseError
from .family import FamilyPartition, log_family_evidence
from .glm import GlmSpec
from .rfx import (
    DirichletPosterior,
    GroupLmeStack,
    ep_beta_closed_form,
    ep_integration_stack,
    ep_sampling_stack,
    estimate_rfx,
)

__all__ = ["RunOptions", "run_pipeline", "supported_stages", "STAGE_NAMES"]

STAGE_NAMES = ("cvlme", "anc", "lfe", "bms", "ep", "bma")
_STATIC_DEPS = {
    "cvlme": (),
    "anc": ("cvlme",),
    "lfe": ("cvlme",),
    "bms": (),
    "ep": ("bms",),
    "bma": ("cvlme",),
}
EP_METHODS = ("closed-form", "sampling", "integration")


@dataclass
class RunOptions:
    """Execution knobs shared by all stages."""

    out_dir: Path
    seed: int = 0
    threads: int = 1
    ep_method: str = "integration"
    samples: int = 1_000_000
    rel_tail: float = 1e-12
    ep_tol: float = 1e-8

    def __post_init__(self):
        self.out_dir = Path(self.out_dir)
        if self.ep_method not in EP_METHODS:
            raise ConfigError(
                f"ep_method must be one of {EP_METHODS}, got {self.ep_method!r}"
            )
        if self.samples < 10_000:
            raise ConfigError("samples must be at least 1e4")
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")


def supported_stages(config: ModelSpaceConfig) -> tuple:
    """Stages the configuration provides inputs for."""
    stages = []
    if config.models:
        stages += ["cvlme", "anc"]
        if config.families:
            stages.append("lfe")
        if config.betas:
            stages.append("bma")
    if config.subjects:
        stages += ["bms", "ep"]
    return tuple(stages)


def _dependencies(config: ModelSpaceConfig) -> dict:
    deps = {k: list(v) for k, v in _STATIC_DEPS.items()}
    if any(s.get("cvlme") == "@self" for s in config.subjects):
        deps["bms"].append("cvlme")
    return deps


def _closure(requested, deps) -> list:
    needed = set()

    def visit(stage):
        if stage in needed:
            return
        if stage not in STAGE_NAMES:
            raise ConfigError(f"unknown stage {stage!r}")
        for dep in deps[stage]:
            visit(dep)
        needed.add(stage)

    for stage in requested:
        visit(stage)
    return [s for s in STAGE_NAMES if s in needed]


def _chunk_slices(n_voxels: int, chunk: int) -> list:
    return [slice(i, min(i + chunk, n_voxels)) for i in range(0, n_voxels, chunk)]


def _map_chunks(fn, slices, threads: int) -> list:
    if threads <= 1 or len(slices) <= 1:
        return [fn(s) for s in slices]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, slices))


@dataclass
class _Context:
    """Products shared between stages within one run."""

    layout: SessionLayout | None = None
    model_specs: dict = field(default_factory=dict)
    cv_result: object = None
    group: GroupLmeStack | None = None
    dirichlet: DirichletPosterior | None = None
    diagnostics: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)


def _write_table(ctx, options, name, kind, row_labels, values) -> str:
    table = ResultTable(kind=kind, row_labels=tuple(row_labels), values=values)
    table.save(options.out_dir / name)
    ctx.tables[name] = {"kind": kind, "rows": list(table.row_labels)}
    return name


def _required_files(config: ModelSpaceConfig, stages) -> list:
    needed = []
    if {"cvlme", "anc", "lfe", "bma"} & set(stages):
        needed.extend(config.data)
        for model in config.models:
            needed.extend(model["design"])
        if config.precision != "identity":
            needed.extend(config.precision)
    if "bma" in stages and config.betas:
        for row in config.betas["files"]:
            needed.extend(row)
    if "bms" in stages:
        needed.extend(
            s["cvlme"] for s in config.subjects if s["cvlme"] != "@self"
        )
    return needed


def _preflight(config: ModelSpaceConfig, stages) -> None:
    missing = [
        str(rel)
        for rel in _required_files(config, stages)
        if not config.resolve(rel).is_file()
    ]
    if missing:
        raise ConfigError(
            "referenced input files do not exist: " + ", ".join(sorted(missing))
        )


def _load_finite(config: ModelSpaceConfig, relative) -> np.ndarray:
    """The values of an input matrix whose every cell must be finite."""
    path = config.resolve(relative)
    matrix = load_matrix(path)
    finite = np.isfinite(matrix.values)
    if not finite.all():
        row, column = np.argwhere(~finite)[0]
        line = row + (1 if matrix.columns is None else 2)
        raise ParseError(
            f"{path}, line {line}, column {column + 1}: non-finite value "
            f"{float(matrix.values[row, column])}"
        )
    return matrix.values


def _load_session_matrices(config: ModelSpaceConfig):
    data = [_load_finite(config, p) for p in config.data]
    voxels = {m.shape[1] for m in data}
    if len(voxels) != 1:
        raise ConfigError(
            f"response files disagree on voxel count: {sorted(voxels)}"
        )
    if config.precision == "identity":
        precisions = [None] * len(data)
    else:
        precisions = []
        for p, y in zip(config.precision, data):
            mat = _load_finite(config, p)
            if mat.shape == (1, y.shape[0]):
                mat = mat.ravel()  # stored as a single row: diagonal precision
            precisions.append(mat)
    return data, precisions


def _build_model_space(config: ModelSpaceConfig, ctx: _Context) -> None:
    if ctx.model_specs:
        return
    if not config.models:
        raise ConfigError("this stage needs first-level 'models' and 'data'")
    data, precisions = _load_session_matrices(config)

    if config.sessions.get("kind") == "single":
        scans = config.sessions["scans"]
        y = data[0]
        if y.shape[0] != scans:
            raise ConfigError(
                f"config declares {scans} scans but the response file has "
                f"{y.shape[0]} rows"
            )
        layout = split_single_session(scans)
        for model in config.models:
            x = _load_finite(config, model["design"][0])
            if x.shape[0] != scans:
                raise ConfigError(
                    f"design for model {model['name']!r} has {x.shape[0]} "
                    f"rows, expected {scans}"
                )
            spec = GlmSpec(Y=y, X=x, precision=precisions[0])
            ctx.model_specs[model["name"]] = split_glm_spec(spec, layout)
        ctx.layout = layout
        return

    counts = [y.shape[0] for y in data]
    layout = SessionLayout.from_counts(counts)
    for model in config.models:
        specs = []
        for s, y in enumerate(data):
            x = _load_finite(config, model["design"][s])
            if x.shape[0] != y.shape[0]:
                raise ConfigError(
                    f"design for model {model['name']!r}, session {s + 1} has "
                    f"{x.shape[0]} rows but the response has {y.shape[0]}"
                )
            specs.append(GlmSpec(Y=y, X=x, precision=precisions[s]))
        ctx.model_specs[model["name"]] = specs
    ctx.layout = layout


def _stage_cvlme(config, options, ctx) -> list:
    _build_model_space(config, ctx)
    ctx.cv_result = cv_lme_models(ctx.model_specs, ctx.layout)
    result = ctx.cv_result
    names = result.model_names
    outputs = [_write_table(ctx, options, "cvLME.csv", "cvLME", names, result.cv_lme)]
    for i in range(result.oos_lme.shape[0]):
        outputs.append(
            _write_table(
                ctx, options, f"oosLME_fold{i + 1}.csv", "oosLME",
                names, result.oos_lme[i],
            )
        )
    return outputs


def _stage_anc(config, options, ctx) -> list:
    result = ctx.cv_result
    names = result.model_names
    outputs = [
        _write_table(ctx, options, "cvAcc.csv", "cvAcc", names, result.cv_acc),
        _write_table(ctx, options, "cvCom.csv", "cvCom", names, result.cv_com),
    ]
    for i in range(result.oos_acc.shape[0]):
        outputs.append(
            _write_table(
                ctx, options, f"oosAcc_fold{i + 1}.csv", "oosAcc",
                names, result.oos_acc[i],
            )
        )
        outputs.append(
            _write_table(
                ctx, options, f"oosCom_fold{i + 1}.csv", "oosCom",
                names, result.oos_com[i],
            )
        )
    return outputs


def _family_partition(config: ModelSpaceConfig) -> FamilyPartition:
    if not config.families:
        raise ConfigError("the lfe stage needs a 'families' block")
    order = {name: i for i, name in enumerate(config.model_names)}
    families = {
        fam: tuple(order[m] for m in members)
        for fam, members in config.families.items()
    }
    weights = None
    if config.family_weights:
        weights = {
            fam: np.asarray(w, dtype=float)
            for fam, w in config.family_weights.items()
        }
    return FamilyPartition.from_mapping(
        len(config.model_names), families, weights
    )


def _stage_lfe(config, options, ctx) -> list:
    partition = _family_partition(config)
    lfe = log_family_evidence(ctx.cv_result.cv_lme, partition)
    return [_write_table(ctx, options, "LFE.csv", "LFE", partition.names, lfe)]


def _load_group(config: ModelSpaceConfig, ctx: _Context) -> GroupLmeStack:
    if not config.subjects:
        raise ConfigError("the bms stage needs a group 'subjects' list")
    slabs = []
    names = []
    for subject in config.subjects:
        names.append(subject["name"])
        if subject["cvlme"] == "@self":
            if ctx.cv_result is None:
                raise ConfigError(
                    "subject references '@self' but no cvlme result exists"
                )
            slabs.append(ctx.cv_result.cv_lme)
        else:
            slabs.append(load_matrix(config.resolve(subject["cvlme"])).values)
    shapes = {s.shape for s in slabs}
    if len(shapes) != 1:
        raise ConfigError(
            f"subjects' evidence files disagree on shape: {sorted(shapes)}"
        )
    return GroupLmeStack(lme=np.stack(slabs), subject_ids=tuple(names))


def _stage_bms(config, options, ctx) -> list:
    ctx.group = _load_group(config, ctx)
    group = ctx.group
    slices = _chunk_slices(group.n_voxels, config.chunk_voxels)

    def run_chunk(sl):
        piece = GroupLmeStack(
            lme=group.lme[:, :, sl], subject_ids=group.subject_ids
        )
        return estimate_rfx(
            piece,
            alpha0=config.alpha0,
            tol=config.vb_tol,
            max_iter=config.vb_max_iter,
        )

    parts = _map_chunks(run_chunk, slices, options.threads)
    ctx.dirichlet = DirichletPosterior(
        alpha=np.concatenate([p.alpha for p in parts], axis=1),
        alpha0=config.alpha0,
        n_subjects=group.n_subjects,
        converged=np.concatenate([p.converged for p in parts]),
        iterations=np.concatenate([p.iterations for p in parts]),
    )
    model_rows = config.model_names
    if len(model_rows) != group.n_models:
        model_rows = tuple(f"model{i + 1}" for i in range(group.n_models))
    outputs = [
        _write_table(ctx, options, "alpha.csv", "alpha", model_rows, ctx.dirichlet.alpha),
        _write_table(
            ctx, options, "expected_freq.csv", "alpha",
            model_rows, ctx.dirichlet.expected_freq,
        ),
    ]
    ctx.diagnostics["bms_unconverged_voxels"] = int(
        np.sum(~ctx.dirichlet.converged)
    )
    ctx.diagnostics["bms_max_iterations"] = int(ctx.dirichlet.iterations.max())
    return outputs


def _stage_ep(config, options, ctx) -> list:
    alpha = ctx.dirichlet.alpha
    slices = _chunk_slices(alpha.shape[1], config.chunk_voxels)

    if options.ep_method == "closed-form":

        def run_chunk(sl):
            return ep_beta_closed_form(alpha[:, sl])

    elif options.ep_method == "sampling":

        def run_chunk(sl):
            return ep_sampling_stack(
                alpha[:, sl],
                samples=options.samples,
                seed=options.seed,
                voxel_offset=sl.start,
            )

    else:
        infos = []

        def run_chunk(sl):
            ep, info = ep_integration_stack(
                alpha[:, sl],
                rel_tail=options.rel_tail,
                tol=options.ep_tol,
                return_diagnostics=True,
            )
            infos.append(info)
            return ep

    parts = _map_chunks(run_chunk, slices, options.threads)
    ep = np.concatenate(parts, axis=1)
    if options.ep_method == "integration":
        ctx.diagnostics["ep_max_sum_deviation"] = max(
            i["max_sum_deviation"] for i in infos
        )
        ctx.diagnostics["ep_distinct_columns"] = sum(
            i["distinct_columns"] for i in infos
        )
        ctx.diagnostics["ep_max_panels"] = max(i["max_panels"] for i in infos)
    model_rows = ctx.tables["alpha.csv"]["rows"]
    return [_write_table(ctx, options, "EP.csv", "EP", model_rows, ep)]


def _stage_bma(config, options, ctx) -> list:
    if not config.betas:
        raise ConfigError("the bma stage needs a 'betas' block")
    probs = posterior_probabilities(ctx.cv_result.cv_lme, config.model_prior)
    n_voxels = probs.n_voxels

    stacks = []
    for row in config.betas["files"]:
        per_session = []
        for path in row:
            mat = load_matrix(config.resolve(path)).values
            if mat.shape[0] != 1:
                mat = mat.T  # stored one voxel per row
            if mat.shape != (1, n_voxels):
                raise ConfigError(
                    f"estimate file {path!r} does not hold one value per "
                    f"voxel ({n_voxels} expected)"
                )
            per_session.append(mat[0])
        stacks.append(per_session)
    betas = BetaStack(
        beta=np.asarray(stacks),
        regressor_name=str(config.betas.get("regressor", "effect")),
    )
    averaged = cv_bma(betas, probs)

    name = f"BMA_{betas.regressor_name}.csv"
    return [
        _write_table(ctx, options, "PP.csv", "PP", config.model_names, probs.pp),
        _write_table(
            ctx, options, name, "BMA", (betas.regressor_name,), averaged[None, :]
        ),
    ]


_STAGE_FUNCTIONS = {
    "cvlme": _stage_cvlme,
    "anc": _stage_anc,
    "lfe": _stage_lfe,
    "bms": _stage_bms,
    "ep": _stage_ep,
    "bma": _stage_bma,
}


def _config_hash(config: ModelSpaceConfig) -> str:
    canonical = json.dumps(config.raw, sort_keys=True).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


def run_pipeline(config: ModelSpaceConfig, stages, options: RunOptions) -> dict:
    """Run the requested stages plus their dependencies; return the manifest.

    Stage failures are recorded, not raised; dependents of a failed stage
    are skipped. The manifest (and ``timings.csv``) is written even when
    stages fail.
    """
    deps = _dependencies(config)
    ordered = _closure(stages, deps)
    _preflight(config, ordered)
    options.out_dir.mkdir(parents=True, exist_ok=True)

    ctx = _Context()
    statuses: dict = {}
    timings: list = []
    for stage in ordered:
        blocked = [
            d for d in deps[stage] if statuses.get(d, {}).get("status") != "ok"
        ]
        if blocked:
            statuses[stage] = {
                "status": f"skipped: dependency {blocked[0]!r} did not succeed",
                "outputs": [],
            }
            continue
        started = time.perf_counter()
        try:
            outputs = _STAGE_FUNCTIONS[stage](config, options, ctx)
            statuses[stage] = {"status": "ok", "outputs": outputs}
        except Exception as exc:  # noqa: BLE001 - per-stage isolation
            statuses[stage] = {
                "status": f"failed: {type(exc).__name__}: {exc}",
                "outputs": [],
            }
        timings.append((stage, time.perf_counter() - started))

    manifest = {
        "config_sha256": _config_hash(config),
        "seed": options.seed,
        "options": {
            "ep_method": options.ep_method,
            "samples": options.samples,
            "rel_tail": options.rel_tail,
            "ep_tol": options.ep_tol,
            "alpha0": config.alpha0,
            "vb_tol": config.vb_tol,
            "vb_max_iter": config.vb_max_iter,
            "chunk_voxels": config.chunk_voxels,
        },
        "versions": {
            "evidencer": __version__,
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
            "python": "{}.{}.{}".format(*sys.version_info[:3]),
        },
        "model_names": list(config.model_names),
        "subject_names": [s["name"] for s in config.subjects],
        "stages": statuses,
        "tables": ctx.tables,
        "diagnostics": ctx.diagnostics,
    }
    manifest_path = options.out_dir / "manifest.json"
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    with (options.out_dir / "timings.csv").open(
        "w", newline="", encoding="utf-8"
    ) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["stage", "seconds"])
        for stage, seconds in timings:
            writer.writerow([stage, f"{seconds:.6f}"])
    return manifest
