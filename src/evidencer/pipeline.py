"""Batch analysis pipeline: stage orchestration, persistence, manifest.

Stages form a small dependency graph (accuracy/complexity, family
evidence, and averaging build on the cross-validated evidences; exceedance
probabilities build on the group Dirichlet estimate). One row of
``_STAGES`` per stage declares its config blocks, its dependencies, its
input files and its loader; the bms stage's dependency on cvlme when a
subject is ``'@self'`` is the one rule decided per run. A failing stage
aborts only its dependents; the manifest always records per-stage status.

The config comes parsed: :func:`~evidencer.dataio.load_config` has built
the family partition, the precision file list and the regressor name once,
and the stages read them as they are. The response files fix the folds:
one file is split in halves once it is read, several are one fold each.

A stage is pure compute: its inputs come in as arguments, and it returns
its result tables by file name, the problem sizes and diagnostics it adds
to the manifest, and the product its dependents read (the cvlme stage's
:class:`CvResult`, the bms stage's alpha table). Only :func:`run_pipeline`
does I/O: per stage it loads the input files (the cvlme stage's one session
at a time, kept as statistics) or dependency products, calls the stage,
saves the tables, and records status, outputs, sizes, diagnostics and the
seconds of each phase (load, compute, write) in ``timings.csv``.

Reruns with the same configuration write byte-identical result files and
manifest regardless of the worker-thread count: voxel chunk boundaries are
fixed by the constant ``_CHUNK_VOXELS``, and chunk results are written
back by index. Wall-clock timings go to a separate ``timings.csv`` that is
excluded from that guarantee.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .bma import BetaStack, cv_bma, log_family_evidence, posterior_probabilities
from .crossval import CvResult, _cv_folds, _fold_stats, _slice_spec, split_single_session
from .dataio import ModelSpaceConfig, ResultTable, load_matrix
from .errors import (
    ConfigError, DomainError, EstimationError, EvidencerError, LayoutError, NumericalError,
    ParseError, _integral,
)
from .glm import GlmSpec, _precision_logdet
from .rfx import (
    EP_REL_TAIL,
    EP_TOL,
    DirichletPosterior,
    GroupLmeStack,
    ep_integration_stack,
    estimate_rfx,
)

__all__ = ["RunOptions", "run_pipeline", "supported_stages"]

_PHASES = ("load", "compute", "write")


@dataclass
class RunOptions:
    """Execution knobs shared by all stages."""

    out_dir: Path
    threads: int = 1

    def __post_init__(self):
        self.out_dir = Path(self.out_dir)
        threads = _integral(self.threads)
        if threads is None or threads < 1:
            raise ConfigError(f"threads must be an integer >= 1, got {self.threads!r}")
        self.threads = threads


def _missing_block(config: ModelSpaceConfig, stage: str):
    """The first config block ``stage`` needs that ``config`` lacks, or None."""
    return next((b for b in _STAGES[stage].blocks if not getattr(config, b)), None)


def supported_stages(config: ModelSpaceConfig) -> tuple:
    """Stages the configuration provides inputs for."""
    return tuple(s for s in STAGE_NAMES if _missing_block(config, s) is None)


def _dependencies(config: ModelSpaceConfig, stage: str) -> tuple:
    """The stages whose products ``stage`` reads: those ``_STAGES`` declares,
    and for bms the cvlme stage when a subject is ``'@self'``."""
    deps = _STAGES[stage].deps
    if stage == "bms" and any(s["cvlme"] == "@self" for s in config.subjects):
        deps += ("cvlme",)
    return deps


def _plan(config: ModelSpaceConfig, stages) -> list:
    """The requested stages plus their dependencies, in run order.

    Raises :class:`ConfigError` for an unknown stage, then for the first
    planned stage lacking a config block, then listing every input file of
    the planned stages that does not exist, all before any file is read.
    """
    needed = set()
    for stage in stages:
        if stage not in _STAGES:
            raise ConfigError(f"unknown stage {stage!r}")
        needed.add(stage)
    for stage in reversed(STAGE_NAMES):  # each stage's dependencies come before it
        if stage in needed:
            needed.update(_dependencies(config, stage))
    ordered = [s for s in STAGE_NAMES if s in needed]
    for stage in ordered:
        block = _missing_block(config, stage)
        if block is not None:
            raise ConfigError(f"stage {stage!r} needs a {block!r} block in the config")
    missing = [
        str(rel)
        for stage in ordered
        for rel in _STAGES[stage].files(config)
        if not config.resolve(rel).is_file()
    ]
    if missing:
        raise ConfigError(
            "referenced input files do not exist: " + ", ".join(sorted(missing))
        )
    return ordered


# Voxels per chunk of the bms and ep stages, the unit the ``--threads`` pool
# hands out. Results are bit-identical at any size and rfx bounds its own
# memory, so only speed sets it. On 20 subjects x 3 models x 50k voxels at 2
# threads (2-vCPU Xeon, one BLAS thread), 4,096-voxel chunks took 155-177 ms
# (bms) and 848-982 ms (ep), one chunk 241-264 and 1476-1634 ms; at 1 thread
# the two were within run-to-run spread. 500 voxels in four chunks of 125
# took twice the bms time of one chunk.
_CHUNK_VOXELS = 4096


def _chunk_slices(n_voxels: int) -> list:
    return [slice(i, i + _CHUNK_VOXELS) for i in range(0, n_voxels, _CHUNK_VOXELS)]


def _map_chunks(fn, slices, threads: int) -> list:
    if threads <= 1 or len(slices) <= 1:
        return [fn(s) for s in slices]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, slices))


@dataclass(frozen=True)
class _StageResult:
    """What a stage returns: its result tables by file name, in write order;
    the problem sizes and diagnostics it adds to the manifest; and the
    product its dependent stages read."""

    tables: dict
    diagnostics: dict = field(default_factory=dict)
    product: object = None
    sizes: dict = field(default_factory=dict)


def _load_finite(config: ModelSpaceConfig, relative, declined: list) -> np.ndarray:
    """The values of an input matrix whose every cell must be finite;
    ``relative`` joins ``declined`` if the canonical CSV decoder declined it."""
    path = config.resolve(relative)
    matrix = load_matrix(path)
    if matrix.declined and relative not in declined:
        declined.append(relative)
    finite = np.isfinite(matrix.values)
    if not finite.all():
        row, column = np.argwhere(~finite)[0]
        line = row + (1 if matrix.columns is None else 2)
        raise ParseError(
            f"{path}, line {line}, column {column + 1}: non-finite value "
            f"{float(matrix.values[row, column])}"
        )
    return matrix.values


def _model_space_files(config: ModelSpaceConfig) -> list:
    """The cvlme stage's input files: responses, designs and precisions."""
    designs = [path for model in config.models for path in model["design"]]
    return [*config.data, *designs, *config.precision]


def _load_model_space(config: ModelSpaceConfig, products, declined: list) -> tuple:
    """The cvlme stage's arguments: each model's per-fold statistics and each
    response file's scan count, one session at a time (:func:`_session_pass`).
    One response file is split in halves; several are one fold each."""
    stats = {model["name"]: [] for model in config.models}
    scans = [_session_pass(config, s, stats, declined) for s in range(len(config.data))]
    return stats, scans


def _session_pass(config: ModelSpaceConfig, s: int, stats, declined: list) -> int:
    """Read session ``s``, check its response, its whole precision file and
    its designs as specs (a single session whole, then as its halves), and
    add each model's statistics of its folds to ``stats``; nothing else
    outlives it. Returns the response's scan count."""
    y = _load_finite(config, config.data[s], declined)
    first = next(iter(stats.values()))
    if first and y.shape[1] != first[0].n_voxels:
        raise ConfigError(
            f"response files disagree on voxel count: {config.data[s]} has "
            f"{y.shape[1]}, {config.data[0]} {first[0].n_voxels}"
        )
    layout = None
    if len(config.data) == 1:
        try:
            layout = split_single_session(y.shape[0])
        except LayoutError as exc:
            raise ConfigError(f"{config.resolve(config.data[s])}: {exc}") from None
    precision = None
    if config.precision:
        precision = _load_finite(config, config.precision[s], declined)
        if precision.shape == (1, y.shape[0]):
            precision = precision.ravel()  # stored as a single row: diagonal precision
        try:
            _precision_logdet(precision, y.shape[0])
        except EvidencerError as exc:
            where = f"session {s + 1}, precision {config.resolve(config.precision[s])}"
            raise type(exc)(f"{where}: {exc}") from None
    folds = {}  # per model, its specs of the session's folds
    for model, kept in zip(config.models, stats.values()):
        x = _load_finite(config, model["design"][s], declined)
        try:
            spec = GlmSpec(Y=y, X=x, precision=precision)
            if kept and spec.p != kept[0].p:
                raise DomainError(f"design has {spec.p} columns, session 1's {kept[0].p}")
            folds[model["name"]] = [spec] if layout is None else _slice_spec(spec, layout)
        except EvidencerError as exc:
            raise type(exc)(
                f"model {model['name']!r}, session {s + 1}, design "
                f"{config.resolve(model['design'][s])}: {exc} "
                f"(response {config.resolve(config.data[s])})"
            ) from None
    for name, found in _fold_stats(folds, s).items():
        stats[name].extend(found)
    return y.shape[0]


def _subject_files(config: ModelSpaceConfig) -> list:
    """The bms stage's input files: every subject's but a ``'@self'`` one."""
    return [s["cvlme"] for s in config.subjects if s["cvlme"] != "@self"]


def _load_group(config: ModelSpaceConfig, products, declined: list) -> tuple:
    """The bms stage's argument: every subject's evidences, taking a
    ``'@self'`` subject's from this run's cvlme product."""
    slabs = [
        products["cvlme"].cv_lme
        if subject["cvlme"] == "@self"
        else _load_finite(config, subject["cvlme"], declined)
        for subject in config.subjects
    ]
    files = [subject["cvlme"] for subject in config.subjects]
    for path, slab in zip(files, slabs):
        if slab.shape != slabs[0].shape:
            raise ConfigError(
                f"subjects' evidence files disagree on shape: {path} has "
                f"{slab.shape}, {files[0]} {slabs[0].shape}"
            )
    if slabs[0].shape[0] < 2:
        raise ConfigError(
            "group analysis needs at least two models, but the subjects' evidence "
            f"files hold one row each: {', '.join(files)}"
        )
    names = tuple(s["name"] for s in config.subjects)
    return (GroupLmeStack(lme=np.stack(slabs), subject_ids=names),)


def _estimate_files(config: ModelSpaceConfig) -> list:
    """The bma stage's input files: one estimate per model and session."""
    return [path for row in config.betas["files"] for path in row]


def _load_estimates(config: ModelSpaceConfig, products, declined: list) -> tuple:
    """The bma stage's arguments: the cvlme product and the (models x
    sessions x voxels) estimates."""
    cv_result = products["cvlme"]
    n_voxels = cv_result.cv_lme.shape[1]
    stacks = []
    for row in config.betas["files"]:
        per_session = []
        for path in row:
            mat = _load_finite(config, path, declined)
            if mat.shape[0] != 1:
                mat = mat.T  # stored one voxel per row
            if mat.shape != (1, n_voxels):
                raise ConfigError(
                    f"estimate file {path!r} does not hold one value per "
                    f"voxel ({n_voxels} expected)"
                )
            per_session.append(mat[0])
        stacks.append(per_session)
    return cv_result, BetaStack(beta=stacks, regressor_name=config.betas["regressor"])


def _cv_tables(result: CvResult, *terms) -> dict:
    """``cv<term>.csv`` per term, then fold by fold ``oos<term>_fold<i>.csv``
    per term, for terms ``"LME"``, ``"Acc"`` or ``"Com"`` of ``result``."""
    names = result.model_names
    tables = {}
    for t in terms:
        values = getattr(result, f"cv_{t.lower()}")
        tables[f"cv{t}.csv"] = ResultTable(f"cv{t}", names, values)
    for i in range(result.oos_lme.shape[0]):
        for t in terms:
            values = getattr(result, f"oos_{t.lower()}")[i]
            tables[f"oos{t}_fold{i + 1}.csv"] = ResultTable(f"oos{t}", names, values)
    return tables


def _stage_cvlme(config, options, stats, scans) -> _StageResult:
    try:
        result = _cv_folds(stats)
    except EstimationError as exc:
        files = ", ".join(str(config.resolve(path)) for path in config.data)
        raise EstimationError(f"{exc} (response files {files})") from None
    sizes = {
        "sessions": len(scans),
        "scans_per_session": scans,
        "folds": result.oos_lme.shape[0],
        "voxels": result.cv_lme.shape[1],
        "models": len(result.model_names),
    }
    diagnostics = {"cvlme_max_acc_com_tol": float(np.max(result.acc_com_tol))}
    return _StageResult(_cv_tables(result, "LME"), diagnostics, result, sizes)


def _stage_anc(config, options, cv_result) -> _StageResult:
    return _StageResult(_cv_tables(cv_result, "Acc", "Com"))


def _stage_lfe(config, options, cv_result) -> _StageResult:
    lfe = log_family_evidence(cv_result.cv_lme, config.families)
    return _StageResult({"LFE.csv": ResultTable("LFE", config.families.names, lfe)})


def _stage_bms(config, options, group) -> _StageResult:
    slices = _chunk_slices(group.n_voxels)

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
    dirichlet = DirichletPosterior(
        alpha=np.concatenate([p.alpha for p in parts], axis=1),
        alpha0=config.alpha0,
        n_subjects=group.n_subjects,
        converged=np.concatenate([p.converged for p in parts]),
        iterations=np.concatenate([p.iterations for p in parts]),
        log_space_steps=sum(p.log_space_steps for p in parts),
    )
    rows = config.model_names
    if len(rows) != group.n_models:
        rows = tuple(f"model{i + 1}" for i in range(group.n_models))
    alpha = ResultTable("alpha", rows, dirichlet.alpha)
    return _StageResult(
        {
            "alpha.csv": alpha,
            "expected_freq.csv": ResultTable(
                "expected_freq", rows, dirichlet.expected_freq
            ),
        },
        diagnostics={
            "bms_unconverged_voxels": int(np.sum(~dirichlet.converged)),
            "bms_max_iterations": int(dirichlet.iterations.max()),
            "bms_voxel_iterations": int(dirichlet.iterations.sum()),
            "bms_log_space_steps": dirichlet.log_space_steps,
        },
        product=alpha,
        sizes={
            "subjects": group.n_subjects,
            "group_models": group.n_models,
            "group_voxels": group.n_voxels,
            "chunks": len(slices),
        },
    )


def _stage_ep(config, options, alpha_table) -> _StageResult:
    alpha = alpha_table.values

    def run_chunk(sl):
        try:
            return ep_integration_stack(alpha[:, sl])
        except NumericalError as exc:
            # the first failing chunk is the one raised: name its column in
            # the whole map, whatever the chunk size
            raise NumericalError(exc.reason, exc.column + sl.start) from None

    slices = _chunk_slices(alpha.shape[1])
    parts, infos = zip(*_map_chunks(run_chunk, slices, options.threads))
    diagnostics = {
        "ep_max_sum_deviation": max(i["max_sum_deviation"] for i in infos),
        "ep_distinct_columns": sum(i["distinct_columns"] for i in infos),
        "ep_max_nodes": max(i["max_nodes"] for i in infos),
    }
    ep = np.concatenate(parts, axis=1)
    return _StageResult(
        {"EP.csv": ResultTable("EP", alpha_table.row_labels, ep)}, diagnostics
    )


def _stage_bma(config, options, cv_result, betas) -> _StageResult:
    probs = posterior_probabilities(cv_result.cv_lme, config.model_prior)
    averaged = cv_bma(betas, probs)
    name = betas.regressor_name
    return _StageResult(
        {
            "PP.csv": ResultTable("PP", config.model_names, probs.pp),
            f"BMA_{name}.csv": ResultTable("BMA", (name,), averaged[None, :]),
        }
    )


class _Stage(NamedTuple):
    """What the runner needs to know of a stage before it computes."""

    blocks: tuple  # the config blocks it reads its inputs from
    deps: tuple  # the stages whose products it reads
    files: Callable  # config -> its input files, relative to the config
    # (config, products, declined) -> its arguments after (config, options),
    # adding to declined the input files the canonical CSV decoder declined
    load: Callable


def _no_files(config) -> tuple:
    return ()


def _product_of(stage: str) -> Callable:
    return lambda config, products, declined: (products[stage],)


_STAGES = {
    "cvlme": _Stage(("models",), (), _model_space_files, _load_model_space),
    "anc": _Stage(("models",), ("cvlme",), _no_files, _product_of("cvlme")),
    "lfe": _Stage(("models", "families"), ("cvlme",), _no_files, _product_of("cvlme")),
    "bms": _Stage(("subjects",), (), _subject_files, _load_group),
    "ep": _Stage(("subjects",), ("bms",), _no_files, _product_of("bms")),
    "bma": _Stage(("models", "betas"), ("cvlme",), _estimate_files, _load_estimates),
}
STAGE_NAMES = tuple(_STAGES)

# the stage functions by name: the runner calls each through this table, so a
# tracer or a test can replace one entry
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

    An unknown stage, a missing config block or input file, or an output
    directory that cannot be created raises :class:`ConfigError` before any
    stage runs; a manifest or timings file that cannot be written raises it
    after. Stage failures are recorded, not raised, an exception other than
    :class:`EvidencerError` as an internal error with its traceback;
    dependents of a failed stage are skipped. The manifest (and
    ``timings.csv``) is written even when stages fail.
    """
    ordered = _plan(config, stages)
    try:
        options.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot create output directory {options.out_dir}: {exc.strerror or exc}"
        ) from None
    if {"bms", "ep"} & set(ordered):
        # the group stages' first array call would import it: do so outside
        # the stage timings and before any chunk worker thread
        import scipy.special  # noqa: F401

    products: dict = {}
    statuses: dict = {}
    tables: dict = {}
    diagnostics: dict = {}
    declined: list = []
    sizes: dict = {}
    timings: list = []
    for stage in ordered:
        blocked = [d for d in _dependencies(config, stage) if d not in products]
        if blocked:
            statuses[stage] = {
                "status": f"skipped: dependency {blocked[0]!r} did not succeed",
                "outputs": [],
            }
            timings.append((stage, "skipped", 0.0))
            continue
        marks = [time.perf_counter()]  # each phase's start, then the end
        try:
            inputs = _STAGES[stage].load(config, products, declined)
            marks.append(time.perf_counter())
            result = _STAGE_FUNCTIONS[stage](config, options, *inputs)
            marks.append(time.perf_counter())
            for name, table in result.tables.items():
                table.save(options.out_dir / name)
        except EvidencerError as exc:
            statuses[stage] = {
                "status": f"failed: {type(exc).__name__}: {exc}",
                "outputs": [],
            }
            continue
        except Exception as exc:  # noqa: BLE001 - a fault of the program
            statuses[stage] = {
                "status": f"failed: internal error: {type(exc).__name__}: {exc}",
                "outputs": [],
                "traceback": traceback.format_exc().splitlines(),
            }
            continue
        finally:
            marks.append(time.perf_counter())
            timings.extend(
                (stage, phase, end - start)
                for phase, start, end in zip(_PHASES, marks, marks[1:])
            )
        products[stage] = result.product
        statuses[stage] = {"status": "ok", "outputs": list(result.tables)}
        for name, table in result.tables.items():
            tables[name] = {"kind": table.kind, "rows": list(table.row_labels)}
        diagnostics.update(result.diagnostics)
        sizes.update(result.sizes)

    manifest = {
        "config_sha256": _config_hash(config),
        "options": {
            "rel_tail": EP_REL_TAIL,
            "ep_tol": EP_TOL,
            "alpha0": config.alpha0,
            "vb_tol": config.vb_tol,
            "vb_max_iter": config.vb_max_iter,
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
        "tables": tables,
        "sizes": sizes,
        "diagnostics": {**diagnostics, "slow_path_inputs": declined},
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    _write(options.out_dir / "manifest.json", text)
    rows = ["stage,phase,seconds\n"]
    rows += [f"{stage},{phase},{seconds:.6f}\n" for stage, phase, seconds in timings]
    _write(options.out_dir / "timings.csv", "".join(rows))
    return manifest


def _write(path: Path, text: str) -> None:
    """Write the manifest or the timings; failing is a config error."""
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None
