"""Seeded synthetic inputs for the three benchmark workloads.

Every array comes from ``numpy.random.default_rng`` seeded with the
workload seed and a per-workload tag, so one seed always gives the same
inputs. CSV inputs are written by :func:`write_csv` below, never by the
program under test, so the input bytes stay fixed when the program's own
writer changes. Written workspaces are cached under the work directory by
(workload, seed, sizes); generation time is reported for information only.

Besides the files the program reads, each workspace keeps ``truth.npz``:
the arrays the independent checks need (designs, sampled response columns,
estimates, group evidences). The program never sees it.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("subject-cv", "group-ep", "library-fit")
_TAGS = {"subject-cv": 1, "group-ep": 2, "library-fit": 3}
# cached workspaces kept per workload; a subject-cv workspace is ~200 MB
_CACHE_KEEP = 4


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one workload; zero where a part is absent."""

    sessions: int = 0
    scans: int = 0
    voxels: int = 0
    subjects: int = 0
    group_voxels: int = 0
    chunk_voxels: int = 0
    check_voxels: int = 0


# Voxel counts of the CLI workloads keep one iteration near 3 s, so each run
# takes the median of several iterations on a machine whose throughput drifts.
FULL_SIZES = {
    "subject-cv": Sizes(sessions=4, scans=200, voxels=2_500, check_voxels=32),
    "group-ep": Sizes(subjects=20, group_voxels=500, chunk_voxels=125, check_voxels=12),
    "library-fit": Sizes(
        sessions=4, scans=200, voxels=50_000, subjects=20, group_voxels=50_000,
        check_voxels=32,
    ),
}
SMOKE_SIZES = {
    "subject-cv": Sizes(sessions=4, scans=30, voxels=200, check_voxels=8),
    "group-ep": Sizes(subjects=6, group_voxels=100, chunk_voxels=25, check_voxels=4),
    "library-fit": Sizes(
        sessions=4, scans=30, voxels=300, subjects=6, group_voxels=300,
        check_voxels=8,
    ),
}

# nested first-level models: regressor columns of the full design, constant last
MODELS = {"m1": (0, 3), "m2": (0, 1, 3), "m3": (0, 1, 2, 3)}
FAMILIES = {"task": ["m1"], "extended": ["m2", "m3"]}
BETA_REGRESSOR = "task"  # column 0 of every design
N_GROUP_MODELS = 3
VB = {"alpha0": 1.0, "vb_tol": 1e-4, "vb_max_iter": 200}


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), _TAGS[workload]])


def write_csv(path, values) -> None:
    """Header ``v1..vN`` then one row per line, cells formatted ``%.16e``."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    cols = values.shape[1]
    row_format = ",".join(["%.16e"] * cols) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(f"v{i + 1}" for i in range(cols)) + "\n")
        for row in values.tolist():
            handle.write(row_format % tuple(row))


def read_csv(path) -> np.ndarray:
    """Read a CSV written with one header row; always 2-D."""
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2))


def first_level_data(rng, sizes: Sizes):
    """Designs (sessions x scans x 4) and responses (sessions x scans x voxels).

    Columns: a task boxcar, a slow drift, a random nuisance regressor and
    the constant. Each voxel's response is generated from one of the three
    nested models with noise of voxel-specific scale, so evidences differ
    across voxels without reaching the high-SNR regime.
    """
    s, n, v = sizes.sessions, sizes.scans, sizes.voxels
    t = np.arange(n)
    designs = np.empty((s, n, 4))
    for i in range(s):
        designs[i, :, 0] = np.where((t // 10) % 2 == 0, 1.0, -1.0)
        designs[i, :, 1] = np.sin(2 * np.pi * t / n + rng.uniform(0, 2 * np.pi))
        designs[i, :, 2] = rng.normal(size=n)
        designs[i, :, 3] = 1.0
    true_model = rng.integers(0, 3, size=v)
    beta = rng.normal(0.0, 0.4, size=(4, v))
    beta[1, true_model < 1] = 0.0
    beta[2, true_model < 2] = 0.0
    beta[3] += 5.0
    sigma = rng.uniform(0.5, 2.0, size=v)
    data = np.empty((s, n, v))
    for i in range(s):
        data[i] = designs[i] @ beta + sigma * rng.normal(size=(n, v))
    return designs, data


def ols_task_estimates(designs, data) -> np.ndarray:
    """Per model and session, the least-squares task coefficient: (models, sessions, voxels)."""
    out = np.empty((len(MODELS), designs.shape[0], data.shape[2]))
    for m, cols in enumerate(MODELS.values()):
        for s in range(designs.shape[0]):
            pinv = np.linalg.pinv(designs[s][:, cols])
            out[m, s] = pinv[0] @ data[s]
    return out


def group_evidences(rng, subjects: int, voxels: int) -> np.ndarray:
    """Subjects' evidences (subjects x models x voxels), all continuous.

    Per voxel a population frequency is drawn, each subject's generating
    model is drawn from it, and that model's evidence gets a boost of 1 to
    6 nats over noisy competitors, so concentration columns are distinct
    and moderate.
    """
    k = N_GROUP_MODELS
    freq = rng.dirichlet(np.ones(k), size=voxels)  # voxels x k
    draws = rng.random((subjects, voxels))
    winner = (draws[:, :, None] > np.cumsum(freq, axis=1)[None, :, :]).sum(axis=2)
    winner = np.minimum(winner, k - 1)
    lme = -200.0 + rng.normal(0.0, 1.5, size=(subjects, k, voxels))
    boost = rng.uniform(1.0, 6.0, size=(subjects, voxels))
    np.put_along_axis(
        lme,
        winner[:, None, :],
        np.take_along_axis(lme, winner[:, None, :], axis=1) + boost[:, None, :],
        axis=1,
    )
    return lme


def check_sample(rng, voxels: int, count: int) -> np.ndarray:
    return np.sort(rng.choice(voxels, size=min(count, voxels), replace=False))


def library_inputs(seed: int, sizes: Sizes) -> dict:
    """In-memory inputs of the library-fit workload."""
    rng = rng_for("library-fit", seed)
    designs, data = first_level_data(rng, sizes)
    return {
        "designs": designs,
        "data": data,
        "betas": ols_task_estimates(designs, data),
        "group": group_evidences(rng, sizes.subjects, sizes.group_voxels),
        "sample": check_sample(rng, sizes.voxels, sizes.check_voxels),
    }


def _subject_cv_workspace(root: Path, seed: int, sizes: Sizes) -> None:
    rng = rng_for("subject-cv", seed)
    designs, data = first_level_data(rng, sizes)
    betas = ols_task_estimates(designs, data)
    sample = check_sample(rng, sizes.voxels, sizes.check_voxels)
    s_count = sizes.sessions
    for s in range(s_count):
        write_csv(root / f"Y_s{s + 1}.csv", data[s])
        for name, cols in MODELS.items():
            write_csv(root / f"X_{name}_s{s + 1}.csv", designs[s][:, cols])
    for m, name in enumerate(MODELS):
        for s in range(s_count):
            write_csv(root / f"beta_{name}_s{s + 1}.csv", betas[m, s][None, :])
    config = {
        "models": [
            {"name": name, "design": [f"X_{name}_s{s + 1}.csv" for s in range(s_count)]}
            for name in MODELS
        ],
        "data": [f"Y_s{s + 1}.csv" for s in range(s_count)],
        "precision": "identity",
        "sessions": {"kind": "multi"},
        "families": FAMILIES,
        "betas": {
            "regressor": BETA_REGRESSOR,
            "files": [
                [f"beta_{name}_s{s + 1}.csv" for s in range(s_count)] for name in MODELS
            ],
        },
    }
    (root / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
    np.savez(
        root / "truth.npz",
        designs=designs,
        data_sample=data[:, :, sample],
        betas=betas,
        sample=sample,
    )


def _group_ep_workspace(root: Path, seed: int, sizes: Sizes) -> None:
    rng = rng_for("group-ep", seed)
    lme = group_evidences(rng, sizes.subjects, sizes.group_voxels)
    sample = check_sample(rng, sizes.group_voxels, sizes.check_voxels)
    subjects = []
    for i in range(sizes.subjects):
        name = f"sub-{i + 1:02d}"
        write_csv(root / f"{name}_cvLME.csv", lme[i])
        subjects.append({"name": name, "cvlme": f"{name}_cvLME.csv"})
    config = {"subjects": subjects, "chunk_voxels": sizes.chunk_voxels, **VB}
    (root / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
    np.savez(root / "truth.npz", lme=lme, sample=sample)


_WORKSPACE_WRITERS = {"subject-cv": _subject_cv_workspace, "group-ep": _group_ep_workspace}


def input_key(workload: str, seed: int, sizes: Sizes) -> str:
    """Name that identifies one workload's inputs: (workload, seed, sizes)."""
    digest = hashlib.sha256(json.dumps([workload, int(seed), asdict(sizes)]).encode())
    return f"{workload}-seed{seed}-{digest.hexdigest()[:12]}"


def workspace(work_dir: Path, workload: str, seed: int, sizes: Sizes) -> tuple:
    """Path of the cached workspace for (workload, seed, sizes), and whether it was built now."""
    base = work_dir / "inputs"
    root = base / input_key(workload, seed, sizes)
    done = root / "complete"
    if done.is_file():
        done.touch()  # mark as recently used for eviction
        return root, False
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    _WORKSPACE_WRITERS[workload](root, seed, sizes)
    done.write_text("ok\n", encoding="utf-8")
    _evict(base, workload, keep=root)
    return root, True


def _evict(base: Path, workload: str, keep: Path) -> None:
    cached = sorted(
        (p for p in base.glob(f"{workload}-seed*") if p != keep),
        key=lambda p: (p / "complete").stat().st_mtime if (p / "complete").exists() else 0.0,
    )
    for stale in cached[: max(0, len(cached) - (_CACHE_KEEP - 1))]:
        shutil.rmtree(stale, ignore_errors=True)


def input_bytes(workload: str, sizes: Sizes) -> int:
    """Computed bytes of the float64 input arrays the program processes."""
    first = sizes.sessions * sizes.scans * sizes.voxels * 8
    group = sizes.subjects * N_GROUP_MODELS * sizes.group_voxels * 8
    if workload == "subject-cv":
        return first
    if workload == "group-ep":
        return group
    return first + group
