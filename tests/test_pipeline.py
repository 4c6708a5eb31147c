"""Pipeline orchestration, persistence contracts, and the CLI surface."""

import contextlib
import copy
import dataclasses
import io
import json
import shutil
import weakref

import numpy as np
import pytest
from helpers import build_toy_workspace, ep_beta_closed_form, random_precision
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import evidencer.pipeline
from evidencer import glm
from evidencer.cli import main
from evidencer.crossval import (
    SessionLayout,
    cv_lme_models,
    split_glm_spec,
    split_single_session,
)
from evidencer.dataio import load_config, load_matrix, save_matrix
from evidencer.dataio import ResultTable
from evidencer.errors import ConfigError
from evidencer.glm import GlmSpec, NgParams
from evidencer.pipeline import (
    _STAGES,
    STAGE_NAMES,
    RunOptions,
    _plan,
    _StageResult,
    run_pipeline,
)
from evidencer.rfx import EP_TOL, GroupLmeStack, ep_integration_stack, estimate_rfx

STAGES = ("cvlme", "anc", "lfe", "bms", "ep", "bma")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy")
    return build_toy_workspace(root)


# values of the wrong type or shape for some config entry, an integer
# beyond int64 and a subnormal double
_FUZZ_VALUES = (
    True, "7", -1, 2.5, [], {}, None, "nan", [[1.0, 2.0], [3.0]], 10**30, 1e-310,
)

# the estimate files of the toy workspace, two models by two sessions
_BETA_FILES = [[f"beta_{m}_s{i}.csv" for i in (1, 2)] for m in ("m1", "m2")]


@pytest.fixture(scope="module")
def fuzz_workspace(tmp_path_factory):
    """A toy workspace and a valid config that sets every optional key."""
    root = tmp_path_factory.mktemp("fuzz")
    config_path = build_toy_workspace(
        root,
        extra_config={
            "family_weights": {"simple": [1.0], "rich": [1.0]},
            "model_prior": [0.5, 0.5],
            "alpha0": 1.0,
            "vb_tol": 1e-4,
            "vb_max_iter": 200,
        },
    )
    return root, json.loads(config_path.read_text())


# replacements for one cell or one whole line of an input CSV: an empty
# cell (or a blank line), non-numbers, an overflow, digit grouping, an
# unbalanced quote and an extra comma
_CSV_FUZZ_VALUES = ("", "x", "nan", "1e400", "1_000", '"1', "1,2")


@pytest.fixture(scope="module")
def csv_fuzz_workspace(tmp_path_factory):
    """A toy workspace with precision files, and every input file's text."""
    root = tmp_path_factory.mktemp("csvfuzz")
    config_path = build_toy_workspace(
        root, extra_config={"precision": ["P_s1.csv", "P_s2.csv"]}
    )
    for s in (1, 2):
        save_matrix(root / f"P_s{s}.csv", np.ones((1, 24)))
    texts = {p.name: p.read_text() for p in sorted(root.glob("*.csv"))}
    return config_path, texts


def _config_paths(node, prefix=()) -> list:
    """The key path of every entry below the root of a JSON value."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    paths = []
    for key, child in items:
        paths.append((*prefix, key))
        paths.extend(_config_paths(child, (*prefix, key)))
    return paths


def run(config_path, out, stages, **kwargs):
    config = load_config(config_path)
    options = RunOptions(out_dir=out, **kwargs)
    return run_pipeline(config, stages, options)


class TestStageOutputs:
    def test_cvlme_stage_files(self, workspace, tmp_path):
        manifest = run(workspace, tmp_path / "out", ["cvlme"])
        assert manifest["stages"]["cvlme"]["status"] == "ok"
        assert sorted(manifest["stages"]["cvlme"]["outputs"]) == [
            "cvLME.csv",
            "oosLME_fold1.csv",
            "oosLME_fold2.csv",
        ]
        cvlme = load_matrix(tmp_path / "out" / "cvLME.csv")
        assert cvlme.shape == (2, 12)
        fold1 = load_matrix(tmp_path / "out" / "oosLME_fold1.csv").values
        fold2 = load_matrix(tmp_path / "out" / "oosLME_fold2.csv").values
        np.testing.assert_array_equal(cvlme.values, fold1 + fold2)

    def test_dependency_closure_pulls_cvlme(self, workspace, tmp_path):
        manifest = run(workspace, tmp_path / "out", ["anc"])
        assert manifest["stages"]["cvlme"]["status"] == "ok"
        assert manifest["stages"]["anc"]["status"] == "ok"
        acc = load_matrix(tmp_path / "out" / "cvAcc.csv").values
        com = load_matrix(tmp_path / "out" / "cvCom.csv").values
        lme = load_matrix(tmp_path / "out" / "cvLME.csv").values
        np.testing.assert_allclose(acc - com, lme, atol=1e-8)

    def test_lfe_stage(self, workspace, tmp_path):
        manifest = run(workspace, tmp_path / "out", ["lfe"])
        assert manifest["stages"]["lfe"]["status"] == "ok"
        lfe = load_matrix(tmp_path / "out" / "LFE.csv").values
        lme = load_matrix(tmp_path / "out" / "cvLME.csv").values
        # singleton families pass evidences straight through
        np.testing.assert_allclose(lfe, lme, atol=1e-12)

    def test_ep_closed_form_consistency(self, workspace, tmp_path):
        manifest = run(workspace, tmp_path / "out", ["ep"])
        assert manifest["stages"]["ep"]["status"] == "ok"
        alpha = load_matrix(tmp_path / "out" / "alpha.csv").values
        ep = load_matrix(tmp_path / "out" / "EP.csv").values
        np.testing.assert_allclose(ep, ep_beta_closed_form(alpha), rtol=0, atol=EP_TOL)

    def test_ep_integration_close_to_closed_form(
        self, workspace, tmp_path, monkeypatch
    ):
        # several chunks on two threads integrate to the same oracle values
        monkeypatch.setattr(evidencer.pipeline, "_CHUNK_VOXELS", 5)
        manifest = run(workspace, tmp_path / "out", ["ep"], threads=2)
        assert manifest["sizes"]["chunks"] > 1
        alpha = load_matrix(tmp_path / "out" / "alpha.csv").values
        ep = load_matrix(tmp_path / "out" / "EP.csv").values
        np.testing.assert_allclose(ep, ep_beta_closed_form(alpha), rtol=0, atol=EP_TOL)

    def test_bma_stage(self, workspace, tmp_path):
        manifest = run(workspace, tmp_path / "out", ["bma"])
        assert manifest["stages"]["bma"]["status"] == "ok"
        pp = load_matrix(tmp_path / "out" / "PP.csv").values
        np.testing.assert_allclose(pp.sum(axis=0), 1.0, atol=1e-10)
        averaged = load_matrix(tmp_path / "out" / "BMA_task.csv").values
        assert averaged.shape == (1, 12)

    def test_manifest_contents(self, workspace, tmp_path):
        manifest = run(workspace, tmp_path / "out", ["cvlme"])
        on_disk = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert "seed" not in on_disk
        assert sorted(on_disk["options"]) == [
            "alpha0", "ep_tol", "rel_tail", "vb_max_iter", "vb_tol",
        ]
        assert on_disk["model_names"] == ["m1", "m2"]
        assert "config_sha256" in on_disk
        assert on_disk["versions"]["evidencer"]
        assert on_disk == manifest

    def test_ep_integration_counters_in_manifest(
        self, workspace, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(evidencer.pipeline, "_CHUNK_VOXELS", 5)
        manifest = run(workspace, tmp_path / "out", ["ep"])
        assert manifest["sizes"]["chunks"] > 1
        alpha = load_matrix(tmp_path / "out" / "alpha.csv").values
        chunks = [alpha[:, i:i + 5] for i in range(0, alpha.shape[1], 5)]
        diagnostics = manifest["diagnostics"]
        assert diagnostics["ep_distinct_columns"] == sum(
            np.unique(c, axis=1).shape[1] for c in chunks
        )
        assert diagnostics["ep_max_nodes"] == max(
            ep_integration_stack(alpha[:, v:v + 1])[1]["max_nodes"]
            for v in range(alpha.shape[1])
        )

    def test_bms_counters_in_manifest(self, workspace, tmp_path):
        manifest = run(workspace, tmp_path / "out", ["bms"])
        config = load_config(workspace)
        lme = np.stack(
            [load_matrix(config.resolve(s["cvlme"])).values for s in config.subjects]
        )
        names = tuple(s["name"] for s in config.subjects)
        iterations = estimate_rfx(GroupLmeStack(lme=lme, subject_ids=names)).iterations
        diagnostics = manifest["diagnostics"]
        assert diagnostics["bms_voxel_iterations"] == int(iterations.sum())
        assert diagnostics["bms_max_iterations"] == int(iterations.max())
        assert diagnostics["bms_log_space_steps"] == 0

    def test_log_space_steps_in_manifest(self, workspace, tmp_path, monkeypatch):
        # an infinite underflow guard sends every voxel-step to log space;
        # the counter sums over chunks, and chunking keeps the result bytes
        monkeypatch.setattr(evidencer.rfx, "_TINY", np.inf)
        whole = run(workspace, tmp_path / "whole", ["bms"])
        monkeypatch.setattr(evidencer.pipeline, "_CHUNK_VOXELS", 5)
        chunked = run(workspace, tmp_path / "chunked", ["bms"])
        diagnostics = whole["diagnostics"]
        assert diagnostics["bms_log_space_steps"] == diagnostics["bms_voxel_iterations"]
        assert diagnostics["bms_log_space_steps"] > 0
        assert chunked["sizes"]["chunks"] > 1
        assert chunked["diagnostics"] == diagnostics
        for name in ("alpha.csv", "expected_freq.csv"):
            assert (tmp_path / "whole" / name).read_bytes() == (
                tmp_path / "chunked" / name
            ).read_bytes(), name

    def test_cvlme_acc_com_tol_in_manifest(self, workspace, tmp_path, monkeypatch):
        manifest = run(workspace, tmp_path / "skip", STAGES)
        tol = manifest["diagnostics"]["cvlme_max_acc_com_tol"]
        assert np.isfinite(tol) and tol >= 1e-8
        # the update under the non-informative prior skips the prior's zero
        # products; the general formula, which adds them, writes every
        # result file with the same bytes
        monkeypatch.setattr(NgParams, "is_noninformative", property(lambda self: False))
        general = run(workspace, tmp_path / "general", STAGES)
        assert general["diagnostics"] == manifest["diagnostics"]
        assert len(manifest["tables"]) > 6
        for name in manifest["tables"]:
            assert (tmp_path / "skip" / name).read_bytes() == (
                tmp_path / "general" / name
            ).read_bytes(), name

    def test_slow_path_inputs_in_manifest(self, workspace, tmp_path):
        manifest = run(workspace, tmp_path / "fast", STAGES)
        assert manifest["diagnostics"]["slow_path_inputs"] == []
        # CRLF line ends: the canonical decoder declines the file, and the
        # general reader reads the same values
        root = shutil.copytree(workspace.parent, tmp_path / "ws")
        (root / "Y_s2.csv").write_bytes(
            (root / "Y_s2.csv").read_bytes().replace(b"\n", b"\r\n")
        )
        crlf = run(root / workspace.name, tmp_path / "crlf", STAGES)
        named = ["Y_s2.csv"] if evidencer.dataio._EXACT_LONGDOUBLE else []
        assert crlf["diagnostics"] == {
            **manifest["diagnostics"], "slow_path_inputs": named
        }
        assert len(manifest["tables"]) > 6
        for name in manifest["tables"]:
            assert (tmp_path / "fast" / name).read_bytes() == (
                tmp_path / "crlf" / name
            ).read_bytes(), name

    def test_problem_sizes_in_manifest(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setattr(evidencer.pipeline, "_CHUNK_VOXELS", 5)
        group = {"subjects": 5, "group_models": 2, "group_voxels": 12, "chunks": 3}
        manifest = run(workspace, tmp_path / "all", STAGES)
        assert manifest["sizes"] == {
            "sessions": 2,
            "scans_per_session": [24, 24],
            "folds": 2,
            "voxels": 12,
            "models": 2,
            **group,
        }
        # a stage that does not run adds no sizes
        assert run(workspace, tmp_path / "bms", ["bms"])["sizes"] == group

    def test_timings_written(self, workspace, tmp_path):
        run(workspace, tmp_path / "out", ["cvlme"])
        lines = (tmp_path / "out" / "timings.csv").read_text().strip().splitlines()
        assert lines[0] == "stage,phase,seconds"
        assert [line.rsplit(",", 1)[0] for line in lines[1:]] == [
            "cvlme,load",
            "cvlme,compute",
            "cvlme,write",
        ]

    def test_timings_stop_at_failure_and_mark_skips(self, tmp_path):
        config_path = build_toy_workspace(tmp_path / "ws")
        (tmp_path / "ws" / "sub0_cvLME.csv").write_text("1,2\nbad,4\n")
        run(config_path, tmp_path / "out", ["lfe", "ep"])
        lines = (tmp_path / "out" / "timings.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert [r[:2] for r in rows] == [
            ["cvlme", "load"],
            ["cvlme", "compute"],
            ["cvlme", "write"],
            ["lfe", "load"],
            ["lfe", "compute"],
            ["lfe", "write"],
            ["bms", "load"],
            ["ep", "skipped"],
        ]
        assert rows[-1][2] == "0.000000"
        assert all(float(r[2]) >= 0.0 for r in rows)

    def test_manifest_output_order(self, workspace, tmp_path):
        manifest = run(workspace, tmp_path / "out", STAGES)
        folds = ("fold1", "fold2")
        assert {k: v["outputs"] for k, v in manifest["stages"].items()} == {
            "cvlme": ["cvLME.csv"] + [f"oosLME_{f}.csv" for f in folds],
            "anc": ["cvAcc.csv", "cvCom.csv"]
            + [f"oos{t}_{f}.csv" for f in folds for t in ("Acc", "Com")],
            "lfe": ["LFE.csv"],
            "bms": ["alpha.csv", "expected_freq.csv"],
            "ep": ["EP.csv"],
            "bma": ["PP.csv", "BMA_task.csv"],
        }
        assert list(manifest["stages"]) == list(STAGES)

    def test_group_only_rows_follow_alpha_fallback(self, workspace, tmp_path):
        # no first-level models, so alpha's rows fall back to model<i>
        subjects = [
            {"name": f"s{i}", "cvlme": str(workspace.parent / f"sub{i}_cvLME.csv")}
            for i in range(3)
        ]
        config_path = tmp_path / "group.json"
        config_path.write_text(json.dumps({"subjects": subjects}))
        manifest = run(config_path, tmp_path / "out", ["ep"])
        assert manifest["stages"]["ep"]["status"] == "ok"
        rows = ["model1", "model2"]
        assert manifest["tables"]["alpha.csv"] == {"kind": "alpha", "rows": rows}
        assert manifest["tables"]["expected_freq.csv"] == {
            "kind": "expected_freq",
            "rows": rows,
        }
        assert manifest["tables"]["EP.csv"] == {"kind": "EP", "rows": rows}

    @pytest.mark.parametrize("single", [False, True], ids=["two-files", "one-file"])
    def test_each_precision_factorised_once_per_pass(self, tmp_path, monkeypatch, single):
        # the cvlme stage checks a precision file where it reads it, then
        # each fold's response pass forms log|P|: two Cholesky factors per
        # file, three for one file split in halves, whatever the model count
        n, s = (60, 1) if single else (24, 2)
        rng = np.random.default_rng(62)
        names = []
        cholesky = glm._cholesky
        monkeypatch.setattr(
            glm, "_cholesky", lambda m, name: names.append(name) or cholesky(m, name)
        )
        counts = []
        for k in (2, 3):
            root = tmp_path / f"ws{k}"
            models = [
                {"name": f"m{j}", "design": [f"X{j}_s{i}.csv" for i in range(1, s + 1)]}
                for j in range(1, k + 1)
            ]
            extra = {"models": models, "precision": [f"P_s{i}.csv" for i in range(1, s + 1)]}
            config_path = build_toy_workspace(
                root, n=n, s=s, with_group=False, with_betas=False,
                with_families=False, extra_config=extra,
            )
            for i in range(1, s + 1):
                save_matrix(root / f"P_s{i}.csv", random_precision(rng, n, "full"))
                x2 = load_matrix(root / f"X2_s{i}.csv").values
                save_matrix(root / f"X3_s{i}.csv", np.hstack([x2, rng.normal(size=(n, 1))]))
            names.clear()
            manifest = run(config_path, tmp_path / f"out{k}", ["cvlme"])
            assert manifest["stages"]["cvlme"]["status"] == "ok"
            assert manifest["sizes"]["models"] == k
            counts.append(names.count("precision"))
        assert counts[0] == counts[1] <= (3 if single else 2 * s)


@pytest.fixture(scope="module")
def stage_config(tmp_path_factory):
    """A toy config with precision files, betas, one subject read from a
    file and one '@self' subject: every stage has inputs to declare."""
    root = tmp_path_factory.mktemp("stages")
    config_path = build_toy_workspace(
        root,
        extra_config={
            "precision": ["P_s1.csv", "P_s2.csv"],
            "subjects": [
                {"name": "sub0", "cvlme": "sub0_cvLME.csv"},
                {"name": "me", "cvlme": "@self"},
            ],
        },
    )
    for s in (1, 2):
        save_matrix(root / f"P_s{s}.csv", np.ones((1, 24)))
    return load_config(config_path)


def _expected_plan(config, stage) -> list:
    """``stage`` and the closure of the dependencies ``_STAGES`` declares,
    plus cvlme for bms when a subject is '@self', in run order."""
    needed, todo = set(), [stage]
    while todo:
        s = todo.pop()
        needed.add(s)
        todo.extend(_STAGES[s].deps)
        if s == "bms" and any(sub["cvlme"] == "@self" for sub in config.subjects):
            todo.append("cvlme")
    return [s for s in STAGE_NAMES if s in needed]


class TestStageTable:
    """Each stage's row of ``_STAGES`` against what the stage does."""

    def test_preflight_files_are_the_loaded_files(
        self, stage_config, tmp_path, monkeypatch
    ):
        loaded, per_stage = [], {}
        real_load = evidencer.pipeline.load_matrix

        def recording_load(path):
            loaded.append(str(path))
            return real_load(path)

        monkeypatch.setattr(evidencer.pipeline, "load_matrix", recording_load)
        for stage, compute in list(evidencer.pipeline._STAGE_FUNCTIONS.items()):

            def marked(*args, stage=stage, compute=compute):
                per_stage[stage] = sorted(loaded)  # the files of its load phase
                loaded.clear()
                return compute(*args)

            monkeypatch.setitem(evidencer.pipeline._STAGE_FUNCTIONS, stage, marked)
        options = RunOptions(out_dir=tmp_path / "out")
        manifest = run_pipeline(stage_config, STAGE_NAMES, options)
        assert [e["status"] for e in manifest["stages"].values()] == ["ok"] * 6
        for stage in STAGE_NAMES:
            required = _STAGES[stage].files(stage_config)
            assert per_stage[stage] == sorted(
                str(stage_config.resolve(p)) for p in required
            ), stage
        assert per_stage["cvlme"] and per_stage["bms"] and per_stage["bma"]

    def test_cvlme_stage_holds_one_response_at_a_time(
        self, stage_config, tmp_path, monkeypatch
    ):
        # the stage reduces a session to its statistics before it reads the
        # next one, so no earlier response is alive when a response is read
        order, alive, responses = [], [], []
        real_load = evidencer.pipeline._load_finite

        def tracking_load(config, relative, declined):
            if relative in config.data:
                alive.append(sum(ref() is not None for ref in responses))
            values = real_load(config, relative, declined)
            order.append(relative)
            if relative in config.data:
                responses.append(weakref.ref(values))
            return values

        monkeypatch.setattr(evidencer.pipeline, "_load_finite", tracking_load)
        options = RunOptions(out_dir=tmp_path / "out")
        manifest = run_pipeline(stage_config, ["cvlme"], options)
        assert manifest["stages"]["cvlme"]["status"] == "ok"
        assert alive == [0, 0]
        assert all(ref() is None for ref in responses)
        assert order == [
            f"{name}_s{s}.csv" for s in (1, 2) for name in ("Y", "P", "X1", "X2")
        ]

    @pytest.mark.parametrize("stage", STAGE_NAMES)
    def test_each_declared_block_is_required(self, stage_config, stage):
        for block in _STAGES[stage].blocks:
            # a FamilyPartition has no empty instance: a config lacks one as None
            empty = None if block == "families" else type(getattr(stage_config, block))()
            lacking = dataclasses.replace(stage_config, **{block: empty})
            # the first stage of the plan that declares the block is named
            named = next(
                s for s in _expected_plan(lacking, stage) if block in _STAGES[s].blocks
            )
            with pytest.raises(
                ConfigError, match=f"stage '{named}' needs a '{block}' block"
            ):
                _plan(lacking, [stage])

    @pytest.mark.parametrize("stage", STAGE_NAMES)
    def test_plan_is_the_dependency_closure(self, stage_config, stage):
        assert _plan(stage_config, [stage]) == _expected_plan(stage_config, stage)


class TestSingleSession:
    def test_split_half_pipeline(self, tmp_path):
        import numpy as np

        from evidencer.dataio import save_matrix

        root = tmp_path / "ws"
        root.mkdir()
        rng = np.random.default_rng(31)
        n, v = 60, 5
        task = rng.normal(size=(n, 1))
        x1 = np.hstack([task, np.ones((n, 1))])
        x2 = np.hstack([task, rng.normal(size=(n, 1)), np.ones((n, 1))])
        y = x1 @ np.vstack([np.full((1, v), 1.2), np.ones((1, v))])
        y = y + rng.normal(scale=0.7, size=(n, v))
        save_matrix(root / "Y.csv", y)
        save_matrix(root / "X1.csv", x1)
        save_matrix(root / "X2.csv", x2)
        (root / "config.json").write_text(
            json.dumps(
                {
                    "models": [
                        {"name": "m1", "design": ["X1.csv"]},
                        {"name": "m2", "design": ["X2.csv"]},
                    ],
                    "data": ["Y.csv"],
                }
            )
        )
        manifest = run(root / "config.json", tmp_path / "out", ["cvlme"])
        assert manifest["stages"]["cvlme"]["status"] == "ok"
        # split-half: exactly two folds
        assert sorted(manifest["stages"]["cvlme"]["outputs"]) == [
            "cvLME.csv",
            "oosLME_fold1.csv",
            "oosLME_fold2.csv",
        ]
        assert manifest["sizes"] == {
            "sessions": 1,
            "scans_per_session": [n],
            "folds": 2,
            "voxels": v,
            "models": 2,
        }
        cvlme = load_matrix(tmp_path / "out" / "cvLME.csv").values
        assert cvlme.shape == (2, v)
        # the generating model should win nearly everywhere on this toy
        assert np.mean(cvlme[0] > cvlme[1]) > 0.5

    def test_short_response_fails_cvlme_naming_it(self, tmp_path, capsys):
        # one response file is split in halves, which needs 40 scans: a
        # shorter one fails the stage that reads it, not the config
        root = tmp_path / "ws"
        config_path = build_toy_workspace(root, n=30, s=1)
        code = main(
            ["pipeline", "--config", str(config_path), "--out", str(tmp_path / "o")]
        )
        captured = capsys.readouterr()
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        statuses = {k: v["status"] for k, v in manifest["stages"].items()}
        assert statuses["cvlme"] == (
            f"failed: ConfigError: {(root / 'Y_s1.csv').resolve()}: "
            "single-session split needs at least 40 scans, got 30"
        )
        assert statuses["cvlme"] in captured.err
        for stage in ("anc", "lfe", "bma"):
            assert statuses[stage] == "skipped: dependency 'cvlme' did not succeed"
        assert statuses["bms"] == statuses["ep"] == "ok"
        assert "Traceback" not in captured.out + captured.err
        assert code == 4


class TestFailureHandling:
    def test_missing_input_files_preflighted(self, workspace, tmp_path):
        config = load_config(workspace)
        ghost = dict(config.raw)
        ghost["data"] = ["nope_1.csv", "nope_2.csv"]
        path = tmp_path / "ghost.json"
        path.write_text(json.dumps(ghost))
        with pytest.raises(ConfigError, match="nope_1.csv"):
            run(path, tmp_path / "out", ["cvlme"])
    def test_missing_family_block_fails_before_any_stage(self, tmp_path):
        config_path = build_toy_workspace(
            tmp_path / "ws", with_families=False, with_group=False
        )
        with pytest.raises(ConfigError, match="stage 'lfe' needs a 'families' block"):
            run(config_path, tmp_path / "out", ["cvlme", "lfe"])
        assert not (tmp_path / "out").exists()

    def test_dependents_skipped(self, tmp_path):
        config_path = build_toy_workspace(tmp_path / "ws", with_group=True)
        config = load_config(config_path)
        # sabotage the group inputs after validation
        (tmp_path / "ws" / "sub0_cvLME.csv").write_text("1,2\nbad,4\n")
        manifest = run_pipeline(
            config, ["bms", "ep"], RunOptions(out_dir=tmp_path / "out")
        )
        assert manifest["stages"]["bms"]["status"].startswith("failed")
        assert manifest["stages"]["ep"]["status"].startswith("skipped")
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_program_fault_is_an_internal_error_with_traceback(
        self, workspace, tmp_path, monkeypatch
    ):
        def broken(*args):
            return 1 / 0

        monkeypatch.setitem(evidencer.pipeline._STAGE_FUNCTIONS, "cvlme", broken)
        manifest = run(workspace, tmp_path / "out", STAGES)
        cvlme = manifest["stages"]["cvlme"]
        assert cvlme["status"] == "failed: internal error: ZeroDivisionError: division by zero"
        assert cvlme["outputs"] == []
        assert all(isinstance(line, str) for line in cvlme["traceback"])
        assert cvlme["traceback"][0] == "Traceback (most recent call last):"
        assert cvlme["traceback"][-1] == "ZeroDivisionError: division by zero"
        for stage in ("anc", "lfe", "bma"):
            assert manifest["stages"][stage] == {
                "status": "skipped: dependency 'cvlme' did not succeed",
                "outputs": [],
            }
        assert manifest["stages"]["bms"]["status"] == "ok"
        assert manifest["stages"]["ep"]["status"] == "ok"
        written = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert written["stages"]["cvlme"] == cvlme

    def test_input_fault_keeps_its_status_without_traceback(self, tmp_path):
        config_path = build_toy_workspace(tmp_path / "ws", with_group=False)
        design = load_matrix(tmp_path / "ws" / "X2_s1.csv").values
        design[:, 1] = design[:, 0]  # a duplicated column: rank-deficient
        save_matrix(tmp_path / "ws" / "X2_s1.csv", design)
        manifest = run(config_path, tmp_path / "out", ["cvlme"])
        cvlme = manifest["stages"]["cvlme"]
        assert cvlme["status"].startswith("failed: EstimationError: model 'm2', session 1")
        assert set(cvlme) == {"status", "outputs"}

    def test_self_reference_adds_dependency(self, tmp_path):
        config_path = build_toy_workspace(
            tmp_path / "ws",
            extra_config={
                "subjects": [
                    {"name": "me", "cvlme": "@self"},
                    {"name": "sub0", "cvlme": "sub0_cvLME.csv"},
                    {"name": "sub1", "cvlme": "sub1_cvLME.csv"},
                ]
            },
        )
        manifest = run(config_path, tmp_path / "out", ["bms"])
        assert manifest["stages"]["cvlme"]["status"] == "ok"
        assert manifest["stages"]["bms"]["status"] == "ok"
        assert manifest["subject_names"] == ["me", "sub0", "sub1"]


@pytest.fixture(scope="module", params=[12, 9000], ids=lambda v: f"{v}voxels")
def voxel_workspace(request, tmp_path_factory):
    """The toy workspace at 12 voxels, and at 9,000, which is three bms and
    ep chunks."""
    return build_toy_workspace(tmp_path_factory.mktemp("voxels"), v=request.param)


def _cli_run(config_path, out, threads=1) -> tuple:
    """Run every stage through the command line; the result files' bytes
    by name, the manifest's parsed."""
    args = ["pipeline", "--config", str(config_path), "--out", str(out)]
    assert main([*args, "--threads", str(threads)]) == 0
    files = {p.name: p.read_bytes() for p in out.glob("*.csv") if p.name != "timings.csv"}
    return files, json.loads((out / "manifest.json").read_text())


def _rows(text: bytes) -> tuple:
    header, *rows = text.splitlines()
    return header, [row.split(b",") for row in rows]


class TestDeterminism:
    def test_reruns_byte_identical_across_threads(self, workspace, tmp_path):
        outputs = []
        for label, threads in (("a", 1), ("b", 1), ("c", 4)):
            run(workspace, tmp_path / label, STAGES, threads=threads)
            outputs.append(tmp_path / label)
        names = sorted(
            p.name for p in outputs[0].iterdir() if p.name != "timings.csv"
        )
        assert "manifest.json" in names and "EP.csv" in names
        for name in names:
            reference = (outputs[0] / name).read_bytes()
            assert (outputs[1] / name).read_bytes() == reference
            assert (outputs[2] / name).read_bytes() == reference

    def test_voxel_permutation_permutes_every_result_cell(self, voxel_workspace, tmp_path):
        # permuting the voxel columns of every response, estimate and
        # subject file permutes the cells of every result file, byte for
        # byte, under the same header, at any --threads count
        base, manifest = _cli_run(voxel_workspace, tmp_path / "base")
        config = json.loads(voxel_workspace.read_text())
        root = tmp_path / "permuted"
        shutil.copytree(voxel_workspace.parent, root)
        voxel_files = [
            *config["data"],
            *(f for row in config["betas"]["files"] for f in row),
            *(s["cvlme"] for s in config["subjects"]),
        ]
        voxels = load_matrix(root / config["data"][0]).values.shape[1]
        perm = np.random.default_rng(5).permutation(voxels)
        for name in voxel_files:
            save_matrix(root / name, load_matrix(root / name).values[:, perm])
        assert len(base) == 15
        for threads in (1, 2):
            found, found_manifest = _cli_run(
                root / "config.json", tmp_path / f"t{threads}", threads
            )
            assert found_manifest == manifest
            assert found.keys() == base.keys()
            for name, text in base.items():
                header, rows = _rows(text)
                permuted = [[row[i] for i in perm] for row in rows]
                assert _rows(found[name]) == (header, permuted), name

    def test_model_order_reverses_first_level_rows(self, voxel_workspace, tmp_path):
        # reversing the config's two models and its estimate rows reverses
        # the rows of every first-level result file, byte for byte; LFE's
        # rows are families, which keep their order
        base, manifest = _cli_run(voxel_workspace, tmp_path / "base")
        config = json.loads(voxel_workspace.read_text())
        config["models"].reverse()
        config["betas"]["files"].reverse()
        reversed_path = voxel_workspace.parent / f"reversed_{tmp_path.name}.json"
        reversed_path.write_text(json.dumps(config))
        found, _ = _cli_run(reversed_path, tmp_path / "reversed")
        first_level = [
            name
            for stage in ("cvlme", "anc", "lfe", "bma")
            for name in manifest["stages"][stage]["outputs"]
        ]
        assert len(first_level) == 12
        for name in first_level:
            header, rows = _rows(base[name])
            if manifest["tables"][name]["rows"] == ["m1", "m2"]:
                rows.reverse()
            assert _rows(found[name]) == (header, rows), name

    def test_integral_float_max_iter_gives_the_integer_bytes(self, workspace, tmp_path):
        runs = []
        for value in (200, 200.0):
            config = {**json.loads(workspace.read_text()), "vb_max_iter": value}
            path = workspace.parent / f"max_iter_{value!r}_{tmp_path.name}.json"
            path.write_text(json.dumps(config))
            files, manifest = _cli_run(path, tmp_path / repr(value))
            del manifest["config_sha256"]
            runs.append((files, manifest))
        assert runs[1] == runs[0]
        assert runs[0][1]["options"]["vb_max_iter"] == 200

    @pytest.mark.parametrize(
        "s, n, block",
        [(2, 24, {"kind": "multi"}), (1, 60, {"kind": "single", "scans": 60})],
        ids=["multi", "single"],
    )
    def test_sessions_block_of_older_configs_is_ignored(self, tmp_path, s, n, block):
        # the response files fix the folds; the block changes only the hash
        without = build_toy_workspace(tmp_path / "ws", n=n, s=s)
        with_block = tmp_path / "ws" / "with_block.json"
        config = json.loads(without.read_text())
        with_block.write_text(json.dumps({**config, "sessions": block}))
        run(without, tmp_path / "a", STAGES)
        run(with_block, tmp_path / "b", STAGES)
        a, b = tmp_path / "a", tmp_path / "b"
        names = {p.name for p in a.iterdir()}
        assert names == {p.name for p in b.iterdir()}
        for name in names - {"manifest.json", "timings.csv"}:
            assert (a / name).read_bytes() == (b / name).read_bytes()
        manifests = [json.loads((d / "manifest.json").read_text()) for d in (a, b)]
        assert manifests[0]["stages"]["cvlme"]["status"] == "ok"
        assert manifests[0]["sizes"]["folds"] == 2
        hashes = [m.pop("config_sha256") for m in manifests]
        assert hashes[0] != hashes[1]
        assert manifests[0] == manifests[1]

    @pytest.mark.parametrize("single", [False, True], ids=["multi", "single"])
    @pytest.mark.parametrize("precision_kind", ["identity", "diagonal", "full"])
    def test_stage_tables_equal_the_spec_path(self, tmp_path, precision_kind, single):
        # the stage's statistics, formed session by session, give the bits
        # of cv_lme_models on specs of the same arrays
        n, s = (60, 1) if single else (24, 3)
        extra = {}
        if precision_kind != "identity":
            extra["precision"] = [f"P_s{i}.csv" for i in range(1, s + 1)]
        root = tmp_path / "ws"
        config_path = build_toy_workspace(
            root, n=n, s=s, with_group=False, with_betas=False, extra_config=extra
        )
        rng = np.random.default_rng(8)
        precisions = [random_precision(rng, n, precision_kind) for _ in range(s)]
        for i, precision in enumerate(precisions, 1):
            if precision is not None:
                save_matrix(root / f"P_s{i}.csv", np.atleast_2d(precision))
        manifest = run(config_path, tmp_path / "out", ["cvlme", "anc"])
        assert manifest["stages"]["anc"]["status"] == "ok"

        config = load_config(config_path)
        layout = split_single_session(n) if single else SessionLayout.from_counts([n] * s)
        models = {}
        for model in config.models:
            specs = [
                GlmSpec(
                    Y=load_matrix(root / y).values,
                    X=load_matrix(root / x).values,
                    precision=precision,
                )
                for y, x, precision in zip(config.data, model["design"], precisions)
            ]
            models[model["name"]] = split_glm_spec(specs[0], layout) if single else specs
        expected = cv_lme_models(models, layout)
        out = tmp_path / "out"
        for term in ("LME", "Acc", "Com"):
            written = load_matrix(out / f"cv{term}.csv").values
            np.testing.assert_array_equal(written, getattr(expected, f"cv_{term.lower()}"))
            for fold, oos in enumerate(getattr(expected, f"oos_{term.lower()}"), 1):
                written = load_matrix(out / f"oos{term}_fold{fold}.csv").values
                np.testing.assert_array_equal(written, oos)

    def test_bms_outputs_chunk_and_thread_invariant(
        self, workspace, tmp_path, monkeypatch
    ):
        outputs = []
        for chunk in (1, 7, 12):
            monkeypatch.setattr(evidencer.pipeline, "_CHUNK_VOXELS", chunk)
            for threads in (1, 2):
                out = tmp_path / f"out{chunk}_{threads}"
                manifest = run(workspace, out, ["bms"], threads=threads)
                assert manifest["sizes"]["chunks"] == -(-12 // chunk)
                outputs.append(out)
        for name in ("alpha.csv", "expected_freq.csv"):
            reference = (outputs[0] / name).read_bytes()
            for out in outputs[1:]:
                assert (out / name).read_bytes() == reference

    def test_chunked_equals_unchunked(self, workspace, tmp_path, monkeypatch):
        run(workspace, tmp_path / "plain", ["bms", "ep"])
        monkeypatch.setattr(evidencer.pipeline, "_CHUNK_VOXELS", 5)
        manifest = run(workspace, tmp_path / "chunked", ["bms", "ep"], threads=3)
        assert manifest["sizes"]["chunks"] > 1
        for name in ("alpha.csv", "EP.csv"):
            assert (tmp_path / "chunked" / name).read_bytes() == (
                tmp_path / "plain" / name
            ).read_bytes()

    def test_ep_failure_names_the_same_column_at_any_chunk_and_thread_count(
        self, workspace, tmp_path, monkeypatch
    ):
        # the bms stage hands on concentrations whose column 5,000 never
        # stabilizes; every chunking names it by its column in the matrix
        alpha = np.random.default_rng(5).uniform(1.0, 9.0, size=(2, 6000))
        alpha[:, 5000] = [1e9, 1.001e9]
        table = ResultTable("alpha", ("m1", "m2"), alpha)
        monkeypatch.setitem(
            evidencer.pipeline._STAGE_FUNCTIONS,
            "bms",
            lambda config, options, group: _StageResult({}, product=table),
        )
        statuses = set()
        for chunk in (5, 4096):
            monkeypatch.setattr(evidencer.pipeline, "_CHUNK_VOXELS", chunk)
            for threads in (1, 2):
                out = tmp_path / f"out{chunk}_{threads}"
                manifest = run(workspace, out, ["ep"], threads=threads)
                statuses.add(manifest["stages"]["ep"]["status"])
        assert statuses == {
            "failed: NumericalError: exceedance integration did not stabilize to "
            "1e-08 within 16385 nodes for concentrations [1000000000.0, "
            "1001000000.0] (first at input column 5001)"
        }

    def test_old_chunk_voxels_key_is_ignored(self, workspace, tmp_path):
        old = build_toy_workspace(tmp_path / "ws", extra_config={"chunk_voxels": 5})
        manifest = run(old, tmp_path / "old", ["bms", "ep"])
        assert manifest["sizes"]["chunks"] == 1
        assert "chunk_voxels" not in manifest["options"]
        run(workspace, tmp_path / "plain", ["bms", "ep"])
        for name in ("alpha.csv", "EP.csv"):
            assert (tmp_path / "old" / name).read_bytes() == (
                tmp_path / "plain" / name
            ).read_bytes()


class TestCli:
    def test_cvlme_subcommand(self, workspace, tmp_path, capsys):
        code = main(
            ["cvlme", "--config", str(workspace), "--out", str(tmp_path / "o")]
        )
        assert code == 0
        assert "cvlme: ok" in capsys.readouterr().out
        assert (tmp_path / "o" / "cvLME.csv").exists()

    def test_pipeline_auto_stages(self, workspace, tmp_path):
        code = main(
            [
                "pipeline",
                "--config",
                str(workspace),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert all(
            entry["status"] == "ok" for entry in manifest["stages"].values()
        )
        assert set(manifest["stages"]) == {
            "cvlme", "anc", "lfe", "bms", "ep", "bma",
        }

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code = main(["cvlme", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        [["--seed", "1"], ["--samples", "20000"], ["--ep-method", "integration"]],
        ids=lambda flag: flag[0],
    )
    def test_removed_ep_flags_exit_2(self, workspace, tmp_path, capsys, flag):
        # EPs have one method, integration, which draws no random numbers
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exited:
            main(["pipeline", "--config", str(workspace), "--out", str(out), *flag])
        assert exited.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "patch, named",
        [
            ({"vb_max_iter": 10**30}, "vb_max_iter"),
            ({"data": "Y_s1.csv"}, "data"),
            ({"model_prior": ["a", 1.0]}, "model_prior"),
            (
                {
                    "models": [{"name": "m1", "design": []}, {"name": "m2", "design": []}],
                    "data": [],
                },
                "data must list at least one response file",
            ),
            ({"models": 5}, "models"),
            ({"subjects": [{"name": "s1", "cvlme": ["x.csv"]}]}, "cvlme"),
            ({"families": {"f": 5}}, "families"),
            ({"betas": {"files": [1, 2]}}, "betas.files"),
            (
                {
                    "models": [
                        {"name": ["a"], "design": ["X1_s1.csv", "X1_s2.csv"]},
                        {"name": "m2", "design": ["X2_s1.csv", "X2_s2.csv"]},
                    ]
                },
                "model name",
            ),
            ({"subjects": [{"name": {"a": 1}, "cvlme": "x.csv"}]}, "subject name"),
            ({"family_weights": {"simple": "abc"}}, "family_weights"),
            ({"model_prior": ["0.5", "0.5"]}, "model_prior"),
            ({"model_prior": [True, False]}, "model_prior"),
            ({"model_prior": ["nan", "nan"]}, "model_prior"),
            (
                {"data": ["Y_s1.csv"]},
                "model 'm1' needs one design file per session (1 expected, 2 given)",
            ),
            ({"vb_max_iter": 2.5}, "vb_max_iter"),
            ({"vb_tol": 0}, "vb_tol"),
            ({"alpha0": "1"}, "alpha0"),
            ({"precision": ["Y_s1.csv"]}, "precision must be 'identity' or one file per"),
            # errors the config alone shows exit 2 on loading, not 3 from a stage
            (
                {
                    "models": [
                        {"name": "m1", "design": ["X1_s1.csv"]},
                        {"name": "m2", "design": ["X2_s1.csv"]},
                    ],
                    "data": ["Y_s1.csv"],
                },
                "betas.files rows need one file per session (1)",
            ),
            (
                {"subjects": [{"name": "s1", "cvlme": "@self"}]},
                "subjects: a group analysis needs at least two, got 1",
            ),
            (
                {"families": {"simple": ["m1"], "rich": ["m2"], "none": []}},
                "families: family 'none' is empty",
            ),
            (
                {"families": {"simple": ["m1"], "rich": ["m2", "m3"]}},
                "families entry 'rich' must be a JSON list of model names",
            ),
            (
                {"families": {"simple": ["m1"], "rich": ["m2", "m1"]}},
                "families: families must partition the model space",
            ),
            (
                {
                    "subjects": [
                        {"name": "s", "cvlme": "sub0_cvLME.csv"},
                        {"name": "s", "cvlme": "sub1_cvLME.csv"},
                    ]
                },
                "subject names must be unique",
            ),
            ({"alpha0": 1e-310}, "alpha0 must be a finite positive number >= 2.2"),
            # the regressor names a result file, BMA_<regressor>.csv
            *(
                ({"betas": {"regressor": name, "files": _BETA_FILES}}, "betas.regressor")
                for name in ("", "a/b", "a\\b", "a\0b")
            ),
        ],
    )
    def test_malformed_config_field_exit_code(self, tmp_path, capsys, patch, named):
        config_path = build_toy_workspace(tmp_path / "ws", extra_config=patch)
        code = main(
            ["pipeline", "--config", str(config_path), "--out", str(tmp_path / "o")]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert named in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert not (tmp_path / "o").exists()

    @seed(20180712)
    @settings(max_examples=60, deadline=None, database=None)
    @given(data=st.data())
    def test_fuzzed_config_value_never_escapes(self, fuzz_workspace, data):
        root, base = fuzz_workspace
        path = data.draw(st.sampled_from(_config_paths(base)), label="path")
        value = data.draw(st.sampled_from(_FUZZ_VALUES), label="value")
        config = copy.deepcopy(base)
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        config_path = root / "fuzzed.json"
        config_path.write_text(json.dumps(config))
        out = root / "out"
        shutil.rmtree(out, ignore_errors=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["pipeline", "--config", str(config_path), "--out", str(out)])
        err = stderr.getvalue()
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in stdout.getvalue() + err
        assert "internal error" not in err
        if code == 2:  # the message names the key, or the file name given
            names = (path[0], path[0].rstrip("s"), value if isinstance(value, str) else None)
            assert any(n and n in err for n in names), err

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_mutated_input_csv_never_escapes(self, csv_fuzz_workspace, data):
        config_path, texts = csv_fuzz_workspace
        name = data.draw(st.sampled_from(sorted(texts)), label="file")
        lines = texts[name].splitlines(keepends=True)
        line = data.draw(st.integers(0, len(lines) - 1), label="line")
        cells = lines[line].rstrip("\n").split(",")
        cell = data.draw(st.none() | st.integers(0, len(cells) - 1), label="cell")
        value = data.draw(st.sampled_from(_CSV_FUZZ_VALUES), label="value")
        if cell is None:
            lines[line] = value + "\n"
        else:
            cells[cell] = value
            lines[line] = ",".join(cells) + "\n"
        path = config_path.parent / name
        out = config_path.parent / "out"
        shutil.rmtree(out, ignore_errors=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            path.write_text("".join(lines))
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(["pipeline", "--config", str(config_path), "--out", str(out)])
        finally:
            path.write_text(texts[name])
        err = stderr.getvalue()
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err
        assert "internal error" not in stdout.getvalue() + err
        if code != 0:
            assert name in err, err

    @pytest.mark.parametrize(
        "argv, group_only, named",
        [
            (["cvlme"], True, "stage 'cvlme' needs a 'models' block"),
            (["lfe"], True, "stage 'cvlme' needs a 'models' block"),
            (["pipeline", "--stages", "bma"], True, "stage 'cvlme' needs a 'models' block"),
            (["lfe"], False, "stage 'lfe' needs a 'families' block"),
        ],
    )
    def test_stage_without_its_config_block_exit_code(
        self, tmp_path, capsys, argv, group_only, named
    ):
        config_path = build_toy_workspace(
            tmp_path / "ws",
            with_families=False,
            with_betas=not group_only,
            extra_config={"models": [], "data": []} if group_only else None,
        )
        out = tmp_path / "o"
        code = main([*argv, "--config", str(config_path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert named in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "target, row, column, line, value",
        [
            ("Y_s1.csv", 2, 1, 3, np.nan),
            ("X2_s2.csv", 5, 0, 6, np.inf),
            ("P_s2.csv", 0, 4, 1, -np.inf),
            ("sub3_cvLME.csv", 1, 7, 2, np.nan),
            ("beta_m2_s1.csv", 0, 5, 1, np.inf),
        ],
    )
    def test_nonfinite_input_cell_names_file(
        self, tmp_path, capsys, target, row, column, line, value
    ):
        root = tmp_path / "ws"
        config_path = build_toy_workspace(
            root, extra_config={"precision": ["P_s1.csv", "P_s2.csv"]}
        )
        for s in (1, 2):
            save_matrix(root / f"P_s{s}.csv", np.ones((1, 24)))
        path = root / target
        values = load_matrix(path).values
        values[row, column] = value
        save_matrix(path, values)
        code = main(
            ["pipeline", "--config", str(config_path), "--out", str(tmp_path / "o")]
        )
        captured = capsys.readouterr()
        named = f"{path.resolve()}, line {line}, column {column + 1}: non-finite"
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        stage = {"sub": "bms", "bet": "bma"}.get(target[:3], "cvlme")
        status = manifest["stages"][stage]["status"]
        assert status.startswith("failed: ParseError") and named in status
        assert named in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert code == 4

    def test_output_under_a_file_exits_before_any_stage(self, workspace, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        out = blocker / "res"
        code = main(["cvlme", "--config", str(workspace), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"config error: cannot create output directory {out}:" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert captured.out == ""  # no stage reported a status
        assert blocker.read_text() == "a file, not a directory\n"

    def test_unwritable_result_names_the_file(self, workspace, tmp_path, capsys):
        out = tmp_path / "o"
        (out / "cvLME.csv").mkdir(parents=True)
        code = main(["cvlme", "--config", str(workspace), "--out", str(out)])
        captured = capsys.readouterr()
        cvlme = json.loads((out / "manifest.json").read_text())["stages"]["cvlme"]
        assert cvlme == {
            "status": f"failed: EvidencerError: cannot write {out / 'cvLME.csv'}: Is a directory",
            "outputs": [],
        }
        assert "Traceback" not in captured.out + captured.err
        assert code == 3

    @pytest.mark.parametrize("name", ["manifest.json", "timings.csv"])
    def test_unwritable_run_file_exits_2(self, workspace, tmp_path, capsys, name):
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        code = main(["cvlme", "--config", str(workspace), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"config error: cannot write {out / name}: Is a directory" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert (out / "cvLME.csv").is_file()  # the result files already written stay

    @pytest.mark.parametrize(
        "target, keep, stage",
        [
            ("Y_s1.csv", np.s_[:-1], "cvlme"),  # one scan short of its designs
            ("Y_s2.csv", np.s_[:, :-1], "cvlme"),  # one voxel short of session 1
            ("sub0_cvLME.csv", np.s_[:-1], "bms"),  # one model short of the others
        ],
    )
    def test_input_of_the_wrong_shape_names_file(self, tmp_path, capsys, target, keep, stage):
        root = tmp_path / "ws"
        config_path = build_toy_workspace(root)
        save_matrix(root / target, load_matrix(root / target).values[keep])
        assert main(
            ["pipeline", "--config", str(config_path), "--out", str(tmp_path / "o")]
        ) == 4
        captured = capsys.readouterr()
        status = json.loads((tmp_path / "o" / "manifest.json").read_text())["stages"][stage]
        assert status["status"].startswith("failed") and target in status["status"]
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("with_self", [False, True], ids=["files", "self"])
    def test_one_model_group_names_the_subject_files(self, tmp_path, capsys, with_self):
        root = tmp_path / "ws"
        extra = None
        named = [f"sub{i}_cvLME.csv" for i in range(5)]
        if with_self:
            named = ["@self", "sub0_cvLME.csv", "sub1_cvLME.csv"]
            extra = {
                "models": [{"name": "m1", "design": ["X1_s1.csv", "X1_s2.csv"]}],
                "subjects": [{"name": f"s{i}", "cvlme": c} for i, c in enumerate(named)],
            }
        config_path = build_toy_workspace(
            root, with_betas=False, with_families=False, extra_config=extra
        )
        for i in range(5):
            path = root / f"sub{i}_cvLME.csv"
            save_matrix(path, load_matrix(path).values[:1])
        out = tmp_path / "o"
        code = main(["pipeline", "--config", str(config_path), "--out", str(out)])
        captured = capsys.readouterr()
        stages = json.loads((out / "manifest.json").read_text())["stages"]
        assert stages["bms"]["status"] == (
            "failed: ConfigError: group analysis needs at least two models, but the "
            f"subjects' evidence files hold one row each: {', '.join(named)}"
        )
        assert stages["ep"]["status"] == "skipped: dependency 'bms' did not succeed"
        assert "Traceback" not in captured.out + captured.err
        assert code == 4  # the cvlme stage succeeds

    def test_overflowing_response_names_session_and_voxel(self, tmp_path, capsys):
        # every cell is finite, so the loader accepts the file; the column's
        # y'Py overflows in the statistics pass
        root = tmp_path / "ws"
        config_path = build_toy_workspace(root)
        values = load_matrix(root / "Y_s2.csv").values
        values[:, 3] *= 1e160
        save_matrix(root / "Y_s2.csv", values)
        code = main(
            ["pipeline", "--config", str(config_path), "--out", str(tmp_path / "o")]
        )
        captured = capsys.readouterr()
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        status = manifest["stages"]["cvlme"]["status"]
        assert status.startswith(
            "failed: DomainError: session 2: y'Py is not finite at 1 voxel(s), "
            "first at voxel v4;"
        )
        assert status in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert code == 4

    @pytest.mark.parametrize("with_precision", [False, True], ids=["identity", "full"])
    def test_rejected_design_names_model_session_and_files(
        self, tmp_path, capsys, with_precision
    ):
        root = tmp_path / "ws"
        extra = {"precision": ["P_s1.csv", "P_s2.csv"]} if with_precision else None
        config_path = build_toy_workspace(root, extra_config=extra)
        for s in (1, 2):
            save_matrix(root / f"P_s{s}.csv", 2.0 * np.eye(24))
        design = load_matrix(root / "X2_s2.csv").values
        design[:, 1] = design[:, 0]  # a duplicated column: rank-deficient
        save_matrix(root / "X2_s2.csv", design)
        code = main(
            ["pipeline", "--config", str(config_path), "--out", str(tmp_path / "o")]
        )
        captured = capsys.readouterr()
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        status = manifest["stages"]["cvlme"]["status"]
        # the precision was checked where it was read: a design fault names
        # the design and the response alone
        named = f"model 'm2', session 2, design {(root / 'X2_s2.csv').resolve()}"
        assert status.startswith(f"failed: EstimationError: {named}: design matrix")
        assert status.endswith(f"(response {(root / 'Y_s2.csv').resolve()})")
        assert status in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert code == 4

    def test_short_design_names_model_session_and_file(self, tmp_path, capsys):
        root = tmp_path / "ws"
        config_path = build_toy_workspace(root)
        design = load_matrix(root / "X2_s2.csv").values
        save_matrix(root / "X2_s2.csv", design[:-2])
        code = main(
            ["pipeline", "--config", str(config_path), "--out", str(tmp_path / "o")]
        )
        captured = capsys.readouterr()
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        status = manifest["stages"]["cvlme"]["status"]
        named = f"model 'm2', session 2, design {(root / 'X2_s2.csv').resolve()}"
        assert status.startswith(f"failed: DomainError: {named}: Y has 24 scans")
        assert status in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert code == 4

    @staticmethod
    def _failed_cvlme(config_path, out, capsys) -> str:
        """Run the pipeline; the cvlme stage's status, after checking that it
        failed alone (its dependents skipped, exit 4) without a traceback."""
        code = main(["pipeline", "--config", str(config_path), "--out", str(out)])
        captured = capsys.readouterr()
        stages = json.loads((out / "manifest.json").read_text())["stages"]
        assert code == 4
        assert stages["bms"]["status"] == stages["ep"]["status"] == "ok"
        for stage in ("anc", "lfe", "bma"):
            assert stages[stage]["status"] == "skipped: dependency 'cvlme' did not succeed"
        assert stages["cvlme"]["status"] in captured.err
        assert "Traceback" not in captured.out + captured.err
        return stages["cvlme"]["status"]

    def test_responses_disagreeing_on_voxels_name_both_files(self, tmp_path, capsys):
        root = tmp_path / "ws"
        config_path = build_toy_workspace(root)
        save_matrix(root / "Y_s2.csv", load_matrix(root / "Y_s2.csv").values[:, :-1])
        assert self._failed_cvlme(config_path, tmp_path / "o", capsys) == (
            "failed: ConfigError: response files disagree on voxel count: "
            "Y_s2.csv has 11, Y_s1.csv 12"
        )

    def test_exact_fit_names_the_response_files(self, tmp_path, capsys):
        # voxel v1 is constant in every session, so a failed update sees
        # statistics only; the stage adds the files they came from
        root = tmp_path / "ws"
        config_path = build_toy_workspace(root)
        for s in (1, 2):
            y = load_matrix(root / f"Y_s{s}.csv").values
            y[:, 0] = 100.0
            save_matrix(root / f"Y_s{s}.csv", y)
        status = self._failed_cvlme(config_path, tmp_path / "o", capsys)
        assert status.startswith("failed: EstimationError: model 'm1', ")
        assert "posterior rate b is non-positive at 1 voxel(s), first at voxel v1;" in status
        files = ", ".join(str((root / f"Y_s{s}.csv").resolve()) for s in (1, 2))
        assert status.endswith(f" (response files {files})")

    def test_design_widening_in_session_2_names_model_session_and_file(
        self, tmp_path, capsys
    ):
        root = tmp_path / "ws"
        config_path = build_toy_workspace(root)
        design = load_matrix(root / "X1_s2.csv").values
        save_matrix(root / "X1_s2.csv", np.hstack([design, np.arange(24.0)[:, None]]))
        status = self._failed_cvlme(config_path, tmp_path / "o", capsys)
        named = f"model 'm1', session 2, design {(root / 'X1_s2.csv').resolve()}"
        assert status.startswith(
            f"failed: DomainError: {named}: design has 3 columns, session 1's 2"
        )

    def test_indefinite_precision_names_its_file(self, tmp_path, capsys):
        root = tmp_path / "ws"
        config_path = build_toy_workspace(
            root, extra_config={"precision": ["P_s1.csv", "P_s2.csv"]}
        )
        save_matrix(root / "P_s1.csv", 2.0 * np.eye(24))
        save_matrix(root / "P_s2.csv", np.diag([-1.0] + [1.0] * 23))
        status = self._failed_cvlme(config_path, tmp_path / "o", capsys)
        named = f"session 2, precision {(root / 'P_s2.csv').resolve()}"
        assert status.startswith(
            f"failed: DecompositionError: {named}: precision is not positive definite"
        )

    def test_cross_half_asymmetric_precision_names_its_file(self, tmp_path, capsys):
        # a single response's halves see only their diagonal blocks of the
        # precision; the stage checks the whole file where it reads it
        root = tmp_path / "ws"
        config_path = build_toy_workspace(
            root, n=60, s=1, extra_config={"precision": ["P_s1.csv"]}
        )
        precision = 2.0 * np.eye(60)
        precision[0, 59] = 0.5
        save_matrix(root / "P_s1.csv", precision)
        status = self._failed_cvlme(config_path, tmp_path / "o", capsys)
        named = f"session 1, precision {(root / 'P_s1.csv').resolve()}"
        assert status.startswith(f"failed: DomainError: {named}: precision must be symmetric")

    def test_only_stage_failed_exit_code(self, tmp_path, capsys):
        root = tmp_path / "ws"
        config_path = build_toy_workspace(root)
        design = load_matrix(root / "X2_s1.csv").values
        design[:, 1] = design[:, 0]  # a duplicated column: rank-deficient
        save_matrix(root / "X2_s1.csv", design)
        code = main(["cvlme", "--config", str(config_path), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert "stage cvlme failed: EstimationError" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert code == 3

    @pytest.mark.parametrize(
        "patch, named",
        [
            ({"model_prior": [-1, 0.5]}, "model_prior weights must be finite and >= 0"),
            ({"model_prior": [0.25, 0.25]}, "model_prior weights must sum to 1"),
            (
                {"family_weights": {"simple": [2.5], "rich": [1.0]}},
                "family_weights entry 'simple' weights must sum to 1",
            ),
            (
                {
                    "families": {"all": ["m1", "m2"]},
                    "family_weights": {"all": [1.5, -0.5]},
                },
                "family_weights entry 'all' weights must be finite and >= 0",
            ),
        ],
    )
    def test_bad_prior_weights_exit_before_any_stage(self, tmp_path, capsys, patch, named):
        config_path = build_toy_workspace(tmp_path / "ws", extra_config=patch)
        out = tmp_path / "o"
        code = main(["pipeline", "--config", str(config_path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"config error: {named}" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert not out.exists()

    def test_family_weights_through_cli(self, tmp_path):
        config_path = build_toy_workspace(
            tmp_path / "ws",
            extra_config={
                "families": {"all": ["m1", "m2"]},
                "family_weights": {"all": [0.25, 0.75]},
            },
        )
        out = tmp_path / "o"
        code = main(["pipeline", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        lme = load_matrix(out / "cvLME.csv").values
        lfe = load_matrix(out / "LFE.csv")
        assert lfe.shape == (1, 12)
        expected = np.logaddexp(np.log(0.25) + lme[0], np.log(0.75) + lme[1])
        np.testing.assert_allclose(lfe.values[0], expected, rtol=0, atol=1e-12)

    def test_estimates_stored_one_voxel_per_row(self, tmp_path):
        root = tmp_path / "ws"
        config_path = build_toy_workspace(root)
        run(config_path, tmp_path / "rows", ["bma"])
        for name in ("m1", "m2"):
            for s in (1, 2):
                path = root / f"beta_{name}_s{s}.csv"
                save_matrix(path, load_matrix(path).values.T)
        manifest = run(config_path, tmp_path / "columns", ["bma"])
        assert manifest["stages"]["bma"]["status"] == "ok"
        for table in ("PP.csv", "BMA_task.csv"):
            assert (tmp_path / "columns" / table).read_bytes() == (
                tmp_path / "rows" / table
            ).read_bytes()

    def test_partial_failure_exit_code(self, tmp_path, capsys):
        config_path = build_toy_workspace(tmp_path / "ws", with_group=False)
        # cvlme succeeds; bma fails on a broken estimate file
        (tmp_path / "ws" / "beta_m1_s1.csv").write_text("oops\n")
        code = main(
            [
                "pipeline",
                "--config",
                str(config_path),
                "--stages",
                "cvlme,bma",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 4

    def test_all_failed_exit_code(self, tmp_path):
        config_path = build_toy_workspace(
            tmp_path / "ws", with_group=False, with_betas=True
        )
        # break the estimate inputs so only the bma stage can run and fails
        (tmp_path / "ws" / "beta_m1_s1.csv").write_text("oops\n")
        code = main(
            [
                "bma",
                "--config",
                str(config_path),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code in (3, 4)

    @pytest.mark.parametrize(
        "stages, named",
        [
            ("foo", "unknown stage 'foo'"),
            ("cvlme,foo", "unknown stage 'foo'"),
            (",", "--stages must name at least one stage"),
        ],
    )
    def test_bad_stage_list_exits_2(self, workspace, tmp_path, capsys, stages, named):
        out = tmp_path / "o"
        code = main(
            ["pipeline", "--config", str(workspace), "--stages", stages, "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert named in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert not out.exists()

    def test_estimate_file_of_the_wrong_width_fails_bma_naming_it(self, tmp_path, capsys):
        root = tmp_path / "ws"
        config_path = build_toy_workspace(root, with_group=False)
        save_matrix(root / "beta_m2_s1.csv", load_matrix(root / "beta_m2_s1.csv").values[:, :-1])
        argv = ["pipeline", "--config", str(config_path), "--stages", "cvlme,bma"]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 4
        captured = capsys.readouterr()
        stages = json.loads((tmp_path / "o" / "manifest.json").read_text())["stages"]
        assert stages["cvlme"]["status"] == "ok"
        assert stages["bma"]["status"].startswith("failed")
        assert "'beta_m2_s1.csv' does not hold one value per voxel" in stages["bma"]["status"]
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("value", ["0", "-1", "auto", "1.5"])
    def test_threads_must_be_positive_integer(self, workspace, tmp_path, value):
        argv = ["cvlme", "--config", str(workspace), "--out", str(tmp_path / "o")]
        try:
            code = main(argv + ["--threads", value])
        except SystemExit as exc:  # argparse rejects a non-integer
            code = exc.code
        assert code == 2

    @pytest.mark.parametrize("threads", [2.5, True, np.True_, 0, "2", None])
    def test_run_options_take_an_integral_thread_count(self, tmp_path, threads):
        with pytest.raises(ConfigError, match="^threads must be an integer >= 1, got"):
            RunOptions(out_dir=tmp_path, threads=threads)

    @pytest.mark.parametrize("threads", [2, 2.0, np.int64(2)])
    def test_run_options_hold_the_thread_count_as_an_int(self, tmp_path, threads):
        assert type(RunOptions(out_dir=tmp_path, threads=threads).threads) is int

    def test_group_subcommand(self, workspace, tmp_path):
        code = main(
            [
                "bms-group",
                "--config",
                str(workspace),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 0
        alpha = load_matrix(tmp_path / "o" / "alpha.csv").values
        assert alpha.shape == (2, 12)
        # concentration mass equals models * alpha0 + subjects
        np.testing.assert_allclose(alpha.sum(axis=0), 2 * 1.0 + 5, atol=1e-8)
