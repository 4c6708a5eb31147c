"""The README's library quick start runs as written, its command-line
synopsis lists the parser's options, and its configuration example loads."""

import argparse
import re
from pathlib import Path

import numpy as np

from evidencer.cli import build_parser
from evidencer.dataio import load_config

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The one ``python`` code block of the "Library quick start" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    return block


def test_library_quick_start_runs():
    namespace = {}
    exec(compile(quick_start(), str(README), "exec"), namespace)
    result, pp, lme = namespace["result"], namespace["pp"], namespace["lme"]
    assert result.model_names == ("narrow", "wide")
    assert result.cv_lme.shape == (2, 100)
    result.validate()
    np.testing.assert_allclose(pp.pp.sum(axis=0), 1.0, rtol=0, atol=1e-12)
    assert lme.shape == (100,) and np.all(np.isfinite(lme))


def synopsis() -> dict:
    """The long options of each line of the "Command line" synopsis, by the
    line's subcommand (``<subcommand>`` for every stage's)."""
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## Command line\n", 1)[1].split("```\n", 2)[1]
    return {
        line.split()[1]: set(re.findall(r"--[a-z-]+", line))
        for line in block.splitlines()
    }


def test_command_line_synopsis_lists_the_parser_options():
    (commands,) = (
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    options = {
        name: {o for a in sub._actions for o in a.option_strings if o.startswith("--")}
        - {"--help"}
        for name, sub in commands.choices.items()
    }
    lines = synopsis()
    assert set(lines) == {"<subcommand>", "pipeline"}
    assert lines["pipeline"] == options.pop("pipeline")
    assert all(stage == lines["<subcommand>"] for stage in options.values())


def test_configuration_example_loads(tmp_path):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n### Configuration schema\n", 1)[1].split("\n### ", 1)[0]
    (block,) = re.findall(r"```jsonc\n(.*?)```", section, flags=re.S)
    path = tmp_path / "config.json"
    path.write_text(re.sub(r"//.*", "", block), encoding="utf-8")
    config = load_config(path)
    assert config.families.names == ("simple", "rich")
    assert list(config.families.weights[1]) == [1.0]
    assert config.data == ("Y_s1.csv", "Y_s2.csv")
    assert config.betas["regressor"] == "task"
