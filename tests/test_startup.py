"""Start-up cost: ``scipy.special`` loads only for the group stages.

The first-level stages need ln Gamma and psi only at scalar Gamma shapes,
which the standard library evaluates, so importing the package or its
command line and running cvlme, anc, lfe and bma must leave
``scipy.special`` unimported (about 0.35 s of every such run). Each check
runs in a fresh interpreter, since this test process has imported scipy
long before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import build_toy_workspace

import evidencer

_SRC = str(Path(evidencer.__file__).resolve().parent.parent)

# prints whether scipy.special is loaded after each import, then after
# each run of the command line on the given argument lists
_PROBE = """
import json, sys
loaded = lambda: "scipy.special" in sys.modules
import evidencer
seen = [loaded()]
from evidencer import cli
seen.append(loaded())
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    seen.append((code, loaded()))
print(json.dumps(seen))
"""


def _probe(runs) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(runs)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def toy_config(tmp_path_factory):
    return build_toy_workspace(tmp_path_factory.mktemp("startup"))


def test_imports_leave_scipy_special_unloaded():
    assert _probe([]) == [False, False]


def test_first_level_stages_leave_scipy_special_unloaded(toy_config, tmp_path):
    first_level = [
        "pipeline", "--config", str(toy_config), "--out", str(tmp_path / "o"),
        "--stages", "cvlme,anc,lfe,bma",
    ]
    group = [
        "pipeline", "--config", str(toy_config), "--out", str(tmp_path / "g"),
        "--stages", "bms",
    ]
    assert _probe([first_level, group]) == [False, False, [0, False], [0, True]]
