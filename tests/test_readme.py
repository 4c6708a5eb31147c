"""The README's library quick start runs as written."""

import re
from pathlib import Path

import numpy as np

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
