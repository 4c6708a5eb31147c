"""Fixed reference work that measures how fast the host runs right now.

The benchmark shares a few cores of a host whose other tenants change its
throughput: on a two-vCPU Intel Xeon VM at 2.0 GHz the same group-ep run
took 2.3 s in one minute and 3.9 s three minutes later, and the import
time of a fresh interpreter moved with it. No run length averages out
swings that last minutes, so each run times this reference between its
iterations and scales each iteration's time by ``NOMINAL_S`` over the mean
of the two passes around it (``run.py``). The reference imports nothing
from the program, so a change to the program cannot move it.

Its three parts follow the kinds of work the workloads do: formatting and
parsing ``%.16e`` text (CSV input and output), special functions over a
cache-resident vector (evidences, VB and EP), and in-place passes over a
4 MB array (voxel arrays). It runs single-threaded and allocates nothing
large while it runs, so its time does not depend on what the allocator
holds from the work before it; its arrays add 8 MB to the resident set of
the process that runs it.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import special

# Close to the reference's median on the VM named above, so scaled times
# read near the raw ones there; any fixed value would do.
NOMINAL_S = 0.35

_ROWS = np.random.default_rng(20180704).normal(size=(40, 100)).tolist()
_VECTOR = np.linspace(0.5, 20.0, 20_000)
_STREAM = np.linspace(0.0, 1.0, 500_000)
_STREAM_OUT = np.empty_like(_STREAM)


def reference_seconds() -> float:
    """Wall seconds of one pass of the fixed reference work."""
    start = time.perf_counter()
    for _ in range(20):
        text = "\n".join(",".join("%.16e" % x for x in row) for row in _ROWS)
        sum(float(cell) for line in text.splitlines() for cell in line.split(","))
    for _ in range(120):
        special.gammaln(_VECTOR).sum()
        special.digamma(_VECTOR).sum()
        np.exp(-_VECTOR).sum()
    for _ in range(64):
        np.multiply(_STREAM, 1.5, out=_STREAM_OUT)
        np.add(_STREAM_OUT, 1.0, out=_STREAM_OUT)
        np.sqrt(_STREAM_OUT, out=_STREAM_OUT).sum()
    return time.perf_counter() - start
