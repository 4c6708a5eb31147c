"""Timed command-line child: ``cli_child.py PEAK_OUT <evidencer arguments>``.

Runs evidencer's command line in this process, as ``python -m
evidencer.cli`` does, and writes the process's own peak resident set in
bytes to PEAK_OUT when it ends. The parent cannot take that number from
``os.wait4``: a child's ``ru_maxrss`` also holds the parent's peak at the
time of the fork, and the benchmark process is larger than some children.
"""

from __future__ import annotations

import sys
from pathlib import Path


def peak_rss_bytes() -> int:
    """High-water resident set of this process (``VmHWM``), in bytes."""
    for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(peak_out: str, argv: list) -> int:
    from evidencer import cli

    try:
        return cli.main(argv)
    finally:
        Path(peak_out).write_text(str(peak_rss_bytes()), encoding="ascii")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
