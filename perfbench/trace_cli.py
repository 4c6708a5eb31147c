"""Traced command-line child: ``trace_cli.py TRACE_OUT <evidencer arguments>``.

Runs evidencer's command line in this process with the benchmark's span
hooks installed (``tracer.py``) and writes the spans to TRACE_OUT when it
ends. It imports nothing else, so it starts like an untraced
``python -m evidencer.cli`` and the difference in wall time is the tracing
overhead.
"""

from __future__ import annotations

import sys

import tracer


def main(trace_out: str, argv: list) -> int:
    recorder = tracer.Recorder()
    recorder.install(tracer.CLI_HOOKS)
    recorder.install_stages("evidencer.pipeline", "_STAGE_FUNCTIONS", "pipeline.stage.")
    from evidencer import cli

    try:
        return recorder.wrap("cli.main", cli.main)(argv)
    finally:
        recorder.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
