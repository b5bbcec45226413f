"""Run the eprmux command line with layer tracing on.

Usage: ``python3 perfbench/cli_traced.py STATS_JSON SUBCOMMAND [ARGS...]``

Behaves like the ``eprmux`` command (same stdout, stderr and exit code) and
writes the tracer's figures to STATS_JSON.  The traced run of the ``cli``
workload starts its subprocesses through this file.
"""

import json
import sys

import eprmux.cli
from tracer import LayerTracer


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = LayerTracer()
    tracer.install()
    tracer.enabled = True
    code = eprmux.cli.main(argv)
    tracer.enabled = False
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
