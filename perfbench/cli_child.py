"""`python -m fticalc` with the tracer installed, for traced cli-oneshot jobs.

    python perfbench/cli_child.py SPAN_FILE ARGS...

Runs fticalc.cli.main(ARGS) like `python -m fticalc ARGS`, then writes
the reduced spans of this process (per-callable calls and self time) to
SPAN_FILE as JSON, even when the command fails.
"""

import json
import sys

import tracer as tracing

import fticalc.cli


def main():
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install(tracing.layer_modules())
    tracer.enabled = True
    try:
        return fticalc.cli.main(argv)
    finally:
        tracer.enabled = False
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.reduce(), fh)


if __name__ == "__main__":
    sys.exit(main())
