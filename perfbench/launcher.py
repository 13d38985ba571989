"""Run one fiberqed CLI invocation with layer spans recorded.

    python perfbench/launcher.py SPANS_JSON SUBCOMMAND [ARGS...]

Imports fiberqed.cli (recorded as an "import" span), wraps the layer
functions, runs fiberqed.cli.main under a "cli.<subcommand>" span, writes the
spans to SPANS_JSON and exits with main's exit code.  src/ must be on
PYTHONPATH.
"""

import json
import sys
from pathlib import Path

import tracing


def main() -> int:
    spans_file, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = tracing.Tracer()
    with tracer.span("import"):
        import fiberqed.cli
    try:
        with tracing.installed(tracer), tracer.span(f"cli.{argv[0]}"):
            return fiberqed.cli.main(argv)
    finally:
        spans_file.write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main())
