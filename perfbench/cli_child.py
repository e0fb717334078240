"""Traced stand-in for ``python -m schmidt.cli``, for one paper-cli operation.

    python3 -X importtime perfbench/cli_child.py SPANS_FILE -- CLI_ARGS...

Imports the package inside a span, wraps its public functions as
``tracing.instrument`` does, runs ``schmidt.cli.main(CLI_ARGS)`` and writes
the spans and counters to SPANS_FILE, whatever the exit code.
"""

import json
import sys

from tracing import Tracer, instrument


def main() -> int:
    spans_path, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: cli_child.py SPANS_FILE -- CLI_ARGS...")
    tracer = Tracer()
    tracer.begin_op()
    code = 1
    try:
        with tracer.span("import.schmidt"):
            import schmidt.cli
        instrument(tracer)
        with tracer.span("cli.main"):
            code = schmidt.cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.ops[0], "counts": dict(tracer.counts),
                       "eigen_residual_max": tracer.eigen_residual_max}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
