"""Run one ``macresolve`` CLI command with the benchmark's spans installed.

Usage: ``python traced_cli.py SPANS_JSON -- CLI_ARGS...``.  The library must
be importable (``PYTHONPATH`` pointing at ``src``).  Spans are written to
SPANS_JSON when the command returns; the exit code is the command's.
"""

import sys

from tracing import Tracer, instrument


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON -- CLI_ARGS...")
    from macresolve import cli

    tracer = Tracer()
    instrument(tracer)
    rc = cli.main(argv)
    tracer.dump(spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(main())
