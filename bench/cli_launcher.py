"""Run the crfactor command line, as ``python3 -m crfactor.cli`` would.

Usage: python3 bench/cli_launcher.py COMMAND [ARGS...]

With the environment variable CRFACTOR_BENCH_TRACE set to a file path, the
run is traced: the import of ``crfactor.cli`` becomes a ``cli.import`` span,
the package's public functions are wrapped (see tracing.py), and the spans
and counts are written to that file as JSON when the command ends.
"""

import os
import sys
import time


def main() -> int:
    start = time.perf_counter()
    import crfactor.cli

    end = time.perf_counter()
    out = os.environ.get("CRFACTOR_BENCH_TRACE")
    if not out:
        return crfactor.cli.main(sys.argv[1:])

    import tracing

    tracer = tracing.Tracer()
    tracer.begin_request("cli")
    tracer.add_span("cli.import", start, end)
    tracer.install()
    try:
        return crfactor.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
