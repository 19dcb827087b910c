"""The package CLI with the span tracer installed, for traced cli_figures runs.

Usage mirrors ``python -m mpscollision.cli``; spans and counters are written
to ``spans.npz`` in the working directory when the command ends.
"""

import common

import sys
from pathlib import Path


def main(argv) -> int:
    common.use_checkout_source()
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    from mpscollision import cli

    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.counters.end_job()
        tracing.save_spans(Path("spans.npz"), tracer.spans())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
