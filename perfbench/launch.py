"""Run the ``repro-bfq`` CLI in this process, optionally traced.

    python3 perfbench/launch.py [--trace-out SPANS.json] -- serve edges.csv ...

With ``--trace-out`` the span wrappers of ``spans.py`` are installed
before ``repro.cli.main`` runs, and the spans are written to the file
when ``main`` returns (the server is stopped with SIGINT, which both
``serve`` and ``cluster`` turn into a graceful shutdown).
"""

from __future__ import annotations

import sys

from common import use_program


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    use_program()
    tracer = None
    if trace_out is not None:
        from spans import Tracer, install

        tracer = install(Tracer())
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        if tracer is not None:
            tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
