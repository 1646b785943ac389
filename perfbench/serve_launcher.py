"""Server process for the ``serve-mixed`` workload.

    python -m perfbench.serve_launcher [--trace-out T] -- <cimflow serve args>

Runs ``repro.cli.main(["serve", ...])`` until SIGINT or SIGTERM.  With
``--trace-out`` it first installs the span tracer, and on the way out
writes every span to ``T`` and to ``T.counts.json`` the tracer's counts
as they stood at each ``stats`` request, in order, so the benchmark can
take the counts between two of them.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import List, Optional

from perfbench.common import ensure_program


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]
    ensure_program()
    from repro import cli

    def _terminate(signum, frame):
        raise SystemExit(0)     # runs the finally below, unlike the default

    # ``cimflow serve`` shuts down cleanly on KeyboardInterrupt; a process
    # started in the background may have inherited SIGINT as ignored.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, _terminate)
    if not args.trace_out:
        return cli.main(["serve", *serve_args])

    from perfbench.layers import POINTS
    from perfbench.spans import Tracer, write_spans

    from repro.serve import SimulationService  # binds names before the rebinding scan

    # Each protocol request is a root span here, not ``cli.main``.
    tracer = Tracer()
    tracer.install([p for p in POINTS if p.layer != "cli"])
    at_stats = []
    handle_stats = SimulationService._handle_stats

    async def _handle_stats(self, params):
        at_stats.append(dict(tracer.counts))
        return await handle_stats(self, params)

    SimulationService._handle_stats = _handle_stats
    try:
        return cli.main(["serve", *serve_args])
    finally:
        spans, _ = tracer.take()
        write_spans(args.trace_out, spans)
        with open(f"{args.trace_out}.counts.json", "w") as fh:
            json.dump(at_stats, fh)


if __name__ == "__main__":
    sys.exit(main())
