"""Record the output digests the benchmark checks against.

Run once on the commit whose outputs are the reference, from the root of
a checkout::

    python3 -m perfbench.record_digests

Writes ``perfbench/digests/batch.json`` (every batch job kind at each of
the ``N_JOB_SEEDS`` committed job seeds), ``serve_infer.txt`` (the
``result`` of an ``infer`` request for each vector of the serve input
universe) and ``serve_sweep.json`` (``result`` and ``report`` of a
``sweep`` request at each committed seed).  A speed-only change must
leave every one of them unchanged.
"""

from __future__ import annotations

import json
import sys

from perfbench.common import DIGEST_DIR, N_JOB_SEEDS, ensure_program


def record_batch() -> None:
    from perfbench.batch import KINDS, JobRunner

    runner = JobRunner(digests={})
    table = {}
    for kind in KINDS:
        table[kind] = {}
        for seed in range(N_JOB_SEEDS):
            _, got, _ = runner.output(kind, seed, 0)
            table[kind][str(seed)] = got
        # The sweep engine promises bit-identity across worker counts.
        _, pooled, _ = runner.output(kind, 0, 2)
        if pooled != table[kind]["0"]:
            raise SystemExit(f"{kind}: output differs between --workers 0 and 2")
        print(f"{kind}: {N_JOB_SEEDS} digests", file=sys.stderr)
    with open(DIGEST_DIR / "batch.json", "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def record_serve() -> None:
    from perfbench.serve_mixed import (
        UNIVERSE,
        expected_infer_digests,
        expected_sweep_digest,
    )

    infer = expected_infer_digests(range(UNIVERSE))
    with open(DIGEST_DIR / "serve_infer.txt", "w") as fh:
        for lo in range(0, UNIVERSE, 16):
            fh.write(" ".join(infer[lo : lo + 16]) + "\n")
    sweep = {str(s): expected_sweep_digest(s) for s in range(N_JOB_SEEDS)}
    with open(DIGEST_DIR / "serve_sweep.json", "w") as fh:
        json.dump(sweep, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"serve: {UNIVERSE} infer + {N_JOB_SEEDS} sweep digests", file=sys.stderr)


def main() -> int:
    ensure_program()
    DIGEST_DIR.mkdir(exist_ok=True)
    record_batch()
    record_serve()
    return 0


if __name__ == "__main__":
    sys.exit(main())
