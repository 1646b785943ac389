"""Shared helpers for the reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper: it runs the
relevant experiment (timed via pytest-benchmark), prints the rows/series
the paper reports, and asserts the paper's qualitative *shape* (who wins,
by roughly what factor, where crossovers fall).
"""

import json
import os

import numpy as np
import pytest

from repro.cli import _print_table as print_table  # noqa: F401 (re-exported)

# Machine-readable perf records: BENCH file name -> record name -> payload.
# Each file is written at session end so the kernel-level perf
# trajectories (sweep engine, telemetry overhead, pipeline, serving,
# energy models, ECC, workloads) are tracked across PRs.
_RECORDS = {}


def record(bench_file, name, payload):
    """Register one benchmark's metrics as record ``name`` of the
    session's ``bench_file`` (e.g. ``"BENCH_sweep.json"``)."""
    _RECORDS.setdefault(bench_file, {})[name] = payload


def validate_bench_schema(records, filename):
    """Cross-PR contract for every ``BENCH_*.json``: perf numbers are
    meaningless without the machine context and the headline ratio.

    * ``_meta.cpu_count`` must record the core count the numbers were
      measured on.
    * At least one record field must be a ``speedup`` ratio, and every
      such field must be finite and ``> 0`` (a zero/NaN speedup means the
      benchmark silently failed to measure).
    """
    meta = records.get("_meta")
    assert isinstance(meta, dict) and isinstance(meta.get("cpu_count"), int), (
        f"{filename}: missing _meta.cpu_count (machine context)"
    )
    assert meta["cpu_count"] >= 1, f"{filename}: cpu_count must be >= 1"
    speedups = [
        (f"{name}.{key}", value)
        for name, payload in records.items()
        if name != "_meta" and isinstance(payload, dict)
        for key, value in payload.items()
        if "speedup" in key
    ]
    assert speedups, f"{filename}: no speedup field in any record"
    for field, value in speedups:
        assert (
            isinstance(value, (int, float))
            and np.isfinite(value)
            and value > 0
        ), f"{filename}: {field} = {value!r} is not a positive finite ratio"


def _dump(records, filename):
    records = dict(records)
    records["_meta"] = {"cpu_count": os.cpu_count() or 1}
    validate_bench_schema(records, filename)
    path = os.path.join(os.path.dirname(__file__), filename)
    with open(path, "w") as fh:
        json.dump(records, fh, indent=2, sort_keys=True)
    print(f"\nwrote {path}")


def pytest_sessionstart(session):
    """Committed BENCH files are part of the schema contract too: catch a
    stale or hand-edited file before a run quietly re-publishes it."""
    bench_dir = os.path.dirname(__file__)
    for filename in sorted(os.listdir(bench_dir)):
        if filename.startswith("BENCH_") and filename.endswith(".json"):
            with open(os.path.join(bench_dir, filename)) as fh:
                try:
                    validate_bench_schema(json.load(fh), filename)
                except AssertionError as exc:
                    raise pytest.UsageError(
                        f"committed benchmark record violates the BENCH "
                        f"schema — regenerate it with a full benchmark "
                        f"run: {exc}"
                    ) from None


def pytest_sessionfinish(session, exitstatus):
    for bench_file, records in _RECORDS.items():
        _dump(records, bench_file)


@pytest.fixture
def run_once(benchmark):
    """Benchmark an expensive experiment exactly once and return its
    result (pytest-benchmark's auto-calibration would re-run heavy
    workloads dozens of times)."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(
            fn, args=args, kwargs=kwargs, rounds=1, iterations=1
        )

    return _run
