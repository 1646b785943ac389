"""Serving-layer perf gates: request coalescing and the results cache.

Three properties of ``repro.serve`` are load-bearing and gated here:

* **Coalescing pays.** 16 concurrent single-sample inference requests
  through the request batcher must finish >= 2x faster than the same 16
  requests one-at-a-time — the per-call overhead (layer walk, tile loop,
  LU back-substitution setup) amortizes across the stacked batch.
* **The results cache pays.** Re-submitting an identical sweep request
  must return >= 20x faster than the cold run — it is a canonical-JSON
  lookup, not a recomputation.
* **Neither changes answers.** Coalesced responses are bit-identical to
  one-at-a-time execution, and warm responses are bit-identical to cold
  ones.  Serving infrastructure must never alter results.

Numbers land in ``BENCH_serve.json`` so the serving-throughput trajectory
is tracked across PRs.
"""

import asyncio
import time

import numpy as np

from repro.serve import ServiceConfig, SimulationService

from conftest import print_table, record

# IR-drop-aware deployment: wire_resistance > 0 routes tile VMMs through
# the LU path, whose batched execution is row-independent (bit-identical
# demux).  Small tiles maximize the tile *count*, and the fixed per-tile
# per-call cost (sparse solve dispatch, conductance read, quantize/decode
# setup) is exactly what coalescing amortizes — the back-substitution
# itself is near-linear in RHS count, so a single huge tile would barely
# benefit.
_MODEL = {
    "n_samples": 160,
    "n_features": 64,
    "n_classes": 6,
    "hidden": [48, 48],
    "epochs": 6,
    "tile_rows": 16,
    "tile_cols": 16,
    "wire_resistance": 1.0,
}
_N_CONCURRENT = 24
_SWEEP = {"yields": [1.0, 0.8], "trials": 1, "epochs": 6, "n_samples": 160}


def _infer_request(x_row):
    return {"kind": "infer", "params": {"model": _MODEL, "x": [list(x_row)]}}


def _coalesced_service():
    # max_batch == the concurrent request count: the 16th arrival flushes
    # inline, so the window never adds latency to the measurement.
    return SimulationService(
        ServiceConfig(batch_window_s=1.0, max_batch=_N_CONCURRENT)
    )


def _sequential_service():
    return SimulationService(ServiceConfig(batch_window_s=0.0, max_batch=1))


async def _measure(rounds=3):
    """Best-of-rounds times for coalesced vs sequential inference plus the
    responses of the final round (for the bit-identity assertions)."""
    rng = np.random.default_rng(42)
    warmup = rng.uniform(0, 1, size=(1, _MODEL["n_features"]))
    batched_svc = _coalesced_service()
    serial_svc = _sequential_service()
    # Warm both services: model deployment + LU factorization are
    # artifact-cache effects, measured separately from coalescing.
    await batched_svc.submit(_infer_request(warmup[0]))
    await serial_svc.submit(_infer_request(warmup[0]))

    t_batched = t_serial = float("inf")
    batched = serial = None
    for rnd in range(rounds):
        # Fresh inputs per round so no request is a results-cache hit.
        xs = rng.uniform(0, 1, size=(_N_CONCURRENT, _MODEL["n_features"]))
        start = time.perf_counter()
        batched = await asyncio.gather(
            *[batched_svc.submit(_infer_request(x)) for x in xs]
        )
        t_batched = min(t_batched, time.perf_counter() - start)

        start = time.perf_counter()
        serial = [await serial_svc.submit(_infer_request(x)) for x in xs]
        t_serial = min(t_serial, time.perf_counter() - start)
    return t_batched, t_serial, batched, serial, batched_svc


async def _measure_results_cache():
    svc = SimulationService(ServiceConfig())
    start = time.perf_counter()
    cold = await svc.submit({"kind": "sweep", "params": _SWEEP})
    t_cold = time.perf_counter() - start
    t_warm = float("inf")
    warm = None
    for _ in range(5):
        start = time.perf_counter()
        warm = await svc.submit({"kind": "sweep", "params": _SWEEP})
        t_warm = min(t_warm, time.perf_counter() - start)
    return t_cold, t_warm, cold, warm


def test_coalesced_inference_at_least_2x(run_once):
    t_batched, t_serial, batched, serial, svc = run_once(
        lambda: asyncio.run(_measure())
    )
    speedup = t_serial / t_batched
    print_table(
        f"Coalesced vs one-at-a-time inference ({_N_CONCURRENT} concurrent)",
        [
            {
                "serial_ms": t_serial * 1e3,
                "coalesced_ms": t_batched * 1e3,
                "speedup": speedup,
                "gate": 2.0,
            }
        ],
    )
    record(
        "BENCH_serve.json",
        "coalesced_inference",
        {
            "concurrent_requests": _N_CONCURRENT,
            "model_features": _MODEL["n_features"],
            "serial_s": t_serial,
            "coalesced_s": t_batched,
            "speedup_coalesced": speedup,
            "gate": 2.0,
            "coalesced_flushes": svc.batcher.stats.coalesced_flushes,
            "max_batch_rows": svc.batcher.stats.max_batch_rows,
        },
    )
    # The batcher really coalesced (not 16 tiny flushes).
    assert svc.batcher.stats.max_batch_rows == _N_CONCURRENT
    assert speedup >= 2.0, (
        f"coalescing speedup {speedup:.2f}x below the 2x gate"
    )
    # Gate 3a: coalescing must not change a single bit of any answer.
    for b, s in zip(batched, serial):
        assert b["result"]["logits"] == s["result"]["logits"]
        assert b["result"]["prediction"] == s["result"]["prediction"]


def test_results_cache_at_least_20x(run_once):
    t_cold, t_warm, cold, warm = run_once(
        lambda: asyncio.run(_measure_results_cache())
    )
    speedup = t_cold / t_warm
    print_table(
        "Results cache: identical sweep request, cold vs warm",
        [
            {
                "cold_s": t_cold,
                "warm_ms": t_warm * 1e3,
                "speedup": speedup,
                "gate": 20.0,
            }
        ],
    )
    record(
        "BENCH_serve.json",
        "results_cache",
        {
            "sweep_points": len(_SWEEP["yields"]),
            "cold_s": t_cold,
            "warm_s": t_warm,
            "speedup_warm_cache": speedup,
            "gate": 20.0,
        },
    )
    assert cold["cache"] == "miss" and warm["cache"] == "hit"
    assert speedup >= 20.0, (
        f"warm-cache speedup {speedup:.1f}x below the 20x gate"
    )
    # Gate 3b: the warm response is bit-identical, result and report.
    assert warm["result"] == cold["result"]
    assert warm["report"] == cold["report"]
