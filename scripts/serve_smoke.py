#!/usr/bin/env python
"""End-to-end smoke test for the serving layer, run by CI.

Starts a real ``cimflow serve`` process on an ephemeral port, submits an
inference request and a yield sweep over the socket, then re-submits the
identical sweep and asserts the second response is a results-cache hit
that is bit-identical to the cold one — the serving layer's core
contract, exercised through the same process boundary users cross.  A
training sweep run on a 2-process pool must report the energy its pool
workers charged, and the same request without ``workers`` must be a
results-cache hit (the worker count changes neither result nor
report).  A request that fails must come back as a structured
``bad_request`` and be counted in ``stats``: every admitted request is
completed, rejected, failed or in flight.

Exits non-zero (with a message on stderr) on any violation.
"""

import json
import os
import re
import subprocess
import sys

sys.path.insert(0, "src")

from repro.serve import ServeClient  # noqa: E402

# Small enough to train in seconds on a CI runner, big enough to exercise
# the tiled LU path (wire_resistance > 0) the batcher relies on.
MODEL = {
    "n_samples": 120,
    "n_features": 16,
    "n_classes": 4,
    "hidden": [8],
    "epochs": 4,
    "wire_resistance": 1.0,
}
SWEEP = {"yields": [1.0, 0.8], "trials": 1, "epochs": 4, "n_samples": 120}
TRAIN = {"lives": [8.0], "drift_nus": [0.0, 0.01], "epochs": 2}

READY_RE = re.compile(r"listening on ([\d.]+):(\d+)")


def fail(message):
    print(f"serve_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    try:
        ready = proc.stdout.readline()
        match = READY_RE.search(ready)
        if match is None:
            fail(f"server did not report a listening address: {ready!r}")
        host, port = match.group(1), int(match.group(2))
        print(f"serve_smoke: server up on {host}:{port}")

        with ServeClient(host, port, timeout=600) as client:
            infer = client.request(
                "infer", {"model": MODEL, "x": [[0.1] * MODEL["n_features"]]}
            )
            if not infer.get("ok"):
                fail(f"inference failed: {infer.get('error')}")
            if len(infer["result"]["prediction"]) != 1:
                fail(f"unexpected inference result: {infer['result']}")
            print(
                "serve_smoke: infer ok, prediction="
                f"{infer['result']['prediction']}"
            )

            cold = client.request("sweep", SWEEP)
            if not cold.get("ok"):
                fail(f"cold sweep failed: {cold.get('error')}")
            if cold["cache"] != "miss":
                fail(f"cold sweep should be a cache miss, got {cold['cache']}")
            print(f"serve_smoke: cold sweep ok ({len(cold['result'])} rows)")

            warm = client.request("sweep", SWEEP)
            if not warm.get("ok"):
                fail(f"warm sweep failed: {warm.get('error')}")
            if warm["cache"] != "hit":
                fail(
                    "identical re-submitted sweep must be a results-cache "
                    f"hit, got {warm['cache']}"
                )
            # Bit-identical means byte-identical canonical JSON: result
            # AND the conservation-validated report.
            for field in ("result", "report"):
                if json.dumps(cold[field], sort_keys=True) != json.dumps(
                    warm[field], sort_keys=True
                ):
                    fail(f"warm sweep {field} differs from cold response")
            print("serve_smoke: warm sweep is a bit-identical cache hit")

            pooled = client.request("train", {**TRAIN, "workers": 2})
            if not pooled.get("ok"):
                fail(f"pooled train failed: {pooled.get('error')}")
            energy = pooled["report"]["totals"]["energy"]
            if not energy > 0:
                fail(f"pooled train report lost its workers' energy: {energy}")
            again = client.request("train", TRAIN)
            if again.get("cache") != "hit":
                fail(
                    "train without workers must hit the pooled run's cache "
                    f"entry, got {again.get('cache')}"
                )
            print(f"serve_smoke: pooled train charged {energy:.3e} J")

            bad = client.request("sweep", {**SWEEP, "trials": 0})
            if bad.get("ok") or bad["error"]["code"] != "bad_request":
                fail(f"invalid sweep should be a bad_request, got {bad}")
            print("serve_smoke: invalid sweep is a structured bad_request")

            stats = client.request("stats")
            result = stats["result"]
            cache = result["results_cache"]
            if cache["request_hits"] < 1:
                fail(f"stats report no results-cache hits: {cache}")
            accounted = (
                result["requests_completed"]
                + result["requests_rejected"]
                + sum(result["requests_failed"].values())
                + result["inflight"]
            )
            if result["requests_failed"] != {"bad_request": 1} or (
                accounted != result["requests_total"]
            ):
                fail(f"stats do not account for every request: {result}")
            print(f"serve_smoke: PASS (results cache: {cache})")
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    main()
