"""Self-tests of the benchmark harness (not of the program).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time

import numpy as np
import pytest

from perfbench.common import (
    SRC,
    canonical,
    digest,
    job_seed,
    percentile,
    samples_beyond,
    tail_percentile,
)
from perfbench.spans import Point, Span, Tracer, layer_self_times, self_times

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from perfbench import serve_mixed as sm  # noqa: E402


# ------------------------------------------------------------- tail rule
@pytest.mark.parametrize("n", [1000, 1200, 5000])
def test_tail_is_p99_when_ten_samples_lie_beyond(n):
    q = tail_percentile(n)
    assert q == 99.0
    assert samples_beyond(n, q) >= 10


@pytest.mark.parametrize("n", [200, 500, 999])
def test_tail_is_highest_percentile_with_ten_beyond(n):
    q = tail_percentile(n)
    assert q < 99.0
    assert samples_beyond(n, q) == 10
    assert samples_beyond(n, q + 0.01) < 10


def test_tail_never_below_floor():
    assert tail_percentile(14) == 90.0
    assert samples_beyond(14, 90.0) < 10


def test_percentile_interpolates():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile([5.0], 99) == 5.0


# ------------------------------------------------------------- self time
def _span(sid, parent, start, end, layer="x"):
    return Span(sid, parent, 1, layer, f"s{sid}", start, end)


def test_self_time_nested_and_overlapping_children():
    spans = [
        _span(1, None, 0.0, 10.0, "root"),
        _span(2, 1, 1.0, 4.0, "a"),
        _span(3, 1, 3.0, 6.0, "b"),      # overlaps its sibling: counted once
        _span(4, 2, 2.0, 3.0, "c"),      # grandchild: only its parent's
        _span(5, 1, 9.0, 12.0, "d"),     # runs past its parent: clipped
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(3.0)
    per_layer = layer_self_times(spans)
    assert per_layer == pytest.approx(
        {"root": 4.0, "a": 2.0, "b": 3.0, "c": 1.0, "d": 3.0}
    )


def test_tracer_records_parents_and_restores_originals():
    import repro.faults.injection as injection
    import repro.faults.sweeps  # noqa: F401  (imports names from injection)
    from repro.crossbar.mapping import InputEncoder

    original = injection.yield_to_fault_rate
    original_amp = InputEncoder.amplitude
    tracer = Tracer()
    tracer.install([
        Point("repro.faults.injection:yield_to_fault_rate", "faults.inject"),
        Point("repro.crossbar.mapping:InputEncoder.amplitude", None, {"amp": None}),
    ])
    try:
        assert injection.yield_to_fault_rate is not original
        assert injection.yield_to_fault_rate(0.9) == original(0.9)
        InputEncoder().amplitude(np.zeros(3))
    finally:
        tracer.uninstall()
    assert injection.yield_to_fault_rate is original
    assert InputEncoder.amplitude is original_amp
    spans, counts = tracer.take()
    assert [s.layer for s in spans] == ["faults.inject"]
    assert spans[0].parent is None and spans[0].request == spans[0].id
    assert counts == {"amp": 1.0}


# ----------------------------------------------------- open-loop lateness
class _StubServer:
    """Echoes an ok response per request line, sleeping ``stall`` s before
    answering request ``stall_id`` (and so delaying every later one)."""

    def __init__(self, stall_id: int, stall: float) -> None:
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(1)
        self.port = self.sock.getsockname()[1]
        self.stall_id, self.stall = stall_id, stall
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        conn, _ = self.sock.accept()
        with conn, conn.makefile("rb") as rf:
            for line in rf:
                req = json.loads(line)
                if req["id"] == self.stall_id:
                    time.sleep(self.stall)
                resp = {"id": req["id"], "ok": True, "kind": req["kind"]}
                conn.sendall((json.dumps(resp) + "\n").encode())

    def close(self) -> None:
        self.sock.close()
        self.thread.join(timeout=5)


def _schedule(n: int, gap: float):
    reqs = [sm.Req(i + 1, i * gap, "infer", 0) for i in range(n)]
    for r in reqs:
        r.line = (json.dumps({"id": r.id, "kind": "infer", "params": {}}) + "\n").encode()
    return reqs


def test_server_stall_raises_latency_of_later_requests():
    stub = _StubServer(stall_id=10, stall=0.3)
    conn = sm.Connection("127.0.0.1", stub.port)
    try:
        res = sm.run_phase(conn, _schedule(30, 0.01), drain_timeout=10)
    finally:
        conn.close()
        stub.close()
    assert res.complete
    before = [res.latency[i] for i in range(1, 10)]
    after = [res.latency[i] for i in range(10, 15)]
    assert max(before) < 0.1
    # Requests due during the stall wait for it: at least stall - (due gap).
    assert min(after) >= 0.3 - 0.05 - 1e-3


def test_generator_stall_counts_from_due_time():
    stub = _StubServer(stall_id=-1, stall=0.0)
    conn = sm.Connection("127.0.0.1", stub.port)
    real_send = conn.send
    calls = []

    def slow_send(line):
        calls.append(line)
        if len(calls) == 5:
            time.sleep(0.3)          # the generator itself falls behind
        real_send(line)

    conn.send = slow_send
    try:
        res = sm.run_phase(conn, _schedule(20, 0.01), drain_timeout=10)
    finally:
        conn.close()
        stub.close()
    # Request 6 was due 0.01 s after request 5 but could only go out after
    # the 0.3 s stall: its latency and lateness both show the stall.
    assert res.latency[6] >= 0.25
    assert max(res.lateness()) >= 0.25


# ----------------------------------------------------------------- digests
def _valid_report():
    from repro.utils.telemetry import RunReport

    return RunReport(label="infer").to_dict()


def test_digest_check_flags_one_ulp():
    result = {"logits": [[0.125, -1.5]], "prediction": [0],
              "model_fingerprint": "f", "model_version": 0}
    checker = sm.Checker()
    checker.infer_table = [digest(canonical(result), sm.INFER_DIGEST_SIZE)]
    good = {"ok": True, "kind": "infer", "result": result, "report": _valid_report()}
    checker.response("infer", 0, good)
    assert checker.failed == 0
    nudged = json.loads(json.dumps(result))
    nudged["logits"][0][1] = float(np.nextafter(-1.5, 0.0))
    checker.seen.clear()
    checker.response("infer", 0, {**good, "result": nudged})
    assert checker.failed == 1


def test_repeat_check_flags_changed_output_without_digest():
    checker = sm.Checker()
    checker.infer_table = []
    report = _valid_report()
    a = {"ok": True, "result": {"logits": [[1.0]]}, "report": report}
    b = {"ok": True, "result": {"logits": [[float(np.nextafter(1.0, 2.0))]]}, "report": report}
    checker.response("infer", 5, a)
    checker.response("infer", 5, a)
    assert checker.failed == 0
    checker.response("infer", 5, b)
    assert checker.failed == 1


def test_invalid_report_and_refusal_are_failures():
    checker = sm.Checker()
    bad = _valid_report()
    bad["categories"] = {
        "adc": {"energy": -1.0, "latency": 0.0, "data_moved": 0.0},
        "array": {"energy": 2.0, "latency": 0.0, "data_moved": 0.0},
    }
    checker.response("sweep", 999, {"ok": True, "result": {}, "report": bad})
    checker.response("infer", 1, {"ok": False, "error": {"code": "queue_full"}})
    checker.response("infer", 2, None)
    assert checker.failed == 3


# -------------------------------------------------------------------- seed
def test_seed_changes_generated_inputs():
    a1 = sm.Inputs(1).phase(100.0, 2.0)
    a2 = sm.Inputs(1).phase(100.0, 2.0)
    b = sm.Inputs(2).phase(100.0, 2.0)
    assert [r.line for r in a1] == [r.line for r in a2]
    assert [r.due for r in a1] == [r.due for r in a2]
    assert [r.line for r in a1] != [r.line for r in b]
    assert [job_seed(1, i) for i in range(5)] != [job_seed(2, i) for i in range(5)]


def test_fresh_inputs_never_repeat_within_a_run():
    inputs = sm.Inputs(3)
    keys = [r.key for r in inputs.phase(400.0, 5.0) if r.kind == "infer" and not r.pooled]
    assert len(keys) == len(set(keys))
    assert all(sm.POOL <= k < sm.UNIVERSE for k in keys)


# -------------------------------------------------------------- saturation
def test_saturated_throughput_matches_a_known_service_rate():
    from types import SimpleNamespace

    class _Slow(_StubServer):
        def _serve(self):
            conn, _ = self.sock.accept()
            with conn, conn.makefile("rb") as rf:
                for line in rf:
                    time.sleep(0.005)        # one request at a time: 200/s
                    req = json.loads(line)
                    conn.sendall((json.dumps({"id": req["id"], "ok": True}) + "\n").encode())

    stub = _Slow(stall_id=-1, stall=0.0)
    server = SimpleNamespace(conn=sm.Connection("127.0.0.1", stub.port), account=lambda r: None)
    try:
        rate, n = sm._saturated_chunk(server, sm.Inputs(0), sm.Checker(), 1.0)
    finally:
        server.conn.close()
        stub.close()
    assert 140 < rate < 205
    assert n > 100


# ------------------------------------------------- BENCHMARK.json, exit code
def test_benchmark_json_matches_reported_metrics():
    from perfbench.common import ROOT
    from perfbench.layers import PER_LAYER
    from perfbench.run import END_TO_END, WORKLOADS

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
    assert next(m for m in doc["end_to_end"] if m["name"] == "setup_s")["bound"] == max(
        m["bound"] for m in doc["end_to_end"]
    )


def test_exits_nonzero_without_the_program(tmp_path):
    import shutil
    import subprocess

    from perfbench.common import BENCH_DIR, ROOT

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dnn-read", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert out.returncode == 2
    assert out.stdout == ""
