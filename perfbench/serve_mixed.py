"""The ``serve-mixed`` workload: an open-loop generator against a real
``cimflow serve`` subprocess over one pipelined JSON-lines connection.

Traffic (all drawn from ``--seed``):

* ``infer`` requests arrive as a Poisson stream at ``RATE`` req/s on the
  IR-drop model ``MODEL``.  Each input is a vector of a fixed universe of
  ``UNIVERSE`` vectors: with probability ``REPEAT_SHARE`` one of the first
  ``POOL`` (so some requests hit the results cache), otherwise the next
  never-used vector of a seed-dependent walk through the rest.
* one ``sweep`` request with a fresh committed seed every
  ``SWEEP_EVERY`` seconds.
* after the main phase, chunks of ``SATURATION_S`` seconds of closed loop
  keeping ``SATURATION_DEPTH`` infer requests in flight measure the
  server's saturated infer throughput.

Latency is measured from each request's *due* time, so a stall that
delays later sends is charged to them.  Every response is checked: infer
``result`` against the committed per-vector digest (and against every
earlier response for the same vector), sweep ``result`` and ``report``
against the committed per-seed digest, and every ``report`` with
``RunReport.validate()``.  The server's ``stats`` counters must agree
with the generator's own counts.
"""

from __future__ import annotations

import json
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from perfbench.common import (
    DIGEST_DIR,
    OUT_DIR,
    ROOT,
    canonical,
    digest,
    host_slowdown,
    job_seed,
    load_json,
    median,
    percentile,
    read_line,
    subprocess_env,
    tail_percentile,
)

MODEL: Dict[str, Any] = {
    "n_features": 64,
    "hidden": [48, 48],
    "tile_rows": 16,
    "tile_cols": 16,
    "wire_resistance": 1.0,
}
UNIVERSE = 16384
POOL = 64
UNIVERSE_SEED = 20210201
#: Step through the non-pool vectors; coprime with UNIVERSE - POOL.
_WALK = 7919

#: The server's inference coalescing window (``cimflow serve --window``,
#: passed explicitly at its default).  It is a timer, not host work.
WINDOW_S = 0.005
#: Socket timeout, and the longest wait for the response to a request
#: sent with nothing else in flight.
REQUEST_TIMEOUT_S = 60.0

RATE = 100.0
REPEAT_SHARE = 0.25
SWEEP_EVERY = 1.5
#: Requests kept in flight in the saturation phase: 3 full batches of
#: ``cimflow serve``'s default ``--max-batch`` (16), under its default
#: admission bound (``--max-inflight`` 64).
SATURATION_DEPTH = 48
#: The host's speed flips within seconds, and each chunk is scaled by the
#: slowdown sampled at its two ends: the median of many short chunks reads
#: steadier than that of a few long ones.
SATURATION_S = 1.5

INFER_DIGEST_SIZE = 8


# ------------------------------------------------------------------ inputs
def universe_vector(k: int) -> List[float]:
    """Input vector ``k`` of the universe (independent of any seed)."""
    return np.random.default_rng([UNIVERSE_SEED, k]).standard_normal(
        MODEL["n_features"]
    ).tolist()


@dataclass
class Req:
    id: int
    due: float                  # seconds after the phase start
    kind: str                   # "infer" or "sweep"
    key: int                    # universe index or sweep seed
    pooled: bool = False
    line: bytes = b""


class Inputs:
    """The seed's request stream: arrival gaps, input choices and sweep
    seeds, continued across phases."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = np.random.default_rng([seed, 7])
        self._fresh = 0
        self._offset = (seed * 104729) % (UNIVERSE - POOL)
        self._sweeps = 0
        self._next_id = 0

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def vector_index(self) -> Tuple[int, bool]:
        if self.rng.random() < REPEAT_SHARE:
            return int(self.rng.integers(POOL)), True
        return self.fresh_index(), False

    def fresh_index(self) -> int:
        """The next never-used universe vector."""
        j = self._offset + self._fresh * _WALK
        self._fresh += 1
        return POOL + j % (UNIVERSE - POOL)

    def sweep_seed(self) -> int:
        """The next committed sweep seed (fresh within a run)."""
        self._sweeps += 1
        return job_seed(self.seed, self._sweeps - 1)

    def phase(self, rate: float, seconds: float) -> List[Req]:
        """Poisson infer arrivals at ``rate`` for ``seconds``, plus a sweep
        every ``SWEEP_EVERY`` s; sorted by due time."""
        reqs: List[Req] = []
        t = float(self.rng.exponential(1.0 / rate))
        while t < seconds:
            k, pooled = self.vector_index()
            reqs.append(Req(self.new_id(), t, "infer", k, pooled))
            t += float(self.rng.exponential(1.0 / rate))
        at = SWEEP_EVERY / 2
        while at < seconds:
            reqs.append(Req(self.new_id(), at, "sweep", self.sweep_seed()))
            at += SWEEP_EVERY
        reqs.sort(key=lambda r: r.due)
        for r in reqs:
            r.line = encode(r)
        return reqs


def encode(r: Req) -> bytes:
    if r.kind == "infer":
        params = {"x": [universe_vector(r.key)], "model": MODEL}
    else:
        params = {"seed": r.key}
    return (json.dumps({"id": r.id, "kind": r.kind, "params": params}) + "\n").encode()


# -------------------------------------------------------------- connection
class Connection:
    """One pipelined JSON-lines connection; a reader thread timestamps
    every response line as it arrives (parsing waits until after)."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=REQUEST_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.received: List[Tuple[float, bytes]] = []
        self.sent = 0
        self._cv = threading.Condition()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        fh = self.sock.makefile("rb")
        try:
            for line in fh:
                with self._cv:
                    self.received.append((time.perf_counter(), line))
                    self._cv.notify_all()
        except OSError:
            pass  # socket closed by close()
        finally:
            with self._cv:
                self._cv.notify_all()

    def send(self, line: bytes) -> None:
        self.sock.sendall(line)
        self.sent += 1

    def wait_for(self, count: int, timeout: float) -> bool:
        """Block until ``count`` responses have arrived in total."""
        deadline = time.monotonic() + timeout
        with self._cv:
            while len(self.received) < count:
                left = deadline - time.monotonic()
                if left <= 0 or not self._reader.is_alive():
                    return len(self.received) >= count
                self._cv.wait(left)
        return True

    def roundtrip(self, kind: str, params: Dict[str, Any], rid: int) -> Dict:
        """Send one request with nothing else in flight; return its response."""
        n = len(self.received)
        self.send((json.dumps({"id": rid, "kind": kind, "params": params}) + "\n").encode())
        if not self.wait_for(n + 1, REQUEST_TIMEOUT_S):
            raise TimeoutError(f"no response to {kind} within {REQUEST_TIMEOUT_S} s")
        return json.loads(self.received[n][1])

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self._reader.join(timeout=10)


@dataclass
class PhaseResult:
    reqs: List[Req]
    start: float                              # perf_counter at phase start
    sent_at: Dict[int, float]                 # id -> send offset (s)
    latency: Dict[int, float]                 # id -> seconds from due time
    responses: Dict[int, Dict]                # id -> parsed response
    complete: bool

    def latencies(self, kind: str) -> List[float]:
        return [self.latency[r.id] for r in self.reqs if r.kind == kind and r.id in self.latency]

    def lateness(self) -> List[float]:
        return [self.sent_at[r.id] - r.due for r in self.reqs if r.id in self.sent_at]


def run_phase(conn: Connection, reqs: Sequence[Req], drain_timeout: float = 90.0) -> PhaseResult:
    """Send ``reqs`` on schedule (open loop) and collect every response."""
    first = len(conn.received)
    sent_at: Dict[int, float] = {}
    start = time.perf_counter()
    for r in reqs:
        wait = start + r.due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        conn.send(r.line)
        sent_at[r.id] = time.perf_counter() - start
    complete = conn.wait_for(first + len(reqs), drain_timeout)
    got = conn.received[first:first + len(reqs)]
    by_due = {r.id: r.due for r in reqs}
    responses: Dict[int, Dict] = {}
    latency: Dict[int, float] = {}
    for t, line in got:
        resp = json.loads(line)
        rid = resp.get("id")
        if rid not in by_due:
            continue
        responses[rid] = resp
        latency[rid] = t - (start + by_due[rid])
    return PhaseResult(list(reqs), start, sent_at, latency, responses, complete)


# ------------------------------------------------------------------ server
class Server:
    """A ``cimflow serve --port 0`` subprocess started through the
    benchmark's launcher, with the generator's own request accounting."""

    def __init__(self, tag: str, trace: bool = False) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self.trace_path = OUT_DIR / f"spans-{tag}.tsv" if trace else None
        cmd = [sys.executable, "-m", "perfbench.serve_launcher"]
        if trace:
            cmd += ["--trace-out", str(self.trace_path)]
        cmd += ["--", "--port", "0", "--window", repr(WINDOW_S)]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=subprocess_env(), stdout=subprocess.PIPE,
        )
        self.conn: Optional[Connection] = None
        self.hits = 0
        self.infer_misses = 0
        self._rid = 0
        try:
            line = self._ready_line(60.0)
            host, port = line.rsplit(" ", 1)[-1].rsplit(":", 1)
            threading.Thread(target=self._drain, daemon=True).start()
            self.conn = Connection(host, int(port))
            first = self.request("infer", {"x": [universe_vector(0)], "model": MODEL})
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start
        self.first_response = first

    def _ready_line(self, timeout: float) -> str:
        line = read_line(self.proc.stdout, timeout)
        if b"listening on" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        return line.decode().strip()

    def _drain(self) -> None:
        for _ in self.proc.stdout:
            pass

    def next_id(self) -> int:
        self._rid -= 1          # negative ids never collide with traffic
        return self._rid

    def account(self, resp: Dict) -> None:
        if resp.get("cache") == "hit":
            self.hits += 1
        elif resp.get("kind") == "infer" and resp.get("ok"):
            self.infer_misses += 1

    def request(self, kind: str, params: Dict[str, Any]) -> Dict:
        resp = self.conn.roundtrip(kind, params, self.next_id())
        self.account(resp)
        return resp

    def phase(self, reqs: Sequence[Req]) -> PhaseResult:
        result = run_phase(self.conn, reqs)
        for resp in result.responses.values():
            self.account(resp)
        return result

    def stats(self) -> Dict:
        resp = self.request("stats", {})
        if not resp.get("ok"):
            raise RuntimeError(f"stats failed: {resp}")
        return resp

    def cross_check(self) -> List[str]:
        """Server counters against the generator's counts; one message per
        disagreement."""
        stats = self.stats()["result"]
        errors = []
        for name, got, want in (
            ("requests_total", stats["requests_total"], self.conn.sent),
            ("results_cache.request_hits", stats["results_cache"]["request_hits"], self.hits),
            ("batcher.requests", stats["batcher"]["requests"], self.infer_misses),
        ):
            if got != want:
                errors.append(f"stats {name} = {got}, generator counted {want}")
        return errors

    def peak_rss_mb(self) -> float:
        """The server's peak resident memory so far (Linux ``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> List[Dict[str, float]]:
        """Stop the server (SIGINT, then SIGTERM, then SIGKILL); returns the
        tracer counts at each ``stats`` request, which its launcher wrote on
        the way out (when tracing)."""
        if self.conn is not None:
            self.conn.close()
        start = time.perf_counter()
        for sig, wait in ((signal.SIGINT, 10), (signal.SIGTERM, 5), (signal.SIGKILL, 30)):
            if self.proc.poll() is not None:
                break
            self.proc.send_signal(sig)
            try:
                self.proc.wait(timeout=wait)
            except subprocess.TimeoutExpired:
                print(f"server did not stop on {sig.name} within {wait} s", file=sys.stderr)
        else:
            self.proc.wait()
        took = time.perf_counter() - start
        if took > 5:
            print(f"server stop took {took:.1f} s", file=sys.stderr)
        if self.trace_path is None:
            return []
        return load_json(Path(f"{self.trace_path}.counts.json"), [])


# ------------------------------------------------------------------ checks
class Checker:
    """Output checks for every response, with failure counts."""

    def __init__(self) -> None:
        from repro.utils.telemetry import RunReport

        self._report_cls = RunReport
        self.infer_table = load_infer_digests()
        self.sweep_table = load_json(DIGEST_DIR / "serve_sweep.json", {})
        self.seen: Dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def response(self, kind: str, key: int, resp: Optional[Dict]) -> None:
        self.attempted += 1
        if resp is None:
            return self._fail(f"{kind} {key}: no response")
        if not resp.get("ok"):
            return self._fail(f"{kind} {key}: error {resp.get('error')}")
        try:
            self._report_cls.from_dict(resp["report"]).validate()
        except (KeyError, TypeError, ValueError) as exc:
            return self._fail(f"{kind} {key}: invalid report: {exc}")
        if kind == "infer":
            text = canonical(resp["result"])
            want = self.infer_table[key] if key < len(self.infer_table) else None
            if want is not None and digest(text, INFER_DIGEST_SIZE) != want:
                return self._fail(f"infer vector {key}: result digest mismatch")
            if self.seen.setdefault(key, text) != text:
                return self._fail(f"infer vector {key}: differs from an earlier response")
        elif kind == "sweep":
            want = self.sweep_table.get(str(key))
            got = digest(canonical({"result": resp["result"], "report": resp["report"]}))
            if want is not None and got != want:
                return self._fail(f"sweep seed {key}: digest mismatch")

    def phase(self, result: PhaseResult) -> None:
        for r in result.reqs:
            self.response(r.kind, r.key, result.responses.get(r.id))

    def accounting(self, errors: List[str]) -> None:
        self.attempted += 1     # the stats request itself
        for e in errors:
            self._fail(e)


def load_infer_digests() -> List[str]:
    try:
        with open(DIGEST_DIR / "serve_infer.txt") as fh:
            return fh.read().split()
    except FileNotFoundError:
        return []


# ------------------------------------------------------------ expectations
def expected_infer_digests(indices: Iterable[int], chunk: int = 256) -> List[str]:
    """Digest of the ``result`` an infer request for each universe vector
    gets, computed in-process through the same service code."""
    import asyncio

    from repro.serve import SimulationService

    indices = list(indices)
    svc = SimulationService()
    out: List[str] = []

    async def run(rows):
        return await svc.submit({"kind": "infer", "params": {"x": rows, "model": MODEL}})

    for lo in range(0, len(indices), chunk):
        rows = [universe_vector(k) for k in indices[lo:lo + chunk]]
        resp = asyncio.run(run(rows))
        res = resp["result"]
        for i in range(len(rows)):
            one = {
                "logits": [res["logits"][i]],
                "prediction": [res["prediction"][i]],
                "model_fingerprint": res["model_fingerprint"],
                "model_version": res["model_version"],
            }
            out.append(digest(canonical(one), INFER_DIGEST_SIZE))
    return out


def expected_sweep_digest(seed: int) -> str:
    import asyncio

    from repro.serve import SimulationService

    resp = asyncio.run(SimulationService().submit({"kind": "sweep", "params": {"seed": seed}}))
    return digest(canonical({"result": resp["result"], "report": resp["report"]}))


# ------------------------------------------------------------------ phases
def at_reference(seconds: float, slowdown: float) -> float:
    """Host ``seconds`` of a request (or a set-up ending in one infer) at
    reference speed: the batcher's coalescing window is kept as it is, the
    rest is divided by the host ``slowdown``."""
    return WINDOW_S + (seconds - WINDOW_S) / slowdown


def run_main(server: Server, inputs: Inputs, checker: Checker, seconds: float) -> PhaseResult:
    """The fixed-rate infer + sweep traffic for ``seconds``, as one
    continuous open-loop phase."""
    result = server.phase(inputs.phase(RATE, seconds))
    checker.phase(result)
    return result


def main_phase_stats(res: PhaseResult) -> Dict[str, float]:
    """Raw host latency statistics of the fixed-rate phase."""
    infer = [x * 1e3 for x in res.latencies("infer")]
    sweeps = res.latencies("sweep")
    late = res.lateness()
    n_req = pooled = hits = 0
    for r in res.reqs:
        if r.kind == "infer":
            n_req += 1
            pooled += r.pooled
            hits += res.responses.get(r.id, {}).get("cache") == "hit"
    q = tail_percentile(len(infer))
    return {
        "n_infer": len(infer),
        "p50_ms": median(infer),
        "tail_q": q,
        "tail_ms": percentile(infer, q),
        "n_sweep": len(sweeps),
        "heavy_p50_s": median(sweeps),
        "heavy_max_s": max(sweeps),
        "repeat_share": pooled / max(1, n_req),
        "hit_share": hits / max(1, n_req),
        "late_p99_ms": percentile(late, 99.0) * 1e3 if late else 0.0,
    }


# -------------------------------------------------------------- saturation
def _saturated_chunk(
    server: Server, inputs: Inputs, checker: Checker, seconds: float
) -> Tuple[float, int]:
    """Closed loop with ``SATURATION_DEPTH`` infer requests always in
    flight for ``seconds``; returns (completed per second between the 10th
    and 90th percentile response, away from ramp-up and drain; requests)."""
    conn = server.conn
    first = len(conn.received)
    reqs: List[Req] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        if not conn.wait_for(first + len(reqs) - SATURATION_DEPTH + 1, 90.0):
            break
        k, pooled = inputs.vector_index()
        r = Req(inputs.new_id(), time.perf_counter() - start, "infer", k, pooled)
        r.line = encode(r)
        conn.send(r.line)
        reqs.append(r)
    conn.wait_for(first + len(reqs), 90.0)
    got = conn.received[first:first + len(reqs)]
    responses = {}
    for _, line in got:
        resp = json.loads(line)
        responses[resp.get("id")] = resp
        server.account(resp)
    for r in reqs:
        checker.response(r.kind, r.key, responses.get(r.id))
    times = sorted(t for t, _ in got)
    lo, hi = len(times) // 10, (9 * len(times)) // 10
    if hi <= lo or times[hi] <= times[lo]:
        raise RuntimeError(f"saturation chunk completed only {len(times)} requests")
    return (hi - lo) / (times[hi] - times[lo]), len(reqs)


def run_saturated(
    server: Server, inputs: Inputs, checker: Checker, seconds: float
) -> Tuple[float, float, int, int]:
    """Saturated chunks of ``SATURATION_S`` for about ``seconds``, each with
    the host slowdown sampled before and after it; returns (median chunk
    rate at reference speed, median raw chunk rate, chunks, requests)."""
    chunks = max(1, round(seconds / SATURATION_S))
    ref, raw, total = [], [], 0
    before = host_slowdown()
    for _ in range(chunks):
        rate, n = _saturated_chunk(server, inputs, checker, SATURATION_S)
        after = host_slowdown()
        raw.append(rate)
        ref.append(rate * (before + after) / 2)
        total += n
        before = after
    return median(ref), median(raw), chunks, total


# ---------------------------------------------------------------- unloaded
#: Unloaded phase: chunks of this many infer requests (fresh inputs) and
#: sweeps, each sent with nothing else in flight.
UNLOADED_CHUNKS = 8
UNLOADED_INFERS = 40
UNLOADED_SWEEPS = 3


def _timed_request(server: Server, checker: Checker, kind: str, key: int) -> float:
    params = {"x": [universe_vector(key)], "model": MODEL} if kind == "infer" else {"seed": key}
    start = time.perf_counter()
    resp = server.request(kind, params)
    seconds = time.perf_counter() - start
    checker.response(kind, key, resp)
    return seconds


def run_unloaded(server: Server, inputs: Inputs, checker: Checker) -> Dict[str, float]:
    """One request at a time: infer on fresh inputs (each waits out the
    batcher's whole coalescing window) and sweeps with fresh seeds.  Each
    chunk's latencies are scaled by the mean host slowdown sampled before
    and after it; returns medians (``*_ref`` at reference speed)."""
    infer, infer_ref, sweep, sweep_ref = [], [], [], []
    before = host_slowdown()
    for _ in range(UNLOADED_CHUNKS):
        i = [_timed_request(server, checker, "infer", inputs.fresh_index())
             for _ in range(UNLOADED_INFERS)]
        w = [_timed_request(server, checker, "sweep", inputs.sweep_seed())
             for _ in range(UNLOADED_SWEEPS)]
        after = host_slowdown()
        factor = (before + after) / 2
        infer += i
        sweep += w
        infer_ref += [at_reference(x, factor) for x in i]
        sweep_ref += [x / factor for x in w]
        before = after
    return {
        "infer_ms": median(infer) * 1e3,
        "infer_ms_ref": median(infer_ref) * 1e3,
        "sweep_s": median(sweep),
        "sweep_s_ref": median(sweep_ref),
    }
