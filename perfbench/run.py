"""Whole-job benchmark of the cimflow stack.

    python3 perfbench/run.py --workload dnn-read --seed 0 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md``): ``dnn-read`` and
``reliability-write`` cycle ``cimflow`` commands in a job process;
``serve-mixed`` drives a ``cimflow serve`` subprocess with an open-loop
generator.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer split from a separate traced run.  Human-readable tables
come first; the last stdout line is the JSON result.  Exits 2 when the
program's source is not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    OUT_DIR,
    ROOT,
    ensure_program,
    host_slowdown,
    median,
    percentile,
    print_table,
    read_line,
    result_line,
    samples_beyond,
    subprocess_env,
    tail_percentile,
)

WORKLOADS = ("dnn-read", "reliability-write", "serve-mixed")
#: Set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Shares of ``--seconds`` that serve-mixed spends at its fixed rate and
#: then saturated; its unloaded phase, a fixed number of requests, follows.
MAIN_SHARE = 0.3
SATURATED_SHARE = 0.5
#: Hard limit on a batch run's waits, inside the 180 s a run may take.
RUN_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
    "heavy_p50_s": "s",
    "ok_rate": "ratio",
    "peak_rss_mb": "MB",
}


def _metrics(values: Dict[str, float]) -> Dict[str, Dict]:
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END.items()}


# ------------------------------------------------------------------ batch
def _job_process(args, result_path: Path, deadline: float) -> Tuple[subprocess.Popen, float, int, int]:
    """Spawn a job process and wait for READY; returns (process, set-up
    seconds at reference speed, warm-up jobs attempted, failed)."""
    cmd = [
        sys.executable, "-m", "perfbench.batch",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--result", str(result_path),
    ]
    before = host_slowdown()
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=subprocess_env(), stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True,
    )
    line = read_line(proc.stdout, max(1.0, deadline - time.perf_counter()))
    setup = time.perf_counter() - start
    # The job process now waits on stdin, so the host is ours to sample.
    setup /= (before + host_slowdown()) / 2
    parts = line.split()
    if len(parts) != 3 or parts[0] != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"job process did not get ready: {line!r}")
    return proc, setup, int(parts[1]), int(parts[2])


def _finish(proc: subprocess.Popen, command: str, timeout: float) -> None:
    try:
        proc.stdin.write(command + "\n")
        proc.stdin.flush()
        proc.wait(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("job process timed out")
    finally:
        proc.stdin.close()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"job process exited {proc.returncode}")


def run_batch(args, deadline: float) -> Tuple[bool, int, int, Dict[str, Dict]]:
    from perfbench.batch import WORKLOADS as BATCH
    from perfbench.layers import layer_metrics

    OUT_DIR.mkdir(exist_ok=True)
    result_path = OUT_DIR / f"job-{args.workload}-{args.seed}.json"
    result_path.unlink(missing_ok=True)
    setups: List[float] = []
    attempted = failed = 0
    samples = 1 if args.trace else SETUP_SAMPLES
    for k in range(samples):
        proc, setup, a, f = _job_process(args, result_path, deadline)
        setups.append(setup)
        attempted += a
        failed += f
        _finish(proc, "go" if k == samples - 1 else "exit", deadline - time.perf_counter())
    with open(result_path) as fh:
        res = json.load(fh)
    attempted += res["attempted"]
    failed += res["failed"]
    for err in res["errors"]:
        print(f"FAILED: {err}", file=sys.stderr)
    kinds, workers, heavy = BATCH[args.workload]

    if args.trace:
        _print_layers(res["layers"], res["per_kind"], res["cycles_traced"])
        return failed == 0, attempted, failed, layer_metrics(res["layers"])

    # Each cycle's host time at reference speed: divided by the mean host
    # slowdown sampled right before and right after it.
    cycles = res["cycles"]
    slow = res["slowdown"]
    per_kind: Dict[str, List[float]] = {k: [] for k in kinds}
    cycle_s = []
    for i, cycle in enumerate(cycles):
        factor = (slow[i] + slow[i + 1]) / 2
        for kind, seconds in cycle:
            per_kind[kind].append(seconds / factor)
        cycle_s.append(sum(s for _, s in cycle) / factor)
    q = tail_percentile(len(cycle_s))
    rows = []
    for kind in kinds:
        xs = per_kind[kind]
        kq = tail_percentile(len(xs))
        rows.append([kind, len(xs), median(xs), f"p{kq:.4g}", percentile(xs, kq),
                     samples_beyond(len(xs), kq)])
    rows.append(["cycle", len(cycle_s), median(cycle_s), f"p{q:.4g}", percentile(cycle_s, q),
                 samples_beyond(len(cycle_s), q)])
    print_table(
        f"{args.workload}: host seconds per job at reference speed "
        f"(closed loop, 1 client, --workers {workers})",
        rows, ["job", "n", "median_s", "tail", "tail_s", "n_beyond"],
    )
    raw = [sum(s for _, s in c) for c in cycles]
    print(
        f"host slowdown: median {median(slow):.3f} (range {min(slow):.3f}-{max(slow):.3f}); "
        f"raw cycle median {median(raw):.4f} s"
    )
    values = {
        "setup_s": median(setups),
        "throughput_per_s": sum(len(c) for c in cycles) / sum(cycle_s),
        "p50_ms": median(cycle_s) * 1e3,
        "heavy_p50_s": median(per_kind[heavy]),
        "ok_rate": (attempted - failed) / max(1, attempted),
        "peak_rss_mb": res["rss_mb"],
    }
    print(f"set-up samples (s): {', '.join(f'{s:.3f}' for s in setups)}")
    return failed == 0, attempted, failed, _metrics(values)


# ------------------------------------------------------------------ serve
def run_serve(args) -> Tuple[bool, int, int, Dict[str, Dict]]:
    from perfbench import serve_mixed as sm

    checker = sm.Checker()
    inputs = sm.Inputs(args.seed)
    servers: List = []

    def start(tag: str, trace: bool = False):
        server = sm.Server(f"{args.seed}-{tag}", trace=trace)
        servers.append(server)
        checker.response("infer", 0, server.first_response)
        return server

    def stop(server) -> Tuple[float, List[Dict[str, float]]]:
        """Cross-check and stop ``server``; returns its peak RSS (MB) and
        its tracer counts at each ``stats`` request (when tracing)."""
        checker.accounting(server.cross_check())
        rss = server.peak_rss_mb()
        servers.remove(server)
        return rss, server.stop()

    try:
        if args.trace:
            return _serve_traced(args, sm, checker, inputs, start, stop)
        # Set-up at reference speed: scaled by the mean host slowdown
        # sampled right before and right after it.
        setups = []
        for k in range(SETUP_SAMPLES):
            before = host_slowdown()
            server = start(str(k))
            setups.append(sm.at_reference(server.setup_s, (before + host_slowdown()) / 2))
            if k < SETUP_SAMPLES - 1:
                stop(server)
        main = sm.run_main(server, inputs, checker, MAIN_SHARE * args.seconds)
        sat_ref, sat_raw, sat_chunks, sat_n = sm.run_saturated(
            server, inputs, checker, SATURATED_SHARE * args.seconds)
        unloaded = sm.run_unloaded(server, inputs, checker)
        rss, _ = stop(server)
    finally:
        for server in servers:
            server.stop()
    st = sm.main_phase_stats(main)
    for err in checker.errors:
        print(f"FAILED: {err}", file=sys.stderr)
    print_table(
        f"serve-mixed main phase: Poisson infer at {sm.RATE:g} req/s + sweep every "
        f"{sm.SWEEP_EVERY:g} s (open loop, 1 connection); raw host time",
        [
            ["infer", st["n_infer"], st["p50_ms"], f"p{st['tail_q']:.4g}", st["tail_ms"]],
            ["sweep", st["n_sweep"], st["heavy_p50_s"] * 1e3, "max", st["heavy_max_s"] * 1e3],
        ],
        ["request", "n", "p50_ms", "tail", "tail_ms"],
    )
    print(
        f"repeated inputs: {st['repeat_share']:.3f} of infer requests; results-cache hits: "
        f"{st['hit_share']:.3f}; generator lateness p99: {st['late_p99_ms']:.3f} ms"
    )
    print(
        f"saturated infer throughput ({sm.SATURATION_DEPTH} in flight, {sat_n} requests, "
        f"median of {sat_chunks} chunks): {sat_raw:.2f} req/s raw"
    )
    print(
        f"unloaded (one request in flight): infer p50 {unloaded['infer_ms']:.3f} ms raw "
        f"({sm.UNLOADED_CHUNKS * sm.UNLOADED_INFERS} requests), sweep p50 "
        f"{unloaded['sweep_s']:.4f} s raw ({sm.UNLOADED_CHUNKS * sm.UNLOADED_SWEEPS} requests)"
    )
    values = {
        "setup_s": median(setups),
        "throughput_per_s": sat_ref,
        "p50_ms": unloaded["infer_ms_ref"],
        "heavy_p50_s": unloaded["sweep_s_ref"],
        "ok_rate": (checker.attempted - checker.failed) / max(1, checker.attempted),
        "peak_rss_mb": rss,
    }
    print(f"set-up samples at reference speed (s): {', '.join(f'{s:.3f}' for s in setups)}")
    return checker.failed == 0, checker.attempted, checker.failed, _metrics(values)


def _counter_delta(after: Dict, before: Dict) -> Dict[str, float]:
    a = after["report"]["counters"]
    b = before["report"]["counters"]
    return {k: v - b.get(k, 0.0) for k, v in a.items()}


def _serve_traced(args, sm, checker, inputs, start, stop):
    """Untraced then traced server, same traffic mix; per-layer values are
    per second of offered traffic in the traced phase."""
    from perfbench.layers import finish_ratios, layer_metrics, layer_totals
    from perfbench.spans import read_spans

    seconds = 0.45 * args.seconds
    plain = start("plain")
    base = sm.run_main(plain, inputs, checker, seconds)
    stop(plain)

    traced = start("traced", trace=True)
    before = traced.stats()
    main = sm.run_main(traced, inputs, checker, seconds)
    after = traced.stats()
    _, at_stats = stop(traced)

    # Keep the spans of requests that arrived during the traced phase, and
    # the tracer counts between the ``before`` and ``after`` stats requests
    # (the program's own counters are taken the same way).
    lo = main.start
    hi = lo + max(r.due + main.latency.get(r.id, 0.0) for r in main.reqs)
    spans = read_spans(traced.trace_path)
    roots = {s.id: s.start for s in spans if s.parent is None}
    spans = [s for s in spans if lo <= roots.get(s.request, -1.0) <= hi]
    counts = {k: v - at_stats[0].get(k, 0.0) for k, v in at_stats[1].items()}
    program = _counter_delta(after, before)
    totals = layer_totals(spans, counts, program)
    values = finish_ratios({k: v / seconds for k, v in totals.items()})

    submit = {s.request: s.duration for s in spans if s.layer == "serve.submit"}
    waits = [submit[s.request] - s.duration for s in spans
             if s.name == "accuracy_vs_yield" and s.request in submit]
    sa, sb = after["result"], before["result"]
    flushes = sa["batcher"]["flushes"] - sb["batcher"]["flushes"]
    batched = sa["batcher"]["requests"] - sb["batcher"]["requests"]
    hits = sa["results_cache"]["request_hits"] - sb["results_cache"]["request_hits"]
    misses = sa["results_cache"]["request_misses"] - sb["results_cache"]["request_misses"]
    a_hits = sa["artifact_cache"]["hits"] - sb["artifact_cache"]["hits"]
    a_miss = sa["artifact_cache"]["misses"] - sb["artifact_cache"]["misses"]
    st_base, st = sm.main_phase_stats(base), sm.main_phase_stats(main)
    values.update({
        "serve.batcher.rows_per_flush": batched / flushes if flushes else 0.0,
        "serve.results.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.artifact.hit_ratio": a_hits / (a_hits + a_miss) if a_hits + a_miss else 0.0,
        "serve.compute_lock_wait_s": median(waits) if waits else 0.0,
        "bench.generator_late_ms": st["late_p99_ms"],
        "bench.tracing_overhead": st["p50_ms"] / st_base["p50_ms"] - 1.0,
    })
    for err in checker.errors:
        print(f"FAILED: {err}", file=sys.stderr)
    _print_layers(values, {}, None)
    print(
        f"repeated inputs: {st['repeat_share']:.3f} of infer requests; "
        f"infer p50: {st_base['p50_ms']:.3f} ms untraced, "
        f"{st['p50_ms']:.3f} ms traced "
        f"({len(spans)} spans over {seconds:g} s)"
    )
    return checker.failed == 0, checker.attempted, checker.failed, layer_metrics(values)


def _print_layers(values: Dict[str, float], per_kind: Dict[str, Dict[str, float]],
                  cycles: Optional[int]) -> None:
    from perfbench.layers import PER_LAYER

    kinds = list(per_kind)
    unit = "per cycle" if cycles is not None else "per second of traffic"
    rows = []
    for name in PER_LAYER:
        v = values.get(name, 0.0)
        if not v and not any(per_kind[k].get(name) for k in kinds):
            continue
        rows.append([name, v, *[per_kind[k].get(name, "") for k in kinds]])
    title = f"per-layer split ({unit}" + (f", {cycles} traced cycles)" if cycles else ")")
    print_table(title, rows, ["metric", "value", *kinds])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    ensure_program()
    if args.workload == "serve-mixed":
        correct, attempted, failed, metrics = run_serve(args)
    else:
        deadline = time.perf_counter() + RUN_LIMIT_S
        correct, attempted, failed, metrics = run_batch(args, deadline)
    print(result_line(correct, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
