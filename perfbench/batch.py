"""Batch-workload job process: ``dnn-read`` and ``reliability-write``.

Run by ``perfbench/run.py`` as a child process (the "working process"
whose peak memory is reported)::

    python -m perfbench.batch --workload dnn-read --seed 3 --seconds 20 \
        --trace 0 --result .perfbench_out/job.json

It imports the program, runs one untimed warm-up job of each kind,
prints ``READY <attempted> <failed>`` and waits for one stdin line:
``exit`` ends it there (a set-up-only sample), ``go`` runs the timed
closed loop and writes the result JSON.  Every job goes through
``repro.cli.main`` exactly as ``cimflow <command>`` would, with its
stdout captured for the output check.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from perfbench.common import (
    DIGEST_DIR,
    OUT_DIR,
    digest,
    ensure_program,
    host_slowdown,
    job_seed,
    load_json,
    median,
    peak_rss_mb,
)

#: kind -> (cimflow argv after ``--seed N``, writes ``--json`` rows).
KINDS: Dict[str, Tuple[List[str], bool]] = {
    "pipeline": (["pipeline"], True),
    "attention": (["attention"], True),
    "yield": (["yield"], False),
    "train": (["train"], True),
    "ecc-advisor": (["ecc-advisor"], True),
}

#: workload -> (job kinds of one cycle, --workers, heaviest kind).
WORKLOADS: Dict[str, Tuple[List[str], int, str]] = {
    "dnn-read": (["pipeline", "attention"], 0, "pipeline"),
    "reliability-write": (["yield", "train", "ecc-advisor"], 2, "yield"),
}

DIGEST_FILE = DIGEST_DIR / "batch.json"


@dataclass
class Job:
    kind: str
    seconds: float
    ok: bool
    counters: Dict[str, float]


class JobRunner:
    """Runs cimflow jobs in-process and checks their output digests."""

    def __init__(self, digests: Optional[Dict[str, Dict[str, str]]] = None) -> None:
        from repro import cli
        from repro.utils import telemetry

        self._cli = cli
        self._telemetry = telemetry
        self.digests = digests if digests is not None else load_json(DIGEST_FILE, {})
        OUT_DIR.mkdir(exist_ok=True)
        self.json_path = str(OUT_DIR / f"rows-{os.getpid()}.json")
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def output(self, kind: str, seed: int, workers: int) -> Tuple[float, str, Dict[str, float]]:
        """Run one job; returns (host seconds, output digest, counters)."""
        argv, has_json = KINDS[kind]
        full = ["--seed", str(seed), *argv, "--workers", str(workers)]
        if has_json:
            full += ["--json", self.json_path]
        buf = io.StringIO()
        with self._telemetry.scoped() as scope, contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            rc = self._cli.main(full)
            seconds = time.perf_counter() - start
        if rc != 0:
            raise RuntimeError(f"cimflow {' '.join(full)} exited {rc}")
        text = buf.getvalue().replace(self.json_path, "<json>")
        if has_json:
            with open(self.json_path) as fh:
                text += "\n--json--\n" + fh.read()
        counters = scope.snapshot(include_timers=False)["counters"]
        return seconds, digest(text), counters

    def run(self, kind: str, seed: int, workers: int) -> Job:
        """Run and check one job; a failure is recorded, never raised."""
        self.attempted += 1
        try:
            seconds, got, counters = self.output(kind, seed, workers)
            want = self.digests.get(kind, {}).get(str(seed))
            if want is None:
                # No recorded digest: the job must at least repeat exactly.
                _, want, _ = self.output(kind, seed, workers)
            ok = got == want
            if not ok:
                self.errors.append(f"{kind} seed {seed}: output digest {got} != {want}")
        except Exception:  # a failed job is a counted failure, not a crash
            self.errors.append(f"{kind} seed {seed}: {traceback.format_exc(limit=3)}")
            seconds, ok, counters = 0.0, False, {}
        if not ok:
            self.failed += 1
        return Job(kind, seconds, ok, counters)


def _timed_loop(runner: JobRunner, workload: str, seed: int, seconds: float) -> Dict:
    """Cycles until ``seconds`` have passed, with the host slowdown
    sampled before the first cycle and after each one."""
    kinds, workers, _ = WORKLOADS[workload]
    cycles: List[List[Tuple[str, float]]] = []
    slowdown = [host_slowdown()]
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline:
        jobs = [runner.run(k, job_seed(seed, index), workers) for k in kinds]
        cycles.append([(j.kind, j.seconds) for j in jobs])
        slowdown.append(host_slowdown())
        index += 1
    return {"cycles": cycles, "slowdown": slowdown}


def _traced_loop(runner: JobRunner, workload: str, seed: int, seconds: float) -> Dict:
    """Alternate untraced and traced cycles (same inputs).  Traced jobs run
    serially, since pool workers are invisible to parent-side spans;
    ``reliability-write`` also times each job at its own worker count so
    the pool's overhead can be split out."""
    from perfbench.layers import POINTS, finish_ratios, layer_totals
    from perfbench.spans import Tracer, write_spans

    kinds, workers, _ = WORKLOADS[workload]
    tracer = Tracer()
    totals: Dict[str, float] = {}
    per_kind: Dict[str, Dict[str, float]] = {k: {} for k in kinds}
    untraced_cycle: List[float] = []
    traced_cycle: List[float] = []
    pool_overhead: List[float] = []
    job_times: Dict[str, List[float]] = {k: [] for k in kinds}
    all_spans = []
    n = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        s = job_seed(seed, n)
        base = [runner.run(k, s, workers) for k in kinds]
        for j in base:
            job_times[j.kind].append(j.seconds)
        serial = base if workers == 0 else [runner.run(k, s, 0) for k in kinds]
        pool_overhead.append(sum(b.seconds - z.seconds for b, z in zip(base, serial)))
        untraced_cycle.append(sum(j.seconds for j in serial))
        tracer.install(POINTS)
        try:
            traced = []
            for k in kinds:
                job = runner.run(k, s, 0)
                spans, counts = tracer.take()
                all_spans.extend(spans)
                one = layer_totals(spans, counts, job.counters)
                for name, v in one.items():
                    per_kind[k][name] = per_kind[k].get(name, 0.0) + v
                    totals[name] = totals.get(name, 0.0) + v
                traced.append(job.seconds)
        finally:
            tracer.uninstall()
        traced_cycle.append(sum(traced))
        n += 1
    OUT_DIR.mkdir(exist_ok=True)
    write_spans(OUT_DIR / f"spans-{workload}-{seed}.tsv", all_spans)
    values = finish_ratios({k: v / n for k, v in totals.items()})
    values["utils.parallel.overhead_s"] = median(pool_overhead)
    values["bench.tracing_overhead"] = median(traced_cycle) / median(untraced_cycle) - 1.0
    for k in kinds:
        values[f"cli.{k}.job_s"] = median(job_times[k])
    return {
        "layers": values,
        "per_kind": {
            k: finish_ratios({name: v / n for name, v in d.items()})
            for k, d in per_kind.items()
        },
        "cycles_traced": n,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    ensure_program()

    runner = JobRunner()
    kinds, workers, _ = WORKLOADS[args.workload]
    for kind in kinds:
        runner.run(kind, job_seed(args.seed, -1), workers)
    for err in runner.errors:
        print(f"FAILED (warm-up): {err}", file=sys.stderr)
    runner.errors.clear()
    print(f"READY {runner.attempted} {runner.failed}", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    if args.trace:
        result = _traced_loop(runner, args.workload, args.seed, args.seconds)
    else:
        result = _timed_loop(runner, args.workload, args.seed, args.seconds)
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        errors=runner.errors[:20],
        rss_mb=peak_rss_mb(),
    )
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
