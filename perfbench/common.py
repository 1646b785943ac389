"""Shared helpers: checkout paths, seeds, order statistics and digests."""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
DIGEST_DIR = BENCH_DIR / "digests"
#: Scratch output (job JSON files, span dumps); listed in .gitignore.
OUT_DIR = ROOT / ".perfbench_out"

#: Batch jobs draw their ``--seed`` from this many committed job seeds,
#: each with a recorded output digest (see ``record_digests.py``).
N_JOB_SEEDS = 64

#: Tail rule: the highest percentile (at most ``TAIL_TARGET``) that keeps
#: at least ``TAIL_BEYOND`` samples beyond it, never below ``TAIL_FLOOR``.
TAIL_TARGET = 99.0
TAIL_BEYOND = 10
TAIL_FLOOR = 90.0


def job_seed(bench_seed: int, index: int) -> int:
    """The ``--seed`` a batch job gets in cycle ``index`` of a run.

    Consecutive cycles use consecutive committed seeds, starting at an
    offset that depends on the benchmark seed.
    """
    return (bench_seed * 37 + index) % N_JOB_SEEDS


def subprocess_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's ``src`` and the
    benchmark package importable, nothing else changed."""
    env = dict(os.environ)
    parts = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def ensure_program() -> None:
    """Exit with code 2 unless the checkout holds the program's source."""
    if not (SRC / "repro" / "cli.py").is_file():
        print(
            f"perfbench: no program source at {SRC / 'repro'}; run from a "
            "full checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ------------------------------------------------------------ statistics
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] (numpy 'linear')."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail_percentile(n: int) -> float:
    """The percentile reported as a tail for ``n`` samples.

    ``TAIL_TARGET`` when at least ``TAIL_BEYOND`` samples lie beyond it;
    otherwise the highest percentile that still has ``TAIL_BEYOND``
    beyond it; never below ``TAIL_FLOOR`` (with fewer than
    ``TAIL_BEYOND / (1 - TAIL_FLOOR/100)`` samples the floor applies and
    fewer than ``TAIL_BEYOND`` samples lie beyond; the table says so).
    """
    if n < 1:
        raise ValueError("no samples")
    q = 100.0 * (1.0 - TAIL_BEYOND / n)
    return max(TAIL_FLOOR, min(TAIL_TARGET, q))


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond percentile ``q``."""
    return int(math.floor(n * (1.0 - q / 100.0) + 1e-9))


# --------------------------------------------------------------- digests
def canonical(obj: Any) -> str:
    """Canonical JSON text: sorted keys, no spaces, repr-exact floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=True)


def digest(text: str, size: int = 16) -> str:
    """Hex digest (``size`` hex chars) of ``text``."""
    return hashlib.sha256(text.encode()).hexdigest()[:size]


def read_line(stream, timeout: float):
    """``stream.readline()``, or ``""`` if no line came within ``timeout``
    seconds (the reading thread is left to end with the stream)."""
    import threading

    box = []
    reader = threading.Thread(target=lambda: box.append(stream.readline()), daemon=True)
    reader.start()
    reader.join(timeout)
    return box[0] if box else ""


def load_json(path: Path, default: Any = None) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return default


def result_line(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, Dict]
) -> str:
    """The benchmark's last stdout line."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(max(attempted, 1)),
            "failed": int(failed),
            "metrics": metrics,
        }
    )


def print_table(title: str, rows: Iterable[Sequence[Any]], header: Sequence[str]) -> None:
    """Plain aligned table on stdout (human-readable part of a run)."""
    rows = [[_fmt(c) for c in r] for r in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(header)
    ]
    print(f"\n== {title} ==")
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.4e}"
        return f"{value:.5g}"
    return str(value)


# ------------------------------------------------------------ host speed
#: Fixed reference time of each calibration kernel: about its fastest
#: time on the machine the baseline was recorded on.  Only ratios of
#: slowdowns matter; under that machine's neighbours' load the slowdown
#: read 0.84-2.44.
CAL_REF_S = (0.0043, 0.0043, 0.0028)
#: Each kernel's time is the median of this many calls.
CAL_REPEATS = 3


def calibration_kernels():
    """Three fixed kernels: an interpreter loop, small numpy arrays, BLAS."""
    import numpy as np

    rng = np.random.default_rng(0)
    a0 = rng.random((64, 64))
    v0 = rng.random(64)

    def interpreter():
        s = 0
        for i in range(60000):
            s += i * i % 7
        return s

    def small_arrays():
        v = v0
        for _ in range(800):
            v = np.clip(v * 0.5 + 0.1, 0.0, 1.0)
            float(v.sum())

    def blas():
        a = a0
        for _ in range(150):
            a = np.tanh(a @ a0 * 0.01)

    return interpreter, small_arrays, blas


def host_slowdown() -> float:
    """How much slower this host runs right now than the reference
    machine: the mean, over the calibration kernels, of each kernel's
    median time over its reference time.

    A shared machine's speed drifts by tens of percent over seconds, so
    the benchmark divides each host time by the slowdown sampled right
    before and after it, while none of its own work runs (a probe running
    alongside would also read the benchmark's own load).
    """
    import time

    ratios = []
    for kernel, ref in zip(calibration_kernels(), CAL_REF_S):
        times = []
        for _ in range(CAL_REPEATS):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        ratios.append(median(times) / ref)
    return sum(ratios) / len(ratios)


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB."""
    import resource

    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0

