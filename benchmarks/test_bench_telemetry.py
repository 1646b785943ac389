"""Telemetry overhead gate: instrumentation must cost < 5% on the hot path.

The telemetry layer is call-granular — one dict increment per batched
operation, never per element — so turning it on must be nearly free on
the batched VMM path the apps live on.  This benchmark times the same
workload with live telemetry and with :func:`repro.utils.telemetry
.disabled`, gates the relative overhead at 5%, and records the numbers
in ``BENCH_telemetry.json``.  It also regenerates the Fig 5 ADC-dominance
claim from the instrumented run report.
"""

import time

import numpy as np

from repro.core.cim_core import CIMCore, CIMCoreParams
from repro.periphery.area_power import fig5_instrumented_report
from repro.utils import telemetry

from conftest import print_table, record

_ROWS, _COLS, _BATCH = 128, 32, 64
_ROUNDS = 12
_CALLS_PER_SAMPLE = 10


def _measure_overhead():
    """Min-of-rounds wall time for the batched VMM workload, telemetry on
    vs off.

    The two modes alternate position within each round (position in the
    pair biases container timings by several percent) and the statistic
    is the min over rounds — the noise-robust choice for an overhead
    comparison.
    """
    gen = np.random.default_rng(0)
    core = CIMCore(CIMCoreParams(rows=_ROWS, logical_cols=_COLS), rng=0)
    core.program_weights(gen.uniform(-1, 1, (_ROWS, _COLS)))
    x = gen.uniform(0, 1, (_BATCH, _ROWS))

    def sample(enabled):
        ctx = telemetry.scoped() if enabled else telemetry.disabled()
        with ctx:
            start = time.perf_counter()
            for _ in range(_CALLS_PER_SAMPLE):
                core.vmm_batch(x, noisy=False)
            return time.perf_counter() - start

    sample(True)
    sample(False)  # warm-up both paths outside the comparison
    t_on = t_off = float("inf")
    for rnd in range(_ROUNDS):
        order = (True, False) if rnd % 2 == 0 else (False, True)
        for enabled in order:
            elapsed = sample(enabled)
            if enabled:
                t_on = min(t_on, elapsed)
            else:
                t_off = min(t_off, elapsed)
    return t_off, t_on


def test_instrumentation_overhead_under_5_percent(run_once):
    t_off, t_on = run_once(_measure_overhead)
    overhead = (t_on - t_off) / t_off
    print_table(
        "Telemetry overhead on the batched VMM path",
        [
            {
                "telemetry_off_ms": t_off * 1e3,
                "telemetry_on_ms": t_on * 1e3,
                "overhead": overhead,
                "budget": 0.05,
            }
        ],
    )
    record(
        "BENCH_telemetry.json",
        "vmm_batch_overhead",
        {
            "rows": _ROWS,
            "cols": _COLS,
            "batch": _BATCH,
            "telemetry_off_s": t_off,
            "telemetry_on_s": t_on,
            "overhead_fraction": overhead,
            # Ratio form of the same gate (BENCH schema: every file
            # carries at least one positive finite speedup field).
            "speedup_telemetry_off": t_on / t_off,
            "budget_fraction": 0.05,
        },
    )
    assert overhead < 0.05, (
        f"instrumentation overhead {overhead:.1%} exceeds the 5% budget"
    )


def test_instrumented_fig5_report(run_once):
    report = run_once(fig5_instrumented_report)
    report.validate()
    ef = report.energy_fractions()
    af = report.area_fractions()
    print_table("Instrumented Fig 5 run report", report.category_table())
    print_table(
        "Fig 5 headline (from the instrumented run)",
        [
            {"claim": "ADC area share > 90%", "measured": af["adc"]},
            {"claim": "ADC power share > 65%", "measured": ef["adc"]},
        ],
    )
    record(
        "BENCH_telemetry.json",
        "fig5_instrumented",
        {
            "adc_energy_share": ef["adc"],
            "adc_area_share": af["adc"],
            "total_energy_J": report.total_energy,
            "adc_conversions": report.counters.get("adc.conversions", 0.0),
        },
    )
    assert af["adc"] > 0.90
    assert ef["adc"] > 0.65
    # Round trip survives serialization.
    restored = type(report).from_json(report.to_json())
    assert restored == report
