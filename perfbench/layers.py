"""Where the traced run draws layer boundaries, and the per-layer metrics.

Each :class:`~perfbench.spans.Point` names a public function of one
``src/repro`` module.  Span points give the layer its self time; count
points (``layer=None``) mark hot inner calls, which stay inside their
caller's self time.  ``eda`` and ``ferfet`` run on no job path and are
not traced.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from perfbench.spans import Point, Span, layer_self_times


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return kwargs[name] if name in kwargs else args[index]


def _rows(args, kwargs, result) -> float:
    return _arg(args, kwargs, 1, "x").shape[0]


def _encoded_words(args, kwargs, result) -> float:
    return _arg(args, kwargs, 1, "data").shape[0]


def _pulses(args, kwargs, result) -> float:
    return float(result.sum())


def _cells_updated(args, kwargs, result) -> float:
    return float((result > 0).sum())


def _n_trials(args, kwargs, result) -> float:
    return _arg(args, kwargs, 1, "n_trials")


POINTS: List[Point] = [
    # cli: argument parsing, command dispatch, table printing.
    Point("repro.cli:main", "cli"),
    # pipeline compiler, scheduler and DSE sweep.
    Point("repro.pipeline.explore:explore_pipeline", "pipeline"),
    Point("repro.pipeline.explore:pareto_analysis", "pipeline"),
    Point("repro.pipeline.explore:_pipeline_point", "pipeline"),
    Point("repro.pipeline.allocate:allocate", "pipeline"),
    Point("repro.pipeline.allocate:StageAllocation.apply", "pipeline"),
    Point("repro.pipeline.schedule:PipelineScheduler.run", "pipeline",
          {"pipeline.schedule.runs": None}),
    Point("repro.pipeline.interconnect:Interconnect.transfer", "pipeline"),
    # workloads: attention block and in-situ training.
    Point("repro.workloads.attention:explore_attention", "workloads.attention"),
    Point("repro.workloads.attention:_attention_point", "workloads.attention"),
    Point("repro.workloads.attention:run_attention", "workloads.attention"),
    Point("repro.workloads.attention:attention_graph", "workloads.attention"),
    Point("repro.workloads.training:explore_training", "workloads.training"),
    Point("repro.workloads.training:_training_point", "workloads.training"),
    Point("repro.workloads.training:outer_product_delta", "workloads.training"),
    Point("repro.workloads.training:InSituTrainer.*", "workloads.training"),
    Point("repro.workloads.training:InSituDense.forward", "workloads.training"),
    Point("repro.workloads.training:InSituDense.apply_update", "workloads.training"),
    Point("repro.workloads.training:InSituDense._write_verify", "workloads.training",
          {"training.pulses": _pulses, "training.cells_updated": _cells_updated}),
    # apps: reference networks, their deployment and the yield sweep.
    Point("repro.apps.nn:accuracy_vs_yield", "apps"),
    Point("repro.apps.nn:_yield_trial", "apps"),
    Point("repro.apps.nn:MLP.train", "apps"),
    Point("repro.apps.nn:CrossbarMLP.__init__", "apps"),
    Point("repro.apps.nn:CrossbarMLP.forward_batch", "apps"),
    Point("repro.apps.nn:CrossbarMLP.inject_yield_faults", "apps"),
    Point("repro.apps.datasets:gaussian_blobs", "apps"),
    # core: tile (CIMCore) and accelerator (CIMAccelerator) compute.
    Point("repro.core.cim_core:CIMCore.vmm_batch", "core",
          {"core.vmm_batch.calls": None, "core.vmm_batch.rows": _rows}),
    Point("repro.core.cim_core:CIMCore.vmm", "core"),
    Point("repro.core.cim_core:CIMCore.program_weights", "core"),
    Point("repro.core.accelerator:CIMAccelerator.vmm_batch", "core"),
    Point("repro.core.accelerator:CIMAccelerator.program_weights", "core"),
    Point("repro.core.accelerator:CIMAccelerator.inject_yield_faults", "core"),
    Point("repro.core.accelerator:CIMAccelerator.total_costs", "core"),
    # costs: energy-model pricing and the OperationCost ledger.
    # Every CostAccumulator.add comes from a charge_* call, so the ledger
    # adds sit inside these spans.
    Point("repro.costs.models:*.charge_*", "costs"),
    Point("repro.core.metrics:CostAccumulator.merge", "costs",
          {"costs.ledger.adds": None}),
    Point("repro.core.metrics:OperationCost.__add__", None,
          {"costs.ledger.adds": None}),
    Point("repro.costs.pareto:pareto_front", "costs"),
    Point("repro.costs.pareto:parameter_sensitivity", "costs"),
    # crossbar read path (hot per-row helpers are counts only).
    Point("repro.crossbar.array:CrossbarArray.mvm_batch", "crossbar.read"),
    Point("repro.crossbar.array:CrossbarArray.vmm", "crossbar.read"),
    Point("repro.crossbar.mapping:*.decode", "crossbar.read"),
    Point("repro.crossbar.array:CrossbarArray.dynamic_read_power", None,
          {"crossbar.read_power.calls": None}),
    Point("repro.crossbar.array:CrossbarArray.conductances", None,
          {"crossbar.conductances.calls": None}),
    Point("repro.crossbar.mapping:InputEncoder.amplitude", None,
          {"crossbar.amplitude.calls": None}),
    # crossbar write path.
    Point("repro.crossbar.array:CrossbarArray.write_cells", "crossbar.write",
          {"crossbar.write_cells.calls": None}),
    Point("repro.crossbar.array:CrossbarArray.program", "crossbar.write"),
    Point("repro.crossbar.array:CrossbarArray.program_row", "crossbar.write"),
    Point("repro.crossbar.array:CrossbarArray.program_with_verify", "crossbar.write"),
    # nodal IR-drop solver.
    Point("repro.crossbar.solver:NodalCrossbarSolver.solve_batch", "crossbar.solver"),
    Point("repro.crossbar.solver:NodalCrossbarSolver.solve", "crossbar.solver"),
    Point("repro.crossbar.solver:NodalCrossbarSolver._factorize", "crossbar.solver"),
    # periphery: ADC (spans) and wordline drivers (hot: counts).
    Point("repro.periphery.adc:ADC.quantize_array", "periphery"),
    Point("repro.periphery.adc:ADC.reconstruct", "periphery"),
    Point("repro.periphery.drivers:WordlineDriver.drive_analog", None,
          {"periphery.drive_analog.calls": None}),
    # devices: variability sampling.
    Point("repro.devices.variability:*.apply", "devices"),
    # faults: injection.  The per-cell inject_fault/stick_cell calls are
    # too hot for wrappers; the program's own counter gives the count.
    Point("repro.faults.injection:FaultInjector.inject_stuck_at", "faults.inject"),
    Point("repro.faults.injection:FaultInjector.inject_for_yield", "faults.inject"),
    Point("repro.faults.injection:FaultInjector.inject_exact_count", "faults.inject"),
    Point("repro.faults.endurance:EnduranceSimulator.wear", "faults.endurance"),
    Point("repro.faults.endurance:EnduranceSimulator.cycle", "faults.endurance"),
    Point("repro.faults.endurance:EnduranceModel.sample_lifetimes", "faults.endurance"),
    # testing: ECC codecs and the advisor.
    Point("repro.testing.ecc:*.encode_block", "testing.ecc",
          {"testing.ecc.words": _encoded_words}),
    Point("repro.testing.ecc:*.decode_block", "testing.ecc"),
    Point("repro.testing.ecc:_mc_block", "testing.ecc"),
    Point("repro.testing.ecc_advisor:advise_ecc", "testing.ecc"),
    Point("repro.testing.ecc_advisor:ecc_advisor_analysis", "testing.ecc"),
    Point("repro.testing.ecc_advisor:_advisor_trial", "testing.ecc"),
    # utils: sweep engine (span) and telemetry counters (hot: counts).
    Point("repro.utils.parallel:run_trials", "utils.parallel",
          {"utils.parallel.jobs": _n_trials}),
    Point("repro.utils.telemetry:Telemetry.incr", None,
          {"utils.telemetry.incr.calls": None}),
    Point("repro.utils.telemetry:NullTelemetry.incr", None,
          {"utils.telemetry.incr.calls": None}),
    # serve: protocol, dispatch, batcher.
    Point("repro.serve.server:SimulationServer._handle_line", "serve.protocol"),
    Point("repro.serve.service:SimulationService.submit", "serve.submit"),
    Point("repro.serve.batcher:RequestBatcher.submit", "serve.batcher.wait"),
    Point("repro.serve.batcher:RequestBatcher._flush", "serve.batcher.flush"),
]

#: Layers whose self time is reported as ``<layer>.self_s``.
SELF_LAYERS = [
    "cli", "pipeline", "workloads.attention", "workloads.training", "apps",
    "core", "costs", "crossbar.read", "crossbar.write", "crossbar.solver",
    "periphery", "devices", "faults.inject", "faults.endurance",
    "testing.ecc", "utils.parallel", "serve.protocol", "serve.submit",
    "serve.batcher.flush",
]

#: Per-kind untraced job seconds reported by the batch workloads.
JOB_KINDS = ["pipeline", "attention", "yield", "train", "ecc-advisor"]

#: Every per-layer metric: name -> unit.  Self times and counts are per
#: workload cycle (batch) or per second of offered traffic (serve).
PER_LAYER: Dict[str, str] = {
    **{f"{layer}.self_s": "s" for layer in SELF_LAYERS},
    **{f"cli.{kind}.job_s": "s" for kind in JOB_KINDS},
    "pipeline.schedule.runs": "count",
    "pipeline.transfer.bytes": "B",
    "training.pulses_per_write": "ratio",
    "core.vmm_batch.calls": "count",
    "core.vmm_batch.rows": "count",
    "costs.ledger.adds": "count",
    "crossbar.read_power.calls": "count",
    "crossbar.amplitude.calls": "count",
    "crossbar.conductances.calls": "count",
    "crossbar.write_cells.calls": "count",
    "crossbar.solver.lu_hit_ratio": "ratio",
    "crossbar.solver.factorizations": "count",
    "periphery.adc.conversions": "count",
    "periphery.drive_analog.calls": "count",
    "faults.cells_stuck": "count",
    "testing.ecc.words": "count",
    "utils.parallel.jobs": "count",
    "utils.parallel.overhead_s": "s",
    "utils.telemetry.incr.calls": "count",
    "serve.batcher.wait_s": "s",
    "serve.batcher.rows_per_flush": "count",
    "serve.results.hit_ratio": "ratio",
    "serve.artifact.hit_ratio": "ratio",
    "serve.compute_lock_wait_s": "s",
    "bench.generator_late_ms": "ms",
    "bench.tracing_overhead": "ratio",
}

#: Counts taken straight from tracer counters.
TRACER_COUNTS = [
    "pipeline.schedule.runs", "core.vmm_batch.calls", "core.vmm_batch.rows",
    "costs.ledger.adds", "crossbar.read_power.calls", "crossbar.amplitude.calls",
    "crossbar.conductances.calls", "crossbar.write_cells.calls",
    "periphery.drive_analog.calls",
    "testing.ecc.words",
    "utils.parallel.jobs", "utils.telemetry.incr.calls",
]

#: Counts taken from the program's own telemetry counters.
PROGRAM_COUNTS = {
    "pipeline.transfer.bytes": "pipeline.transfer.bytes",
    "periphery.adc.conversions": "adc.conversions",
    "crossbar.solver.factorizations": "solver.factorizations",
    "faults.cells_stuck": "faults.injected_cells",
}


def layer_totals(
    spans: Sequence[Span], counts: Dict[str, float], program: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer self times and counts of one traced unit of work, summed
    (not yet normalized)."""
    selfs = layer_self_times(spans)
    out = {f"{layer}.self_s": selfs.get(layer, 0.0) for layer in SELF_LAYERS}
    out["serve.batcher.wait_s"] = selfs.get("serve.batcher.wait", 0.0)
    for name in TRACER_COUNTS:
        out[name] = counts.get(name, 0.0)
    for name, key in PROGRAM_COUNTS.items():
        out[name] = program.get(key, 0.0)
    out["training.pulses"] = counts.get("training.pulses", 0.0)
    out["training.cells_updated"] = counts.get("training.cells_updated", 0.0)
    out["solver.cache_hits"] = program.get("solver.cache_hits", 0.0)
    out["solver.cache_misses"] = program.get("solver.cache_misses", 0.0)
    return out


def finish_ratios(totals: Dict[str, float]) -> Dict[str, float]:
    """Turn summed numerators/denominators into the ratio metrics and
    drop the helper keys."""
    out = dict(totals)
    pulses = out.pop("training.pulses", 0.0)
    updated = out.pop("training.cells_updated", 0.0)
    out["training.pulses_per_write"] = updated / pulses if pulses else 0.0
    hits = out.pop("solver.cache_hits", 0.0)
    misses = out.pop("solver.cache_misses", 0.0)
    out["crossbar.solver.lu_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out


def layer_metrics(values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric (0 where this workload does no such work)."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER.items()
    }
