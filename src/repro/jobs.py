"""The heavy job kinds, defined once for ``cimflow`` and ``cimflow serve``.

Each :class:`Job` carries the kind's defaults — the full parameter set,
with the value every omitted parameter takes and the type every given
parameter must have — and the ``run`` that executes a normalized config.
The server fills and types a request from ``defaults``, keys its results
cache on the filled config and calls ``run`` off the event loop; the CLI
subcommands read their flag defaults from the same dicts and call the
same ``run``, so the two front doors cannot drift apart.  Heavy imports
stay inside each ``run``.  The rest the CLI shares with the server,
:data:`REQUEST_KINDS` and :class:`ServiceConfig`, lives here too, so
building the CLI's parser never imports the server.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro.utils import telemetry
from repro.utils.telemetry import RunReport

__all__ = ["Job", "JOBS", "REQUEST_KINDS", "ServiceConfig"]

#: Request kinds the job server accepts: the :data:`JOBS` kinds plus the
#: server-only ``infer``, ``faults`` and ``stats``.
REQUEST_KINDS = (
    "infer", "sweep", "dse", "pipeline", "faults", "ecc",
    "attention", "train", "stats",
)

Config = Dict[str, Any]


@dataclass
class ServiceConfig:
    """Serving-layer knobs; ``cimflow serve`` reads its flag defaults
    from here."""

    max_inflight: int = 64          # admission-control bound
    batch_window_s: float = 0.005   # coalescing window for inference
    max_batch: int = 16             # flush immediately at this many requests
    artifact_capacity: int = 32     # deployed models / graphs / allocations
    results_capacity: int = 256     # whole-response cache entries

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )


@dataclass(frozen=True)
class Job:
    """One heavy job kind.

    ``run(cfg, workers=0, artifacts=None)`` executes a normalized config
    and returns ``(result, RunReport)``; ``artifacts`` is the server's
    :class:`~repro.serve.cache.ArtifactCache`, which only ``pipeline``
    reuses across requests.  ``uncached`` holds the defaults of the
    request parameters passed to ``run`` outside ``cfg``: they never
    change the result or the report (the sweep engine folds every job's
    counters the same way at any worker count), so they stay out of the
    results-cache key.  ``check`` rejects a bad config before any compute
    is queued.
    """

    defaults: Config
    run: Callable[..., Tuple[Any, RunReport]]
    uncached: Config = field(default_factory=lambda: {"workers": 0})
    check: Optional[Callable[[Config], None]] = None


@contextmanager
def _priced(cfg: Config) -> Iterator[telemetry.Telemetry]:
    """Price charges under the config's energy model and capture the
    job's counters in a scope of its own."""
    from repro.costs.models import use_model

    with use_model(cfg["energy_model"]), telemetry.scoped() as scope:
        yield scope


def _report(scope: telemetry.Telemetry, label: str) -> RunReport:
    return RunReport.from_counters(
        scope.snapshot(include_timers=False)["counters"], label=label
    )


def _args(cfg: Config, *skip: str) -> Config:
    """``cfg`` as keyword arguments of a job's entry point, without the
    energy model (``_priced`` applies it) and ``skip``."""
    skip += ("energy_model",)
    return {name: value for name, value in cfg.items() if name not in skip}


def _run_sweep(cfg: Config, workers: Optional[int] = 0, artifacts=None):
    from repro.apps.nn import accuracy_vs_yield

    with _priced(cfg) as scope:
        rows = accuracy_vs_yield(
            **_args(cfg, "seed"), rng=cfg["seed"], workers=workers
        )
    return {"rows": rows}, _report(scope, "sweep")


def _check_dse(cfg: Config) -> None:
    from repro.costs.pareto import resolve_objectives

    try:
        resolve_objectives(cfg["objectives"])
    except ValueError as exc:
        raise ValueError(f"objectives: {exc}") from None


def _run_dse(cfg: Config, workers: Optional[int] = 0, artifacts=None):
    from repro.pipeline import explore_pipeline, pareto_analysis

    with _priced(cfg) as scope:
        rows = explore_pipeline(**_args(cfg, "objectives"), workers=workers)
    pareto = pareto_analysis(rows, cfg["objectives"])
    return {"rows": rows, "pareto": pareto}, _report(scope, "dse")


def _run_pipeline(cfg: Config, workers: Optional[int] = 0, artifacts=None):
    import numpy as np

    from repro.costs.models import use_model
    from repro.pipeline import (
        PipelineScheduler,
        ScheduleParams,
        TileInventory,
        allocate,
    )
    from repro.pipeline.explore import reference_conv_graph, reference_graph

    workload, model_seed = cfg["workload"], cfg["model_seed"]
    graph, graph_hit = artifacts.get_or_create(
        ("graph", workload, model_seed),
        lambda: (
            reference_conv_graph(model_seed)
            if workload == "cnn"
            else reference_graph(model_seed=model_seed)
        ),
    )
    tiles, duplication, seed = cfg["tiles"], cfg["duplication"], cfg["seed"]
    alloc, alloc_hit = artifacts.get_or_create(
        ("alloc", workload, model_seed, tiles, duplication, seed),
        lambda: allocate(
            graph,
            TileInventory(n_tiles=tiles),
            duplication=duplication,
            rng=seed,
        ),
    )
    input_rng = np.random.default_rng(model_seed + 1)
    if graph.input_is_image:
        edge = graph.nodes[0].image_size
        x = input_rng.uniform(0.0, 1.0, size=(cfg["batch"], edge, edge))
    else:
        x = input_rng.uniform(
            0.0, 1.0, size=(cfg["batch"], graph.in_features)
        )
    sched = PipelineScheduler(
        alloc, ScheduleParams(micro_batch=cfg["micro_batch"])
    )
    with use_model(cfg["energy_model"]):
        run = sched.run(x, mode="pipelined", noisy=False)
    result = {
        "stage_table": run.stage_table(),
        "throughput": run.throughput,
        "utilization": run.utilization(),
        "makespan_s": run.makespan,
        "artifact_hits": {"graph": graph_hit, "alloc": alloc_hit},
    }
    return result, run.report("pipeline")


def _run_ecc(cfg: Config, workers: Optional[int] = 0, artifacts=None):
    from repro.testing.ecc_advisor import advise_ecc, ecc_advisor_analysis

    with _priced(cfg) as scope:
        rows = advise_ecc(**_args(cfg), workers=workers)
    advice = ecc_advisor_analysis(rows)
    return {"rows": rows, "advice": advice}, _report(scope, "ecc")


def _run_attention(cfg: Config, workers: Optional[int] = 0, artifacts=None):
    from repro.workloads import explore_attention

    with _priced(cfg) as scope:
        rows = explore_attention(**_args(cfg), workers=workers)
    return {"rows": rows}, _report(scope, "attention")


def _run_train(cfg: Config, workers: Optional[int] = 0, artifacts=None):
    from repro.workloads import explore_training

    with _priced(cfg) as scope:
        rows = explore_training(**_args(cfg), workers=workers)
    return {"rows": rows}, _report(scope, "train")


#: Every heavy job kind.  Defaults are part of the results-cache key, so
#: a changed value or type (list vs tuple, int vs float) re-keys every
#: cached result of that kind.
JOBS: Dict[str, Job] = {
    "sweep": Job(
        defaults={
            "yields": [1.0, 0.9, 0.8],
            "trials": 2,
            "n_samples": 240,
            "n_features": 16,
            "n_classes": 6,
            "hidden": 12,
            "separation": 1.5,
            "epochs": 30,
            "seed": 0,
            "energy_model": "static",
        },
        run=_run_sweep,
    ),
    "dse": Job(
        defaults={
            "tile_counts": [4, 8, 16],
            "duplication_modes": ["none", "auto"],
            "batch_sizes": [32],
            "adc_bits": [8],
            "workload": "cnn",
            "micro_batch": 8,
            "model_seed": 1234,
            "seed": 0,
            "objectives": ["accuracy", "energy", "area", "throughput"],
            "energy_model": "static",
        },
        run=_run_dse,
        check=_check_dse,
    ),
    "pipeline": Job(
        defaults={
            "workload": "cnn",
            "tiles": 16,
            "duplication": "auto",
            "batch": 32,
            "micro_batch": 8,
            "model_seed": 1234,
            "seed": 0,
            "energy_model": "static",
        },
        run=_run_pipeline,
        uncached={},
    ),
    "ecc": Job(
        defaults={
            "codes": ["secded", "bch", "secdaec"],
            "yields": [0.9999, 0.999, 0.99, 0.97],
            "scenarios": [],                # [] -> all registered scenarios
            "data_bits": 32,
            "mc_words": 4096,
            "words_per_array": 1024,
            "trials": 2,
            "seed": 0,
            "energy_model": "static",
        },
        run=_run_ecc,
    ),
    "attention": Job(
        defaults={
            "seqs": [4, 8],
            "d_heads": [4, 8],
            "micro_batches": [4],
            "d_model": 16,
            "batch": 16,
            "n_tiles": 16,
            "model_seed": 2024,
            "trials": 1,
            "seed": 0,
            "energy_model": "static",
        },
        run=_run_attention,
    ),
    "train": Job(
        defaults={
            "lives": [8.0, 12.0, 1e6],
            "drift_nus": [0.0, 0.01],
            "epochs": 5,
            "n_features": 16,
            "n_classes": 4,
            "write_sigma": 0.05,
            "backend": "auto",
            "trials": 1,
            "seed": 0,
            "energy_model": "static",
        },
        run=_run_train,
    ),
}
