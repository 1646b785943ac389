"""Benchmarks: the pipelined multi-tile scheduler (repro.pipeline).

Regenerates the ISAAC-style system claim: pipelining a spatially-mapped
model across tiles multiplies steady-state throughput over running it
layer by layer.  Gates:

* simulated pipelined throughput >= 2x the layer-sequential baseline on
  the 4-layer reference MLP at batch 64 (micro-batch 8 -> 8 in-flight
  micro-batches over 4 stages, ideal overlap ~2.9x);
* pipelined and sequential outputs bit-identical (the schedule changes
  time, never answers);
* the DSE grid is bit-identical between serial and 2-worker runs.

Metrics land in ``BENCH_pipeline.json`` via
:func:`conftest.record` so the speedup trajectory is
tracked across PRs.
"""

import time

import numpy as np

from conftest import print_table, record

PIPELINE_SPEEDUP_GATE = 2.0


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def test_pipelined_vs_sequential_throughput(run_once):
    """The tentpole gate: >= 2x simulated steady-state throughput from
    pipelining the 4-layer reference MLP at batch 64."""
    from repro.pipeline import (
        PipelineScheduler,
        ScheduleParams,
        TileInventory,
        allocate,
        reference_graph,
    )

    graph = reference_graph()
    batch, micro_batch = 64, 8

    def experiment():
        alloc = allocate(
            graph, TileInventory(n_tiles=4), duplication="none", rng=0
        )
        x = np.random.default_rng(1).uniform(
            0, 1, (batch, graph.in_features)
        )
        sched = PipelineScheduler(alloc, ScheduleParams(micro_batch))
        seq, t_seq = _timed(sched.run, x, mode="sequential")
        pipe, t_pipe = _timed(sched.run, x, mode="pipelined")
        return seq, pipe, t_seq, t_pipe

    seq, pipe, t_seq, t_pipe = run_once(experiment)
    speedup = pipe.throughput / seq.throughput

    rows = [
        {
            "schedule": "layer-sequential",
            "makespan_s": seq.makespan,
            "samples_per_s": seq.throughput,
            "tile_utilization": seq.utilization(),
            "sim_wall_s": t_seq,
        },
        {
            "schedule": "pipelined",
            "makespan_s": pipe.makespan,
            "samples_per_s": pipe.throughput,
            "tile_utilization": pipe.utilization(),
            "sim_wall_s": t_pipe,
        },
    ]
    print_table(
        f"4-layer MLP on 4 tiles, batch {batch} (micro-batch {micro_batch})",
        rows,
    )
    record(
        "BENCH_pipeline.json",
        "pipelined_vs_sequential",
        {
            "batch": batch,
            "micro_batch": micro_batch,
            "stages": len(graph),
            "sequential_samples_per_s": seq.throughput,
            "pipelined_samples_per_s": pipe.throughput,
            "speedup": speedup,
            "sequential_utilization": seq.utilization(),
            "pipelined_utilization": pipe.utilization(),
            "transfer_bytes": pipe.transfer_bytes,
        },
    )

    # Numerics are schedule-invariant — bit for bit.
    assert np.array_equal(seq.outputs, pipe.outputs)
    # Energy is schedule-invariant too (same compute, same transfers; the
    # running-accumulator delta allows ulp-level summation differences).
    assert abs(pipe.total_energy - seq.total_energy) <= 1e-9 * seq.total_energy
    # The throughput gate.
    assert speedup >= PIPELINE_SPEEDUP_GATE, (
        f"pipelined speedup {speedup:.2f}x below the "
        f"{PIPELINE_SPEEDUP_GATE}x gate"
    )


def test_duplication_curve_shape(run_once):
    """Weight duplication must lift the conv-bottlenecked workload's
    throughput monotonically with the tile budget (the ISAAC curve)."""
    from repro.pipeline import explore_pipeline

    def experiment():
        # micro_batch=1 keeps 16 micro-batches in flight so replica
        # counts up to the batch size stay usable (no saturation).
        rows, t = _timed(
            explore_pipeline,
            tile_counts=(8, 16, 32),
            duplication_modes=("auto",),
            batch_sizes=(16,),
            micro_batch=1,
            seed=0,
            workers=0,
        )
        return rows, t

    rows, t = run_once(experiment)
    print_table(
        "throughput vs tiles (conv workload, auto duplication)",
        [
            {
                "tiles": r["tiles"],
                "replicas": "x".join(str(c) for c in r["replicas"]),
                "samples_per_s": r["throughput"],
                "utilization": r["utilization"],
            }
            for r in rows
        ],
    )
    throughputs = [r["throughput"] for r in rows]
    record(
        "BENCH_pipeline.json",
        "duplication_curve",
        {
            "tiles": [r["tiles"] for r in rows],
            "samples_per_s": throughputs,
            "gain_8_to_32_tiles": throughputs[-1] / throughputs[0],
            "sim_wall_s": t,
        },
    )
    assert all(
        b >= a for a, b in zip(throughputs, throughputs[1:])
    ), "throughput-vs-tiles curve is not monotone"
    assert throughputs[-1] > 1.5 * throughputs[0], (
        "duplication failed to lift the bottlenecked workload"
    )


def test_exploration_grid_deterministic(run_once):
    """Serial and 2-worker DSE grids must be bit-identical (sweep-engine
    contract holds through the whole pipeline stack)."""
    from repro.pipeline import explore_pipeline

    kw = dict(
        tile_counts=(8, 16),
        duplication_modes=("none", "auto"),
        batch_sizes=(16,),
        micro_batch=4,
        seed=7,
    )

    def experiment():
        serial, t_serial = _timed(explore_pipeline, workers=0, **kw)
        parallel, t_par = _timed(explore_pipeline, workers=2, **kw)
        return serial, parallel, t_serial, t_par

    serial, parallel, t_serial, t_par = run_once(experiment)
    n_points = len(serial)
    print_table(
        "DSE grid backends",
        [
            {
                "backend": "serial (workers=0)",
                "seconds": t_serial,
                "points_per_sec": n_points / t_serial,
            },
            {
                "backend": "parallel (workers=2)",
                "seconds": t_par,
                "points_per_sec": n_points / t_par,
            },
        ],
    )
    record(
        "BENCH_pipeline.json",
        "exploration_determinism",
        {
            "grid_points": n_points,
            "points_per_sec_serial": n_points / t_serial,
            "points_per_sec_parallel": n_points / t_par,
            "bit_identical": serial == parallel,
        },
    )
    assert serial == parallel, "DSE grid must be worker-count invariant"
