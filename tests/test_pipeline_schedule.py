"""Tests for the pipelined schedule simulator (repro.pipeline.schedule)."""

import numpy as np
import pytest

from repro.apps.cnn import SimpleCNN, CrossbarCNN
from repro.apps.nn import MLP, CrossbarMLP
from repro.pipeline import (
    PipelineScheduler,
    ScheduleParams,
    TileInventory,
    allocate,
    trace_cnn,
    trace_mlp,
)
from repro.pipeline.explore import reference_conv_graph, reference_graph
from repro.utils import telemetry


def _mlp_setup(n_tiles=8, duplication="auto", seed=42):
    graph = reference_graph()
    alloc = allocate(
        graph, TileInventory(n_tiles=n_tiles), duplication=duplication, rng=seed
    )
    x = np.random.default_rng(7).uniform(0, 1, (32, graph.in_features))
    return graph, alloc, x


class TestNumericalIdentity:
    def test_pipelined_equals_sequential_noiseless(self):
        _, alloc, x = _mlp_setup()
        sched = PipelineScheduler(alloc, ScheduleParams(micro_batch=4))
        seq = sched.run(x, mode="sequential", noisy=False)
        pipe = sched.run(x, mode="pipelined", noisy=False)
        assert np.array_equal(seq.outputs, pipe.outputs)

    def test_pipelined_equals_sequential_noisy(self):
        """Bit-identity must survive stochastic read noise: per-replica
        call order is schedule-invariant, so RNG streams line up."""
        graph = reference_graph()
        x = np.random.default_rng(7).uniform(0, 1, (32, graph.in_features))
        outs = []
        for mode in ("sequential", "pipelined"):
            alloc = allocate(
                graph, TileInventory(n_tiles=8), duplication="auto", rng=42
            )
            sched = PipelineScheduler(alloc, ScheduleParams(micro_batch=4))
            outs.append(sched.run(x, mode=mode, noisy=True).outputs)
        assert np.array_equal(outs[0], outs[1])

    def test_matches_crossbar_mlp(self, rng):
        """One replica per stage + the traced IR must reproduce the
        existing CrossbarMLP deployment.  CrossbarMLP pre-multiplies
        ``w_scale * input_scale`` where the stage multiplies twice, so
        agreement is to the last ulp rather than bit-exact."""
        mlp = MLP((16, 24, 12, 5), rng=rng)
        calib = rng.uniform(0, 1, (32, 16))
        x = rng.uniform(0, 1, (20, 16))
        ref = CrossbarMLP(mlp, calib, rng=0).forward_batch(x, noisy=False)
        graph = trace_mlp(mlp, calib)
        alloc = allocate(graph, TileInventory(n_tiles=3), rng=0)
        out = (
            PipelineScheduler(alloc, ScheduleParams(micro_batch=20))
            .run(x, mode="pipelined")
            .outputs
        )
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-14)

    def test_matches_crossbar_cnn_exactly(self, rng):
        cnn = SimpleCNN(rng=rng)
        calib = rng.uniform(0, 1, (20, 8, 8))
        imgs = rng.uniform(0, 1, (10, 8, 8))
        ref = CrossbarCNN(cnn, calib, rng=0).forward_batch(imgs, noisy=False)
        graph = trace_cnn(cnn, calib)
        alloc = allocate(graph, TileInventory(n_tiles=4), rng=0)
        out = (
            PipelineScheduler(alloc, ScheduleParams(micro_batch=10))
            .run(imgs, mode="pipelined")
            .outputs
        )
        assert np.array_equal(out, ref)


class TestTiming:
    def test_pipelining_beats_sequential(self):
        _, alloc, x = _mlp_setup(duplication="none", n_tiles=4)
        sched = PipelineScheduler(alloc, ScheduleParams(micro_batch=4))
        seq = sched.run(x, mode="sequential")
        pipe = sched.run(x, mode="pipelined")
        assert pipe.makespan < seq.makespan
        assert pipe.throughput > seq.throughput

    def test_single_microbatch_modes_agree(self):
        """With one micro-batch there is nothing to overlap: both modes
        must produce the same makespan."""
        _, alloc, x = _mlp_setup(duplication="none", n_tiles=4)
        sched = PipelineScheduler(alloc, ScheduleParams(micro_batch=32))
        seq = sched.run(x, mode="sequential")
        pipe = sched.run(x, mode="pipelined")
        assert seq.makespan == pytest.approx(pipe.makespan)

    def test_duplication_speeds_up_bottleneck(self):
        """Replicating the conv stage must raise pipelined throughput."""
        graph = reference_conv_graph()
        imgs = np.random.default_rng(3).uniform(0, 1, (16, 8, 8))
        results = {}
        for dup in ("none", "auto"):
            alloc = allocate(
                graph, TileInventory(n_tiles=16), duplication=dup, rng=0
            )
            sched = PipelineScheduler(alloc, ScheduleParams(micro_batch=2))
            results[dup] = sched.run(imgs, mode="pipelined")
        assert (
            results["auto"].throughput > 1.5 * results["none"].throughput
        )

    def test_sequential_buffers_deeper_than_pipelined(self):
        _, alloc, x = _mlp_setup(duplication="none", n_tiles=4)
        sched = PipelineScheduler(alloc, ScheduleParams(micro_batch=4))
        seq = sched.run(x, mode="sequential")
        pipe = sched.run(x, mode="pipelined")
        assert max(seq.buffer_peaks) >= max(pipe.buffer_peaks)
        # Layer-sequential stages (nearly) the whole batch between layers
        # (the last micro-batch hands off at the barrier instant).
        assert max(seq.buffer_peaks) >= seq.n_microbatches - 1

    def test_utilization_bounds(self):
        _, alloc, x = _mlp_setup()
        res = PipelineScheduler(alloc, ScheduleParams(micro_batch=4)).run(x)
        assert 0 < res.utilization() <= 1
        for u in res.stage_utilization():
            assert 0 < u <= 1

    def test_steady_state_at_least_end_to_end(self):
        _, alloc, x = _mlp_setup()
        res = PipelineScheduler(alloc, ScheduleParams(micro_batch=4)).run(x)
        # Steady state excludes ramp-up, so it can only be faster.
        assert res.steady_state_throughput >= res.throughput


class TestAccounting:
    def test_energy_is_schedule_invariant(self):
        """Both modes do the same compute and the same transfers, so the
        charged categories must match almost exactly."""
        graph = reference_graph()
        x = np.random.default_rng(7).uniform(0, 1, (32, graph.in_features))
        cats = {}
        for mode in ("sequential", "pipelined"):
            alloc = allocate(
                graph, TileInventory(n_tiles=8), duplication="auto", rng=42
            )
            sched = PipelineScheduler(alloc, ScheduleParams(micro_batch=4))
            cats[mode] = sched.run(x, mode=mode).categories
        assert set(cats["sequential"]) == set(cats["pipelined"])
        for name, entry in cats["sequential"].items():
            assert entry["energy"] == pytest.approx(
                cats["pipelined"][name]["energy"]
            )

    def test_report_conserves(self):
        _, alloc, x = _mlp_setup()
        res = PipelineScheduler(alloc, ScheduleParams(micro_batch=4)).run(x)
        report = res.report("pipeline_test")
        report.validate()  # fractions sum to 1, nothing negative
        assert report.energy_fractions()
        assert sum(report.energy_fractions().values()) == pytest.approx(1.0)
        assert "interconnect" in report.categories
        assert report.counters["pipeline.transfer.bytes"] > 0
        assert report.counters["pipeline.tile_busy_s"] > 0
        assert report.area  # machine area attached

    def test_run_costs_exclude_programming(self):
        """The per-run report covers the inference phase only; the
        allocation-time programming charge stays out of the delta."""
        _, alloc, x = _mlp_setup()
        res = PipelineScheduler(alloc, ScheduleParams(micro_batch=4)).run(x)
        assert "programming" not in res.categories
        assert "programming" in alloc.total_costs().categories

    def test_side_counters_reach_enclosing_scope(self):
        _, alloc, x = _mlp_setup()
        sched = PipelineScheduler(alloc, ScheduleParams(micro_batch=4))
        with telemetry.scoped() as scope:
            sched.run(x)
        counters = scope.snapshot(include_timers=False)["counters"]
        assert counters["pipeline.samples"] == 32
        assert counters["pipeline.transfer.bytes"] > 0
        assert counters["pipeline.tile_busy_s"] > 0
        assert any(k.startswith("pipeline.stage.") for k in counters)

    def test_transfer_bytes_match_payloads(self):
        graph = reference_graph()
        alloc = allocate(graph, TileInventory(n_tiles=4), rng=0)
        x = np.random.default_rng(7).uniform(0, 1, (8, graph.in_features))
        sched = PipelineScheduler(alloc, ScheduleParams(micro_batch=8))
        res = sched.run(x)
        widths = [graph.in_features] + [n.out_features for n in graph]
        expected = sum(w * 8 * 2 for w in widths)  # 2 B/value, batch 8
        assert res.transfer_bytes == expected


class TestValidation:
    def test_bad_mode_rejected(self):
        _, alloc, x = _mlp_setup()
        with pytest.raises(ValueError, match="mode"):
            PipelineScheduler(alloc).run(x, mode="dataflow")

    def test_empty_batch_rejected(self):
        graph, alloc, _ = _mlp_setup()
        with pytest.raises(ValueError, match="at least one"):
            PipelineScheduler(alloc).run(
                np.empty((0, graph.in_features))
            )

    def test_bad_micro_batch_rejected(self):
        with pytest.raises(ValueError, match="micro_batch"):
            ScheduleParams(micro_batch=0)
