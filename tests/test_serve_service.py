"""Tests for the in-process simulation service (dispatch, caching,
admission control, per-request reports)."""

import asyncio
import hashlib
import json

import numpy as np
import pytest

from repro.serve import (
    BadRequestError,
    QueueFullError,
    ServiceConfig,
    SimulationService,
)
from repro.utils.telemetry import RunReport

# Small-but-real deployment: wire_resistance > 0 puts every tile on the
# circuit-accurate LU path, whose batched execution is row-independent —
# the property that makes coalesced inference bit-identical.
MODEL = {
    "n_samples": 120,
    "n_features": 16,
    "n_classes": 4,
    "hidden": [8],
    "epochs": 4,
    "wire_resistance": 1.0,
}

SWEEP = {"yields": [1.0, 0.8], "trials": 1, "epochs": 4, "n_samples": 120}

ECC = {
    "codes": ["secded", "bch"],
    "yields": [0.999, 0.99],
    "mc_words": 256,
    "trials": 1,
}

ATTENTION = {
    "seqs": [4],
    "d_heads": [4],
    "micro_batches": [2],
    "d_model": 8,
    "batch": 8,
}

TRAIN = {"lives": [8.0], "drift_nus": [0.01], "epochs": 2}

#: One small request per sweep-engine kind.  dse's 16 tiles fit the cnn;
#: an infeasible tile count would charge nothing.
SWEEP_ENGINE_JOBS = {
    "sweep": SWEEP,
    "dse": {
        "tile_counts": [16],
        "duplication_modes": ["none"],
        "batch_sizes": [16],
    },
    "ecc": ECC,
    "attention": ATTENTION,
    "train": TRAIN,
}


def run(coro):
    return asyncio.run(coro)


def make_service(**overrides):
    defaults = dict(batch_window_s=0.01, max_batch=8)
    defaults.update(overrides)
    return SimulationService(ServiceConfig(**defaults))


def inputs(n, seed=0):
    return np.random.default_rng(seed).uniform(0, 1, size=(n, 16))


def infer_request(x_row, model=MODEL):
    return {"kind": "infer", "params": {"model": model, "x": [list(x_row)]}}


class TestInfer:
    def test_concurrent_infers_coalesce_and_demux_bit_identically(self):
        async def main():
            svc = make_service()
            xs = inputs(6)
            batched = await asyncio.gather(
                *[svc.submit(infer_request(x)) for x in xs]
            )
            serial_svc = make_service(batch_window_s=0.0, max_batch=1)
            serial = [await serial_svc.submit(infer_request(x)) for x in xs]
            return svc, batched, serial

        svc, batched, serial = run(main())
        assert svc.batcher.stats.coalesced_flushes >= 1
        assert svc.batcher.stats.flushes < len(batched)
        for b, s in zip(batched, serial):
            assert b["ok"] and s["ok"]
            # Bit-identical, not approximately equal: the cached/batched
            # serving path must never change answers.
            assert b["result"]["logits"] == s["result"]["logits"]
            assert b["result"]["prediction"] == s["result"]["prediction"]

    def test_warm_infer_is_a_results_cache_hit(self):
        async def main():
            svc = make_service()
            x = inputs(1)[0]
            cold = await svc.submit(infer_request(x))
            warm = await svc.submit(infer_request(x))
            return cold, warm

        cold, warm = run(main())
        assert cold["cache"] == "miss"
        assert warm["cache"] == "hit"
        assert warm["result"] == cold["result"]
        assert warm["report"] == cold["report"]

    def test_model_artifact_is_reused_across_requests(self):
        async def main():
            svc = make_service()
            xs = inputs(3)
            for x in xs:
                await svc.submit(infer_request(x))
            return svc

        svc = run(main())
        stats = svc.artifacts.stats()
        assert stats["misses"] == 1       # deployed once
        assert stats["hits"] == 2         # reused twice
        assert stats["size"] == 1

    def test_per_request_report_is_conservation_valid(self):
        async def main():
            svc = make_service()
            resps = await asyncio.gather(
                *[svc.submit(infer_request(x)) for x in inputs(4)]
            )
            return resps

        for resp in run(main()):
            report = RunReport.from_dict(resp["report"])
            report.validate()
            assert report.total_energy > 0

    def test_coalesced_reports_sum_to_solo_total(self):
        """Row-share apportioning conserves cost: the coalesced requests'
        energies sum to what the same rows cost when run serially."""

        async def main():
            svc = make_service()
            xs = inputs(4, seed=3)
            batched = await asyncio.gather(
                *[svc.submit(infer_request(x)) for x in xs]
            )
            serial_svc = make_service(batch_window_s=0.0, max_batch=1)
            serial = [await serial_svc.submit(infer_request(x)) for x in xs]
            return batched, serial

        batched, serial = run(main())
        batched_total = sum(r["report"]["totals"]["energy"] for r in batched)
        serial_total = sum(r["report"]["totals"]["energy"] for r in serial)
        assert batched_total == pytest.approx(serial_total, rel=1e-9)

    def test_infer_input_validation(self):
        async def main():
            svc = make_service()
            with pytest.raises(BadRequestError, match="requires 'x'"):
                await svc.submit({"kind": "infer", "params": {"model": MODEL}})
            with pytest.raises(BadRequestError, match="unknown infer"):
                await svc.submit(
                    {"kind": "infer", "params": {"x": [[0.1]], "bogus": 1}}
                )

        run(main())


class TestSweepAndDse:
    def test_sweep_cold_then_warm_bit_identical(self):
        async def main():
            svc = make_service()
            cold = await svc.submit({"kind": "sweep", "params": SWEEP})
            warm = await svc.submit({"kind": "sweep", "params": SWEEP})
            return cold, warm

        cold, warm = run(main())
        assert cold["cache"] == "miss" and warm["cache"] == "hit"
        assert cold["result"] == warm["result"]
        assert cold["report"] == warm["report"]
        assert cold["result"]["rows"][0]["yield"] == 1.0
        report = RunReport.from_dict(cold["report"])
        report.validate()
        assert report.total_energy > 0

    def test_workers_stays_out_of_the_cache_key(self):
        """Worker count never changes results (deterministic sweep
        engine), so it must not fork a cache entry."""

        async def main():
            svc = make_service()
            cold = await svc.submit(
                {"kind": "sweep", "params": {**SWEEP, "workers": 0}}
            )
            warm = await svc.submit(
                {"kind": "sweep", "params": {**SWEEP, "workers": 2}}
            )
            return cold, warm

        cold, warm = run(main())
        assert warm["cache"] == "hit"
        assert warm["result"] == cold["result"]

    def test_nested_float_config_difference_misses(self):
        """Satellite regression: a sweep config differing only in one
        nested float must not be served from the other's entry."""
        import math

        async def main():
            svc = make_service()
            a = await svc.submit({"kind": "sweep", "params": SWEEP})
            bumped = dict(
                SWEEP, yields=[1.0, math.nextafter(0.8, 1.0)]
            )
            b = await svc.submit({"kind": "sweep", "params": bumped})
            return a, b

        a, b = run(main())
        assert a["cache"] == "miss"
        assert b["cache"] == "miss"  # NOT a hit despite ulp-level diff

    def test_dse_runs_and_caches(self):
        async def main():
            svc = make_service()
            params = {
                "tile_counts": [4, 8],
                "duplication_modes": ["none"],
                "batch_sizes": [16],
            }
            cold = await svc.submit({"kind": "dse", "params": params})
            warm = await svc.submit({"kind": "dse", "params": params})
            return cold, warm

        cold, warm = run(main())
        assert cold["cache"] == "miss" and warm["cache"] == "hit"
        assert len(cold["result"]["rows"]) == 2
        assert cold["result"] == warm["result"]
        RunReport.from_dict(cold["report"]).validate()

    def test_unknown_sweep_param_rejected(self):
        async def main():
            svc = make_service()
            with pytest.raises(BadRequestError, match="unknown sweep"):
                await svc.submit(
                    {"kind": "sweep", "params": {"trails": 3}}  # typo
                )

        run(main())

    def test_dse_response_carries_pareto_analysis(self):
        async def main():
            svc = make_service()
            return await svc.submit(
                {
                    "kind": "dse",
                    "params": {
                        "tile_counts": [8],
                        "duplication_modes": ["none"],
                        "batch_sizes": [16],
                        "adc_bits": [4, 8],
                    },
                }
            )

        response = run(main())
        pareto = response["result"]["pareto"]
        assert pareto["objectives"] == [
            "accuracy", "energy", "area", "throughput",
        ]
        assert 1 <= len(pareto["front"]) <= pareto["feasible_points"]
        assert pareto["knee"] is not None
        assert set(pareto["sensitivity"]) == {
            "tiles", "duplication", "batch", "adc_bits",
        }
        # Front rows flag the knee so clients need no re-derivation.
        assert sum(1 for r in pareto["front"] if r["knee"]) == 1

    def test_bad_dse_objectives_rejected(self):
        async def main():
            svc = make_service()
            with pytest.raises(BadRequestError, match="objectives"):
                await svc.submit(
                    {"kind": "dse", "params": {"objectives": ["latency"]}}
                )
            return svc

        # Rejected before the results cache is consulted, so before any
        # grid point runs.
        assert run(main()).results_misses == 0


class TestJobKinds:
    # Results-cache key of each kind's all-defaults request.  A moved or
    # retyped default (list vs tuple, int vs float) changes the key and
    # orphans every cached result of that kind.
    @pytest.mark.parametrize(
        "kind, digest",
        [
            ("sweep", "303455be890b587c55adb46e2802b441"),
            ("dse", "7519813cf3cffed6510abac87158c6d5"),
            ("pipeline", "d6deaa054b6f2ab823cdaea856a30086"),
            ("ecc", "1ee205c5b6dc394a584a98e25292be6e"),
            ("attention", "f4af0afa9166ec673e87fd665f4c1df4"),
            ("train", "8be4c1f982576524201a18a319cd40da"),
        ],
    )
    def test_default_request_key_is_pinned(self, kind, digest):
        async def main():
            svc = make_service()
            # Served from an entry planted under the pinned key, so
            # nothing is computed.
            svc.results.put((kind, digest), {"result": kind, "report": {}})
            return await svc.submit({"kind": kind})

        response = run(main())
        assert (response["cache"], response["result"]) == ("hit", kind)

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("sweep", {"trials": 0}),
            ("dse", {"tile_counts": [0]}),
            ("pipeline", {"tiles": 0}),
            ("ecc", {"codes": ["rs255"]}),
            ("attention", {"seqs": [0]}),
            ("train", {"backend": "tpu"}),
        ],
    )
    def test_bad_job_input_is_a_bad_request(self, kind, params):
        async def main():
            svc = make_service()
            with pytest.raises(BadRequestError, match=f"bad {kind} request"):
                await svc.submit({"kind": kind, "params": params})

        run(main())

    @pytest.mark.parametrize("kind", sorted(SWEEP_ENGINE_JOBS))
    def test_served_job_is_the_same_at_every_worker_count(self, kind):
        async def served(workers):
            svc = make_service()
            params = {**SWEEP_ENGINE_JOBS[kind], "workers": workers}
            response = await svc.submit({"kind": kind, "params": params})
            return [
                json.dumps(response[field], sort_keys=True)
                for field in ("result", "report")
            ]

        serial = run(served(0))
        assert run(served(2)) == serial
        assert json.loads(serial[1])["categories"]

    # sha256 of the served report's JSON.  Folding each job's counters in
    # the sweep engine must leave these reports bit-for-bit unchanged.
    @pytest.mark.parametrize("workers", (0, 2))
    @pytest.mark.parametrize(
        "kind, digest",
        [
            ("sweep", "ac47a276cc0a299557ab1a7a56cce27b0a119677c5aa910128a42a8e2e4de708"),
            ("ecc", "e09717f3ae1a3a81cae598d3c40cf9516e77ae5c6dcc49dfa53909f21581b113"),
        ],
    )
    def test_served_report_is_pinned(self, kind, digest, workers):
        async def main():
            svc = make_service()
            params = {**SWEEP_ENGINE_JOBS[kind], "workers": workers}
            return await svc.submit({"kind": kind, "params": params})

        text = RunReport.from_dict(run(main())["report"]).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestEnergyModelCacheKeys:
    """Static and value-aware runs of the same config must never share
    a warm cache hit: the parsed spec is part of every result key."""

    DSE = {
        "tile_counts": [8],
        "duplication_modes": ["none"],
        "batch_sizes": [16],
    }

    def test_dse_energy_model_forks_the_cache_key(self):
        async def main():
            svc = make_service()
            static = await svc.submit({"kind": "dse", "params": dict(self.DSE)})
            aware = await svc.submit(
                {
                    "kind": "dse",
                    "params": dict(self.DSE, energy_model="value_aware"),
                }
            )
            aware_warm = await svc.submit(
                {
                    "kind": "dse",
                    "params": dict(self.DSE, energy_model="value_aware"),
                }
            )
            return static, aware, aware_warm

        static, aware, aware_warm = run(main())
        assert static["cache"] == "miss"
        assert aware["cache"] == "miss"  # never a hit off the static entry
        assert aware_warm["cache"] == "hit"
        assert aware_warm["result"] == aware["result"]
        energies = [
            r["result"]["rows"][0]["energy_per_sample"]
            for r in (static, aware)
        ]
        assert energies[0] != energies[1]

    def test_equivalent_energy_model_spellings_share_a_key(self):
        async def main():
            svc = make_service()
            by_name = await svc.submit(
                {
                    "kind": "dse",
                    "params": dict(self.DSE, energy_model="value_aware"),
                }
            )
            by_dict = await svc.submit(
                {
                    "kind": "dse",
                    "params": dict(
                        self.DSE, energy_model={"name": "value_aware"}
                    ),
                }
            )
            return by_name, by_dict

        by_name, by_dict = run(main())
        assert by_name["cache"] == "miss"
        assert by_dict["cache"] == "hit"  # canonicalized spec, same key

    def test_infer_energy_model_forks_key_but_not_answers(self):
        async def main():
            svc = make_service()
            x = inputs(1)[0]
            static = await svc.submit(infer_request(x))
            aware = await svc.submit(
                {
                    "kind": "infer",
                    "params": {
                        "model": MODEL,
                        "x": [list(x)],
                        "energy_model": "value_aware",
                    },
                }
            )
            return static, aware

        static, aware = run(main())
        assert static["cache"] == "miss"
        assert aware["cache"] == "miss"  # not served from the static entry
        # Pricing must never change behaviour, only the energy ledger.
        assert static["result"]["logits"] == aware["result"]["logits"]
        s_rep = RunReport.from_dict(static["report"])
        a_rep = RunReport.from_dict(aware["report"])
        a_rep.validate()
        assert a_rep.total_energy != s_rep.total_energy

    def test_pipeline_energy_model_forks_the_cache_key(self):
        async def main():
            svc = make_service()
            params = {"tiles": 8, "batch": 16}
            static = await svc.submit({"kind": "pipeline", "params": params})
            aware = await svc.submit(
                {
                    "kind": "pipeline",
                    "params": dict(params, energy_model="value_aware"),
                }
            )
            return static, aware

        static, aware = run(main())
        assert static["cache"] == "miss"
        assert aware["cache"] == "miss"

    def test_bad_energy_model_rejected(self):
        async def main():
            svc = make_service()
            with pytest.raises(BadRequestError, match="energy_model"):
                await svc.submit(
                    {
                        "kind": "dse",
                        "params": dict(self.DSE, energy_model="quantum"),
                    }
                )

        run(main())


class TestPipeline:
    def test_pipeline_reuses_graph_and_allocation_artifacts(self):
        async def main():
            svc = make_service()
            base = {"workload": "cnn", "tiles": 8, "batch": 16}
            first = await svc.submit({"kind": "pipeline", "params": base})
            other_tiles = await svc.submit(
                {"kind": "pipeline", "params": {**base, "tiles": 12}}
            )
            warm = await svc.submit({"kind": "pipeline", "params": base})
            return first, other_tiles, warm

        first, other_tiles, warm = run(main())
        assert first["result"]["artifact_hits"] == {
            "graph": False,
            "alloc": False,
        }
        # Same workload, different tile budget: the traced graph is
        # reused, the allocation is not.
        assert other_tiles["result"]["artifact_hits"] == {
            "graph": True,
            "alloc": False,
        }
        assert warm["cache"] == "hit"
        assert warm["result"] == first["result"]
        assert first["result"]["throughput"] > 0
        RunReport.from_dict(first["report"]).validate()


class TestFaultsAndInvalidation:
    def test_fault_injection_invalidates_stale_results(self):
        """Satellite regression: after mutating a deployed model, the
        service must not serve pre-mutation cached results or reuse the
        stale deployment for new inference."""

        async def main():
            svc = make_service()
            x = inputs(1, seed=7)[0]
            before = await svc.submit(infer_request(x))
            faults = await svc.submit(
                {
                    "kind": "faults",
                    "params": {"model": MODEL, "cell_yield": 0.8, "seed": 3},
                }
            )
            after = await svc.submit(infer_request(x))
            return before, faults, after

        before, faults, after = run(main())
        assert before["cache"] == "miss"
        assert faults["ok"] and faults["result"]["fault_rate"] > 0
        assert faults["result"]["invalidated_results"] >= 1
        # The old result was swept out: this is a recompute, not a hit.
        assert after["cache"] == "miss"
        # And it ran on the faulted deployment, not a stale artifact.
        assert after["result"]["logits"] != before["result"]["logits"]
        assert (
            after["result"]["model_version"]
            == before["result"]["model_version"] + 1
        )

    def test_fault_injection_invalidates_lu_factorizations(self):
        """The deployed tiles' LU caches must be flushed on fault
        injection — conductances changed, factorizations are stale."""

        async def main():
            svc = make_service()
            x = inputs(1, seed=8)[0]
            await svc.submit(infer_request(x))
            artifact, hit = svc.model_artifact(MODEL)
            assert hit
            tiles = [
                core
                for layer in artifact.deployed.layers
                for row in layer.accelerator.tiles
                for core in row
            ]
            cached_before = sum(t._ir_solver.cache_len for t in tiles)
            await svc.submit(
                {
                    "kind": "faults",
                    "params": {"model": MODEL, "cell_yield": 0.8, "seed": 3},
                }
            )
            cached_after = sum(t._ir_solver.cache_len for t in tiles)
            return cached_before, cached_after

        cached_before, cached_after = run(main())
        assert cached_before > 0
        assert cached_after == 0

    def test_invalidate_model_drops_artifact_and_results(self):
        async def main():
            svc = make_service()
            x = inputs(1, seed=9)[0]
            await svc.submit(infer_request(x))
            dropped = svc.invalidate_model(MODEL)
            after = await svc.submit(infer_request(x))
            return dropped, after

        dropped, after = run(main())
        assert dropped == {"artifacts": 1, "results": 1}
        assert after["cache"] == "miss"  # redeployed and recomputed

    def test_faults_validation(self):
        async def main():
            svc = make_service()
            with pytest.raises(BadRequestError, match="cell_yield"):
                await svc.submit(
                    {"kind": "faults", "params": {"cell_yield": 1.5}}
                )

        run(main())


class TestEcc:
    def test_ecc_cold_then_warm_bit_identical(self):
        async def main():
            svc = make_service()
            cold = await svc.submit({"kind": "ecc", "params": ECC})
            warm = await svc.submit({"kind": "ecc", "params": ECC})
            return cold, warm

        cold, warm = run(main())
        assert cold["cache"] == "miss" and warm["cache"] == "hit"
        assert cold["result"] == warm["result"]
        assert cold["report"] == warm["report"]
        rows = cold["result"]["rows"]
        assert len(rows) == 2 * 2 * 3  # codes x yields x scenarios
        advice = cold["result"]["advice"]
        assert advice["front"]
        assert advice["knee"]["code"] in ("secded", "bch")
        assert advice["recommendations"]
        report = RunReport.from_dict(cold["report"])
        report.validate()
        assert report.total_energy > 0

    def test_ecc_workers_stays_out_of_the_cache_key(self):
        async def main():
            svc = make_service()
            cold = await svc.submit(
                {"kind": "ecc", "params": {**ECC, "workers": 0}}
            )
            warm = await svc.submit(
                {"kind": "ecc", "params": {**ECC, "workers": 2}}
            )
            return cold, warm

        cold, warm = run(main())
        assert warm["cache"] == "hit"
        assert warm["result"] == cold["result"]

    def test_ecc_energy_model_forks_the_cache_key(self):
        async def main():
            svc = make_service()
            static = await svc.submit({"kind": "ecc", "params": ECC})
            aware = await svc.submit(
                {
                    "kind": "ecc",
                    "params": {**ECC, "energy_model": "value_aware"},
                }
            )
            return static, aware

        static, aware = run(main())
        assert static["cache"] == "miss"
        assert aware["cache"] == "miss"  # never shares the static entry
        # Pricing changes costs, never statistics.
        for s, a in zip(static["result"]["rows"], aware["result"]["rows"]):
            assert a["coverage"] == s["coverage"]
            assert a["energy_per_word_J"] <= s["energy_per_word_J"]

    def test_ecc_validation(self):
        async def main():
            svc = make_service()
            with pytest.raises(BadRequestError, match="unknown ecc"):
                await svc.submit(
                    {"kind": "ecc", "params": {"codez": ["secded"]}}
                )

        run(main())


class TestWorkloadKinds:
    def test_attention_cold_then_warm_bit_identical(self):
        async def main():
            svc = make_service()
            cold = await svc.submit({"kind": "attention", "params": ATTENTION})
            warm = await svc.submit({"kind": "attention", "params": ATTENTION})
            return cold, warm

        cold, warm = run(main())
        assert cold["cache"] == "miss" and warm["cache"] == "hit"
        assert cold["result"] == warm["result"]
        rows = cold["result"]["rows"]
        assert rows[0]["feasible"] is True
        assert rows[0]["bit_identical"] is True
        RunReport.from_dict(cold["report"]).validate()

    def test_train_cold_then_warm_bit_identical(self):
        async def main():
            svc = make_service()
            cold = await svc.submit({"kind": "train", "params": TRAIN})
            warm = await svc.submit({"kind": "train", "params": TRAIN})
            return cold, warm

        cold, warm = run(main())
        assert cold["cache"] == "miss" and warm["cache"] == "hit"
        assert cold["result"] == warm["result"]
        rows = cold["result"]["rows"]
        assert rows[0]["total_pulses"] > 0
        report = RunReport.from_dict(cold["report"])
        report.validate()
        assert report.total_energy > 0  # programming energy was charged

    def test_energy_model_forks_workload_cache_keys(self):
        """Regression: the energy-model spec is part of both workload
        kinds' result fingerprints — a value-aware run must never be
        served a static entry (and vice versa)."""

        async def main():
            svc = make_service()
            results = {}
            for kind, params in (("attention", ATTENTION), ("train", TRAIN)):
                static = await svc.submit({"kind": kind, "params": params})
                aware = await svc.submit(
                    {
                        "kind": kind,
                        "params": {**params, "energy_model": "value_aware"},
                    }
                )
                again = await svc.submit(
                    {
                        "kind": kind,
                        "params": {**params, "energy_model": "value_aware"},
                    }
                )
                results[kind] = (static, aware, again)
            return results

        results = run(main())
        for kind, (static, aware, again) in results.items():
            assert static["cache"] == "miss"
            assert aware["cache"] == "miss", kind
            assert again["cache"] == "hit"
            assert again["result"] == aware["result"]

    def test_workers_stays_out_of_workload_cache_keys(self):
        async def main():
            svc = make_service()
            cold = await svc.submit(
                {"kind": "attention", "params": {**ATTENTION, "workers": 0}}
            )
            warm = await svc.submit(
                {"kind": "attention", "params": {**ATTENTION, "workers": 2}}
            )
            return cold, warm

        cold, warm = run(main())
        assert warm["cache"] == "hit"
        assert warm["result"] == cold["result"]

    def test_workload_validation(self):
        async def main():
            svc = make_service()
            with pytest.raises(BadRequestError, match="unknown attention"):
                await svc.submit(
                    {"kind": "attention", "params": {"seqz": [4]}}
                )

        run(main())


class TestAdmissionControl:
    def test_queue_full_is_a_structured_rejection(self):
        async def main():
            svc = make_service(
                max_inflight=2, batch_window_s=60.0, max_batch=100
            )
            xs = inputs(3, seed=11)
            parked = [
                asyncio.ensure_future(svc.submit(infer_request(x)))
                for x in xs[:2]
            ]
            await asyncio.sleep(0.02)
            assert svc.inflight == 2
            with pytest.raises(QueueFullError) as excinfo:
                await svc.submit(infer_request(xs[2]))
            payload = excinfo.value.payload()
            svc.batcher.flush_all()
            done = await asyncio.gather(*parked)
            return svc, payload, done

        svc, payload, done = run(main())
        assert payload["code"] == "queue_full"
        assert payload["inflight"] == 2
        assert payload["limit"] == 2
        assert all(r["ok"] for r in done)
        assert svc.requests_rejected == 1
        assert svc.inflight == 0

    def test_rejected_requests_free_no_slots(self):
        async def main():
            svc = make_service(max_inflight=1)
            await svc.submit({"kind": "stats"})
            return svc

        svc = run(main())
        assert svc.inflight == 0
        assert svc.requests_completed == 1


class TestStatsAndLifetime:
    def test_lifetime_report_merges_computed_requests_only(self):
        async def main():
            svc = make_service()
            x = inputs(1, seed=13)[0]
            cold = await svc.submit(infer_request(x))
            await svc.submit(infer_request(x))  # warm hit: no new work
            stats = await svc.submit({"kind": "stats"})
            return cold, stats

        cold, stats = run(main())
        lifetime = RunReport.from_dict(stats["report"])
        lifetime.validate()
        # One computed infer -> lifetime total equals that one request.
        assert lifetime.total_energy == pytest.approx(
            cold["report"]["totals"]["energy"]
        )
        result = stats["result"]
        assert result["requests_by_kind"]["infer"] == 2
        assert result["results_cache"]["request_hits"] == 1
        assert result["batcher"]["requests"] == 1

    def test_failed_requests_are_accounted(self):
        """Every admitted request ends up completed, rejected, failed or
        still in flight."""

        async def main():
            svc = make_service()
            for kind, params in (
                ("train", {"epochs": -3}),
                ("pipeline", {"bogus": 1}),
                ("sweep", {"trials": 0}),
                ("dse", {"tile_counts": [0]}),
            ):
                with pytest.raises(BadRequestError):
                    await svc.submit({"kind": kind, "params": params})
            return svc.stats()

        stats = run(main())
        assert stats["requests_total"] == 4
        assert stats["requests_failed"] == {"bad_request": 4}
        assert stats["requests_total"] == (
            stats["requests_completed"]
            + stats["requests_rejected"]
            + sum(stats["requests_failed"].values())
            + stats["inflight"]
        )

    def test_bad_kind_and_shape_rejections(self):
        async def main():
            svc = make_service()
            with pytest.raises(BadRequestError, match="unknown request kind"):
                await svc.submit({"kind": "noop"})
            with pytest.raises(BadRequestError, match="JSON object"):
                await svc.submit([1, 2, 3])
            with pytest.raises(BadRequestError, match="params"):
                await svc.submit({"kind": "stats", "params": [1]})

        run(main())
