"""Tests for the von-Neumann reference machine (Fig 1a)."""

import numpy as np
import pytest

from repro.core.vonneumann import VonNeumannMachine, VonNeumannParams


class TestVMM:
    def test_result_correct(self, rng):
        machine = VonNeumannMachine()
        w = rng.uniform(-1, 1, (8, 4))
        x = rng.uniform(0, 1, 8)
        assert np.allclose(machine.vmm(x, w), x @ w)

    def test_shape_validation(self):
        machine = VonNeumannMachine()
        with pytest.raises(ValueError, match="shape"):
            machine.vmm(np.zeros(3), np.zeros((4, 2)))


class TestBottleneck:
    """The Fig 1(a) claim: data movement dominates compute."""

    def test_movement_energy_dominates(self, rng):
        machine = VonNeumannMachine()
        w = rng.uniform(-1, 1, (64, 64))
        batch = rng.uniform(0, 1, (8, 64))
        machine.run_workload(batch, w)
        assert machine.report().energy_fractions()["data_movement"] > 0.5

    def test_movement_latency_significant(self, rng):
        machine = VonNeumannMachine()
        w = rng.uniform(-1, 1, (64, 64))
        batch = rng.uniform(0, 1, (8, 64))
        machine.run_workload(batch, w)
        total = machine.costs.total.latency
        movement = machine.costs.categories["data_movement"]["latency"]
        assert movement / total > 0.3

    def test_resident_weights_cut_movement(self, rng):
        w = rng.uniform(-1, 1, (64, 64))
        batch = rng.uniform(0, 1, (8, 64))
        thrashing = VonNeumannMachine()
        thrashing.run_workload(batch, w, weights_resident=False)
        cached = VonNeumannMachine()
        cached.run_workload(batch, w, weights_resident=True)
        assert (
            cached.costs.total.data_moved
            < thrashing.costs.total.data_moved / 4
        )

    def test_resident_result_still_correct(self, rng):
        machine = VonNeumannMachine()
        w = rng.uniform(-1, 1, (16, 8))
        batch = rng.uniform(0, 1, (4, 16))
        out = machine.run_workload(batch, w, weights_resident=True)
        assert np.allclose(out, batch @ w)

    def test_data_moved_accounting(self, rng):
        machine = VonNeumannMachine()
        w = rng.uniform(-1, 1, (16, 8))
        x = rng.uniform(0, 1, 16)
        machine.vmm(x, w)
        # matrix + input + output, 1 byte words.
        assert machine.costs.total.data_moved == 16 * 8 + 16 + 8


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            VonNeumannParams(bus_bandwidth=0)
        with pytest.raises(ValueError):
            VonNeumannParams(alu_parallelism=0)
        with pytest.raises(ValueError):
            VonNeumannParams(word_bytes=0)
