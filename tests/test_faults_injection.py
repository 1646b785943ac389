"""Tests for the fault injector."""

import numpy as np
import pytest

from repro.crossbar.array import CrossbarArray, CrossbarConfig
from repro.faults.defects import Defect, DefectType
from repro.faults.injection import FaultInjector, FaultMap, yield_to_fault_rate
from repro.faults.models import Fault, FaultType


def _array(seed=0, n=32):
    array = CrossbarArray(CrossbarConfig(rows=n, cols=n), rng=seed)
    array.program(np.full((n, n), 5e-5))
    return array


class TestYieldConversion:
    def test_complement(self):
        assert yield_to_fault_rate(0.8) == pytest.approx(0.2)
        assert yield_to_fault_rate(1.0) == 0.0

    def test_bounds(self):
        with pytest.raises(ValueError):
            yield_to_fault_rate(1.1)


class TestFaultMap:
    def test_distinct_cells(self):
        fm = FaultMap(shape=(4, 4))
        fm.add(Fault(FaultType.STUCK_AT_0, 0, 0))
        fm.add(Fault(FaultType.STUCK_AT_1, 0, 0))
        fm.add(Fault(FaultType.STUCK_AT_0, 1, 1))
        assert fm.count == 3
        assert len(fm.cells()) == 2
        assert fm.fault_rate == pytest.approx(2 / 16)

    def test_mask(self):
        fm = FaultMap(shape=(2, 2))
        fm.add(Fault(FaultType.STUCK_AT_0, 1, 0))
        mask = fm.mask()
        assert mask[1, 0] and mask.sum() == 1

    def test_by_type_grouping(self):
        fm = FaultMap(shape=(4, 4))
        fm.add(Fault(FaultType.STUCK_AT_0, 0, 0))
        fm.add(Fault(FaultType.STUCK_AT_1, 1, 1))
        groups = fm.by_type()
        assert len(groups[FaultType.STUCK_AT_0]) == 1

    def test_out_of_bounds_rejected(self):
        fm = FaultMap(shape=(2, 2))
        with pytest.raises(ValueError):
            fm.add(Fault(FaultType.STUCK_AT_0, 2, 0))


class TestInjection:
    def test_sa0_pins_gmin(self):
        array = _array()
        injector = FaultInjector(array, rng=1)
        injector.inject_fault(Fault(FaultType.STUCK_AT_0, 3, 4))
        assert array.conductances()[3, 4] == array.config.levels.g_min

    def test_sa1_pins_gmax(self):
        array = _array()
        injector = FaultInjector(array, rng=1)
        injector.inject_fault(Fault(FaultType.STUCK_AT_1, 3, 4))
        assert array.conductances()[3, 4] == array.config.levels.g_max

    def test_rate_population(self):
        array = _array(n=64)
        injector = FaultInjector(array, rng=2)
        fm = injector.inject_stuck_at(0.1)
        assert fm.fault_rate == pytest.approx(0.1, abs=0.03)

    def test_yield_population(self):
        array = _array(n=64)
        injector = FaultInjector(array, rng=3)
        fm = injector.inject_for_yield(0.8)
        assert fm.fault_rate == pytest.approx(0.2, abs=0.04)

    def test_sa1_fraction_split(self):
        array = _array(n=64)
        injector = FaultInjector(array, rng=4)
        fm = injector.inject_stuck_at(0.2, sa1_fraction=1.0)
        groups = fm.by_type()
        assert FaultType.STUCK_AT_0 not in groups
        assert FaultType.STUCK_AT_1 in groups

    @pytest.mark.parametrize("seed", [0, 7, 123])
    @pytest.mark.parametrize("rate", [0.0, 0.01, 0.3, 1.0])
    @pytest.mark.parametrize("sa1_fraction", [0.0, 0.4, 1.0])
    def test_stuck_at_matches_scalar_coin_loop(self, seed, rate, sa1_fraction):
        """One vector draw of the SA1 coins gives the fault map, the array
        state and the final RNG state of one scalar draw per hit."""
        fast = FaultInjector(_array(n=24), rng=seed)
        fast.inject_stuck_at(rate, sa1_fraction)

        ref = FaultInjector(_array(n=24), rng=seed)
        hit = ref._rng.random(ref.array.shape) < rate
        for r, c in zip(*np.nonzero(hit)):
            is_sa1 = ref._rng.random() < sa1_fraction
            fault_type = FaultType.STUCK_AT_1 if is_sa1 else FaultType.STUCK_AT_0
            ref.inject_fault(Fault(fault_type, int(r), int(c)))

        assert fast.fault_map.faults == ref.fault_map.faults
        assert np.array_equal(fast.array.conductances(), ref.array.conductances())
        assert np.array_equal(fast.array._stuck_mask, ref.array._stuck_mask)
        assert fast._rng.bit_generator.state == ref._rng.bit_generator.state

    def test_exact_count(self):
        array = _array()
        injector = FaultInjector(array, rng=5)
        fm = injector.inject_exact_count(17)
        assert len(fm.cells()) == 17
        assert array.fault_count() == 17

    def test_exact_count_bounds(self):
        array = _array(n=4)
        injector = FaultInjector(array, rng=5)
        with pytest.raises(ValueError):
            injector.inject_exact_count(17)

    def test_defect_injection_expands_lines(self):
        array = _array(n=8)
        injector = FaultInjector(array, rng=6)
        injector.inject_defects([Defect(DefectType.BROKEN_WORDLINE, 2, -1)])
        assert array.fault_count() == 8
        assert np.all(
            array.conductances()[2] == array.config.levels.g_max
        )

    def test_fabrication_variation_shifts_but_not_sticks(self):
        array = _array()
        injector = FaultInjector(array, rng=7)
        g0 = array.conductances()[1, 1]
        injector.inject_fault(Fault(FaultType.FABRICATION_VARIATION, 1, 1))
        assert array.conductances()[1, 1] != pytest.approx(g0)
        assert array.fault_count() == 0  # soft fault, cell not pinned
