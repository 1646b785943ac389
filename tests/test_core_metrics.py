"""Tests for cost accounting."""

import pytest

from repro.core.metrics import CostAccumulator, OperationCost


class TestOperationCost:
    def test_addition(self):
        a = OperationCost(energy=1.0, latency=2.0, data_moved=3.0)
        b = OperationCost(energy=0.5, latency=0.5, data_moved=1.0)
        total = a + b
        assert total.energy == 1.5
        assert total.latency == 2.5
        assert total.data_moved == 4.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            OperationCost(energy=-1)


class TestCostAccumulator:
    def test_categories_tracked(self):
        acc = CostAccumulator()
        acc.add("adc", OperationCost(energy=3.0))
        acc.add("dac", OperationCost(energy=1.0))
        acc.add("adc", OperationCost(energy=2.0))
        assert acc.total.energy == 6.0
        assert acc.categories["adc"]["energy"] == 5.0

    def test_add_does_not_alias_argument(self):
        """Regression: the accumulator must own its breakdown entries —
        mutating the caller's OperationCost after add() must not corrupt
        the recorded totals."""
        acc = CostAccumulator()
        cost = OperationCost(energy=1.0, latency=2.0, data_moved=3.0)
        acc.add("adc", cost)
        cost.energy = 1e9
        cost.latency = 1e9
        assert acc.categories["adc"]["energy"] == 1.0
        assert acc.categories["adc"]["latency"] == 2.0
        assert acc.total.energy == 1.0

    def test_merge_folds_other_accumulator(self):
        a = CostAccumulator()
        a.add("adc", OperationCost(energy=1.0))
        b = CostAccumulator()
        b.add("adc", OperationCost(energy=2.0))
        b.add("dac", OperationCost(energy=4.0))
        a.merge(b)
        assert a.categories["adc"]["energy"] == 3.0
        assert a.categories["dac"]["energy"] == 4.0
        # Source is untouched.
        assert b.categories["adc"]["energy"] == 2.0

    def test_as_dict_sorted_plain(self):
        acc = CostAccumulator()
        acc.add("dac", OperationCost(energy=1.0))
        acc.add("adc", OperationCost(latency=2.0))
        d = acc.as_dict()
        assert list(d) == ["adc", "dac"]
        assert d["dac"] == {"energy": 1.0, "latency": 0.0, "data_moved": 0.0}
