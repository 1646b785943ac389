"""Energy/latency/data-movement accounting for the machine models."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.utils import telemetry
from repro.utils.validation import check_non_negative


@dataclass
class OperationCost:
    """Cost of one priced event (what every ``charge_*`` returns)."""

    energy: float = 0.0        # J
    latency: float = 0.0       # s
    data_moved: float = 0.0    # bytes crossing the memory boundary

    def __post_init__(self) -> None:
        check_non_negative("energy", self.energy)
        check_non_negative("latency", self.latency)
        check_non_negative("data_moved", self.data_moved)

    def __add__(self, other: "OperationCost") -> "OperationCost":
        return OperationCost(
            energy=self.energy + other.energy,
            latency=self.latency + other.latency,
            data_moved=self.data_moved + other.data_moved,
        )


class CostAccumulator:
    """Running totals with a per-category breakdown.

    ``categories`` has the shape of
    :attr:`repro.utils.telemetry.RunReport.categories`: category ->
    ``{"energy", "latency", "data_moved"}``.  The total is a separate
    running sum in charge order, not a sum over categories.
    """

    def __init__(self) -> None:
        self.categories: Dict[str, Dict[str, float]] = {}
        self._energy = 0.0
        self._latency = 0.0
        self._data_moved = 0.0

    @property
    def total(self) -> OperationCost:
        """Everything charged so far."""
        return OperationCost(self._energy, self._latency, self._data_moved)

    def _fold(
        self, category: str, energy: float, latency: float, data_moved: float
    ) -> None:
        self._energy += energy
        self._latency += latency
        self._data_moved += data_moved
        entry = self.categories.get(category)
        if entry is None:
            entry = self.categories[category] = {
                "energy": 0.0, "latency": 0.0, "data_moved": 0.0
            }
        entry["energy"] += energy
        entry["latency"] += latency
        entry["data_moved"] += data_moved

    def add(self, category: str, cost: OperationCost) -> None:
        """Accumulate ``cost`` under ``category``.

        Every charge is also mirrored into the current telemetry scope
        (:mod:`repro.utils.telemetry`), which is how per-job run reports
        capture energy breakdowns for free.
        """
        self._fold(category, cost.energy, cost.latency, cost.data_moved)
        telemetry.current().charge(
            category, cost.energy, cost.latency, cost.data_moved
        )

    def merge(self, other: "CostAccumulator") -> None:
        """Fold another accumulator's breakdown into this one *without*
        re-mirroring to telemetry (the charges were mirrored when first
        accumulated — aggregation must not double-count them)."""
        for category in sorted(other.categories):
            entry = other.categories[category]
            self._fold(
                category, entry["energy"], entry["latency"], entry["data_moved"]
            )

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Sorted copy of :attr:`categories` for reports/serialization."""
        return {
            name: dict(self.categories[name]) for name in sorted(self.categories)
        }
