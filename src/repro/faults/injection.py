"""Fault injection into crossbar arrays.

The injector turns fault *populations* (rates or yield figures) into
concrete pinned cells on a :class:`~repro.crossbar.array.CrossbarArray`,
keeping a ground-truth :class:`FaultMap` so that test methods
(:mod:`repro.testing`) can be scored for coverage, and fault-tolerance
schemes for recovery quality.

The paper's headline reliability number — "classification accuracy ...
with random stuck-at-0 faults is reduced by 35% when the yield drops to
80%" [38] — is driven through :func:`yield_to_fault_rate` plus
:meth:`FaultInjector.inject_stuck_at`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.crossbar.array import CrossbarArray
from repro.faults.defects import Defect, defect_to_fault
from repro.faults.models import Fault, FaultType
from repro.utils import telemetry
from repro.utils.rng import RNGLike, ensure_rng
from repro.utils.validation import check_probability


def yield_to_fault_rate(cell_yield: float) -> float:
    """Convert cell yield (fraction of good cells) to a fault rate."""
    check_probability("cell_yield", cell_yield)
    return 1.0 - cell_yield


@dataclass
class FaultMap:
    """Ground truth of the injected fault population."""

    shape: Tuple[int, int]
    faults: List[Fault] = field(default_factory=list)

    def add(self, fault: Fault) -> None:
        """Record one injected fault."""
        rows, cols = self.shape
        if not (0 <= fault.row < rows and 0 <= fault.col < cols):
            raise ValueError(
                f"fault at ({fault.row}, {fault.col}) outside {rows}x{cols}"
            )
        self.faults.append(fault)

    @property
    def count(self) -> int:
        """Number of recorded faults."""
        return len(self.faults)

    @property
    def fault_rate(self) -> float:
        """Faulty-cell fraction (distinct cells / array size)."""
        rows, cols = self.shape
        return len(self.cells()) / (rows * cols)

    def cells(self) -> set:
        """Set of distinct faulty cell coordinates."""
        return {(f.row, f.col) for f in self.faults}

    def by_type(self) -> Dict[FaultType, List[Fault]]:
        """Faults grouped by mechanism."""
        groups: Dict[FaultType, List[Fault]] = {}
        for fault in self.faults:
            groups.setdefault(fault.fault_type, []).append(fault)
        return groups

    def mask(self) -> np.ndarray:
        """Boolean (rows, cols) array flagging faulty cells."""
        out = np.zeros(self.shape, dtype=bool)
        for f in self.faults:
            out[f.row, f.col] = True
        return out


class FaultInjector:
    """Injects fault populations into a crossbar and records ground truth."""

    def __init__(self, array: CrossbarArray, rng: RNGLike = None) -> None:
        self.array = array
        self._rng = ensure_rng(rng)
        self.fault_map = FaultMap(shape=array.shape)

    # ------------------------------------------------------------ primitives
    def inject_fault(self, fault: Fault) -> None:
        """Apply one fault to the array (hard faults pin the cell)."""
        levels = self.array.config.levels
        if fault.fault_type is FaultType.STUCK_AT_0:
            self.array.stick_cell(fault.row, fault.col, levels.g_min)
        elif fault.fault_type in (FaultType.STUCK_AT_1, FaultType.OVER_FORMING):
            self.array.stick_cell(fault.row, fault.col, levels.g_max)
        elif fault.fault_type is FaultType.ENDURANCE_WEAROUT:
            g = self.array.conductances()[fault.row, fault.col]
            midpoint = 0.5 * (levels.g_min + levels.g_max)
            extreme = levels.g_max if g >= midpoint else levels.g_min
            self.array.stick_cell(fault.row, fault.col, extreme)
        elif fault.fault_type is FaultType.FABRICATION_VARIATION:
            # Static soft fault: a one-off multiplicative parameter shift.
            factor = float(np.exp(0.3 * self._rng.standard_normal()))
            self.array._g[fault.row, fault.col] *= factor
        # TRANSITION / disturb / coupling faults are behavioural; recording
        # them in the map is enough — test engines query the map for truth
        # and the behavioural processes in faults.models emulate dynamics.
        self.fault_map.add(fault)
        telemetry.current().incr("faults.injected_cells")

    # ------------------------------------------------------------ populations
    def inject_stuck_at(
        self,
        fault_rate: float,
        sa1_fraction: float = 0.0,
    ) -> FaultMap:
        """Inject random stuck-at faults at ``fault_rate``.

        ``sa1_fraction`` splits the population between SA1 (stuck LRS) and
        SA0 (stuck HRS); the default all-SA0 matches the [38] experiment
        the paper quotes.
        """
        check_probability("fault_rate", fault_rate)
        check_probability("sa1_fraction", sa1_fraction)
        rows, cols = self.array.shape
        hit = self._rng.random((rows, cols)) < fault_rate
        hit_rows, hit_cols = np.nonzero(hit)
        # One SA1 coin per hit, all drawn at once in np.nonzero order: the
        # same doubles, and the same final stream, as one draw per hit.
        is_sa1 = (self._rng.random(hit_rows.size) < sa1_fraction).tolist()
        for r, c, sa1 in zip(hit_rows.tolist(), hit_cols.tolist(), is_sa1):
            fault_type = FaultType.STUCK_AT_1 if sa1 else FaultType.STUCK_AT_0
            self.inject_fault(Fault(fault_type, r, c))
        return self.fault_map

    def inject_for_yield(self, cell_yield: float, sa1_fraction: float = 0.0) -> FaultMap:
        """Inject the stuck-at population implied by ``cell_yield``."""
        return self.inject_stuck_at(yield_to_fault_rate(cell_yield), sa1_fraction)

    def inject_exact_count(
        self,
        count: int,
        fault_type: FaultType = FaultType.STUCK_AT_0,
    ) -> FaultMap:
        """Inject exactly ``count`` faults of ``fault_type`` at distinct
        random cells (deterministic population size for benchmarks)."""
        rows, cols = self.array.shape
        if not 0 <= count <= rows * cols:
            raise ValueError(
                f"count must be in [0, {rows * cols}], got {count}"
            )
        flat = self._rng.choice(rows * cols, size=count, replace=False)
        for idx in flat:
            self.inject_fault(Fault(fault_type, int(idx // cols), int(idx % cols)))
        return self.fault_map

    def inject_defects(self, defects: List[Defect]) -> FaultMap:
        """Expand physical defects to faults ([45] mapping) and inject."""
        rows, cols = self.array.shape
        for defect in defects:
            for fault in defect_to_fault(defect, rows, cols):
                self.inject_fault(fault)
        return self.fault_map
