"""Tile allocation: partition a layer graph over a fixed tile inventory.

ISAAC-style accelerators are built from a *fixed* pool of crossbar tiles;
compiling a model means deciding how many tiles each layer gets.  The
allocator reuses the existing single-layer machinery wholesale — every
stage replica is a :class:`~repro.core.accelerator.CIMAccelerator`, so the
differential-pair encoding (:mod:`repro.crossbar.mapping`), the
non-divisible-shape zero-padding and the digital partial-sum accumulation
are exactly the code paths tier-1 already locks down — and adds the two
decisions that only exist at whole-model scope:

* **Tile budgeting** — each stage needs
  ``ceil(rows / tile_rows) * ceil(cols / tile_cols)`` tiles per replica;
  allocation fails loudly (:class:`AllocationError`) when the inventory
  cannot hold the model.
* **Weight duplication** — bottleneck stages (e.g. a conv stage that sees
  ``n_patches`` crossbar inputs per sample) are replicated onto spare
  tiles; replicas serve interleaved micro-batches round-robin, dividing
  the stage's effective service time.  ``duplication="auto"`` greedily
  duplicates the stage with the highest per-replica load until the
  inventory is exhausted — the ISAAC balancing rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.accelerator import AcceleratorParams, CIMAccelerator
from repro.core.metrics import CostAccumulator
from repro.pipeline.ir import LayerGraph, LayerNode, _apply_activation
from repro.utils.rng import RNGLike, spawn_rngs

__all__ = [
    "TileInventory",
    "AllocationError",
    "StageAllocation",
    "Allocation",
    "tiles_required",
    "allocate",
]


class AllocationError(ValueError):
    """The tile inventory cannot hold the requested mapping."""


@dataclass
class TileInventory:
    """The machine's tile pool: how many crossbars, and their geometry."""

    n_tiles: int = 16
    tile_rows: int = 64
    tile_cols: int = 32
    adc_bits: int = 8

    def __post_init__(self) -> None:
        if self.n_tiles < 1:
            raise ValueError(f"n_tiles must be >= 1, got {self.n_tiles}")
        if self.tile_rows < 1 or self.tile_cols < 1:
            raise ValueError("tile dimensions must be >= 1")
        if self.adc_bits < 1:
            raise ValueError(f"adc_bits must be >= 1, got {self.adc_bits}")

    def accelerator_params(self) -> AcceleratorParams:
        """The per-replica tiling configuration."""
        return AcceleratorParams(
            tile_rows=self.tile_rows,
            tile_cols=self.tile_cols,
            adc_bits=self.adc_bits,
        )


def tiles_required(node: LayerNode, inventory: TileInventory) -> int:
    """Tiles one replica of ``node`` occupies (non-divisible shapes round
    up to whole tiles, matching :class:`CIMAccelerator`'s block grid)."""
    rows, cols = node.weights.shape
    n_row_blocks = -(-rows // inventory.tile_rows)
    n_col_blocks = -(-cols // inventory.tile_cols)
    return n_row_blocks * n_col_blocks


@dataclass
class StageAllocation:
    """One pipeline stage: a layer node mapped onto replica accelerators."""

    node: LayerNode
    replicas: List[CIMAccelerator]
    weight_scale: float
    tiles_per_replica: int

    @property
    def name(self) -> str:
        """Stage name (the node's name)."""
        return self.node.name

    @property
    def n_replicas(self) -> int:
        """Number of weight copies serving this stage."""
        return len(self.replicas)

    @property
    def n_tiles(self) -> int:
        """Total tiles consumed by all replicas."""
        return self.tiles_per_replica * self.n_replicas

    def replica_for(self, microbatch_index: int) -> int:
        """Static round-robin replica assignment.

        The mapping is a pure function of the micro-batch index, so the
        numerical result of a schedule never depends on simulated event
        order — the property that makes pipelined output bit-identical to
        the layer-sequential reference.
        """
        return microbatch_index % self.n_replicas

    def apply(
        self, h, microbatch_index: int = 0, noisy: bool = False
    ) -> np.ndarray:
        """Run one micro-batch through this stage on its assigned replica.

        Mirrors the :class:`~repro.apps.nn.CrossbarMLP` /
        :class:`~repro.apps.cnn.CrossbarCNN` math: activations are scaled
        into ``[0, 1]`` by ``input_scale``, the crossbar output is
        rescaled by ``weight_scale * input_scale`` and biased, then the
        node's activation applies.

        For ``matmul`` stages ``h`` is the *(left, right)* payload pair:
        each sample's right operand is programmed into the replica's
        tiles (charging write energy through the active energy model)
        before its left tokens stream through — the data-dependent QK^T /
        AV execution the DAG IR exists for.
        """
        node = self.node
        accel = self.replicas[self.replica_for(microbatch_index)]
        if node.kind == "matmul":
            return self._apply_matmul(accel, h, noisy)
        h = np.asarray(h, dtype=float)
        if node.kind == "conv2d":
            from repro.apps.cnn import im2col

            batch = h.shape[0]
            if h.ndim == 2:  # mid-graph conv: flat payload -> images
                h = h.reshape(batch, node.image_size, node.image_size)
            patches = im2col(h, node.kernel)
            flat = patches.reshape(batch * patches.shape[1], -1)
            scaled = np.clip(flat / node.input_scale, 0.0, 1.0)
            z = (
                accel.vmm_batch(scaled, noisy=noisy)
                * self.weight_scale
                * node.input_scale
                + node.bias
            )
            z = _apply_activation(z, node.activation)
            return z.reshape(batch, -1)
        batch = h.shape[0]
        if node.tokens:  # per-token dense: every token through the matrix
            h = h.reshape(batch * node.tokens, int(node.weights.shape[0]))
        scaled = np.clip(h / node.input_scale, 0.0, 1.0)
        z = (
            accel.vmm_batch(scaled, noisy=noisy)
            * self.weight_scale
            * node.input_scale
            + node.bias
        )
        z = _apply_activation(z, node.activation)
        if node.tokens:
            z = z.reshape(batch, -1)
        return z

    def _apply_matmul(
        self, accel: CIMAccelerator, payload, noisy: bool
    ) -> np.ndarray:
        """Per-sample dynamic matmul: program B, stream A's tokens."""
        node = self.node
        left, right = payload
        left = np.asarray(left, dtype=float)
        right = np.asarray(right, dtype=float)
        batch = left.shape[0]
        rows, cols = node.weights.shape
        b_mats = node._right_operand(right)
        out = np.empty((batch, node.tokens * cols))
        for b in range(batch):
            b_scale = float(max(np.abs(b_mats[b]).max(), 1e-12))
            accel.program_weights(b_mats[b] / b_scale)
            a = left[b].reshape(node.tokens, rows)
            scaled = np.clip(a / node.input_scale, 0.0, 1.0)
            z = (
                accel.vmm_batch(scaled, noisy=noisy)
                * b_scale
                * node.input_scale
                * node.matmul_scale
                + node.bias
            )
            out[b] = _apply_activation(z, node.activation).reshape(-1)
        return out


@dataclass
class Allocation:
    """A compiled model: every stage mapped onto the tile inventory."""

    graph: LayerGraph
    inventory: TileInventory
    stages: List[StageAllocation]

    @property
    def tiles_used(self) -> int:
        """Tiles consumed across all stages and replicas."""
        return sum(stage.n_tiles for stage in self.stages)

    @property
    def tiles_free(self) -> int:
        """Unused tiles left in the inventory."""
        return self.inventory.n_tiles - self.tiles_used

    def replica_counts(self) -> List[int]:
        """Per-stage replica counts, in stage order."""
        return [stage.n_replicas for stage in self.stages]

    def total_costs(self) -> CostAccumulator:
        """Merged cost accounting over every tile of every replica."""
        acc = CostAccumulator()
        for stage in self.stages:
            for accel in stage.replicas:
                acc.merge(accel.total_costs())
        return acc

    def area_breakdown(self) -> Dict[str, float]:
        """Per-component area (mm^2) summed over all allocated tiles."""
        area: Dict[str, float] = {}
        for stage in self.stages:
            for accel in stage.replicas:
                for tile_row in accel.tiles:
                    for core in tile_row:
                        for component, mm2 in core.area_breakdown().items():
                            area[component] = area.get(component, 0.0) + mm2
        return area

    def summary(self) -> List[Dict[str, object]]:
        """Row-per-stage table (name, shape, tiles, replicas) for display."""
        return [
            {
                "stage": stage.name,
                "kind": stage.node.kind,
                "rows": stage.node.weights.shape[0],
                "cols": stage.node.weights.shape[1],
                "inputs_per_sample": stage.node.patches_per_sample,
                "replicas": stage.n_replicas,
                "tiles": stage.n_tiles,
            }
            for stage in self.stages
        ]


def _auto_duplicate(
    graph: LayerGraph,
    per_replica_tiles: List[int],
    n_tiles: int,
) -> List[int]:
    """Greedy ISAAC-style balancing: duplicate the stage with the highest
    per-replica load (crossbar inputs per sample) while tiles remain."""
    counts = [1] * len(graph)
    free = n_tiles - sum(per_replica_tiles)
    loads = [node.patches_per_sample for node in graph]
    while True:
        # Highest effective load first; MACs break ties toward big layers,
        # stage index keeps the choice deterministic.
        order = sorted(
            range(len(counts)),
            key=lambda s: (
                -loads[s] / counts[s],
                -graph.nodes[s].macs_per_sample,
                s,
            ),
        )
        for s in order:
            if per_replica_tiles[s] <= free:
                counts[s] += 1
                free -= per_replica_tiles[s]
                break
        else:
            return counts


def allocate(
    graph: LayerGraph,
    inventory: Optional[TileInventory] = None,
    *,
    duplication: Union[str, Sequence[int], None] = None,
    rng: RNGLike = None,
) -> Allocation:
    """Partition every layer of ``graph`` over ``inventory``.

    Parameters
    ----------
    graph:
        The layer-graph IR to compile.
    inventory:
        Tile pool; defaults to :class:`TileInventory()`.
    duplication:
        ``None`` / ``"none"`` for one replica per stage, ``"auto"`` for
        greedy load balancing onto spare tiles, or an explicit per-stage
        replica-count sequence.
    rng:
        Deployment randomness (device variation during programming); one
        stream is spawned per replica in stage-major order, so a given
        seed always programs identical conductances.

    Raises
    ------
    AllocationError
        If the inventory cannot hold the model at the requested
        duplication.
    """
    inventory = inventory or TileInventory()
    per_replica = [tiles_required(node, inventory) for node in graph]

    base_total = sum(per_replica)
    if base_total > inventory.n_tiles:
        raise AllocationError(
            f"model needs {base_total} tiles at 1 replica/stage but the "
            f"inventory has {inventory.n_tiles} "
            f"({inventory.tile_rows}x{inventory.tile_cols} tiles)"
        )

    if duplication is None or duplication == "none":
        counts = [1] * len(graph)
    elif duplication == "auto":
        counts = _auto_duplicate(graph, per_replica, inventory.n_tiles)
    elif isinstance(duplication, str):
        raise ValueError(
            f"duplication must be 'none', 'auto' or a sequence, got "
            f"{duplication!r}"
        )
    else:
        counts = [int(c) for c in duplication]
        if len(counts) != len(graph):
            raise ValueError(
                f"duplication needs {len(graph)} entries, got {len(counts)}"
            )
        if any(c < 1 for c in counts):
            raise ValueError("replica counts must be >= 1")
        total = sum(c * t for c, t in zip(counts, per_replica))
        if total > inventory.n_tiles:
            raise AllocationError(
                f"requested duplication needs {total} tiles but the "
                f"inventory has {inventory.n_tiles}"
            )

    rngs = spawn_rngs(rng, sum(counts))
    params = inventory.accelerator_params()
    stages: List[StageAllocation] = []
    k = 0
    for node, tiles, n_replicas in zip(graph, per_replica, counts):
        if node.kind == "matmul":
            # The crossbar contents are data: scaling is per-sample at
            # execution time, the static placeholder carries no scale.
            w_scale = 1.0
        else:
            w_scale = float(max(np.abs(node.weights).max(), 1e-12))
        replicas = []
        for _ in range(n_replicas):
            replicas.append(
                CIMAccelerator(
                    node.weights / w_scale, params=params, rng=rngs[k]
                )
            )
            k += 1
        stages.append(
            StageAllocation(
                node=node,
                replicas=replicas,
                weight_scale=w_scale,
                tiles_per_replica=tiles,
            )
        )
    return Allocation(graph=graph, inventory=inventory, stages=stages)
