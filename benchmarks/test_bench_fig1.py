"""Fig 1 reproduction: the von-Neumann bottleneck vs CIM.

Fig 1(a) depicts memory-processor communication as *the* bottleneck; CIM
(Fig 1b) removes it by computing where the data lives.  The benchmark runs
the same VMM workload on both machine models and reports the energy/time
split between data movement and computation.
"""

import numpy as np

from repro.core.cim_core import CIMCore, CIMCoreParams
from repro.core.vonneumann import VonNeumannMachine

from conftest import print_table


def _von_neumann_workload():
    gen = np.random.default_rng(0)
    machine = VonNeumannMachine()
    w = gen.uniform(-1, 1, (128, 64))
    batch = gen.uniform(0, 1, (16, 128))
    machine.run_workload(batch, w)
    return machine


def _cim_workload():
    gen = np.random.default_rng(0)
    core = CIMCore(CIMCoreParams(rows=128, logical_cols=64), rng=1)
    core.program_weights(gen.uniform(-1, 1, (128, 64)))
    for x in gen.uniform(0, 1, (16, 128)):
        core.vmm(x, noisy=False)
    return core


def test_fig1_von_neumann_movement_dominates(run_once):
    machine = run_once(_von_neumann_workload)
    fractions = machine.report().energy_fractions()
    movement = fractions["data_movement"]
    compute = fractions["compute"]
    print_table(
        "Fig 1(a): von-Neumann energy split",
        [
            {"component": "data movement", "energy_share": movement},
            {"component": "compute", "energy_share": compute},
        ],
    )
    # The bottleneck: movement takes the majority of the energy.
    assert movement > 0.6
    assert movement > compute


def test_fig1_cim_removes_the_bottleneck(run_once):
    vn = _von_neumann_workload()
    cim = run_once(_cim_workload)
    vn_total = vn.costs.total
    cim_total = cim.costs.total
    rows = [
        {
            "machine": "von-Neumann (COM-F)",
            "energy_uJ": vn_total.energy * 1e6,
            "latency_us": vn_total.latency * 1e6,
            "bytes_moved": vn_total.data_moved,
        },
        {
            "machine": "CIM core",
            "energy_uJ": cim_total.energy * 1e6,
            "latency_us": cim_total.latency * 1e6,
            "bytes_moved": 16 * (128 + 64),  # I/O vectors only
        },
    ]
    print_table("Fig 1: same workload, both architectures", rows)
    # CIM wins on energy and latency by a large factor on this workload.
    assert cim_total.energy < vn_total.energy / 10
    assert cim_total.latency < vn_total.latency / 10
