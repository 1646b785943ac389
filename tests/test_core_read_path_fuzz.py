"""Differential fuzzing of the batched CIM-A read path.

:meth:`CIMCore.vmm_batch` encodes, drives and prices a whole input batch
at once.  The oracle is the same core with its read path run one input
row at a time, composed from the same public methods on 1-D rows:
``InputEncoder.amplitude`` -> ``WordlineDriver.drive_analog`` per row and
each row's read power as ``(v**2) @ g_rows``, summed in row order.
Everything observable must be bit-identical: outputs, the cost ledger,
the driver's activation count, the telemetry counters and the RNG stream.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cim_core import CIMCore, CIMCoreParams
from repro.costs.models import use_model
from repro.crossbar.array import CrossbarArray, CrossbarConfig
from repro.devices.variability import VariabilityStack
from repro.faults.injection import FaultInjector
from repro.utils import telemetry


def row_power(array, v):
    """Reference read power of one input row."""
    return float((v**2) @ array.conductances().sum(axis=1))


def run_row_by_row(core):
    """Swap ``core``'s read-path methods for per-row loops over the same
    public methods: the oracle composition."""
    encode, drive = core.encoder.amplitude, core.driver.drive_analog
    core.encoder.amplitude = lambda x: np.stack([encode(row) for row in x])
    core.driver.drive_analog = lambda v: np.stack([drive(row) for row in v])
    core.array.dynamic_read_power = lambda v: sum(
        row_power(core.array, row) for row in v
    )
    return core


@st.composite
def read_cases(draw):
    rows = draw(st.integers(1, 12))
    cols = draw(st.integers(1, 6))
    batch = draw(st.integers(1, 9))
    # Values exactly 0 and 1 alongside interior ones; some rows all zero.
    pick = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    x = np.array(
        draw(st.lists(st.lists(pick, min_size=rows, max_size=rows),
                      min_size=batch, max_size=batch))
    )
    if draw(st.integers(0, 4)) == 0:        # an all-zero batch
        x[:] = 0.0
    for k in draw(st.lists(st.integers(0, batch - 1), max_size=batch)):
        x[k] = 0.0
    return dict(
        rows=rows,
        cols=cols,
        x=x,
        seed=draw(st.integers(0, 2**16)),
        noisy=draw(st.booleans()),
        wire_resistance=draw(st.sampled_from([0.0, 2.0])),
        fault_rate=draw(st.sampled_from([0.0, 0.2, 1.0])),
        sa1_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
        energy_model=draw(st.sampled_from(["static", "value_aware"])),
    )


def build_core(case):
    core = CIMCore(
        CIMCoreParams(
            rows=case["rows"],
            logical_cols=case["cols"],
            wire_resistance=case["wire_resistance"],
        ),
        variability=VariabilityStack.typical(),
        rng=case["seed"],
    )
    weights = np.random.default_rng(case["seed"]).uniform(
        -1, 1, (case["rows"], case["cols"])
    )
    with use_model(case["energy_model"]):
        core.program_weights(weights)
    FaultInjector(core.array, rng=case["seed"] + 1).inject_stuck_at(
        case["fault_rate"], case["sa1_fraction"]
    )
    return core


def observe(core, case, x):
    with use_model(case["energy_model"]), telemetry.scoped() as scope:
        y = core.vmm_batch(x, noisy=case["noisy"])
        y_again = core.vmm_batch(x[:1], noisy=case["noisy"])
    return {
        "y": (y, y_again),
        "costs": core.costs.as_dict(),
        "activations": core.driver.activations,
        "counters": scope.snapshot(include_timers=False)["counters"],
        "rng": core.array._rng.bit_generator.state,
    }


class TestBatchedVmmMatchesRowByRow:
    @settings(max_examples=80, deadline=None)
    @given(read_cases())
    def test_bit_identical(self, case):
        fast = observe(build_core(case), case, case["x"])
        ref = observe(run_row_by_row(build_core(case)), case, case["x"])
        assert all(
            np.array_equal(a, b, equal_nan=True)
            for a, b in zip(fast.pop("y"), ref.pop("y"))
        )
        assert fast == ref

    @settings(max_examples=20, deadline=None)
    @given(read_cases(), st.sampled_from([-0.25, 1.5, -1e-12, 1 + 1e-12]))
    def test_out_of_range_input_raises_the_same_error(self, case, bad):
        x = case["x"].copy()
        x[-1, -1] = bad
        errors = []
        for core in (build_core(case), run_row_by_row(build_core(case))):
            with pytest.raises(ValueError) as excinfo:
                core.vmm_batch(x, noisy=case["noisy"])
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1] == (
            "amplitude encoding requires inputs in [0, 1]"
        )


class TestWidenedReadMethods:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 300),
        st.integers(1, 70),
        st.integers(1, 40),
        st.integers(0, 2**16),
    )
    def test_read_power_of_a_batch_is_the_row_order_sum(
        self, rows, batch, cols, seed
    ):
        gen = np.random.default_rng(seed)
        array = CrossbarArray(CrossbarConfig(rows=rows, cols=cols), rng=seed)
        array.program(gen.uniform(1e-6, 1e-4, (rows, cols)))
        v = gen.uniform(0, 0.2, (batch, rows))
        v[gen.random(v.shape) < 0.3] = 0.0
        assert array.dynamic_read_power(v[0]) == row_power(array, v[0])
        assert array.dynamic_read_power(v) == sum(
            row_power(array, row) for row in v
        )

    def test_drive_of_a_batch_charges_every_row(self):
        core = CIMCore(CIMCoreParams(rows=4, logical_cols=1), rng=0)
        v = np.array([[0.1, 0.0, 0.2, 0.0], [0.0, 0.0, 0.0, 0.0], [0.2] * 4])
        with telemetry.scoped() as scope:
            out = core.driver.drive_analog(v)
        assert np.array_equal(out, v) and out is not v
        assert core.driver.activations == 6
        assert scope.count("driver.activations") == 6

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 4, 4), ()])
    def test_wrong_shapes_are_rejected(self, shape):
        core = CIMCore(CIMCoreParams(rows=4, logical_cols=1), rng=0)
        with pytest.raises(ValueError, match="voltages must have shape"):
            core.driver.drive_analog(np.zeros(shape))
        with pytest.raises(ValueError, match="voltages must have shape"):
            core.array.dynamic_read_power(np.zeros(shape))
