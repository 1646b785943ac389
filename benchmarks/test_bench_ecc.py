"""Benchmarks: the ECC layer's vectorized block codecs and the co-design
advisor.

Gates the fast-path-plus-reference contract on its performance half: the
BCH ``decode_block`` fast path must beat a scalar ``decode`` loop by
``>= CODEC_SPEEDUP_GATE`` (the correctness half — exhaustive bit-equality
— lives in ``tests/test_testing_ecc_codes.py``).  Also proves the advisor
is bit-identical serial vs parallel at any worker count, and writes the
numbers to ``BENCH_ecc.json`` (via :func:`conftest.record`)
so the codec-throughput trajectory is tracked across PRs.
"""

import time

import numpy as np

from conftest import print_table, record

#: The block decoder is the advisor's inner loop; anything under 3x over
#: the scalar reference means the vectorization silently regressed.
CODEC_SPEEDUP_GATE = 3.0

WORDS = 4096
DATA_BITS = 32


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def test_bch_block_codec_beats_scalar(run_once):
    """BCH t=2 is the heaviest decoder (two GF syndromes + Chien search);
    its vectorized block path must clear the gate on a realistic
    advisor-sized batch with a mix of clean/1/2-flip words."""
    from repro.testing.ecc import make_code

    code = make_code("bch", DATA_BITS)
    rng = np.random.default_rng(0)
    data = rng.integers(0, 2, size=(WORDS, DATA_BITS)).astype(np.int8)
    received = code.encode_block(data)
    n = code.codeword_bits
    for i in range(WORDS):
        for pos in rng.choice(n, size=i % 3, replace=False):
            received[i, pos] ^= 1

    def experiment():
        (block_data, block_status), t_block = _timed(
            code.decode_block, received
        )

        def scalar_loop():
            datas = np.empty_like(data)
            statuses = []
            for i in range(WORDS):
                datas[i], status = code.decode(received[i])
                statuses.append(status)
            return datas, statuses

        (scalar_data, scalar_status), t_scalar = _timed(scalar_loop)
        return block_data, scalar_data, t_block, t_scalar

    block_data, scalar_data, t_block, t_scalar = run_once(experiment)
    assert np.array_equal(block_data, scalar_data)
    speedup = t_scalar / t_block
    words_per_sec = WORDS / t_block
    print_table(
        f"BCH({DATA_BITS}) decode, {WORDS} words",
        [
            {"path": "scalar reference", "seconds": t_scalar,
             "words_per_sec": WORDS / t_scalar},
            {"path": "vectorized block", "seconds": t_block,
             "words_per_sec": words_per_sec},
        ],
    )
    print(f"block-codec speedup: {speedup:.1f}x (gate {CODEC_SPEEDUP_GATE}x)")
    record(
        "BENCH_ecc.json",
        "bch_block_codec",
        {
            "words": WORDS,
            "data_bits": DATA_BITS,
            "scalar_seconds": t_scalar,
            "block_seconds": t_block,
            "block_words_per_sec": words_per_sec,
            "speedup_block_vs_scalar": speedup,
        },
    )
    assert speedup >= CODEC_SPEEDUP_GATE


def test_advisor_parallel_bit_identical(run_once):
    """The advisor rides the deterministic sweep engine: the same seed
    must give byte-for-byte identical rows and the same knee at any
    worker count."""
    import json

    from repro.testing.ecc_advisor import advise_ecc, ecc_advisor_analysis

    kw = dict(
        codes=("secded", "bch", "secdaec"),
        yields=(0.999, 0.99),
        mc_words=1024,
        trials=2,
        seed=0,
    )

    def experiment():
        serial, t_serial = _timed(advise_ecc, workers=0, **kw)
        parallel, t_par = _timed(advise_ecc, workers=2, **kw)
        return serial, parallel, t_serial, t_par

    serial, parallel, t_serial, t_par = run_once(experiment)
    assert serial == parallel
    assert json.dumps(serial, sort_keys=True) == json.dumps(
        parallel, sort_keys=True
    )
    knee_serial = ecc_advisor_analysis(serial)["knee"]
    knee_parallel = ecc_advisor_analysis(parallel)["knee"]
    assert knee_serial == knee_parallel
    print_table(
        f"advisor determinism ({len(serial)} grid rows)",
        [
            {"backend": "serial (workers=0)", "seconds": t_serial},
            {"backend": "parallel (workers=2)", "seconds": t_par},
        ],
    )
    print(
        f"bit-identical: True; knee = {knee_serial['code']} at yield "
        f"{knee_serial['cell_yield']}"
    )
    record(
        "BENCH_ecc.json",
        "advisor_determinism",
        {
            "grid_rows": len(serial),
            "serial_seconds": t_serial,
            "parallel_seconds": t_par,
            # Determinism record, not a scaling gate: worker scaling is
            # owned by test_bench_sweep_engine.py.
            "speedup_parallel_vs_serial": t_serial / t_par,
            "bit_identical": True,
            "knee_code": knee_serial["code"],
        },
    )
