"""Hot-path performance benchmarks (``perf``-marked, skipped by default).

These execute only under ``pytest benchmarks/perf --run-perf`` (the CI
perf job) or with ``REPRO_RUN_PERF=1`` — tier-1 runs never pay for them.
The authoritative entry point is ``repro bench``, which shares the same
harness in :mod:`repro.perf`.
"""

import json

import pytest

from repro.perf import run_core_benchmarks, write_bench_json

pytestmark = pytest.mark.perf


def test_bench_smoke_writes_valid_payload(tmp_path):
    payload = run_core_benchmarks(smoke=True, repeats=1)
    assert payload["benchmark"] == "core_hot_paths"
    assert payload["results"]
    for result in payload["results"]:
        if result["name"] == "parallel_scaling_curve":
            assert result["rows"]
            for row in result["rows"]:
                # Worker count never changes result bits, and tasks ship
                # shared-memory descriptors only.
                assert row["max_abs_diff"] == 0.0
                assert 0 < row["task_pickled_bytes_shm"] < 4096
            continue
        assert result["speedup"] > 0
        if result["name"].startswith("tune_"):
            # Tune rows judge both arms against an absolute MAE ceiling
            # (baseline_mae / optimized_mae) instead of diffing outputs.
            assert result["equal_accuracy"], result
            continue
        # Optimized paths must agree with their baselines.
        assert result["max_abs_diff"] < 1e-8

    out = write_bench_json(payload, tmp_path / "BENCH_core.json")
    reloaded = json.loads(out.read_text())
    assert reloaded["results"] == payload["results"]


def test_batched_and_cached_paths_beat_baselines():
    """The trajectory claim: batching/caching wins at real sizes.

    Kept below trajectory-grade sizes so the CI perf job stays fast while
    still asserting a real (not smoke-sized) advantage.
    """
    from repro.perf import bench_circuit_batch, bench_equilibrium

    equilibrium = bench_equilibrium(n=512, density=0.05, batch=64, repeats=2)
    assert equilibrium["speedup"] > 5.0

    circuit = bench_circuit_batch(
        n=128, density=0.1, batch=32, duration=10.0, repeats=2
    )
    assert circuit["speedup"] > 1.5


def test_parallel_sharding_is_bit_exact_and_records_hardware():
    """The parallel layer's contract, measured: same shards on N worker
    processes produce the same bits as on 1, and the payload records the
    hardware (``cpu_count``) the speedup was measured on — speedup itself
    is a property of the machine, not asserted here."""
    from repro.perf import bench_parallel_batch

    result = bench_parallel_batch(
        n=96, density=0.1, batch=8, duration=2.0, workers=2, repeats=1
    )
    assert result["max_abs_diff"] == 0.0
    assert result["bitwise_identical"] is True
    assert result["workers"] == 2
    assert result["shards"] == 2
    assert result["cpu_count"] >= 1
