"""Annealing-path tuning performance gates (``perf``-marked).

These execute only under ``pytest benchmarks/perf --run-perf`` (the CI
perf job) or with ``REPRO_RUN_PERF=1``.  The authoritative entry point
is ``repro bench``, which includes the same rows via
:mod:`repro.tune.bench`.

The acceptance gate: per-member early-exit freeze-out must beat the
fixed worst-case step budget by at least 2x at n=2048 while both sides
stay within the absolute accuracy ceiling (MAE against the exact
equilibrium fixed point) — the headline claim recorded in
``BENCH_core.json``.
"""

import pytest

from repro.tune.bench import bench_tune_early_exit, bench_tune_suite

pytestmark = pytest.mark.perf


def test_tune_smoke_suite_rows_are_well_formed():
    rows = bench_tune_suite(smoke=True, repeats=1)
    assert len(rows) == 1
    names = {row["name"] for row in rows}
    assert names == {"tune_early_exit_vs_fixed"}
    for row in rows:
        assert row["speedup"] > 0
        # Both sides must land within the absolute accuracy ceiling for
        # the speedup to count as equal-accuracy.
        assert row["baseline_mae"] <= row["accuracy_tol"]
        assert row["optimized_mae"] <= row["accuracy_tol"]
        assert row["equal_accuracy"]
        # The optimized side stopped before the worst-case budget.
        assert row["early_exit_t_ns"] <= row["duration_ns"]
        assert row["baseline_stats"]["samples_ms"]
        assert row["optimized_stats"]["samples_ms"]


def test_early_exit_beats_fixed_budget_2x_at_n2048():
    """The acceptance point: at n=2048 the freeze-out path must cut
    integration latency by at least 2x against the same-dt fixed budget,
    with both arms within the equal-accuracy MAE ceiling."""
    row = bench_tune_early_exit(
        n=2048, density=0.01, batch=8, duration=100.0, repeats=2
    )
    assert row["speedup"] >= 2.0
    assert row["equal_accuracy"]
    assert row["early_exit_t_ns"] < row["duration_ns"]

