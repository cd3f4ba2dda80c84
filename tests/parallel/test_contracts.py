"""Input contracts of the sharded entry points.

Every fan-out layer raises ``ValueError`` on empty work rather than
silently returning an empty payload — downstream consumers (plotting,
BENCH writers, restart selection) treat an empty result as a *finished*
computation, which would hide the bug.  One contract, asserted at every
entry point: ``run_batch_sharded``, ``infer_batch_sharded``,
``restart_fanout``, and the fault-sweep grid.

Malformed observations (non-finite values, wrong shapes, duplicate or
out-of-range indices) are rejected in the parent with ``ValueError``
before any shared-memory or pool work, on the joint and sharded paths
alike.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.experiments import ExperimentContext, fault_sweep_data
from repro.parallel import (
    infer_batch_sharded,
    restart_fanout,
    run_batch_sharded,
)


class TestEmptyBatchContracts:
    def test_run_batch_sharded_rejects_empty_batch(
        self, noisy_simulator, small_operator
    ):
        empty = np.empty((0, small_operator.n))
        with pytest.raises(ValueError, match="empty batch"):
            run_batch_sharded(
                noisy_simulator, small_operator.drift, empty, duration=1.0
            )

    def test_infer_batch_sharded_rejects_empty_batch(self, engine):
        observed = np.arange(3)
        empty = np.empty((0, 3))
        with pytest.raises(ValueError, match="empty batch"):
            infer_batch_sharded(engine, observed, empty, duration=1.0)

    def test_restart_fanout_rejects_empty_pool(self, engine):
        observed = np.arange(3)
        values = np.zeros(3)
        for restarts in (0, -1):
            with pytest.raises(ValueError, match="empty restart pool"):
                restart_fanout(
                    engine, observed, values, restarts, 1.0,
                    root_seed=0, max_retries=0, workers=1, shards=None,
                )


class TestMalformedObservations:
    """Before, a NaN value came back as a NaN prediction row with no
    error on both paths, and a duplicate index was only caught inside a
    worker, after the dispatch."""

    MESSAGES = {
        "nan": "NaN or infinite",
        "inf": "NaN or infinite",
        "-inf": "NaN or infinite",
        "duplicate": "duplicates",
        "negative": "out of range",
        "too_large": "out of range",
        "narrow_values": r"\(batch, num_observed\)",
        "flat_values": r"\(batch, num_observed\)",
    }

    @given(
        case=st.sampled_from(sorted(MESSAGES)),
        workers=st.sampled_from([None, 1, 2]),
        position=st.integers(min_value=0, max_value=10_000),
        offset=st.integers(min_value=0, max_value=1_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_infer_batch_rejects_before_any_work(
        self, engine, case, workers, position, offset
    ):
        n = engine.model.n
        index = np.arange(4)
        values = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        k = position % index.size
        if case in ("nan", "inf", "-inf"):
            values[position % 3, k] = float(case)
        elif case == "duplicate":
            index[k] = index[(k + 1 + offset % 3) % index.size]
        elif case == "negative":
            index[k] = -1 - offset % n
        elif case == "too_large":
            index[k] = n + offset
        elif case == "narrow_values":
            values = values[:, :k]
        else:
            values = values[0]
        with obs.metrics_enabled() as registry:
            with pytest.raises(ValueError, match=self.MESSAGES[case]):
                engine.infer_batch(
                    index, values, duration=1.0, workers=workers, shards=2
                )
            counters = registry.snapshot()["counters"]
        for name in ("parallel.shm.blocks", "parallel.tasks", "circuit.steps"):
            assert counters.get(name, 0) == 0, name

    @pytest.mark.parametrize(
        "clamp_index, clamp_value, message",
        [
            ([0, 3], [0.5, np.nan], "NaN or infinite"),
            ([0, 3], [0.5, -np.inf], "NaN or infinite"),
            ([0, 0], [0.5, 0.5], "duplicates"),
            ([0, 99], [0.5, 0.5], "out of range"),
            ([0, 3], [0.5], "equal shapes"),
        ],
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_batch_sharded_rejects_before_any_work(
        self, noisy_simulator, small_operator, clamp_index, clamp_value,
        message, workers,
    ):
        sigma0 = np.zeros((4, small_operator.n))
        with obs.metrics_enabled() as registry:
            with pytest.raises(ValueError, match=message):
                run_batch_sharded(
                    noisy_simulator, small_operator.drift, sigma0, 1.0,
                    clamp_index=np.asarray(clamp_index),
                    clamp_value=np.asarray(clamp_value),
                    workers=workers, shards=2,
                )
            counters = registry.snapshot()["counters"]
        assert counters.get("parallel.shm.blocks", 0) == 0
        assert counters.get("parallel.tasks", 0) == 0


class TestFaultSweepContracts:
    @pytest.fixture(scope="class")
    def context(self):
        return ExperimentContext(size="small")

    def test_rejects_empty_datasets(self, context):
        with pytest.raises(ValueError, match="empty datasets"):
            fault_sweep_data(context, datasets=())

    def test_rejects_empty_fault_rates(self, context):
        with pytest.raises(ValueError, match="empty fault_rates"):
            fault_sweep_data(context, fault_rates=())

    def test_rejects_zero_trials(self, context):
        with pytest.raises(ValueError, match="trials"):
            fault_sweep_data(context, trials=0)
