"""Serial↔parallel equivalence: ``workers=N`` must equal ``workers=1`` bit
for bit at every layer that fans out — circuit batches, engine inference,
restart policies, DSPU propagator builds, hardware evaluation, and the
fault sweep.  Every comparison below uses exact equality, not allclose.
"""

import numpy as np
import pytest

from repro.experiments import (
    ExperimentContext,
    evaluate_hardware,
    fault_sweep_data,
)
from repro.faults import RestartPolicy


def _trajectories_equal(a, b):
    return (
        np.array_equal(a.times, b.times)
        and np.array_equal(a.states, b.states)
        and np.array_equal(a.energies, b.energies)
    )


class TestCircuitBatch:
    def _run(self, noisy_simulator, small_operator, workers):
        rng = np.random.default_rng(5)
        sigma0 = rng.uniform(-1, 1, size=(10, small_operator.n))
        return noisy_simulator.run_batch(
            small_operator.drift,
            sigma0,
            duration=3.0,
            energy=small_operator.energy,
            workers=workers,
            shards=3,
            root_seed=17,
        )

    def test_workers_do_not_change_bits(self, noisy_simulator, small_operator):
        serial = self._run(noisy_simulator, small_operator, 1)
        for workers in (2, 3):
            pooled = self._run(noisy_simulator, small_operator, workers)
            assert _trajectories_equal(serial, pooled)

    def test_default_shards(self, noisy_simulator, small_operator, rng):
        sigma0 = rng.uniform(-1, 1, size=(5, small_operator.n))
        run = lambda w: noisy_simulator.run_batch(  # noqa: E731
            small_operator.drift, sigma0, duration=2.0,
            workers=w, root_seed=1,
        )
        assert _trajectories_equal(run(1), run(2))

    def test_clamps_respected_per_shard(
        self, noisy_simulator, small_operator, rng
    ):
        batch = 7
        sigma0 = rng.uniform(-1, 1, size=(batch, small_operator.n))
        clamp_index = np.asarray([0, 4])
        clamp_value = rng.uniform(-1, 1, size=(batch, 2))
        run = lambda w: noisy_simulator.run_batch(  # noqa: E731
            small_operator.drift, sigma0, duration=2.0,
            clamp_index=clamp_index, clamp_value=clamp_value,
            workers=w, shards=3, root_seed=9,
        )
        serial, pooled = run(1), run(2)
        assert _trajectories_equal(serial, pooled)
        assert np.array_equal(
            pooled.final_states[:, clamp_index], clamp_value
        )


class TestEngineInference:
    def _infer(self, engine, workers):
        rng = np.random.default_rng(21)
        k = 4
        observed = np.arange(k)
        values = rng.normal(size=(6, k))
        return engine.infer_batch(
            observed, values, duration=5.0, workers=workers, shards=3
        )

    def test_workers_do_not_change_bits(self, engine):
        serial = self._infer(engine, 1)
        pooled = self._infer(engine, 2)
        assert np.array_equal(serial.predictions, pooled.predictions)
        assert np.array_equal(serial.states, pooled.states)
        assert _trajectories_equal(serial.trajectory, pooled.trajectory)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_in_process_fallback_does_not_change_bits(
        self, engine, workers, monkeypatch
    ):
        """Without named shared memory the same shards run in-process."""
        from repro.parallel import infer_batch_sharded, shm

        rng = np.random.default_rng(21)
        observed = np.arange(4)
        values = rng.normal(size=(6, 4))
        run = lambda: infer_batch_sharded(  # noqa: E731
            engine, observed, values, duration=5.0,
            workers=workers, shards=3,
        )
        shared = run()
        monkeypatch.setattr(shm, "_AVAILABLE", False)
        local = run()
        assert np.array_equal(shared.predictions, local.predictions)
        assert np.array_equal(shared.states, local.states)
        assert _trajectories_equal(shared.trajectory, local.trajectory)

    def test_rng_and_workers_are_mutually_exclusive(self, engine):
        with pytest.raises(ValueError, match="mutually exclusive"):
            engine.infer_batch(
                np.arange(2),
                np.zeros((2, 2)),
                rng=np.random.default_rng(0),
                workers=2,
            )


class TestRestartPolicy:
    def _infer(self, engine, workers):
        policy = RestartPolicy(restarts=6, seed=13, workers=workers, shards=3)
        rng = np.random.default_rng(33)
        observed = np.arange(3)
        values = rng.normal(size=3)
        return policy.infer(engine, observed, values, duration=5.0)

    def test_workers_do_not_change_bits(self, engine):
        serial = self._infer(engine, 1)
        pooled = self._infer(engine, 2)
        assert np.array_equal(serial.prediction, pooled.prediction)
        assert np.array_equal(serial.state, pooled.state)
        assert np.array_equal(serial.energies, pooled.energies)
        assert serial.best_index == pooled.best_index
        assert serial.attempts == pooled.attempts


class TestHardwareLayers:
    def test_dspu_anneal_workers_match(self, traffic_dspu, traffic_setup):
        windowing = traffic_setup["windowing"]
        series = traffic_setup["test"].flat_series()
        t = windowing.prediction_frames(series)[0]
        history = windowing.history_of(series, t)
        serial = traffic_dspu.anneal(
            windowing.observed_index, history, duration_ns=2000.0, workers=1
        )
        pooled = traffic_dspu.anneal(
            windowing.observed_index, history, duration_ns=2000.0, workers=2
        )
        assert np.array_equal(serial.prediction, pooled.prediction)
        assert np.array_equal(serial.state, pooled.state)

    def test_evaluate_hardware_matches_legacy(
        self, traffic_dspu, traffic_setup
    ):
        windowing = traffic_setup["windowing"]
        series = traffic_setup["test"].flat_series()
        evaluate = lambda w: evaluate_hardware(  # noqa: E731
            traffic_dspu, windowing, series,
            duration_ns=2000.0, max_windows=4, workers=w,
        )
        legacy = evaluate(None)
        assert evaluate(1) == legacy
        assert evaluate(2) == legacy


class TestFaultSweep:
    @pytest.fixture(scope="class")
    def context(self):
        return ExperimentContext(size="small")

    def _sweep(self, context, workers):
        return fault_sweep_data(
            context,
            datasets=("traffic",),
            fault_rates=(0.0, 0.02),
            duration_ns=2000.0,
            max_windows=2,
            trials=2,
            workers=workers,
        )

    def test_workers_do_not_change_payload(self, context):
        serial = self._sweep(context, None)
        pooled = self._sweep(context, 2)
        assert serial == pooled
