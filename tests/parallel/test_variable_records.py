"""Sharded runs of early-exit (variable-record) configs.

Early-exit settling records a data-dependent number of frames per
shard, so no slab can hold the full grid.  These
tests pin the contract: such shards write a two-frame slab (initial and
final states and energies) and return only their finish time, the
reassembled trajectory's ``final_states`` are exact, and results stay
invariant across worker counts and pool start methods.
"""

import multiprocessing

import numpy as np
import pytest

from repro.core.dynamics import CircuitSimulator, IntegrationConfig
from repro.core.operators import CouplingOperator
from repro.parallel.circuit import expected_record_count, run_batch_sharded
from repro.parallel.pool import START_METHOD_ENV, shard_slices, spawn_seeds


@pytest.fixture(scope="module")
def operator():
    rng = np.random.default_rng(70)
    n = 10
    raw = rng.normal(size=(n, n)) * 0.3
    J = (raw + raw.T) / 2.0
    np.fill_diagonal(J, 0.0)
    h = -(np.abs(J).sum(axis=1) + 1.0)
    return CouplingOperator(J, h, backend="dense")


@pytest.fixture(scope="module")
def sigma0():
    return np.random.default_rng(71).uniform(-1, 1, size=(6, 10))


VARIABLE_CONFIGS = [
    IntegrationConfig(dt=0.05, early_exit=True, settle_tolerance=1e-9),
    IntegrationConfig(
        dt=0.05, method="rk4", early_exit=True, settle_tolerance=1e-9
    ),
    IntegrationConfig(
        dt=0.05, early_exit=True, settle_tolerance=1e-9, record_every=7,
        settle_check_every=5, settle_patience=3,
    ),
]


class TestExpectedRecordCount:
    @pytest.mark.parametrize("config", VARIABLE_CONFIGS)
    def test_rejects_variable_record_configs(self, config):
        with pytest.raises(ValueError, match="data-dependent"):
            expected_record_count(config, 10.0)

    def test_fixed_config_still_counts(self):
        assert expected_record_count(IntegrationConfig(dt=0.1), 1.0) >= 2


class TestTwoFrameReassembly:
    @pytest.mark.parametrize("config", VARIABLE_CONFIGS)
    def test_final_states_match_unsharded(self, config, operator, sigma0):
        """With noise off, shard semantics equal legacy semantics, so the
        sharded two-frame reassembly must reproduce the unsharded final
        states within the settling tolerance.  Bit-level equality is out
        of reach by design: each shard freezes its own members, so the
        active slices (and the rounding of their subset matvecs) differ
        from the unsharded run's."""
        simulator = CircuitSimulator(config=config)
        unsharded = simulator.run_batch(operator.drift, sigma0, 100.0)
        sharded = run_batch_sharded(
            simulator, operator.drift, sigma0, 100.0,
            workers=1, shards=3,
        )
        assert len(sharded.times) == 2
        assert sharded.times[0] == 0.0
        assert np.allclose(
            sharded.final_states, unsharded.final_states, atol=1e-7
        )

    @pytest.mark.parametrize("config", VARIABLE_CONFIGS)
    def test_workers_invariant(self, config, operator, sigma0):
        simulator = CircuitSimulator(config=config)
        serial = run_batch_sharded(
            simulator, operator.drift, sigma0, 50.0, workers=1, shards=3
        )
        pooled = run_batch_sharded(
            simulator, operator.drift, sigma0, 50.0, workers=2, shards=3
        )
        assert np.array_equal(serial.final_states, pooled.final_states)
        assert np.array_equal(serial.times, pooled.times)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_start_method_invariant(
        self, operator, sigma0, monkeypatch, start_method
    ):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable")
        config = IntegrationConfig(
            dt=0.05, early_exit=True, settle_tolerance=1e-9
        )
        simulator = CircuitSimulator(config=config)
        reference = run_batch_sharded(
            simulator, operator.drift, sigma0, 50.0, workers=1, shards=2
        )
        monkeypatch.setenv(START_METHOD_ENV, start_method)
        pooled = run_batch_sharded(
            simulator, operator.drift, sigma0, 50.0, workers=2, shards=2
        )
        assert np.array_equal(reference.final_states, pooled.final_states)

    @pytest.mark.parametrize("config", VARIABLE_CONFIGS)
    def test_two_frame_slab_matches_per_shard_runs(
        self, config, operator, sigma0
    ):
        """Bit for bit, the slab holds each shard's first and last frames
        and the time axis ends at the latest shard finish time."""
        simulator = CircuitSimulator(config=config)
        sharded = run_batch_sharded(
            simulator, operator.drift, sigma0, 50.0,
            energy=operator.energy, workers=2, shards=3, root_seed=4,
        )
        slices = shard_slices(sigma0.shape[0], 3)
        parts = [
            CircuitSimulator(
                config=config, rng=np.random.default_rng(seed)
            ).run_batch(
                operator.drift, sigma0[part], 50.0, energy=operator.energy
            )
            for part, seed in zip(slices, spawn_seeds(4, 3))
        ]
        assert np.array_equal(
            sharded.times,
            [0.0, max(float(part.times[-1]) for part in parts)],
        )
        for part, trajectory in zip(slices, parts):
            assert np.array_equal(
                sharded.states[:, part], trajectory.states[[0, -1]]
            )
            assert np.array_equal(
                sharded.energies[:, part], trajectory.energies[[0, -1]]
            )

    def test_fixed_config_keeps_full_record_grid(self, operator, sigma0):
        """The variable-record fallback must not leak into fixed-step
        sharded runs: their full recorded grid survives reassembly."""
        config = IntegrationConfig(dt=0.05, record_every=10)
        simulator = CircuitSimulator(config=config)
        sharded = run_batch_sharded(
            simulator, operator.drift, sigma0, 10.0, workers=1, shards=2
        )
        assert len(sharded.times) == expected_record_count(config, 10.0)
