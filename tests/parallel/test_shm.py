"""Tests of the zero-copy shared-memory transport (:mod:`repro.parallel.shm`).

Covers the descriptor-pickling contract (tasks ship ~100-byte handles, not
arrays), the arena's lifecycle guarantee (no ``/dev/shm`` residue on
success *or* error — including a worker raising mid-shard), that every
returned result owns its memory (closing an arena unmaps its slabs even
under live views), the in-process fallback where shared memory is
unavailable (same shards, same bits), and the attach/detach
observability counters.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro import obs
from repro.core.dynamics import CircuitSimulator, IntegrationConfig
from repro.core.operators import CouplingOperator
from repro.parallel import (
    SharedArena,
    infer_batch_sharded,
    parallel_map,
    pickled_bytes,
    restart_fanout,
    run_batch_sharded,
    shard_task_bytes,
    shm_available,
    shm_residue,
)
from repro.parallel import shm as shm_module
from repro.parallel.shm import (
    LocalArray,
    SharedOperatorMethod,
    detach_task_attachments,
    maybe_share_method,
)

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="named shared memory unavailable"
)


def _read_shared(handle):
    """Worker task: attach a descriptor and return a private copy."""
    return handle.array.copy()


def _sum_shared(handle, start, stop):
    return float(handle.array[start:stop].sum())


def _boom_on_shard(handle, index):
    """Worker task that fails mid-shard (after attaching its view)."""
    _ = handle.array[0]
    if index == 1:
        raise RuntimeError("shard blew up")
    return index


class TestSharedArray:
    def test_round_trips_through_pickle_as_descriptor(self):
        rng = np.random.default_rng(0)
        array = rng.normal(size=(7, 5))
        with SharedArena(tag="t") as arena:
            handle = arena.share(array)
            clone = pickle.loads(pickle.dumps(handle))
            assert np.array_equal(clone.array, array)
            assert clone.name == handle.name
            detach_task_attachments()

    def test_descriptor_size_is_independent_of_array_size(self):
        with SharedArena(tag="t") as arena:
            small = pickled_bytes(arena.share(np.zeros(4)))
            big = pickled_bytes(arena.share(np.zeros((512, 512))))
        # Both are (name, shape, dtype) tuples; the payload must not grow
        # with the data — that is the entire point of the transport.
        assert big < small + 64

    def test_shared_views_are_read_only(self):
        with SharedArena(tag="t") as arena:
            handle = arena.share(np.arange(3.0))
            with pytest.raises(ValueError):
                handle.array[0] = 9.0

    def test_output_slabs_are_writable_and_zeroed(self):
        with SharedArena(tag="t") as arena:
            slab = arena.empty((4, 3))
            assert np.array_equal(slab.array, np.zeros((4, 3)))
            slab.array[2, 1] = 5.0
            assert slab.array[2, 1] == 5.0

    def test_workers_read_the_same_bits(self):
        rng = np.random.default_rng(1)
        array = rng.normal(size=(6, 4))
        with SharedArena(tag="t") as arena:
            handle = arena.share(array)
            results = parallel_map(
                _read_shared, [(handle,), (handle,)], workers=2
            )
        for result in results:
            assert np.array_equal(result, array)


class TestSharedOperator:
    @pytest.fixture()
    def operator(self):
        rng = np.random.default_rng(2)
        n = 10
        raw = rng.normal(size=(n, n)) * 0.2
        J = (raw + raw.T) / 2.0
        np.fill_diagonal(J, 0.0)
        return CouplingOperator(J, -(np.abs(J).sum(axis=1) + 1.0))

    def test_shared_method_matches_bound_method(self, operator):
        sigma = np.linspace(-1, 1, operator.n)
        with SharedArena(tag="t") as arena:
            drift = maybe_share_method(arena, operator.drift)
            assert isinstance(drift, SharedOperatorMethod)
            clone = pickle.loads(pickle.dumps(drift))
            assert np.array_equal(clone(sigma), operator.drift(sigma))
            detach_task_attachments()

    def test_drift_and_energy_share_one_descriptor(self, operator):
        with SharedArena(tag="t") as arena:
            drift = maybe_share_method(arena, operator.drift)
            energy = maybe_share_method(arena, operator.energy)
            assert drift.shared is energy.shared

    def test_non_operator_callables_pass_through(self):
        with SharedArena(tag="t") as arena:
            assert maybe_share_method(arena, _read_shared) is _read_shared
            assert maybe_share_method(arena, None) is None


class TestArenaLifecycle:
    def test_no_residue_after_clean_exit(self):
        with SharedArena(tag="t") as arena:
            arena.share(np.zeros(100))
            arena.empty((10, 10))
        assert shm_residue() == []

    def test_no_residue_when_body_raises(self):
        with pytest.raises(RuntimeError, match="mid-arena"):
            with SharedArena(tag="t") as arena:
                arena.share(np.zeros(100))
                raise RuntimeError("mid-arena failure")
        assert shm_residue() == []

    def test_close_is_idempotent(self):
        arena = SharedArena(tag="t")
        arena.share(np.zeros(5))
        arena.close()
        arena.close()
        assert shm_residue() == []

    def test_closed_arena_refuses_new_blocks(self):
        arena = SharedArena(tag="t")
        arena.close()
        with pytest.raises(RuntimeError, match="closed"):
            arena.share(np.zeros(2))

    def test_worker_raising_mid_shard_leaves_no_residue(self):
        """Satellite contract: a failed fan-out may not strand blocks."""
        with pytest.raises(RuntimeError, match="shard blew up"):
            with SharedArena(tag="t") as arena:
                handle = arena.share(np.zeros(64))
                parallel_map(
                    _boom_on_shard,
                    [(handle, 0), (handle, 1), (handle, 2)],
                    workers=2,
                )
        assert shm_residue() == []

    def test_serial_worker_raising_leaves_no_residue(self):
        with pytest.raises(RuntimeError, match="shard blew up"):
            with SharedArena(tag="t") as arena:
                handle = arena.share(np.zeros(64))
                parallel_map(_boom_on_shard, [(handle, 1)], workers=1)
        assert shm_residue() == []


def _result_arrays(result):
    """Every ndarray reachable from a sharded call's return value."""
    if isinstance(result, np.ndarray):
        yield result
    elif isinstance(result, dict):
        for value in result.values():
            yield from _result_arrays(value)
    elif isinstance(result, (list, tuple)):
        for value in result:
            yield from _result_arrays(value)
    elif dataclasses.is_dataclass(result):
        for field in dataclasses.fields(result):
            yield from _result_arrays(getattr(result, field.name))


class _SlabViews:
    """Whole-block views of every arena block, taken at close time.

    Only their address ranges are compared afterwards; nothing reads
    through them once the blocks are unmapped, and neither this holder
    nor a checked result is ever an argument of a failing frame, so a
    failure report cannot print (read) unmapped memory either.
    """

    def __init__(self):
        self.views = []

    def __repr__(self) -> str:
        return f"<{len(self.views)} slab views>"

    def shared_with(self, result) -> int:
        """How many (array, slab) pairs of ``result`` share memory."""
        arrays = list(_result_arrays(result))
        if not (arrays and self.views):
            raise AssertionError("nothing to compare")
        return sum(
            np.shares_memory(array, view)
            for array in arrays
            for view in self.views
        )


class TestResultsOwnTheirMemory:
    """``np.ndarray(buffer=block.buf)`` holds no buffer export, so an
    arena's ``close()`` unmaps its slabs even while views of them are
    alive.  A returned array that still viewed a slab would read unmapped
    memory; every result must be a copy."""

    @pytest.fixture
    def slabs(self, monkeypatch):
        captured = _SlabViews()
        close = SharedArena.close

        def capturing_close(arena):
            if not arena._closed:
                captured.views.extend(
                    np.ndarray((block.size,), dtype=np.uint8, buffer=block.buf)
                    for block in arena._blocks
                )
            close(arena)

        monkeypatch.setattr(SharedArena, "close", capturing_close)
        return captured

    @pytest.mark.parametrize("early_exit", [False, True])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_batch_sharded(self, slabs, small_operator, workers, early_exit):
        simulator = CircuitSimulator(
            IntegrationConfig(dt=0.05, record_every=4, early_exit=early_exit)
        )
        batch = np.random.default_rng(6).uniform(
            -1, 1, size=(4, small_operator.n)
        )
        shared = slabs.shared_with(
            run_batch_sharded(
                simulator, small_operator.drift, batch, 2.0,
                clamp_index=np.arange(2), clamp_value=batch[:, :2],
                energy=small_operator.energy, workers=workers, shards=2,
            )
        )
        assert shared == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_infer_batch_sharded(self, slabs, engine, workers):
        values = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        shared = slabs.shared_with(
            infer_batch_sharded(
                engine, np.arange(4), values, duration=1.0,
                workers=workers, shards=2,
            )
        )
        assert shared == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_restart_fanout(self, slabs, engine, workers):
        shared = slabs.shared_with(
            restart_fanout(
                engine, np.arange(4), np.linspace(-1.0, 1.0, 4),
                restarts=4, duration=1.0, root_seed=0, max_retries=0,
                workers=workers, shards=2,
            )
        )
        assert shared == 0


class TestInProcessFallback:
    """Without named shared memory an arena hands out process-local arrays
    and the sharded paths run the same shards serially in-process; the
    result bits must not change."""

    @pytest.fixture()
    def batch(self, small_operator):
        rng = np.random.default_rng(3)
        return rng.uniform(-1, 1, size=(9, small_operator.n))

    @pytest.fixture()
    def no_shm(self, monkeypatch):
        monkeypatch.setattr(shm_module, "_AVAILABLE", False)

    def test_arena_hands_out_local_arrays(self, no_shm):
        with SharedArena(tag="t") as arena:
            assert arena.shared is False
            assert arena.workers(4) == 1
            handle = arena.share(np.arange(3.0))
            slab = arena.empty((2, 2))
        assert isinstance(handle, LocalArray)
        assert np.array_equal(handle.array, np.arange(3.0))
        assert not handle.array.flags.writeable
        assert slab.array.flags.writeable
        assert shm_residue() == []

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_fallback_matches_shared_memory(
        self, noisy_simulator, small_operator, batch, workers, monkeypatch
    ):
        run = lambda: run_batch_sharded(  # noqa: E731
            noisy_simulator,
            small_operator.drift,
            batch,
            duration=2.0,
            energy=small_operator.energy,
            workers=workers,
            shards=3,
            root_seed=7,
        )
        shared = run()
        monkeypatch.setattr(shm_module, "_AVAILABLE", False)
        with obs.metrics_enabled() as registry:
            local = run()
            pooled = registry.counter("parallel.pool_starts").value + (
                registry.counter("parallel.pool_reuses").value
            )
        assert pooled == 0
        assert np.array_equal(shared.times, local.times)
        assert np.array_equal(shared.states, local.states)
        assert np.array_equal(shared.energies, local.energies)
        assert shm_residue() == []

    def test_task_bytes_do_not_grow_with_problem_size(self, noisy_simulator):
        sizes = []
        for n in (16, 256):
            operator = CouplingOperator(
                np.zeros((n, n)), -np.ones(n), backend="dense"
            )
            sigma0 = np.zeros((6, n))
            sizes.append(
                shard_task_bytes(
                    noisy_simulator, operator.drift, sigma0, 2.0,
                    shards=3, energy=operator.energy,
                )
            )
        # Descriptors only: a 256x larger coupling matrix and 16x larger
        # state add a few bytes of shape integers, never the data.
        assert sizes[1] < sizes[0] + 64
        assert sizes[0] < 4096
        assert shm_residue() == []


class TestObsCounters:
    def test_attach_detach_balance_and_bytes(
        self, noisy_simulator, small_operator
    ):
        rng = np.random.default_rng(4)
        batch = rng.uniform(-1, 1, size=(6, small_operator.n))
        with obs.metrics_enabled() as registry:
            run_batch_sharded(
                noisy_simulator,
                small_operator.drift,
                batch,
                duration=1.0,
                workers=2,
                shards=3,
                root_seed=5,
            )
            snapshot = registry.snapshot()
        counters = snapshot["counters"]
        assert counters["parallel.shm.blocks"] >= 4
        assert counters["parallel.shm.bytes_shared"] > 0
        # Every worker-side attach must be balanced by a detach (the pool
        # closes task views in a finally); imbalance means a leaked map.
        assert counters["parallel.shm.attaches"] > 0
        assert counters["parallel.shm.attaches"] == counters[
            "parallel.shm.detaches"
        ]
        assert counters["parallel.tasks"] == 3
        assert counters["parallel.bytes_pickled"] > 0

    def test_summary_reports_transport_lines(
        self, noisy_simulator, small_operator
    ):
        from repro.obs.summary import format_metrics

        rng = np.random.default_rng(4)
        batch = rng.uniform(-1, 1, size=(4, small_operator.n))
        with obs.metrics_enabled() as registry:
            run_batch_sharded(
                noisy_simulator, small_operator.drift, batch,
                duration=1.0, workers=2, shards=2, root_seed=5,
            )
            rendered = format_metrics(registry.snapshot())
        assert "shm transport:" in rendered
        assert "(balanced)" in rendered
