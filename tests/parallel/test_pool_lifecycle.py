"""Lifecycle of the persistent worker pool behind ``parallel_map``.

The pool is created lazily, reused by every call with the same
``(start method, workers)`` key, replaced when the key changes or its
workers were killed from outside, and shut down without leaving child
processes or shared-memory blocks behind.
"""

import multiprocessing
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import obs
from repro.core.dynamics import CircuitSimulator, IntegrationConfig
from repro.parallel import (
    parallel_map,
    run_batch_sharded,
    shm_available,
    shm_residue,
    shutdown_pool,
)
from repro.parallel.pool import START_METHOD_ENV

#: Rebound in the parent by a test: a forked worker inherits the new
#: value, a spawned worker re-imports this module and sees this one.
_MARK = "import"

TASKS = [(index,) for index in range(4)]


def _pid(_index):
    return os.getpid()


def _mark(_index):
    return _MARK


def _observing(_index):
    return obs.enabled()


def _children() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()}


@pytest.fixture()
def simulator():
    return CircuitSimulator(config=IntegrationConfig(dt=0.05, record_every=4))


@pytest.fixture(autouse=True)
def no_pool():
    """Every test starts and ends without a live pool."""
    shutdown_pool()
    yield
    shutdown_pool()


class TestReuse:
    def test_second_call_reuses_the_workers(self):
        with obs.metrics_enabled() as registry:
            first = parallel_map(_pid, TASKS, workers=2)
            workers = _children()
            second = parallel_map(_pid, TASKS, workers=2)
            assert _children() == workers
            assert registry.counter("parallel.pool_starts").value == 1
            assert registry.counter("parallel.pool_reuses").value == 1
            starts = registry.histogram("parallel.pool_start_ms").samples
        assert len(starts) == 1 and starts[0] > 0.0
        assert len(workers) == 2 and os.getpid() not in workers
        assert set(first) | set(second) <= workers

    def test_new_worker_count_starts_a_new_pool(self):
        parallel_map(_pid, TASKS, workers=2)
        two = _children()
        parallel_map(_pid, TASKS, workers=3)
        three = _children()
        assert len(three) == 3 and not two & three

    def test_start_method_flip_starts_a_pool_of_the_new_method(
        self, monkeypatch
    ):
        available = multiprocessing.get_all_start_methods()
        if "fork" not in available or "spawn" not in available:
            pytest.skip("needs both fork and spawn")
        monkeypatch.setattr(sys.modules[__name__], "_MARK", "parent")
        monkeypatch.setenv(START_METHOD_ENV, "fork")
        forked = parallel_map(_mark, TASKS, workers=2)
        fork_workers = _children()
        monkeypatch.setenv(START_METHOD_ENV, "spawn")
        spawned = parallel_map(_mark, TASKS, workers=2)
        assert forked == ["parent"] * 4
        assert spawned == ["import"] * 4
        assert not fork_workers & _children()


class TestExternalTermination:
    def test_killed_workers_are_replaced_by_the_next_call(self):
        parallel_map(_pid, TASKS, workers=2)
        victims = multiprocessing.active_children()
        for child in victims:
            child.terminate()
            child.join()
        pids = parallel_map(_pid, TASKS, workers=2)
        assert not set(pids) & {victim.pid for victim in victims}

    @pytest.mark.skipif(
        not shm_available(), reason="named shared memory unavailable"
    )
    def test_benchmark_reaper_neither_hangs_nor_breaks_the_process(self):
        """A benchmark's exit path terminates every child and then stops
        the shared-memory resource tracker, which blocks until every
        holder of the tracker's pipe is gone.  A pool that respawned its
        workers would keep it open and hang the process for good."""
        script = textwrap.dedent(
            """
            import multiprocessing
            from multiprocessing import resource_tracker

            import numpy as np

            from repro.core.dynamics import CircuitSimulator, IntegrationConfig
            from repro.core.operators import CouplingOperator
            from repro.parallel import run_batch_sharded, shm_residue

            operator = CouplingOperator(
                np.zeros((8, 8)), -np.ones(8), backend="dense"
            )
            simulator = CircuitSimulator(config=IntegrationConfig(dt=0.1))
            sigma0 = np.linspace(-1, 1, 32).reshape(4, 8)


            def run():
                return run_batch_sharded(
                    simulator, operator.drift, sigma0, 1.0,
                    workers=2, shards=2,
                ).final_states


            def stop_children():
                for child in multiprocessing.active_children():
                    child.terminate()
                    child.join()
                resource_tracker._resource_tracker._stop()


            first = run()
            stop_children()
            assert np.array_equal(run(), first)
            stop_children()
            assert shm_residue() == [], shm_residue()
            print("ok")
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=90,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ok"


class TestShutdown:
    def test_shutdown_leaves_no_children_or_blocks(
        self, simulator, small_operator
    ):
        batch = np.linspace(-1, 1, 6 * small_operator.n).reshape(6, -1)
        run_batch_sharded(
            simulator, small_operator.drift, batch, 1.0,
            workers=2, shards=3,
        )
        assert _children()
        shutdown_pool()
        assert multiprocessing.active_children() == []
        assert shm_residue() == []

    def test_shutdown_is_idempotent(self):
        shutdown_pool()
        shutdown_pool()
        assert parallel_map(_pid, TASKS, workers=2)


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/<pid>/fd"
)
@pytest.mark.skipif(
    not shm_available(), reason="named shared memory unavailable"
)
def test_workers_do_not_accumulate_descriptors(simulator, small_operator):
    """Every shared block a task attached is closed when the task ends;
    a long-lived worker that kept one descriptor per task would run out
    of them."""
    batch = np.linspace(-1, 1, 6 * small_operator.n).reshape(6, -1)

    def run():
        run_batch_sharded(
            simulator, small_operator.drift, batch, 1.0,
            energy=small_operator.energy, workers=2, shards=2,
        )

    def open_descriptors():
        return {
            pid: len(os.listdir(f"/proc/{pid}/fd")) for pid in _children()
        }

    run()
    before = open_descriptors()
    for _ in range(8):
        run()
    assert open_descriptors() == before


class TestObservabilityAcrossReuse:
    @pytest.fixture()
    def merges(self, monkeypatch):
        merged = []
        real = obs.merge_worker_state

        def spy(state):
            merged.append(state)
            real(state)

        monkeypatch.setattr(obs, "merge_worker_state", spy)
        return merged

    def test_pool_started_observing_ships_nothing_once_disabled(
        self, merges
    ):
        with obs.metrics_enabled():
            assert parallel_map(_observing, TASKS, workers=2) == [True] * 4
        workers = _children()
        assert len(merges) == 4
        merges.clear()
        assert parallel_map(_observing, TASKS, workers=2) == [False] * 4
        assert merges == []
        assert _children() == workers

    def test_pool_started_quiet_ships_state_once_enabled(self, merges):
        assert parallel_map(_observing, TASKS, workers=2) == [False] * 4
        workers = _children()
        assert merges == []
        with obs.metrics_enabled():
            assert parallel_map(_observing, TASKS, workers=2) == [True] * 4
        assert len(merges) == 4
        assert _children() == workers
