"""Tests of the benchmark itself: inputs, names, tail rule, checks.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from perfbench import inputs  # noqa: E402
from perfbench.measure import NAME_RE, samples_beyond, tail  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    Circuit,
    Op,
    Pipeline,
    Serve,
    count_failed,
)


def digest(workload) -> str:
    h = hashlib.sha256()
    for array in workload.inputs_digest():
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_repeat_under_a_seed_and_differ_across_seeds(name):
    cls = WORKLOADS[name]
    first, again, other = cls(3, 2.0), cls(3, 2.0), cls(4, 2.0)
    assert digest(first) == digest(again)
    assert digest(first) != digest(other)


def test_deltas_keep_the_model_convex_and_change_every_edge():
    J, h = inputs.convex_sparse_model(128, 0.05, seed=5)
    work = J.copy()
    for delta in inputs.delta_sequence(J, h, count=20, edits=4, seed=5):
        assert not np.any(work[delta.edges[:, 0], delta.edges[:, 1]] == delta.weights)
        inputs.apply_delta(work, delta)
        assert np.all(-h - np.abs(work).sum(axis=1) > 0.0)
        np.testing.assert_array_equal(work, work.T)


def test_arrivals_span_the_run_at_the_mean_rate():
    offsets = inputs.arrival_offsets(2000, 200.0, seed=1)
    assert offsets[0] == 0.0 and np.all(np.diff(offsets) >= 0.0)
    gaps = np.diff(offsets)
    assert offsets[-1] == pytest.approx(10.0 - gaps.mean(), rel=0.01)


def test_metric_names_are_valid_and_unique():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME_RE.match(name) for name in names)
    assert len(names) == len(set(names))
    assert set(WORKLOADS) == {w["name"] for w in spec["workloads"]}


@pytest.mark.parametrize("count", [5, 100, 999, 1000, 1001, 5000])
def test_tail_needs_ten_samples_beyond(count):
    values = np.random.default_rng(count).permutation(count).astype(float)
    p99 = tail(values, 0.99)
    beyond = int(np.count_nonzero(values > np.percentile(values, 99)))
    assert samples_beyond(count, 0.99) == beyond
    assert (p99 is None) == (beyond < 10)


class SmallServe(Serve):
    N = 64


class SmallCircuit(Circuit):
    N = 64
    BATCHES = 2
    BATCH = 4


def test_a_corrupted_serve_reply_is_caught_and_counted():
    serve = SmallServe(seed=2, seconds=0.05)
    ops = []
    for i in range(len(serve.offsets)):
        index = serve.sets[i % serve.SETS]
        exact = inputs.fixed_point(serve.J, serve.h, index, serve.values[i])[0]
        serve.replies[i] = (0, 0, exact)
        ops.append(Op(i, 1.0, True, 1))
    assert count_failed(ops, serve.check()[0]) == 0
    serve.replies[3][2][0] += 1e-3
    bad, quality = serve.check()
    assert bad == {3: 1}
    assert quality["max_abs_err"] == pytest.approx(1e-3)
    assert count_failed(ops, bad) / len(ops) == pytest.approx(1 / len(ops))


def test_a_reply_matching_only_a_later_model_version_fails():
    serve = SmallServe(seed=2, seconds=0.5)
    serve.deltas = inputs.delta_sequence(serve.J, serve.h, 1, 4, seed=2)
    serve.deltas_sent = 1
    J = serve.J.copy()
    inputs.apply_delta(J, serve.deltas[0])
    index = serve.sets[0]
    after = inputs.fixed_point(J, serve.h, index, serve.values[0])[0]
    serve.replies = {0: (1, 1, after)}
    assert serve.check()[0] == {}
    serve.replies = {0: (0, 0, after)}
    assert serve.check()[0] == {0: 1}


def test_a_corrupted_circuit_prediction_is_caught_and_counted():
    circuit = SmallCircuit(seed=4, seconds=1.0)
    for k in range(3):
        batch = k % circuit.BATCHES
        exact = inputs.fixed_point(
            circuit.J, circuit.h, circuit.observed, circuit.values[batch]
        )
        circuit.results.append((k, batch, exact, 5.0))
    ops = [Op(k, 1.0, True, circuit.BATCH) for k in range(3)]
    assert count_failed(ops, circuit.check()[0]) == 0
    circuit.results[1][2][2, 0] = np.nan
    bad, _ = circuit.check()
    assert bad == {1: 1}
    assert count_failed(ops, bad) / sum(op.items for op in ops) == pytest.approx(1 / 12)


def test_a_forecast_no_better_than_persistence_fails_every_frame():
    pipeline = Pipeline(seed=6, seconds=1.0)
    frames = len(pipeline.history)
    pipeline.cursor = frames
    ops = [Op(k, 1.0, True, 1) for k in range(frames)]
    pipeline.predictions = dict(enumerate(pipeline.target + 0.01))
    pipeline.sim_latency_ns = {pipeline.DURATION_NS}
    assert count_failed(ops, pipeline.check()[0]) == 0
    pipeline.predictions = dict(enumerate(pipeline.persistence))
    bad, quality = pipeline.check()
    assert quality["rmse"] == pytest.approx(quality["persistence_rmse"])
    assert count_failed(ops, bad) == frames


def test_stop_children_reaps_the_shared_memory_tracker():
    """The first shared-memory block starts multiprocessing's resource
    tracker, which would otherwise outlive the benchmark unreaped."""
    from multiprocessing import resource_tracker, shared_memory

    from perfbench.run import stop_children

    block = shared_memory.SharedMemory(create=True, size=16)
    block.close()
    block.unlink()
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    stop_children()
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
