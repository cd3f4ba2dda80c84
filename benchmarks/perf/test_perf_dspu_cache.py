"""ScalableDSPU propagator-cache gate (``perf``-marked, skipped by default).

A forecast on a fixed mapping and clamp set re-anneals with the same
per-phase matrix exponentials every call; the per-instance cache builds
them once.  A warm ``anneal`` therefore only runs the interval loop and
must be an order of magnitude faster than a cold one, with identical
outcomes.
"""

import time

import numpy as np
import pytest

pytestmark = pytest.mark.perf


def _best_of(calls) -> float:
    """Fastest of ``calls`` (zero-argument callables), in seconds."""
    best = float("inf")
    for call in calls:
        started = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - started)
    return best


def test_warm_anneal_is_10x_faster_than_cold_smoke(context):
    trained = context.dense("traffic")
    observed = trained.windowing.observed_index
    history = trained.windowing.history_of(trained.test.series, 3)
    cold = [context.dspu("traffic", 0.15, "dmesh") for _ in range(5)]
    warm = cold[-1]

    outcomes = []

    def anneal(dspu):
        outcomes.append(dspu.anneal(observed, history))

    cold_s = _best_of([lambda dspu=dspu: anneal(dspu) for dspu in cold])
    warm_s = _best_of([lambda: anneal(warm)] * 5)

    first = outcomes[0]
    for other in outcomes[1:]:
        assert np.array_equal(first.prediction, other.prediction)
        assert np.array_equal(first.state, other.state)
        assert first.latency_ns == other.latency_ns
    assert cold_s >= 10.0 * warm_s, (
        f"warm anneal {warm_s * 1e3:.3f} ms vs cold {cold_s * 1e3:.3f} ms "
        f"({cold_s / warm_s:.1f}x, need >= 10x)"
    )
