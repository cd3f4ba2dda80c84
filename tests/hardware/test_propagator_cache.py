"""Tests of the ScalableDSPU per-phase propagator cache.

A repeated ``anneal`` on one mapping reuses the per-phase propagators
built by the first call.  The cache must be invisible in the outcomes:
a warm call equals a fresh instance's cold call bit for bit, and the
paths that cannot be cached (per-call coupler noise, fault injection)
rebuild exactly as before without touching the cache.
"""

import numpy as np
import pytest

from repro import obs
from repro.faults import FaultModel
from repro.hardware import HardwareConfig, ScalableDSPU
from repro.hardware import scalable_dspu


@pytest.fixture(scope="module")
def make_dspu(decomposed_traffic):
    config = HardwareConfig(
        grid_shape=(3, 3),
        pe_capacity=decomposed_traffic.placement.capacity,
        lanes=8,
    )

    def make(backend="auto"):
        return ScalableDSPU(
            decomposed_traffic,
            config,
            node_time_constant_ns=500.0,
            backend=backend,
        )

    return make


@pytest.fixture(scope="module")
def anneal_inputs(traffic_setup):
    tw = traffic_setup["windowing"]
    test = traffic_setup["test"].series
    return tw.observed_index, tw.history_of(test, 3), tw.history_of(test, 5)


def _same_outcome(a, b):
    return (
        np.array_equal(a.prediction, b.prediction)
        and np.array_equal(a.state, b.state)
        and a.latency_ns == b.latency_ns
        and a.phases_completed == b.phases_completed
        and a.exited_early == b.exited_early
    )


def _cache_counters(registry):
    counters = registry.snapshot()["counters"]
    return (
        counters.get("dspu.propagator_cache_hits", 0),
        counters.get("dspu.propagator_cache_misses", 0),
    )


WARM_GRID = [
    pytest.param(dict(duration_ns=4000.0), id="default"),
    pytest.param(
        dict(duration_ns=4000.0, force_spatial_only=True), id="spatial_only"
    ),
    pytest.param(
        dict(duration_ns=20000.0, early_exit=True, sync_interval_ns=100.0),
        id="early_exit",
    ),
    pytest.param(
        dict(duration_ns=2000.0, sync_interval_ns=50.0), id="sync_50ns"
    ),
    pytest.param(dict(duration_ns=2000.0, workers=2), id="workers2"),
]


class TestWarmEqualsCold:
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("kwargs", WARM_GRID)
    def test_warm_anneal_bitwise_equals_fresh_instance(
        self, make_dspu, anneal_inputs, backend, kwargs
    ):
        observed, history, other_history = anneal_inputs
        warm = make_dspu(backend)
        # Warm the cache on a different frame: only the clamp set,
        # interval and mode select the entry, never the values.
        warm.anneal(observed, other_history, **kwargs)
        with obs.observe() as (registry, _tracer):
            hit = warm.anneal(
                observed, history, rng=np.random.default_rng(11), **kwargs
            )
            assert _cache_counters(registry) == (1, 0)
        cold = make_dspu(backend).anneal(
            observed, history, rng=np.random.default_rng(11), **kwargs
        )
        assert _same_outcome(hit, cold)

    def test_cache_is_lazy(self, make_dspu):
        assert len(make_dspu()._propagator_cache) == 0

    @pytest.mark.parametrize(
        "variant", ["clamp_order", "interval", "spatial_only"]
    )
    def test_each_key_component_selects_its_own_entry(
        self, make_dspu, anneal_inputs, variant
    ):
        observed, history, _other = anneal_inputs
        dspu = make_dspu()
        dspu.anneal(observed, history, duration_ns=1000.0)
        kwargs = dict(duration_ns=1000.0)
        if variant == "clamp_order":
            order = np.arange(observed.size)[::-1]
            observed, history = observed[order], history[order]
        elif variant == "interval":
            kwargs["sync_interval_ns"] = 100.0
        else:
            kwargs["force_spatial_only"] = True
        with obs.observe() as (registry, _tracer):
            changed = dspu.anneal(observed, history, **kwargs)
            assert _cache_counters(registry) == (0, 1)
        fresh = make_dspu().anneal(observed, history, **kwargs)
        assert _same_outcome(changed, fresh)


class TestBypass:
    @pytest.mark.parametrize("kind", ["coupler_noise", "faults"])
    def test_uncacheable_calls_skip_the_cache(
        self, make_dspu, anneal_inputs, kind
    ):
        observed, history, _other = anneal_inputs
        warm = make_dspu()
        if kind == "coupler_noise":
            kwargs = dict(coupling_noise_std=0.05)
        else:
            scenario = FaultModel.uniform(0.05, seed=1).sample(
                warm.model.n, J=warm.model.J
            )
            kwargs = dict(faults=scenario)
        clean = warm.anneal(observed, history, duration_ns=4000.0)
        entries = dict(warm._propagator_cache)
        with obs.observe() as (registry, _tracer):
            bypassed = warm.anneal(
                observed, history, duration_ns=4000.0,
                rng=np.random.default_rng(3), **kwargs,
            )
            assert _cache_counters(registry) == (0, 0)
            assert registry.snapshot()["histograms"][
                "dspu.build_propagators_ms"
            ]["count"] == 1
        assert warm._propagator_cache == entries
        # A fresh instance has nothing cached, so it is the uncached
        # build; the warm instance must not have served its clean entry.
        fresh = make_dspu().anneal(
            observed, history, duration_ns=4000.0,
            rng=np.random.default_rng(3), **kwargs,
        )
        assert _same_outcome(bypassed, fresh)
        assert not np.array_equal(bypassed.prediction, clean.prediction)


class TestLRU:
    def test_evicts_least_recently_used_at_bound(
        self, make_dspu, anneal_inputs, monkeypatch
    ):
        monkeypatch.setattr(scalable_dspu, "PROPAGATOR_CACHE_ENTRIES", 2)
        observed, history, _other = anneal_inputs
        dspu = make_dspu()

        def anneal(interval):
            dspu.anneal(
                observed, history, duration_ns=400.0,
                sync_interval_ns=interval,
            )

        with obs.observe() as (registry, _tracer):
            anneal(100.0)
            anneal(200.0)
            anneal(100.0)  # hit: 100 ns becomes most recent
            anneal(50.0)  # evicts 200 ns, the least recently used
            snapshot = registry.snapshot()
            assert snapshot["counters"]["dspu.propagator_cache_evictions"] == 1
            assert snapshot["gauges"]["dspu.propagator_cache_size"] == 2
            assert _cache_counters(registry) == (1, 3)
            anneal(100.0)  # still cached
            assert _cache_counters(registry) == (2, 3)
            anneal(200.0)  # was evicted: rebuilt
            assert _cache_counters(registry) == (2, 4)
        assert len(dspu._propagator_cache) == 2
