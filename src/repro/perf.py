"""Performance harness for the annealing hot paths (``repro bench``).

Times the optimized execution paths introduced by the operator/batching
engine against their pre-existing baselines and writes ``BENCH_core.json``
for the performance trajectory:

* **drift** — dense vs sparse drift evaluation (the ``J @ sigma`` inside
  the circuit integrator) at several graph sizes and densities,
* **circuit batch** — looped :meth:`CircuitSimulator.run` vs one
  vectorized :meth:`CircuitSimulator.run_batch` over the same samples,
* **equilibrium** — per-sample fixed-point solves (the pre-operator
  accuracy-sweep path) vs the cached/batched LU path of
  :meth:`NaturalAnnealingEngine.infer_equilibrium_batch`.

Each comparison also records the maximum deviation between baseline and
optimized outputs, so the speedups are tied to a correctness bound.

Timings keep the *full* per-repeat sample list (``baseline_stats`` /
``optimized_stats`` with best/median/p90), so run-to-run dispersion is
visible in ``BENCH_core.json`` rather than being collapsed to best-of.
The payload also embeds a metrics snapshot — LU-cache hit counters, solve
and factorization timings — collected through :mod:`repro.obs` while the
benchmarks run.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import numpy as np

from . import obs
from .core.dynamics import CircuitSimulator, IntegrationConfig
from .core.inference import NaturalAnnealingEngine
from .core.model import DSGLModel
from .core.operators import CouplingOperator
from .stream.bench import bench_stream_suite

__all__ = [
    "random_sparse_system",
    "random_sparse_mesh",
    "bench_parallel_scaling",
    "run_core_benchmarks",
    "format_bench",
    "write_bench_json",
]


def random_sparse_system(
    n: int, density: float, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """A random symmetric coupling matrix at a target off-diagonal density.

    Couplings are drawn for a uniform random subset of node pairs;
    ``h`` is set diagonally dominant (strictly negative, exceeding each
    row's absolute coupling sum) so the system is convex and every
    execution path converges to the same unique fixed point.

    Returns:
        ``(J, h)`` with ``J`` dense ``(n, n)`` and ``h`` of shape ``(n,)``.
    """
    if not 0 < density <= 1:
        raise ValueError(f"density must be in (0, 1], got {density}")
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    num_pairs = iu.size
    keep = max(1, int(round(density * num_pairs)))
    selected = rng.choice(num_pairs, size=keep, replace=False)
    weights = rng.normal(size=keep) * 0.5
    J = np.zeros((n, n))
    J[iu[selected], ju[selected]] = weights
    J[ju[selected], iu[selected]] = weights
    h = -(np.abs(J).sum(axis=1) + 1.0)
    return J, h


def random_sparse_mesh(
    n: int, density: float, seed: int = 0
) -> tuple["object", np.ndarray]:
    """A random symmetric CSR coupling matrix at mesh scale.

    :func:`random_sparse_system` materializes every node pair via
    ``np.triu_indices`` — fine to a few thousand nodes, hopeless at 100k
    (5e9 pairs).  This generator samples ``density * n * (n-1) / 2``
    upper-triangle pairs directly and never builds a dense matrix, so a
    100k-node / 0.1%-density mesh costs ~10M entries, not 80 GB.

    Returns:
        ``(J, h)`` with ``J`` a ``scipy.sparse.csr_matrix`` of shape
        ``(n, n)`` and ``h`` of shape ``(n,)``.
    """
    import scipy.sparse as sp

    if not 0 < density <= 1:
        raise ValueError(f"density must be in (0, 1], got {density}")
    rng = np.random.default_rng(seed)
    num_pairs = n * (n - 1) // 2
    keep = max(1, min(num_pairs, int(round(density * num_pairs))))
    # Sample pair indices with replacement, then dedupe: at low density
    # collisions are rare and the realized density stays within a hair of
    # the target, without a 5e9-element permutation.
    flat = np.unique(rng.integers(0, num_pairs, size=int(keep * 1.05) + 8))
    flat = flat[:keep]
    # Invert the row-major upper-triangle linearization k = i*n - i(i+3)/2
    # + j - 1 via the quadratic formula (float64 is exact for n <= ~1e6).
    i = (
        n - 2 - np.floor(
            (np.sqrt(4.0 * n * (n - 1) - 8.0 * flat - 7.0) - 1.0) / 2.0
        )
    ).astype(np.int64)
    j = (flat + i * (i + 3) // 2 - i * n + 1).astype(np.int64)
    weights = rng.normal(size=flat.size) * 0.5
    J = sp.coo_matrix(
        (
            np.concatenate([weights, weights]),
            (np.concatenate([i, j]), np.concatenate([j, i])),
        ),
        shape=(n, n),
    ).tocsr()
    h = -(np.abs(J).sum(axis=1).A1 + 1.0)
    return J, h


def _peak_rss_mb() -> float:
    """Peak resident-set size of this process in MiB (Linux ru_maxrss KiB)."""
    import resource
    import sys

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # macOS reports bytes
        return usage / (1024.0 * 1024.0)
    return usage / 1024.0


def _time_samples_ms(fn, repeats: int) -> list[float]:
    """Per-repeat wall times of ``fn()`` in milliseconds (all samples)."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1000.0)
    return samples


def _timing_stats(samples_ms: list[float]) -> dict:
    """Dispersion summary of a timing-sample list.

    Quantiles use numpy's default linear interpolation (Hyndman-Fan
    type 7), matching the obs-layer histograms so bench numbers and
    telemetry quantiles line up; every raw sample is kept so that
    ``repro obs diff`` can derive its noise band per benchmark.
    """
    ordered = np.sort(np.asarray(samples_ms, dtype=float))
    return {
        "best_ms": float(ordered[0]),
        "median_ms": float(np.median(ordered)),
        "p90_ms": float(np.quantile(ordered, 0.9)),
        "p99_ms": float(np.quantile(ordered, 0.99)),
        "samples_ms": [float(s) for s in samples_ms],
    }


def _best_of_ms(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in milliseconds."""
    return min(_time_samples_ms(fn, repeats))


def _timed_comparison(baseline_fn, optimized_fn, repeats: int) -> dict:
    """Time both sides, keeping every sample; best-of stays the headline."""
    baseline = _timing_stats(_time_samples_ms(baseline_fn, repeats))
    optimized = _timing_stats(_time_samples_ms(optimized_fn, repeats))
    return {
        "baseline_ms": baseline["best_ms"],
        "optimized_ms": optimized["best_ms"],
        "speedup": baseline["best_ms"] / max(optimized["best_ms"], 1e-9),
        "baseline_stats": baseline,
        "optimized_stats": optimized,
    }


def bench_drift(
    n: int, density: float, steps: int, repeats: int, seed: int = 0
) -> dict:
    """Dense vs sparse drift evaluation over a fixed-step Euler loop."""
    J, h = random_sparse_system(n, density, seed=seed)
    dense = CouplingOperator(J, h, backend="dense")
    sparse = CouplingOperator(J, h, backend="sparse")
    rng = np.random.default_rng(seed + 1)
    sigma0 = rng.uniform(-1.0, 1.0, size=n)

    def loop(operator):
        sigma = sigma0.copy()
        for _ in range(steps):
            sigma = sigma + 0.01 * operator.drift(sigma)
        return sigma

    deviation = float(np.max(np.abs(loop(dense) - loop(sparse))))
    return {
        "name": "drift_sparse_vs_dense",
        "n": n,
        "density": density,
        "steps": steps,
        "baseline": "dense matvec per Euler step",
        "optimized": "CSR matvec per Euler step",
        **_timed_comparison(
            lambda: loop(dense), lambda: loop(sparse), repeats
        ),
        "max_abs_diff": deviation,
    }


def bench_circuit_batch(
    n: int,
    density: float,
    batch: int,
    duration: float,
    repeats: int,
    seed: int = 0,
) -> dict:
    """Looped single-sample integration vs one batched integration."""
    J, h = random_sparse_system(n, density, seed=seed)
    operator = CouplingOperator(J, h, backend="auto")
    rng = np.random.default_rng(seed + 1)
    sigma0 = rng.uniform(-1.0, 1.0, size=(batch, n))
    config = IntegrationConfig(dt=0.1, record_every=1_000_000)

    def looped():
        simulator = CircuitSimulator(config=config)
        return np.stack(
            [
                simulator.run(operator.drift, sigma0[b], duration).final_state
                for b in range(batch)
            ]
        )

    def batched():
        simulator = CircuitSimulator(config=config)
        return simulator.run_batch(operator.drift, sigma0, duration).final_states

    deviation = float(np.max(np.abs(looped() - batched())))
    return {
        "name": "circuit_batched_vs_looped",
        "n": n,
        "density": density,
        "batch": batch,
        "duration_ns": duration,
        "backend": operator.backend,
        "baseline": "per-sample CircuitSimulator.run loop",
        "optimized": "one vectorized CircuitSimulator.run_batch",
        **_timed_comparison(looped, batched, repeats),
        "max_abs_diff": deviation,
    }


def bench_equilibrium(
    n: int, density: float, batch: int, repeats: int, seed: int = 0
) -> dict:
    """Per-sample fixed-point solves vs the cached/batched LU path."""
    J, h = random_sparse_system(n, density, seed=seed)
    model = DSGLModel(J=J, h=h)
    hamiltonian = model.hamiltonian()
    rng = np.random.default_rng(seed + 1)
    observed = np.arange(n // 2)
    free = np.arange(n // 2, n)
    values = rng.uniform(-1.0, 1.0, size=(batch, observed.size))

    def looped():
        # The pre-operator accuracy-sweep path: one full solve per sample.
        return np.stack(
            [
                hamiltonian.fixed_point(observed, v)[free]
                for v in values
            ]
        )

    engine = NaturalAnnealingEngine(model)
    engine.infer_equilibrium_batch(observed, values)  # warm the LU cache

    def batched():
        return engine.infer_equilibrium_batch(observed, values)

    deviation = float(np.max(np.abs(looped() - batched())))
    comparison = _timed_comparison(looped, batched, repeats)
    return {
        "name": "equilibrium_cached_batch_vs_looped",
        "n": n,
        "density": density,
        "batch": batch,
        "backend": engine.operator.backend,
        "baseline": "per-sample fixed_point solve",
        "optimized": "memoized LU + one batched back-substitution",
        **comparison,
        "max_abs_diff": deviation,
        # Cache telemetry: one miss for the warm-up factorization, then a
        # hit per timed solve — the hit rate the bench output reports.
        "cache_hits": engine.cache_hits,
        "cache_misses": engine.cache_misses,
        "cache_hit_rate": engine.cache_hit_rate(),
    }


def bench_parallel_batch(
    n: int,
    density: float,
    batch: int,
    duration: float,
    workers: int,
    repeats: int,
    seed: int = 0,
) -> dict:
    """Serial vs multi-worker execution of one sharded batched inference.

    Both sides run the *same* shard decomposition and per-shard RNG
    streams (``shards`` is fixed to ``workers`` for both, and the shard
    seeds derive from ``root_seed`` only), so the comparison isolates the
    process fan-out: ``max_abs_diff`` must be exactly ``0.0`` — the
    parallel layer's bit-for-bit guarantee, measured rather than assumed.
    Speedup scales with physical cores; ``cpu_count`` is recorded so a
    ~1x result on a single-core runner reads as a hardware fact, not a
    regression.
    """
    import os

    J, h = random_sparse_system(n, density, seed=seed)
    operator = CouplingOperator(J, h, backend="auto")
    rng = np.random.default_rng(seed + 1)
    sigma0 = rng.uniform(-1.0, 1.0, size=(batch, n))
    config = IntegrationConfig(
        dt=0.1, record_every=1_000_000, node_noise_std=0.01
    )
    simulator = CircuitSimulator(config=config)

    def run(num_workers: int) -> np.ndarray:
        return simulator.run_batch(
            operator.drift,
            sigma0,
            duration,
            energy=operator.energy,
            workers=num_workers,
            shards=workers,
            root_seed=seed + 2,
        ).final_states

    serial, parallel = run(1), run(workers)
    deviation = float(np.max(np.abs(serial - parallel)))
    from .parallel import shard_task_bytes

    task_bytes = shard_task_bytes(
        simulator,
        operator.drift,
        sigma0,
        duration,
        shards=workers,
        energy=operator.energy,
    )
    return {
        "name": "parallel_shards_vs_serial",
        "n": n,
        "density": density,
        "batch": batch,
        "duration_ns": duration,
        "workers": workers,
        "shards": workers,
        "cpu_count": os.cpu_count(),
        "backend": operator.backend,
        "baseline": "sharded run_batch on 1 process",
        "optimized": f"same shards on {workers} worker processes",
        **_timed_comparison(lambda: run(1), lambda: run(workers), repeats),
        "max_abs_diff": deviation,
        "bitwise_identical": bool(np.array_equal(serial, parallel)),
        "task_pickled_bytes_shm": task_bytes,
        "peak_rss_mb": _peak_rss_mb(),
    }


def bench_parallel_scaling(
    sizes: tuple[int, ...],
    shards_grid: tuple[int, ...],
    workers_grid: tuple[int, ...],
    density: float = 0.05,
    batch: int | None = None,
    duration: float = 2.0,
    seed: int = 0,
) -> dict:
    """Scaling curve of the sharded batch path over (n x shards x workers).

    One row per grid point, each recording wall time, per-task pickled
    bytes (shared-memory descriptors, so it must not grow with ``n``), and
    the parent's peak RSS.  Every row also pins ``max_abs_diff == 0``
    against the same shards at ``workers=1``, so the curve doubles as a
    worker-count equivalence sweep.
    """
    import os

    from .parallel import run_batch_sharded, shard_task_bytes, shm_available

    rows: list[dict] = []
    for n in sizes:
        J, h = random_sparse_system(n, density, seed=seed)
        operator = CouplingOperator(J, h, backend="auto")
        rng = np.random.default_rng(seed + 1)
        num_samples = batch if batch is not None else max(8, min(64, n // 8))
        sigma0 = rng.uniform(-1.0, 1.0, size=(num_samples, n))
        config = IntegrationConfig(
            dt=0.1, record_every=1_000_000, node_noise_std=0.01
        )
        simulator = CircuitSimulator(config=config)
        for shards in shards_grid:
            task_bytes = shard_task_bytes(
                simulator,
                operator.drift,
                sigma0,
                duration,
                shards=shards,
                energy=operator.energy,
            )

            def run(num_workers: int) -> np.ndarray:
                return run_batch_sharded(
                    simulator,
                    operator.drift,
                    sigma0,
                    duration,
                    energy=operator.energy,
                    workers=num_workers,
                    shards=shards,
                    root_seed=seed + 2,
                ).final_states

            reference = run(1)
            for workers in workers_grid:
                start = time.perf_counter()
                result = run(workers)
                elapsed_ms = (time.perf_counter() - start) * 1000.0
                rows.append(
                    {
                        "n": n,
                        "density": density,
                        "batch": num_samples,
                        "shards": shards,
                        "workers": workers,
                        "elapsed_ms": elapsed_ms,
                        "max_abs_diff": float(
                            np.max(np.abs(reference - result))
                        ),
                        "task_pickled_bytes_shm": task_bytes,
                        "peak_rss_mb": _peak_rss_mb(),
                    }
                )
    return {
        "name": "parallel_scaling_curve",
        "density": density,
        "duration_ns": duration,
        "cpu_count": os.cpu_count(),
        "shm_available": shm_available(),
        "rows": rows,
    }


def run_core_benchmarks(
    smoke: bool = False,
    batch: int = 64,
    repeats: int = 3,
    workers: int | None = None,
) -> dict:
    """Run the full hot-path benchmark suite.

    Args:
        smoke: Use tiny problem sizes (seconds, for CI smoke runs) instead
            of the trajectory-grade sizes.
        batch: Batch size for the batched-inference comparisons.
        repeats: Best-of repeats per timing.
        workers: Worker count of the serial-vs-parallel scaling
            comparison; defaults to 4 (2 in smoke mode).

    Returns:
        A JSON-serializable payload (see ``BENCH_core.json``).  Includes a
        ``metrics`` snapshot (cache hit counters, factorize/solve timing
        histograms) collected while the benchmarks ran.
    """
    with obs.metrics_enabled() as registry:
        results = _run_benchmark_suite(smoke, batch, repeats, workers)
        snapshot = registry.snapshot()
    return {
        "benchmark": "core_hot_paths",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "smoke": smoke,
        "repeats": repeats,
        "results": results,
        "metrics": snapshot,
    }


def _run_benchmark_suite(
    smoke: bool, batch: int, repeats: int, workers: int | None = None
) -> list[dict]:
    # Imported here because repro.tune.bench imports helpers from this
    # module; a top-level import would be circular.
    from .tune.bench import bench_tune_suite

    results = []
    if smoke:
        results.append(bench_drift(n=96, density=0.05, steps=20, repeats=repeats))
        results.append(
            bench_circuit_batch(
                n=64, density=0.2, batch=min(batch, 8), duration=2.0,
                repeats=repeats,
            )
        )
        results.append(
            bench_equilibrium(
                n=96, density=0.1, batch=min(batch, 8), repeats=repeats
            )
        )
        results.append(
            bench_parallel_batch(
                n=96, density=0.1, batch=min(batch, 8), duration=2.0,
                workers=workers or 2, repeats=repeats,
            )
        )
        results.append(
            bench_parallel_scaling(
                sizes=(64, 128),
                shards_grid=(2,),
                workers_grid=(1, workers or 2),
                density=0.1,
                batch=min(batch, 8),
                duration=1.0,
            )
        )
        results.extend(bench_stream_suite(smoke=True, repeats=repeats))
        results.extend(bench_tune_suite(smoke=True, repeats=repeats))
    else:
        for n, density in ((2048, 0.02), (2048, 0.05), (1024, 0.10)):
            results.append(
                bench_drift(n=n, density=density, steps=50, repeats=repeats)
            )
        results.append(
            bench_circuit_batch(
                n=256, density=0.1, batch=max(32, batch // 2),
                duration=20.0, repeats=repeats,
            )
        )
        results.append(
            bench_equilibrium(n=1024, density=0.05, batch=batch, repeats=repeats)
        )
        # The large batched-inference case: per-shard matvecs are sized so
        # the pickle/fork overhead amortizes, which is when sharding pays.
        results.append(
            bench_parallel_batch(
                n=512, density=0.05, batch=max(batch, 256), duration=10.0,
                workers=workers or 4, repeats=repeats,
            )
        )
        # The zero-copy payoff curve: legacy per-task pickling grows with
        # n (operator + result arrays), shm payloads stay descriptor-sized.
        results.append(
            bench_parallel_scaling(
                sizes=(512, 2048, 8192),
                shards_grid=(4, 8),
                workers_grid=(1, workers or 4),
                density=0.02,
                batch=32,
                duration=2.0,
            )
        )
        # Streaming deltas: incremental SMW update vs full refactorization,
        # over delta size × n × density (acceptance: ≥5x at n=4096, 1 edge).
        results.extend(bench_stream_suite(smoke=False, repeats=repeats))
        # Annealing-path tuning: early-exit freeze-out vs the fixed budget
        # and adaptive steps vs a conservative dt (acceptance: early-exit
        # ≥2x at n=2048 at equal accuracy).
        results.extend(bench_tune_suite(smoke=False, repeats=repeats))
    return results


def format_bench(payload: dict) -> str:
    """Human-readable table of a benchmark payload.

    Best-of stays the headline number; the median and p90 of the
    optimized path expose run-to-run dispersion next to it.
    """
    lines = [
        f"{'benchmark':<36s} {'n':>5s} {'dens':>5s} {'base ms':>9s} "
        f"{'opt ms':>9s} {'opt p50':>9s} {'opt p90':>9s} {'speedup':>8s} "
        f"{'max|diff|':>10s}"
    ]
    for r in payload["results"]:
        if "baseline_ms" not in r:
            continue
        stats = r.get("optimized_stats", {})
        # Tune rows carry an absolute MAE vs the exact fixed point
        # instead of a baseline-vs-optimized output diff.
        diff = r.get("max_abs_diff", r.get("optimized_mae", float("nan")))
        lines.append(
            f"{r['name']:<36s} {r['n']:>5d} {r['density']:>5.2f} "
            f"{r['baseline_ms']:>9.2f} {r['optimized_ms']:>9.2f} "
            f"{stats.get('median_ms', r['optimized_ms']):>9.2f} "
            f"{stats.get('p90_ms', r['optimized_ms']):>9.2f} "
            f"{r['speedup']:>7.1f}x {diff:>10.2e}"
        )
    for r in payload["results"]:
        if "cache_hit_rate" in r:
            lines.append(
                f"LU-cache hit rate ({r['name']}): "
                f"{100.0 * r['cache_hit_rate']:.1f}% "
                f"({r['cache_hits']} hits / {r['cache_misses']} misses)"
            )
        if r.get("name") == "parallel_scaling_curve":
            lines.append(
                f"{'scaling curve':<22s} {'n':>6s} {'shards':>6s} "
                f"{'workers':>7s} {'ms':>9s} {'pkl B/task':>10s} "
                f"{'rss MB':>8s}"
            )
            for row in r["rows"]:
                lines.append(
                    f"{'':<22s} {row['n']:>6d} {row['shards']:>6d} "
                    f"{row['workers']:>7d} {row['elapsed_ms']:>9.2f} "
                    f"{row['task_pickled_bytes_shm']:>10d} "
                    f"{row['peak_rss_mb']:>8.1f}"
                )
    return "\n".join(lines)


def write_bench_json(payload: dict, path: str | Path) -> Path:
    """Write the benchmark payload as ``BENCH_*.json``."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path
