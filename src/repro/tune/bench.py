"""Equal-accuracy-at-lower-latency rows for the core benchmark suite.

Every row pins an *absolute* accuracy ceiling (MAE against the exact
equilibrium fixed point, :data:`ACCURACY_TOL`) and requires both sides
to meet it, so the recorded speedups are equal-accuracy by construction,
not by eyeballing two noisy estimates.  The operator is prebuilt and the
timed region is the integration loop itself — the hot path the tuner
optimizes; one-time operator construction amortizes across a serving
session.

Gated by ``benchmarks/perf/test_perf_tune.py`` and the committed
``BENCH_core.json`` baseline via ``repro obs diff``.
"""

from __future__ import annotations

import numpy as np

from ..core.dynamics import CircuitSimulator, IntegrationConfig
from ..core.inference import NaturalAnnealingEngine
from ..core.model import DSGLModel
from ..core.operators import CouplingOperator
from ..perf import _timed_comparison, random_sparse_system

__all__ = [
    "ACCURACY_TOL",
    "bench_tune_early_exit",
    "bench_tune_suite",
]

# Both sides of every tune row must land within this MAE of the exact
# fixed point for the row's speedup to count as equal-accuracy.
ACCURACY_TOL = 1e-6


def _tune_problem(n: int, density: float, batch: int, seed: int):
    """Shared fixture: operator, clamps, initial states, exact reference."""
    J, h = random_sparse_system(n, density, seed=seed)
    operator = CouplingOperator(J, h, backend="auto")
    rng = np.random.default_rng(seed + 1)
    observed = np.arange(n // 2)
    free = np.arange(n // 2, n)
    clamp = rng.uniform(-1.0, 1.0, size=(batch, observed.size))
    sigma0 = rng.uniform(-1.0, 1.0, size=(batch, n))
    sigma0[:, observed] = clamp
    reference = NaturalAnnealingEngine(
        DSGLModel(J=J, h=h), seed=seed
    ).infer_equilibrium_batch(observed, clamp)
    return operator, observed, free, clamp, sigma0, reference


def _runner(operator, config, sigma0, duration, observed, clamp):
    def run():
        simulator = CircuitSimulator(config=config)
        return simulator.run_batch(
            operator.drift,
            sigma0,
            duration,
            clamp_index=observed,
            clamp_value=clamp,
        )

    return run


def bench_tune_early_exit(
    n: int,
    density: float,
    batch: int,
    duration: float,
    repeats: int,
    seed: int = 0,
) -> dict:
    """Full fixed-budget integration vs early-exit freeze-out.

    Both sides integrate at the same ``dt``; the optimized side freezes
    members whose state stops moving and exits once every member has
    settled, so the speedup is exactly the unused tail of the worst-case
    budget.
    """
    operator, observed, free, clamp, sigma0, reference = _tune_problem(
        n, density, batch, seed
    )
    fixed = IntegrationConfig(
        dt=0.1, record_every=1_000_000, node_noise_std=0.0
    )
    tuned = IntegrationConfig(
        dt=0.1,
        record_every=1_000_000,
        node_noise_std=0.0,
        early_exit=True,
        settle_tolerance=1e-9,
    )
    baseline = _runner(operator, fixed, sigma0, duration, observed, clamp)
    optimized = _runner(operator, tuned, sigma0, duration, observed, clamp)
    baseline_mae = float(
        np.mean(np.abs(baseline().final_states[:, free] - reference))
    )
    tuned_trajectory = optimized()
    optimized_mae = float(
        np.mean(np.abs(tuned_trajectory.final_states[:, free] - reference))
    )
    return {
        "name": "tune_early_exit_vs_fixed",
        "n": n,
        "density": density,
        "batch": batch,
        "duration_ns": duration,
        "backend": operator.backend,
        "baseline": "fixed-step integration of the full worst-case budget",
        "optimized": "per-member freeze-out with all-settled early exit",
        **_timed_comparison(baseline, optimized, repeats),
        "accuracy_tol": ACCURACY_TOL,
        "baseline_mae": baseline_mae,
        "optimized_mae": optimized_mae,
        "equal_accuracy": bool(
            baseline_mae <= ACCURACY_TOL and optimized_mae <= ACCURACY_TOL
        ),
        "early_exit_t_ns": float(tuned_trajectory.times[-1]),
    }


def bench_tune_suite(smoke: bool, repeats: int) -> list[dict]:
    """The tune rows of the core suite: early-exit vs the fixed budget × n.

    Full mode includes the acceptance point — ``n=2048`` — where
    early-exit must beat the fixed budget by at least 2x at equal
    accuracy (gated by ``benchmarks/perf/test_perf_tune.py``).
    """
    if smoke:
        grid = [(256, 0.05, 8, 60.0)]
    else:
        grid = [(1024, 0.02, 8, 100.0), (2048, 0.01, 8, 100.0)]
    rows = []
    for n, density, batch, duration in grid:
        rows.append(
            bench_tune_early_exit(
                n=n, density=density, batch=batch, duration=duration,
                repeats=repeats,
            )
        )
    return rows
