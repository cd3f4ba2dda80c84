"""Shared fixtures: small trained systems reused across the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TemporalWindowing, TrainingConfig, fit_precision
from repro.datasets import load_dataset
from repro.decompose import DecompositionConfig, decompose


@pytest.fixture(scope="session")
def gaussian_samples():
    """Correlated Gaussian samples with a known covariance (n=10)."""
    rng = np.random.default_rng(7)
    n = 10
    A = rng.normal(size=(n, n)) * 0.4
    cov = A @ A.T + np.eye(n)
    samples = rng.multivariate_normal(np.zeros(n), cov, size=1200)
    return samples, cov


@pytest.fixture(scope="session")
def trained_model(gaussian_samples):
    """A dense DS-GL model fitted on the Gaussian samples."""
    samples, _cov = gaussian_samples
    return fit_precision(samples, TrainingConfig(ridge=1e-2))


@pytest.fixture(scope="session")
def traffic_setup():
    """Small traffic dataset, its windowing, samples, and dense model."""
    ds = load_dataset("traffic", size="small")
    train, val, test = ds.split()
    windowing = TemporalWindowing(ds.num_nodes, 3)
    samples = windowing.windows(train.series)
    model = fit_precision(samples, TrainingConfig(ridge=5e-2))
    return {
        "dataset": ds,
        "train": train,
        "val": val,
        "test": test,
        "windowing": windowing,
        "samples": samples,
        "model": model,
    }


@pytest.fixture(scope="session")
def decomposed_traffic(traffic_setup):
    """A DMesh decomposition of the traffic model on a 3x3 grid."""
    return decompose(
        traffic_setup["model"],
        traffic_setup["samples"],
        DecompositionConfig(density=0.15, pattern="dmesh", grid_shape=(3, 3)),
    )


@pytest.fixture(autouse=True)
def numpy_error_state_unchanged():
    """Fail any test that leaves numpy's floating-point error handling
    changed: ``np.seterr`` is process-global, so a leak silently alters
    what every later test sees.  Scope changes with ``np.errstate``."""
    before = np.geterr()
    yield
    after = np.geterr()
    if after != before:
        np.seterr(**before)
        pytest.fail(f"test changed np.geterr() from {before} to {after}")


@pytest.fixture
def rng():
    """Canonical seeded generator for per-test randomness.

    Flakiness audit (kept current by review): no test in this suite may
    draw from the unseeded global ``np.random.*`` API or an argless
    ``default_rng()`` — randomness flows through this fixture or an
    explicitly seeded local generator, so every failure reproduces.
    Function-scoped: each test sees the same fresh stream regardless of
    execution order or selection.
    """
    return np.random.default_rng(20240806)
