"""Perf gates for the zero-copy shared-memory scale-out path.

Two claims from the scale-out work, measured rather than assumed:

* At real problem sizes (n >= 8192) a sharded-run pool task pickles
  shared-memory descriptors only — a few kilobytes whatever the size of
  the coupling operator and the state — and the worker count does not
  change result bits (the ``smoke`` gates — run in the CI perf job).
* A 100k-node / 0.1%-density mesh anneals end-to-end on laptop-class
  memory through :func:`repro.parallel.anneal_mesh` (full perf runs
  only — minutes, not CI smoke material).
"""

import numpy as np
import pytest

from repro.parallel import shm_available

pytestmark = [
    pytest.mark.perf,
    pytest.mark.skipif(
        not shm_available(), reason="named shared memory unavailable"
    ),
]


def test_smoke_task_payload_is_descriptors_only_at_8192():
    """The acceptance gate: a task at n = 8192 pickles under 4 KiB."""
    from repro.core.dynamics import CircuitSimulator, IntegrationConfig
    from repro.core.operators import CouplingOperator
    from repro.parallel import shard_task_bytes
    from repro.perf import random_sparse_mesh

    n = 8192
    J, h = random_sparse_mesh(n, 0.01, seed=0)
    operator = CouplingOperator(J, h, backend="sparse")
    rng = np.random.default_rng(1)
    sigma0 = rng.uniform(-1.0, 1.0, size=(8, n))
    simulator = CircuitSimulator(
        config=IntegrationConfig(dt=0.1, record_every=1_000_000)
    )
    size = shard_task_bytes(
        simulator, operator.drift, sigma0, 2.0,
        shards=4, energy=operator.energy,
    )
    # The coupling CSR alone is ~8 MB; the payload must not scale with n.
    assert size < 4096, size


def test_smoke_worker_count_equivalence_at_scale():
    """Worker count never changes bits, checked at a non-toy size."""
    from repro.core.dynamics import CircuitSimulator, IntegrationConfig
    from repro.core.operators import CouplingOperator
    from repro.parallel import run_batch_sharded, shm_residue
    from repro.perf import random_sparse_mesh

    n = 2048
    J, h = random_sparse_mesh(n, 0.01, seed=2)
    operator = CouplingOperator(J, h, backend="sparse")
    rng = np.random.default_rng(3)
    sigma0 = rng.uniform(-1.0, 1.0, size=(8, n))
    simulator = CircuitSimulator(
        config=IntegrationConfig(
            dt=0.1, record_every=1_000_000, node_noise_std=0.01
        )
    )
    run = lambda workers: run_batch_sharded(  # noqa: E731
        simulator, operator.drift, sigma0, 2.0,
        energy=operator.energy, workers=workers, shards=4, root_seed=5,
    )
    serial, pooled = run(1), run(2)
    assert np.array_equal(serial.states, pooled.states)
    assert np.array_equal(serial.energies, pooled.energies)
    assert shm_residue() == []


def test_mesh_100k_nodes_end_to_end():
    """The tentpole scale target: 100k nodes at 0.1% density, end to end.

    Sparse generation, community partitioning, and a handful of exact
    halo-exchange rounds — asserting the state stays finite and in the
    rails, no /dev/shm residue survives, and peak RSS stays laptop-class
    (the dense coupling matrix alone would need 80 GB).
    """
    from repro.parallel import anneal_mesh, shm_residue
    from repro.perf import _peak_rss_mb, random_sparse_mesh

    n = 100_000
    J, h = random_sparse_mesh(n, 0.001, seed=0)
    assert J.nnz >= 9_000_000  # ~0.1% of 1e10 pairs, stored twice
    rng = np.random.default_rng(1)
    sigma0 = rng.uniform(-1.0, 1.0, size=n)

    result = anneal_mesh(
        J, h, sigma0, duration=0.5, dt=0.1, shards=8, workers=2
    )
    assert result.n_steps == 5
    assert np.all(np.isfinite(result.state))
    assert np.all(np.abs(result.state) <= 1.0)
    assert result.partition.num_shards == 8
    assert shm_residue() == []
    assert _peak_rss_mb() < 16_384, "100k mesh exceeded laptop-class memory"
