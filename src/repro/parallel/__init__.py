"""``repro.parallel`` — seed-deterministic multi-worker execution.

The DSPU exists so annealing work can proceed in parallel beyond one
coupling crossbar; this package is the software analogue: it shards
independent annealing work — batched circuit runs, batched inference,
restart pools, per-phase propagator builds, experiment window/trial
loops — across a process pool, and partitions single large meshes across
node shards with halo exchange (:mod:`repro.parallel.mesh`).

The load-bearing guarantee, pinned by ``tests/parallel/``: **results are
bit-for-bit identical for any worker count.**  Three rules deliver it:

1. Work is split into shards whose boundaries depend only on the problem
   (:func:`shard_slices`, :func:`partition_mesh`), never on ``workers``.
2. Shard ``i`` derives its RNG from ``(root_seed, i)`` via
   :meth:`numpy.random.SeedSequence.spawn` (:func:`spawn_seeds`).
3. ``workers=1`` executes the very same shard tasks serially in-process
   (:func:`parallel_map`), so per-shard floating-point arithmetic is
   byte-identical either way.

One transport and one pool serve every sharded path.  Problem arrays —
including the parent's already-built coupling operator — and result
slabs live in ``multiprocessing.shared_memory`` blocks owned by a
:class:`~repro.parallel.shm.SharedArena`; tasks pickle ``(name, shape,
dtype)`` descriptors instead of arrays and return at most a few scalars
(see :mod:`repro.parallel.shm`).  Where named shared memory is
unavailable the same shards run serially in-process.  Pooled calls run
on one persistent, lazily started process pool that is reused across
calls and shut down at exit (see :mod:`repro.parallel.pool`).

Worker metrics and trace records merge back into the parent
:mod:`repro.obs` sinks (see ``obs.capture_worker_state`` /
``obs.merge_worker_state``).
"""

from .circuit import expected_record_count, run_batch_sharded, shard_task_bytes
from .engine import EngineSpec, infer_batch_sharded, restart_fanout
from .mesh import MeshPartition, MeshResult, anneal_mesh, partition_mesh
from .pool import (
    DEFAULT_SHARDS,
    parallel_map,
    resolve_num_shards,
    resolve_start_method,
    shard_slices,
    shutdown_pool,
    spawn_seeds,
)
from .shm import (
    SharedArena,
    SharedArray,
    SharedCSR,
    SharedOperator,
    pickled_bytes,
    shm_available,
    shm_residue,
)

__all__ = [
    "DEFAULT_SHARDS",
    "EngineSpec",
    "MeshPartition",
    "MeshResult",
    "SharedArena",
    "SharedArray",
    "SharedCSR",
    "SharedOperator",
    "anneal_mesh",
    "expected_record_count",
    "infer_batch_sharded",
    "parallel_map",
    "partition_mesh",
    "pickled_bytes",
    "resolve_num_shards",
    "resolve_start_method",
    "restart_fanout",
    "run_batch_sharded",
    "shard_slices",
    "shard_task_bytes",
    "shm_available",
    "shm_residue",
    "shutdown_pool",
    "spawn_seeds",
]
