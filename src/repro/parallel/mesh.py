"""Community-partitioned mesh integration with halo exchange.

The sharded paths elsewhere in this package parallelize over *batch
members* — every worker still touches the whole coupling matrix.  That
cannot reach the paper's 100k-node regime: the mesh must be partitioned
over *nodes*, with each shard integrating only its own rows and
exchanging boundary ("halo") state with its neighbours, exactly the
locality structure the Sec. IV decomposition exploits in hardware.

This module provides that substrate on top of :mod:`repro.parallel.shm`:

* :func:`partition_mesh` — deterministic node partition.  Small dense
  systems reuse the Louvain communities of :mod:`repro.decompose.
  community` (bin-packed into balanced shards); large or sparse systems
  use a vectorized BFS graph-growing that needs only the CSR structure.
* :func:`anneal_mesh` — Euler integration of ``dsigma/dt = (J sigma +
  h * sigma) / C`` under rail clipping and clamps, with the state held in
  double-buffered shared-memory slabs.  Each round, every shard reads the
  full previous-round state (its halo), advances its own rows, and writes
  them into the other buffer.

Exactness contract (pinned by ``tests/parallel/test_mesh.py`` and
documented in EXPERIMENTS.md): with ``exchange_every=1`` a round is one
synchronous Jacobi sweep — every shard reads only round-``r`` state and
writes round-``r+1`` rows — which is *algebraically identical* to one
global Euler step, and the per-row CSR summation order is preserved by
row slicing, so the mesh path is **bit-for-bit equal** to the global
integrator.  With ``exchange_every > 1`` the halo is zero-order-held
between exchanges (the Sec. V.D synchronization-interval approximation);
that changes results and therefore requires an explicit
``approximate=True``.

The integration is deliberately noise-free: per-node noise would need a
stream split across shards, and the point of this path is the exactness
contract above.  Noisy batched annealing lives in the batch-sharded
paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse as sp

from .. import obs
from ..decompose.community import louvain_communities
from .pool import DEFAULT_SHARDS, parallel_map, resolve_num_shards, shard_slices
from .shm import SharedArena

__all__ = ["MeshPartition", "MeshResult", "anneal_mesh", "partition_mesh"]

#: Largest system the Louvain path will accept — the implementation in
#: ``repro.decompose.community`` is dense-matrix based, so beyond this the
#: CSR graph-growing partitioner takes over.
LOUVAIN_MAX_NODES = 2048


@dataclass(frozen=True)
class MeshPartition:
    """A node partition of the coupling mesh.

    Attributes:
        labels: ``(n,)`` shard label per node.
        groups: Per-shard node-index arrays (ascending within each shard);
            together they partition ``range(n)``.
        halo_sizes: Per-shard count of off-shard nodes its rows couple to
            — the state each shard must receive per exchange round.
        cut_edges: Symmetric coupling pairs crossing a shard boundary.
    """

    labels: np.ndarray
    groups: list = field(repr=False)
    halo_sizes: np.ndarray
    cut_edges: int

    @property
    def num_shards(self) -> int:
        return len(self.groups)

    @property
    def n(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True)
class MeshResult:
    """Outcome of one :func:`anneal_mesh` integration."""

    state: np.ndarray
    n_steps: int
    rounds: int
    partition: MeshPartition


def _neighbors_of(
    frontier: np.ndarray, indptr: np.ndarray, indices: np.ndarray
) -> np.ndarray:
    """All CSR column indices of the given rows, gathered vectorized."""
    counts = indptr[frontier + 1] - indptr[frontier]
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=indices.dtype)
    starts = np.repeat(indptr[frontier], counts)
    offsets = np.arange(total) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return indices[starts + offsets]


def _grow_groups(
    indptr: np.ndarray, indices: np.ndarray, n: int, targets: list[int]
) -> np.ndarray:
    """Label nodes by BFS graph-growing to the given per-shard sizes.

    Each shard grows breadth-first from the smallest unassigned node,
    absorbing unassigned neighbours (smallest index first) until it
    reaches its target size; disconnected remainders re-seed from the
    smallest unassigned node.  Everything is a function of the CSR
    structure and the targets, so the labeling is deterministic.
    """
    labels = np.full(n, -1, dtype=int)
    unassigned = np.ones(n, dtype=bool)
    for shard, target in enumerate(targets):
        taken = 0
        while taken < target:
            remaining_idx = np.flatnonzero(unassigned)
            if remaining_idx.size == 0:  # pragma: no cover - defensive
                break
            seed = remaining_idx[0]
            frontier = np.array([seed], dtype=int)
            labels[seed] = shard
            unassigned[seed] = False
            taken += 1
            while frontier.size and taken < target:
                neighbors = np.unique(
                    _neighbors_of(frontier, indptr, indices)
                )
                neighbors = neighbors[unassigned[neighbors]]
                if neighbors.size == 0:
                    break
                room = target - taken
                if neighbors.size > room:
                    neighbors = neighbors[:room]
                labels[neighbors] = shard
                unassigned[neighbors] = False
                taken += neighbors.size
                frontier = neighbors
    # Any stragglers (only possible if targets undercount) join the last shard.
    labels[labels < 0] = len(targets) - 1
    return labels


def _pack_communities(
    community_labels: np.ndarray, num_shards: int
) -> np.ndarray:
    """Greedy size-balanced packing of communities into shards.

    Communities are assigned largest-first to the currently lightest
    shard (ties broken by shard index), keeping whole communities
    together whenever balance allows — the halo then follows the
    community boundaries Louvain already minimized.
    """
    sizes = np.bincount(community_labels)
    order = np.argsort(-sizes, kind="stable")
    loads = np.zeros(num_shards, dtype=int)
    community_to_shard = np.zeros(sizes.shape[0], dtype=int)
    for community in order:
        shard = int(np.argmin(loads))
        community_to_shard[community] = shard
        loads[shard] += sizes[community]
    return community_to_shard[community_labels]


def partition_mesh(
    J,
    num_shards: int | None = None,
    *,
    seed: int = 0,
    method: str = "auto",
) -> MeshPartition:
    """Partition the coupling mesh into shards for halo-exchange runs.

    Args:
        J: Coupling matrix — dense ndarray or scipy sparse, ``(n, n)``.
        num_shards: Shard count (default
            :data:`~repro.parallel.pool.DEFAULT_SHARDS`, clamped to ``n``).
        seed: Louvain node-visit shuffling seed (ignored by ``"bfs"``).
        method: ``"louvain"`` (community detection, dense systems up to
            :data:`LOUVAIN_MAX_NODES`), ``"bfs"`` (CSR graph-growing, any
            size), or ``"auto"`` to pick by size.

    Returns:
        A :class:`MeshPartition`.  Pure function of the coupling
        structure and arguments — never of worker count.
    """
    n = J.shape[0]
    if n < 1:
        raise ValueError("cannot partition an empty mesh")
    num_shards = resolve_num_shards(n, num_shards)
    if method not in ("auto", "louvain", "bfs"):
        raise ValueError(f"unknown partition method {method!r}")
    if method == "auto":
        method = (
            "louvain"
            if (not sp.issparse(J) and n <= LOUVAIN_MAX_NODES)
            else "bfs"
        )
    if method == "louvain" and sp.issparse(J):
        J = J.toarray()

    if method == "louvain":
        communities = louvain_communities(J, seed=seed)
        labels = _pack_communities(communities, num_shards)
        # Packing can leave a shard empty (few large communities);
        # compact so every group is non-empty.
        labels = np.unique(labels, return_inverse=True)[1]
    else:
        csr = J.tocsr() if sp.issparse(J) else sp.csr_matrix(J)
        targets = [
            len(range(*part.indices(n)))
            for part in shard_slices(n, num_shards)
        ]
        labels = _grow_groups(csr.indptr, csr.indices, n, targets)

    groups = [np.flatnonzero(labels == s) for s in range(labels.max() + 1)]
    csr = J.tocsr() if sp.issparse(J) else sp.csr_matrix(J)
    halo_sizes = np.zeros(len(groups), dtype=int)
    for s, group in enumerate(groups):
        cols = np.unique(csr[group].indices)
        halo_sizes[s] = np.setdiff1d(cols, group, assume_unique=True).size
    rows = np.repeat(np.arange(n), np.diff(csr.indptr))
    cut = int(np.count_nonzero(labels[rows] != labels[csr.indices])) // 2
    return MeshPartition(
        labels=labels, groups=groups, halo_sizes=halo_sizes, cut_edges=cut
    )


# ----------------------------------------------------------------------
# Halo-exchange integration
# ----------------------------------------------------------------------

#: Per-process cache of shard-local row structures, keyed by the shared
#: data block's name plus the shard's row range — unique per arena, so a
#: pool worker reused across rounds (or runs) rebuilds its CSR row slice
#: once instead of every round.
_SHARD_CACHE: dict = {}
_SHARD_CACHE_LIMIT = 32


def _shard_local(csr_shared, perm_shared, start, stop, clamp_shared, approximate):
    key = (csr_shared.data.name, start, stop, approximate)
    cached = _SHARD_CACHE.get(key)
    if cached is not None:
        return cached
    if len(_SHARD_CACHE) >= _SHARD_CACHE_LIMIT:
        _SHARD_CACHE.clear()
    # Everything cached must be a private copy: shared-memory views die
    # with the task that attached them (the pool detaches in a finally),
    # and a later task's attach may land at the same address.
    rows = perm_shared.array[start:stop].copy()
    J_rows = csr_shared.matrix()[rows]
    if clamp_shared is None:
        clamp_pos = np.zeros(0, dtype=int)
        clamp_vals = np.zeros(0)
    else:
        clamp_index, clamp_value = clamp_shared
        clamp_pos = np.flatnonzero(np.isin(rows, clamp_index.array))
        lookup = {int(node): i for i, node in enumerate(clamp_index.array)}
        clamp_vals = clamp_value.array[
            [lookup[int(node)] for node in rows[clamp_pos]]
        ]
    entry = {
        "rows": rows,
        "J_rows": J_rows,
        "clamp_pos": clamp_pos,
        "clamp_vals": clamp_vals,
    }
    if approximate:
        own = np.zeros(csr_shared.shape[1], dtype=bool)
        own[rows] = True
        J_halo = J_rows.copy()
        J_halo.data = J_halo.data.copy()
        J_halo.data[own[J_halo.indices]] = 0.0
        J_halo.eliminate_zeros()
        entry["J_own"] = J_rows[:, rows].tocsr()
        entry["J_halo"] = J_halo
    _SHARD_CACHE[key] = entry
    return entry


def _mesh_shard_round(
    csr_shared,
    h_shared,
    perm_shared,
    start: int,
    stop: int,
    state_in,
    state_out,
    dt_over_c: float,
    rail: float | None,
    clamp_shared,
    steps: int,
    approximate: bool,
) -> None:
    """Advance one shard's rows by ``steps`` Euler steps, halo held fixed.

    ``steps == 1`` (exact mode) evaluates ``J_rows @ sigma_full`` — the
    full-row CSR matvec whose per-row summation order matches the global
    matvec — so a round is exactly one synchronous global Euler step.
    ``steps > 1`` (approximate mode) freezes the halo contribution at the
    round's start and iterates on the shard-local block.
    """
    local = _shard_local(
        csr_shared, perm_shared, start, stop, clamp_shared, approximate
    )
    rows = local["rows"]
    h_rows = h_shared.array[rows]
    sigma_full = state_in.array
    if not approximate:
        sigma_rows = sigma_full[rows]
        new = sigma_rows + dt_over_c * (
            local["J_rows"] @ sigma_full + h_rows * sigma_rows
        )
        if rail is not None:
            np.clip(new, -rail, rail, out=new)
        new[local["clamp_pos"]] = local["clamp_vals"]
        state_out.array[rows] = new
        return
    halo_force = local["J_halo"] @ sigma_full
    values = sigma_full[rows].copy()
    J_own = local["J_own"]
    for _ in range(steps):
        values = values + dt_over_c * (
            J_own @ values + halo_force + h_rows * values
        )
        if rail is not None:
            np.clip(values, -rail, rail, out=values)
        values[local["clamp_pos"]] = local["clamp_vals"]
    state_out.array[rows] = values


def anneal_mesh(
    J,
    h: np.ndarray,
    sigma0: np.ndarray,
    duration: float,
    *,
    dt: float = 0.1,
    capacitance: float = 1.0,
    rail: float | None = 1.0,
    clamp_index: np.ndarray | None = None,
    clamp_value: np.ndarray | None = None,
    partition: MeshPartition | None = None,
    shards: int | None = None,
    exchange_every: int = 1,
    approximate: bool = False,
    workers: int = 1,
) -> MeshResult:
    """Integrate one state over a node-partitioned mesh with halo exchange.

    Euler integration of ``dsigma/dt = (J sigma + h * sigma) /
    capacitance`` with rail clipping and clamped nodes — the noise-free
    single-state core of :meth:`CircuitSimulator.run` — executed shard by
    shard: the coupling CSR, the node partition, and two state buffers
    live in shared memory; each exchange round every shard reads the full
    previous state, advances its own rows, and writes them into the other
    buffer.

    Args:
        J: Coupling matrix, dense or sparse ``(n, n)`` (stored as CSR).
        h: ``(n,)`` self-reaction vector.
        sigma0: ``(n,)`` initial state.
        duration: Total simulated time; steps mirror the circuit
            integrator's ``max(1, round(duration / dt))`` rule.
        dt / capacitance / rail: Euler step, node capacitance, and rail
            clip (``rail=None`` disables clipping).
        clamp_index / clamp_value: Held (observed) nodes, as in the
            circuit simulator (shared values only).
        partition: A precomputed :class:`MeshPartition`; default is
            ``partition_mesh(J, shards)``.
        shards: Shard count when partitioning here (ignored with an
            explicit ``partition``).
        exchange_every: Euler steps per halo exchange.  ``1`` is exact
            (bit-identical to global integration, see module docstring);
            larger values hold the halo between exchanges and require
            ``approximate=True``.
        approximate: Acknowledge the zero-order-hold approximation.
        workers: Worker processes (every round runs on the persistent
            pool).  Results are bit-for-bit identical for every worker
            count.

    Returns:
        A :class:`MeshResult` with the final state.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if dt <= 0 or capacitance <= 0:
        raise ValueError("dt and capacitance must be positive")
    exchange_every = int(exchange_every)
    if exchange_every < 1:
        raise ValueError(f"exchange_every must be >= 1, got {exchange_every}")
    if exchange_every > 1 and not approximate:
        raise ValueError(
            "exchange_every > 1 holds the halo between exchanges, which "
            "is not bit-identical to global integration; pass "
            "approximate=True to accept the zero-order-hold approximation"
        )
    csr = J.tocsr() if sp.issparse(J) else sp.csr_matrix(J)
    n = csr.shape[0]
    sigma0 = np.asarray(sigma0, dtype=float).reshape(-1)
    h = np.asarray(h, dtype=float).reshape(-1)
    if sigma0.shape[0] != n or h.shape[0] != n:
        raise ValueError(
            f"sigma0 and h must have length {n}, got "
            f"{sigma0.shape[0]} and {h.shape[0]}"
        )
    if (clamp_index is None) != (clamp_value is None):
        raise ValueError("clamp_index and clamp_value must be given together")
    if clamp_index is not None:
        clamp_index = np.asarray(clamp_index, dtype=int).reshape(-1)
        clamp_value = np.asarray(clamp_value, dtype=float).reshape(-1)
        if clamp_index.shape != clamp_value.shape:
            raise ValueError("clamp_index and clamp_value must have equal shapes")
        if clamp_index.size and (
            clamp_index.min() < 0 or clamp_index.max() >= n
        ):
            raise ValueError("clamp_index out of range")
    if partition is None:
        partition = partition_mesh(
            csr, DEFAULT_SHARDS if shards is None else shards
        )
    if partition.n != n:
        raise ValueError(
            f"partition covers {partition.n} nodes, mesh has {n}"
        )

    n_steps = max(1, int(round(duration / dt)))
    rounds = -(-n_steps // exchange_every)  # ceil
    dt_over_c = dt / capacitance

    state = sigma0.copy()
    if clamp_index is not None:
        state[clamp_index] = clamp_value

    perm = np.concatenate(partition.groups)
    boundaries = np.cumsum([0] + [g.size for g in partition.groups])
    num_shards = partition.num_shards

    if obs.enabled():
        registry = obs.metrics()
        registry.counter("parallel.halo.rounds").inc(rounds)
        registry.counter("parallel.halo.bytes_exchanged").inc(
            int(rounds * int(partition.halo_sizes.sum()) * state.itemsize)
        )

    with SharedArena(tag="mesh") as arena:
        csr_shared = arena.share_csr(csr)
        h_shared = arena.share(h)
        perm_shared = arena.share(perm)
        clamp_shared = None
        if clamp_index is not None and clamp_index.size:
            clamp_shared = (arena.share(clamp_index), arena.share(clamp_value))
        buffers = [arena.empty((n,)), arena.empty((n,))]
        buffers[0].array[...] = state

        map_workers = arena.workers(workers)
        with obs.tracer().span(
            "mesh.anneal",
            n=n,
            shards=num_shards,
            rounds=rounds,
            workers=workers,
            exchange_every=exchange_every,
        ):
            steps_left = n_steps
            parity = 0
            for round_index in range(rounds):
                steps = min(exchange_every, steps_left)
                tasks = [
                    (
                        csr_shared,
                        h_shared,
                        perm_shared,
                        int(boundaries[s]),
                        int(boundaries[s + 1]),
                        buffers[parity],
                        buffers[1 - parity],
                        dt_over_c,
                        rail,
                        clamp_shared,
                        steps,
                        approximate,
                    )
                    for s in range(num_shards)
                ]
                with obs.tracer().span(
                    "mesh.round", round=round_index, steps=steps
                ):
                    parallel_map(_mesh_shard_round, tasks, map_workers)
                steps_left -= steps
                parity = 1 - parity
        final = buffers[parity].array.copy()

    return MeshResult(
        state=final, n_steps=n_steps, rounds=rounds, partition=partition
    )
