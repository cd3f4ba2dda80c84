"""Batch sharding for :meth:`CircuitSimulator.run_batch`.

A batched circuit integration is embarrassingly parallel across batch
members *provided* each shard owns an independent noise stream: the
legacy path draws per-step noise over the whole ``(batch, n)`` matrix
jointly, so splitting it would reshuffle the stream.  The sharded path
therefore defines its own (equally deterministic) semantics — shard ``i``
integrates with ``default_rng(SeedSequence(root_seed).spawn(num)[i])`` —
and those semantics are what the ``workers=N ≡ workers=1`` guarantee is
stated over.  Passing ``workers=None`` to ``run_batch`` keeps the legacy
joint-draw behavior bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..core.dynamics import BatchTrajectory
from .pool import parallel_map, resolve_num_shards, shard_slices, spawn_seeds
from .shm import SharedArena, maybe_share_method, pickled_bytes

__all__ = [
    "expected_record_count",
    "run_batch_sharded",
    "shard_task_bytes",
    "variable_records",
]


def variable_records(config) -> bool:
    """Whether ``config`` records a data-dependent number of frames.

    Adaptive step control and early-exit settling stop on the state, so
    each shard records its own time grid; sharded runs of such configs
    keep two frames per member (see :func:`run_batch_sharded`).
    """
    return bool(
        getattr(config, "adaptive", False)
        or getattr(config, "early_exit", False)
    )


def expected_record_count(config, duration: float) -> int:
    """How many frames :meth:`CircuitSimulator._integrate` will record.

    Mirrors the integrator's recording rule exactly — the initial state,
    then every ``record_every``-th step plus the final step — so the
    sharded paths can preallocate result slabs of the right height
    before any worker runs.

    Only valid for the fixed-step integrator: adaptive step control and
    early-exit settling record a data-dependent number of frames, so
    callers must not preallocate a full grid for such configs (see
    :func:`run_batch_sharded`, which gives them a two-frame slab of
    initial and final states instead).
    """
    if variable_records(config):
        raise ValueError(
            "record count is data-dependent under adaptive/early-exit "
            "integration; expected_record_count only applies to fixed-step "
            "configs"
        )
    n_steps = max(1, int(round(duration / config.dt)))
    count = 1 + n_steps // config.record_every
    if n_steps % config.record_every:
        count += 1
    return count


def record_slabs(
    arena: SharedArena, config, duration: float, batch: int, n: int
) -> tuple:
    """The ``(times, states, energies)`` output slabs of a sharded run.

    Full recorded grid for fixed-step configs; two frames (initial,
    final) for variable-record configs.
    """
    frames = 2 if variable_records(config) else expected_record_count(
        config, duration
    )
    return (
        arena.empty((frames,)),
        arena.empty((frames, batch, n)),
        arena.empty((frames, batch)),
    )


def write_shard_trajectory(
    trajectory: BatchTrajectory,
    variable: bool,
    start: int,
    stop: int,
    times_out,
    states_out,
    energies_out,
) -> float:
    """Write one shard's trajectory into the slabs; returns its finish time.

    A variable-record shard keeps its first and last frames.  A fixed-step
    shard fills the whole grid, and the shard owning row 0 also writes the
    (identical-for-every-shard) time axis.
    """
    states, energies = trajectory.states, trajectory.energies
    if variable:
        states, energies = states[[0, -1]], energies[[0, -1]]
    elif states.shape[0] != states_out.shape[0]:
        raise RuntimeError(
            f"recorded {states.shape[0]} frames but the output slab holds "
            f"{states_out.shape[0]} — expected_record_count drifted from "
            "the integrator's recording rule"
        )
    states_out.array[:, start:stop, :] = states
    energies_out.array[:, start:stop] = energies
    if start == 0 and not variable:
        times_out.array[...] = trajectory.times
    return float(trajectory.times[-1])


def reassemble(
    config, finish_times: list[float], times_out, states_out, energies_out
) -> BatchTrajectory:
    """The batch trajectory from filled slabs (copied out of the arena).

    Variable-record runs are stamped ``[0, latest shard finish time]``.
    """
    if variable_records(config):
        times = np.array([0.0, max(finish_times)])
    else:
        times = times_out.array.copy()
    return BatchTrajectory(
        times=times,
        states=states_out.array.copy(),
        energies=energies_out.array.copy(),
    )


def _circuit_shard(
    config,
    faults,
    drift,
    sigma_shared,
    start: int,
    stop: int,
    duration: float,
    clamp_index,
    clamp_value,
    energy,
    seed: np.random.SeedSequence,
    times_out,
    states_out,
    energies_out,
) -> float:
    """Integrate one contiguous slice of the batch; returns its finish time.

    Reads its batch slice from the shared initial-state block (and its
    rows of per-sample clamp values) and writes the trajectory into the
    preallocated output slabs — the task's pickled payload and return
    value are both O(1) in problem size.
    """
    from ..core.dynamics import CircuitSimulator

    simulator = CircuitSimulator(
        config=config, rng=np.random.default_rng(seed), faults=faults
    )
    values = clamp_value.array
    if values.ndim == 2:
        values = values[start:stop]
    with obs.tracer().span(
        "circuit.shard", batch=stop - start, start=start, stop=stop
    ):
        trajectory = simulator.run_batch(
            drift,
            sigma_shared.array[start:stop],
            duration,
            clamp_index=clamp_index.array,
            clamp_value=values,
            energy=energy,
        )
    return write_shard_trajectory(
        trajectory,
        variable_records(config),
        start,
        stop,
        times_out,
        states_out,
        energies_out,
    )


def _shard_tasks(
    arena: SharedArena,
    simulator,
    drift,
    sigma0: np.ndarray,
    duration: float,
    clamp_index,
    clamp_value,
    energy,
    root_seed,
    shards: int | None,
) -> tuple[list[tuple], tuple]:
    """The per-shard task tuples of a sharded run, and its output slabs.

    ``clamp_index`` / ``clamp_value`` are the validated arrays of
    :meth:`CircuitSimulator._check_clamps` (empty when nothing is held).
    """
    batch = sigma0.shape[0]
    num_shards = resolve_num_shards(batch, shards)
    slices = shard_slices(batch, num_shards)
    seeds = spawn_seeds(root_seed, num_shards)
    sigma_shared = arena.share(sigma0)
    clamp_index = arena.share(clamp_index)
    clamp_value = arena.share(clamp_value)
    shared_drift = maybe_share_method(arena, drift)
    shared_energy = maybe_share_method(arena, energy)
    slabs = record_slabs(
        arena, simulator.config, duration, batch, sigma0.shape[1]
    )
    tasks = [
        (
            simulator.config,
            simulator.faults,
            shared_drift,
            sigma_shared,
            part.start,
            part.stop,
            duration,
            clamp_index,
            clamp_value,
            shared_energy,
            seed,
            *slabs,
        )
        for part, seed in zip(slices, seeds)
    ]
    return tasks, slabs


def shard_task_bytes(
    simulator,
    drift,
    sigma0: np.ndarray,
    duration: float,
    *,
    shards: int | None = None,
    energy=None,
) -> int:
    """Serialized payload size of one sharded-run pool task.

    Measures exactly the task :func:`run_batch_sharded` would enqueue for
    shard 0, without running anything — descriptors only, so it does not
    grow with the problem size.
    """
    sigma0 = np.asarray(sigma0, dtype=float)
    no_clamps = simulator._check_clamps(sigma0.shape[1], None, None)
    with SharedArena(tag="measure") as arena:
        tasks, _ = _shard_tasks(
            arena, simulator, drift, sigma0, duration,
            *no_clamps, energy, 0, shards,
        )
        return pickled_bytes(tasks[0])


def run_batch_sharded(
    simulator,
    drift,
    sigma0: np.ndarray,
    duration: float,
    clamp_index: np.ndarray | None = None,
    clamp_value: np.ndarray | None = None,
    energy=None,
    *,
    root_seed: int | np.random.SeedSequence = 0,
    workers: int = 1,
    shards: int | None = None,
) -> BatchTrajectory:
    """Shard a batched circuit run and reassemble one trajectory.

    The shard decomposition (``shards``, default
    :data:`~repro.parallel.pool.DEFAULT_SHARDS`) and per-shard RNG streams
    depend only on ``(batch, shards, root_seed)`` — never on ``workers`` —
    so any worker count produces identical bits.  ``drift`` and ``energy``
    must be picklable (e.g. bound methods of a
    :class:`~repro.core.operators.CouplingOperator`, which travel as
    shared-memory descriptors); closures are not.

    Args:
        simulator: The :class:`CircuitSimulator` whose ``config``/``faults``
            every shard inherits.  Its ``rng`` is *not* used — sharded
            noise streams come from ``root_seed`` (see module docstring).
        drift / sigma0 / duration / clamp_index / clamp_value / energy:
            As in :meth:`CircuitSimulator.run_batch`.  The clamps are
            validated here, before any shared-memory or pool work:
            out-of-range or duplicate indices, mismatched shapes and
            NaN/±Inf values raise ``ValueError``.
        root_seed: Root of the per-shard ``SeedSequence.spawn`` tree.
        workers: Process count; 1 runs the shards serially in-process.
        shards: Shard count; fixed independently of ``workers``.

    Returns:
        The reassembled :class:`BatchTrajectory` (recorded times are
        shared; states/energies concatenate along the batch axis).

        Under ``config.adaptive`` or ``config.early_exit`` each shard
        records its own data-dependent time grid, so shard trajectories
        cannot be concatenated along the batch axis frame-for-frame.
        Such runs write a *two-frame* slab instead — the initial state at
        ``t=0`` and each member's final state, stamped at the latest
        shard finish time — which preserves ``final_states`` /
        ``final_energies`` (what every downstream consumer reads)
        exactly.
    """
    sigma0 = np.asarray(sigma0, dtype=float)
    if sigma0.ndim != 2:
        raise ValueError(
            f"sigma0 must be a (batch, n) matrix, got shape {sigma0.shape}"
        )
    if sigma0.shape[0] == 0:
        raise ValueError("cannot shard an empty batch")
    clamp_index, clamp_value = simulator._check_clamps(
        sigma0.shape[1], clamp_index, clamp_value, batch=sigma0.shape[0]
    )
    if np.unique(clamp_index).size != clamp_index.size:
        raise ValueError("clamp_index contains duplicates")
    if not np.all(np.isfinite(clamp_value)):
        raise ValueError("clamp_value contains NaN or infinite values")
    with SharedArena(tag="circuit") as arena:
        tasks, slabs = _shard_tasks(
            arena, simulator, drift, sigma0, duration,
            clamp_index, clamp_value, energy, root_seed, shards,
        )
        finish = parallel_map(_circuit_shard, tasks, arena.workers(workers))
        # Copy out before the arena unlinks the slabs on __exit__.
        return reassemble(simulator.config, finish, *slabs)
