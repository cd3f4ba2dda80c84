"""Engine-level sharding: batched inference and restart fan-out.

A :class:`~repro.core.inference.NaturalAnnealingEngine` cannot cross a
process boundary directly — its memoized :class:`ReducedSystem` cache
holds SuperLU factor objects and solver closures that do not pickle.
:class:`EngineSpec` ships what a shard needs instead: the parent's
already-built coupling operator (through shared memory, see
:class:`~repro.parallel.shm.SharedOperator`), the model's normalization
arrays, and the engine's settings.  Each worker adopts that operator
(:meth:`NaturalAnnealingEngine._adopt`) rather than rebuilding it from
the dense model, so no worker repeats the parent's symmetry check or
dense-to-CSR conversion, and adoption is exact, so worker-side results
match what the same shard computes in-process.

Per-shard randomness follows the same rule as the circuit layer: shard
``i`` draws initialization (and integration noise) from
``default_rng(SeedSequence(root_seed).spawn(num)[i])``, making results a
pure function of ``(root_seed, shard decomposition)`` — never of worker
count.  One semantic difference from the legacy joint path is inherent:
with ``coupling_noise_std > 0`` each shard samples its own perturbed
coupling matrix from the adopted operator, i.e. shards model
*independent device realizations* rather than one shared chip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..core.inference import (
    DEFAULT_CACHE_CAPACITY,
    BatchInferenceResult,
    NaturalAnnealingEngine,
)
from .circuit import reassemble, record_slabs, write_shard_trajectory
from .pool import parallel_map, resolve_num_shards, shard_slices, spawn_seeds
from .shm import SharedArena, SharedArray, SharedOperator

__all__ = ["EngineSpec", "infer_batch_sharded", "restart_fanout"]


@dataclass(frozen=True)
class EngineSpec:
    """Picklable recipe for an engine inside a worker.

    Carries the parent's built operator as a shared-memory descriptor,
    the model's ``mean``/``scale`` (shared, or ``None``) and the engine's
    settings (the controller is omitted — neither ``infer_batch`` nor the
    restart policy consults it).  The dense coupling matrix never
    travels: a task pickles in O(1) of the model size.
    """

    operator: SharedOperator
    mean: SharedArray | None
    scale: SharedArray | None
    config: object
    seed: int
    backend: str
    faults: object
    cache_capacity: int = DEFAULT_CACHE_CAPACITY

    @classmethod
    def from_engine(
        cls, engine: NaturalAnnealingEngine, arena: SharedArena
    ) -> "EngineSpec":
        """Capture an engine's built operator and settings into ``arena``."""
        model = engine.model
        return cls(
            operator=arena.share_operator(engine.operator),
            mean=None if model.mean is None else arena.share(model.mean),
            scale=None if model.scale is None else arena.share(model.scale),
            config=engine.config,
            seed=engine.seed,
            backend=engine.backend,
            faults=engine.faults,
            cache_capacity=engine.cache_capacity,
        )

    def build(self) -> NaturalAnnealingEngine:
        """A worker engine adopting the shared operator."""
        return NaturalAnnealingEngine._adopt(
            self.operator.operator(),
            None if self.mean is None else self.mean.array,
            None if self.scale is None else self.scale.array,
            config=self.config,
            seed=self.seed,
            backend=self.backend,
            faults=self.faults,
            cache_capacity=self.cache_capacity,
        )


def _infer_shard(
    spec: EngineSpec,
    index_shared,
    values_shared,
    start: int,
    stop: int,
    duration: float,
    seed: np.random.SeedSequence,
    predictions_out,
    times_out,
    states_out,
    energies_out,
) -> float:
    """Run one batch slice on a worker engine; returns its finish time.

    The observed indices and values arrive as descriptors and the results
    land in the preallocated slabs — nothing problem-sized crosses the pickle
    channel in either direction.
    """
    engine = spec.build()
    with obs.tracer().span(
        "engine.shard", batch=stop - start, start=start, stop=stop
    ):
        result = engine.infer_batch(
            index_shared.array,
            values_shared.array[start:stop],
            duration=duration,
            rng=np.random.default_rng(seed),
        )
    predictions_out.array[start:stop] = result.predictions
    return write_shard_trajectory(
        result.trajectory,
        spec.config.early_exit,
        start,
        stop,
        times_out,
        states_out,
        energies_out,
    )


def infer_batch_sharded(
    engine: NaturalAnnealingEngine,
    observed_index: np.ndarray,
    observed_values: np.ndarray,
    duration: float = 50.0,
    *,
    root_seed: int | np.random.SeedSequence | None = None,
    workers: int = 1,
    shards: int | None = None,
) -> BatchInferenceResult:
    """Shard :meth:`NaturalAnnealingEngine.infer_batch` across workers.

    Args:
        engine: The engine whose model/config/backend/faults apply.
        observed_index / observed_values / duration: As in ``infer_batch``
            (validated here, before any shared-memory or pool work).
        root_seed: Root of the per-shard seed tree; defaults to
            ``engine.seed``.
        workers: Process count (1 = same shards, serial, identical bits).
        shards: Shard count, independent of ``workers``.

    Returns:
        The reassembled :class:`BatchInferenceResult`.  Configs without
        early exit keep the full recorded grid; ``early_exit`` configs
        reassemble to the two-frame trajectory described in
        :func:`repro.parallel.circuit.run_batch_sharded`, and report the
        latest shard finish time as ``annealing_time_ns``.
    """
    observed_index, free_index, values = engine._check_batch(
        observed_index, observed_values
    )
    batch = values.shape[0]
    if batch == 0:
        raise ValueError("cannot shard an empty batch")
    n = engine.model.n
    num_shards = resolve_num_shards(batch, shards)
    slices = shard_slices(batch, num_shards)
    seeds = spawn_seeds(
        engine.seed if root_seed is None else root_seed, num_shards
    )
    with SharedArena(tag="infer") as arena:
        spec = EngineSpec.from_engine(engine, arena)
        index_shared = arena.share(observed_index)
        values_shared = arena.share(values)
        predictions_out = arena.empty((batch, free_index.size))
        slabs = record_slabs(arena, engine.config, duration, batch, n)
        tasks = [
            (
                spec,
                index_shared,
                values_shared,
                part.start,
                part.stop,
                duration,
                seed,
                predictions_out,
                *slabs,
            )
            for part, seed in zip(slices, seeds)
        ]
        finish = parallel_map(_infer_shard, tasks, arena.workers(workers))
        trajectory = reassemble(engine.config, finish, *slabs)
        return BatchInferenceResult(
            predictions=predictions_out.array.copy(),
            states=trajectory.final_states,
            trajectory=trajectory,
            annealing_time_ns=(
                float(trajectory.times[-1])
                if engine.config.early_exit
                else duration
            ),
        )


def _restart_shard(
    spec: EngineSpec,
    observed_index: np.ndarray,
    values: np.ndarray,
    count: int,
    duration: float,
    seed: np.random.SeedSequence,
    max_retries: int,
) -> dict:
    """Anneal one shard of the restart pool, retrying on divergence.

    Divergence is reported in-band (``"error"`` key) instead of raised:
    a raising task would abort the whole pool map, and exceptions are
    exactly the case the restart fan-out must survive.
    """
    from ..faults.resilience import DivergenceError

    engine = spec.build()
    batch = np.repeat(values.reshape(1, -1), count, axis=0)
    rng = np.random.default_rng(seed)
    diverged = 0
    with obs.tracer().span("engine.restart_shard", count=count) as span:
        for _ in range(1 + max_retries):
            try:
                result = engine.infer_batch(
                    observed_index, batch, duration=duration, rng=rng
                )
                span.set("diverged", diverged)
                return {
                    "predictions": result.predictions,
                    "states": result.states,
                    "diverged": diverged,
                    "error": None,
                }
            except DivergenceError as error:
                diverged += 1
                last = error
        span.set("diverged", diverged)
    return {
        "predictions": None,
        "states": None,
        "diverged": diverged,
        "error": (last.where, last.step, last.time_ns, last.bad_nodes),
    }


def restart_fanout(
    engine: NaturalAnnealingEngine,
    observed_index: np.ndarray,
    observed_values: np.ndarray,
    restarts: int,
    duration: float,
    root_seed: int,
    max_retries: int,
    workers: int | None,
    shards: int | None,
) -> tuple[list[dict], list[slice]]:
    """Fan the restart pool out in shards; returns per-shard results.

    Shard ``i`` of the pool initializes from
    ``SeedSequence(root_seed).spawn(num)[i]`` and retries divergence
    locally (up to ``max_retries`` times, reusing its own stream), so the
    outcome is independent of worker count.  Interpretation of the result
    dicts is up to :class:`~repro.faults.resilience.RestartPolicy`.

    The built operator ships through shared memory (per-restart
    predictions are small and return by pickle).  Raises ``ValueError``
    for an empty fan-out — same contract as the empty-batch checks in
    :func:`run_batch_sharded` / :func:`infer_batch_sharded`.
    """
    if restarts < 1:
        raise ValueError("cannot fan out an empty restart pool")
    values = np.asarray(observed_values, dtype=float).reshape(-1)
    num_shards = resolve_num_shards(restarts, shards)
    slices = shard_slices(restarts, num_shards)
    seeds = spawn_seeds(root_seed, num_shards)
    with SharedArena(tag="restart") as arena:
        spec = EngineSpec.from_engine(engine, arena)
        tasks = [
            (
                spec,
                observed_index,
                values,
                part.stop - part.start,
                duration,
                seed,
                max_retries,
            )
            for part, seed in zip(slices, seeds)
        ]
        return (
            parallel_map(_restart_shard, tasks, arena.workers(workers)),
            slices,
        )
