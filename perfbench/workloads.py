"""The four workloads: set-up, timed phase, traced counters and checks.

Each workload only calls the public API of ``repro``.  Inputs come from
:mod:`perfbench.inputs`; reference answers come from the benchmark's own
dense solves.  A workload object goes through ``setup`` (timed per
segment), then one or two calls of ``timed`` (the second one traced),
then ``check``.
"""

from __future__ import annotations

import asyncio
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from perfbench import inputs
from perfbench.measure import Spans, peak_rss_mb, percentile


@dataclass
class Op:
    """One timed operation: an anneal, a request or a batch call."""

    rid: int
    latency_ms: float
    ok: bool
    items: int


@dataclass
class Phase:
    """The operations of one timed phase, its wall time, and the peak
    resident memory after its first operation (the open loop: at its end)."""

    ops: list[Op] = field(default_factory=list)
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0


def count_failed(ops: list[Op], bad: dict[int, int]) -> int:
    """Items that failed: every item of an operation the program failed or
    refused, plus the items of ok operations that failed their check."""
    return sum(op.items if not op.ok else bad.get(op.rid, 0) for op in ops)


class Clock:
    """Times named set-up segments, spanning them when tracing is on."""

    def __init__(self, spans: Spans):
        self.spans = spans
        self.seconds: dict[str, float] = {}

    @contextmanager
    def segment(self, name: str):
        started = time.perf_counter()
        with self.spans.span(name):
            yield
        self.seconds[name] = time.perf_counter() - started


def _obs():
    from repro import obs

    return obs


def _samples(name: str) -> list[float]:
    """Samples of a ``repro.obs`` histogram (empty while obs is off)."""
    registry = _obs().metrics()
    return list(registry.histogram(name).samples) if registry.enabled else []


def _counter(name: str) -> int:
    registry = _obs().metrics()
    return registry.counter(name).value if registry.enabled else 0


def _run_for(seconds: float, minimum: int, op) -> Phase:
    """Call ``op()`` until ``seconds`` have passed and at least ``minimum``
    calls were made.

    Peak memory is read after the first call.  Later sharded calls grow
    the process by amounts that depend on how the pool's feeder thread
    and the main thread interleave their allocations (measured 290 to
    380 MB after two calls of one seed), so a later reading would measure
    that race rather than the memory the program needs.
    """
    phase = Phase()
    started = time.perf_counter()
    while len(phase.ops) < minimum or time.perf_counter() - started < seconds:
        phase.ops.append(op())
        if len(phase.ops) == 1:
            phase.peak_rss_mb = peak_rss_mb()
    phase.wall_s = time.perf_counter() - started
    return phase


# ----------------------------------------------------------------------
# pipeline: the paper's traffic forecast on the Scalable DSPU
# ----------------------------------------------------------------------
class Pipeline:
    """Fit, decompose and map a traffic model, then anneal each frame."""

    name = "pipeline"
    SENSORS = 72
    TRAIN_FRAMES = 384
    TEST_FRAMES = 96
    WINDOW = 3
    DURATION_NS = 20000.0
    #: Latency limit of one forecast (one ``anneal`` call).
    slo_ms = 300.0
    #: Quantile of the call times reported as ``latency_ms``: the fastest.
    #: Every call does the same work, yet on a shared 2-vCPU host calls
    #: ran at 60 to 115 ms in phases of a few seconds, and how much of a
    #: run fell in fast phases moved its p10 by 20% (quartile spread over
    #: ten seeds) and its median by 12%.  The fastest call, the program's
    #: own cost with the least host interference, held to 4%.
    latency_q = 0.0

    def __init__(self, seed: int, seconds: float):
        series = inputs.traffic_series(
            self.SENSORS, self.TRAIN_FRAMES, self.TEST_FRAMES, seed
        )
        self.train = series[: self.TRAIN_FRAMES]
        test = series[self.TRAIN_FRAMES :]
        frames = np.arange(self.WINDOW - 1, self.TEST_FRAMES)
        self.history = np.stack(
            [test[t - self.WINDOW + 1 : t].reshape(-1) for t in frames]
        )
        self.target = test[frames]
        self.persistence = test[frames - 1]
        self.observed = np.arange((self.WINDOW - 1) * self.SENSORS)
        self.predictions: dict[int, np.ndarray] = {}
        self.sim_latency_ns: set[float] = set()
        self.cursor = 0
        self.trace: dict = {"anneal_ms": [], "build_ms": [], "keys": set()}

    def inputs_digest(self) -> list[np.ndarray]:
        return [self.train, self.history, self.target]

    def setup(self, clock: Clock) -> None:
        with clock.segment("import"):
            import repro  # noqa: F401
            from repro.core import TemporalWindowing, TrainingConfig, fit_precision
            from repro.decompose import DecompositionConfig, decompose
            from repro.hardware import HardwareConfig, ScalableDSPU
        with clock.segment("training.fit"):
            samples = TemporalWindowing(self.SENSORS, window=self.WINDOW).windows(
                self.train
            )
            dense = fit_precision(samples, TrainingConfig(ridge=5e-2))
        with clock.segment("decompose"):
            system = decompose(
                dense,
                samples,
                DecompositionConfig(density=0.15, pattern="dmesh", grid_shape=(3, 3)),
            )
        with clock.segment("hardware.init"):
            config = HardwareConfig(
                grid_shape=(3, 3), pe_capacity=system.placement.capacity, lanes=8
            )
            self.dspu = ScalableDSPU(system, config, node_time_constant_ns=500.0)
        self.interval_ns = config.sync_interval_ns

    def close(self) -> None:
        pass

    def timed(self, seconds: float, spans: Spans) -> Phase:
        frames = len(self.history)

        def forecast() -> Op:
            k = self.cursor
            self.cursor += 1
            frame = k % frames
            built = len(_samples("dspu.build_propagators_ms"))
            started = time.perf_counter()
            with spans.span("hardware.anneal", rid=k) as span:
                outcome = self.dspu.anneal(
                    self.observed,
                    self.history[frame],
                    duration_ns=self.DURATION_NS,
                    workers=1,
                )
            latency_ms = (time.perf_counter() - started) * 1e3
            ok = self._record(frame, outcome)
            if spans.enabled:
                new = _samples("dspu.build_propagators_ms")[built:]
                self.trace["anneal_ms"].append(latency_ms)
                self.trace["build_ms"].extend(new)
                self.trace["keys"].add(
                    (self.observed.tobytes(), self.DURATION_NS, self.interval_ns)
                )
                for ms in new:
                    spans.record(
                        "hardware.build_propagators",
                        span["start"],
                        span["start"] + ms / 1e3,
                        parent=span["id"],
                        rid=k,
                        derived=True,
                    )
            return Op(k, latency_ms, ok, 1)

        needed = max(0, frames - self.cursor)
        return _run_for(seconds, needed, forecast)

    def _record(self, frame: int, outcome) -> bool:
        prediction = np.asarray(outcome.prediction, dtype=float)
        self.sim_latency_ns.add(float(outcome.latency_ns))
        ok = bool(np.all(np.isfinite(prediction))) and prediction.shape == (
            self.SENSORS,
        )
        # 20 us is a whole number of 200 ns sync intervals, so the
        # simulated time must equal the request exactly.
        ok = ok and outcome.latency_ns == self.DURATION_NS
        first = self.predictions.setdefault(frame, prediction)
        return ok and np.array_equal(first, prediction)

    def check(self) -> tuple[dict[int, int], dict]:
        """Failed items per operation id found after the run, and quality
        figures.  A forecast that does not beat persistence fails every
        frame."""
        frames = len(self.history)
        every = {k: 1 for k in range(self.cursor)}
        if len(self.predictions) < frames:
            return every, {"rmse": math.nan}
        predicted = np.stack([self.predictions[f] for f in range(frames)])
        rmse = float(np.sqrt(np.mean((predicted - self.target) ** 2)))
        baseline = float(np.sqrt(np.mean((self.persistence - self.target) ** 2)))
        quality = {
            "rmse": rmse,
            "persistence_rmse": baseline,
            "sim_latency_us": max(self.sim_latency_ns) / 1e3,
        }
        beats_persistence = math.isfinite(rmse) and rmse < baseline
        return ({} if beats_persistence else every), quality

    def layers(self) -> dict:
        anneal, build = self.trace["anneal_ms"], self.trace["build_ms"]
        return {
            "hardware.anneal_ms_p50": percentile(anneal, 0.5),
            "hardware.propagator_build_ms": percentile(build, 0.5),
            "hardware.propagator_share": sum(build) / sum(anneal),
            "hardware.propagator_builds": len(build),
            "hardware.distinct_anneal_inputs": len(self.trace["keys"]),
        }


# ----------------------------------------------------------------------
# serve / serve-writes: open-loop requests into the inference server
# ----------------------------------------------------------------------
class Serve:
    """Bursty open-loop requests into ``InferenceServer``; optionally a
    graph delta after every 50 requests."""

    name = "serve"
    N = 1024
    DENSITY = 0.01
    #: Mean request rate.  At 200/s the bursts (4x the mean) came close
    #: to what the server can batch and solve on 2 vCPUs, so queues grew
    #: or not with the host's speed and ``slo_attainment`` of
    #: ``serve-writes`` moved between 0.76 and 0.95 from run to run.
    RATE_PER_S = 100.0
    SETS = 4
    DELTA_EVERY = 50
    DELTA_EDITS = 4
    #: Latency limit of one request, from when it was due to be sent.
    slo_ms = 50.0
    #: Quantile of the request latencies reported as ``latency_ms``.
    latency_q = 0.1
    #: Largest deviation from the dense reference solve, in node volts.
    TOLERANCE = 1e-6

    def __init__(self, seed: int, seconds: float, writes: bool = False):
        self.J, self.h = inputs.convex_sparse_model(self.N, self.DENSITY, seed)
        self.sets = inputs.observed_sets(self.N, self.SETS, seed)
        count = max(self.SETS, round(self.RATE_PER_S * seconds))
        self.offsets = inputs.arrival_offsets(count, self.RATE_PER_S, seed)
        self.values = inputs.clamp_values((count, self.N // 2), seed, 6)
        self.deltas = (
            inputs.delta_sequence(
                self.J, self.h, count // self.DELTA_EVERY, self.DELTA_EDITS, seed
            )
            if writes
            else []
        )
        self.sent = 0
        self.deltas_sent = 0
        # Per request: (version at submit, version at reply, prediction).
        self.replies: dict[int, tuple[int, int, np.ndarray | None]] = {}
        self.trace: dict = {"queued_ms": [], "service_ms": [], "delta_ms": []}
        # How late each request was sent, in send order.
        self.lag_ms: list[float] = []
        self.traced_from = 0

    def inputs_digest(self) -> list[np.ndarray]:
        arrays = [self.J, self.h, self.offsets, self.values, *self.sets]
        for delta in self.deltas:
            arrays += [delta.edges, delta.weights]
        return arrays

    def setup(self, clock: Clock) -> None:
        J, h = self.J.copy(), self.h.copy()
        self.runner = asyncio.Runner()
        with clock.segment("import"):
            import repro  # noqa: F401
        self.runner.run(self._start(clock, J, h))

    async def _start(self, clock: Clock, J: np.ndarray, h: np.ndarray) -> None:
        from repro.core import DSGLModel, NaturalAnnealingEngine
        from repro.serve import InferenceServer, ServeConfig

        with clock.segment("serve.start"):
            engine = NaturalAnnealingEngine(DSGLModel(J=J, h=h))
            self.server = InferenceServer(
                engine, ServeConfig(mode="equilibrium", batch_window_ms=2.0)
            )
            self.server.start()
            for index in self.sets:
                self.server.warm(index)

    def close(self) -> None:
        self.runner.run(self.server.shutdown())
        self.runner.close()

    def timed(self, seconds: float, spans: Spans) -> Phase:
        count = max(1, round(self.RATE_PER_S * seconds))
        end = min(len(self.offsets), self.sent + count)
        return self.runner.run(self._open_loop(self.sent, end, spans))

    async def _open_loop(self, first: int, end: int, spans: Spans) -> Phase:
        from repro.stream import GraphDelta

        server = self.server
        phase = Phase()
        loop_started = time.perf_counter()
        origin = loop_started - self.offsets[first]
        if spans.enabled:
            self.traced_from = first
        futures = []
        done_at: dict[int, tuple[float, int]] = {}
        due: dict[int, float] = {}
        for i in range(first, end):
            due[i] = origin + self.offsets[i]
            delay = due[i] - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.perf_counter()
            self.lag_ms.append((sent - due[i]) * 1e3)
            version = self.deltas_sent
            future = server.submit(self.sets[i % self.SETS], self.values[i])
            future.add_done_callback(
                lambda _f, i=i: done_at.setdefault(
                    i, (time.perf_counter(), self.deltas_sent)
                )
            )
            futures.append((i, version, future))
            self.sent = i + 1
            if self.deltas and self.sent % self.DELTA_EVERY == 0:
                if self.deltas_sent < len(self.deltas):
                    delta = self.deltas[self.deltas_sent]
                    started = time.perf_counter()
                    with spans.span("stream.apply_delta", rid=i):
                        server.apply_delta(
                            GraphDelta(edge_index=delta.edges, edge_weight=delta.weights)
                        )
                    self.deltas_sent += 1
                    if spans.enabled:
                        self.trace["delta_ms"].append(
                            (time.perf_counter() - started) * 1e3
                        )
        await asyncio.gather(*(future for _, _, future in futures))
        await asyncio.sleep(0)  # run the callbacks that stamp reply times
        for i, version, future in futures:
            result = future.result()
            replied, replied_version = done_at[i]
            latency_ms = (replied - due[i]) * 1e3
            ok = result.ok
            self.replies[i] = (
                version,
                replied_version,
                np.asarray(result.prediction, dtype=float) if ok else None,
            )
            phase.ops.append(Op(i, latency_ms, ok, 1))
            if spans.enabled:
                request = spans.record("serve.request", due[i], replied, rid=i)
                if ok:
                    self.trace["queued_ms"].append(result.queued_ms)
                    self.trace["service_ms"].append(result.service_ms)
                    service_start = replied - result.service_ms / 1e3
                    spans.record(
                        "serve.queue",
                        service_start - result.queued_ms / 1e3,
                        service_start,
                        parent=request["id"],
                        rid=i,
                        derived=True,
                    )
                    spans.record(
                        "serve.service",
                        service_start,
                        replied,
                        parent=request["id"],
                        rid=i,
                        derived=True,
                    )
        phase.wall_s = time.perf_counter() - loop_started
        phase.peak_rss_mb = peak_rss_mb()
        return phase

    def check(self) -> tuple[dict[int, int], dict]:
        """Match every ok reply against a dense solve of a model version
        that was live between the request's submission and its reply."""
        J, h = self.J.copy(), self.h.copy()
        unmatched = {i: r for i, r in self.replies.items() if r[2] is not None}
        worst: dict[int, float] = {}
        for version in range(self.deltas_sent + 1):
            if version:
                inputs.apply_delta(J, self.deltas[version - 1])
            for s, index in enumerate(self.sets):
                ids = [
                    i
                    for i, (lo, hi, _) in unmatched.items()
                    if i % self.SETS == s and lo <= version <= hi
                ]
                if not ids:
                    continue
                reference = inputs.fixed_point(J, h, index, self.values[ids])
                for i, ref in zip(ids, reference):
                    error = float(np.max(np.abs(unmatched[i][2] - ref)))
                    worst[i] = min(worst.get(i, math.inf), error)
                    if error <= self.TOLERANCE:
                        del unmatched[i]
        quality = {"max_abs_err": max(worst.values(), default=math.nan)}
        return {i: 1 for i in unmatched}, quality

    def layers(self) -> dict:
        hits = _counter("engine.cache_hits")
        misses = _counter("engine.cache_misses")
        incremental = _counter("stream.incremental_updates")
        refactors = _counter("stream.refactorizations") + _counter(
            "stream.residual_refactorizations"
        )
        t = self.trace
        out = {
            "engine.solve_ms_p50": percentile(_samples("engine.solve_ms"), 0.5),
            "engine.factorize_ms": sum(_samples("engine.factorize_ms")),
            "engine.cache_hit_ratio": hits / max(1, hits + misses),
            "serve.queue_wait_ms_p50": percentile(t["queued_ms"], 0.5),
            "serve.queue_wait_ms_p99": percentile(t["queued_ms"], 0.99),
            "serve.service_ms_p50": percentile(t["service_ms"], 0.5),
            "serve.batch_size_mean": float(np.mean(_samples("serve.batch_size"))),
            "serve.generator_lag_ms_p99": percentile(
                self.lag_ms[self.traced_from :], 0.99
            ),
        }
        if t["delta_ms"]:
            out["stream.apply_delta_ms_p50"] = percentile(t["delta_ms"], 0.5)
            out["stream.apply_delta_ms_max"] = max(t["delta_ms"])
            out["stream.incremental_ratio"] = incremental / max(
                1, incremental + refactors
            )
        return out


class ServeWrites(Serve):
    name = "serve-writes"

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds, writes=True)


# ----------------------------------------------------------------------
# circuit: sharded batched circuit-mode inference
# ----------------------------------------------------------------------
class Circuit:
    """``infer_batch`` with early exit, sharded over two workers."""

    name = "circuit"
    N = 2048
    DENSITY = 0.01
    BATCH = 32
    BATCHES = 4
    DURATION = 60.0
    #: Euler step (ns).  The free block's eigenvalues reach about -21 on
    #: this model class, so explicit Euler needs dt < 2/21; at dt=0.1 it
    #: diverges on some seeds, the rails clip the state, and early exit
    #: reports the clipped state as settled.
    DT = 0.05
    WORKERS = 2
    SHARDS = 2
    #: Latency limit of one ``infer_batch`` call.
    slo_ms = 4000.0
    #: Quantile of the call times reported as ``latency_ms``: the median.
    #: A run makes about 18 calls, each a second long; over ten seeds the
    #: median spread by 8% and the 10th percentile, set by the two
    #: fastest calls, by 11%.
    latency_q = 0.5
    #: Largest deviation from the exact fixed point, in node volts.  Early
    #: exit stops once no node moves more than 1e-6 in a settle check; with
    #: the slowest free mode decaying at 2.2/ns or faster, at most about
    #: 1e-6 / (DT * 2.2) = 9e-6 is left.  Measured: 3e-8 to 1.2e-7.
    TOLERANCE = 1e-5

    #: Seed of the model and of the observed set.  Early exit stops when
    #: the slowest free mode has settled, and that mode's rate depends on
    #: the model: with a seeded model the p10 of a call moved between 840
    #: and 1100 ms over ten seeds.  Only the clamped values come from the
    #: workload seed.
    MODEL_SEED = 0

    def __init__(self, seed: int, seconds: float):
        self.J, self.h = inputs.convex_sparse_model(
            self.N, self.DENSITY, self.MODEL_SEED
        )
        self.observed = inputs.observed_sets(self.N, 1, self.MODEL_SEED)[0]
        self.values = inputs.clamp_values(
            (self.BATCHES, self.BATCH, self.N // 2), seed, 7
        )
        self.results: list[tuple[int, int, np.ndarray, float]] = []
        self.calls = 0
        self.next_batch = 0
        self.trace: dict = {
            "shard_ms": [],
            "dispatch_ms": [],
            "pickled": [],
            "steps": None,
        }

    def inputs_digest(self) -> list[np.ndarray]:
        return [self.J, self.h, self.observed, self.values]

    def setup(self, clock: Clock) -> None:
        with clock.segment("import"):
            import repro  # noqa: F401
            from repro.core import DSGLModel, IntegrationConfig, NaturalAnnealingEngine
        with clock.segment("engine.build"):
            self.engine = NaturalAnnealingEngine(
                DSGLModel(J=self.J.copy(), h=self.h.copy()),
                config=IntegrationConfig(
                    dt=self.DT, early_exit=True, settle_tolerance=1e-6
                ),
            )
            self.engine.operator  # noqa: B018 - builds the coupling operator

    def close(self) -> None:
        pass

    def timed(self, seconds: float, spans: Spans) -> Phase:
        def call() -> Op:
            k = self.calls
            self.calls += 1
            batch = self.next_batch % self.BATCHES
            self.next_batch += 1
            shards_before = len(_samples("circuit.run_batch_ms"))
            pickled = _counter("parallel.bytes_pickled")
            steps = (_counter("circuit.steps"), _counter("circuit.member_steps"))
            started = time.perf_counter()
            with spans.span("circuit.infer_batch", rid=k) as span:
                result = self.engine.infer_batch(
                    self.observed,
                    self.values[batch],
                    duration=self.DURATION,
                    workers=self.WORKERS,
                    shards=self.SHARDS,
                )
            latency_ms = (time.perf_counter() - started) * 1e3
            predictions = np.asarray(result.predictions, dtype=float)
            self.results.append(
                (k, batch, predictions, float(result.annealing_time_ns))
            )
            if spans.enabled:
                shard_ms = _samples("circuit.run_batch_ms")[shards_before:]
                self.trace["shard_ms"].extend(shard_ms)
                self.trace["dispatch_ms"].append(latency_ms - max(shard_ms, default=0.0))
                self.trace["pickled"].append(_counter("parallel.bytes_pickled") - pickled)
                if self.trace["steps"] is None:
                    self.trace["steps"] = (
                        _counter("circuit.steps") - steps[0],
                        _counter("circuit.member_steps") - steps[1],
                    )
                for ms in shard_ms:
                    spans.record(
                        "circuit.run_batch",
                        span["start"],
                        span["start"] + ms / 1e3,
                        parent=span["id"],
                        rid=k,
                        derived=True,
                    )
            return Op(k, latency_ms, True, self.BATCH)

        if spans.enabled:
            # The traced phase starts again from batch 0, so the step
            # counts of its first call repeat exactly for a seed.
            self.next_batch = 0
        return _run_for(seconds, self.BATCHES, call)

    def check(self) -> tuple[dict[int, int], dict]:
        free_count = self.N - self.observed.size
        references = [
            inputs.fixed_point(self.J, self.h, self.observed, self.values[b])
            for b in range(self.BATCHES)
        ]
        bad, worst = {}, 0.0
        for k, batch, predictions, annealed in self.results:
            if predictions.shape != (self.BATCH, free_count) or not (
                0.0 < annealed <= self.DURATION
            ):
                bad[k] = self.BATCH
                continue
            errors = np.max(np.abs(predictions - references[batch]), axis=1)
            errors = np.where(np.isfinite(errors), errors, np.inf)
            worst = max(worst, float(errors.max()))
            if np.any(errors > self.TOLERANCE):
                bad[k] = int(np.count_nonzero(errors > self.TOLERANCE))
        return bad, {"max_abs_err": worst}

    def layers(self) -> dict:
        t = self.trace
        steps, member_steps = t["steps"] or (0, 0)
        state = np.random.default_rng(0).uniform(-1.0, 1.0, size=(self.BATCH, self.N))
        operator = self.engine.operator
        drift_ms = []
        for _ in range(30):
            started = time.perf_counter()
            operator.drift(state)
            drift_ms.append((time.perf_counter() - started) * 1e3)
        serial_ms = []
        for _ in range(3):
            started = time.perf_counter()
            self.engine.infer_batch(self.observed, self.values[0], duration=self.DURATION)
            serial_ms.append((time.perf_counter() - started) * 1e3)
        nnz = int(np.count_nonzero(self.J))
        rows = self.BATCH * self.N
        return {
            "circuit.steps": steps,
            "circuit.member_steps": member_steps,
            "circuit.run_batch_ms": percentile(t["shard_ms"], 0.5),
            "operators.drift_ms": percentile(drift_ms, 0.5),
            # Computed for a CSR product with int32 indices: multiply-add
            # per stored coupling and per sample, plus h * sigma and the sum.
            "operators.drift_flops": 2 * nnz * self.BATCH + 2 * rows,
            # Couplings, indices, row pointers and h read once; the state
            # read and the result written once.
            "operators.drift_bytes": 12 * nnz + 4 * (self.N + 1) + 8 * self.N + 16 * rows,
            "parallel.bytes_pickled": float(np.mean(t["pickled"])),
            "parallel.serial_ms": percentile(serial_ms, 0.5),
            "parallel.dispatch_ms": percentile(t["dispatch_ms"], 0.5),
        }


WORKLOADS = {
    cls.name: cls for cls in (Pipeline, Serve, ServeWrites, Circuit)
}
