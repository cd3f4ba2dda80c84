"""Run one workload of the DS-GL end-to-end benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures the
per-layer metrics instead (half the timed phase untraced, half traced).
The metric names and units come from ``BENCHMARK.json``.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report.
The exit code is 0 only when every output passed its check.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import BLAS_THREADS, THREAD_VARS  # noqa: E402

# BLAS reads these once, when numpy loads; pin them before that happens.
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS
sys.path.insert(1, str(ROOT / "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from multiprocessing import resource_tracker  # noqa: E402

import numpy as np  # noqa: E402

from perfbench.measure import (  # noqa: E402
    NAME_RE,
    Spans,
    host_info,
    percentile,
    samples_beyond,
    tail,
)
from perfbench.workloads import WORKLOADS, Clock, count_failed  # noqa: E402

#: Fresh-interpreter set-ups per run besides the run's own: set-up time
#: is the median of all of them.
SETUP_PROBES = 4
OUT_DIR = ROOT / "perfbench" / "out"


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no program, bad spec, ...)."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        raise BenchmarkError(f"cannot read {path.name}: {error}") from error
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if not NAME_RE.match(metric["name"]):
            raise BenchmarkError(f"bad metric name {metric['name']!r}")
    return spec


def require_program() -> None:
    """Fail unless this checkout holds the program's source."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program at {ROOT / 'src' / 'repro'}")


def setup_probe(workload: str, seed: int, seconds: float) -> dict[str, float]:
    """Set the workload up in a fresh interpreter; its segment times."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--setup-probe",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=150
    )
    if done.returncode != 0:
        raise BenchmarkError(f"set-up probe failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run(args) -> tuple[dict, int]:
    spec = load_spec()
    require_program()
    cls = WORKLOADS[args.workload]
    if args.setup_probe:
        workload = cls(args.seed, args.seconds)
        clock = Clock(Spans(False))
        workload.setup(clock)
        workload.close()
        print(json.dumps(clock.seconds))
        return {}, 0

    host = host_info()
    setups = [
        setup_probe(args.workload, args.seed, args.seconds)
        for _ in range(SETUP_PROBES)
    ]
    spans = Spans(args.trace)
    workload = cls(args.seed, args.seconds)
    clock = Clock(spans)
    with spans.span("setup"):
        workload.setup(clock)
    setups.append(clock.seconds)
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise BenchmarkError(f"imported repro from {repro.__file__}")

    layers: dict[str, float] = {}
    try:
        if args.trace:
            from repro import obs

            untraced = workload.timed(args.seconds / 2, Spans(False))
            obs.configure(collect_metrics=True)
            try:
                traced = workload.timed(args.seconds / 2, spans)
                layers = workload.layers()
            finally:
                obs.disable()
            phases = [untraced, traced]
        else:
            phases = [workload.timed(args.seconds, Spans(False))]
    finally:
        workload.close()
    ops = [op for phase in phases for op in phase.ops]
    bad, quality = workload.check()
    attempted = sum(op.items for op in ops)
    failed = count_failed(ops, bad)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "quality": quality,
        "setup_segments": setups,
    }
    if args.trace:
        metrics = per_layer(spec, setups, layers, phases)
        report["self_times"] = spans.self_times()
        spans.write(OUT_DIR / f"{args.workload}-s{args.seed}.spans.jsonl")
    else:
        metrics = end_to_end(spec, workload, setups, ops, bad, phases)
    latencies = [op.latency_ms for op in ops]
    report["throughput_per_s"] = throughput_per_s(ops, bad, phases)
    report["latency_mean_ms"] = float(np.mean(latencies))
    report["latency_p50_ms"] = percentile(latencies, 0.5)
    report["latency_p99_ms"] = tail(latencies, 0.99)
    report["latency_samples"] = len(latencies)
    report["latencies_ms"] = latencies
    report["error_rate"] = failed / max(1, attempted)
    if getattr(workload, "lag_ms", None):
        report["generator_lag_ms_p99"] = percentile(workload.lag_ms, 0.99)
    print_report(report, metrics)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": failed == 0 and all(math.isfinite(v) for v in metrics.values()),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    report["result"] = result
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{int(args.trace)}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=1, default=str))
    return result, 0 if result["correct"] else 1


def _median_segment(setups: list[dict], name: str) -> float:
    return statistics.median(s.get(name, 0.0) for s in setups)


def end_to_end(spec, workload, setups, ops, bad, phases) -> dict[str, float]:
    met = [
        op for op in ops
        if op.ok and op.rid not in bad and op.latency_ms <= workload.slo_ms
    ]
    metrics = {
        "setup_s": statistics.median(sum(s.values()) for s in setups),
        "latency_ms": percentile(
            [op.latency_ms for op in ops], workload.latency_q
        ),
        "slo_attainment": len(met) / len(ops),
        "peak_rss_mb": phases[0].peak_rss_mb,
    }
    return _exactly(spec["end_to_end"], metrics)


def throughput_per_s(ops, bad, phases) -> float:
    """Forecasts completed and correct per second of the timed phases."""
    done = sum(op.items - bad.get(op.rid, 0) for op in ops if op.ok)
    return done / sum(phase.wall_s for phase in phases)


def per_layer(spec, setups, layers, phases) -> dict[str, float]:
    untraced, traced = phases
    metrics = {m["name"]: 0.0 for m in spec["per_layer"]}
    metrics.update(
        {
            "import.repro_s": _median_segment(setups, "import"),
            "training.fit_s": _median_segment(setups, "training.fit"),
            "decompose.decompose_s": _median_segment(setups, "decompose"),
            "hardware.init_s": _median_segment(setups, "hardware.init"),
            "trace.overhead_ratio": np.mean([op.latency_ms for op in traced.ops])
            / np.mean([op.latency_ms for op in untraced.ops]),
        }
    )
    metrics.update(layers)
    return _exactly(spec["per_layer"], metrics)


def _exactly(declared: list[dict], metrics: dict) -> dict[str, float]:
    names = [m["name"] for m in declared]
    if set(names) != set(metrics):
        raise BenchmarkError(
            f"metrics {sorted(set(metrics) ^ set(names))} differ from BENCHMARK.json"
        )
    return {name: float(metrics[name]) for name in names}


def print_report(report: dict, metrics: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"trace {int(report['trace'])}")
    print("host " + json.dumps(report["host"], sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g}")
    for name in ("throughput_per_s", "latency_mean_ms", "latency_p50_ms"):
        print(f"  {name:34s} {report[name]:14.6g}")
    count = report["latency_samples"]
    p99 = report["latency_p99_ms"]
    beyond = samples_beyond(count, 0.99)
    print(
        f"  {'latency_p99_ms':34s} "
        + (f"{p99:14.6g}" if p99 is not None else f"{'n/a':>14s}")
        + f"  ({count} samples, {beyond} beyond p99)"
    )
    print(f"  {'error_rate':34s} {report['error_rate']:14.6g}")
    for name, value in report["quality"].items():
        print(f"  {name:34s} {value:14.6g}")
    if "generator_lag_ms_p99" in report:
        print(f"  {'generator_lag_ms_p99':34s} {report['generator_lag_ms_p99']:14.6g}")
    if "self_times" in report:
        print(f"  {'span':34s} {'count':>7s} {'total_s':>10s} {'self_s':>10s}")
        for name, row in sorted(report["self_times"].items()):
            print(
                f"  {name:34s} {row['count']:7d} {row['total_s']:10.4f} "
                f"{row['self_s']:10.4f}"
            )


def stop_children() -> None:
    """Stop and reap every process this run started.

    Pool workers are joined by the program, but the first shared-memory
    block starts multiprocessing's resource tracker, which would only
    exit after this process does and then stay behind unreaped.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    started = time.perf_counter()
    try:
        result, code = run(args)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        stop_children()
    if result:
        print(f"elapsed {time.perf_counter() - started:.1f} s", file=sys.stderr)
        print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
