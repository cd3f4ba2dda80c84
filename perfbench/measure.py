"""Measurement helpers: percentiles with a sample rule, spans, host facts."""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import platform
import re
import resource
import sys
import time
from contextlib import contextmanager
from importlib import metadata
from pathlib import Path

import numpy as np

from perfbench import THREAD_VARS

#: Metric and workload names: a letter or digit, then up to 63 of
#: letters, digits, "_", "." and "-".
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: A tail percentile is reported only with at least this many samples
#: beyond it; below that it would just repeat the largest few samples.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation, as numpy does."""
    return float(np.percentile(np.asarray(values, dtype=float), 100.0 * q))


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` sorted samples lie above the ``q``-quantile."""
    if count < 1:
        return 0
    return count - 1 - math.floor(q * (count - 1))


def tail(values, q: float) -> float | None:
    """The ``q``-quantile, or ``None`` with fewer than
    :data:`MIN_BEYOND` samples beyond it."""
    if samples_beyond(len(values), q) < MIN_BEYOND:
        return None
    return percentile(values, q)


def peak_rss_mb() -> float:
    """Peak resident set of this process so far.  Pool workers are left
    out: their resident pages are mostly the parent's, shared on fork."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Spans:
    """In-memory spans around the benchmark's calls into the program.

    A span has a name, start and end (seconds on ``perf_counter``), the
    id of the span that was open when it started, and an optional request
    id.  Spans whose timing comes from a counter the program exports
    rather than from the benchmark's clock carry ``derived=True``.
    Nothing is written until :meth:`write`.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, rid: int | None = None):
        if not self.enabled:
            yield None
            return
        record = self.record(name, time.perf_counter(), math.nan, rid=rid)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: int | None = None,
        rid: int | None = None,
        derived: bool = False,
    ) -> dict:
        """Append a span; its parent defaults to the innermost open span."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        record = {
            "id": len(self.records),
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "rid": rid,
        }
        if derived:
            record["derived"] = True
        self.records.append(record)
        return record

    def self_times(self) -> dict[str, dict]:
        """Per span name: count, total and self seconds.

        Self time is a span's duration minus the part of it that its
        children's intervals cover (overlapping children count once).
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for r in self.records:
            if r["parent"] is not None:
                children.setdefault(r["parent"], []).append((r["start"], r["end"]))
        table: dict[str, dict] = {}
        for r in self.records:
            covered, reach = 0.0, r["start"]
            for lo, hi in sorted(children.get(r["id"], [])):
                lo, hi = max(lo, reach), min(hi, r["end"])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            row = table.setdefault(r["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += r["end"] - r["start"]
            row["self_s"] += r["end"] - r["start"] - covered
        return table

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for record in self.records:
                out.write(json.dumps(record) + "\n")


def _blas_library() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_info() -> dict:
    """Facts a measurement is only valid under.  Result sets whose host
    facts differ are not compared (see ``perfbench/compare.py``).  Reads
    scipy's version without importing it, which would shorten the timed
    ``import repro`` of the run's own set-up."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": _blas_library(),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "start_method": os.environ.get("REPRO_PARALLEL_START_METHOD")
        or multiprocessing.get_all_start_methods()[0],
        "platform": sys.platform,
    }
