"""Compare two result sets of the benchmark; refuse when hosts differ.

Usage (from the root of a checkout)::

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``<workload>-s<seed>-t0.json`` reports that
``perfbench/run.py`` writes to ``perfbench/out/``.  For every workload and
end-to-end metric it prints both medians and the change toward worse as a
share of the base median, against the metric's bound in
``BENCHMARK.json``.  A metric whose base spread (quartile distance over
median) exceeds its bound is ``unresolved`` rather than ``ok``, unless
every new run is better than every base run.

Exit codes: 0 no regression, 1 a regression, 2 the result sets were taken
under different host facts (CPU count or model, versions, BLAS and its
threads, start method) and are not compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> list[dict]:
    reports = [
        json.loads(path.read_text()) for path in sorted(Path(directory).glob("*-t0.json"))
    ]
    if not reports:
        raise SystemExit(f"error: no *-t0.json reports in {directory}")
    return reports


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(argv[0]), load(argv[1])
    hosts = {json.dumps(r["host"], sort_keys=True) for r in base + new}
    if len(hosts) > 1:
        print("refusing to compare: the result sets differ in host facts:")
        for host in sorted(hosts):
            print("  " + host)
        return 2
    regressed = False
    print(f"{'workload':14s} {'metric':18s} {'base':>12s} {'new':>12s} "
          f"{'worse':>8s} {'bound':>6s} {'spread':>7s}  verdict")
    for workload in sorted({r["workload"] for r in base}):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [
                [r["result"]["metrics"][name]["value"] for r in rs if r["workload"] == workload]
                for rs in (base, new)
            ]
            if not values[1]:
                continue
            b, n = statistics.median(values[0]), statistics.median(values[1])
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (n - b) / b
            noise = spread(values[0])
            all_better = max(sign * v for v in values[1]) < min(
                sign * v for v in values[0]
            )
            if noise > metric["bound"] and not all_better:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict, regressed = "regressed", True
            else:
                verdict = "ok"
            print(f"{workload:14s} {name:18s} {b:12.5g} {n:12.5g} {worse:8.3f} "
                  f"{metric['bound']:6.2f} {noise:7.3f}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
