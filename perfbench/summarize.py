"""Summarize raw per-run records: median, quartiles and spread per metric.

Usage (from the checkout root)::

    python3 perfbench/summarize.py [RUNS_JSONL] [--workload NAME]

Reads ``.perfbench/runs.jsonl`` by default (every run of
``perfbench/run.py`` appends one record there) and prints, per workload
and metric, the number of runs, the median, the first and third
quartiles and the spread -- the interquartile distance as a share of
the median, the figure the benchmark's bounds are compared against --
followed by the host fingerprint the runs were made on.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", nargs="?", default=".perfbench/runs.jsonl")
    parser.add_argument("--workload", default=None)
    parser.add_argument("--per-layer", action="store_true", help="also list per-layer metrics")
    parser.add_argument("--unscaled", action="store_true", help="also list timings as timed, before host scaling")
    args = parser.parse_args(argv)
    records = [json.loads(line) for line in Path(args.runs).read_text().splitlines() if line.strip()]
    records = [r for r in records if not r.get("smoke") and (args.workload in (None, r["workload"]))]
    grouped: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    hosts = set()
    for record in records:
        hosts.add(json.dumps(record["host"], sort_keys=True))
        sections = ["end_to_end"] + (["per_layer"] if args.per_layer else [])
        for section in sections:
            for name, value in record[section].items():
                grouped[record["workload"]][name].append(value)
        if args.unscaled:
            for name, value in record["unscaled"].items():
                grouped[record["workload"]][f"unscaled {name}"].append(value)
        grouped[record["workload"]]["correct"].append(1.0 if record["correct"] else 0.0)
    for workload, metrics in sorted(grouped.items()):
        print(f"{workload}")
        for name, values in metrics.items():
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median if median else 0.0
            print(f"  {name:32s} n={len(values):3d} median={median:12.4f} q1={q1:12.4f} q3={q3:12.4f} spread={spread:7.3f}")
    for host in sorted(hosts):
        print(f"host {host}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
