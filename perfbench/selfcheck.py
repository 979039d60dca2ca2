"""Self-check of the benchmark, in well under a minute.

Usage (from the checkout root)::

    python3 perfbench/selfcheck.py

1. Smoke: every workload runs once on a tiny project (``--smoke``) and
   must report ``correct: true`` with no failed request.
2. Oracle: one run with one expected OID removed from the twin's final
   stale set (``--corrupt-oracle``) must report ``correct: false``.
3. Contract: the metrics a run prints are exactly those
   ``BENCHMARK.json`` lists.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seconds", "1", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    if done.returncode != 0:
        raise SystemExit(f"run {args} exited {done.returncode}: {done.stderr[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = {metric["name"] for metric in spec["end_to_end"]}
    per_layer = {metric["name"] for metric in spec["per_layer"]}
    failures = []
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, wanted in ((0, end_to_end), (1, per_layer)):
            result = run("--workload", name, "--seed", "1", "--smoke", "--trace", str(trace))
            ok = result["correct"] and result["failed"] == 0
            if set(result["metrics"]) != wanted:
                ok = False
                failures.append(f"{name} trace={trace}: metrics differ from BENCHMARK.json")
            print(f"smoke {name} trace={trace}: {'ok' if ok else 'FAILED'}")
            if not ok:
                failures.append(f"{name} trace={trace}: {result}")
    corrupt = run("--workload", "eco_wave", "--seed", "1", "--smoke", "--corrupt-oracle")
    caught = not corrupt["correct"] and corrupt["failed"] > 0
    print(f"oracle catches a corrupted expected OID: {'ok' if caught else 'FAILED'}")
    if not caught:
        failures.append("corrupted oracle was not detected")
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
