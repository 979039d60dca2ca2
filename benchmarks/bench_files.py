"""The ``BENCH_<n>.json`` result records of the server benchmarks.

A run merge-writes its numbers into ``.benchmarks/BENCH_<n>.json``
(git-ignored), so a plain test run leaves the committed
``BENCH_<n>.json`` files at the repo root as they are.  A reader takes
the run's copy when there is one and the committed file otherwise —
which is also what the first write of a run starts from.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_DIR = ROOT / ".benchmarks"


def read_bench(name: str) -> dict | None:
    """The record *name*: this run's copy, else the committed file."""
    for path in (RUN_DIR / name, ROOT / name):
        if path.exists():
            return json.loads(path.read_text())
    return None


def record_bench(name: str, section: str, key: str, value) -> None:
    """Merge one result into the run's copy of the record *name*."""
    data = read_bench(name) or {}
    data.setdefault(section, {})[key] = value
    RUN_DIR.mkdir(exist_ok=True)
    (RUN_DIR / name).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
