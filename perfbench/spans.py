"""Per-layer metrics: counter deltas from every run, spans from the traced one.

Unit conventions:

* ``*_us`` -- microseconds of the layer's *self* CPU time per
  acknowledged request in the measured phase, so the layers of one
  workload add up to the server's CPU time per request (CPU rather than
  wall time: on the threaded server a span that waits for the
  interpreter lock would otherwise count another thread's work);
* ``*_ms`` -- mean duration of one call, in milliseconds (a disk
  barrier, a checkpoint, a wave, a pending scan, a load);
* ``*_per_write``, counts and ratios as named.
"""

from __future__ import annotations

import json
import statistics
from array import array
from pathlib import Path

#: Layer metric -> span names summed into it (self time per request).
SELF_US = {
    "framing.decode_us": ("framing.decode",),
    "framing.encode_us": ("framing.encode",),
    "protocol.parse_us": ("protocol.parse",),
    "protocol.format_us": ("protocol.format",),
    "transport.send_us": ("transport.send",),
    "server.lock_us": ("server.lock",),
    "bus.admit_us": ("bus.admit",),
    "bus.apply_us": ("bus.apply",),
    "bus.handle_us": ("bus.handle",),
    "bus.publish_us": ("bus.publish",),
    "wal.append_us": ("wal.append",),
    "policy.evaluate_us": ("policy.evaluate",),
    "policy.audit_us": ("policy.audit",),
    "engine.post_us": ("engine.post",),
    "engine.wave_us": ("engine.wave",),
    "indexes.property_changed_us": ("indexes.property_changed",),
    "db.neighbours_us": ("db.neighbours",),
    "db.find_us": ("db.find",),
    "db.stale_set_us": ("db.stale_set",),
}

#: Layer metric -> span name whose mean call duration it reports.
CALL_MS = {
    "wal.sync_ms": "wal.sync",
    "wal.checkpoint_ms": "wal.checkpoint",
    "persistence.save_ms": "persistence.save",
    "engine.wave_ms": "engine.wave",
    "store.flush_ms": "store.flush",
    "state.pending_ms": "state.pending",
    "persistence.load_ms": "persistence.load",
    "bus.recover_ms": "bus.recover",
}

#: Spans that are request roots rather than layers: their self time is
#: the server-side time no layer span accounts for.
ROOTS = ("server.dispatch", "server.respond")


def load(path: Path) -> dict:
    from traced_serve import COLUMNS

    header = json.loads(Path(path).read_text())
    threads = []
    with open(str(path) + ".bin", "rb") as handle:
        for count in header["threads"]:
            columns = {}
            for key, code in COLUMNS:
                column = array(code)
                column.fromfile(handle, count)
                columns[key] = column
            threads.append(columns)
    header["columns"] = threads
    return header


def aggregate(trace: dict, t0: float, t1: float) -> dict[str, dict[str, float]]:
    """Per span name: calls, wall and CPU totals and self times, and the
    totals of spans with no traced parent, over spans that started
    inside ``[t0, t1]``."""
    names = trace["names"]
    keys = ("total", "self", "cpu", "cpu_self", "root_total", "root_cpu")
    totals = {name: dict.fromkeys(keys, 0.0) | {"calls": 0, "children": 0} for name in names}
    for columns in trace["columns"]:
        for name_id, start, dur, self_time, cpu, cpu_self, parent in zip(
            columns["name"], columns["start"], columns["dur"], columns["self"],
            columns["cpu"], columns["cpu_self"], columns["parent"],
        ):
            if start < t0 or start > t1:
                continue
            entry = totals[names[name_id]]
            entry["calls"] += 1
            entry["total"] += dur
            entry["self"] += self_time
            entry["cpu"] += cpu
            entry["cpu_self"] += cpu_self
            if parent < 0:
                entry["root_total"] += dur
                entry["root_cpu"] += cpu
            else:
                totals[names[parent]]["children"] += 1
    return totals


def _delta(pair, key: str) -> int:
    before, after = pair
    return after.get(key, 0) - before.get(key, 0)


def counter_metrics(result: dict, error_rate: float) -> dict[str, tuple[float, str]]:
    """Layer counts measured from outside the server in every run."""
    status, health = result["status"], result["health"]
    writes = max(1, len(result["writes_ms"]))
    # A pipelined window is one write call but many journaled posts;
    # WAL and policy counts are per journaled post.
    posts = _delta(health, "journal_appends") or writes
    barriers = _delta(health, "journal_barriers")
    return {
        "error_rate": (error_rate, "ratio"),
        "bus.busy_rejections": (_delta(health, "busy_rejections"), "count"),
        "bus.pushes_per_write": (result["pushes_measured"] / writes, "count"),
        "sub.resyncs": (result["resyncs"], "count"),
        "wal.entries_per_sync": (_delta(health, "journal_appends") / barriers if barriers else 0.0, "count"),
        "wal.barriers_per_write": (barriers / posts if barriers else 0.0, "count"),
        "wal.checkpoints": (_delta(health, "checkpoints"), "count"),
        "policy.audits_per_write": (_delta(health, "audit_seq") / posts, "count"),
        "policy.denials": (_delta(health, "policy_denials"), "count"),
        "engine.deliveries_per_write": (_delta(status, "deliveries") / writes, "count"),
        "engine.waves_per_write": (_delta(status, "waves") / writes, "count"),
        "driver.cpu_util": (result["driver_cpu_util"], "ratio"),
        # Sub-millisecond on every workload, so a layer figure rather
        # than a bounded end-to-end one.
        "read_p50_ms": (result["read_p50_ms"], "ms"),
        "host.probe_ms": (statistics.median(result["host_probe_ms"]) if result["host_probe_ms"] else 0.0, "ms"),
    }


def span_metrics(traced: dict, trace: dict, untraced: dict) -> dict[str, tuple[float, str]]:
    """Layer times from the traced run's measured phase."""
    totals = aggregate(trace, traced["t0"], traced["t1"])
    requests = max(1, traced["acked"])
    metrics: dict[str, tuple[float, str]] = {}
    for metric, names in SELF_US.items():
        metrics[metric] = (sum(totals[n]["cpu_self"] for n in names if n in totals) * 1e6 / requests, "us")
    everything = aggregate(trace, float("-inf"), float("inf"))
    for metric, name in CALL_MS.items():
        # Load and recovery happen at set-up, flushes at shutdown:
        # those are averaged over the whole server lifetime.
        source = everything if metric in ("persistence.load_ms", "bus.recover_ms", "store.flush_ms") else totals
        entry = source.get(name, {"calls": 0})
        metrics[metric] = (entry["total"] * 1000.0 / entry["calls"] if entry["calls"] else 0.0, "ms")
    layer_root = sum(
        entry["root_total"] for name, entry in totals.items() if name not in ROOTS
    )
    roots = [totals[name] for name in ROOTS if name in totals]
    # The recorder's own bookkeeping for each span nested in a request
    # root lands in the root's self time; it does not exist untraced.
    tracing = trace["nested_overhead_s"] * sum(entry["children"] for entry in roots)
    served = layer_root + sum(entry["root_total"] for entry in roots) - tracing
    uncovered = sum(entry["self"] for entry in roots) - tracing
    metrics["trace.coverage"] = (1.0 - uncovered / served if served else 0.0, "ratio")
    # The same question asked of CPU: how much of the server process's
    # CPU time over the measured phase do layer spans account for?
    layer_cpu = sum(
        entry["root_cpu"] for name, entry in totals.items() if name not in ROOTS
    ) + sum(totals[name]["root_cpu"] - totals[name]["cpu_self"] for name in ROOTS if name in totals)
    metrics["trace.cpu_coverage"] = (layer_cpu / traced["server_cpu_s"] if traced["server_cpu_s"] else 0.0, "ratio")
    metrics["trace.overhead"] = (untraced["ops_per_s"] / traced["ops_per_s"], "ratio")
    faults = _store_delta(trace, traced["t0"], traced["t1"], "faults")
    evictions = _store_delta(trace, traced["t0"], traced["t1"], "evictions")
    finds = totals.get("db.find", {"calls": 0})["calls"]
    metrics["store.faults"] = (faults, "count")
    metrics["store.evictions"] = (evictions, "count")
    metrics["store.fault_ratio"] = (faults / finds if finds else 0.0, "ratio")
    return metrics


def _store_delta(trace: dict, t0: float, t1: float, key: str) -> int:
    """Change of a lazy-store counter over the measured phase, from the
    snapshots the traced server took at the ``health`` requests that
    open and close it (0 on an eager store)."""

    def at(moment: float) -> int:
        taken = [stores for when, stores in trace.get("store_snapshots", []) if when <= moment]
        return sum(stats.get(key, 0) for stats in taken[-1]) if taken else 0

    return at(t1) - at(t0)
