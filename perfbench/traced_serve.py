"""Run ``damocles serve`` with span recorders around each layer.

Usage: ``python traced_serve.py SPANS_FILE serve DB FLOW.bp [serve options]``

Before calling ``repro.cli.main(["serve", ...])`` this launcher wraps the
layers' public entry points (and, as request roots, the transports'
per-request dispatch) with span recorders.  Spans are kept in memory,
per thread, as flat arrays -- name, start, wall duration and self time,
thread CPU time and CPU self time, and the name of the enclosing span
(-1 for none) -- and written out when the server exits: a JSON header at
SPANS_FILE and the arrays at SPANS_FILE + ".bin".  Self time is a span's
duration minus the time of the spans nested in it.  CPU time is the
calling thread's own (``time.thread_time``), so a span that waits for
the interpreter lock or the disk costs wall time but no CPU time.
No file of the program itself is changed.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from array import array

#: (module, attribute path, span name).  Functions are also rebound in
#: every ``repro`` module that imported them by name.
TRACED = (
    ("repro.network.protocol", "parse_command", "protocol.parse"),
    ("repro.network.bus", "EventBus.parse_line", "protocol.parse"),
    ("repro.network.protocol", "format_query_response", "protocol.format"),
    ("repro.network.protocol", "format_stale_response", "protocol.format"),
    ("repro.network.protocol", "format_pending_response", "protocol.format"),
    ("repro.network.protocol", "format_status_response", "protocol.format"),
    ("repro.network.framing", "FrameDecoder.feed", "framing.decode"),
    ("repro.network.framing", "encode_frame", "framing.encode"),
    ("repro.network.framing", "request_to_command", "framing.decode"),
    # Socket writes of responses and pushes, on each transport.
    ("repro.network.server", "_Handler._send", "transport.send"),
    ("repro.network.async_server", "_FramedConnection.send_frame", "transport.send"),
    ("repro.network.async_server", "_LineConnection._send_line", "transport.send"),
    ("repro.network.server", "ReadWriteLock.acquire_read", "server.lock"),
    ("repro.network.server", "ReadWriteLock.acquire_write", "server.lock"),
    ("repro.network.server", "ReadWriteLock.release_read", "server.lock"),
    ("repro.network.server", "ReadWriteLock.release_write", "server.lock"),
    ("repro.network.bus", "EventBus.admit_durable", "bus.admit"),
    ("repro.network.bus", "EventBus.apply_admitted", "bus.apply"),
    ("repro.network.bus", "EventBus.handle_command", "bus.handle"),
    ("repro.network.bus", "EventBus.publish", "bus.publish"),
    ("repro.network.bus", "EventBus.recover", "bus.recover"),
    ("repro.network.bus", "EventBus.run_checkpoint", "wal.checkpoint"),
    ("repro.network.wal", "WriteAheadLog.append_event", "wal.append"),
    ("repro.network.wal", "WriteAheadLog.append_batch", "wal.append"),
    ("repro.network.wal", "WriteAheadLog.append_policy", "wal.append"),
    ("repro.network.wal", "WriteAheadLog.append_audit", "wal.append"),
    ("repro.network.wal", "WriteAheadLog.sync", "wal.sync"),
    ("repro.core.policy", "GovernedPolicy.evaluate", "policy.evaluate"),
    ("repro.core.policy", "GovernedPolicy.audit_event", "policy.audit"),
    ("repro.core.engine", "BlueprintEngine.post_message", "engine.post"),
    ("repro.core.engine", "BlueprintEngine.run", "engine.wave"),
    ("repro.metadb.indexes", "IndexRegistry.property_changed", "indexes.property_changed"),
    ("repro.metadb.database", "MetaDatabase.find", "db.find"),
    ("repro.metadb.database", "MetaDatabase.neighbours", "db.neighbours"),
    ("repro.metadb.database", "MetaDatabase.stale_set", "db.stale_set"),
    ("repro.metadb.store", "LazySqliteStore.flush", "store.flush"),
    ("repro.core.state", "pending_work", "state.pending"),
    ("repro.metadb.persistence", "load_database", "persistence.load"),
    ("repro.metadb.persistence", "save_database", "persistence.save"),
    # Request roots: everything between reading a request off the
    # socket and handing its response back, on each transport.
    ("repro.network.server", "_Handler._dispatch", "server.dispatch"),
    ("repro.network.async_server", "_FramedConnection._handle", "server.dispatch"),
    ("repro.network.async_server", "_FramedConnection._send_response", "server.respond"),
)


#: Per-span columns and their array type codes, in file order.
COLUMNS = (
    ("name", "i"),
    ("start", "d"),
    ("dur", "d"),
    ("self", "d"),
    ("cpu", "d"),
    ("cpu_self", "d"),
    ("parent", "i"),
)


class Recorder:
    """Per-thread span arrays; nothing is shared on the hot path."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.threads: list[dict] = []
        self.store_snapshots: list[tuple[float, list[dict]]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _buffers(self) -> dict:
        buffers = getattr(self._local, "buffers", None)
        if buffers is None:
            buffers = {key: array(code) for key, code in COLUMNS}
            buffers["stack"] = []
            self._local.buffers = buffers
            with self._lock:
                self.threads.append(buffers)
        return buffers

    def wrap(self, func, name_id: int):
        clock, cpu_clock = time.perf_counter, time.thread_time
        recorder = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            buffers = recorder._buffers()
            stack = buffers["stack"]
            parent = stack[-1][2] if stack else -1
            frame = [0.0, 0.0, name_id]  # wall and CPU time of nested spans
            stack.append(frame)
            start, cpu_start = clock(), cpu_clock()
            try:
                return func(*args, **kwargs)
            finally:
                duration, cpu = clock() - start, cpu_clock() - cpu_start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                    stack[-1][1] += cpu
                buffers["name"].append(name_id)
                buffers["start"].append(start)
                buffers["dur"].append(duration)
                buffers["self"].append(duration - frame[0])
                buffers["cpu"].append(cpu)
                buffers["cpu_self"].append(cpu - frame[1])
                buffers["parent"].append(parent)

        traced.__traced__ = True
        return traced

    def write(self, path: str, extra: dict) -> None:
        counts = []
        with open(path + ".bin", "wb") as handle:
            for buffers in self.threads:
                counts.append(len(buffers["name"]))
                for key, _code in COLUMNS:
                    buffers[key].tofile(handle)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "threads": counts, **extra}, handle)


def install(recorder: Recorder) -> list:
    """Wrap every entry point in :data:`TRACED` and snapshot the lazy
    stores' counters on each ``health`` request; returns the stores."""
    import importlib

    stores: list = []
    replaced: dict[int, object] = {}
    for module_name, path, span in TRACED:
        module = importlib.import_module(module_name)
        owner = module
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        original = getattr(owner, parts[-1])
        wrapped = recorder.wrap(original, recorder.name_id(span))
        setattr(owner, parts[-1], wrapped)
        if owner is module:
            replaced[id(original)] = wrapped
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in replaced and not getattr(value, "__traced__", False):
                setattr(module, attr, replaced[id(value)])

    from repro.metadb.store import LazySqliteStore
    from repro.network.bus import EventBus

    original_init = LazySqliteStore.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        stores.append(self)

    LazySqliteStore.__init__ = init

    # The client asks for ``health`` just before and just after the
    # measured phase; a snapshot of the lazy stores' counters at each
    # lets the analysis report faults and evictions of that phase alone.
    handle_command = EventBus.handle_command

    def handle(self, command, *args, **kwargs):
        if command.kind == "health" and stores:
            recorder.store_snapshots.append(
                (time.perf_counter(), [store.stats() for store in stores])
            )
        return handle_command(self, command, *args, **kwargs)

    EventBus.handle_command = handle
    return stores


def nested_overhead(calls: int = 2000) -> float:
    """Seconds a traced child call adds to its parent's self time beyond
    the child's own recorded duration: the recorder's bookkeeping.  The
    analysis subtracts it so that tracing cost is not reported as time
    no layer accounts for."""
    recorder = Recorder()
    child = recorder.wrap(lambda: None, recorder.name_id("child"))

    def parent(inner) -> None:
        for _ in range(calls):
            inner()

    traced_parent = recorder.wrap(parent, recorder.name_id("parent"))
    results = []
    for inner in (lambda: None, child) * 3:
        traced_parent(inner)
        results.append(recorder._buffers()["self"][-1])
    bare, traced = min(results[0::2]), min(results[1::2])
    return max(0.0, (traced - bare) / calls)


def main(argv: list[str]) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    import repro.cli
    import repro.network.async_server  # noqa: F401 -- imported for wrapping
    import repro.network.server  # noqa: F401
    import repro.metadb.store  # noqa: F401

    overhead = nested_overhead()
    recorder = Recorder()
    stores = install(recorder)
    code = 1
    try:
        code = repro.cli.main(serve_args)
    finally:
        recorder.write(
            spans_path,
            {
                "store_snapshots": recorder.store_snapshots,
                "nested_overhead_s": overhead,
                "exit_code": code,
            },
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
