"""The DAMOCLES project server: a TCP front end for the BluePrint.

Figure 1 shows design events flowing from the design environment over the
network into the project server's message queue.  This server accepts the
line dialect of :mod:`repro.network.protocol` on localhost TCP, feeds an
:class:`~repro.network.bus.EventBus`, and applies a reader-writer lock
discipline per command kind:

* ``postEvent`` / ``batch`` acquire the exclusive writer lock, so engine
  work stays serialised and "events are processed sequentially,
  first-in first-out" as the paper requires.  Inside it the bus admits
  (journals) and applies the write in one step, so journal order is wave
  order; the fsync barrier comes after the lock is released, where
  concurrent writers share it (group commit);
* ``pending`` (a lineage scan) acquires the shared reader lock: any
  number of them run together, but never during a wave;
* ``query``, ``stale``, ``status`` and ``ping`` answer from GIL-atomic
  snapshots (one dict copy, the bus's stale-set mirror, plain counters)
  and take **no lock at all** — a designer's query completes even while
  a long wave is still running.

Policy-v2 governance commands ride the same discipline: ``policy
propose`` / ``policy approve`` / ``policy rollback`` are lock-exclusive
writes on the same write path as events, while ``policy status`` and
``audit`` answer lock-free from the bus's governed policy.

``subscribe`` flips a connection into push mode.  Pushes leave at the
end of each write: the bus hands every subscriber one group per write —
that write's ``STALE <oid>`` / ``FRESH <oid>`` lines in wave order —
from inside the writer section, so push order is wave order.  The
connection queues one entry per group, and its pump thread sends
whatever has queued in one socket write.  Groups originate on whichever
handler thread runs the wave, so each connection guards its socket with
a write mutex to keep push lines and command responses from
interleaving.
"""

from __future__ import annotations

import queue
import socket
import socketserver
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.engine import BlueprintEngine
from repro.network.bus import EventBus
from repro.network.protocol import (
    LOCK_EXCLUSIVE,
    LOCK_SHARED,
    OVERLOAD_LINE,
    ProtocolError,
    err_response,
)

if TYPE_CHECKING:
    from repro.core.policy import GovernedPolicy
    from repro.network.wal import WriteAheadLog


class ReadWriteLock:
    """A writer-preferring reader-writer lock with FIFO writers.

    Readers share; a writer excludes everyone.  Waiting writers block
    new readers (no writer starvation), and each writer draws a ticket
    on arrival and runs only when its ticket is served — a writer that
    arrives later can never barge past one already waiting, so posts
    from many clients enter the engine queue in arrival order.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._next_ticket = 0
        self._serving = 0
        # Contention gauges for the ``health`` command.  Plain ints
        # mutated under the condition lock, read lock-free (GIL-atomic).
        self.read_waits = 0
        self.write_waits = 0

    @property
    def waiting_writers(self) -> int:
        """Writers ticketed but not yet served — the real write backlog."""
        return max(0, self._next_ticket - self._serving - (1 if self._writer else 0))

    def stats(self) -> dict[str, int]:
        return {
            "lock_read_waits": self.read_waits,
            "lock_write_waits": self.write_waits,
            "waiting_writers": self.waiting_writers,
        }

    def acquire_read(self) -> None:
        with self._cond:
            # _next_ticket > _serving means a writer is waiting or active.
            if self._writer or self._next_ticket > self._serving:
                self.read_waits += 1
            while self._writer or self._next_ticket > self._serving:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            ticket = self._next_ticket
            self._next_ticket += 1
            if self._writer or self._readers or ticket != self._serving:
                self.write_waits += 1
            while self._writer or self._readers or ticket != self._serving:
                self._cond.wait()
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._serving += 1
            self._cond.notify_all()

    # context-manager views ------------------------------------------------

    class _Guard:
        def __init__(self, acquire, release) -> None:
            self._acquire = acquire
            self._release = release

        def __enter__(self) -> None:
            self._acquire()

        def __exit__(self, *exc_info: object) -> None:
            self._release()

    def reading(self) -> "ReadWriteLock._Guard":
        return self._Guard(self.acquire_read, self.release_read)

    def writing(self) -> "ReadWriteLock._Guard":
        return self._Guard(self.acquire_write, self.release_write)


#: Per-subscriber notification buffer, in writes (one push group each,
#: so at worst this many writes' lines): a consumer further behind than
#: this is dropped rather than allowed to block the publishing wave.
#: The dropped subscriber gets :data:`~repro.network.protocol.OVERLOAD_LINE`
#: as its final line before the close.
SUBSCRIBER_QUEUE_DEPTH = 256


class _Handler(socketserver.StreamRequestHandler):
    def setup(self) -> None:
        super().setup()
        server: "_TCPServer" = self.server  # type: ignore[assignment]
        with server.active_lock:
            server.active_connections.add(self.connection)
        # Push notifications arrive from other threads (whichever handler
        # runs the wave); responses come from this one.  One mutex per
        # connection keeps the two line streams from interleaving.
        self._send_lock = threading.Lock()
        self._subscriber = None
        self._notify_queue: "queue.Queue[str | None] | None" = None
        self._notify_thread: threading.Thread | None = None

    def _send(self, line: str) -> None:
        with self._send_lock:
            self.wfile.write((line + "\n").encode("utf-8"))

    def handle(self) -> None:
        server: "_TCPServer" = self.server  # type: ignore[assignment]
        while True:
            try:
                raw = self.rfile.readline()
                if not raw:
                    return
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                response = self._dispatch(server, line)
                if response is None:  # subscribe acked inline
                    continue
                self._send(response)
            except OSError:
                # The client reset or vanished mid-exchange: end this
                # connection quietly instead of a traceback per socket.
                return
            if response == "BYE":
                return

    def _dispatch(self, server: "_TCPServer", line: str) -> str | None:
        bus = server.bus
        try:
            command = bus.parse_line(line)
        except ProtocolError as exc:
            return err_response(str(exc))
        if command.kind == "health":
            # Lock-free on purpose: health must answer even when every
            # writer slot is wedged — that is exactly when it matters.
            return bus.handle_command(command, health_extra=server.rwlock.stats())
        if command.kind in LOCK_EXCLUSIVE:
            if (
                bus.busy_limit is not None
                and server.rwlock.waiting_writers >= bus.busy_limit
            ):
                # Writer backlog bound: shed load before ticketing another
                # writer, so the queue of blocked handler threads (and the
                # memory of their pending events) stays bounded.
                return bus.reject_busy(
                    f"writer backlog {server.rwlock.waiting_writers}"
                )
            # Admit and apply in this writer's turn, so journal order is
            # wave order; wait on the disk barrier only after releasing
            # the lock, where every handler that reaches it since the
            # previous barrier shares one fsync (group commit).  The
            # client sees OK only after its entry is durable.
            with server.rwlock.writing():
                seq, response = bus.write(command)
            return bus.ensure_durable(seq, response)
        if command.kind in ("query", "pending") and bus.engine.db.lazy:
            # On a demand-faulting database, reads are not read-only:
            # resolving an OID or scanning lineages faults shards in
            # (and may evict others), mutating the shared index
            # registry.  Those commands degrade to the exclusive lock;
            # `stale`/`status`/`ping` stay lock-free (wire mirror and
            # GIL-atomic counters).
            with server.rwlock.writing():
                return bus.handle_command(command)
        if command.kind in LOCK_SHARED:
            with server.rwlock.reading():
                return bus.handle_command(command)
        if command.kind == "subscribe":
            return self._subscribe(server, command)
        return bus.handle_command(command)

    def _subscribe(self, server: "_TCPServer", command) -> None:
        """Register this connection for push lines and ack it.

        Notifications are decoupled from the publishing wave through a
        bounded queue drained by a pump thread: a subscriber that stops
        reading fills its queue and is dropped, instead of its full TCP
        buffer blocking the wave (which would hold the writer lock and
        wedge every client).  Registration and the ack share the send
        mutex, so no notification can reach the socket before the ack.
        """
        if self._subscriber is None:
            self._notify_queue = queue.Queue(maxsize=SUBSCRIBER_QUEUE_DEPTH)

            def pump() -> None:
                notify = self._notify_queue
                while True:
                    # Everything queued so far leaves in one send.  None
                    # (the connection finished) and the overload
                    # diagnostic both end the stream.
                    groups: list[str] = []
                    group = notify.get()
                    while group is not None:
                        groups.append(group)
                        if group == OVERLOAD_LINE:
                            break
                        try:
                            group = notify.get_nowait()
                        except queue.Empty:
                            break
                    if groups:
                        try:
                            self._send("\n".join(groups))
                        except OSError:
                            return
                    if group is None:
                        return
                    if group == OVERLOAD_LINE:
                        # The diagnostic was the stream's last line; now
                        # the EOF the overflow used to deliver silently.
                        try:
                            self.connection.shutdown(socket.SHUT_RDWR)
                        except OSError:
                            pass
                        return

            self._notify_thread = threading.Thread(
                target=pump, name="blueprint-notify", daemon=True
            )
            # Start before the ack write: if that write fails (client
            # reset the connection), finish() can still join() a thread
            # that was actually started.  The pump shares the send lock,
            # so no notification can beat the ack onto the socket.
            self._notify_thread.start()

            def subscriber(group: str) -> None:
                try:
                    self._notify_queue.put_nowait(group)
                except queue.Full:
                    # Overflow: drop the oldest queued group to make room
                    # for a final ``ERR overloaded``, delivered in-order
                    # by the pump (which then closes the socket).  The
                    # re-raise unsubscribes us, so this fires once.
                    try:
                        self._notify_queue.get_nowait()
                    except queue.Empty:
                        pass
                    try:
                        self._notify_queue.put_nowait(OVERLOAD_LINE)
                    except queue.Full:
                        pass
                    raise

            self._subscriber = subscriber
            with self._send_lock:
                response = server.bus.handle_command(
                    command, subscriber=self._subscriber
                )
                self.wfile.write((response + "\n").encode("utf-8"))
        else:
            self._send(server.bus.handle_command(command, subscriber=self._subscriber))
        return None

    def finish(self) -> None:
        server: "_TCPServer" = self.server  # type: ignore[assignment]
        with server.active_lock:
            server.active_connections.discard(self.connection)
        if self._subscriber is not None:
            server.bus.unsubscribe(self._subscriber)
            self._subscriber = None
        if self._notify_queue is not None:
            try:
                self._notify_queue.put_nowait(None)
            except queue.Full:
                pass  # pump is wedged on a dead socket; it is a daemon
            if self._notify_thread is not None:
                self._notify_thread.join(timeout=2)
        super().finish()


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], bus: EventBus) -> None:
        super().__init__(address, _Handler)
        self.bus = bus
        self.rwlock = ReadWriteLock()
        # Live connections, so stop() can shut them down and give every
        # client (especially subscribers mid-read) a deterministic EOF
        # instead of a socket that lingers until its daemon thread dies.
        self.active_lock = threading.Lock()
        self.active_connections: set[socket.socket] = set()

    def close_active_connections(self) -> None:
        with self.active_lock:
            connections = list(self.active_connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


@dataclass
class ProjectServer:
    """Lifecycle wrapper: start/stop a threaded project server.

    Usage::

        server = ProjectServer(engine).start()
        ... clients connect to ("127.0.0.1", server.port) ...
        server.stop()
    """

    engine: BlueprintEngine
    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port
    #: Durability/backpressure knobs, forwarded to the bus (see
    #: :class:`~repro.network.bus.EventBus` for semantics).
    wal: "WriteAheadLog | None" = None
    busy_limit: int | None = None
    checkpoint_every: int | None = None
    checkpointer: "Callable[[], bool] | None" = None
    #: Pre-built governed policy (e.g. loaded from ``--policy FILE`` or
    #: restored from a checkpoint sidecar); None builds a fresh one.
    policy: "GovernedPolicy | None" = None

    def __post_init__(self) -> None:
        self._server: _TCPServer | None = None
        self._thread: threading.Thread | None = None
        self.bus = EventBus(
            self.engine,
            wal=self.wal,
            busy_limit=self.busy_limit,
            checkpoint_every=self.checkpoint_every,
            checkpointer=self.checkpointer,
            policy=self.policy,
        )

    @property
    def rwlock(self) -> ReadWriteLock | None:
        """The running server's reader-writer lock (None when stopped)."""
        return self._server.rwlock if self._server is not None else None

    def start(self) -> "ProjectServer":
        if self._server is not None:
            raise RuntimeError("server already started")
        self.bus.reopen()  # no-op unless a previous stop() closed it
        self._server = _TCPServer((self.host, self.port), self.bus)
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="blueprint-server", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        # Give every connected client a clean EOF; without this a
        # subscriber blocked in recv() would never learn the server died
        # (its handler thread is a daemon and simply lingers).
        self._server.close_active_connections()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._server = None
        self._thread = None
        self.bus.close()

    def __enter__(self) -> "ProjectServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)


def wait_for_port(host: str, port: int, timeout: float = 5.0) -> bool:
    """Poll until a TCP port accepts connections (test helper)."""
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with socket.create_connection((host, port), timeout=0.2):
                return True
        except OSError:
            time.sleep(0.02)
    return False
