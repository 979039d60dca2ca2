"""The asyncio project server: multiplexed framing, pipelining,
backpressure.

``benchmarks/test_bench_server.py`` proved the engine is not the
bottleneck — persistent connections alone buy ~10×, which means framing
and scheduling cap throughput.  :class:`AsyncProjectServer` replaces
thread-per-connection with one event loop and two transports on the
same port, classified per connection from its first byte:

* **frames** (:mod:`repro.network.framing`): length-prefixed JSON
  frames with tagged request/response correlation.  One connection
  carries many in-flight requests; responses complete out of order, so
  a pipelined client streams a whole window of ``postEvent`` frames
  without waiting for round trips.
* **lines**: the paper's original dialect, kept as a compat shim — a
  wrapper shell script from 1995 connects to the same port and is none
  the wiser.

**Write path / group commit.**  Every byte of engine work runs on the
loop thread, so the loop thread is the writer section: reads interleave
between waves and nothing ever blocks on a lock.  A write is the bus's
one write path — ``bus.write`` (validate + buffered journal append, then
the gate and the wave, inline) → a *deferred* response parked on the
:class:`_DurabilityGate` under the journal tail the write left.  The
gate runs at most one ``fdatasync`` at a time in an executor thread and
releases every parked response the barrier covered — a pipeline window
of N posts costs one disk barrier, not N, which is where the
journaled-throughput multiple comes from.

Policy-v2 governance rides the same write path: ``policy propose`` /
``approve`` / ``rollback`` are lock-exclusive journaled writes, and
``policy status`` / ``audit`` answer inline from the governed policy.

**Subscriber backpressure.**  The threaded server disconnects a
subscriber whose bounded queue overflows.  Framed subscribers instead
degrade: when a subscriber's send buffer crosses the high-water mark
the server emits a ``PAUSE`` credit frame and starts *coalescing* —
per-OID latest-state deltas accumulate in a map (bounded by the object
count, not the event rate) while the socket drains.  When the client
catches up, the coalesced deltas flush (each marked
``"coalesced": true``), a ``RESUME`` credit frame closes the gap, and
live push resumes.  A slow subscriber is therefore *never*
disconnected and always converges to the true stale set.  Clients can
also send ``PAUSE`` / ``RESUME`` themselves to control their own
stream.  Line-shim subscribers keep close-on-overflow (their dialect
has no credit verbs) but now receive a final ``ERR overloaded`` line
before the close.
"""

from __future__ import annotations

import asyncio
import heapq
import threading
from typing import TYPE_CHECKING, Callable

from repro.core.engine import BlueprintEngine
from repro.network.bus import EventBus
from repro.network.framing import (
    CREDIT_PAUSE,
    CREDIT_RESUME,
    FrameDecoder,
    FramingError,
    encode_frame,
    is_frame_byte,
    request_to_command,
)
from repro.network.protocol import (
    LOCK_EXCLUSIVE,
    OVERLOAD_LINE,
    Command,
    ProtocolError,
    err_response,
    parse_notification,
)

if TYPE_CHECKING:
    from repro.network.wal import WriteAheadLog

#: Line-shim subscribers have no credit verbs, so their send buffer is
#: bounded the blunt way: past this many unread bytes the server writes
#: a final ``ERR overloaded`` line and closes (the threaded server's
#: behaviour, made diagnosable).
LINE_SUBSCRIBER_BUFFER = 64 * 1024

#: Framed subscribers switch to coalescing once this many unread bytes
#: sit in the transport's send buffer (and resume below it).
FRAME_SUBSCRIBER_HIGH_WATER = 64 * 1024

#: Optional SO_SNDBUF applied to subscriber sockets (None = OS default).
#: Tests shrink it so backpressure triggers without megabytes of spam.
SUBSCRIBER_SNDBUF: int | None = None


class _DurabilityGate:
    """Group commit for the event loop: park responses until on-disk.

    A write's journal entry is appended without a barrier, its wave
    runs, and then its response is parked here on the journal tail the
    write left.  One executor thread at a time runs ``wal.sync`` for the
    journal's current tail; every parked response at or below the
    barrier is released in one sweep.  Later writes keep landing while
    the barrier runs — the pile-up is exactly what group commit
    amortises.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, bus: EventBus) -> None:
        self._loop = loop
        self._bus = bus
        self._pending: list[tuple[int, int, str, Callable[[str], None]]] = []
        self._tiebreak = 0
        self._task: asyncio.Task | None = None

    @property
    def depth(self) -> int:
        """Responses parked awaiting a disk barrier (overload gauge)."""
        return len(self._pending)

    def submit(self, seq: int, response: str, send: Callable[[str], None]) -> None:
        wal = self._bus.wal
        if not seq or wal.durable_seq >= seq or wal.broken:
            # Nothing journaled, already covered by an earlier barrier,
            # or the journal is past helping: ensure_durable settles
            # instantly.
            send(self._bus.ensure_durable(seq, response))
            return
        self._tiebreak += 1
        heapq.heappush(self._pending, (seq, self._tiebreak, response, send))
        if self._task is None or self._task.done():
            self._task = self._loop.create_task(self._run())

    async def _run(self) -> None:
        bus = self._bus
        wal = bus.wal
        assert wal is not None
        while self._pending:
            target = wal.last_seq
            try:
                await self._loop.run_in_executor(None, wal.sync, target)
            except Exception:
                # Per-entry accounting below returns the honest ERR via
                # ensure_durable (which re-checks the broken flag).
                pass
            durable, broken = wal.durable_seq, wal.broken
            while self._pending and (broken or self._pending[0][0] <= durable):
                seq, _tie, response, send = heapq.heappop(self._pending)
                # Instant: the entry is either covered or broken.
                send(bus.ensure_durable(seq, response))


class AsyncProjectServer:
    """Lifecycle-compatible drop-in for :class:`ProjectServer`.

    Same constructor knobs, same ``start()/stop()``/context-manager
    surface, same ``.bus``; the transport underneath is an asyncio
    event loop serving frames and/or the line compat shim.

    ``transport`` selects what the port accepts: ``"auto"`` (default)
    classifies each connection from its first byte, ``"frames"`` and
    ``"lines"`` refuse the other dialect.
    """

    def __init__(
        self,
        engine: BlueprintEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        wal: "WriteAheadLog | None" = None,
        busy_limit: int | None = None,
        checkpoint_every: int | None = None,
        checkpointer: Callable[[], bool] | None = None,
        transport: str = "auto",
        policy=None,
    ) -> None:
        if transport not in ("auto", "frames", "lines"):
            raise ValueError(f"unknown transport {transport!r}")
        self.engine = engine
        self.host = host
        self.port = port
        self.transport = transport
        self.bus = EventBus(
            engine,
            wal=wal,
            busy_limit=busy_limit,
            checkpoint_every=checkpoint_every,
            checkpointer=checkpointer,
            policy=policy,
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: asyncio.base_events.Server | None = None
        self._gate: _DurabilityGate | None = None
        self._connections: set[asyncio.StreamWriter] = set()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "AsyncProjectServer":
        if self._thread is not None:
            raise RuntimeError("server already started")
        self.bus.reopen()  # no-op unless a previous stop() closed it
        self._loop = asyncio.new_event_loop()
        self._gate = _DurabilityGate(self._loop, self.bus)

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            self._loop.run_forever()

        self._thread = threading.Thread(
            target=run, name="blueprint-async-server", daemon=True
        )
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(self._open(), self._loop)
        try:
            future.result(timeout=10)
        except Exception:
            self._teardown_loop()
            raise
        return self

    async def _open(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def stop(self) -> None:
        if self._thread is None:
            return
        assert self._loop is not None
        future = asyncio.run_coroutine_threadsafe(self._shutdown(), self._loop)
        try:
            future.result(timeout=10)
        except Exception:
            pass  # shutdown is best-effort; the loop stops regardless
        self._teardown_loop()
        self.bus.close()

    def _teardown_loop(self) -> None:
        assert self._loop is not None
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._loop.close()
        self._loop = None
        self._thread = None
        self._server = None
        self._gate = None

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Abort (not close): a subscriber blocked in recv() must see the
        # shutdown now, not when its send buffer happens to flush.
        for writer in list(self._connections):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        self._connections.clear()

    def __enter__(self) -> "AsyncProjectServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    # -- shared command core -----------------------------------------------

    def _gauges(self) -> dict[str, int]:
        """Async-transport extras for the ``health`` command."""
        return {
            "durability_backlog": self._gate.depth if self._gate else 0,
            "connections": len(self._connections),
        }

    def _execute(
        self, command: Command, send: Callable[[str], None]
    ) -> None:
        """Run *command* and deliver its response through *send*.

        Writes run the bus's write path inline — no await sits between
        admission and apply, so journal order is wave order — and park
        their response on the durability gate; everything else answers
        immediately.  ``subscribe``/``quit``/``health`` are
        transport-specific and handled by the callers.
        """
        if command.kind not in LOCK_EXCLUSIVE:
            send(self.bus.handle_command(command))
            return
        bus = self.bus
        if (
            bus.wal is not None
            and bus.busy_limit is not None
            and self._gate.depth >= bus.busy_limit
        ):
            # The async writer backlog: responses parked on the gate.
            # Shed before admission, so a retry is provably safe.
            send(bus.reject_busy(f"durability backlog {self._gate.depth}"))
            return
        self._gate.submit(*bus.write(command), send)

    # -- connection dispatch -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            try:
                first = await reader.readexactly(1)
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                return
            if is_frame_byte(first[0]):
                if self.transport == "lines":
                    return  # frames refused on a lines-only port
                await _FramedConnection(self, reader, writer).run(first)
            else:
                if self.transport == "frames":
                    writer.write(b"ERR framed transport required\n")
                    return
                await _LineConnection(self, reader, writer).run(first)
        except (ConnectionError, OSError):
            pass  # client reset mid-exchange: end quietly
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
            except Exception:
                pass


class _LineConnection:
    """The compat shim: the threaded server's line dialect, on the loop."""

    def __init__(
        self,
        server: AsyncProjectServer,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._server = server
        self._reader = reader
        self._writer = writer
        self._subscriber = None
        self._overloaded = False

    def _send_line(self, line: str) -> None:
        self._writer.write((line + "\n").encode("utf-8"))

    async def run(self, first: bytes) -> None:
        bus = self._server.bus
        buffer = bytearray(first)
        try:
            while True:
                while (newline := buffer.find(b"\n")) >= 0:
                    raw = buffer[:newline].decode("utf-8", errors="replace")
                    del buffer[: newline + 1]
                    line = raw.strip()
                    if not line:
                        continue
                    if await self._dispatch(line):
                        await _drain_quietly(self._writer)
                        return
                await _drain_quietly(self._writer)
                chunk = await self._reader.read(65536)
                if not chunk:
                    return
                buffer.extend(chunk)
        finally:
            if self._subscriber is not None:
                bus.unsubscribe(self._subscriber)
                self._subscriber = None

    async def _dispatch(self, line: str) -> bool:
        """Handle one line; returns True when the connection should end."""
        server = self._server
        bus = server.bus
        try:
            command = bus.parse_line(line)
        except ProtocolError as exc:
            self._send_line(err_response(str(exc)))
            return False
        if command.kind == "subscribe":
            self._subscribe(command)
            return False
        if command.kind == "health":
            self._send_line(
                bus.handle_command(command, health_extra=server._gauges())
            )
            return False
        done = asyncio.get_running_loop().create_future()
        server._execute(command, lambda response: done.set_result(response))
        # The line dialect is strictly request/response ordered, so a
        # deferred (durability-gated) response blocks this connection's
        # next command — but not the loop: other connections keep going.
        response = await done
        self._send_line(response)
        return response == "BYE"

    def _subscribe(self, command: Command) -> None:
        bus = self._server.bus
        if self._subscriber is None:
            writer = self._writer
            _shrink_sndbuf(writer)

            def subscriber(group: str) -> None:
                # Loop thread, at the end of a write: its whole push
                # group goes out in one write().  write() only buffers;
                # the bound is the transport's unread backlog.
                if self._overloaded:
                    raise BrokenPipeError("subscriber overloaded")
                size = writer.transport.get_write_buffer_size()
                if size > LINE_SUBSCRIBER_BUFFER:
                    # No credit verbs in this dialect: say why, close,
                    # and unsubscribe (the raise drops us from the bus).
                    self._overloaded = True
                    writer.write((OVERLOAD_LINE + "\n").encode("utf-8"))
                    writer.close()
                    raise BrokenPipeError("subscriber overloaded")
                writer.write((group + "\n").encode("utf-8"))

            self._subscriber = subscriber
            self._send_line(bus.handle_command(command, subscriber=subscriber))
        else:
            self._send_line(
                bus.handle_command(command, subscriber=self._subscriber)
            )


class _FramedConnection:
    """One framed connection: tagged multiplexing plus the push stream."""

    def __init__(
        self,
        server: AsyncProjectServer,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._server = server
        self._reader = reader
        self._writer = writer
        self._subscriber: _FramedSubscriber | None = None

    def send_frame(self, payload: dict) -> None:
        self._writer.write(encode_frame(payload))

    def _send_response(self, request_id: object, response: str) -> None:
        self.send_frame({"id": request_id, "response": response})

    async def run(self, first: bytes) -> None:
        bus = self._server.bus
        decoder = FrameDecoder()
        data: bytes = first
        try:
            while True:
                try:
                    frames = decoder.feed(data)
                except FramingError as exc:
                    self.send_frame({"error": str(exc)})
                    return
                for payload in frames:
                    if self._handle(payload):
                        await _drain_quietly(self._writer)
                        return
                # Read backpressure: stop pulling requests while this
                # client is not consuming its responses.
                await _drain_quietly(self._writer)
                data = await self._reader.read(65536)
                if not data:
                    return
        finally:
            if self._subscriber is not None:
                bus.unsubscribe(self._subscriber.offer)
                self._subscriber.closed = True
                self._subscriber = None

    def _handle(self, payload: dict) -> bool:
        """Process one request frame; True ends the connection."""
        server = self._server
        bus = server.bus
        credit = payload.get("credit")
        if credit is not None:
            self._handle_credit(credit)
            return False
        request_id = payload.get("id")
        bus.note_wire_message()
        try:
            command = request_to_command(payload)
        except ProtocolError as exc:
            bus._count("protocol_errors")
            self._send_response(request_id, err_response(str(exc)))
            return False
        if command.kind == "quit":
            self._send_response(request_id, "BYE")
            return True
        if command.kind == "subscribe":
            self._subscribe(request_id, command)
            return False
        if command.kind == "health":
            self._send_response(
                request_id,
                bus.handle_command(command, health_extra=server._gauges()),
            )
            return False
        self._execute_tagged(request_id, command)
        return False

    def _execute_tagged(self, request_id: object, command: Command) -> None:
        # Bind the tag now; the response may be deferred (durability
        # gate) and complete after later requests already answered —
        # that reordering is the multiplexing contract.
        self._server._execute(
            command, lambda response: self._send_response(request_id, response)
        )

    def _subscribe(self, request_id: object, command: Command) -> None:
        if self._subscriber is None:
            _shrink_sndbuf(self._writer)
            self._subscriber = _FramedSubscriber(self)
        response = self._server.bus.handle_command(
            command, subscriber=self._subscriber.offer
        )
        self._send_response(request_id, response)

    def _handle_credit(self, credit: object) -> None:
        subscriber = self._subscriber
        if subscriber is None:
            return
        if credit == CREDIT_PAUSE:
            subscriber.pause_from_client()
        elif credit == CREDIT_RESUME:
            subscriber.resume_from_client()


class _FramedSubscriber:
    """Push stream with credit-based backpressure and coalescing.

    Live transitions stream as ``{"push": "STALE <oid>"}`` frames, one
    per line of each write's push group.  When the client stops keeping
    up (send buffer over the high-water mark, checked once per group)
    or explicitly sends ``PAUSE``, the stream degrades: a ``PAUSE``
    credit frame tells the client pushes are now coalesced, and further
    transitions collapse into a per-OID latest-state map.  Once the
    socket drains (or the client sends ``RESUME``), the map flushes as
    ``"coalesced": true`` deltas bracketed by a ``RESUME`` credit frame.
    The subscriber is never dropped for being slow; its memory cost is
    bounded by the object count, not the event rate.
    """

    def __init__(self, conn: _FramedConnection) -> None:
        self._conn = conn
        self.closed = False
        self._coalescing = False
        self._client_paused = False
        #: OID wire string -> latest verb seen while coalescing.
        self._pending: dict[str, str] = {}
        self._flusher: asyncio.Task | None = None
        self.coalesce_rounds = 0

    # -- bus-facing (called synchronously at the end of a write, on the loop)

    def offer(self, group: str) -> None:
        """Take one write's push group: one push frame per line, or all
        of it into the coalescing map once the client falls behind."""
        if self.closed:
            raise BrokenPipeError("subscriber connection closed")
        if self._coalescing or self._client_paused:
            self._absorb(group)
            return
        writer = self._conn._writer
        if writer.transport.get_write_buffer_size() > FRAME_SUBSCRIBER_HIGH_WATER:
            self._enter_coalescing()
            self._absorb(group)
            return
        for line in group.split("\n"):
            self._conn.send_frame({"push": line})

    def _absorb(self, group: str) -> None:
        for line in group.split("\n"):
            verb, oid = parse_notification(line)
            self._pending[oid.wire()] = verb

    def _enter_coalescing(self) -> None:
        self._coalescing = True
        self.coalesce_rounds += 1
        self._conn.send_frame({"credit": CREDIT_PAUSE})
        if self._flusher is None or self._flusher.done():
            self._flusher = asyncio.get_running_loop().create_task(self._flush())

    # -- client credit -----------------------------------------------------

    def pause_from_client(self) -> None:
        if not self._client_paused:
            self._client_paused = True

    def resume_from_client(self) -> None:
        if not self._client_paused:
            return
        self._client_paused = False
        if self._coalescing:
            # The flusher parked itself while the client was paused;
            # restart it so the coalesced backlog actually replays.
            if self._flusher is None or self._flusher.done():
                self._flusher = asyncio.get_running_loop().create_task(
                    self._flush()
                )
        else:
            self._enter_coalescing()  # flush whatever accumulated

    # -- catch-up ----------------------------------------------------------

    async def _flush(self) -> None:
        """Wait for the socket to drain, then replay coalesced deltas."""
        writer = self._conn._writer
        try:
            while not self.closed:
                await writer.drain()
                if self._client_paused:
                    return  # client asked for silence; RESUME restarts us
                if not self._pending:
                    break
                oid, verb = next(iter(self._pending.items()))
                del self._pending[oid]
                self._conn.send_frame(
                    {"push": f"{verb} {oid}", "coalesced": True}
                )
            if not self.closed:
                self._conn.send_frame({"credit": CREDIT_RESUME})
                self._coalescing = False
        except (ConnectionError, OSError):
            self.closed = True


def _shrink_sndbuf(writer: asyncio.StreamWriter) -> None:
    """Apply the test-only SUBSCRIBER_SNDBUF override, if armed."""
    if SUBSCRIBER_SNDBUF is None:
        return
    import socket as socket_module

    sock = writer.get_extra_info("socket")
    if sock is not None:
        sock.setsockopt(
            socket_module.SOL_SOCKET, socket_module.SO_SNDBUF, SUBSCRIBER_SNDBUF
        )


async def _drain_quietly(writer: asyncio.StreamWriter) -> None:
    try:
        await writer.drain()
    except (ConnectionError, OSError):
        pass
