"""Client side of the project-server protocol.

:class:`BlueprintClient` is what wrapper programs embed; ``postEvent`` is
the command-line spelling the paper's shell wrappers call::

    postEvent ckin up reg,verilog,4 "logic sim passed"

Beyond one-shot posts and queries, the client speaks the v2 dialect:
``stale()`` / ``pending()`` / ``status()`` / ``health()`` read the
server's incremental state, ``post_batch()`` ships several events as one
atomic FIFO window, and ``subscribe()`` opens a persistent connection
that yields ``STALE`` / ``FRESH`` push notifications for the objects
each write re-buckets.

Every command method builds a :class:`~repro.network.protocol.Command`
and hands it to one connection core; the command table
(:data:`~repro.network.protocol.COMMANDS`) supplies its wire rendering,
whether it may be retried, and the parser of its ``OK`` body.  The core
takes the dialect from ``transport``: ``"lines"`` (the default, the
paper's line dialect) or ``"frames"`` (the length-prefixed dialect of
:mod:`repro.network.framing`, whose responses carry the same
``OK``/``ERR`` bodies).  A one-shot call opens a connection, exchanges
and closes; a persistent client reuses its pinned connection.

Self-healing (the resilience layer that pairs with the server's
write-ahead journal):

* connect and read timeouts are separate knobs, so a hung server is
  distinguishable from a slow one;
* with a :class:`RetryPolicy`, commands the table marks retryable
  (``query`` / ``stale`` / ``pending`` / ``status`` / ``health`` /
  ``ping`` / ``policy status`` / ``audit``) retry transport failures
  with bounded exponential backoff plus jitter;
* ``ERR busy`` (the server's explicit backpressure rejection) is retried
  for **every** command, posts included — a busy rejection guarantees
  the event was not admitted, so resending cannot double-apply it;
* a persistent client whose pinned connection died *between* calls
  (server restarted) transparently reconnects once and resends — the
  stale-socket rule, applied regardless of idempotency, because the
  previous call completed and nothing of this one was answered;
* a subscription opened with ``auto_resync=True`` survives server
  bounces and slow-subscriber kicks: on EOF it reconnects (with
  backoff), pulls the server's ``stale`` snapshot, and synthesises the
  ``STALE`` / ``FRESH`` notifications that bring its tracked view — and
  therefore any mirror built from it — back in step.

What is *never* retried: a ``postEvent`` / ``batch`` / policy write that
failed after reaching a live server (other than ``ERR busy``) — the
client cannot know whether it ran, and the journal may have made it
durable.  See ARCHITECTURE.md's retry matrix.

On the frames transport the connection multiplexes:
:meth:`BlueprintClient.post_many` keeps a window of posts in flight so a
burst pays one round trip per *window* instead of one per event, and a
framed subscription is never kicked for being slow — the server
coalesces its backlog instead (:class:`Notification.coalesced` marks
catch-up deltas).
"""

from __future__ import annotations

import itertools
import os
import random
import socket
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, TypeVar

from repro.core.events import EventMessage
from repro.metadb.links import Direction
from repro.metadb.oid import OID
from repro.network.framing import (
    CREDIT_PAUSE,
    CREDIT_RESUME,
    FrameChannel,
    FramingError,
    LineChannel,
    command_to_request,
)
from repro.network.protocol import (
    COMMANDS,
    OVERLOAD_LINE,
    Command,
    ProtocolError,
    format_command,
    parse_busy,
    parse_command,
    parse_notification,
)

Channel = LineChannel | FrameChannel
T = TypeVar("T")


class ClientError(RuntimeError):
    """A transport failure or an ERR response from the server."""


class TransportError(ClientError):
    """The request may or may not have reached the server (socket-level).

    Retryable for idempotent commands; never auto-retried for posts
    except under the stale-pinned-socket rule.
    """


class BusyError(ClientError):
    """The server shed load before admitting the request.

    Always safe to retry — busy rejections happen before journaling and
    queueing, so the event provably did not run.
    """

    def __init__(self, response: str, retry_after: float) -> None:
        super().__init__(response)
        self.retry_after = retry_after


class SubscriptionClosed(ClientError):
    """The push stream ended (server restart or slow-subscriber kick)."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with jitter.

    ``attempts`` counts total tries (1 = no retry).  Delay before retry
    *n* (0-based) is ``base_delay * 2**n`` capped at ``max_delay``, then
    spread by ``jitter`` (a fraction: 0.25 means ±25%) so a fleet of
    wrapper scripts bounced by one server restart does not reconnect in
    lockstep.
    """

    attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.25
    retry_busy: bool = True

    def delay(self, attempt: int) -> float:
        base = min(self.max_delay, self.base_delay * (2**attempt))
        if not self.jitter:
            return base
        spread = base * self.jitter
        return max(0.0, base + random.uniform(-spread, spread))


@dataclass(frozen=True)
class Notification:
    """One push line from a subscribed connection.

    ``coalesced`` is True for catch-up deltas: the framed server's
    backpressure replay (latest state per OID, intermediate flaps
    elided) and a subscription's own resync synthetics.  A live
    transition always has ``coalesced=False``.
    """

    verb: str  # "STALE" | "FRESH"
    oid: OID
    coalesced: bool = False

    @property
    def is_stale(self) -> bool:
        return self.verb == "STALE"


class Subscription:
    """A persistent subscribed connection yielding push notifications.

    Iterate it (blocks until the server pushes or closes), or poll with
    :meth:`next` under a timeout.  Use as a context manager so the
    socket is released deterministically::

        with client.subscribe() as sub:
            note = sub.next(timeout=5.0)

    The channel's dialect decides how the stream ends badly.  The line
    server drops a subscriber that falls too far behind, announcing it
    with :data:`~repro.network.protocol.OVERLOAD_LINE`.  The framed
    server never does: it sends a ``PAUSE`` credit (visible as
    :attr:`paused`), collapses the backlog to one latest-state delta per
    OID, replays them with ``coalesced=True`` once the socket drains,
    and ends with ``RESUME``.  :meth:`pause` / :meth:`resume` send the
    same credits client-side (frames only).

    With *resubscribe* / *resync* callables attached (see
    ``BlueprintClient.subscribe(auto_resync=True)``), an EOF or an
    overload kick triggers reconnect-and-reconcile instead of an error:
    the subscription tracks the set of OIDs it has reported stale
    (``view``), fetches the server's stale snapshot after reconnecting,
    and emits synthetic notifications for the difference — so a
    digital-twin mirror driven by this stream converges to the true
    state even across a gap.
    """

    def __init__(
        self,
        channel: Channel,
        *,
        resubscribe: Callable[[], Channel] | None = None,
        resync: Callable[[], list[OID]] | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self._channel = channel
        self._closed = False
        self._resubscribe = resubscribe
        self._resync = resync
        self._retry = retry or RetryPolicy(attempts=8)
        self.view: set[OID] = set()
        self._synthetic: deque[Notification] = deque()
        self.resyncs = 0
        #: True between the server's PAUSE and RESUME credits: pushes
        #: arriving now are coalesced replay, not the live stream.
        self.paused = False

    def next(self, timeout: float | None = None) -> Notification:
        """Block until the next notification.

        Raises :class:`ClientError` on timeout; :class:`SubscriptionClosed`
        when the stream ends, unless resubscribe-with-resync is attached,
        in which case the gap is healed transparently (synthetic
        notifications first).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._synthetic:
                return self._track(self._synthetic.popleft())
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            try:
                note = self._push(self._channel.recv(remaining))
            except socket.timeout:
                raise ClientError("no notification: timed out") from None
            except (OSError, FramingError) as exc:
                if self._resubscribe is None or self._closed:
                    raise SubscriptionClosed(f"push stream ended: {exc}") from exc
                self._recover()
                continue
            if note is not None:
                return self._track(note)

    def _push(self, message: str | dict) -> Notification | None:
        """Decode one stream message: a line, or a frame whose credits
        update :attr:`paused`.  None for messages that carry no push."""
        if isinstance(message, str):
            if message == OVERLOAD_LINE:
                # The line server's slow-subscriber kick, announced
                # before the close: the stream ends here, recoverably
                # (resync heals the dropped notifications).
                raise ConnectionResetError(message)
            line, coalesced = message, False
        else:
            credit = message.get("credit")
            if credit is not None:
                self.paused = credit == CREDIT_PAUSE
                return None
            line, coalesced = message.get("push"), bool(message.get("coalesced"))
            if line is None:
                return None  # a stray response frame on a dedicated socket
        try:
            verb, oid = parse_notification(line)
        except ProtocolError as exc:
            raise ClientError(str(exc)) from exc
        return Notification(verb, oid, coalesced)

    def _track(self, note: Notification) -> Notification:
        if note.is_stale:
            self.view.add(note.oid)
        else:
            self.view.discard(note.oid)
        return note

    def pause(self) -> None:
        """Ask the server to coalesce this stream until :meth:`resume`."""
        self._credit(CREDIT_PAUSE)

    def resume(self) -> None:
        """Lift a client-requested pause; the coalesced backlog replays."""
        self._credit(CREDIT_RESUME)

    def _credit(self, verb: str) -> None:
        if not isinstance(self._channel, FrameChannel):
            raise ClientError("credits need the frames transport")
        self._channel.send({"credit": verb})

    def _recover(self) -> None:
        """Reconnect (with backoff) and reconcile the tracked view."""
        self._channel.close()
        self.paused = False
        attempt = 0
        while True:
            try:
                self._channel = self._resubscribe()
                break
            except ClientError:
                attempt += 1
                if attempt >= self._retry.attempts:
                    raise SubscriptionClosed(
                        f"resubscribe failed after {attempt} attempts"
                    ) from None
                time.sleep(self._retry.delay(attempt - 1))
        self.resyncs += 1
        if self._resync is None:
            return
        snapshot = set(self._resync())
        # Everything that went stale during the gap (or whose STALE we
        # lost) first, then everything that went fresh; inside each
        # group, deterministic OID order.
        for oid in sorted(snapshot - self.view, key=OID.sort_key):
            self._synthetic.append(Notification("STALE", oid, True))
        for oid in sorted(self.view - snapshot, key=OID.sort_key):
            self._synthetic.append(Notification("FRESH", oid, True))

    def __iter__(self) -> Iterator[Notification]:
        while True:
            try:
                yield self.next(timeout=None)
            except ClientError:
                return

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._channel.close()

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _answer(message: str | dict, request_id: int) -> str | None:
    """The response line *message* carries for *request_id*, or None
    (a push, a credit, another request's response)."""
    if isinstance(message, str):
        return message
    if "error" in message:
        # The server found our stream unrecoverable and is closing;
        # not a transport flake, so not retryable.
        raise ClientError(f"server: {message['error']}")
    if message.get("id") == request_id and "response" in message:
        return str(message["response"])
    return None


def _ask(channel: Channel, message: str | dict, request_id: int) -> str:
    """Send one rendered request and wait for its response line."""
    channel.send(message)
    while (response := _answer(channel.recv(), request_id)) is None:
        pass
    if not response:
        raise OSError("empty response from project server")
    return response


@dataclass
class BlueprintClient:
    """A small project-server client.

    By default every call opens a one-shot connection: wrapper scripts
    stay trivial (no connection state to manage) at a negligible cost
    for occasional posts.  High-rate callers (dashboards, batch
    drivers) pass ``persistent=True`` to pin one connection across
    calls — connection setup dominates wire latency under concurrency,
    so this is roughly an order of magnitude more events/sec.  A
    persistent client is not thread-safe; give each thread its own.
    ``subscribe()`` always hands back its own dedicated connection.

    ``timeout`` is the legacy single knob; ``connect_timeout`` /
    ``read_timeout`` override it separately.  Pass ``retry`` to opt
    into self-healing (see the module docstring for exactly what is
    and is not retried).
    """

    host: str = "127.0.0.1"
    port: int = 7865
    timeout: float = 5.0
    persistent: bool = False
    connect_timeout: float | None = None
    read_timeout: float | None = None
    retry: RetryPolicy | None = None
    #: ``"lines"`` (default, works against both servers) or ``"frames"``
    #: (the async server's multiplexed transport; enables pipelining).
    transport: str = "lines"

    def __post_init__(self) -> None:
        if self.transport not in ("lines", "frames"):
            raise ValueError(f"unknown transport {self.transport!r}")
        self._pinned: Channel | None = None
        self._request_seq = 0

    @property
    def _conn(self) -> socket.socket | None:
        """The pinned socket of a persistent client, while one is open."""
        return None if self._pinned is None else self._pinned.conn

    def _open(self) -> Channel:
        connect_timeout = (
            self.timeout if self.connect_timeout is None else self.connect_timeout
        )
        try:
            conn = socket.create_connection(
                (self.host, self.port), timeout=connect_timeout
            )
        except OSError as exc:
            raise TransportError(
                f"cannot reach project server at {self.host}:{self.port}: {exc}"
            ) from exc
        conn.settimeout(self.timeout if self.read_timeout is None else self.read_timeout)
        return FrameChannel(conn) if self.transport == "frames" else LineChannel(conn)

    def close(self) -> None:
        """Drop the pinned connection (no-op for one-shot clients)."""
        if self._pinned is not None:
            self._pinned.close()
            self._pinned = None

    def __enter__(self) -> "BlueprintClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the connection core ---------------------------------------------------

    def _next_id(self) -> int:
        self._request_seq += 1
        return self._request_seq

    def _render(self, command: Command, request_id: int) -> str | dict:
        """*command* as this transport's request message."""
        line = format_command(command)
        if self.transport == "lines":
            return line
        # Frames carry what the line would: the same newline flattening
        # and the same validation on both transports.
        try:
            return command_to_request(parse_command(line), request_id)
        except ProtocolError as exc:
            raise ClientError(str(exc)) from exc

    def _roundtrip(self, exchange: Callable[[Channel], T]) -> T:
        """Run *exchange* on a connection: a fresh one for a one-shot
        client (closed afterwards), the pinned one for a persistent
        client.  Socket failures surface as :class:`TransportError`.

        The heal-once rule: a pinned connection that served an earlier
        call can die between calls — typically because the server
        restarted.  When it fails before anything of this call was
        answered, it is replaced and *exchange* runs once more, for any
        command: the previous call completed, so this one never reached
        a live server.  A fresh connection that fails gets no such
        retry — the server is actually unreachable or dropped this very
        request mid-flight.
        """
        for attempt in (0, 1):
            reused = self._pinned is not None
            channel = self._pinned if reused else self._open()
            self._pinned = None  # pinned again only after a clean exchange
            answered = channel.received
            try:
                result = exchange(channel)
                if self.persistent:
                    self._pinned = channel
                return result
            except OSError as exc:
                if reused and attempt == 0 and channel.received == answered:
                    continue  # stale pinned socket: reconnect once
                raise TransportError(
                    f"project server at {self.host}:{self.port} dropped: {exc}"
                ) from exc
            except FramingError as exc:
                raise ClientError(f"framed stream corrupt: {exc}") from exc
            finally:
                if self._pinned is not channel:
                    channel.close()
        raise AssertionError("unreachable")  # pragma: no cover

    def _backoff_busy(self, response: str, hint: float, attempt: int) -> None:
        """Sleep before resending a busy-rejected request, or raise
        :class:`BusyError` once the policy gives up."""
        policy = self.retry
        if policy is None or not policy.retry_busy or attempt >= policy.attempts:
            raise BusyError(response, hint)
        time.sleep(max(hint, policy.delay(attempt - 1)))

    def _request(self, command: Command) -> str:
        """The response line to *command*, with the retry policy applied.

        Transport failures retry only for commands the table marks
        retryable; ``ERR busy`` retries for everything (explicit
        non-admission), honouring the server's retry-after hint.
        """
        retryable = COMMANDS[command.kind].retry
        attempt = 0
        while True:
            attempt += 1
            request_id = self._next_id()
            message = self._render(command, request_id)
            try:
                response = self._roundtrip(
                    lambda channel: _ask(channel, message, request_id)
                )
            except TransportError:
                policy = self.retry
                if policy is None or not retryable or attempt >= policy.attempts:
                    raise
                time.sleep(policy.delay(attempt - 1))
                continue
            hint = parse_busy(response)
            if hint is None:
                return response
            self._backoff_busy(response, hint, attempt)

    def _call(self, command: Command):
        """Send *command*; return its ``OK`` body parsed by the table's
        reply parser, or raise :class:`ClientError`."""
        response = self._request(command)
        if not response.startswith("OK"):
            raise ClientError(response)
        try:
            return COMMANDS[command.kind].reply(response[2:].strip())
        except ProtocolError as exc:
            raise ClientError(str(exc)) from exc

    # -- commands -------------------------------------------------------------

    @staticmethod
    def _as_event(
        name: str,
        target: OID | str,
        direction: Direction | str = Direction.DOWN,
        arg: str = "",
        user: str = "",
    ) -> EventMessage:
        target = OID.parse(target) if isinstance(target, str) else target
        direction = (
            Direction.parse(direction) if isinstance(direction, str) else direction
        )
        return EventMessage(
            name=name, direction=direction, target=target, arg=arg, user=user
        )

    def _as_events(
        self, events: Iterable[EventMessage | tuple]
    ) -> tuple[EventMessage, ...]:
        return tuple(
            event if isinstance(event, EventMessage) else self._as_event(*event)
            for event in events
        )

    def post_event(
        self,
        name: str,
        target: OID | str,
        direction: Direction | str = Direction.DOWN,
        arg: str = "",
        user: str = "",
    ) -> int:
        """Post one event; returns the server-assigned sequence number."""
        event = self._as_event(name, target, direction, arg, user)
        return self._call(Command(kind="post", event=event))

    def post_batch(self, events: Iterable[EventMessage | tuple]) -> list[int]:
        """Post several events as one atomic FIFO window.

        Each item is an :class:`EventMessage` or an argument tuple for
        :meth:`post_event` (``(name, target[, direction[, arg[, user]]])``).
        The server validates every target before posting anything, so a
        single unknown OID rejects the whole batch.  Returns the assigned
        sequence numbers in order.
        """
        return self._call(Command(kind="batch", events=self._as_events(events)))

    def post_many(
        self,
        events: Iterable[EventMessage | tuple],
        *,
        window: int = 64,
    ) -> list[int]:
        """Post many *independent* events, pipelined.

        Unlike :meth:`post_batch` (one atomic all-or-nothing command),
        each event here is its own ``postEvent`` — but on the framed
        transport up to *window* of them stay in flight at once, so a
        burst pays one round trip per window rather than one per event
        (and, on a journaled server, shares fsync barriers across the
        whole window).  On the lines transport this degrades to a
        sequential loop with identical semantics.

        Returns the assigned sequence numbers in input order.  ``ERR
        busy`` rejections are retried per the policy (they are provably
        un-admitted); the first non-busy ``ERR`` raises
        :class:`ClientError` after the in-flight window drains, with
        every already-acknowledged event applied (their seqs are lost to
        the caller — treat the call as non-atomic).  A transport failure
        mid-window raises :class:`TransportError` without resending:
        sent-but-unacknowledged events may or may not have run.
        """
        messages = self._as_events(events)
        if self.transport != "frames":
            return [self._call(Command(kind="post", event=event)) for event in messages]
        results: dict[int, int] = {}
        todo = list(range(len(messages)))
        attempt = 0
        while todo:
            busy, error = self._roundtrip(
                lambda channel: self._pipeline(channel, messages, todo, window, results)
            )
            if error is not None:
                raise ClientError(error)
            if busy:
                attempt += 1
                self._backoff_busy(busy[0][2], max(hint for _, hint, _ in busy), attempt)
            todo = [index for index, _, _ in busy]
        return [results[index] for index in range(len(messages))]

    def _pipeline(
        self,
        channel: Channel,
        messages: tuple[EventMessage, ...],
        todo: list[int],
        window: int,
        results: dict[int, int],
    ) -> tuple[list[tuple[int, float, str]], str | None]:
        """One pipelined pass over *todo*, keeping ≤ *window* in flight.

        Fills *results* (message index → seq) as acknowledgements
        arrive; returns the busy rejections as ``(index, retry_hint,
        response)`` and the first hard error response — the in-flight
        window is always drained, even after an error, so the channel
        stays usable.
        """
        inflight: dict[int, int] = {}
        unsent = iter(todo)
        busy: list[tuple[int, float, str]] = []
        error: str | None = None
        while True:
            for index in itertools.islice(unsent, window - len(inflight)):
                request_id = self._next_id()
                inflight[request_id] = index
                command = Command(kind="post", event=messages[index])
                channel.send(command_to_request(command, request_id))
            if not inflight:
                return busy, error
            message = channel.recv()
            request_id = message.get("id")
            response = _answer(message, request_id)
            if response is None or request_id not in inflight:
                continue  # push/credit or stale frame: not ours
            index = inflight.pop(request_id)
            hint = parse_busy(response)
            if hint is not None:
                busy.append((index, hint, response))
            elif response.startswith("OK"):
                results[index] = COMMANDS["post"].reply(response[2:].strip())
            elif error is None:
                error = response

    def query(self, oid: OID | str) -> dict[str, str]:
        """Fetch the property state of one OID as text values.

        The wire format shlex-quotes values, so properties holding the
        paper's ``"logic sim passed"``-style strings round-trip intact.
        """
        oid = OID.parse(oid) if isinstance(oid, str) else oid
        return self._call(Command(kind="query", oid=oid))

    def stale(self) -> list[OID]:
        """The server's incremental stale set (sorted), no scan involved."""
        return self._call(Command(kind="stale"))

    def pending(self) -> dict[OID, tuple[str, ...]]:
        """What still blocks the planned state: OID → failing checks."""
        return self._call(Command(kind="pending"))

    def status(self) -> dict[str, int]:
        """Server/engine counters (objects, stale, queue, waves, ...)."""
        return self._call(Command(kind="status"))

    def health(self) -> dict[str, int]:
        """Durability/backpressure gauges: journal lag, queue depths,
        lock waits, busy rejections.  Answered lock-free by the server,
        so it works even when writers are wedged."""
        return self._call(Command(kind="health"))

    # -- policy governance ---------------------------------------------------

    def policy_status(self) -> dict[str, str]:
        """The active policy document: version, class, hash, gauges."""
        return self._call(Command(kind="policy_status"))

    def policy_propose(self, change_class: str, op: str, *args: str) -> str:
        """Propose a policy revision (``loosen`` / ``require`` / ``drop``).

        Additive proposals auto-activate; breaking ones park pending
        until :meth:`policy_approve`.  Returns the server's OK body
        (``<version> active`` or ``<version> pending``).  Not idempotent:
        a retried propose can race its own first attempt, so transport
        failures surface as :class:`TransportError` like posts do.
        """
        tokens = tuple(str(token) for token in (change_class, op, *args))
        return self._call(Command(kind="policy_propose", args=tokens))

    def policy_approve(self, version: int | str) -> str:
        """Activate the pending breaking proposal (must name its version)."""
        return self._call(Command(kind="policy_approve", args=(str(version),)))

    def policy_rollback(self) -> str:
        """Restore the previous document's content as a new version."""
        return self._call(Command(kind="policy_rollback"))

    def audit(self, limit: int | None = None) -> list[dict]:
        """The tail of the policy decision log, oldest first.

        Each record is a payload dict (``seq``, ``kind``, ``subject``,
        ``verdict``, ``reason``, ``version``).
        """
        args = () if limit is None else (str(int(limit)),)
        return self._call(Command(kind="audit", args=args))

    def ping(self) -> bool:
        return self._request(Command(kind="ping")) == "PONG"

    # -- subscriptions ---------------------------------------------------------

    def _open_subscription(self) -> Channel:
        """Connect, send ``subscribe`` and read the ack (under the read
        timeout) through the channel that then carries the pushes, so a
        push arriving in the same read as the ack is kept."""
        message = self._render(Command(kind="subscribe"), 0)
        channel = self._open()
        try:
            response = _ask(channel, message, 0)
        except (OSError, FramingError) as exc:
            channel.close()
            raise TransportError(f"subscribe failed: {exc}") from exc
        except BaseException:
            channel.close()
            raise
        if not response.startswith("OK"):
            channel.close()
            raise ClientError(response)
        channel.conn.settimeout(None)  # blocking; Subscription keeps deadlines
        return channel

    def subscribe(self, *, auto_resync: bool = False) -> Subscription:
        """Open a persistent connection receiving push notifications.

        The server acknowledges with ``OK subscribed`` and then pushes
        ``STALE <oid>`` / ``FRESH <oid>`` for each object a write
        re-buckets, in wave order, as the write ends — no polling.  On
        the frames transport the stream is never closed for falling
        behind (the server coalesces instead — see :class:`Subscription`).

        With ``auto_resync=True`` the subscription heals itself: on EOF
        (server bounce, slow-subscriber kick) it reconnects with
        backoff, re-subscribes, fetches the ``stale`` snapshot over a
        separate one-shot exchange, and yields synthetic notifications
        reconciling its tracked view — a mirror driven by this stream
        converges even across the gap.
        """
        channel = self._open_subscription()
        if not auto_resync:
            return Subscription(channel)
        # A one-shot twin fetches the resync snapshots.
        snapshots = replace(self, persistent=False, retry=self.retry or RetryPolicy())
        return Subscription(
            channel,
            resubscribe=self._open_subscription,
            resync=snapshots.stale,
            retry=self.retry or RetryPolicy(attempts=8),
        )


def post_event_main(argv: list[str] | None = None) -> int:
    """The ``postEvent`` console command used by wrapper shell scripts.

    Usage: ``postEvent EVENT up|down BLOCK,VIEW,VERSION ["ARG"]``.
    Server location comes from ``$BLUEPRINT_HOST`` / ``$BLUEPRINT_PORT``
    (defaults 127.0.0.1:7865); ``$BLUEPRINT_RETRIES`` enables the retry
    policy with that many attempts.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="postEvent",
        description="post a design event to the BluePrint",
        epilog=(
            "The server also answers: query OID | stale | pending | "
            "status | health | subscribe (push STALE/FRESH lines) | "
            'batch "postEvent ..." ... — see damocles serve.'
        ),
    )
    parser.add_argument("event")
    parser.add_argument("direction", choices=["up", "down"])
    parser.add_argument("oid", help="BLOCK,VIEW,VERSION")
    parser.add_argument("arg", nargs="?", default="")
    parser.add_argument("--user", default=os.environ.get("USER", ""))
    args = parser.parse_args(argv)

    retries = int(os.environ.get("BLUEPRINT_RETRIES", "0"))
    client = BlueprintClient(
        host=os.environ.get("BLUEPRINT_HOST", "127.0.0.1"),
        port=int(os.environ.get("BLUEPRINT_PORT", "7865")),
        retry=RetryPolicy(attempts=retries) if retries > 0 else None,
    )
    try:
        seq = client.post_event(
            args.event, args.oid, args.direction, args.arg, args.user
        )
    except (ClientError, Exception) as exc:
        print(f"postEvent: {exc}")
        return 1
    print(f"posted #{seq}")
    return 0
