"""Length-prefixed binary framing for the async project server.

The line dialect of :mod:`repro.network.protocol` is what the paper's
wrapper scripts speak, and it stays the compat transport — but a line
protocol cannot multiplex: one connection carries one in-flight request,
so every event pays a full round trip and a slow response head-of-line
blocks everything behind it.  This module defines the framed transport
that removes both limits:

* every frame is ``MAGIC | u32 length | JSON payload`` — five bytes of
  header, then exactly ``length`` bytes of UTF-8 JSON;
* the magic byte doubles as the protocol version (``0xB0 | version``)
  and as transport auto-detection: no line-dialect command starts with
  a byte ≥ 0x80, so the server classifies each connection from its
  first byte and speaks lines or frames accordingly;
* a length guard (:data:`MAX_FRAME`) bounds what a peer can make the
  other side buffer — an oversized header is a protocol error, not an
  allocation;
* requests carry a client-chosen ``id`` tag and responses echo it, so
  many requests can be in flight on one connection and complete out of
  order (multiplexing); push notifications and credit frames carry no
  ``id`` at all.

Payload shapes (all JSON objects):

* request:  ``{"id": 7, "cmd": "post", "event": {...}}`` — command
  names are the kinds of :data:`repro.network.protocol.COMMANDS`, and
  each kind's argument field follows its codec there (see
  :func:`request_to_command`);
* response: ``{"id": 7, "response": "OK 12"}`` — the body is the same
  ``OK ... / ERR ...`` line the line dialect would answer, so every
  existing response parser (and the retry matrix built on them) works
  unchanged over frames;
* push:     ``{"push": "STALE a,v,1"}`` with optional
  ``"coalesced": true`` when the notification is a catch-up delta
  rather than a live transition;
* credit:   ``{"credit": "PAUSE"}`` / ``{"credit": "RESUME"}`` — flow
  control for the push stream, sent by the server when it starts/stops
  coalescing a slow subscriber, and by the client to explicitly pause
  its own stream.

The decoder is incremental: bytes arrive in arbitrary chunks (torn
mid-header or mid-payload) and complete frames come out.

On the client side, :class:`LineChannel` and :class:`FrameChannel` wrap
a blocking socket in one dialect each, with the same ``send`` /
``recv(timeout)`` / ``close`` surface, so the client's connection core
and its subscription are written once for both.
"""

from __future__ import annotations

import json
import select
import socket
import struct
import time
from collections import deque
from typing import Iterator

from repro.core.events import EventMessage
from repro.network.protocol import (
    COMMANDS,
    POST_EVENT,
    Command,
    ProtocolError,
    check_arity,
    parse_oid,
    parse_post_event,
)

#: Protocol version carried in the low nibble of the magic byte.
FRAME_VERSION = 1

#: First byte of every frame: ``0xB0 | version``.  High bit set, so it
#: can never be the first byte of a UTF-8 line-dialect command — the
#: server's transport auto-detection keys on exactly this.
FRAME_MAGIC = 0xB0 | FRAME_VERSION

#: Any byte in this family announces "framed transport" (some version).
MAGIC_FAMILY_MASK = 0xF0
MAGIC_FAMILY = 0xB0

#: Hard bound on one frame's payload, encoder and decoder alike.  Large
#: enough for a several-thousand-event batch, small enough that a
#: corrupt or hostile length header cannot make a peer buffer gigabytes.
MAX_FRAME = 1 << 20  # 1 MiB

_HEADER = struct.Struct(">BI")  # magic byte, payload length


class FramingError(ProtocolError):
    """A malformed, oversized, or wrong-version frame."""


def is_frame_byte(first: int) -> bool:
    """True when *first* announces the framed transport (any version)."""
    return (first & MAGIC_FAMILY_MASK) == MAGIC_FAMILY


def encode_frame(payload: dict) -> bytes:
    """Render one payload as a complete wire frame."""
    data = json.dumps(payload, separators=(",", ":"), ensure_ascii=False).encode(
        "utf-8"
    )
    if len(data) > MAX_FRAME:
        raise FramingError(
            f"frame payload of {len(data)} bytes exceeds MAX_FRAME ({MAX_FRAME})"
        )
    return _HEADER.pack(FRAME_MAGIC, len(data)) + data


class FrameDecoder:
    """Incremental frame parser: feed bytes, iterate complete payloads.

    Tolerates arbitrary fragmentation — a frame torn mid-header or
    mid-payload simply waits in the buffer for the rest.  Raises
    :class:`FramingError` on a wrong magic/version byte or an oversized
    length header; after an error the stream is unrecoverable (framing
    has no resync point) and the connection should be closed.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def buffered(self) -> int:
        """Bytes held waiting for a complete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[dict]:
        """Absorb *data*; return every frame it completed, in order."""
        self._buffer.extend(data)
        return list(self._drain())

    def _drain(self) -> Iterator[dict]:
        while len(self._buffer) >= _HEADER.size:
            magic, length = _HEADER.unpack_from(self._buffer)
            if magic != FRAME_MAGIC:
                if is_frame_byte(magic):
                    raise FramingError(
                        f"frame version mismatch: peer speaks "
                        f"v{magic & ~MAGIC_FAMILY_MASK}, this side v{FRAME_VERSION}"
                    )
                raise FramingError(f"bad frame magic byte 0x{magic:02x}")
            if length > MAX_FRAME:
                raise FramingError(
                    f"frame length {length} exceeds MAX_FRAME ({MAX_FRAME})"
                )
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return  # torn mid-payload: wait for the rest
            raw = bytes(self._buffer[_HEADER.size : end])
            del self._buffer[:end]
            try:
                payload = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise FramingError(f"bad frame payload: {exc}") from exc
            if not isinstance(payload, dict):
                raise FramingError(
                    f"frame payload must be an object, got {type(payload).__name__}"
                )
            yield payload


# ---------------------------------------------------------------------------
# request payloads <-> protocol commands
# ---------------------------------------------------------------------------

#: Event wire shape shared with the write-ahead journal: the same JSON
#: object describes an event on the network and in the WAL, so a framed
#: ``post`` request and its journal entry are byte-comparable.


def event_to_payload(event: EventMessage) -> dict:
    from repro.network.wal import event_payload

    return event_payload(event)


def payload_to_event(payload: dict) -> EventMessage:
    from repro.network.wal import payload_event

    try:
        return payload_event(payload)
    except (KeyError, ValueError, TypeError) as exc:
        raise FramingError(f"bad event payload: {exc}") from exc


#: Client→server credit verbs (flow control for the push stream).
CREDIT_PAUSE = "PAUSE"
CREDIT_RESUME = "RESUME"


def request_to_command(payload: dict) -> Command:
    """Parse one framed request payload into a protocol :class:`Command`.

    Command names are the table's kinds (plus ``postEvent`` as an alias
    of ``post``).  Raises :class:`FramingError` (a
    :class:`ProtocolError`) with a human-readable reason; the server
    echoes it in the error response.
    """
    cmd = payload.get("cmd")
    if not isinstance(cmd, str):
        raise FramingError("request has no 'cmd'")
    spec = COMMANDS.get("post" if cmd == POST_EVENT else cmd)
    if spec is None:
        raise FramingError(f"unknown framed command {cmd!r}")
    codec = spec.codec
    if codec == "none":
        return check_arity(spec, [], FramingError)
    if codec == "event":
        event = payload.get("event")
        if isinstance(event, str):
            # Line-dialect escape hatch: a full ``postEvent ...`` line.
            return Command(kind="post", event=parse_post_event(event))
        if not isinstance(event, dict):
            raise FramingError("post request needs an 'event' object")
        return Command(kind="post", event=payload_to_event(event))
    if codec == "events":
        members = payload.get("events")
        if not isinstance(members, list) or not members:
            raise FramingError("batch request needs a non-empty 'events' list")
        return Command(
            kind="batch",
            events=tuple(payload_to_event(member) for member in members),
        )
    if codec == "oid":
        wire = payload.get("oid")
        if not isinstance(wire, str):
            raise FramingError(spec.frame_usage)
        return Command(kind=spec.kind, oid=parse_oid(wire, FramingError))
    args = payload.get("args", [])
    if not isinstance(args, list) or not all(isinstance(arg, str) for arg in args):
        raise FramingError(f"{cmd} request needs an 'args' string list")
    return check_arity(spec, args, FramingError)


def command_to_request(command: Command, request_id: int) -> dict:
    """Render a protocol :class:`Command` as a framed request payload."""
    request: dict = {"id": request_id, "cmd": command.kind}
    codec = COMMANDS[command.kind].codec
    if codec == "event":
        assert command.event is not None
        request["event"] = event_to_payload(command.event)
    elif codec == "events":
        request["events"] = [event_to_payload(event) for event in command.events]
    elif codec == "oid":
        assert command.oid is not None
        request["oid"] = command.oid.wire()
    elif codec == "tokens":
        request["args"] = list(command.args)
    return request


# ---------------------------------------------------------------------------
# blocking socket channels (sync client side)
# ---------------------------------------------------------------------------


class _Channel:
    """A blocking socket plus the receive buffer of one dialect.

    The buffer belongs to the channel, not to a call: a read that times
    out mid-message keeps the partial bytes for the next call, and
    messages that arrive together (an ack and the first pushes, say)
    are all kept.  ``received`` counts the messages read so far.
    """

    def __init__(self, conn: socket.socket) -> None:
        self.conn = conn
        self.received = 0

    def recv(self, timeout: float | None = None):
        """The next message, in arrival order.

        Without *timeout* this blocks under the socket's own timeout;
        with one it raises ``socket.timeout`` once that many seconds
        pass.  EOF raises ``ConnectionResetError``, and a corrupt frame
        stream :class:`FramingError`.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while (message := self._pop()) is None:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not select.select([self.conn], [], [], remaining)[0]:
                    raise socket.timeout("timed out")
            chunk = self.conn.recv(65536)
            if not chunk:
                raise ConnectionResetError("connection closed by peer")
            self._feed(chunk)
        self.received += 1
        return message

    def _pop(self):
        raise NotImplementedError

    def _feed(self, chunk: bytes) -> None:
        raise NotImplementedError

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass


class LineChannel(_Channel):
    """The line dialect: ``send`` a line, ``recv`` stripped lines."""

    def __init__(self, conn: socket.socket) -> None:
        super().__init__(conn)
        self._buffer = bytearray()

    def send(self, line: str) -> None:
        self.conn.sendall((line + "\n").encode("utf-8"))

    def _feed(self, chunk: bytes) -> None:
        self._buffer.extend(chunk)

    def _pop(self) -> str | None:
        end = self._buffer.find(b"\n")
        if end < 0:
            return None
        raw = bytes(self._buffer[:end])
        del self._buffer[: end + 1]
        return raw.decode("utf-8", errors="replace").strip()


class FrameChannel(_Channel):
    """The framed dialect: ``send`` a payload, ``recv`` decoded frames."""

    def __init__(self, conn: socket.socket) -> None:
        super().__init__(conn)
        self._decoder = FrameDecoder()
        self._ready: deque[dict] = deque()

    def send(self, payload: dict) -> None:
        self.conn.sendall(encode_frame(payload))

    def _feed(self, chunk: bytes) -> None:
        self._ready.extend(self._decoder.feed(chunk))

    def _pop(self) -> dict | None:
        return self._ready.popleft() if self._ready else None
