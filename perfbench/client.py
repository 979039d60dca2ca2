"""The load generator: one request connection plus one subscriber.

Everything runs on one thread: :meth:`Client.pump` selects over both
sockets, so push arrival times are taken while the client waits for its
own replies.  Every loop is closed -- the client sends its next request
only after the previous one (or, on the framed transport, the previous
pipelined window) is fully acknowledged.

:class:`PushTracker` checks the subscriber stream against the twin.
Each wire request that runs a wave is one *group* of expected
STALE/FRESH transitions; pushes must consume the groups in order (in any
order inside a group).  When the server drops the subscriber with
``ERR overloaded`` the tracker heals the way the repository's
``Subscription(auto_resync)`` does -- reconnect, subscribe, fetch the
``stale`` snapshot -- and fast-forwards to the group the snapshot shows.
"""

from __future__ import annotations

import selectors
import socket
import time
from collections import Counter
from dataclasses import dataclass

from repro.metadb.oid import OID
from repro.network.framing import FrameDecoder, command_to_request, encode_frame
from repro.network.protocol import (
    OVERLOAD_LINE,
    Command,
    format_batch,
    format_post_event,
    parse_status_response,
)

TIMEOUT_S = 60.0


class RunFailure(RuntimeError):
    """A transport error or timeout that ends the run."""


@dataclass
class Group:
    """Expected transitions of one wave-running request."""

    remaining: Counter
    total: int
    stale_total: int
    sent_at: float = 0.0
    last_stale_at: float = 0.0
    measured: bool = False


class PushTracker:
    """The twin's transition groups, consumed in order by the pushes and
    stale snapshots the subscriber receives; ``view`` folds the stream
    itself, independently of the expectations."""

    def __init__(self) -> None:
        self.groups: list[Group] = []
        self.cursor = 0
        self.view: set[OID] = set()
        self.state: set[OID] = set()  # expected stale set at the cursor
        self.skip: Counter = Counter()
        self.mismatches: list[str] = []
        self.resyncs = 0

    def add(self, transitions, measured: bool) -> Group:
        group = Group(
            remaining=Counter(transitions),
            total=len(transitions),
            stale_total=sum(1 for is_stale, _ in transitions if is_stale),
            measured=measured,
        )
        self.groups.append(group)
        return group

    def _advance(self) -> None:
        while self.cursor < len(self.groups) and not self.groups[self.cursor].remaining:
            self.cursor += 1

    def _consume(self, group: Group, key: tuple[bool, OID], at: float) -> None:
        group.remaining[key] -= 1
        if not group.remaining[key]:
            del group.remaining[key]
        is_stale, oid = key
        if is_stale:
            self.state.add(oid)
            group.last_stale_at = at
        else:
            self.state.discard(oid)

    def push(self, line: str, at: float, after_snapshot: bool = True) -> None:
        verb, _, wire = line.partition(" ")
        key = (verb == "STALE", OID.parse(wire))
        if key[0]:
            self.view.add(key[1])
        else:
            self.view.discard(key[1])
        if not after_snapshot and self.skip[key]:
            self.skip[key] -= 1
            return
        self._advance()
        if self.cursor < len(self.groups) and key in self.groups[self.cursor].remaining:
            self._consume(self.groups[self.cursor], key, at)
            self._advance()
        elif self.skip[key]:
            self.skip[key] -= 1
        else:
            self.mismatches.append(f"unexpected push {line!r} at group {self.cursor}")

    def snapshot(self, oids: set[OID], at: float) -> None:
        """Fast-forward to the first group whose partial state is *oids*."""
        self.resyncs += 1
        self.skip = Counter()
        index = self.cursor
        while index < len(self.groups):
            group = self.groups[index]
            gained = {(True, oid) for oid in oids - self.state}
            lost = {(False, oid) for oid in self.state - oids}
            if all(key in group.remaining for key in gained | lost):
                for key in gained | lost:
                    self._consume(group, key, at)
                    self.skip[key] += 1
                self.cursor = index
                self._advance()
                return
            for key in list(group.remaining.elements()):
                self._consume(group, key, at)
                self.skip[key] += 1
            index += 1
        self.cursor = index
        if oids != self.state:
            self.mismatches.append("stale snapshot matches no expected state")

    def finished(self) -> bool:
        self._advance()
        return self.cursor >= len(self.groups)


class Client:
    """Request connection plus subscriber, multiplexed on one thread."""

    def __init__(self, port: int, frames: bool, tracker: PushTracker) -> None:
        self.port = port
        self.frames = frames
        self.tracker = tracker
        self.selector = selectors.DefaultSelector()
        self.conn = self._connect()
        self._rbuf = bytearray()
        self._decoder = FrameDecoder()
        self.lines: list[str] = []
        self.tagged: dict[int, str] = {}
        self._next_id = 1
        self.selector.register(self.conn, selectors.EVENT_READ, "req")
        self.sub: socket.socket | None = None
        self._sbuf = bytearray()
        self._snapshot_wanted = False
        self._pre_snapshot: list[str] = []
        self._subscribe(initial=True)

    def _connect(self) -> socket.socket:
        conn = socket.create_connection(("127.0.0.1", self.port), timeout=TIMEOUT_S)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    # -- subscriber ----------------------------------------------------------

    def _subscribe(self, initial: bool) -> None:
        sub = self._connect()
        sub.sendall(b"subscribe\n")
        buf = bytearray()
        while b"\n" not in buf:
            chunk = sub.recv(65536)
            if not chunk:
                raise RunFailure("subscriber closed before its ack")
            buf.extend(chunk)
        ack, _, rest = bytes(buf).partition(b"\n")
        if not ack.startswith(b"OK"):
            raise RunFailure(f"subscribe refused: {ack!r}")
        self.sub = sub
        self._sbuf = bytearray(rest)
        sub.setblocking(False)
        self.selector.register(sub, selectors.EVENT_READ, "sub")
        if not initial:
            sub.sendall(b"stale\n")
            self._snapshot_wanted = True
            self._pre_snapshot = []
        self._sub_lines(time.perf_counter())

    def _resync(self) -> None:
        assert self.sub is not None
        self.selector.unregister(self.sub)
        self.sub.close()
        self.sub = None
        self._subscribe(initial=False)

    def _sub_lines(self, at: float) -> None:
        while True:
            newline = self._sbuf.find(b"\n")
            if newline < 0:
                return
            line = self._sbuf[:newline].decode("utf-8")
            del self._sbuf[: newline + 1]
            if line.startswith(("STALE ", "FRESH ")):
                if self._snapshot_wanted:
                    self._pre_snapshot.append(line)
                else:
                    self.tracker.push(line, at)
            elif line == OVERLOAD_LINE:
                self._resync()
                return
            elif self._snapshot_wanted and line.startswith("OK"):
                self._snapshot_wanted = False
                oids = {OID.parse(token) for token in line[2:].split()}
                self.tracker.snapshot(oids, at)
                self.tracker.view = set(oids)
                for pushed in self._pre_snapshot:
                    self.tracker.push(pushed, at, after_snapshot=False)
                self._pre_snapshot = []
            else:
                self.tracker.mismatches.append(f"unexpected subscriber line {line!r}")

    # -- multiplexing ----------------------------------------------------------

    def pump(self, timeout: float) -> None:
        for key, _ in self.selector.select(timeout):
            at = time.perf_counter()
            sock = key.fileobj
            try:
                chunk = sock.recv(1 << 18)  # type: ignore[union-attr]
            except BlockingIOError:
                continue
            except OSError as exc:
                if key.data == "sub":
                    self._resync()
                    continue
                raise RunFailure(f"request connection failed: {exc}") from exc
            if key.data == "sub":
                if not chunk:
                    self._resync()
                    continue
                self._sbuf.extend(chunk)
                self._sub_lines(at)
                continue
            if not chunk:
                raise RunFailure("server closed the request connection")
            if self.frames:
                for payload in self._decoder.feed(chunk):
                    if "id" in payload:
                        self.tagged[payload["id"]] = str(payload.get("response", ""))
            else:
                self._rbuf.extend(chunk)
                while True:
                    newline = self._rbuf.find(b"\n")
                    if newline < 0:
                        break
                    self.lines.append(self._rbuf[:newline].decode("utf-8"))
                    del self._rbuf[: newline + 1]

    def _wait(self, done, what: str) -> float:
        deadline = time.perf_counter() + TIMEOUT_S
        while not done():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise RunFailure(f"timed out waiting for {what}")
            self.pump(min(remaining, 1.0))
        return time.perf_counter()

    # -- requests --------------------------------------------------------------

    def request(self, command: Command) -> str:
        """One request on whichever dialect this client speaks."""
        if not self.frames:
            self.conn.sendall((command_line(command) + "\n").encode("utf-8"))
            self._wait(lambda: self.lines, "a response")
            return self.lines.pop(0)
        request_id = self._take_id()
        self.conn.sendall(encode_frame(command_to_request(command, request_id)))
        self.wait_tagged({request_id})
        return self.tagged.pop(request_id)

    def _take_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def send_window(self, commands: list[Command]) -> tuple[list[int], float]:
        ids = [self._take_id() for _ in commands]
        data = b"".join(
            encode_frame(command_to_request(command, request_id))
            for command, request_id in zip(commands, ids)
        )
        self.conn.sendall(data)
        return ids, time.perf_counter()

    def wait_tagged(self, ids: set[int]) -> float:
        return self._wait(lambda: ids.issubset(self.tagged), "tagged responses")

    def wait_group(self, group: Group) -> None:
        self._wait(lambda: not group.remaining, "pushes")

    def settle(self) -> None:
        """Wait until every expected push has arrived."""
        self._wait(
            lambda: self.tracker.finished() and not self._snapshot_wanted,
            "the push stream to drain",
        )

    def counters(self, kind: str) -> dict[str, int]:
        response = self.request(Command(kind=kind))
        if not response.startswith("OK"):
            raise RunFailure(f"{kind} failed: {response}")
        return parse_status_response(response[2:])

    def close(self) -> None:
        for sock in (self.conn, self.sub):
            if sock is not None:
                try:
                    self.selector.unregister(sock)
                except (KeyError, ValueError):
                    pass
                sock.close()
        self.selector.close()


def command_line(command: Command) -> str:
    if command.kind == "post":
        return format_post_event(command.event)
    if command.kind == "batch":
        return format_batch(list(command.events))
    if command.kind == "query":
        return f"query {command.oid.wire()}"
    return command.kind

