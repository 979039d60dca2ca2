"""The asyncio project server: frames, multiplexing, backpressure.

The compat shim is proven by ``test_async_compat.py`` (the original
line-dialect suite, re-collected against :class:`AsyncProjectServer`);
this module covers what is *new*: transport auto-detection and
enforcement, tagged request/response multiplexing (a response may
overtake a slower earlier request on the same connection), the
durability gate's busy shedding, and the subscriber backpressure
contract — a slow framed subscriber is never disconnected, its stream
degrades to coalesced deltas and always converges.
"""

import socket
import threading
import time

import pytest

from repro.core.blueprint import Blueprint
from repro.core.engine import BlueprintEngine
from repro.metadb.database import MetaDatabase
from repro.metadb.oid import OID
from repro.network import async_server as async_server_module
from repro.network.async_server import AsyncProjectServer
from repro.network.client import (
    BlueprintClient,
    BusyError,
    ClientError,
    RetryPolicy,
    Subscription,
)
from repro.network.framing import CREDIT_PAUSE, CREDIT_RESUME, FrameChannel
from repro.network.protocol import OVERLOAD_LINE
from repro.network.server import wait_for_port
from repro.network.wal import WriteAheadLog

PUSH_SOURCE = """\
blueprint push
view v
  property uptodate default true
  property last default none
  when outofdate do uptodate = false done
  when ckin do uptodate = true done
  when seen do last = $arg done
endview
endblueprint
"""


@pytest.fixture
def project():
    db = MetaDatabase()
    engine = BlueprintEngine(db, Blueprint.from_source(PUSH_SOURCE), strict=True)
    db.create_object(OID("a", "v", 1))
    db.create_object(OID("b", "v", 1))
    db.create_object(OID("c", "v", 1))
    return db, engine


@pytest.fixture
def server(project):
    _db, engine = project
    with AsyncProjectServer(engine) as running:
        assert wait_for_port(running.host, running.port)
        yield running


def frames_client(server, **kwargs) -> BlueprintClient:
    return BlueprintClient(
        host=server.host, port=server.port, transport="frames", **kwargs
    )


class TestLifecycle:
    def test_restart_on_same_port(self, project):
        _db, engine = project
        server = AsyncProjectServer(engine).start()
        port = server.port
        frames_client(server).post_event("seen", "a,v,1", "up", arg="one")
        server.stop()
        server.start()
        try:
            assert server.port == port
            client = frames_client(server)
            client.post_event("seen", "a,v,1", "up", arg="two")
            assert client.query("a,v,1")["last"] == "two"
        finally:
            server.stop()

    def test_double_start_rejected(self, project):
        _db, engine = project
        with AsyncProjectServer(engine) as running:
            with pytest.raises(RuntimeError):
                running.start()

    def test_stop_is_idempotent(self, project):
        _db, engine = project
        server = AsyncProjectServer(engine).start()
        server.stop()
        server.stop()

    def test_unknown_transport_rejected(self, project):
        _db, engine = project
        with pytest.raises(ValueError):
            AsyncProjectServer(engine, transport="carrier-pigeon")


class TestTransportEnforcement:
    def test_frames_only_refuses_lines(self, project):
        _db, engine = project
        with AsyncProjectServer(engine, transport="frames") as server:
            with socket.create_connection(
                (server.host, server.port), timeout=2
            ) as conn:
                conn.sendall(b"ping\n")
                response = conn.makefile().readline().strip()
            assert response == "ERR framed transport required"

    def test_lines_only_drops_frames(self, project):
        _db, engine = project
        with AsyncProjectServer(engine, transport="lines") as server:
            client = frames_client(server)
            with pytest.raises(ClientError):
                client.ping()

    def test_auto_serves_both_on_one_port(self, server):
        lines = BlueprintClient(host=server.host, port=server.port)
        frames = frames_client(server)
        assert lines.ping() and frames.ping()
        frames.post_event("seen", "a,v,1", "up", arg="via frames")
        assert lines.query("a,v,1")["last"] == "via frames"


class TestMultiplexing:
    def test_response_overtakes_parked_write(self, project, tmp_path):
        """The multiplexing contract: while a post is parked on the
        durability gate, a later request on the SAME connection is
        answered — the line dialect would head-of-line block here."""
        _db, engine = project
        wal = WriteAheadLog(tmp_path / "wal")
        release = threading.Event()
        original_sync = wal.sync

        def slow_sync(seq):
            release.wait(timeout=10)
            original_sync(seq)

        wal.sync = slow_sync
        with AsyncProjectServer(engine, wal=wal) as server:
            with socket.create_connection(
                (server.host, server.port), timeout=10
            ) as conn:
                channel = FrameChannel(conn)
                channel.send(
                    {
                        "id": 1,
                        "cmd": "post",
                        "event": 'postEvent seen up a,v,1 "parked"',
                    }
                )
                channel.send({"id": 2, "cmd": "status"})
                first = channel.recv()
                assert first["id"] == 2  # overtook the parked post
                release.set()
                second = channel.recv()
                assert second["id"] == 1
                assert second["response"].startswith("OK")
        wal.close()

    def test_gate_busy_shedding(self, project, tmp_path):
        """Once the durability backlog hits busy_limit, further writes
        shed with ERR busy *before* admission — retry-safe by design."""
        _db, engine = project
        wal = WriteAheadLog(tmp_path / "wal")
        release = threading.Event()
        original_sync = wal.sync

        def slow_sync(seq):
            release.wait(timeout=10)
            original_sync(seq)

        wal.sync = slow_sync
        with AsyncProjectServer(engine, wal=wal, busy_limit=2) as server:
            with socket.create_connection(
                (server.host, server.port), timeout=10
            ) as conn:
                channel = FrameChannel(conn)
                for i in range(5):
                    channel.send(
                        {
                            "id": i,
                            "cmd": "post",
                            "event": f'postEvent seen up a,v,1 "n{i}"',
                        }
                    )
                busy = {}
                for _ in range(3):  # ids 2..4 shed immediately
                    payload = channel.recv()
                    busy[payload["id"]] = payload["response"]
                assert set(busy) == {2, 3, 4}
                assert all(r.startswith("ERR busy") for r in busy.values())
                release.set()
                parked = {channel.recv()["id"] for _ in range(2)}
                assert parked == {0, 1}
            assert server.bus.stats["busy_rejections"] == 3
        wal.close()

    def test_busy_error_surfaces_through_client(self, project, tmp_path):
        _db, engine = project
        wal = WriteAheadLog(tmp_path / "wal")
        original_sync = wal.sync

        def slow_sync(seq):
            time.sleep(0.5)  # long enough for the rest of the window to shed
            original_sync(seq)

        wal.sync = slow_sync
        try:
            with AsyncProjectServer(engine, wal=wal, busy_limit=1) as server:
                client = frames_client(server, persistent=True)
                with client:
                    # no retry policy: while the first post holds the
                    # gate, the rest of the window sheds → BusyError
                    # (after the in-flight window drains cleanly).
                    with pytest.raises(BusyError):
                        client.post_many(
                            [("seen", "a,v,1", "up", f"x{i}") for i in range(8)],
                            window=8,
                        )
        finally:
            wal.close()


class TestPostMany:
    def test_pipelined_posts_apply_in_order(self, project, server):
        db, _engine = project
        client = frames_client(server, persistent=True)
        with client:
            seqs = client.post_many(
                [("seen", "a,v,1", "up", f"m{i}") for i in range(50)], window=16
            )
        assert seqs == sorted(seqs)
        assert len(seqs) == 50
        assert db.get(OID("a", "v", 1)).get("last") == "m49"

    def test_engine_error_raises_after_drain(self, server):
        client = frames_client(server, persistent=True)
        with client:
            with pytest.raises(ClientError, match="unknown OID"):
                client.post_many(
                    [
                        ("seen", "a,v,1", "up", "good"),
                        ("seen", "zz,v,1", "up", "bad"),
                        ("seen", "a,v,1", "up", "after"),
                    ]
                )
            # channel still usable after the drained error
            assert client.ping() is True

    def test_lines_transport_falls_back_sequentially(self, project, server):
        db, _engine = project
        client = BlueprintClient(host=server.host, port=server.port)
        seqs = client.post_many(
            [("seen", "b,v,1", "up", f"s{i}") for i in range(3)]
        )
        assert len(seqs) == 3
        assert db.get(OID("b", "v", 1)).get("last") == "s2"


class TestFramedSubscription:
    def test_live_push_and_client_credits(self, server):
        client = frames_client(server, persistent=True)
        with client, client.subscribe() as sub:
            client.post_event("outofdate", "a,v,1", "down")
            note = sub.next(timeout=5)
            assert note.verb == "STALE" and not note.coalesced
            sub.pause()
            client.post_event("ckin", "a,v,1", "up")
            client.post_event("outofdate", "a,v,1", "down")
            client.post_event("ckin", "a,v,1", "up")
            sub.resume()
            # the paused flaps collapse to the latest state: one FRESH
            note = sub.next(timeout=5)
            assert note.verb == "FRESH" and note.coalesced
            assert sub.view == set()
            with pytest.raises(ClientError, match="timed out"):
                sub.next(timeout=0.3)

    def test_slow_subscriber_coalesces_never_disconnects(
        self, monkeypatch, project
    ):
        """ISSUE 7 acceptance: a deliberately slow framed subscriber is
        never dropped — every stale/fresh transition is eventually
        observed (possibly coalesced) and the stream stays live."""
        monkeypatch.setattr(async_server_module, "SUBSCRIBER_SNDBUF", 4096)
        monkeypatch.setattr(
            async_server_module, "FRAME_SUBSCRIBER_HIGH_WATER", 2048
        )
        db, engine = project
        with AsyncProjectServer(engine) as server:
            poster = frames_client(server, persistent=True)
            # Hand-built subscription socket with a tiny receive buffer,
            # so the server actually feels backpressure.
            raw = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            raw.settimeout(10)
            raw.connect((server.host, server.port))
            channel = FrameChannel(raw)
            channel.send({"id": 0, "cmd": "subscribe"})
            assert channel.recv()["response"].startswith("OK")
            sub = Subscription(channel)
            # Flood transitions WITHOUT reading: 200 flap pairs across
            # three objects, ending in a known mixed state.
            with poster:
                for i in range(200):
                    poster.post_event("outofdate", "a,v,1", "down")
                    poster.post_event("ckin", "a,v,1", "up")
                    poster.post_event("outofdate", "b,v,1", "down")
                    poster.post_event("ckin", "b,v,1", "up")
                poster.post_event("outofdate", "c,v,1", "down")  # ends stale
                # Now drain: the subscriber catches up on everything.
                deadline = time.monotonic() + 30
                target = {OID("c", "v", 1)}
                while sub.view != target:
                    assert time.monotonic() < deadline
                    sub.next(timeout=5)
                # Convergence: the tracked view equals the server truth.
                assert set(server.bus.stale_snapshot()) == target
                # Never disconnected: no subscriber was dropped, and the
                # stream is still live end to end.
                assert server.bus.stats.get("subscribers_dropped") is None
                assert server.bus.subscriber_count == 1
                poster.post_event("outofdate", "a,v,1", "down")
                deadline = time.monotonic() + 10
                while OID("a", "v", 1) not in sub.view:
                    assert time.monotonic() < deadline
                    sub.next(timeout=5)
            sub.close()

    def test_auto_resync_survives_server_bounce(self, project):
        db, engine = project
        server = AsyncProjectServer(engine).start()
        try:
            assert wait_for_port(server.host, server.port)
            client = frames_client(server, retry=RetryPolicy())
            sub = client.subscribe(auto_resync=True)
            client.post_event("outofdate", "a,v,1", "down")
            assert sub.next(timeout=5).oid == OID("a", "v", 1)
            server.stop()
            # state changes while the subscriber is disconnected
            engine.post("ckin", OID("a", "v", 1), "up")
            engine.post("outofdate", OID("b", "v", 1), "down")
            engine.run()
            server.start()
            assert wait_for_port(server.host, server.port)
            healed = [sub.next(timeout=10), sub.next(timeout=10)]
            verbs = {(n.verb, n.oid) for n in healed}
            assert verbs == {
                ("STALE", OID("b", "v", 1)),
                ("FRESH", OID("a", "v", 1)),
            }
            assert all(n.coalesced for n in healed)
            assert sub.resyncs == 1
            sub.close()
        finally:
            server.stop()


class TestLineShimSubscribers:
    def test_overflowed_line_subscriber_gets_final_err(
        self, monkeypatch, project
    ):
        """S1 parity on the shim: a line-dialect subscriber that cannot
        keep up gets ``ERR overloaded`` as its final line, then EOF."""
        monkeypatch.setattr(async_server_module, "SUBSCRIBER_SNDBUF", 4096)
        monkeypatch.setattr(async_server_module, "LINE_SUBSCRIBER_BUFFER", 1024)
        db, engine = project
        with AsyncProjectServer(engine) as server:
            raw = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            raw.settimeout(10)
            raw.connect((server.host, server.port))
            raw.sendall(b"subscribe\n")
            file = raw.makefile("r", encoding="utf-8")
            assert file.readline().strip() == "OK subscribed"
            poster = frames_client(server, persistent=True)
            with poster:
                dropped = False
                for _ in range(2000):
                    poster.post_event("outofdate", "a,v,1", "down")
                    poster.post_event("ckin", "a,v,1", "up")
                    if server.bus.stats.get("subscribers_dropped"):
                        dropped = True
                        break
                assert dropped, "subscriber never overflowed"
            lines = [line.strip() for line in file]
            assert lines, "no final diagnostic before EOF"
            assert lines[-1] == OVERLOAD_LINE
            assert all(
                line.split()[0] in ("STALE", "FRESH") for line in lines[:-1]
            )
            raw.close()

    def test_stop_unblocks_waiting_line_subscriber(self, server):
        """S2 on the shim: a subscriber blocked in recv() observes
        shutdown promptly, not after a lingering socket timeout."""
        client = BlueprintClient(host=server.host, port=server.port)
        sub = client.subscribe()
        failures = []

        def wait_for_push():
            started = time.monotonic()
            try:
                sub.next(timeout=30)
                failures.append("unexpected notification")
            except ClientError:
                if time.monotonic() - started > 5:
                    failures.append("shutdown not observed promptly")

        waiter = threading.Thread(target=wait_for_push)
        waiter.start()
        time.sleep(0.2)  # let the waiter block in recv()
        began = time.monotonic()
        server.stop()
        assert time.monotonic() - began < 5
        waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert not failures, failures
