"""Group commit under pipelining: few barriers, exact replay (S4).

The durability gate's whole point is that a pipeline window of writes
shares fsync barriers — throughput scales with the window, not with
the disk's sync latency.  That is only safe if the journal still
records exactly what was acknowledged, in order.  So this module pins
both halves of the bargain:

* **amortisation** — the ``sync_barriers`` counter (one per physical
  fsync of the journal) stays far below the request count under a
  pipelined hammer;
* **denials too** — a denied post waits on the same barrier as an
  acknowledged one, its tombstone the journal tail it waits for;
* **equivalence** — replaying the journal into a twin database yields
  a state fingerprint identical to the live server's, so the cheap
  barriers bought no durability anomalies.
"""

import socket

import pytest

from repro.metadb.database import MetaDatabase
from repro.metadb.oid import OID
from repro.metadb.persistence import load_database, save_database
from repro.network.async_server import AsyncProjectServer
from repro.network.client import BlueprintClient
from repro.network.framing import FrameChannel
from repro.network.server import wait_for_port
from repro.network.wal import WriteAheadLog

from test_crash_recovery import SOURCE, build_bus, fingerprint


HAMMER = 200


@pytest.fixture
def journaled(tmp_path):
    """A journaled async server plus everything a replay twin needs."""
    db_path = tmp_path / "db.json"
    # seed database, persisted so the twin starts from the same point
    db = MetaDatabase(name="crashy")
    db.create_object(OID("a", "v", 1))
    db.create_object(OID("b", "v", 1))
    save_database(db, db_path)
    wal = WriteAheadLog(tmp_path / "journal")
    bus = build_bus(db, wal)
    server = AsyncProjectServer(bus.engine, wal=wal)
    server.start()
    assert wait_for_port(server.host, server.port)
    try:
        yield server, wal, db, db_path
    finally:
        server.stop()
        wal.close()


class TestGroupCommit:
    def test_barriers_amortised_and_replay_equivalent(self, journaled, tmp_path):
        server, wal, db, db_path = journaled
        client = BlueprintClient(
            host=server.host,
            port=server.port,
            transport="frames",
            persistent=True,
        )
        with client:
            seqs = client.post_many(
                [("seen", "a,v,1", "up", f"h{i}") for i in range(HAMMER)],
                window=64,
            )
            assert seqs == sorted(seqs) and len(seqs) == HAMMER
            # Every acknowledged write is already durable — the gate
            # parks responses until its barrier has fsynced past them.
            assert wal.durable_seq >= max(seqs)
            # One barrier per pipeline window, not one per request.
            pipelined_barriers = wal.sync_barriers
            assert pipelined_barriers * 10 <= HAMMER, (
                f"{pipelined_barriers} fsync barriers for {HAMMER} requests"
            )
            # The gauge is surfaced for operators.
            assert client.health()["journal_barriers"] == pipelined_barriers

            # Sequential writes by contrast pay ~one barrier each: the
            # amortisation really came from pipelining, not from a
            # sneaky fsync-skipping path.
            for n in range(10):
                client.post_event("seen", "b,v,1", "up", arg=f"solo{n}")
            assert wal.sync_barriers - pipelined_barriers >= 8

            # Mixed shapes for the replay half: flips and an atomic batch.
            client.post_event("outofdate", "a,v,1", "down")
            client.post_batch(
                [
                    ("seen", "b,v,1", "up", "batched"),
                    ("outofdate", "b,v,1", "down"),
                ]
            )
        live = fingerprint(db)
        server.stop()

        # The twin: reload the seed snapshot, replay the journal tail.
        twin_db, _registry = load_database(db_path)
        twin_wal = WriteAheadLog(tmp_path / "journal")
        twin_bus = build_bus(twin_db, twin_wal)
        replayed = 0
        for entry in twin_wal.entries_after(twin_db.wal_seq):
            twin_bus.apply_journal_entry(entry)
            replayed += 1
        assert replayed == HAMMER + 10 + 1 + 1  # batch is ONE entry
        assert fingerprint(twin_db) == live
        twin_wal.close()

    def test_denials_share_the_barrier(self, journaled):
        """A pipelined burst of denied posts: every post answers ``ERR
        policy``, every denial's tombstone is journaled, and the burst
        pays a few barriers, not one inline fsync per deny."""
        server, wal, _db, _db_path = journaled
        client = BlueprintClient(
            host=server.host, port=server.port, transport="frames"
        )
        assert (
            client.policy_propose(
                "additive", "require", "event:seen", "$uptodate == false"
            )
            == "2 active"
        )
        barriers = client.health()["journal_barriers"]
        with socket.create_connection(server.address, timeout=10) as conn:
            channel = FrameChannel(conn)
            for i in range(HAMMER):
                channel.send(
                    {
                        "id": i,
                        "cmd": "post",
                        "event": f'postEvent seen up a,v,1 "d{i}"',
                    }
                )
            responses = {}
            while len(responses) < HAMMER:
                payload = channel.recv()
                responses[payload["id"]] = payload["response"]
        denied_barriers = client.health()["journal_barriers"] - barriers
        assert denied_barriers * 10 <= HAMMER, (
            f"{denied_barriers} fsync barriers for {HAMMER} denied posts"
        )
        assert all(
            response.startswith("ERR policy: ") for response in responses.values()
        ), sorted(set(responses.values()))[:3]
        entries = list(wal.entries())
        posts = {entry.seq for entry in entries if entry.kind == "event"}
        tombstoned = {entry.payload["ref"] for entry in entries if entry.kind == "audit"}
        assert len(posts) == HAMMER
        assert tombstoned == posts
