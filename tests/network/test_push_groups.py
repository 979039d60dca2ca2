"""Push groups: each write's STALE/FRESH lines leave as one group.

The bus collects a write's stale transitions in wave order and hands
every subscriber one call per write, the lines joined by ``\\n``.  A
denied write, or one that changed nothing, makes no call.  The threaded
server queues one entry per group, so a wave larger than
``SUBSCRIBER_QUEUE_DEPTH`` still reaches a line subscriber whole; the
framed transport splits each group back into one push frame per line,
so line and framed subscribers see the same lines.
"""

import shlex
import sys
import tempfile
import threading
import time
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.core.blueprint import Blueprint
from repro.core.engine import BlueprintEngine
from repro.metadb.database import MetaDatabase
from repro.metadb.links import LinkClass
from repro.metadb.oid import OID
from repro.metadb.persistence import load_database, save_database
from repro.network import server as server_module
from repro.network.async_server import AsyncProjectServer
from repro.network.bus import EventBus
from repro.network.client import BlueprintClient
from repro.network.protocol import parse_post_event
from repro.network.server import ProjectServer, wait_for_port
from repro.network.wal import WriteAheadLog

FAN_SOURCE = """\
blueprint fan
view v
  property uptodate default true
  property last default none
  when outofdate do uptodate = false; post outofdate down done
  when ckin do uptodate = true; post ckin down done
  when seen do last = $arg done
endview
endblueprint
"""

PROPAGATES = ("outofdate", "ckin")
ROOT = OID("top", "v", 1)


def fan_project(leaves: int) -> MetaDatabase:
    """``top`` with *leaves* children: one ``outofdate`` on top flips
    ``leaves + 1`` objects in one wave."""
    db = MetaDatabase()
    db.create_object(ROOT)
    for index in range(leaves):
        leaf = OID(f"leaf{index}", "v", 1)
        db.create_object(leaf)
        db.add_link(ROOT, leaf, LinkClass.DERIVE, propagates=PROPAGATES)
    return db


def tree_project(mids: int = 3) -> MetaDatabase:
    """``top`` -> *mids* mids -> two leaves each."""
    db = MetaDatabase()
    db.create_object(ROOT)
    for mid in range(mids):
        mid_oid = OID(f"m{mid}", "v", 1)
        db.create_object(mid_oid)
        db.add_link(ROOT, mid_oid, LinkClass.DERIVE, propagates=PROPAGATES)
        for leaf in range(2):
            leaf_oid = OID(f"m{mid}l{leaf}", "v", 1)
            db.create_object(leaf_oid)
            db.add_link(mid_oid, leaf_oid, LinkClass.DERIVE, propagates=PROPAGATES)
    return db


TREE_OIDS = [ROOT] + [OID(f"m{m}", "v", 1) for m in range(3)] + [
    OID(f"m{m}l{leaf}", "v", 1) for m in range(3) for leaf in range(2)
]


def fold(view: set[OID], group: str) -> None:
    """Apply one push group to a mirror of the stale set."""
    for line in group.split("\n"):
        verb, _, wire = line.partition(" ")
        assert verb in ("STALE", "FRESH"), line
        if verb == "STALE":
            view.add(OID.parse(wire))
        else:
            view.discard(OID.parse(wire))


def bus_over(db: MetaDatabase) -> EventBus:
    return EventBus(BlueprintEngine(db, Blueprint.from_source(FAN_SOURCE), strict=True))


# -- the bus: one call per write ----------------------------------------------


class TestBusGroups:
    def test_one_call_per_write_in_wave_order(self):
        bus = bus_over(fan_project(5))
        groups: list[str] = []
        bus.subscribe(groups.append)
        assert bus.handle_line("postEvent outofdate down top,v,1") == "OK 1"
        assert groups == [
            "\n".join(
                ["STALE top,v,1"] + [f"STALE leaf{i},v,1" for i in range(5)]
            )
        ]

    def test_batch_is_one_group(self):
        bus = bus_over(fan_project(3))
        groups: list[str] = []
        bus.subscribe(groups.append)
        line = "batch " + " ".join(
            shlex.quote(member)
            for member in (
                "postEvent outofdate down leaf0,v,1",
                "postEvent outofdate down leaf2,v,1",
                "postEvent ckin down leaf0,v,1",
            )
        )
        assert bus.handle_line(line).startswith("OK ")
        assert groups == ["STALE leaf0,v,1\nSTALE leaf2,v,1\nFRESH leaf0,v,1"]

    def test_write_that_changes_nothing_makes_no_call(self):
        bus = bus_over(fan_project(2))
        groups: list[str] = []
        bus.subscribe(groups.append)
        assert bus.handle_line("postEvent seen down top,v,1 x") == "OK 1"
        assert bus.handle_line("postEvent ckin down top,v,1") == "OK 2"
        assert groups == []

    def test_denied_write_makes_no_call(self):
        bus = bus_over(fan_project(2))
        groups: list[str] = []
        bus.subscribe(groups.append)
        gate = 'policy propose additive require event:outofdate "$uptodate == false"'
        assert bus.handle_line(gate) == "OK 2 active"
        assert bus.handle_line("postEvent outofdate down top,v,1").startswith(
            "ERR policy: "
        )
        assert groups == []
        assert bus.stale_snapshot() == []

    def test_programmatic_posts_publish_one_group_each(self):
        bus = bus_over(fan_project(2))
        groups: list[str] = []
        bus.subscribe(groups.append)
        bus.post("outofdate", ROOT)
        bus.engine.post("ckin", ROOT)
        bus.engine.post("outofdate", OID("leaf1", "v", 1))
        bus.drain()
        assert groups == [
            "STALE top,v,1\nSTALE leaf0,v,1\nSTALE leaf1,v,1",
            "FRESH top,v,1\nFRESH leaf0,v,1\nFRESH leaf1,v,1\nSTALE leaf1,v,1",
        ]

    def test_recovery_publishes_one_group_per_entry(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append_event(parse_post_event("postEvent outofdate down top,v,1"))
            wal.append_batch(
                (
                    parse_post_event("postEvent ckin down leaf0,v,1"),
                    parse_post_event("postEvent ckin down leaf1,v,1"),
                )
            )
            bus = bus_over(fan_project(2))
            groups: list[str] = []
            bus.subscribe(groups.append)
            assert bus.recover(wal.entries_after(0)) == 2
        assert groups == [
            "STALE top,v,1\nSTALE leaf0,v,1\nSTALE leaf1,v,1",
            "FRESH leaf0,v,1\nFRESH leaf1,v,1",
        ]

    def test_transition_outside_a_bus_call_is_a_group_of_one(self):
        db = fan_project(2)
        bus = bus_over(db)
        groups: list[str] = []
        bus.subscribe(groups.append)
        db.get(ROOT).set("uptodate", False)
        db.get(OID("leaf0", "v", 1)).set("uptodate", False)
        assert groups == ["STALE top,v,1", "STALE leaf0,v,1"]


def run_writes(db: MetaDatabase, ops) -> None:
    """Apply *ops* through the bus; after every write, the groups
    received so far fold to the database's stale set, and the write
    made at most one call."""
    bus = bus_over(db)
    groups: list[str] = []
    bus.subscribe(groups.append)
    view = set(db.stale_set())
    for op in ops:
        before = len(groups)
        stale_before = set(db.stale_set())
        if op[0] == "post":
            _, name, target, direction = op
            line = f"postEvent {name} {direction} {target.wire()}"
        else:
            line = "batch " + " ".join(
                shlex.quote(f"postEvent {name} {direction} {target.wire()}")
                for name, target, direction in op[1]
            )
        assert bus.handle_line(line).startswith("OK ")
        assert len(groups) - before in (0, 1)
        for group in groups[before:]:
            fold(view, group)
        assert view == set(db.stale_set())
        if len(groups) == before:
            assert set(db.stale_set()) == stale_before
    assert set(bus.stale_snapshot()) == view


members = st.tuples(
    st.sampled_from(["outofdate", "ckin", "seen"]),
    st.sampled_from(TREE_OIDS),
    st.sampled_from(["down", "up"]),
)
writes = st.lists(
    st.one_of(
        members.map(lambda member: ("post",) + member),
        st.lists(members, min_size=1, max_size=4).map(lambda ms: ("batch", ms)),
    ),
    min_size=1,
    max_size=12,
)


class TestGroupsFoldToTheStaleSet:
    @settings(max_examples=60, deadline=None)
    @given(ops=writes)
    def test_eager_store(self, ops):
        run_writes(tree_project(), ops)

    @settings(max_examples=30, deadline=None)
    @given(ops=writes)
    def test_lazy_store(self, ops):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "tree.sqlite"
            save_database(tree_project(), path)
            db, _ = load_database(path, lazy=True, cache_lineages=3)
            try:
                run_writes(db, ops)
            finally:
                db.close()


# -- the threaded server: a wave past the queue depth --------------------------


def test_wave_larger_than_the_queue_reaches_a_line_subscriber(monkeypatch):
    """One wave flips more objects than ``SUBSCRIBER_QUEUE_DEPTH``; a
    subscriber whose socket sends are slow still receives every line,
    and is never told ``ERR overloaded``."""
    leaves = server_module.SUBSCRIBER_QUEUE_DEPTH + 44
    original_send = server_module._Handler._send

    def slow_send(self, text):
        if text.startswith(("STALE ", "FRESH ")):
            time.sleep(0.02)
        original_send(self, text)

    monkeypatch.setattr(server_module._Handler, "_send", slow_send)
    engine = BlueprintEngine(
        fan_project(leaves), Blueprint.from_source(FAN_SOURCE), strict=True
    )
    with ProjectServer(engine) as server:
        assert wait_for_port(server.host, server.port)
        client = BlueprintClient(host=server.host, port=server.port)
        with client.subscribe() as sub:
            assert client.post_event("outofdate", ROOT.wire(), "down") == 1
            seen = [sub.next(timeout=10) for _ in range(leaves + 1)]
        assert all(note.verb == "STALE" for note in seen)
        assert [note.oid for note in seen] == [ROOT] + [
            OID(f"leaf{index}", "v", 1) for index in range(leaves)
        ]
        assert not server.bus.stats.get("subscribers_dropped")


def test_concurrent_writers_each_arrive_as_one_contiguous_group():
    """Writers on more threads than cores: each write's lines arrive
    together, and the stream folds to the final stale set."""
    mids = [OID(f"m{mid}", "v", 1) for mid in range(6)]
    engine = BlueprintEngine(
        tree_project(len(mids)), Blueprint.from_source(FAN_SOURCE), strict=True
    )
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ProjectServer(engine) as server:
            assert wait_for_port(server.host, server.port)
            client = BlueprintClient(host=server.host, port=server.port)
            with client.subscribe() as sub:
                errors: list[Exception] = []

                def writer(mid: OID) -> None:
                    poster = BlueprintClient(
                        host=server.host, port=server.port, persistent=True
                    )
                    try:
                        with poster:
                            for round_no in range(20):
                                name = "outofdate" if round_no % 2 == 0 else "ckin"
                                poster.post_event(name, mid.wire(), "down")
                    except Exception as exc:  # pragma: no cover - failure path
                        errors.append(exc)

                threads = [
                    threading.Thread(target=writer, args=(mid,)) for mid in mids
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert not errors, errors
                # Every post flips a mid and its two leaves together.
                notes = [sub.next(timeout=10) for _ in range(len(mids) * 20 * 3)]
        for start in range(0, len(notes), 3):
            group = notes[start : start + 3]
            mid = group[0].oid
            assert mid in mids
            assert [note.oid for note in group] == [
                mid, OID(f"{mid.block}l0", "v", 1), OID(f"{mid.block}l1", "v", 1)
            ]
            assert len({note.verb for note in group}) == 1
        view: set[OID] = set()
        for note in notes:
            (view.add if note.is_stale else view.discard)(note.oid)
        assert view == set(engine.db.stale_set())
    finally:
        sys.setswitchinterval(previous)


# -- the asyncio server: line and framed subscribers agree --------------------


@settings(max_examples=8, deadline=None)
@given(ops=writes)
def test_line_and_framed_subscribers_see_the_same_lines(ops):
    engine = BlueprintEngine(
        tree_project(), Blueprint.from_source(FAN_SOURCE), strict=True
    )
    with AsyncProjectServer(engine) as server:
        assert wait_for_port(server.host, server.port)
        groups: list[str] = []
        server.bus.subscribe(groups.append)
        lines_client = BlueprintClient(host=server.host, port=server.port)
        frames_client = BlueprintClient(
            host=server.host, port=server.port, transport="frames", persistent=True
        )
        with lines_client.subscribe() as line_sub, frames_client, \
                frames_client.subscribe() as frame_sub:
            for op in ops:
                if op[0] == "post":
                    _, name, target, direction = op
                    frames_client.post_event(name, target.wire(), direction)
                else:
                    frames_client.post_batch(
                        [(name, oid.wire(), direction) for name, oid, direction in op[1]]
                    )
            expected = [line for group in groups for line in group.split("\n")]
            by_line = [line_sub.next(timeout=5) for _ in expected]
            by_frame = [frame_sub.next(timeout=5) for _ in expected]
        assert [f"{n.verb} {n.oid.wire()}" for n in by_line] == expected
        assert [f"{n.verb} {n.oid.wire()}" for n in by_frame] == expected
        assert not any(note.coalesced for note in by_frame)
