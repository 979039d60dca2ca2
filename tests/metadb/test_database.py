"""MetaDatabase: objects, links, indexes, hooks, integrity."""

import pytest

from repro.metadb.database import MetaDatabase
from repro.metadb.errors import (
    DuplicateLinkError,
    DuplicateOIDError,
    UnknownLinkError,
    UnknownOIDError,
)
from repro.metadb.links import Direction, LinkClass
from repro.metadb.oid import OID


@pytest.fixture
def db():
    return MetaDatabase(name="t")


class TestObjects:
    def test_create_and_get(self, db):
        obj = db.create_object(OID("a", "v", 1), {"p": "x"})
        assert db.get(OID("a", "v", 1)) is obj
        assert obj.get("p") == "x"

    def test_create_from_string(self, db):
        obj = db.create_object("cpu,netlist,2")
        assert obj.oid == OID("cpu", "netlist", 2)

    def test_duplicate_rejected(self, db):
        db.create_object(OID("a", "v", 1))
        with pytest.raises(DuplicateOIDError):
            db.create_object(OID("a", "v", 1))

    def test_get_unknown_raises(self, db):
        with pytest.raises(UnknownOIDError):
            db.get(OID("a", "v", 1))

    def test_find_returns_none(self, db):
        assert db.find(OID("a", "v", 1)) is None

    def test_contains(self, db):
        db.create_object(OID("a", "v", 1))
        assert OID("a", "v", 1) in db
        assert OID("a", "v", 2) not in db

    def test_created_seq_monotonic(self, db):
        first = db.create_object(OID("a", "v", 1))
        second = db.create_object(OID("b", "v", 1))
        assert second.created_seq > first.created_seq

    def test_remove_object_drops_links(self, db):
        a = db.create_object(OID("a", "v", 1))
        b = db.create_object(OID("b", "v", 1))
        db.add_link(a.oid, b.oid)
        db.remove_object(a.oid)
        assert db.link_count == 0
        assert db.links_of(b.oid) == []

    def test_remove_unknown_raises(self, db):
        with pytest.raises(UnknownOIDError):
            db.remove_object(OID("a", "v", 1))

    def test_len_counts_objects(self, db):
        db.create_object(OID("a", "v", 1))
        db.create_object(OID("a", "v", 2))
        assert len(db) == 2


class TestVersions:
    def test_versions_of_sorted(self, db):
        for version in (1, 2, 3):
            db.create_object(OID("a", "v", version))
        assert db.versions_of("a", "v") == [1, 2, 3]

    def test_out_of_order_creation_still_sorted(self, db):
        db.create_object(OID("a", "v", 3))
        db.create_object(OID("a", "v", 1))
        assert db.versions_of("a", "v") == [1, 3]

    def test_latest_version(self, db):
        db.create_object(OID("a", "v", 1))
        db.create_object(OID("a", "v", 4))
        assert db.latest_version("a", "v").version == 4

    def test_latest_of_unknown_is_none(self, db):
        assert db.latest_version("a", "v") is None

    def test_previous_version(self, db):
        db.create_object(OID("a", "v", 1))
        db.create_object(OID("a", "v", 2))
        db.create_object(OID("a", "v", 5))
        assert db.previous_version(OID("a", "v", 5)).version == 2
        assert db.previous_version(OID("a", "v", 1)) is None

    def test_remove_cleans_lineage(self, db):
        db.create_object(OID("a", "v", 1))
        db.remove_object(OID("a", "v", 1))
        assert db.versions_of("a", "v") == []

    def test_blocks_of_view(self, db):
        db.create_object(OID("alu", "netlist", 1))
        db.create_object(OID("cpu", "netlist", 1))
        db.create_object(OID("alu", "layout", 1))
        assert db.blocks_of_view("netlist") == ["alu", "cpu"]


class TestLinks:
    def test_add_and_get(self, db):
        a = db.create_object(OID("a", "v", 1))
        b = db.create_object(OID("b", "v", 1))
        link = db.add_link(a.oid, b.oid, propagates=["outofdate"])
        assert db.get_link(link.link_id) is link
        assert link.allows("outofdate")

    def test_add_requires_endpoints(self, db):
        a = db.create_object(OID("a", "v", 1))
        with pytest.raises(UnknownOIDError):
            db.add_link(a.oid, OID("b", "v", 1))
        with pytest.raises(UnknownOIDError):
            db.add_link(OID("c", "v", 1), a.oid)

    def test_exact_duplicate_rejected(self, db):
        a = db.create_object(OID("a", "v", 1))
        b = db.create_object(OID("b", "v", 1))
        db.add_link(a.oid, b.oid)
        with pytest.raises(DuplicateLinkError):
            db.add_link(a.oid, b.oid)

    def test_same_endpoints_different_class_allowed(self, db):
        a = db.create_object(OID("a", "v", 1))
        b = db.create_object(OID("b", "v", 1))
        db.add_link(a.oid, b.oid, LinkClass.DERIVE)
        db.add_link(a.oid, b.oid, LinkClass.USE)
        assert db.link_count == 2

    def test_get_unknown_link(self, db):
        with pytest.raises(UnknownLinkError):
            db.get_link(99)

    def test_links_of_lists_both_directions(self, db):
        a = db.create_object(OID("a", "v", 1))
        b = db.create_object(OID("b", "v", 1))
        c = db.create_object(OID("c", "v", 1))
        db.add_link(a.oid, b.oid)
        db.add_link(b.oid, c.oid)
        assert len(db.links_of(b.oid)) == 2
        assert len(db.outgoing(b.oid)) == 1
        assert len(db.incoming(b.oid)) == 1

    def test_neighbours_down(self, db):
        a = db.create_object(OID("a", "v", 1))
        b = db.create_object(OID("b", "v", 1))
        db.add_link(a.oid, b.oid)
        down = db.neighbours(a.oid, Direction.DOWN)
        assert [oid for _link, oid in down] == [b.oid]
        assert db.neighbours(a.oid, Direction.UP) == []

    def test_neighbours_up(self, db):
        a = db.create_object(OID("a", "v", 1))
        b = db.create_object(OID("b", "v", 1))
        db.add_link(a.oid, b.oid)
        up = db.neighbours(b.oid, Direction.UP)
        assert [oid for _link, oid in up] == [a.oid]

    def test_remove_link_updates_indexes(self, db):
        a = db.create_object(OID("a", "v", 1))
        b = db.create_object(OID("b", "v", 1))
        link = db.add_link(a.oid, b.oid)
        db.remove_link(link.link_id)
        assert db.links_of(a.oid) == []
        assert db.links_of(b.oid) == []

    def test_retarget_source(self, db):
        a1 = db.create_object(OID("a", "v", 1))
        a2 = db.create_object(OID("a", "v", 2))
        b = db.create_object(OID("b", "v", 1))
        link = db.add_link(a1.oid, b.oid)
        db.retarget_link(link.link_id, source=a2.oid)
        assert link.source == a2.oid
        assert db.outgoing(a1.oid) == []
        assert [l.link_id for l in db.outgoing(a2.oid)] == [link.link_id]

    def test_retarget_dest(self, db):
        a = db.create_object(OID("a", "v", 1))
        b1 = db.create_object(OID("b", "v", 1))
        b2 = db.create_object(OID("b", "v", 2))
        link = db.add_link(a.oid, b1.oid)
        db.retarget_link(link.link_id, dest=b2.oid)
        assert link.dest == b2.oid
        assert db.incoming(b1.oid) == []

    def test_retarget_to_unknown_raises(self, db):
        a = db.create_object(OID("a", "v", 1))
        b = db.create_object(OID("b", "v", 1))
        link = db.add_link(a.oid, b.oid)
        with pytest.raises(UnknownOIDError):
            db.retarget_link(link.link_id, dest=OID("zz", "v", 1))

    def test_retarget_refuses_a_parallel_link(self, db):
        a = db.create_object(OID("a", "v", 1))
        b1 = db.create_object(OID("b", "v", 1))
        b2 = db.create_object(OID("b", "v", 2))
        moving = db.add_link(a.oid, b1.oid)
        db.add_link(a.oid, b2.oid)
        with pytest.raises(DuplicateLinkError):
            db.retarget_link(moving.link_id, dest=b2.oid)
        assert moving.dest == b1.oid
        assert [l.link_id for l in db.incoming(b1.oid)] == [moving.link_id]
        db.retarget_link(moving.link_id, dest=b1.oid)  # onto itself: allowed


class TestHooks:
    def test_object_hook_fires_after_indexing(self, db):
        seen = []

        def hook(obj):
            # the object must already be findable from inside the hook
            assert db.find(obj.oid) is obj
            seen.append(obj.oid)

        db.on_object_created(hook)
        db.create_object(OID("a", "v", 1))
        assert seen == [OID("a", "v", 1)]

    def test_link_hook_fires(self, db):
        seen = []
        db.on_link_created(lambda link: seen.append(link.link_id))
        a = db.create_object(OID("a", "v", 1))
        b = db.create_object(OID("b", "v", 1))
        db.add_link(a.oid, b.oid)
        assert len(seen) == 1

    def test_fire_hooks_false_suppresses(self, db):
        seen = []
        db.on_object_created(lambda obj: seen.append(obj.oid))
        db.create_object(OID("a", "v", 1), fire_hooks=False)
        assert seen == []

    def test_clear_hooks(self, db):
        seen = []
        db.on_object_created(lambda obj: seen.append(obj.oid))
        db.clear_hooks()
        db.create_object(OID("a", "v", 1))
        assert seen == []


class TestDiagnostics:
    def test_stats(self, db):
        a = db.create_object(OID("a", "v", 1))
        b = db.create_object(OID("a", "w", 1))
        db.add_link(a.oid, b.oid, LinkClass.DERIVE)
        stats = db.stats()
        assert stats["objects"] == 2
        assert stats["links"] == 1
        assert stats["lineages"] == 2
        assert stats["derive_links"] == 1
        assert stats["use_links"] == 0

    def test_integrity_clean(self, db):
        a = db.create_object(OID("a", "v", 1))
        b = db.create_object(OID("b", "v", 1))
        db.add_link(a.oid, b.oid)
        assert db.check_integrity() == []

    def test_integrity_catches_corruption(self, db):
        a = db.create_object(OID("a", "v", 1))
        b = db.create_object(OID("b", "v", 1))
        link = db.add_link(a.oid, b.oid)
        # simulate corruption: drop the object but keep the link record
        del db._objects[b.oid]
        problems = db.check_integrity()
        assert any("dangling dest" in p for p in problems)
        assert link.link_id == 1
