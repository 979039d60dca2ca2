"""The demand-faulting SQLite store (metadb/store.py).

Covers the faulting lifecycle: O(window) residency, shard-at-a-time
faults, SQL pushdown answers for non-resident objects, LRU eviction of
clean shards, change-set write-back, and the observer-channel
invariant (stale listeners report logical transitions only, never
residency changes).
"""

import pytest

from repro.metadb.database import MetaDatabase
from repro.metadb.errors import PersistenceError, UnknownOIDError
from repro.metadb.links import Direction, LinkClass
from repro.metadb.oid import OID
from repro.metadb.persistence import load_database, save_database
from repro.metadb.query import Query, stale_objects

VIEWS = ("rtl", "gate", "layout")


def build_db(n_blocks: int = 12) -> MetaDatabase:
    db = MetaDatabase(name="lazy-test")
    for index in range(n_blocks):
        block = f"b{index}"
        for view in VIEWS:
            db.create_object(
                OID(block, view, 1),
                {
                    "uptodate": index % 3 != 0,
                    "owner": "ana" if index % 2 else "bob",
                },
            )
        db.add_link(OID(block, "rtl", 1), OID(block, "gate", 1))
        db.add_link(OID(block, "gate", 1), OID(block, "layout", 1))
    return db


@pytest.fixture
def saved(tmp_path):
    db = build_db()
    path = save_database(db, tmp_path / "db.sqlite")
    return db, path


def open_lazy(path, **kwargs):
    return load_database(path, lazy=True, **kwargs)


class TestFaulting:
    def test_cold_open_materialises_nothing(self, saved):
        _db, path = saved
        lazy, _ = open_lazy(path)
        assert lazy.lazy is True
        assert lazy.store.stats()["resident_objects"] == 0

    def test_get_faults_one_shard(self, saved):
        _db, path = saved
        lazy, _ = open_lazy(path)
        obj = lazy.get(OID("b1", "rtl", 1))
        assert obj.get("owner") == "ana"
        # exactly the (b1, rtl) lineage came in
        assert lazy.store.stats()["resident_objects"] == 1
        assert lazy.store.stats()["resident_lineages"] == 1

    def test_logical_counts_do_not_fault(self, saved):
        db, path = saved
        lazy, _ = open_lazy(path)
        assert lazy.object_count == db.object_count
        assert lazy.link_count == db.link_count
        assert len(lazy) == len(db)
        assert lazy.store.stats()["resident_objects"] == 0

    def test_neighbours_fault_adjacency_not_whole_graph(self, saved):
        _db, path = saved
        lazy, _ = open_lazy(path)
        pairs = lazy.neighbours(OID("b2", "rtl", 1), Direction.DOWN)
        assert [oid.wire() for _link, oid in pairs] == ["b2,gate,1"]
        assert lazy.store.stats()["resident_links"] <= 2

    def test_unknown_oid_still_raises(self, saved):
        _db, path = saved
        lazy, _ = open_lazy(path)
        with pytest.raises(UnknownOIDError):
            lazy.get(OID("nosuch", "rtl", 1))

    def test_full_scan_materialises_everything(self, saved):
        db, path = saved
        lazy, _ = open_lazy(path)
        assert sorted(o.oid for o in lazy.objects()) == sorted(
            o.oid for o in db.objects()
        )
        assert lazy.store.stats()["resident_objects"] == db.object_count
        assert lazy.check_integrity() == []

    def test_versions_and_latest(self, tmp_path):
        db = MetaDatabase()
        for version in (1, 2, 3):
            db.create_object(OID("cpu", "rtl", version))
        path = save_database(db, tmp_path / "v.sqlite")
        lazy, _ = open_lazy(path)
        assert lazy.versions_of("cpu", "rtl") == [1, 2, 3]
        assert lazy.latest_version("cpu", "rtl").oid == OID("cpu", "rtl", 3)
        assert lazy.previous_version(OID("cpu", "rtl", 3)).oid.version == 2

    def test_blocks_of_view_includes_non_resident(self, saved):
        db, path = saved
        lazy, _ = open_lazy(path)
        assert lazy.blocks_of_view("rtl") == db.blocks_of_view("rtl")
        assert lazy.views_of_block("b3") == db.views_of_block("b3")


class TestPushdown:
    def test_stale_set_matches_eager_without_full_load(self, saved):
        db, path = saved
        lazy, _ = open_lazy(path)
        assert lazy.stale_set() == db.stale_set()
        assert lazy.store.stats()["resident_objects"] == 0

    def test_stale_objects_faults_only_result(self, saved):
        db, path = saved
        lazy, _ = open_lazy(path)
        eager = [obj.oid for obj in stale_objects(db)]
        got = [obj.oid for obj in stale_objects(lazy)]
        assert got == eager
        assert lazy.store.stats()["resident_objects"] == len(eager)

    def test_property_query_pushdown_then_resident(self, saved):
        db, path = saved
        lazy, _ = open_lazy(path)
        query = Query(lazy).where_property("owner", "bob")
        assert query.explain().strategy == "sql-pushdown"
        expected = [obj.oid for obj in Query(db).where_property("owner", "bob").select()]
        assert [obj.oid for obj in query.select()] == expected
        # everything the query touched is now resident: the second run
        # needs no pushdown
        assert Query(lazy).where_property("owner", "bob").explain().strategy == (
            "resident-index"
        )

    def test_zero_equals_false_pushdown_semantics(self, tmp_path):
        db = MetaDatabase()
        db.create_object(OID("a", "v", 1), {"uptodate": 0})
        db.create_object(OID("b", "v", 1), {"uptodate": False})
        db.create_object(OID("c", "v", 1), {"uptodate": 0.0})
        path = save_database(db, tmp_path / "zero.sqlite")
        lazy, _ = open_lazy(path)
        query = Query(lazy).where_property("uptodate", False)
        assert len(query.select()) == 3
        assert [o.oid for o in stale_objects(lazy)] == [
            OID("a", "v", 1), OID("b", "v", 1), OID("c", "v", 1)
        ]

    def test_force_scan_identical(self, saved):
        db, path = saved
        lazy, _ = open_lazy(path)
        for build in (
            lambda d: Query(d).view("rtl"),
            lambda d: Query(d).where_property("uptodate", False).latest_only(),
            lambda d: Query(d).block("b5"),
        ):
            assert [o.oid for o in build(lazy).select(force_scan=True)] == [
                o.oid for o in build(db).select(force_scan=True)
            ]

    def test_latest_only_scan_plan_pushes_down(self, saved):
        _db, path = saved
        lazy, _ = open_lazy(path)
        plan = Query(lazy).where(lambda o: True).latest_only().explain()
        assert plan.strategy == "sql-pushdown"
        assert plan.index == "latest"


class TestWindow:
    def test_blocks_window_restricts_faulting(self, saved):
        _db, path = saved
        lazy, _ = open_lazy(path, blocks={"b1", "b2"})
        assert lazy.find(OID("b3", "rtl", 1)) is None
        assert lazy.get(OID("b1", "rtl", 1)).oid.block == "b1"
        # logical counts see the window only
        assert lazy.object_count == 2 * len(VIEWS)

    def test_window_matches_filtered_full_load(self, saved):
        _db, path = saved
        lazy, _ = open_lazy(path, views={"rtl"})
        full, _ = load_database(path)
        assert sorted(o.oid for o in lazy.objects()) == sorted(
            o.oid for o in full.objects() if o.oid.view == "rtl"
        )
        # rtl->gate links cross the window boundary: none is inside
        assert full.link_count > 0
        assert lazy.link_count == 0

    def test_stale_pushdown_respects_window(self, saved):
        db, path = saved
        lazy, _ = open_lazy(path, blocks={"b0", "b3", "b4"})
        expected = {oid for oid in db.stale_set() if oid.block in ("b0", "b3", "b4")}
        assert lazy.stale_set() == expected


class TestEviction:
    def test_clean_shards_evict_lru(self, saved):
        db, path = saved
        lazy, _ = open_lazy(path, cache_lineages=4)
        for index in range(12):
            lazy.get(OID(f"b{index}", "rtl", 1))
        stats = lazy.store.stats()
        assert stats["resident_lineages"] <= 4
        assert stats["evictions"] >= 8
        # evicted shards re-fault transparently and integrity holds
        assert lazy.get(OID("b0", "rtl", 1)).get("uptodate") is False
        assert lazy.stale_set() == db.stale_set()

    def test_dirty_shards_are_pinned(self, saved):
        _db, path = saved
        lazy, _ = open_lazy(path, cache_lineages=2)
        lazy.get(OID("b0", "rtl", 1)).set("owner", "zoe")
        for index in range(1, 12):
            lazy.get(OID(f"b{index}", "rtl", 1))
        # the dirty shard survived the LRU pressure
        assert ("b0", "rtl") in lazy.store._resident
        assert lazy.get(OID("b0", "rtl", 1)).get("owner") == "zoe"

    def test_eviction_is_quiet_on_the_stale_channel(self, saved):
        _db, path = saved
        lazy, _ = open_lazy(path, cache_lineages=2)
        events = []
        lazy.on_stale_change(lambda oid, is_stale: events.append((oid, is_stale)))
        for index in range(12):  # b0/b3/b6/b9 rtl shards are stale on disk
            lazy.get(OID(f"b{index}", "rtl", 1))
        assert events == []  # faults and evictions: no logical transitions
        lazy.get(OID("b1", "rtl", 1)).set("uptodate", False)
        assert events == [(OID("b1", "rtl", 1), True)]


class TestWriteBack:
    def test_flush_persists_mutations(self, saved):
        _db, path = saved
        lazy, _ = open_lazy(path)
        lazy.get(OID("b0", "rtl", 1)).set("uptodate", True)
        lazy.create_object(OID("b99", "rtl", 1), {"uptodate": False})
        lazy.add_link(OID("b99", "rtl", 1), OID("b0", "rtl", 1), LinkClass.USE)
        lazy.remove_object(OID("b7", "layout", 1))
        lazy.close()
        reloaded, _ = load_database(path)
        assert reloaded.get(OID("b0", "rtl", 1)).get("uptodate") is True
        assert reloaded.get(OID("b99", "rtl", 1)).get("uptodate") is False
        assert reloaded.find(OID("b7", "layout", 1)) is None
        assert any(
            link.source == OID("b99", "rtl", 1) for link in reloaded.links()
        )
        assert reloaded.check_integrity() == []

    def test_save_database_same_path_is_incremental(self, saved):
        _db, path = saved
        lazy, registry = open_lazy(path)
        lazy.get(OID("b1", "gate", 1)).set("score", 7)
        save_database(lazy, path, registry)
        # save did not fault the world in to rewrite it
        assert lazy.store.stats()["resident_objects"] == 1
        reloaded, _ = load_database(path)
        assert reloaded.get(OID("b1", "gate", 1)).get("score") == 7

    def test_save_to_other_path_materialises_full_copy(self, saved, tmp_path):
        db, path = saved
        lazy, _ = open_lazy(path)
        copy = save_database(lazy, tmp_path / "copy.sqlite")
        reloaded, _ = load_database(copy)
        assert reloaded.object_count == db.object_count
        assert reloaded.check_integrity() == []

    def test_deleted_link_stays_deleted(self, saved):
        _db, path = saved
        lazy, _ = open_lazy(path)
        link = lazy.outgoing(OID("b2", "rtl", 1))[0]
        lazy.remove_link(link.link_id)
        lazy.close()
        reloaded, _ = open_lazy(path)
        assert reloaded.outgoing(OID("b2", "rtl", 1)) == []

    def test_link_ids_never_reused_after_reload(self, saved):
        _db, path = saved
        lazy, _ = open_lazy(path)
        highest = max(link.link_id for link in lazy.links())
        lazy.close()
        again, _ = open_lazy(path)
        link = again.add_link(OID("b0", "rtl", 1), OID("b1", "rtl", 1), LinkClass.USE)
        assert link.link_id == highest + 1

    def test_closed_store_refuses_faults(self, saved):
        _db, path = saved
        lazy, _ = open_lazy(path)
        lazy.close()
        with pytest.raises(PersistenceError, match="closed"):
            lazy.get(OID("b5", "rtl", 1))

    def test_workspace_checkout_survives_write_back(self, saved, tmp_path):
        from repro.metadb.workspace import Workspace

        _db, path = saved
        workspace = Workspace.open(tmp_path / "ws", path, lazy=True)
        workspace.root.joinpath("b4", "rtl", "1").mkdir(parents=True)
        workspace.root.joinpath("b4", "rtl", "1", "data.txt").write_text("x")
        workspace.check_out(OID("b4", "rtl", 1), user="yves")
        workspace.db.close()
        reloaded, _ = load_database(path)
        assert reloaded.get(OID("b4", "rtl", 1)).checked_out_by == "yves"


@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
def test_move_link_retarget_survives_write_back(lazy, tmp_path):
    """``shift_move_links`` retargets the link in place; the write-back
    must persist the new endpoint on both SQLite stores."""
    from repro.metadb.versions import shift_move_links

    db = MetaDatabase()
    db.create_object(OID("a", "rtl", 1))
    db.create_object(OID("b", "rtl", 1))
    db.add_link(OID("a", "rtl", 1), OID("b", "rtl", 1), move=True)
    path = save_database(db, tmp_path / "db.sqlite")
    loaded, registry = load_database(path, lazy=lazy)
    loaded.create_object(OID("a", "rtl", 2))
    assert shift_move_links(loaded, OID("a", "rtl", 1), OID("a", "rtl", 2)) == [1]
    if lazy:
        loaded.flush(registry)
    else:
        save_database(loaded, path, registry)
    reloaded, _ = load_database(path)
    assert [(l.source, l.dest) for l in reloaded.links()] == [
        (OID("a", "rtl", 2), OID("b", "rtl", 1))
    ]


class TestTransactions:
    def test_rollback_under_lazy_store(self, saved):
        db, path = saved
        lazy, _ = open_lazy(path)
        with pytest.raises(RuntimeError):
            with lazy.transaction():
                lazy.get(OID("b1", "rtl", 1)).set("uptodate", False)
                lazy.create_object(OID("t", "rtl", 1))
                raise RuntimeError("boom")
        assert lazy.get(OID("b1", "rtl", 1)).get("uptodate") is True
        assert lazy.find(OID("t", "rtl", 1)) is None
        assert lazy.stale_set() == db.stale_set()

    def test_engine_from_saved_lazy_wave(self, saved, tmp_path):
        """A propagation wave over one shard faults in only that
        neighbourhood (the from_saved(lazy=True) contract)."""
        from repro.core.blueprint import Blueprint
        from repro.core.engine import BlueprintEngine
        from repro.flows.generators import chain_blueprint_source

        blueprint = Blueprint.from_source(chain_blueprint_source(3))
        db = MetaDatabase(name="wave")
        BlueprintEngine(db, blueprint, trace_limit=0)  # templates wire links
        for block in range(40):
            for view in range(3):
                db.create_object(OID(f"c{block}", f"v{view}", 1))
        for obj in db.objects():
            obj.set("uptodate", True)
        path = save_database(db, tmp_path / "wave.sqlite")
        engine = BlueprintEngine.from_saved(path, blueprint, lazy=True)
        engine.post("outofdate", OID("c7", "v0", 1))
        engine.run()
        assert engine.db.lazy
        resident = engine.db.store.stats()["resident_objects"]
        assert resident <= 6  # c7's chain, not the other 39 blocks
        assert OID("c7", "v1", 1) in engine.db.stale_set()


class TestReviewRegressions:
    def test_fresh_fault_survives_all_dirty_cache(self, saved):
        """With every cached shard dirty (pinned), faulting a new shard
        must not evict the shard it just admitted."""
        _db, path = saved
        lazy, _ = open_lazy(path, cache_lineages=2)
        lazy.get(OID("b0", "rtl", 1)).set("owner", "zoe")
        lazy.get(OID("b1", "rtl", 1)).set("owner", "zoe")
        obj = lazy.get(OID("b2", "rtl", 1))  # cache over-full, all dirty
        assert obj.get("owner") == "bob"
        assert lazy.find(OID("b3", "rtl", 1)) is not None

    def test_eviction_pages_out_links_and_adjacency(self, saved):
        """Clean incident links leave core with their shard (they
        refault by id on demand), keeping link-dense sessions O(window)."""
        _db, path = saved
        lazy, _ = open_lazy(path, cache_lineages=3)
        for index in range(12):
            oid = OID(f"b{index}", "rtl", 1)
            lazy.get(oid)  # fault the shard so LRU pressure builds
            lazy.neighbours(oid, Direction.DOWN)
        stats = lazy.store.stats()
        assert stats["resident_lineages"] <= 3
        assert stats["resident_links"] <= 2 * 3 + 2
        # paged-out adjacency refaults correctly
        pairs = lazy.neighbours(OID("b0", "rtl", 1), Direction.DOWN)
        assert [oid.wire() for _l, oid in pairs] == ["b0,gate,1"]

    def test_links_scan_after_eviction_sees_every_link(self, saved):
        db, path = saved
        lazy, _ = open_lazy(path, cache_lineages=4)
        assert len(list(lazy.links())) == db.link_count
        for index in range(12):  # page every shard through the LRU
            for view in VIEWS:
                lazy.get(OID(f"b{index}", view, 1))
        assert lazy.store.evictions > 0
        assert len(list(lazy.links())) == db.link_count == lazy.link_count

    def test_unflushed_link_survives_adjacency_eviction(self, saved):
        """A link created this session whose endpoint shard is evicted
        must reappear when the endpoint's adjacency refaults (it has no
        disk row yet)."""
        _db, path = saved
        lazy, _ = open_lazy(path, cache_lineages=30)
        link = lazy.add_link(OID("b0", "layout", 1), OID("b5", "layout", 1))
        # force (b0, layout) and its adjacency out of core
        lazy.store._evict(("b0", "layout"))
        pairs = lazy.neighbours(OID("b0", "layout", 1), Direction.DOWN)
        assert [l.link_id for l, _o in pairs] == [link.link_id]

    def test_windowed_flush_keeps_out_of_window_configurations(self, tmp_path):
        from repro.metadb.configurations import Configuration, ConfigurationRegistry

        db = build_db(4)
        registry = ConfigurationRegistry(db)
        registry.save(
            Configuration(
                name="all-rtl",
                oids=frozenset(OID(f"b{i}", "rtl", 1) for i in range(4)),
                created_clock=db.clock,
            )
        )
        path = save_database(db, tmp_path / "cfg.sqlite", registry)
        lazy, lazy_registry = open_lazy(path, blocks={"b0"})
        assert lazy_registry.get("all-rtl").oids == {OID("b0", "rtl", 1)}
        lazy.get(OID("b0", "rtl", 1)).set("owner", "zoe")
        lazy.flush(lazy_registry)
        lazy.close()
        _full, full_registry = load_database(path)
        # the windowed session did not strip the other members
        assert full_registry.get("all-rtl").oids == frozenset(
            OID(f"b{i}", "rtl", 1) for i in range(4)
        )

    def test_configurations_drop_removed_links_like_a_full_load(self, tmp_path):
        from repro.metadb.configurations import Configuration, ConfigurationRegistry

        db = build_db(2)
        registry = ConfigurationRegistry(db)
        registry.save(
            Configuration(
                name="snap",
                oids=frozenset([OID("b0", "rtl", 1)]),
                link_ids=frozenset([1, 2]),
                created_clock=db.clock,
            )
        )
        db.remove_link(1)
        path = save_database(db, tmp_path / "cfg.sqlite", registry)
        _full, full_registry = load_database(path)
        _lazy, lazy_registry = open_lazy(path)
        assert full_registry.get("snap").link_ids == frozenset([2])
        assert lazy_registry.get("snap").link_ids == frozenset([2])

    def test_configurations_keep_links_past_one_query_chunk(self, tmp_path):
        from repro.metadb.configurations import Configuration, ConfigurationRegistry

        db = build_db(400)  # 800 links: more ids than one IN (...) chunk
        registry = ConfigurationRegistry(db)
        registry.save(Configuration.snapshot(db, "all"))
        db.remove_link(700)
        path = save_database(db, tmp_path / "cfg.sqlite", registry)
        _lazy, lazy_registry = open_lazy(path)
        assert lazy_registry.get("all").link_ids == frozenset(range(1, 801)) - {700}
        _window, window_registry = open_lazy(path, blocks={"b0", "b399"})
        assert window_registry.get("all").link_ids == {1, 2, 799, 800}

    def test_window_counts_follow_a_flush(self, saved):
        _db, path = saved
        window, _ = open_lazy(path, blocks={"b0", "b1"})
        assert (window.object_count, window.link_count) == (6, 4)
        window.create_object(OID("b0", "rtl", 2))
        window.add_link(OID("b0", "rtl", 2), OID("b1", "rtl", 1))
        window.remove_link(1)
        assert (window.object_count, window.link_count) == (7, 4)
        window.flush()
        assert (window.object_count, window.link_count) == (7, 4)
        window.close()
        reopened, _ = open_lazy(path, blocks={"b0", "b1"})
        assert (reopened.object_count, reopened.link_count) == (7, 4)
        assert len(list(reopened.links())) == 4

    def test_open_lazy_error_closes_connection(self, tmp_path):
        import sqlite3

        db = build_db(2)
        path = save_database(db, tmp_path / "old.sqlite")
        connection = sqlite3.connect(path)
        connection.execute("UPDATE meta SET value = '99' WHERE key = 'format'")
        connection.commit()
        connection.close()
        with pytest.raises(PersistenceError, match="unsupported format"):
            open_lazy(path)
        # the failed open left no live handle: the file can be rewritten
        save_database(build_db(1), path)
        reopened, _ = open_lazy(path)
        assert reopened.object_count == len(VIEWS)
