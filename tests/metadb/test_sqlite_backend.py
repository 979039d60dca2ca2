"""The SQLite persistence backend: round-trips, cross-backend
equivalence, block/view windows, persisted index structure."""

import json
import sqlite3

import pytest

from repro.core.blueprint import Blueprint
from repro.core.engine import BlueprintEngine
from repro.core.policy import PhasePolicy, ProjectPhase, loosen_blueprint
from repro.flows.generators import chain_blueprint_source
from repro.metadb.configurations import Configuration, ConfigurationRegistry
from repro.metadb.database import MetaDatabase
from repro.metadb.errors import PersistenceError
from repro.metadb.links import LinkClass
from repro.metadb.oid import OID
from repro.metadb.persistence import (
    backend_for_path,
    database_to_dict,
    get_backend,
    load_database,
    save_database,
)
from repro.metadb.sqlite_store import SqliteBackend


@pytest.fixture
def db():
    db = MetaDatabase(name="sq")
    rtl = db.create_object(
        OID("cpu", "rtl", 1),
        {"uptodate": True, "iterations": 3, "score": 0.5, "owner": "ana"},
    )
    gate = db.create_object(OID("cpu", "gate", 1), {"uptodate": False})
    db.create_object(OID("cpu", "rtl", 2), {"uptodate": False})
    db.create_object(OID("mem", "rtl", 1), {"uptodate": True})
    db.add_link(
        rtl.oid, gate.oid, propagates=["outofdate", "lvs"],
        link_type="derive_from", move=True,
    )
    db.add_link(OID("cpu", "rtl", 2), OID("mem", "rtl", 1), LinkClass.USE)
    db.get(rtl.oid).checked_out_by = "bob"
    return db


@pytest.fixture
def registry(db):
    registry = ConfigurationRegistry(db)
    registry.save(
        Configuration(
            name="snap",
            description="test snapshot",
            oids=frozenset([OID("cpu", "rtl", 1), OID("cpu", "gate", 1)]),
            link_ids=frozenset([1]),
            created_clock=4,
        )
    )
    return registry


class TestRoundTrip:
    def test_save_load_lossless(self, db, registry, tmp_path):
        path = save_database(db, tmp_path / "db.sqlite", registry)
        loaded, loaded_registry = load_database(path)
        assert database_to_dict(loaded, loaded_registry) == database_to_dict(
            db, registry
        )
        assert loaded.check_integrity() == []

    def test_value_types_survive(self, db, tmp_path):
        path = save_database(db, tmp_path / "db.sqlite")
        loaded, _ = load_database(path)
        obj = loaded.get(OID("cpu", "rtl", 1))
        assert obj.get("uptodate") is True
        assert obj.get("iterations") == 3 and isinstance(obj.get("iterations"), int)
        assert obj.get("score") == 0.5 and isinstance(obj.get("score"), float)
        assert obj.get("owner") == "ana"

    def test_loaded_database_is_fully_indexed(self, db, tmp_path):
        path = save_database(db, tmp_path / "db.sqlite")
        loaded, _ = load_database(path)
        assert loaded.stale_set() == {OID("cpu", "gate", 1), OID("cpu", "rtl", 2)}

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(PersistenceError, match="no database file"):
            load_database(tmp_path / "absent.sqlite")

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "bad.sqlite"
        path.write_text("this is not sqlite")
        with pytest.raises(PersistenceError):
            load_database(path)

    def test_save_overwrites_previous_file(self, db, tmp_path):
        path = save_database(db, tmp_path / "db.sqlite")
        small = MetaDatabase(name="small")
        small.create_object(OID("x", "v", 1))
        save_database(small, path)
        loaded, _ = load_database(path)
        assert loaded.object_count == 1


class TestCrossBackend:
    def test_json_saved_database_round_trips_through_sqlite(
        self, db, registry, tmp_path
    ):
        """Acceptance criterion: the SQLite backend round-trips a database
        saved by the JSON backend."""
        json_path = save_database(db, tmp_path / "db.json", registry)
        from_json, json_registry = load_database(json_path)
        sqlite_path = save_database(from_json, tmp_path / "db.sqlite", json_registry)
        from_sqlite, sqlite_registry = load_database(sqlite_path)
        assert database_to_dict(from_sqlite, sqlite_registry) == database_to_dict(
            from_json, json_registry
        )

    def test_sqlite_to_json_direction(self, db, registry, tmp_path):
        sqlite_path = save_database(db, tmp_path / "db.sqlite", registry)
        from_sqlite, sqlite_registry = load_database(sqlite_path)
        json_path = save_database(from_sqlite, tmp_path / "db.json", sqlite_registry)
        from_json, json_registry = load_database(json_path)
        assert database_to_dict(from_json, json_registry) == database_to_dict(
            from_sqlite, sqlite_registry
        )

    def test_suffix_dispatch(self, tmp_path):
        assert backend_for_path(tmp_path / "a.json").name == "json"
        assert backend_for_path(tmp_path / "a.sqlite").name == "sqlite"
        assert backend_for_path(tmp_path / "a.db").name == "sqlite"
        assert backend_for_path(tmp_path / "a.unknown").name == "json"

    def test_explicit_backend_overrides_suffix(self, db, tmp_path):
        path = save_database(db, tmp_path / "oddly.named", backend="sqlite")
        loaded, _ = load_database(path, backend="sqlite")
        assert loaded.object_count == db.object_count

    def test_unknown_backend_name(self, tmp_path):
        with pytest.raises(PersistenceError, match="unknown persistence backend"):
            get_backend("oracle95")

    def test_cli_convert(self, db, registry, tmp_path):
        from repro.cli import main

        json_path = str(tmp_path / "db.json")
        sqlite_path = str(tmp_path / "db.sqlite")
        save_database(db, json_path, registry)
        assert main(["convert", json_path, sqlite_path]) == 0
        loaded, loaded_registry = load_database(sqlite_path)
        assert loaded.object_count == db.object_count
        assert loaded_registry.names() == registry.names()


class TestPartialLoad:
    """A block/view window opens lazily through ``load_database``."""

    def test_load_single_view(self, db, tmp_path):
        path = save_database(db, tmp_path / "db.sqlite")
        partial, _ = load_database(path, views={"rtl"})
        assert partial.lazy
        assert sorted(oid.view for oid in partial.oids()) == ["rtl", "rtl", "rtl"]
        # the rtl->rtl use link survives; the rtl->gate derive link cannot
        assert partial.link_count == 1
        assert partial.check_integrity() == []

    def test_load_single_block(self, db, tmp_path):
        path = save_database(db, tmp_path / "db.sqlite")
        partial, _ = load_database(path, blocks={"mem"})
        assert [oid.block for oid in partial.oids()] == ["mem"]
        assert partial.link_count == 0

    def test_configurations_intersect_with_window(self, db, registry, tmp_path):
        path = save_database(db, tmp_path / "db.sqlite", registry)
        partial, partial_registry = load_database(path, views={"rtl"})
        config = partial_registry.get("snap")
        assert config.oids == frozenset([OID("cpu", "rtl", 1)])
        assert config.link_ids == frozenset()

    def test_no_restriction_equals_full_load(self, db, registry, tmp_path):
        path = save_database(db, tmp_path / "db.sqlite", registry)
        full, full_registry = load_database(path)
        partial, partial_registry = load_database(path, lazy=True)
        assert database_to_dict(partial, partial_registry) == database_to_dict(
            full, full_registry
        )

    def test_window_saved_over_its_file_keeps_the_rest(self, db, registry, tmp_path):
        """Saving a window back over its own file writes the window's
        edit and leaves every object, link and configuration outside
        the window as it was."""
        path = save_database(db, tmp_path / "db.sqlite", registry)
        before = database_to_dict(*load_database(path))
        window, window_registry = load_database(path, blocks={"mem"})
        window.get(OID("mem", "rtl", 1)).set("owner", "zoe")
        save_database(window, path, window_registry)
        window.close()
        after = database_to_dict(*load_database(path))
        for record in before["objects"]:
            if record["oid"] == "mem,rtl,1":
                record["properties"]["owner"] = "zoe"
        assert after["objects"] == before["objects"]
        assert after["links"] == before["links"]
        assert after["configurations"] == before["configurations"]

    def test_window_refuses_to_save_changed_configurations(
        self, db, registry, tmp_path
    ):
        """A window holds configurations intersected with it, so it
        cannot write them back: an edited configuration fails the save
        loudly, before anything is written."""
        path = save_database(db, tmp_path / "db.sqlite", registry)
        before = database_to_dict(*load_database(path))
        window, window_registry = load_database(path, blocks={"cpu"})
        window.get(OID("cpu", "gate", 1)).set("owner", "zoe")
        window_registry.replace(
            Configuration(name="snap", oids=frozenset(), created_clock=window.clock)
        )
        with pytest.raises(PersistenceError, match="changed configurations"):
            save_database(window, path, window_registry)
        assert database_to_dict(*load_database(path)) == before
        window.close()

    def test_json_backend_has_no_window(self, db, tmp_path):
        path = save_database(db, tmp_path / "db.json")
        with pytest.raises(PersistenceError, match="cannot open lazily"):
            load_database(path, blocks={"cpu"})


class TestPersistedIndexes:
    def test_sql_indexes_exist(self, db, tmp_path):
        path = save_database(db, tmp_path / "db.sqlite")
        connection = sqlite3.connect(path)
        try:
            names = {
                row[0]
                for row in connection.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'index'"
                )
            }
        finally:
            connection.close()
        assert {
            "idx_objects_block",
            "idx_objects_view",
            "idx_properties_name_value",
            "idx_links_source",
            "idx_links_dest",
        } <= names

    def test_on_disk_stale_query_uses_property_index(self, db, tmp_path):
        """The normalised properties table answers the headline query in
        SQL without materialising the database."""
        path = save_database(db, tmp_path / "db.sqlite")
        connection = sqlite3.connect(path)
        try:
            rows = connection.execute(
                "SELECT block, view, version FROM properties "
                "WHERE name = 'uptodate' AND value = 'false' "
                "ORDER BY block, view, version"
            ).fetchall()
            plan = connection.execute(
                "EXPLAIN QUERY PLAN SELECT block FROM properties "
                "WHERE name = 'uptodate' AND value = 'false'"
            ).fetchall()
        finally:
            connection.close()
        assert rows == [("cpu", "gate", 1), ("cpu", "rtl", 2)]
        assert any("idx_properties_name_value" in str(row) for row in plan)

    def test_links_json_columns_decode(self, db, tmp_path):
        path = save_database(db, tmp_path / "db.sqlite")
        connection = sqlite3.connect(path)
        try:
            propagates = connection.execute(
                "SELECT propagates FROM links WHERE id = 1"
            ).fetchone()[0]
        finally:
            connection.close()
        assert json.loads(propagates) == ["lvs", "outofdate"]


class TestPersistedCounters:
    """Regression: the logical clock and link-id counter are database
    state; dropping them on a round-trip reused link ids after deletions
    and regressed ``created_clock`` comparisons."""

    def test_clock_survives_round_trip(self, db, tmp_path):
        path = save_database(db, tmp_path / "db.sqlite")
        loaded, _ = load_database(path)
        assert loaded.clock == db.clock

    def test_link_ids_not_reused_after_deletion_round_trip(self, tmp_path):
        db = MetaDatabase()
        a = db.create_object(OID("a", "v", 1))
        b = db.create_object(OID("b", "v", 1))
        c = db.create_object(OID("c", "v", 1))
        db.add_link(a.oid, b.oid)
        doomed = db.add_link(b.oid, c.oid)
        db.add_link(a.oid, c.oid)
        db.remove_link(doomed.link_id)
        next_id = db._next_link_id
        path = save_database(db, tmp_path / "db.sqlite")
        loaded, _ = load_database(path)
        fresh = loaded.add_link(OID("c", "v", 1), OID("b", "v", 1))
        assert fresh.link_id >= next_id

    def test_convert_round_trip_preserves_counters(self, db, registry, tmp_path):
        """JSON -> SQLite -> JSON via the CLI convert command."""
        from repro.cli import main

        json_path = str(tmp_path / "db.json")
        sqlite_path = str(tmp_path / "db.sqlite")
        back_path = str(tmp_path / "back.json")
        save_database(db, json_path, registry)
        assert main(["convert", json_path, sqlite_path]) == 0
        assert main(["convert", sqlite_path, back_path]) == 0
        final, _ = load_database(back_path)
        assert final.clock == db.clock
        assert final._next_link_id >= db._next_link_id

    def test_json_backend_preserves_counters_too(self, db, tmp_path):
        path = save_database(db, tmp_path / "db.json")
        loaded, _ = load_database(path)
        assert loaded.clock == db.clock
        assert loaded._next_link_id >= db._next_link_id

    def test_pre_fix_sqlite_file_still_loads(self, db, tmp_path):
        """Files written before the counters were stored load with
        best-effort values (no crash, no id reuse below the max)."""
        path = save_database(db, tmp_path / "db.sqlite")
        connection = sqlite3.connect(path)
        connection.execute(
            "DELETE FROM meta WHERE key IN ('clock', 'next_link_id')"
        )
        connection.commit()
        connection.close()
        loaded, _ = load_database(path)
        assert loaded.check_integrity() == []
        lazy, _ = SqliteBackend().open_lazy(path)
        max_id = max(link.link_id for link in lazy.links())
        assert lazy.add_link(
            OID("mem", "rtl", 1), OID("cpu", "gate", 1)
        ).link_id == max_id + 1


class TestAtomicSave:
    def test_failed_full_save_keeps_the_old_file(self, db, tmp_path, monkeypatch):
        import repro.metadb.sqlite_store as sqlite_store

        path = save_database(db, tmp_path / "db.sqlite")
        before = database_to_dict(load_database(path)[0])
        db.get(OID("cpu", "rtl", 1)).set("owner", "zoe")
        calls = []
        real_encode = sqlite_store._encode_value

        def failing_encode(value):
            calls.append(value)
            if len(calls) == 3:
                raise RuntimeError("disk full")
            return real_encode(value)

        monkeypatch.setattr(sqlite_store, "_encode_value", failing_encode)
        with pytest.raises(RuntimeError, match="disk full"):
            save_database(db, path)  # an in-memory database: a full save
        monkeypatch.undo()
        assert database_to_dict(load_database(path)[0]) == before
        assert not (tmp_path / "db.sqlite.tmp").exists()

    def test_full_save_replaces_the_file(self, db, tmp_path):
        path = save_database(db, tmp_path / "db.sqlite")
        inode = path.stat().st_ino
        save_database(db, path)
        assert path.stat().st_ino != inode  # renamed over, not rewritten
        assert load_database(path)[0].object_count == db.object_count


class TestAnchoredWriteBack:
    """An eager database fully loaded from SQLite writes back only its
    recorded changes when saved to that same file."""

    def test_in_memory_database_records_nothing(self, db, tmp_path):
        assert db.store.changes is None
        save_database(db, tmp_path / "db.sqlite")
        assert db.store.changes is None  # saving does not anchor it

    def test_partial_load_is_not_anchored(self, db, tmp_path):
        """A window is lazy: it writes back through its own store, never
        through an anchor that would look like the whole database."""
        path = save_database(db, tmp_path / "db.sqlite")
        partial, _ = load_database(path, blocks={"cpu"})
        assert partial.lazy
        assert getattr(partial.store, "anchor", None) is None
        assert partial.store.blocks == frozenset({"cpu"})

    def test_save_back_writes_in_place(self, db, registry, tmp_path):
        path = save_database(db, tmp_path / "db.sqlite", registry)
        loaded, loaded_registry = load_database(path)
        changes = loaded.store.changes
        loaded.get(OID("cpu", "rtl", 1)).set("owner", "zoe")
        loaded.get(OID("cpu", "rtl", 1)).properties.delete("score")
        loaded.create_object(OID("io", "rtl", 1), {"uptodate": False})
        loaded.remove_link(2)
        loaded.wal_seq = 9
        assert changes.properties == {
            (OID("cpu", "rtl", 1), "owner"), (OID("cpu", "rtl", 1), "score"),
        }
        assert changes.objects == {OID("io", "rtl", 1)}
        assert changes.links == {2}
        inode = path.stat().st_ino
        save_database(loaded, path, loaded_registry)
        assert path.stat().st_ino == inode
        assert not (changes.properties or changes.objects or changes.links)
        again, again_registry = load_database(path)
        assert database_to_dict(again, again_registry) == database_to_dict(
            loaded, loaded_registry
        )
        assert again.wal_seq == 9

    def test_replaced_file_gets_a_full_rewrite(self, db, tmp_path):
        path = save_database(db, tmp_path / "db.sqlite")
        loaded, _ = load_database(path)
        other = MetaDatabase(name="other")
        other.create_object(OID("x", "v", 1))
        save_database(other, path)  # replaced behind loaded's back
        loaded.get(OID("mem", "rtl", 1)).set("uptodate", False)
        save_database(loaded, path)
        assert database_to_dict(load_database(path)[0]) == database_to_dict(loaded)

    def test_saving_elsewhere_re_anchors(self, db, tmp_path):
        first = save_database(db, tmp_path / "a.sqlite")
        loaded, _ = load_database(first)
        loaded.get(OID("mem", "rtl", 1)).set("uptodate", False)
        second = save_database(loaded, tmp_path / "b.sqlite")
        assert loaded.store.anchor.path == second
        loaded.get(OID("cpu", "gate", 1)).set("uptodate", True)
        inode = second.stat().st_ino
        save_database(loaded, second)
        assert second.stat().st_ino == inode
        save_database(loaded, first)  # no longer the anchor: full rewrite
        for path in (first, second):
            assert database_to_dict(load_database(path)[0]) == database_to_dict(
                loaded
            )


def test_link_ids_with_gaps_load_identically(tmp_path):
    """Eager JSON, eager SQLite and lazy SQLite serve the stored ids."""
    db = MetaDatabase()
    for name in "abcd":
        db.create_object(OID(name, "v", 1))
    doomed = db.add_link(OID("a", "v", 1), OID("b", "v", 1))
    db.add_link(OID("b", "v", 1), OID("c", "v", 1))
    db.add_link(OID("c", "v", 1), OID("d", "v", 1))
    db.remove_link(doomed.link_id)
    registry = ConfigurationRegistry(db)
    registry.save(
        Configuration(name="snap", oids=frozenset(db.oids()),
                      link_ids=frozenset([2, 3]), created_clock=db.clock)
    )
    expected = sorted((l.link_id, l.source, l.dest) for l in db.links())
    assert [row[0] for row in expected] == [2, 3]
    json_path = save_database(db, tmp_path / "db.json", registry)
    sqlite_path = save_database(db, tmp_path / "db.sqlite", registry)
    for loaded, loaded_registry in (
        load_database(json_path),
        load_database(sqlite_path),
        load_database(sqlite_path, lazy=True),
    ):
        assert sorted((l.link_id, l.source, l.dest) for l in loaded.links()) == expected
        assert loaded_registry.get("snap").link_ids == frozenset([2, 3])
        assert loaded.add_link(OID("d", "v", 1), OID("a", "v", 1)).link_id == 4


@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
def test_phase_switch_propagate_lists_are_written_back(lazy, tmp_path):
    """A phase switch re-derives PROPAGATE lists by editing links in
    place; the write-back must store the new lists, and a lazy store
    must not evict an edited link and fault its old row back."""
    strict = Blueprint.from_source(chain_blueprint_source(3))
    loose = loosen_blueprint(strict, block_events={"outofdate"})
    db = MetaDatabase()
    BlueprintEngine(db, strict)
    for block in range(6):
        for view in range(3):
            db.create_object(OID(f"b{block}", f"v{view}", 1))
    assert db.link_count == 12
    path = save_database(db, tmp_path / "db.sqlite")
    if lazy:
        loaded, registry = load_database(path, lazy=True, cache_lineages=2)
    else:
        loaded, registry = load_database(path)
    phases = PhasePolicy().add_phase(ProjectPhase("bringup", loose))
    phases.switch_to("bringup", BlueprintEngine(loaded, strict), loaded)
    for oid in sorted(db.oids()):
        loaded.get(oid)  # cycle the lazy window past every shard
    assert all(not link.propagates for link in loaded.links())
    expected = database_to_dict(loaded, registry)
    inode = path.stat().st_ino
    if lazy:
        loaded.flush(registry)
    else:
        save_database(loaded, path, registry)
    assert path.stat().st_ino == inode  # written back in place
    assert database_to_dict(*load_database(path)) == expected
    loaded.close()
