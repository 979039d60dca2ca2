"""E8 — meta-database persistence at scale (extension).

The 1995 DAMOCLES server persisted its meta-database; ours must survive
process restarts too.  The experiment measures save/load round-trips as
the database grows and asserts losslessness (double round-trip is a
fixed point) and index integrity after load.
"""

import pytest

from repro.analysis.reporting import ExperimentReport
from repro.core.blueprint import Blueprint
from repro.core.engine import BlueprintEngine
from repro.flows.generators import chain_blueprint_source
from repro.metadb.database import MetaDatabase
from repro.metadb.oid import OID
from repro.metadb.persistence import (
    database_from_dict,
    database_to_dict,
    load_database,
    save_database,
)


def build(n_blocks: int, chain: int = 5) -> MetaDatabase:
    db = MetaDatabase(name="persist")
    BlueprintEngine(
        db, Blueprint.from_source(chain_blueprint_source(chain)), trace_limit=0
    )
    for block in range(n_blocks):
        for view in range(chain):
            db.create_object(OID(f"b{block}", f"v{view}", 1))
    return db


@pytest.mark.parametrize("n_blocks", [20, 200])
def test_e8_save_scaling(benchmark, n_blocks, tmp_path, report_printer):
    db = build(n_blocks)
    path = tmp_path / "db.json"
    benchmark(save_database, db, path)
    size = path.stat().st_size
    report = ExperimentReport("E8", "persistence")
    report.add_table(
        ["objects", "links", "file bytes"],
        [(db.object_count, db.link_count, size)],
    )
    report_printer(report)


@pytest.mark.parametrize("n_blocks", [20, 200])
def test_e8_load_scaling(benchmark, n_blocks, tmp_path):
    db = build(n_blocks)
    path = save_database(db, tmp_path / "db.json")
    loaded, _registry = benchmark(load_database, path)
    assert loaded.object_count == db.object_count
    assert loaded.check_integrity() == []


def test_e8_round_trip_fixed_point():
    db = build(50)
    first = database_to_dict(db)
    loaded, registry = database_from_dict(first)
    assert database_to_dict(loaded, registry)["objects"] == first["objects"]
    assert database_to_dict(loaded, registry)["links"] == first["links"]


@pytest.mark.parametrize("n_blocks", [20, 200])
def test_e8_sqlite_save_scaling(benchmark, n_blocks, tmp_path, report_printer):
    db = build(n_blocks)
    path = tmp_path / "db.sqlite"
    benchmark(save_database, db, path)
    report = ExperimentReport("E8b", "sqlite persistence")
    report.add_table(
        ["objects", "links", "file bytes"],
        [(db.object_count, db.link_count, path.stat().st_size)],
    )
    report_printer(report)


@pytest.mark.parametrize("n_blocks", [20, 200])
def test_e8_sqlite_load_scaling(benchmark, n_blocks, tmp_path):
    db = build(n_blocks)
    path = save_database(db, tmp_path / "db.sqlite")
    loaded, _registry = benchmark(load_database, path)
    assert loaded.object_count == db.object_count
    assert loaded.check_integrity() == []


@pytest.mark.parametrize("n_blocks", [200])
def test_e8_sqlite_partial_load(benchmark, n_blocks, tmp_path, report_printer):
    """A one-view window (one view out of five) opens and materialises
    its objects: the win sharding builds on — load cost follows the
    window, not the database."""

    def open_window() -> list[OID]:
        window, _registry = load_database(path, views={"v0"})
        try:
            return [obj.oid for obj in window.objects()]  # faults it all in
        finally:
            window.close()

    db = build(n_blocks)
    path = save_database(db, tmp_path / "db.sqlite")
    window_oids = benchmark(open_window)
    assert len(window_oids) == n_blocks
    partial, _registry = load_database(path, views={"v0"})
    assert partial.check_integrity() == []
    report = ExperimentReport("E8c", "sqlite partial load")
    report.add_table(
        ["full objects", "window objects"],
        [(db.object_count, len(window_oids))],
    )
    report_printer(report)
    partial.close()


def test_e8_cross_backend_round_trip(tmp_path):
    """A database saved by the JSON backend survives SQLite and returns
    unchanged (the cross-backend equivalence acceptance criterion)."""
    db = build(50)
    json_path = save_database(db, tmp_path / "db.json")
    from_json, json_registry = load_database(json_path)
    sqlite_path = save_database(from_json, tmp_path / "db.sqlite", json_registry)
    from_sqlite, sqlite_registry = load_database(sqlite_path)
    assert database_to_dict(from_sqlite, sqlite_registry) == database_to_dict(
        from_json, json_registry
    )
