"""Three-way store equivalence: eager-JSON vs eager-SQLite vs lazy-SQLite.

Extends the PR-2 indexed-vs-scan harness one level down: the *same*
randomized mutation/query script runs against a database loaded eagerly
from JSON, eagerly from SQLite, and lazily from SQLite, and all three
must produce identical query results, stale sets, and clean
``check_integrity()`` — plus byte-identical ``select(force_scan=True)``
output, which bypasses every index and pushdown.

All three loaders keep the persisted link ids, so link ids are compared
too.  The write-back tests at the end run a randomized mutation mix
against eager and lazy SQLite databases, interleaved with write-backs
(one of them failing inside its transaction), and check every reload
against an in-memory twin that ran the same script.  The window tests
open random block/view windows and compare each with the eager full
load filtered to it, before and after a save back over the same file.
"""

import random
import sqlite3

import pytest

from repro.metadb.configurations import Configuration, ConfigurationRegistry
from repro.metadb.database import MetaDatabase
from repro.metadb.errors import DuplicateLinkError
from repro.metadb.links import LinkClass
from repro.metadb.oid import OID
from repro.metadb.persistence import (
    database_from_dict,
    database_to_dict,
    load_database,
    save_database,
)
from repro.core.state import find_objects
from repro.metadb.query import Query, stale_objects, view_census
from repro.testing.faults import FaultyConnection, SqliteFaultPlan

VIEWS = ("rtl", "gate", "layout")
OWNERS = ("ana", "bob", "cho")


def seeded_db(rng: random.Random, n_blocks: int = 18) -> MetaDatabase:
    db = MetaDatabase(name="equiv")
    for index in range(n_blocks):
        block = f"b{index}"
        for view in VIEWS:
            for version in range(1, rng.randrange(2, 4)):
                db.create_object(
                    OID(block, view, version),
                    {
                        "uptodate": rng.random() < 0.5,
                        "owner": rng.choice(OWNERS),
                        "score": rng.randrange(4),
                    },
                )
    oids = list(db.oids())
    for _ in range(n_blocks):
        source, dest = rng.sample(oids, 2)
        try:
            db.add_link(source, dest, LinkClass.DERIVE, propagates=("outofdate",))
        except Exception:
            pass  # duplicate pair: skip
    return db


def mutate(db: MetaDatabase, rng: random.Random) -> None:
    """One deterministic mutation script (same rng seed → same script)."""
    oids = sorted(db.oids())
    for oid in oids:
        roll = rng.random()
        if roll < 0.25:
            db.get(oid).set("uptodate", not db.get(oid).get("uptodate"))
        elif roll < 0.35:
            db.get(oid).set("owner", rng.choice(OWNERS))
        elif roll < 0.42:
            db.get(oid).set("score", rng.randrange(6))
        elif roll < 0.47 and db.find(oid) is not None:
            db.remove_object(oid)
    survivors = sorted(db.oids())
    for _ in range(5):
        source, dest = rng.sample(survivors, 2)
        try:
            db.add_link(source, dest, LinkClass.DERIVE)
        except Exception:
            pass
    block = f"n{rng.randrange(100)}"
    db.create_object(OID(block, "rtl", 1), {"uptodate": False, "owner": "new"})


def merged_lookups(db: MetaDatabase) -> list:
    """The index lookups that answer for resident and on-disk rows alike,
    reached without a scan so a lazy store still has rows on disk."""
    blocks = sorted({block for view in VIEWS for block in db.blocks_of_view(view)})
    lineages = [(block, view) for block in blocks for view in db.views_of_block(block)]
    return [
        view_census(db),
        {view: db.blocks_of_view(view) for view in VIEWS},
        {block: db.views_of_block(block) for block in blocks},
        [o.oid for o in find_objects(db, "$view == gate and $owner == bob")],
        db.stats()["stale"],
        [db.latest_version(*lineage).oid for lineage in lineages],
    ]


def query_battery(db: MetaDatabase) -> list:
    """Observable behaviour: everything equivalence is judged on."""
    results = merged_lookups(db)
    queries = [
        Query(db).view("rtl"),
        Query(db).block("b3"),
        Query(db).where_property("uptodate", False),
        Query(db).where_property("uptodate", False).latest_only(),
        Query(db).view("gate").where_property("owner", "bob"),
        Query(db).where_property("score", 2).latest_only(),
        Query(db).where(lambda obj: obj.version >= 2).view("layout"),
    ]
    for query in queries:
        selected = query.select()
        results.append([obj.oid for obj in selected])
        assert [o.oid for o in query.select(force_scan=True)] == [
            o.oid for o in selected
        ]
    results.append([obj.oid for obj in stale_objects(db)])
    results.append(sorted(db.stale_set()))
    results.append(sorted((o.oid, tuple(sorted(o.properties.items()))) for o in db.objects()))
    results.append(
        sorted(
            (l.link_id, l.source, l.dest, l.link_class.value,
             tuple(sorted(l.propagates)))
            for l in db.links()
        )
    )
    assert db.check_integrity() == []
    return results


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_three_way_equivalence(seed, tmp_path):
    rng = random.Random(seed)
    base = seeded_db(rng)
    json_path = save_database(base, tmp_path / "db.json")
    sqlite_path = save_database(base, tmp_path / "db.sqlite")

    eager_json, _ = load_database(json_path)
    eager_sqlite, _ = load_database(sqlite_path)
    lazy_sqlite, _ = load_database(sqlite_path, lazy=True)
    lazy_tiny, _ = load_database(sqlite_path, lazy=True, cache_lineages=3)

    reference = None
    for db in (eager_json, eager_sqlite, lazy_sqlite, lazy_tiny):
        mutate(db, random.Random(seed + 1000))  # identical script each time
        observed = query_battery(db)
        if reference is None:
            reference = observed
        else:
            assert observed == reference


@pytest.mark.parametrize("seed", [0, 1])
def test_lazy_with_eviction_pressure_is_equivalent(seed, tmp_path):
    """A tiny LRU window (constant thrash) must not change any answer."""
    rng = random.Random(seed)
    base = seeded_db(rng)
    path = save_database(base, tmp_path / "db.sqlite")
    eager, _ = load_database(path)
    lazy, _ = load_database(path, lazy=True, cache_lineages=3)
    queries = [
        lambda d: [o.oid for o in stale_objects(d)],
        lambda d: [o.oid for o in Query(d).where_property("owner", "ana").select()],
        lambda d: [o.oid for o in Query(d).view("gate").latest_only().select()],
        lambda d: sorted(d.stale_set()),
        merged_lookups,
    ]
    for _ in range(3):  # repeat: answers must survive evict/refault cycles
        for query in queries:
            assert query(lazy) == query(eager)


@pytest.mark.parametrize("seed", [0, 1])
def test_flush_round_trip_equivalence(seed, tmp_path):
    """Mutating lazily + flushing equals mutating eagerly + saving."""
    rng = random.Random(seed)
    base = seeded_db(rng)
    path_a = save_database(base, tmp_path / "a.sqlite")
    path_b = save_database(base, tmp_path / "b.sqlite")

    eager, eager_registry = load_database(path_a)
    mutate(eager, random.Random(seed + 7))
    save_database(eager, path_a, eager_registry)

    lazy, lazy_registry = load_database(path_b, lazy=True)
    mutate(lazy, random.Random(seed + 7))
    save_database(lazy, path_b, lazy_registry)
    lazy.close()

    from_a, _ = load_database(path_a)
    from_b, _ = load_database(path_b)
    assert query_battery(from_a) == query_battery(from_b)


# ---------------------------------------------------------------------------
# randomized write-back equivalence
# ---------------------------------------------------------------------------


class MutationScript:
    """A seeded mutation mix over a database's rows.

    Targets are drawn from the script's own bookkeeping (``oids``, and
    ``link_ids`` copied from the in-memory twin, the last database
    given), never from a scan of a database under test, so a lazy store
    keeps faulting and evicting; the same seed drives the same mutations
    on every database it runs against.
    """

    def __init__(self, base: MetaDatabase, seed: int) -> None:
        self.rng = random.Random(seed)
        self.oids = sorted(base.oids())
        self.link_ids = sorted(link.link_id for link in base.links())
        self.created = 0

    def run(self, dbs: list[MetaDatabase], steps: int) -> None:
        for _ in range(steps):
            kind = self.rng.choice(self.KINDS)
            choices = [self.rng.random() for _ in range(4)]
            for db in dbs:
                getattr(self, kind)(db, choices)
            self.after(kind, choices)
            self.link_ids = sorted(link.link_id for link in dbs[-1].links())

    KINDS = (
        "set_property", "set_property", "set_property", "delete_property",
        "create_object", "remove_object", "add_link", "remove_link",
        "retarget_link", "touch", "rolled_back",
    )

    def _pick(self, items: list, roll: float):
        return items[int(roll * len(items))]

    def set_property(self, db, c):
        obj = db.get(self._pick(self.oids, c[0]))
        name = self._pick(["uptodate", "owner", "score"], c[1])
        value = {"uptodate": c[2] < 0.5, "owner": self._pick(OWNERS, c[2]),
                 "score": int(c[2] * 6)}[name]
        obj.set(name, value)

    def delete_property(self, db, c):
        obj = db.get(self._pick(self.oids, c[0]))
        if "score" in obj.properties:
            obj.properties.delete("score")

    def create_object(self, db, c):
        db.create_object(
            OID(f"n{self.created}", self._pick(VIEWS, c[0]), 1),
            {"uptodate": c[1] < 0.5, "owner": "new"},
        )

    def remove_object(self, db, c):
        if len(self.oids) > 8:
            db.remove_object(self._pick(self.oids, c[0]))

    def add_link(self, db, c):
        source, dest = self._pick(self.oids, c[0]), self._pick(self.oids, c[1])
        if source != dest:
            try:
                db.add_link(source, dest, LinkClass.DERIVE, move=c[2] < 0.5)
            except DuplicateLinkError:
                pass

    def remove_link(self, db, c):
        if self.link_ids:
            db.remove_link(self._pick(self.link_ids, c[0]))

    def retarget_link(self, db, c):
        if self.link_ids:
            link = db.get_link(self._pick(self.link_ids, c[0]))
            dest = self._pick(self.oids, c[1])
            if dest != link.source:
                try:
                    db.retarget_link(link.link_id, dest=dest)
                except DuplicateLinkError:
                    pass

    def touch(self, db, c):
        oid = self._pick(self.oids, c[0])
        db.get(oid).checked_out_by = None if c[1] < 0.3 else "zoe"
        db.touch(oid)

    def rolled_back(self, db, c):
        with pytest.raises(RuntimeError):
            with db.transaction():
                self.set_property(db, c)
                self.create_object(db, [c[3], c[2], c[1], c[0]])
                self.retarget_link(db, c[::-1])
                raise RuntimeError("abort")

    def after(self, kind, c):
        """Mirror the mutation in the script's own bookkeeping."""
        if kind == "create_object":
            self.oids.append(OID(f"n{self.created}", self._pick(VIEWS, c[0]), 1))
            self.oids.sort()
            self.created += 1
        elif kind == "rolled_back":
            self.created += 1  # the aborted create used the name up
        elif kind == "remove_object" and len(self.oids) > 8:
            self.oids.remove(self._pick(self.oids, c[0]))


def write_back(db, path, registry) -> None:
    if db.lazy:
        db.flush(registry)
    else:
        save_database(db, path, registry)


def write_back_connection(db):
    """The connection a write-back of *db* runs on (opened if needed)."""
    if db.lazy:
        return db.store._connection
    anchor = db.store.anchor
    if anchor.connection is None:
        anchor.connection = sqlite3.connect(anchor.path, check_same_thread=False)
    return anchor.connection


def reload_dict(path) -> dict:
    reloaded, _ = load_database(path)
    assert reloaded.check_integrity() == []
    return database_to_dict(reloaded)


@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_randomized_write_back_equivalence(lazy, seed, tmp_path):
    base = seeded_db(random.Random(seed))
    path = save_database(base, tmp_path / "db.sqlite")
    if lazy:
        db, registry = load_database(path, lazy=True, cache_lineages=4)
    else:
        db, registry = load_database(path)
    twin, _ = database_from_dict(database_to_dict(base))
    script = MutationScript(base, seed + 500)
    for round_index in range(6):
        script.run([db, twin], 25)
        db.wal_seq = twin.wal_seq = round_index + 1
        if round_index == 3:
            # A write-back that fails inside its transaction: the file
            # keeps the previous write-back's state, the changes stay
            # recorded, and the next write-back is still complete.
            before = reload_dict(path)
            connection = write_back_connection(db)
            faulty = FaultyConnection(
                connection, SqliteFaultPlan(fail_matching="INTO links")
            )
            if lazy:
                db.store._connection = faulty
            else:
                db.store.anchor.connection = faulty
            with pytest.raises(sqlite3.OperationalError):
                write_back(db, path, registry)
            if lazy:
                db.store._connection = connection
            else:
                db.store.anchor.connection = connection
            assert faulty.plan.raised == 1
            assert reload_dict(path) == before
            continue
        write_back(db, path, registry)
        assert reload_dict(path) == database_to_dict(twin)
    assert database_to_dict(db) == database_to_dict(twin)
    assert db.check_integrity() == []
    db.close()


# ---------------------------------------------------------------------------
# block/view windows
# ---------------------------------------------------------------------------


def seeded_configurations(
    db: MetaDatabase, rng: random.Random
) -> ConfigurationRegistry:
    registry = ConfigurationRegistry(db)
    oids = sorted(db.oids())
    link_ids = sorted(link.link_id for link in db.links())
    for index in range(3):
        registry.save(
            Configuration(
                name=f"cfg{index}",
                oids=frozenset(rng.sample(oids, len(oids) // 3)),
                link_ids=frozenset(rng.sample(link_ids, len(link_ids) // 2)),
                created_clock=rng.randrange(db.clock + 1),
            )
        )
    return registry


def random_window(db: MetaDatabase, rng: random.Random):
    """A random ``(blocks, views)`` window; at least one is not None."""
    blocks = sorted({oid.block for oid in db.oids()})
    shape = rng.choice(("blocks", "views", "both"))
    chosen_blocks = chosen_views = None
    if shape in ("blocks", "both"):
        chosen_blocks = set(rng.sample(blocks, rng.randrange(1, len(blocks) // 2)))
    if shape in ("views", "both"):
        chosen_views = set(rng.sample(VIEWS, rng.randrange(1, len(VIEWS))))
    return chosen_blocks, chosen_views


def object_rows(db: MetaDatabase, inside) -> list:
    return sorted(
        (o.oid, tuple(sorted(o.properties.items())), o.created_seq, o.checked_out_by)
        for o in db.objects()
        if inside(o.oid)
    )


def link_rows(db: MetaDatabase, inside) -> list:
    return sorted(
        (l.link_id, l.source, l.dest, l.link_class.value,
         tuple(sorted(l.propagates)), l.link_type, l.move)
        for l in db.links()
        if inside(l.source) and inside(l.dest)
    )


def configuration_sets(registry: ConfigurationRegistry, inside, link_ids) -> dict:
    """Each configuration's members inside the window."""
    return {
        name: (
            frozenset(oid for oid in config.oids if inside(oid)),
            config.link_ids & link_ids,
            config.created_clock,
        )
        for name, config in ((name, registry.get(name)) for name in registry.names())
    }


@pytest.mark.parametrize("seed", range(6))
def test_window_equals_filtered_full_load(seed, tmp_path):
    """A random block/view window equals the eager full load filtered to
    it, and saving the window back after one write inside it keeps
    every row outside the window."""
    rng = random.Random(seed)
    base = seeded_db(rng)
    path = save_database(
        base, tmp_path / "db.sqlite", seeded_configurations(base, rng)
    )
    blocks, views = random_window(base, rng)

    def inside(oid: OID) -> bool:
        return (blocks is None or oid.block in blocks) and (
            views is None or oid.view in views
        )

    full, full_registry = load_database(path)
    window, window_registry = load_database(path, blocks=blocks, views=views)
    assert window.lazy
    assert object_rows(window, lambda oid: True) == object_rows(full, inside)
    assert link_rows(window, lambda oid: True) == link_rows(full, inside)
    window_links = {row[0] for row in link_rows(full, inside)}
    assert configuration_sets(
        window_registry, lambda oid: True, window_links
    ) == configuration_sets(full_registry, inside, window_links)
    assert window.check_integrity() == []

    # One write inside the window, applied to both, then saved back.
    target = rng.choice([oid for oid in sorted(full.oids()) if inside(oid)])
    value = rng.randrange(100, 200)
    for db in (window, full):
        db.get(target).set("score", value)
    save_database(window, path, window_registry)
    window.close()
    reloaded, reloaded_registry = load_database(path)
    assert reloaded.check_integrity() == []
    assert database_to_dict(reloaded, reloaded_registry) == database_to_dict(
        full, full_registry
    )
