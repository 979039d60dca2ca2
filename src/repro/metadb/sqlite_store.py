"""SQLite persistence backend with persisted indexes and lazy windows.

Where the JSON backend writes one blob and rebuilds everything on load,
this backend normalises the meta-database into relational tables and
persists the secondary-index structure as SQL indexes:

* ``objects(block, view, version, ...)`` — indexed by block and by view
  (the on-disk image of the in-memory by_block / by_view indexes);
* ``properties(block, view, version, name, value, value_type)`` — one row
  per property, indexed on ``(name, value)`` so an on-disk "all stale
  layout views" query is an index seek, not a file parse;
* ``links(...)`` — indexed by source and dest (the adjacency index);
* ``configurations(...)`` — registry snapshots as JSON columns.

That normalisation is what lets :meth:`SqliteBackend.open_lazy` serve a
demand-faulting database, optionally restricted to a **block/view
window**: a project with a hundred thousand objects opens just the
blocks or views a tool run touches, with links restricted to those
whose both endpoints are inside and configurations intersected with the
window, and saving it back writes only what changed, so the rest of the
file stays as it was.  :meth:`SqliteBackend.load` materialises the
whole database; both read the ``meta`` header and the configurations
through the same two readers.

Property values are stored as ``(value_type, text)`` pairs so booleans,
ints, floats and strings round-trip losslessly through SQL ``TEXT``.

Every save runs :func:`write_back`, which writes the rows a
:class:`~repro.metadb.store.ChangeSet` names in one transaction.  The
lazy store's ``flush``, and a ``save`` of an eager database back to the
file it was fully loaded from (its *anchor*, matched by device, inode,
size and modification time), write only the recorded changes in place.
Any other save is a full save: every row, into a fresh ``<file>.tmp``
that is made durable and then renamed over the target, so a failed or
killed save leaves the old file intact.
"""

from __future__ import annotations

import json
import os
import sqlite3
from pathlib import Path
from typing import Callable, Iterable

from repro.metadb.configurations import Configuration, ConfigurationRegistry
from repro.metadb.database import MetaDatabase
from repro.metadb.errors import PersistenceError
from repro.metadb.links import LinkClass
from repro.metadb.oid import OID
from repro.metadb.store import (
    DEFAULT_CACHE_LINEAGES,
    ChangeSet,
    LazySqliteStore,
    _decode_value,
    _encode_value,
)

FORMAT_VERSION = 1

_SCHEMA = """
CREATE TABLE meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE objects (
    block          TEXT NOT NULL,
    view           TEXT NOT NULL,
    version        INTEGER NOT NULL,
    created_seq    INTEGER NOT NULL,
    checked_out_by TEXT,
    PRIMARY KEY (block, view, version)
);
CREATE INDEX idx_objects_block ON objects(block);
CREATE INDEX idx_objects_view  ON objects(view);
CREATE TABLE properties (
    block      TEXT NOT NULL,
    view       TEXT NOT NULL,
    version    INTEGER NOT NULL,
    name       TEXT NOT NULL,
    value      TEXT NOT NULL,
    value_type TEXT NOT NULL,
    PRIMARY KEY (block, view, version, name)
);
CREATE INDEX idx_properties_name_value ON properties(name, value);
CREATE TABLE links (
    id         INTEGER PRIMARY KEY,
    src_block  TEXT NOT NULL,
    src_view   TEXT NOT NULL,
    src_version INTEGER NOT NULL,
    dst_block  TEXT NOT NULL,
    dst_view   TEXT NOT NULL,
    dst_version INTEGER NOT NULL,
    class      TEXT NOT NULL,
    propagates TEXT NOT NULL,
    type       TEXT,
    move       INTEGER NOT NULL
);
CREATE INDEX idx_links_source ON links(src_block, src_view, src_version);
CREATE INDEX idx_links_dest   ON links(dst_block, dst_view, dst_version);
CREATE TABLE configurations (
    name          TEXT PRIMARY KEY,
    description   TEXT NOT NULL,
    created_clock INTEGER NOT NULL,
    oids          TEXT NOT NULL,
    link_ids      TEXT NOT NULL
);
"""


def _meta_rows(db: MetaDatabase) -> list[tuple[str, str]]:
    return [
        ("format", str(FORMAT_VERSION)),
        ("name", db.name),
        # The logical clock and link-id counter are database state, not
        # derivable from the rows: losing them on a round-trip reused
        # link ids and regressed the clock (configurations compare
        # created_clock).
        ("clock", str(db.clock)),
        ("next_link_id", str(db._next_link_id)),
        # Journal watermark: recovery replays WAL entries strictly after
        # this seq (see repro.network.wal).  It travels in the same
        # transaction as the data it vouches for, so a crash between the
        # save and the journal truncation replays only what it missed.
        ("wal_seq", str(db.wal_seq)),
    ]


def _property_row(oid: OID, name: str, value) -> tuple:
    value_type, text = _encode_value(value)
    return (oid.block, oid.view, oid.version, name, text, value_type)


def _link_row(link) -> tuple:
    return (
        link.link_id,
        link.source.block, link.source.view, link.source.version,
        link.dest.block, link.dest.view, link.dest.version,
        link.link_class.value,
        json.dumps(sorted(link.propagates)),
        link.link_type,
        1 if link.move else 0,
    )


def configuration_rows(registry: ConfigurationRegistry | None) -> list[tuple]:
    """The ``configurations`` table rows for *registry* (none for None)."""
    if registry is None:
        return []
    rows = []
    for name in registry.names():
        config = registry.get(name)
        rows.append(
            (
                config.name,
                config.description,
                config.created_clock,
                json.dumps(sorted(oid.wire() for oid in config.oids)),
                json.dumps(sorted(config.link_ids)),
            )
        )
    return rows


def _read_header(connection: sqlite3.Connection) -> tuple[str, int, int, int]:
    """Check the format and read the name, the clock, the next link id
    and the journal watermark.

    A file written before the clock and the link-id counter were stored
    gets the smallest safe values: no new object stamped below an
    existing one, no existing link id reused.
    """
    meta = dict(connection.execute("SELECT key, value FROM meta"))
    if meta.get("format") != str(FORMAT_VERSION):
        raise PersistenceError(
            f"unsupported format version {meta.get('format')!r} "
            f"(expected {FORMAT_VERSION})"
        )
    if "clock" in meta:
        clock = int(meta["clock"])
    else:
        (clock,) = connection.execute(
            "SELECT COALESCE(MAX(created_seq), 0) FROM objects"
        ).fetchone()
    if "next_link_id" in meta:
        next_link_id = int(meta["next_link_id"])
    else:
        (max_id,) = connection.execute(
            "SELECT COALESCE(MAX(id), 0) FROM links"
        ).fetchone()
        next_link_id = max_id + 1
    name = meta.get("name", "project")
    return name, clock, next_link_id, int(meta.get("wal_seq", 0))


def _read_configurations(
    connection: sqlite3.Connection,
    db: MetaDatabase,
    stored_objects: Callable[[Iterable[OID]], Iterable[OID]],
    stored_links: Callable[[list[int]], Iterable[int]],
) -> ConfigurationRegistry:
    """The stored configurations, each intersected with what *db* holds:
    only the OIDs *stored_objects* returns and the link ids
    *stored_links* returns are kept."""
    registry = ConfigurationRegistry(db)
    for name, description, created_clock, oids_text, link_ids_text in (
        connection.execute(
            "SELECT name, description, created_clock, oids, link_ids "
            "FROM configurations ORDER BY name"
        ).fetchall()
    ):
        registry.save(
            Configuration(
                name=name,
                description=description,
                oids=frozenset(
                    stored_objects(map(OID.parse, json.loads(oids_text)))
                ),
                link_ids=frozenset(stored_links(json.loads(link_ids_text))),
                created_clock=created_clock,
            )
        )
    return registry


_OID_WHERE = "block = ? AND view = ? AND version = ?"


def write_back(
    connection: sqlite3.Connection,
    db: MetaDatabase,
    changes: ChangeSet,
    configurations: Iterable[tuple] | None,
) -> None:
    """Write the rows *changes* names, in one SQL transaction.

    Upserts or deletes each changed object, property and link row from
    the database's current in-memory state, refreshes ``meta`` (clock,
    next link id, journal watermark) and, unless *configurations* is
    None, replaces the ``configurations`` table with those rows.  Reads
    go straight to the resident maps (``dict.get``), never faulting: a
    lazy store pins every shard with changes.  The caller clears
    *changes* once this returns; a failure rolls the transaction back
    and leaves them recorded for the next write-back.
    """
    objects, links = db._objects, db._links
    cleared, removed, object_rows, property_rows = [], [], [], []
    for oid in changes.objects:
        key = (oid.block, oid.view, oid.version)
        cleared.append(key)
        obj = dict.get(objects, oid)
        if obj is None:
            removed.append(key)
        else:
            object_rows.append((*key, obj.created_seq, obj.checked_out_by))
            for name, value in obj.properties.items():
                property_rows.append(_property_row(oid, name, value))
    dropped = []
    for oid, name in changes.properties:
        if oid in changes.objects:
            continue  # rewritten whole above
        obj = dict.get(objects, oid)
        if obj is not None and name in obj.properties:
            property_rows.append(_property_row(oid, name, obj.properties[name]))
        else:
            dropped.append((oid.block, oid.view, oid.version, name))
    link_rows, unlinked = [], []
    for link_id in changes.links:
        link = dict.get(links, link_id)
        if link is None:
            unlinked.append((link_id,))
        else:
            link_rows.append(_link_row(link))
    with connection:
        connection.executemany(
            "INSERT OR REPLACE INTO meta VALUES (?, ?)", _meta_rows(db)
        )
        connection.executemany(f"DELETE FROM properties WHERE {_OID_WHERE}", cleared)
        connection.executemany(f"DELETE FROM objects WHERE {_OID_WHERE}", removed)
        connection.executemany(
            f"DELETE FROM properties WHERE {_OID_WHERE} AND name = ?", dropped
        )
        connection.executemany(
            "INSERT OR REPLACE INTO objects VALUES (?, ?, ?, ?, ?)", object_rows
        )
        connection.executemany(
            "INSERT OR REPLACE INTO properties VALUES (?, ?, ?, ?, ?, ?)",
            property_rows,
        )
        connection.executemany("DELETE FROM links WHERE id = ?", unlinked)
        connection.executemany(
            "INSERT OR REPLACE INTO links VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            link_rows,
        )
        if configurations is not None:
            connection.execute("DELETE FROM configurations")
            connection.executemany(
                "INSERT INTO configurations VALUES (?, ?, ?, ?, ?)", configurations
            )


class _Anchor:
    """The SQLite file an eager database mirrors, and the write-back
    connection kept open between saves.

    The file is identified by ``(st_dev, st_ino, st_size, st_mtime_ns)``
    as of the last load or save through this anchor: a different inode
    means the path was replaced, a different size or time that someone
    else wrote to it — either way the recorded changes no longer
    describe the difference, and the next save must rewrite in full.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.identity = self._identity(path)
        self.connection: sqlite3.Connection | None = None

    @staticmethod
    def _identity(path: Path) -> tuple[int, int, int, int] | None:
        try:
            stat = os.stat(path)
        except OSError:
            return None
        return (stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns)

    def holds(self, path: Path) -> bool:
        return self.identity is not None and self._identity(path) == self.identity

    def write_back(self, db: MetaDatabase, changes: ChangeSet, registry) -> None:
        if self.connection is None:
            # The server checkpoints from whichever thread holds its
            # write lock; saves are serialised by that lock.
            self.connection = sqlite3.connect(self.path, check_same_thread=False)
        write_back(self.connection, db, changes, configuration_rows(registry))
        changes.clear()
        self.identity = self._identity(self.path)

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None


def _set_anchor(db: MetaDatabase, anchor: _Anchor) -> None:
    """Anchor an eager *db* to a file that holds exactly its state, and
    record its changes from here on."""
    store = db.store
    if store.anchor is not None:
        store.anchor.close()
    store.anchor = anchor
    store.changes = ChangeSet()


class SqliteBackend:
    """The SQLite store (see module docstring)."""

    # ------------------------------------------------------------------
    # save
    # ------------------------------------------------------------------

    def save(
        self,
        db: MetaDatabase,
        path: Path | str,
        registry: ConfigurationRegistry | None = None,
    ) -> Path:
        path = Path(path)
        store = db.store
        if store.lazy:
            if path.exists() and path.resolve() == store.path.resolve():
                # Saving a lazy database back to its own backing file
                # writes back its changes; a full rewrite would first
                # fault the whole database in.
                store.flush(registry)
                return path
        elif store.anchor is not None and store.anchor.holds(path):
            store.anchor.write_back(db, store.changes, registry)
            return path
        self._save_full(db, path, registry)
        if not store.lazy and store.anchor is not None:
            _set_anchor(db, _Anchor(path))
        return path

    def _save_full(
        self,
        db: MetaDatabase,
        path: Path,
        registry: ConfigurationRegistry | None,
    ) -> None:
        """Rewrite *path* from scratch, atomically.

        The new file is built and committed as ``<path>.tmp``, fsync'd,
        then renamed over *path*: a save that fails or is killed partway
        leaves the old file loadable (the journal only covers entries
        since the last checkpoint, so losing the file would lose data).
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.unlink(missing_ok=True)  # leftover of an earlier failed save
        try:
            connection = sqlite3.connect(tmp)
            try:
                connection.executescript(_SCHEMA)
                # Into an empty file, "everything changed" is the whole
                # database: the one write-back routine writes it.
                everything = ChangeSet()
                everything.objects.update(db.oids())
                everything.links.update(link.link_id for link in db.links())
                write_back(connection, db, everything, configuration_rows(registry))
            finally:
                connection.close()
            fd = os.open(tmp, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    # ------------------------------------------------------------------
    # load
    # ------------------------------------------------------------------

    def load(self, path: Path | str) -> tuple[MetaDatabase, ConfigurationRegistry]:
        """Load the full database (indexes rebuild via normal mutators),
        anchored to *path* so a save back to it writes only the changes.

        The result is byte-identical (via ``database_to_dict``) to what
        the JSON backend reconstructs.  A block/view window opens through
        :meth:`open_lazy` instead.
        """
        path = Path(path)
        if not path.exists():
            raise PersistenceError(f"no database file at {path}")
        # Identify the file before reading it: a write racing the load
        # then fails the anchor check and forces a full save.
        anchor = _Anchor(path)
        connection = sqlite3.connect(path)
        try:
            db, registry = self._load(connection)
        except sqlite3.DatabaseError as exc:
            raise PersistenceError(f"corrupt database file {path}: {exc}") from exc
        finally:
            connection.close()
        _set_anchor(db, anchor)
        return db, registry

    def _load(
        self, connection: sqlite3.Connection
    ) -> tuple[MetaDatabase, ConfigurationRegistry]:
        name, clock, next_link_id, wal_seq = _read_header(connection)
        db = MetaDatabase(name=name)
        rows = connection.execute(
            "SELECT block, view, version, created_seq, checked_out_by "
            "FROM objects ORDER BY block, view, version"
        ).fetchall()
        for block, view, version, created_seq, checked_out_by in rows:
            obj = db.create_object(OID(block, view, version), fire_hooks=False)
            obj.created_seq = created_seq
            obj.checked_out_by = checked_out_by
        prop_rows = connection.execute(
            "SELECT block, view, version, name, value, value_type FROM properties"
        ).fetchall()
        for block, view, version, name, text, value_type in prop_rows:
            obj = db.find(OID(block, view, version))
            if obj is not None:
                obj.set(name, _decode_value(value_type, text))

        link_rows = connection.execute(
            "SELECT id, src_block, src_view, src_version, "
            "dst_block, dst_view, dst_version, class, propagates, type, move "
            "FROM links ORDER BY id"
        ).fetchall()
        for (link_id, sb, sv, sn, tb, tv, tn, link_class, propagates, link_type,
             move) in link_rows:
            source = OID(sb, sv, sn)
            dest = OID(tb, tv, tn)
            if source not in db or dest not in db:
                continue  # a link row whose endpoint row is gone
            db._load_link(
                link_id,
                source,
                dest,
                LinkClass(link_class),
                propagates=json.loads(propagates),
                link_type=link_type,
                move=bool(move),
            )

        registry = _read_configurations(
            connection,
            db,
            lambda oids: [oid for oid in oids if oid in db],
            lambda link_ids: [i for i in link_ids if i in db._links],
        )
        # ``max``: the load's own mutations may have advanced them.
        db._seq = max(db._seq, clock)
        db._next_link_id = max(db._next_link_id, next_link_id)
        db.wal_seq = wal_seq
        return db, registry

    # ------------------------------------------------------------------
    # lazy open
    # ------------------------------------------------------------------

    def open_lazy(
        self,
        path: Path | str,
        *,
        blocks: set[str] | None = None,
        views: set[str] | None = None,
        cache_lineages: int = DEFAULT_CACHE_LINEAGES,
    ) -> tuple[MetaDatabase, ConfigurationRegistry]:
        """A demand-faulting database over *path* (O(window) footprint).

        Nothing is materialised up front: objects, properties and link
        adjacency fault in on first touch, sharded by ``(block, view)``,
        and volume queries answer for the non-resident remainder by SQL
        pushdown.  *blocks* / *views* restrict the faultable window:
        objects outside it behave as absent, links need both endpoints
        inside, and configurations are intersected with it.
        *cache_lineages* bounds resident clean shards (LRU).  Mutations
        write back on ``db.flush()`` / ``db.close()`` or a
        ``save_database`` to the same path, which touches no row outside
        the window.
        """
        path = Path(path)
        store = LazySqliteStore(
            path, blocks=blocks, views=views, cache_lineages=cache_lineages
        )
        try:
            return self._open_lazy(store)
        except Exception:
            store._closed = True  # release the connection, skip the flush
            store._connection.close()
            raise

    def _open_lazy(
        self, store: LazySqliteStore
    ) -> tuple[MetaDatabase, ConfigurationRegistry]:
        path = store.path
        try:
            connection = store._connection
            name, clock, next_link_id, wal_seq = _read_header(connection)
            db = MetaDatabase(name=name, store=store)
            db._seq, db._next_link_id, db.wal_seq = clock, next_link_id, wal_seq
            # No-fault probes keep a big configuration from paging the
            # window full at open time.
            registry = _read_configurations(
                connection, db, store.stored_objects, store.stored_links
            )
            if store.blocks is not None or store.views is not None:
                # What the window may save back (see LazySqliteStore.flush).
                store.window_configurations = configuration_rows(registry)
            return db, registry
        except sqlite3.DatabaseError as exc:
            raise PersistenceError(f"corrupt database file {path}: {exc}") from exc
