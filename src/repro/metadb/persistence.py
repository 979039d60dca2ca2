"""Persistence for the meta-database: one way in and out of a project file.

The 1995 DAMOCLES server kept its meta-database in a proprietary store;
this one keeps it in one of two file formats, and the path suffix alone
picks which:

* ``.sqlite`` / ``.sqlite3`` / ``.db`` —
  :class:`~repro.metadb.sqlite_store.SqliteBackend`, a SQLite database
  that also persists the secondary indexes (as SQL indexes over a
  properties table) and opens lazily, optionally over a window of
  selected blocks/views;
* anything else — :class:`JsonBackend`, a single documented JSON file;
  human-diffable, version-controllable test fixtures (the original seed
  format).

``save_database`` / ``load_database`` are the one-call entry points.
The JSON format is versioned; loading an unknown version fails loudly
rather than guessing.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.metadb.configurations import Configuration, ConfigurationRegistry
from repro.metadb.database import MetaDatabase
from repro.metadb.errors import PersistenceError
from repro.metadb.links import LinkClass
from repro.metadb.oid import OID
from repro.metadb.sqlite_store import SqliteBackend
from repro.metadb.store import DEFAULT_CACHE_LINEAGES

FORMAT_VERSION = 1


def database_to_dict(
    db: MetaDatabase, registry: ConfigurationRegistry | None = None
) -> dict:
    """Serialise *db* (and optionally its configurations) to plain data."""
    objects = []
    for obj in sorted(db.objects(), key=lambda o: o.oid.sort_key()):
        objects.append(
            {
                "oid": obj.oid.wire(),
                "properties": obj.properties.as_dict(),
                "created_seq": obj.created_seq,
                "checked_out_by": obj.checked_out_by,
            }
        )
    links = []
    for link in sorted(db.links(), key=lambda l: l.link_id):
        links.append(
            {
                "id": link.link_id,
                "source": link.source.wire(),
                "dest": link.dest.wire(),
                "class": link.link_class.value,
                "propagates": sorted(link.propagates),
                "type": link.link_type,
                "move": link.move,
            }
        )
    configurations = []
    if registry is not None:
        for name in registry.names():
            config = registry.get(name)
            configurations.append(
                {
                    "name": config.name,
                    "description": config.description,
                    "oids": sorted(oid.wire() for oid in config.oids),
                    "link_ids": sorted(config.link_ids),
                    "created_clock": config.created_clock,
                }
            )
    return {
        "format": FORMAT_VERSION,
        "name": db.name,
        # Counters that are database state, not derivable from the rows:
        # dropping them on a round-trip reused link ids after deletions
        # and regressed the logical clock configurations compare by.
        "clock": db.clock,
        "next_link_id": db._next_link_id,
        "wal_seq": db.wal_seq,
        "objects": objects,
        "links": links,
        "configurations": configurations,
    }


def database_from_dict(
    data: dict,
) -> tuple[MetaDatabase, ConfigurationRegistry]:
    """Rebuild a database (and configuration registry) from plain data.

    Creation hooks do **not** fire during a load: the stored state already
    reflects every template application, so re-firing would double-apply
    blueprint rules.  Secondary indexes rebuild as a side effect of the
    normal mutators, so a loaded database is fully indexed.  Links keep
    their persisted ids, exactly as the lazy SQLite store serves them.
    """
    if not isinstance(data, dict):
        raise PersistenceError("database file must contain a JSON object")
    if data.get("format") != FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported format version {data.get('format')!r} "
            f"(expected {FORMAT_VERSION})"
        )
    db = MetaDatabase(name=data.get("name", "project"))
    try:
        for record in data["objects"]:
            obj = db.create_object(
                OID.parse(record["oid"]),
                record.get("properties") or {},
                fire_hooks=False,
            )
            obj.created_seq = record.get("created_seq", obj.created_seq)
            obj.checked_out_by = record.get("checked_out_by")
        for record in data["links"]:
            db._load_link(
                record.get("id"),
                OID.parse(record["source"]),
                OID.parse(record["dest"]),
                LinkClass(record["class"]),
                propagates=record.get("propagates", ()),
                link_type=record.get("type"),
                move=record.get("move", False),
            )
        registry = ConfigurationRegistry(db)
        for record in data.get("configurations", ()):
            registry.save(
                Configuration(
                    name=record["name"],
                    description=record.get("description", ""),
                    oids=frozenset(
                        OID.parse(text) for text in record.get("oids", ())
                    ),
                    link_ids=frozenset(
                        link_id
                        for link_id in record.get("link_ids", ())
                        if link_id in db._links
                    ),
                    created_clock=record.get("created_clock", 0),
                )
            )
    except KeyError as exc:
        raise PersistenceError(f"missing field in database file: {exc}") from exc
    # Restore persisted counters; ``max`` keeps files from before they
    # were stored (where replayed mutations already advanced them) valid.
    db._seq = max(db._seq, int(data.get("clock", 0)))
    db._next_link_id = max(db._next_link_id, int(data.get("next_link_id", 1)))
    db.wal_seq = int(data.get("wal_seq", 0))
    return db, registry


# ---------------------------------------------------------------------------
# stores
# ---------------------------------------------------------------------------


class JsonBackend:
    """The single-JSON-file store (the original seed format)."""

    def save(
        self,
        db: MetaDatabase,
        path: Path | str,
        registry: ConfigurationRegistry | None = None,
    ) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = database_to_dict(db, registry)
        # Atomic replace: a process killed mid-save (checkpoint under
        # fault injection, power loss) must leave either the old file or
        # the new one, never a truncated half-write.
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, indent=2, sort_keys=True))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return path

    def load(self, path: Path | str) -> tuple[MetaDatabase, ConfigurationRegistry]:
        path = Path(path)
        if not path.exists():
            raise PersistenceError(f"no database file at {path}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise PersistenceError(f"corrupt database file {path}: {exc}") from exc
        return database_from_dict(data)


#: Path suffixes that name a SQLite file; anything else is JSON.
SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")


def _is_sqlite(path: Path | str) -> bool:
    return Path(path).suffix.lower() in SQLITE_SUFFIXES


# ---------------------------------------------------------------------------
# one-call entry points
# ---------------------------------------------------------------------------


def save_database(
    db: MetaDatabase,
    path: Path | str,
    registry: ConfigurationRegistry | None = None,
) -> Path:
    """Write *db* to *path* in the store its suffix names; returns the
    path written."""
    store = SqliteBackend() if _is_sqlite(path) else JsonBackend()
    return store.save(db, path, registry)


def load_database(
    path: Path | str,
    *,
    lazy: bool = False,
    blocks: set[str] | None = None,
    views: set[str] | None = None,
    cache_lineages: int = DEFAULT_CACHE_LINEAGES,
) -> tuple[MetaDatabase, ConfigurationRegistry]:
    """Load a database previously written by :func:`save_database`.

    ``lazy=True`` opens a demand-faulting database over the SQLite
    store (objects page in on first touch, O(window) footprint)
    instead of materialising everything.  A *blocks* / *views* window
    always opens that way: only the window faults in, links need both
    endpoints inside it, configurations are intersected with it, and a
    save back to the same file writes only the changes, leaving every
    row outside the window as it was.  Lazy opens need a SQLite path
    and fail loudly otherwise.
    """
    eager = not lazy and blocks is None and views is None
    if not _is_sqlite(path):
        if not eager:
            raise PersistenceError(
                f"{path} cannot open lazily (demand faulting and block/view "
                f"windows need a SQLite file: {', '.join(SQLITE_SUFFIXES)})"
            )
        return JsonBackend().load(path)
    if eager:
        return SqliteBackend().load(path)
    return SqliteBackend().open_lazy(
        path, blocks=blocks, views=views, cache_lineages=cache_lineages
    )
