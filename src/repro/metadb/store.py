"""Object stores: the residency layer underneath :class:`MetaDatabase`.

The database's mutators and indexes were written against five plain
dicts (objects, links, outgoing/incoming adjacency, lineages).  This
module turns that implicit contract into the **ObjectStore protocol**:

* :class:`InMemoryStore` — the default; adopts the database's plain
  dicts untouched, so the eager path keeps today's semantics (and cost)
  byte for byte;
* :class:`LazySqliteStore` — a demand-faulting store over the SQLite
  backend's normalised tables.  Objects, properties and link adjacency
  are *faulted in on first touch* from the on-disk SQL indexes, in
  shards keyed by ``(block, view)`` — one lineage at a time — so a
  change wave over one subsystem never pages in the rest of the chip.

Faulting invariants (the pushdown layer and the equivalence tests both
lean on these):

1. **Residency is all-or-nothing per lineage.**  A lineage is either
   fully resident (every version, with properties, indexed) or fully
   on disk.  ``_resident`` is the single source of truth.
2. **Memory is authoritative for resident lineages; SQL for the rest.**
   Dirty shards are pinned (never evicted before :meth:`flush`), so a
   non-resident lineage's disk rows are always current.  This is what
   lets :class:`~repro.metadb.indexes.IndexRegistry` answer every
   lookup (view, block, property value, latest, stale, the block/view
   name lists and the per-view counts) for the whole database as its
   resident buckets ∪ this store's SQL side, which leaves resident
   lineages out.
3. **The observer channel reports logical transitions only.**  Faulting
   a stale object in (or evicting one) moves it between the SQL side
   and the resident side of the stale set without changing the logical
   set, so stale listeners do *not* fire for residency changes — only
   for real property flips.
4. **Full scans pin.**  Iterating ``db.objects()`` (or ``force_scan``
   queries, or ``check_integrity``) materialises everything and
   disables eviction for the rest of the session; the LRU window
   applies to index/pushdown-served workloads, which is where the
   O(window) footprint matters.

Both stores hold a :class:`ChangeSet`: the object, property and link
rows changed since the last write-back.  The database's mutators and
bag observers record into it, and one routine
(:func:`repro.metadb.sqlite_store.write_back`) writes exactly those rows
back in one SQL transaction — on ``flush``/``close`` for the lazy store,
and on a ``save_database`` to the file an eager database was loaded from.
"""

from __future__ import annotations

import sqlite3
import threading
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Protocol, runtime_checkable

from repro.metadb.errors import PersistenceError
from repro.metadb.links import Link, LinkClass
from repro.metadb.objects import MetaObject
from repro.metadb.oid import OID
from repro.metadb.properties import Value

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.metadb.configurations import ConfigurationRegistry
    from repro.metadb.database import MetaDatabase

#: Default bound on concurrently resident lineages in a lazy store.
DEFAULT_CACHE_LINEAGES = 1024


class ChangeSet:
    """The rows changed since the last write-back, keyed the way SQLite
    stores them.

    * ``properties`` — ``(oid, name)`` pairs: upsert the property row,
      or delete it when the name is gone from the bag;
    * ``objects`` — OIDs created, removed, restored by a rollback, or
      touched (check-out): rewrite the object row and all its property
      rows, or delete them when the object is gone;
    * ``links`` — link ids added, removed, restored or retargeted:
      upsert the link row, or delete it.

    Write-back reads the current in-memory state for every key, so a
    change that was later undone (a rolled-back transaction) costs one
    redundant row write, never a wrong one.  Keys hold the database's
    own OID and name objects.  ``shards`` (lazy store only) collects
    the ``(block, view)`` lineages any key touches: their disk rows are
    stale, so the lazy store pins them against eviction.
    """

    __slots__ = ("properties", "objects", "links", "shards")

    def __init__(self, *, track_shards: bool = False) -> None:
        self.properties: set[tuple[OID, str]] = set()
        self.objects: set[OID] = set()
        self.links: set[int] = set()
        self.shards: set[tuple[str, str]] | None = set() if track_shards else None

    def object_changed(self, oid: OID) -> None:
        self.objects.add(oid)
        if self.shards is not None:
            self.shards.add(oid.lineage)

    def property_changed(self, oid: OID, name: str) -> None:
        self.properties.add((oid, name))
        if self.shards is not None:
            self.shards.add(oid.lineage)

    def clear(self) -> None:
        """Forget everything (call only once the write-back committed)."""
        self.properties.clear()
        self.objects.clear()
        self.links.clear()
        if self.shards is not None:
            self.shards.clear()


@runtime_checkable
class ObjectStore(Protocol):
    """What sits between a :class:`MetaDatabase` and its five dicts.

    ``bind`` is called once from ``MetaDatabase.__post_init__``; a lazy
    store replaces the database's maps with faulting views and installs
    itself as the index registry's pushdown provider.  ``changes`` is
    the :class:`ChangeSet` the database records its mutations into, or
    None when nothing needs recording.  ``flush``/``close`` write a lazy
    store's changes back; an eager database writes back through
    ``save_database``.
    """

    name: str
    lazy: bool
    changes: ChangeSet | None

    def bind(self, db: "MetaDatabase") -> None: ...

    def flush(self, registry: "ConfigurationRegistry | None" = None) -> None: ...

    def close(self) -> None: ...


class InMemoryStore:
    """The default store: the database's own dicts, unchanged.

    ``bind`` does nothing, and ``changes`` stays None — so a database
    built in memory pays no per-mutation recording — unless the SQLite
    backend anchors it to the file it was fully loaded from
    (``anchor``); a ``save_database`` to that same file then writes
    back only the recorded changes.
    """

    name = "memory"
    lazy = False

    def __init__(self) -> None:
        self.changes: ChangeSet | None = None
        #: The SQLite file this database mirrors (set by the backend).
        self.anchor = None

    def bind(self, db: "MetaDatabase") -> None:
        pass

    def flush(self, registry: "ConfigurationRegistry | None" = None) -> None:
        pass

    def close(self) -> None:
        """Release the anchor's write-back connection, if one is open."""
        if self.anchor is not None:
            self.anchor.close()


class _FaultingMap(dict):
    """A dict that faults missing entries in from a backing store.

    Lookup misses call *fault_key* (which admits the entry via raw
    ``dict.__setitem__`` if it exists on disk); whole-map operations
    (iteration, ``items``/``keys``/``values``) call *fault_all* first.
    ``__len__`` reports the *logical* size via *length* when given —
    resident plus on-disk — without materialising anything.

    Insertions through the normal mapping protocol invoke the *on_set*
    callback so the store can track residency; the store's own fault
    path writes through ``dict.__setitem__`` and therefore never
    re-enters it.
    """

    def __init__(
        self,
        fault_key: Callable[[object], None],
        fault_all: Callable[[], None],
        length: Callable[[], int] | None = None,
        on_set: Callable[[object, object], None] | None = None,
    ) -> None:
        super().__init__()
        self._fault_key = fault_key
        self._fault_all = fault_all
        self._length = length
        self._on_set = on_set

    # -- lookups fault --------------------------------------------------

    def __missing__(self, key):
        self._fault_key(key)
        if dict.__contains__(self, key):
            return dict.__getitem__(self, key)
        raise KeyError(key)

    def __contains__(self, key) -> bool:
        if dict.__contains__(self, key):
            return True
        self._fault_key(key)
        return dict.__contains__(self, key)

    def get(self, key, default=None):
        try:
            return self[key]
        except KeyError:
            return default

    def setdefault(self, key, default=None):
        if key in self:  # faulting containment
            return dict.__getitem__(self, key)
        self[key] = default
        return default

    def pop(self, key, *default):
        if key in self:  # faulting containment
            value = dict.__getitem__(self, key)
            del self[key]
            return value
        if default:
            return default[0]
        raise KeyError(key)

    # -- mutations ------------------------------------------------------

    def __setitem__(self, key, value) -> None:
        if self._on_set is not None:
            self._on_set(key, value)
        dict.__setitem__(self, key, value)

    def __delitem__(self, key) -> None:
        if key not in self:  # faulting containment
            raise KeyError(key)
        dict.__delitem__(self, key)

    # -- whole-map operations materialise -------------------------------

    def __iter__(self):
        self._fault_all()
        return dict.__iter__(self)

    def keys(self):
        self._fault_all()
        return dict.keys(self)

    def values(self):
        self._fault_all()
        return dict.values(self)

    def items(self):
        self._fault_all()
        return dict.items(self)

    def __len__(self) -> int:
        if self._length is not None:
            return self._length()
        return dict.__len__(self)

    def resident_len(self) -> int:
        """Entries actually in memory (the faulted window)."""
        return dict.__len__(self)


def _encode_value(value: Value) -> tuple[str, str]:
    """(value_type, text) encoding shared with the SQLite backend."""
    if isinstance(value, bool):
        return ("bool", "true" if value else "false")
    if isinstance(value, int):
        return ("int", str(value))
    if isinstance(value, float):
        return ("float", repr(value))
    return ("str", value)


def _decode_value(value_type: str, text: str) -> Value:
    if value_type == "bool":
        return text == "true"
    if value_type == "int":
        return int(text)
    if value_type == "float":
        return float(text)
    if value_type == "str":
        return text
    raise PersistenceError(f"unknown property value type {value_type!r}")


def equal_encodings(value: Value) -> list[tuple[str, str]]:
    """Every on-disk ``(value_type, text)`` encoding that compares equal
    to *value* under Python ``==`` — the query layer's equality.

    The property index buckets by Python equality (``0 == False``,
    ``1 == 1.0``), so a SQL pushdown for ``uptodate == False`` must
    match bool ``false``, int ``0`` and float ``0.0`` rows alike, or it
    would return fewer candidates than the resident index does.
    """
    encodings = [_encode_value(value)]
    if isinstance(value, bool) or (
        isinstance(value, (int, float)) and value in (0, 1)
    ):
        flag = bool(value)
        encodings = [
            ("bool", "true" if flag else "false"),
            ("int", "1" if flag else "0"),
            ("float", repr(1.0 if flag else 0.0)),
        ]
    elif isinstance(value, int):
        encodings.append(("float", repr(float(value))))
    elif isinstance(value, float) and value.is_integer():
        encodings.append(("int", str(int(value))))
    return encodings


def _locked(method):
    """Serialise a LazySqliteStore method on the store's I/O lock.

    Faults mutate the residency bookkeeping *and* read the (single,
    shared) sqlite connection; the project server triggers them from
    concurrent handler threads.  The lock is re-entrant so faults may
    nest (fault-all → fault-lineage).
    """
    import functools

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._io_lock:
            return method(self, *args, **kwargs)

    return wrapper


class LazySqliteStore:
    """Demand-faulting store over a SQLite meta-database file.

    Parameters:
        path: the ``.sqlite`` file written by the SQLite backend.
        blocks / views: optional shard window.  When given, only
            lineages inside the window are faultable — everything else
            behaves as absent, and links need both endpoints inside.
            This is the one way to open a block/view window
            (``load_database(..., blocks=, views=)``); its write-back
            touches no row outside the window.
        cache_lineages: LRU bound on resident *clean* lineages.  Shards
            with recorded changes are pinned until :meth:`flush`; a full
            scan pins everything (see module docstring).
    """

    name = "lazy-sqlite"
    lazy = True

    def __init__(
        self,
        path: Path | str,
        *,
        blocks: Iterable[str] | None = None,
        views: Iterable[str] | None = None,
        cache_lineages: int = DEFAULT_CACHE_LINEAGES,
    ) -> None:
        self.path = Path(path)
        if not self.path.exists():
            raise PersistenceError(f"no database file at {self.path}")
        self.blocks = frozenset(blocks) if blocks is not None else None
        self.views = frozenset(views) if views is not None else None
        self.cache_lineages = cache_lineages
        # The project server faults from its handler threads; sqlite
        # connections are thread-bound unless told otherwise, and all
        # store I/O (plus the residency bookkeeping around it) is
        # serialised by _io_lock instead.
        self._connection = sqlite3.connect(self.path, check_same_thread=False)
        self._io_lock = threading.RLock()
        self.db: "MetaDatabase | None" = None
        self._closed = False
        # residency / changes ----------------------------------------------
        self._resident: dict[tuple[str, str], None] = {}  # insertion = LRU order
        self.changes = ChangeSet(track_shards=True)
        self._adj_resident: set[OID] = set()
        #: Disk link rows now resident (or removed since), with the class
        #: their row holds: the part of the disk counts memory answers.
        self._disk_link_ids_loaded: dict[int, LinkClass] = {}
        self._all_objects = False
        self._all_links = False
        # Disk-side sizes, cached until the next write-back changes them.
        self._disk_sizes: dict[tuple[str, str], int] | None = None
        self._disk_link_classes: dict[LinkClass, int] | None = None
        #: A window's configurations as read at open: the only ones its
        #: flush accepts (set by ``SqliteBackend.open_lazy``).
        self.window_configurations: list[tuple] = []
        # counters (exposed via stats() for benchmarks/diagnostics) --------
        self.faults = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # binding
    # ------------------------------------------------------------------

    def bind(self, db: "MetaDatabase") -> None:
        self.db = db
        self._objects = _FaultingMap(
            lambda key: self._fault_lineage(key.lineage)
            if isinstance(key, OID)
            else None,
            self._fault_all_objects,
            length=self._object_count,
            on_set=self._object_set,
        )
        self._lineages = _FaultingMap(
            self._fault_lineage,
            self._fault_all_objects,
            length=self._lineage_count,
            on_set=self._lineage_set,
        )
        self._links = _FaultingMap(
            self._fault_link,
            self._fault_all_links,
            length=self._link_count,
        )
        self._outgoing = _FaultingMap(self._fault_adjacency, self._fault_all_links)
        self._incoming = _FaultingMap(self._fault_adjacency, self._fault_all_links)
        db._objects = self._objects
        db._lineages = self._lineages
        db._links = self._links
        db._outgoing = self._outgoing
        db._incoming = self._incoming
        db._indexes.pushdown = self

    # ------------------------------------------------------------------
    # window helpers
    # ------------------------------------------------------------------

    def _in_window(self, block: str, view: str) -> bool:
        if self.blocks is not None and block not in self.blocks:
            return False
        if self.views is not None and view not in self.views:
            return False
        return True

    def _window_clause(self, prefix: str = "") -> tuple[str, list[str]]:
        clauses: list[str] = []
        params: list[str] = []
        if self.blocks is not None:
            clauses.append(
                f"{prefix}block IN ({', '.join('?' for _ in self.blocks)})"
            )
            params.extend(sorted(self.blocks))
        if self.views is not None:
            clauses.append(
                f"{prefix}view IN ({', '.join('?' for _ in self.views)})"
            )
            params.extend(sorted(self.views))
        if not clauses:
            return "", []
        return " AND ".join(clauses), params

    def _link_window(self) -> tuple[str, list[str]]:
        """SQL condition for links with both endpoints in the window."""
        src, src_params = self._window_clause("src_")
        dst, dst_params = self._window_clause("dst_")
        clause = f"{src} AND {dst}" if src else ""
        return clause, src_params + dst_params

    # ------------------------------------------------------------------
    # residency callbacks (wired through _FaultingMap)
    # ------------------------------------------------------------------
    #
    # Change recording is the database's job (it writes into
    # ``self.changes``); these only keep residency current when a
    # mutation creates a lineage that was never faulted in.

    def _object_set(self, oid: OID, obj: MetaObject) -> None:
        self._lineage_set(oid.lineage, None)

    def _lineage_set(self, lineage: tuple[str, str], versions) -> None:
        if lineage not in self._resident:
            self._resident[lineage] = None

    # ------------------------------------------------------------------
    # faulting
    # ------------------------------------------------------------------

    def _require_open(self) -> sqlite3.Connection:
        if self._closed:
            raise PersistenceError(f"lazy store over {self.path} is closed")
        return self._connection

    # One row per property (or per bare object), lineage by lineage.
    _OBJECT_ROWS = (
        "SELECT o.block, o.view, o.version, o.created_seq, o.checked_out_by, "
        "p.name, p.value, p.value_type FROM objects o LEFT JOIN properties p "
        "ON p.block = o.block AND p.view = o.view AND p.version = o.version"
    )
    _OBJECT_ORDER = " ORDER BY o.block, o.view, o.version, p.name"

    def _admit_lineages(self, rows) -> None:
        """Make every lineage in *rows* (``_OBJECT_ROWS``, in
        ``_OBJECT_ORDER``) that is not resident yet resident."""
        for lineage, lineage_rows in groupby(rows, key=itemgetter(0, 1)):
            if lineage in self._resident:
                continue
            self.faults += 1
            self._resident[lineage] = None
            admitted: list[MetaObject] = []
            for _, _, version, created_seq, checked_out_by, name, text, value_type in (
                lineage_rows
            ):
                if not admitted or admitted[-1].oid.version != version:
                    obj = MetaObject(
                        oid=OID(*lineage, version), created_seq=created_seq
                    )
                    obj.checked_out_by = checked_out_by
                    dict.__setitem__(self._objects, obj.oid, obj)
                    admitted.append(obj)
                if name is not None:
                    obj.properties.set(name, _decode_value(value_type, text))
            dict.__setitem__(
                self._lineages, lineage, [obj.oid.version for obj in admitted]
            )
            for obj in admitted:
                # Progressive latest (the version itself, ascending),
                # exactly like eager creation order: handing every call
                # the final head would make _set_latest early-return on
                # the head's own admission and skip its stale evaluation.
                self.db._index_faulted(obj, obj.oid.version)
            self._maybe_evict(protect=lineage)

    @_locked
    def _fault_lineage(self, lineage: tuple[str, str]) -> None:
        if lineage in self._resident:
            return
        block, view = lineage
        if not isinstance(block, str) or not isinstance(view, str):
            return  # malformed probe key; nothing on disk to fault
        if not self._in_window(block, view):
            return
        self._admit_lineages(
            self._require_open().execute(
                f"{self._OBJECT_ROWS} WHERE o.block = ? AND o.view = ?"
                f"{self._OBJECT_ORDER}",
                (block, view),
            )
        )

    @_locked
    def _fault_all_objects(self) -> None:
        if self._all_objects:
            return
        self._all_objects = True  # set first: faulting must not re-enter
        clause, params = self._window_clause("o.")
        where = f" WHERE {clause}" if clause else ""
        self._admit_lineages(
            self._require_open().execute(
                f"{self._OBJECT_ROWS}{where}{self._OBJECT_ORDER}", params
            )
        )

    def _build_link(self, row) -> Link:
        import json

        (link_id, sb, sv, sn, tb, tv, tn, link_class, propagates, link_type,
         move) = row
        return Link(
            link_id=link_id,
            source=OID(sb, sv, sn),
            dest=OID(tb, tv, tn),
            link_class=LinkClass(link_class),
            propagates=set(json.loads(propagates)),
            link_type=link_type,
            move=bool(move),
        )

    _LINK_COLUMNS = (
        "id, src_block, src_view, src_version, "
        "dst_block, dst_view, dst_version, class, propagates, type, move"
    )

    def _admit_link_row(self, row) -> Link | None:
        """Materialise one disk link row; the resident instance when
        there is one, None when outside the window or removed since the
        last write-back (changed links are pinned, so a changed id that
        is not resident is a removed one)."""
        link_id = row[0]
        if dict.__contains__(self._links, link_id):
            return dict.__getitem__(self._links, link_id)
        if link_id in self.changes.links:
            return None
        if not (self._in_window(row[1], row[2]) and self._in_window(row[4], row[5])):
            return None
        link = self._build_link(row)
        dict.__setitem__(self._links, link_id, link)
        self._disk_link_ids_loaded[link_id] = link.link_class
        return link

    @_locked
    def _fault_link(self, link_id: int) -> None:
        if not isinstance(link_id, int) or link_id in self.changes.links:
            return  # not resident yet changed: removed since the write-back
        row = self._require_open().execute(
            f"SELECT {self._LINK_COLUMNS} FROM links WHERE id = ?", (link_id,)
        ).fetchone()
        if row is not None:
            self._admit_link_row(row)

    @_locked
    def _fault_adjacency(self, oid: OID) -> None:
        if oid in self._adj_resident or not isinstance(oid, OID):
            return
        if not self._in_window(oid.block, oid.view):
            return
        self._adj_resident.add(oid)
        connection = self._require_open()
        out_ids: set[int] = set()
        in_ids: set[int] = set()
        rows = connection.execute(
            f"SELECT {self._LINK_COLUMNS} FROM links "
            "WHERE (src_block = ? AND src_view = ? AND src_version = ?) "
            "OR (dst_block = ? AND dst_view = ? AND dst_version = ?)",
            (oid.block, oid.view, oid.version) * 2,
        ).fetchall()
        for row in rows:
            link = self._admit_link_row(row)
            if link is None:
                continue
            # Membership follows the live endpoints, not the disk row: a
            # resident link may have been retargeted since it was saved.
            if link.source == oid:
                out_ids.add(link.link_id)
            if link.dest == oid:
                in_ids.add(link.link_id)
        # Changed links may have no current disk row (created or
        # retargeted since the last flush): recover membership from the
        # residents.
        for link_id in self.changes.links:
            link = dict.get(self._links, link_id)
            if link is None:
                continue
            if link.source == oid:
                out_ids.add(link_id)
            if link.dest == oid:
                in_ids.add(link_id)
        dict.__setitem__(self._outgoing, oid, out_ids)
        dict.__setitem__(self._incoming, oid, in_ids)

    @_locked
    def _fault_all_links(self) -> None:
        if self._all_links:
            return
        self._all_links = True
        clause, params = self._link_window()
        where = f" WHERE {clause}" if clause else ""
        for row in self._require_open().execute(
            f"SELECT {self._LINK_COLUMNS} FROM links{where} ORDER BY id", params
        ):
            self._admit_link_row(row)
        # Every link of the window is resident now, so its endpoints'
        # adjacency is complete without asking the disk again.
        for link in list(dict.values(self._links)):
            for oid in (link.source, link.dest):
                if oid not in self._adj_resident:
                    self._adj_resident.add(oid)
                    dict.__setitem__(self._outgoing, oid, set())
                    dict.__setitem__(self._incoming, oid, set())
            dict.__getitem__(self._outgoing, link.source).add(link.link_id)
            dict.__getitem__(self._incoming, link.dest).add(link.link_id)

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------

    def _maybe_evict(self, protect: tuple[str, str] | None = None) -> None:
        if self._all_objects or self.db is None or self.db._txn_log is not None:
            return
        if len(self._resident) <= self.cache_lineages:
            return
        for lineage in list(self._resident):
            if len(self._resident) <= self.cache_lineages:
                break
            if lineage in self.changes.shards:
                continue  # changed shards are pinned until flush
            if lineage == protect:
                # Never evict the shard being faulted in right now: its
                # caller has not read the admitted objects yet (with
                # every older shard dirty, it would otherwise be the
                # next clean victim and the fault would yield nothing).
                continue
            self._evict(lineage)

    def _evict(self, lineage: tuple[str, str]) -> None:
        versions = dict.get(self._lineages, lineage, [])
        objs = []
        for version in versions:
            oid = OID(lineage[0], lineage[1], version)
            obj = dict.get(self._objects, oid)
            if obj is not None:
                objs.append(obj)
        self.db._evict_shard(objs)
        for obj in objs:
            dict.__delitem__(self._objects, obj.oid)
            self._evict_adjacency(obj.oid)
        if dict.__contains__(self._lineages, lineage):
            dict.__delitem__(self._lineages, lineage)
        del self._resident[lineage]
        self.evictions += 1

    def _evict_adjacency(self, oid: OID) -> None:
        """Page out *oid*'s adjacency entries and any clean incident
        links, so link-dense workloads stay O(window) too.

        Changed links are pinned (their disk rows are stale); an
        unchanged link is disk-backed by definition, so dropping it is
        safe even while the other endpoint's adjacency set still names
        its id — ``_links`` refaults individual links by id on access.
        """
        self._adj_resident.discard(oid)
        out_ids = dict.pop(self._outgoing, oid, None) or set()
        in_ids = dict.pop(self._incoming, oid, None) or set()
        changed = self.changes.links
        for link_id in out_ids | in_ids:
            if link_id in changed:
                continue
            if dict.__contains__(self._links, link_id):
                dict.__delitem__(self._links, link_id)
                self._disk_link_ids_loaded.pop(link_id, None)
                self._all_links = False  # the next full scan refaults it

    # ------------------------------------------------------------------
    # logical sizes
    # ------------------------------------------------------------------

    @_locked
    def _disk_lineage_sizes(self) -> dict[tuple[str, str], int]:
        if self._disk_sizes is None:
            clause, params = self._window_clause()
            where = f" WHERE {clause}" if clause else ""
            self._disk_sizes = {
                (block, view): count
                for block, view, count in self._require_open().execute(
                    f"SELECT block, view, COUNT(*) FROM objects{where} "
                    "GROUP BY block, view",
                    params,
                )
            }
        return self._disk_sizes

    def _object_count(self) -> int:
        if self._all_objects:  # the whole window is resident
            return dict.__len__(self._objects)
        sizes = self._disk_lineage_sizes()
        return dict.__len__(self._objects) + sum(sizes.values()) - sum(
            sizes.get(lineage, 0) for lineage in self._resident
        )

    def _lineage_count(self) -> int:
        count = dict.__len__(self._lineages)
        for lineage in self._disk_lineage_sizes():
            if lineage not in self._resident:
                count += 1
        return count

    @_locked
    def _disk_link_class_counts(self) -> dict[LinkClass, int]:
        if self._disk_link_classes is None:
            clause, params = self._link_window()
            where = f" WHERE {clause}" if clause else ""
            self._disk_link_classes = {
                LinkClass(link_class): count
                for link_class, count in self._require_open().execute(
                    f"SELECT class, COUNT(*) FROM links{where} GROUP BY class",
                    params,
                )
            }
        return self._disk_link_classes

    @_locked
    def _link_count(self) -> int:
        return (
            dict.__len__(self._links)
            + sum(self._disk_link_class_counts().values())
            - len(self._disk_link_ids_loaded)
        )

    @_locked
    def link_class_counts(self) -> dict[LinkClass, int]:
        """Window links on disk and not resident, per class."""
        counts = dict(self._disk_link_class_counts())
        for link_class in self._disk_link_ids_loaded.values():
            counts[link_class] -= 1
        return counts

    # ------------------------------------------------------------------
    # pushdown lookups (IndexRegistry's non-resident half)
    # ------------------------------------------------------------------
    #
    # Every pushdown excludes resident lineages in Python: memory is
    # authoritative there (invariant 2), and dirty state must never be
    # shadowed by stale disk rows.

    def _non_resident(self, rows: Iterable[tuple[str, str, int]]) -> set[OID]:
        return {
            OID(block, view, version)
            for block, view, version in rows
            if (block, view) not in self._resident
            and self._in_window(block, view)
        }

    @_locked
    def property_oids(self, name: str, value: Value) -> set[OID]:
        """Non-resident OIDs whose property *name* Python-equals *value*."""
        if self._all_objects:
            return set()
        encodings = equal_encodings(value)
        match = " OR ".join("(value_type = ? AND value = ?)" for _ in encodings)
        params: list[str] = [name]
        for value_type, text in encodings:
            params.extend((value_type, text))
        rows = self._require_open().execute(
            "SELECT block, view, version FROM properties "
            f"WHERE name = ? AND ({match})",
            params,
        ).fetchall()
        return self._non_resident(rows)

    @_locked
    def property_values(self, name: str) -> set[Value]:
        """Distinct on-disk values of property *name* (window-filtered)."""
        if self._all_objects:
            return set()
        clause, params = self._window_clause()
        where = f" AND {clause}" if clause else ""
        return {
            _decode_value(value_type, text)
            for text, value_type in self._require_open().execute(
                "SELECT DISTINCT value, value_type FROM properties "
                f"WHERE name = ?{where}",
                [name, *params],
            )
        }

    @_locked
    def view_oids(self, view: str) -> set[OID]:
        if self._all_objects:
            return set()
        rows = self._require_open().execute(
            "SELECT block, view, version FROM objects WHERE view = ?", (view,)
        ).fetchall()
        return self._non_resident(rows)

    @_locked
    def block_oids(self, block: str) -> set[OID]:
        if self._all_objects:
            return set()
        rows = self._require_open().execute(
            "SELECT block, view, version FROM objects WHERE block = ?", (block,)
        ).fetchall()
        return self._non_resident(rows)

    @_locked
    def latest_oids(self) -> set[OID]:
        """Non-resident lineage heads."""
        if self._all_objects:
            return set()
        clause, params = self._window_clause()
        where = f" WHERE {clause}" if clause else ""
        rows = self._require_open().execute(
            f"SELECT block, view, MAX(version) FROM objects{where} "
            "GROUP BY block, view",
            params,
        ).fetchall()
        return self._non_resident(rows)

    @_locked
    def stale_oids(self, stale_property: str) -> set[OID]:
        """Non-resident lineage heads whose stale property equals False."""
        if self._all_objects:
            return set()
        encodings = equal_encodings(False)
        match = " OR ".join(
            "(p.value_type = ? AND p.value = ?)" for _ in encodings
        )
        params: list[str] = [stale_property]
        for value_type, text in encodings:
            params.extend((value_type, text))
        rows = self._require_open().execute(
            "SELECT o.block, o.view, o.version FROM objects o "
            "JOIN (SELECT block, view, MAX(version) AS version FROM objects "
            "      GROUP BY block, view) m "
            "ON o.block = m.block AND o.view = m.view AND o.version = m.version "
            "JOIN properties p ON p.block = o.block AND p.view = o.view "
            "AND p.version = o.version "
            f"WHERE p.name = ? AND ({match})",
            params,
        ).fetchall()
        return self._non_resident(rows)

    def _non_resident_lineages(self) -> Iterable[tuple[tuple[str, str], int]]:
        """``(lineage, object count)`` of every window lineage on disk
        that is not resident."""
        if self._all_objects:
            return ()
        return (
            (lineage, size)
            for lineage, size in self._disk_lineage_sizes().items()
            if lineage not in self._resident
        )

    @_locked
    def blocks_of_view(self, view: str) -> set[str]:
        return {
            block for (block, of), _ in self._non_resident_lineages() if of == view
        }

    @_locked
    def views_of_block(self, block: str) -> set[str]:
        return {
            view for (of, view), _ in self._non_resident_lineages() if of == block
        }

    @_locked
    def view_counts(self) -> dict[str, int]:
        """Objects per view in the non-resident lineages."""
        counts: dict[str, int] = {}
        for (_block, view), size in self._non_resident_lineages():
            counts[view] = counts.get(view, 0) + size
        return counts

    @_locked
    def stored_objects(self, oids: Iterable[OID]) -> set[OID]:
        """The OIDs in *oids* this store holds inside its window, without
        faulting (configuration loading at open).  Resident lineages
        answer from memory; the rest take one query per chunk."""
        found: set[OID] = set()
        probe: list[OID] = []
        for oid in oids:
            if dict.__contains__(self._objects, oid):
                found.add(oid)
            elif oid.lineage not in self._resident and self._in_window(
                oid.block, oid.view
            ):
                probe.append(oid)
        for start in range(0, len(probe), 500):
            wanted = {
                (oid.block, oid.view, oid.version): oid
                for oid in probe[start : start + 500]
            }
            found.update(
                wanted[row]
                for row in self._require_open().execute(
                    # a join, not a row-value IN, so each probe is an
                    # index search rather than a scan of the table
                    "SELECT o.block, o.view, o.version FROM "
                    f"(VALUES {', '.join(['(?, ?, ?)'] * len(wanted))}) AS w "
                    "JOIN objects o ON o.block = w.column1 "
                    "AND o.view = w.column2 AND o.version = w.column3",
                    [value for key in wanted for value in key],
                )
            )
        return found

    @_locked
    def stored_links(self, link_ids: list[int]) -> set[int]:
        """The ids in *link_ids* stored on disk with both endpoints
        inside the window, without faulting (configuration loading at
        open).  One query per chunk, within SQLite's variable limit."""
        clause, params = self._link_window()
        window = f" AND {clause}" if clause else ""
        found: set[int] = set()
        for start in range(0, len(link_ids), 500):
            chunk = link_ids[start : start + 500]
            found.update(
                link_id
                for (link_id,) in self._require_open().execute(
                    f"SELECT id FROM links WHERE id IN ({', '.join('?' * len(chunk))})"
                    f"{window}",
                    [*chunk, *params],
                )
            )
        return found

    # ------------------------------------------------------------------
    # write-back
    # ------------------------------------------------------------------

    @_locked
    def flush(self, registry: "ConfigurationRegistry | None" = None) -> None:
        """Write the recorded changes and the ``meta`` bookkeeping back,
        in one SQL transaction (see ``sqlite_store.write_back``).

        Unchanged shards are untouched; the logical clock, next link id
        and journal watermark always refresh, so a reopened store never
        reuses ids or regresses the clock.
        """
        from repro.metadb.sqlite_store import configuration_rows, write_back

        connection = self._require_open()
        configurations = None if registry is None else configuration_rows(registry)
        if configurations is not None and (
            self.blocks is not None or self.views is not None
        ):
            # A window only holds configurations intersected with it;
            # rewriting the table from them would strip every member
            # outside it, so it leaves the table as it is and refuses
            # to drop an edit silently.
            if configurations != self.window_configurations:
                raise PersistenceError(
                    f"a block/view window over {self.path} cannot save "
                    "changed configurations; open the database without a "
                    "window to change them"
                )
            configurations = None
        write_back(connection, self.db, self.changes, configurations)
        self._disk_sizes = self._disk_link_classes = None
        # The disk now mirrors every changed link; account it as loaded.
        for link_id in self.changes.links:
            link = dict.get(self._links, link_id)
            if link is not None:
                self._disk_link_ids_loaded[link_id] = link.link_class
            else:
                self._disk_link_ids_loaded.pop(link_id, None)
        self.changes.clear()

    @_locked
    def close(self) -> None:
        """Flush and release the connection.  Idempotent."""
        if self._closed:
            return
        self.flush()
        self._closed = True
        self._connection.close()

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        return {
            "resident_objects": self._objects.resident_len(),
            "resident_lineages": len(self._resident),
            "resident_links": self._links.resident_len(),
            "dirty_lineages": len(self.changes.shards),
            "faults": self.faults,
            "evictions": self.evictions,
        }
