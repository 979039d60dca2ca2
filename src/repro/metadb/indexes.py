"""Secondary indexes over the meta-database.

The seed implementation answered every query by scanning all lineages and
re-evaluating predicates per object; past a few thousand objects the
headline "all stale layout views" query grew linearly with database size.
This module holds the index layer the database maintains *transactionally
on every mutation* so the query planner (:mod:`repro.metadb.query`) can
answer volume queries in time proportional to the result:

* **by_block / by_view** — OID sets keyed by block and view name;
* **by_property** — OID sets keyed by (property name, value), fed by the
  per-object :class:`~repro.metadb.properties.PropertyBag` observers the
  database installs at object creation;
* **latest** — the newest version of every lineage (the candidate set of
  every ``latest_only`` query);
* **stale** — an incrementally maintained set of latest versions whose
  stale property (``uptodate`` by convention) equals ``False``.  The
  propagation engine flips states through ``MetaObject.set`` which feeds
  the same observer channel, so ``stale()``-style queries are O(result)
  even while a change wave is still running;
* **adjacency** — a per-(OID, direction) cache of ``(link, other-end)``
  pairs, the engine's single hottest lookup during propagation.

The registry never reaches back into the database: the database calls the
``object_added`` / ``object_removed`` / ``property_changed`` /
``link_touched`` maintenance hooks from its mutators (including the
rollback path of :meth:`~repro.metadb.database.MetaDatabase.transaction`),
which is what keeps index state and store state in lock-step.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.metadb.links import Direction, Link
from repro.metadb.objects import MetaObject
from repro.metadb.oid import OID
from repro.metadb.properties import PropertyChange, Value

#: The property whose ``False`` latest versions the stale set tracks.
DEFAULT_STALE_PROPERTY = "uptodate"

#: Listener signature for stale-set membership changes: the OID that
#: moved and ``True`` when it entered the set, ``False`` when it left.
StaleListener = Callable[[OID, bool], None]


class IndexRegistry:
    """All secondary indexes of one :class:`MetaDatabase`.

    Buckets are plain sets of OIDs; value keys follow Python equality
    (``0 == False``), which is exactly the semantics of the scan-based
    ``where_property`` predicate the planner must stay identical to.
    """

    def __init__(self, stale_property: str = DEFAULT_STALE_PROPERTY) -> None:
        self.stale_property = stale_property
        self.by_block: dict[str, set[OID]] = {}
        self.by_view: dict[str, set[OID]] = {}
        self.by_property: dict[str, dict[Value, set[OID]]] = {}
        self.latest: dict[tuple[str, str], OID] = {}
        self.stale: set[OID] = set()
        self._adjacency: dict[tuple[OID, Direction], tuple[tuple[Link, OID], ...]] = {}
        self._stale_listeners: list[StaleListener] = []
        #: Non-resident lookup provider installed by a lazy store
        #: (:class:`repro.metadb.store.LazySqliteStore`).  When set, the
        #: in-memory buckets only cover *resident* objects and
        #: :meth:`stale_full` unions them with a SQL pushdown.
        self.pushdown = None

    # ------------------------------------------------------------------
    # stale-set change listeners
    # ------------------------------------------------------------------

    def on_stale_change(self, listener: StaleListener) -> None:
        """Call *listener(oid, is_stale)* on every stale-set transition.

        Listeners fire the moment a property flip (or a version change)
        re-buckets a latest version — mid-wave included — which is what
        the project server's push notifications ride on.  Rollback paths
        go through the same mutators, so listeners see those too.
        """
        self._stale_listeners.append(listener)

    def remove_stale_listener(self, listener: StaleListener) -> None:
        self._stale_listeners.remove(listener)

    def _stale_add(self, oid: OID, quiet: bool = False) -> None:
        if oid in self.stale:
            return
        self.stale.add(oid)
        if quiet:
            # Residency change (fault-in of an already-stale object):
            # the logical stale set did not move, so listeners stay mute.
            return
        for listener in list(self._stale_listeners):
            listener(oid, True)

    def _stale_discard(self, oid: OID, quiet: bool = False) -> None:
        if oid not in self.stale:
            return
        self.stale.discard(oid)
        if quiet:
            return
        for listener in list(self._stale_listeners):
            listener(oid, False)

    # ------------------------------------------------------------------
    # object maintenance
    # ------------------------------------------------------------------

    def object_added(
        self, obj: MetaObject, lineage_latest: int, *, quiet: bool = False
    ) -> None:
        """Index a newly inserted object; *lineage_latest* is the highest
        version its lineage now holds.  ``quiet=True`` (fault-in from a
        lazy store) suppresses stale-listener notifications — residency
        changes are not logical transitions."""
        oid = obj.oid
        self.by_block.setdefault(oid.block, set()).add(oid)
        self.by_view.setdefault(oid.view, set()).add(oid)
        for name, value in obj.properties.items():
            self._property_bucket(name, value).add(oid)
        self._set_latest(obj, oid.with_version(lineage_latest), quiet=quiet)
        self._drop_adjacency(oid)

    def object_removed(
        self, obj: MetaObject, new_latest: MetaObject | None
    ) -> None:
        """Un-index a removed object; *new_latest* is the object now at
        the head of the lineage (None when the lineage emptied)."""
        oid = obj.oid
        self._discard(self.by_block, oid.block, oid)
        self._discard(self.by_view, oid.view, oid)
        for name, value in obj.properties.items():
            bucket = self.by_property.get(name)
            if bucket is not None:
                values = bucket.get(value)
                if values is not None:
                    values.discard(oid)
                    if not values:
                        del bucket[value]
                if not bucket:
                    del self.by_property[name]
        self._stale_discard(oid)
        if self.latest.get(oid.lineage) == oid:
            del self.latest[oid.lineage]
            if new_latest is not None:
                self._set_latest(new_latest, new_latest.oid)
        self._drop_adjacency(oid)

    def shard_evicted(self, objs: list[MetaObject]) -> None:
        """Un-index a whole lineage the lazy store is paging out.

        Quiet by design: the objects still exist on disk, so the logical
        stale set is unchanged — their stale membership merely moves to
        the SQL pushdown side.  (Only *clean* shards are evictable, so
        disk is guaranteed current.)
        """
        for obj in objs:
            oid = obj.oid
            self._discard(self.by_block, oid.block, oid)
            self._discard(self.by_view, oid.view, oid)
            for name, value in obj.properties.items():
                bucket = self.by_property.get(name)
                if bucket is not None:
                    values = bucket.get(value)
                    if values is not None:
                        values.discard(oid)
                        if not values:
                            del bucket[value]
                    if not bucket:
                        del self.by_property[name]
            self._stale_discard(oid, quiet=True)
            self.latest.pop(oid.lineage, None)
            self._drop_adjacency(oid)

    def property_changed(self, obj: MetaObject, change: PropertyChange) -> None:
        """Re-bucket one property mutation (set, update or delete)."""
        oid = obj.oid
        if change.old is not None:
            bucket = self.by_property.get(change.name)
            if bucket is not None:
                values = bucket.get(change.old)
                if values is not None:
                    values.discard(oid)
                    if not values:
                        del bucket[change.old]
                if not bucket:
                    del self.by_property[change.name]
        if change.new is not None:
            self._property_bucket(change.name, change.new).add(oid)
        if change.name == self.stale_property and self.latest.get(oid.lineage) == oid:
            if change.new == False:  # noqa: E712 — match == query semantics
                self._stale_add(oid)
            else:
                self._stale_discard(oid)

    # ------------------------------------------------------------------
    # link adjacency cache
    # ------------------------------------------------------------------

    def adjacency(self, oid: OID, direction: Direction) -> tuple[tuple[Link, OID], ...] | None:
        return self._adjacency.get((oid, direction))

    def cache_adjacency(
        self, oid: OID, direction: Direction, pairs: Iterable[tuple[Link, OID]]
    ) -> tuple[tuple[Link, OID], ...]:
        cached = tuple(pairs)
        self._adjacency[(oid, direction)] = cached
        return cached

    def link_touched(self, *endpoints: OID) -> None:
        """Invalidate the adjacency cache of every OID in *endpoints*."""
        for oid in endpoints:
            self._drop_adjacency(oid)

    def _drop_adjacency(self, oid: OID) -> None:
        self._adjacency.pop((oid, Direction.UP), None)
        self._adjacency.pop((oid, Direction.DOWN), None)

    # ------------------------------------------------------------------
    # lookups the planner uses
    # ------------------------------------------------------------------

    def property_bucket(self, name: str, value: Value) -> set[OID]:
        """The OIDs whose property *name* equals *value* (any version)."""
        return self.by_property.get(name, {}).get(value, set())

    def is_latest(self, oid: OID) -> bool:
        return self.latest.get(oid.lineage) == oid

    def latest_oids(self) -> Iterable[OID]:
        return self.latest.values()

    # ------------------------------------------------------------------
    # faulting-aware lookup (resident index ∪ SQL pushdown)
    # ------------------------------------------------------------------
    #
    # With no pushdown installed this reduces to the resident set — the
    # eager path pays nothing.  With one installed, the resident set
    # covers exactly the resident lineages and the pushdown covers
    # exactly the rest (the store excludes resident lineages itself), so
    # the union is the complete logical answer without a full load.
    # ``Query`` builds its own resident and pushdown sets per plan.

    def stale_full(self) -> set[OID]:
        """The complete logical stale set (resident ∪ pushdown)."""
        oids = set(self.stale)
        if self.pushdown is not None:
            oids |= self.pushdown.stale_oids(self.stale_property)
        return oids

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _property_bucket(self, name: str, value: Value) -> set[OID]:
        return self.by_property.setdefault(name, {}).setdefault(value, set())

    def _set_latest(
        self, candidate: MetaObject, latest_oid: OID, *, quiet: bool = False
    ) -> None:
        """Install *latest_oid* as the lineage head; *candidate* is the
        object carrying its property values when the head changed."""
        lineage = latest_oid.lineage
        previous = self.latest.get(lineage)
        if previous == latest_oid:
            return
        if previous is not None:
            self._stale_discard(previous, quiet=quiet)
        self.latest[lineage] = latest_oid
        if candidate.oid == latest_oid:
            if candidate.get(self.stale_property) == False:  # noqa: E712
                self._stale_add(latest_oid, quiet=quiet)
            else:
                self._stale_discard(latest_oid, quiet=quiet)

    @staticmethod
    def _discard(index: dict[str, set[OID]], key: str, oid: OID) -> None:
        values = index.get(key)
        if values is not None:
            values.discard(oid)
            if not values:
                del index[key]

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------

    def check_against(
        self, objects: dict[OID, MetaObject], lineages: dict[tuple[str, str], list[int]]
    ) -> list[str]:
        """Compare every index against a fresh scan; returns violations."""
        problems: list[str] = []
        want_block: dict[str, set[OID]] = {}
        want_view: dict[str, set[OID]] = {}
        want_property: dict[str, dict[Value, set[OID]]] = {}
        for oid, obj in objects.items():
            want_block.setdefault(oid.block, set()).add(oid)
            want_view.setdefault(oid.view, set()).add(oid)
            for name, value in obj.properties.items():
                want_property.setdefault(name, {}).setdefault(value, set()).add(oid)
        if want_block != self.by_block:
            problems.append("block index out of sync with object store")
        if want_view != self.by_view:
            problems.append("view index out of sync with object store")
        if want_property != self.by_property:
            problems.append("property index out of sync with object store")
        want_latest = {
            lineage: OID(lineage[0], lineage[1], versions[-1])
            for lineage, versions in lineages.items()
            if versions
        }
        if want_latest != self.latest:
            problems.append("latest-version index out of sync with lineages")
        want_stale = {
            oid
            for oid in want_latest.values()
            if oid in objects
            and objects[oid].get(self.stale_property) == False  # noqa: E712
        }
        if want_stale != self.stale:
            problems.append(
                f"stale set out of sync: has {sorted(map(str, self.stale))}, "
                f"expected {sorted(map(str, want_stale))}"
            )
        return problems
