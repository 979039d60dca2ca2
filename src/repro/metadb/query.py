"""Designer-facing queries over the meta-database.

"Designers can retrieve the state of the project by performing queries.
Therefore, designers know exactly what data still needs to be modified
before reaching a planned state in the project." (paper, section 1)

The query interface is a small fluent builder over the database plus a few
canned volume queries whose results are typically stored in configurations
(section 2).

Execution goes through a small planner: structured filters (``view``,
``block``, ``where_property``) are recorded alongside their predicates,
and ``select`` starts from the most selective secondary index available
(:mod:`repro.metadb.indexes`) before applying every predicate to the
survivors.  Opaque ``where`` predicates cannot be indexed and fall back
to the latest-version set or a full scan.  Whatever the plan, results are
identical to the scan path — the planner only changes the candidate set,
never the filter semantics — and ``select(force_scan=True)`` bypasses the
indexes entirely for equivalence testing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable

from repro.metadb.database import MetaDatabase
from repro.metadb.objects import MetaObject
from repro.metadb.oid import OID
from repro.metadb.properties import Value, coerce_value

Predicate = Callable[[MetaObject], bool]


@dataclass(frozen=True)
class QueryPlan:
    """The execution strategy ``select`` chose (see :meth:`Query.explain`).

    ``strategy`` is one of:

    * ``"index"`` — candidates came from the named secondary index;
    * ``"sql-pushdown"`` — as ``"index"``, but the store's SQL side
      supplied candidates the resident index did not hold (a lazy
      database: those shards fault in, nothing more);
    * ``"latest"`` — candidates are the latest-version set (no usable
      index, but ``latest_only`` bounds the scan to one OID per lineage;
      ``"sql-pushdown"`` with index ``latest`` when the SQL side
      supplied lineage heads);
    * ``"scan"`` — full object scan (on a lazy database this faults
      everything in — the planner's job is to avoid it).
    """

    strategy: str
    index: str | None = None
    candidates: int | None = None

    def describe(self) -> str:
        if self.index is not None:
            return f"{self.strategy} {self.index} ({self.candidates} candidates)"
        return self.strategy


@dataclass
class Query:
    """Fluent query builder.

    Example::

        stale = (Query(db)
                 .view("schematic")
                 .where_property("uptodate", False)
                 .latest_only()
                 .select())
    """

    db: MetaDatabase
    _predicates: list[Predicate] = field(default_factory=list)
    _latest_only: bool = False
    _views: list[str] = field(default_factory=list)
    _blocks: list[str] = field(default_factory=list)
    _property_eqs: list[tuple[str, Value]] = field(default_factory=list)
    #: Loose candidate hints: (name, value, equals, kind).  Unlike the
    #: structured filters these add NO predicate — callers (the
    #: expression-language ``find``) pair them with their own filter and
    #: the planner only uses them to narrow the candidate set.  ``kind``
    #: is ``"property"``, ``"view"`` or ``"block"``; the latter two also
    #: union the name-index bucket because an object property of the
    #: same name shadows the builtin in expression evaluation.
    _loose: list[tuple[str, Value, Callable[[Value, Value], bool], str]] = field(
        default_factory=list
    )

    # -- filters ------------------------------------------------------------

    def where(self, predicate: Predicate) -> "Query":
        """Add an arbitrary predicate over meta objects (never indexed)."""
        self._predicates.append(predicate)
        return self

    def view(self, view: str) -> "Query":
        """Keep only objects of the given view type (index-accelerated)."""
        self._views.append(view)
        return self.where(lambda obj: obj.view == view)

    def block(self, block: str) -> "Query":
        """Keep only objects of the given block (index-accelerated)."""
        self._blocks.append(block)
        return self.where(lambda obj: obj.block == block)

    def where_property(self, name: str, value: object) -> "Query":
        """Keep objects whose property *name* equals *value* (coerced).

        Equality filters are index-accelerated through the property-value
        index; the predicate is still applied, so results match the scan
        path exactly.
        """
        wanted = coerce_value(value)
        self._property_eqs.append((name, wanted))
        return self.where(lambda obj: obj.get(name) == wanted)

    def hint_equals(
        self,
        name: str,
        value: Value,
        equals: Callable[[Value, Value], bool],
        *,
        kind: str = "property",
    ) -> "Query":
        """Narrow candidates to objects where *name* ≈ *value* under the
        caller's *equals* — **without** adding a predicate.

        This is how the expression language's ``find`` rides the indexes:
        its equality (``"4" == 4``) differs from Python's, so it supplies
        ``values_equal`` here and keeps the expression itself as the only
        filter.  Using a hint whose *equals* does not imply your own
        filter's semantics would drop matching objects.
        """
        self._loose.append((name, value, equals, kind))
        return self

    def where_property_not(self, name: str, value: object) -> "Query":
        wanted = coerce_value(value)
        return self.where(lambda obj: obj.get(name) != wanted)

    def has_property(self, name: str) -> "Query":
        return self.where(lambda obj: obj.has(name))

    def version_at_least(self, version: int) -> "Query":
        return self.where(lambda obj: obj.version >= version)

    def checked_out(self) -> "Query":
        return self.where(lambda obj: obj.checked_out_by is not None)

    def latest_only(self) -> "Query":
        """Keep only the newest version of each (block, view) lineage."""
        self._latest_only = True
        return self

    # -- planning ------------------------------------------------------------

    def _loose_oids(
        self, name: str, value: Value, equals, kind: str
    ) -> tuple[Collection[OID], bool]:
        """Candidates for one loose hint, and whether the SQL side
        supplied any."""
        indexes = self.db.indexes
        oids, from_sql = indexes.matching_oids(name, value, equals)
        if kind in ("view", "block") and isinstance(value, str):
            lookup = indexes.view_oids if kind == "view" else indexes.block_oids
            named, named_from_sql = lookup(value)
            oids, from_sql = set(oids).union(named), from_sql or named_from_sql
        return oids, from_sql

    def _plan(self) -> tuple[QueryPlan, Iterable[MetaObject]]:
        """Pick the most selective candidate source.

        Every lookup answers for the whole logical database (resident
        index ∪ the store's SQL side, see
        :class:`~repro.metadb.indexes.IndexRegistry`).  Candidate
        materialisation faults each OID's shard in on a lazy database,
        so its window grows by O(candidates), never by O(database).
        """
        indexes = self.db.indexes
        options: list[tuple[str, Collection[OID], bool]] = []
        for view in self._views:
            options.append((f"view={view}", *indexes.view_oids(view)))
        for block in self._blocks:
            options.append((f"block={block}", *indexes.block_oids(block)))
        for name, value in self._property_eqs:
            options.append(
                (f"property {name}={value!r}", *indexes.property_oids(name, value))
            )
        for name, value, equals, kind in self._loose:
            options.append(
                (f"{kind}~{name}={value!r}", *self._loose_oids(name, value, equals, kind))
            )
        if options:
            label, oids, from_sql = min(options, key=lambda option: len(option[1]))
            strategy = "sql-pushdown" if from_sql else "index"
            return QueryPlan(strategy, label, len(oids)), self._materialise(oids)
        if self._latest_only:
            oids, from_sql = indexes.latest_oids()
            if from_sql:
                plan = QueryPlan("sql-pushdown", "latest", len(oids))
            else:
                plan = QueryPlan("latest", None, len(oids))
            return plan, self._materialise(oids)
        return QueryPlan("scan"), self.db.objects()

    def _materialise(self, oids: Collection[OID]) -> Iterable[MetaObject]:
        """The candidate objects; ``is_latest`` runs after the fault, so
        the resident latest index is authoritative for each one."""
        objects = self.db._objects
        indexes = self.db.indexes
        for oid in oids:
            obj = objects.get(oid)  # faults the shard in on first touch
            if obj is None:
                continue
            if self._latest_only and not indexes.is_latest(oid):
                continue
            yield obj

    def explain(self) -> QueryPlan:
        """The plan ``select`` would execute right now."""
        plan, _candidates = self._plan()
        return plan

    # -- execution ------------------------------------------------------------

    def select(self, *, force_scan: bool = False) -> list[MetaObject]:
        """Run the query; results sorted by OID for determinism.

        ``force_scan=True`` ignores every secondary index (used by the
        equivalence tests and available for debugging index suspicions).
        """
        if force_scan:
            candidates = self._scan_candidates_unindexed()
            return self._filter(candidates)
        return self.select_explained()[0]

    def select_explained(self) -> tuple[list[MetaObject], QueryPlan]:
        """Run the query and return the plan that actually executed.

        One planning pass serves both — calling ``explain()`` followed
        by ``select()`` plans twice, which on a lazy database means
        running every SQL pushdown twice.
        """
        plan, candidates = self._plan()
        return self._filter(candidates), plan

    def _filter(self, candidates: Iterable[MetaObject]) -> list[MetaObject]:
        result = [
            obj
            for obj in candidates
            if all(predicate(obj) for predicate in self._predicates)
        ]
        result.sort(key=lambda obj: obj.oid.sort_key())
        return result

    def _scan_candidates_unindexed(self) -> Iterable[MetaObject]:
        """The seed implementation's candidate set, bypassing all indexes."""
        if self._latest_only:
            return (
                obj
                for obj in (
                    self.db.latest_version(block, view)
                    for block, view in self.db.lineages()
                )
                if obj is not None
            )
        return self.db.objects()

    def oids(self) -> list[OID]:
        return [obj.oid for obj in self.select()]

    def count(self) -> int:
        return len(self.select())

    def exists(self) -> bool:
        return self.count() > 0

    def first(self) -> MetaObject | None:
        selected = self.select()
        return selected[0] if selected else None


# ---------------------------------------------------------------------------
# canned volume queries
# ---------------------------------------------------------------------------


def stale_objects(
    db: MetaDatabase, property_name: str = "uptodate"
) -> list[MetaObject]:
    """Latest versions whose *property_name* is false — the classic
    "what still needs to be modified" query of section 1.

    When *property_name* is the database's configured stale property
    (``uptodate`` unless overridden), the answer comes straight from the
    incrementally maintained stale set — O(result), no scan, no predicate
    evaluation — which the propagation engine keeps current as it flips
    states mid-wave.
    """
    if property_name == db.indexes.stale_property:
        # On a lazy database this faults in O(result) shards, never the
        # whole database.
        objects = db._objects
        result = [objects[oid] for oid in db.indexes.stale_oids()]
        result.sort(key=lambda obj: obj.oid.sort_key())
        return result
    return (
        Query(db).where_property(property_name, False).latest_only().select()
    )


def objects_failing_state(
    db: MetaDatabase, state_property: str = "state"
) -> list[MetaObject]:
    """Latest versions whose computed state property is not true.

    Objects without the state property at all are included: an object the
    blueprint never validated cannot have reached the planned state.
    """
    failing = []
    for block, view in db.lineages():
        obj = db.latest_version(block, view)
        if obj is not None and obj.get(state_property) is not True:
            failing.append(obj)
    failing.sort(key=lambda obj: obj.oid)
    return failing


def property_histogram(
    db: MetaDatabase, name: str, latest_only: bool = True
) -> dict[Value | None, int]:
    """Count objects by the value of property *name*."""
    query = Query(db)
    if latest_only:
        query = query.latest_only()
    histogram: dict[Value | None, int] = {}
    for obj in query.select():
        key = obj.get(name)
        histogram[key] = histogram.get(key, 0) + 1
    return histogram


def view_census(db: MetaDatabase) -> dict[str, int]:
    """Number of objects per view type (all versions)."""
    return dict(sorted(db.indexes.view_counts().items()))
