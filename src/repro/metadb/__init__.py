"""The DAMOCLES meta-database substrate (paper, section 2).

Public surface:

* :class:`OID` — ``<block, view, version>`` identifiers;
* :class:`MetaObject` / :class:`PropertyBag` — design-state records;
* :class:`Link`, :class:`LinkClass`, :class:`Direction` — typed, directed
  relationships carrying ``PROPAGATE`` / ``TYPE`` annotations;
* :class:`MetaDatabase` — the indexed store with creation hooks;
* :class:`Configuration` / :class:`ConfigurationRegistry` — lightweight
  snapshots of OIDs and links;
* :class:`Query` and canned volume queries;
* :class:`Workspace` — the file-backed data repository;
* version-inheritance primitives (:class:`InheritMode`,
  :func:`inherit_property`, :func:`shift_move_links`, ...).
"""

from repro.metadb.configurations import (
    Configuration,
    ConfigurationRegistry,
    all_links,
    use_links_only,
)
from repro.metadb.database import MetaDatabase, TransactionError
from repro.metadb.indexes import IndexRegistry
from repro.metadb.errors import (
    ConfigurationError,
    DuplicateLinkError,
    DuplicateOIDError,
    InvalidOIDError,
    MetaDBError,
    PersistenceError,
    PropertyError,
    UnknownLinkError,
    UnknownOIDError,
    WorkspaceError,
)
from repro.metadb.links import (
    COMPOSITION,
    DEPEND_ON,
    DERIVE_FROM,
    EQUIVALENCE,
    Direction,
    Link,
    LinkClass,
)
from repro.metadb.objects import MetaObject
from repro.metadb.oid import OID
from repro.metadb.persistence import (
    JsonBackend,
    database_from_dict,
    database_to_dict,
    load_database,
    save_database,
)
from repro.metadb.properties import PropertyBag, PropertyChange, coerce_value, value_to_text
from repro.metadb.store import InMemoryStore, LazySqliteStore, ObjectStore
from repro.metadb.query import (
    Query,
    QueryPlan,
    objects_failing_state,
    property_histogram,
    stale_objects,
    view_census,
)
from repro.metadb.versions import (
    InheritMode,
    PropertySpec,
    VersionHistory,
    create_version,
    inherit_property,
    next_version_oid,
    shift_move_links,
)
from repro.metadb.workspace import Workspace

__all__ = [
    "OID",
    "MetaObject",
    "PropertyBag",
    "PropertyChange",
    "coerce_value",
    "value_to_text",
    "Link",
    "LinkClass",
    "Direction",
    "COMPOSITION",
    "EQUIVALENCE",
    "DEPEND_ON",
    "DERIVE_FROM",
    "MetaDatabase",
    "TransactionError",
    "IndexRegistry",
    "ObjectStore",
    "InMemoryStore",
    "LazySqliteStore",
    "Configuration",
    "ConfigurationRegistry",
    "use_links_only",
    "all_links",
    "Query",
    "QueryPlan",
    "stale_objects",
    "objects_failing_state",
    "property_histogram",
    "view_census",
    "Workspace",
    "InheritMode",
    "PropertySpec",
    "VersionHistory",
    "create_version",
    "inherit_property",
    "next_version_oid",
    "shift_move_links",
    "database_to_dict",
    "database_from_dict",
    "save_database",
    "load_database",
    "JsonBackend",
    "MetaDBError",
    "InvalidOIDError",
    "UnknownOIDError",
    "DuplicateOIDError",
    "UnknownLinkError",
    "DuplicateLinkError",
    "ConfigurationError",
    "WorkspaceError",
    "PersistenceError",
    "PropertyError",
]
