"""Workspaces: the data repositories DAMOCLES manages.

"DAMOCLES manages data repositories, called workspaces by associating them
to a meta-database." (paper, section 2)

A workspace is a directory tree holding the actual design files; the
meta-database holds only the *information about* them.  The layout is::

    <root>/<block>/<view>/<version>/<files...>

Check-in creates the next version directory, writes the content, creates
the meta-data object (firing the hooks the blueprint listens on) and
reports the transaction to any registered observers — in a live project
the observer is a wrapper that posts a ``ckin`` event to the BluePrint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.metadb.database import MetaDatabase
from repro.metadb.errors import WorkspaceError
from repro.metadb.objects import MetaObject
from repro.metadb.oid import OID
from repro.metadb.versions import next_version_oid

#: Observer signature: (transaction-name, oid, user) e.g. ("ckin", oid, "yves").
TransactionObserver = Callable[[str, OID, str], None]

#: The file name used when content is checked in as a single text blob.
DEFAULT_FILENAME = "data.txt"


@dataclass
class Workspace:
    """A file-backed data repository bound to a meta-database."""

    root: Path
    db: MetaDatabase
    name: str = "workspace"
    observers: list[TransactionObserver] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- paths ----------------------------------------------------------------

    def path_of(self, oid: OID) -> Path:
        return self.root / oid.block / oid.view / str(oid.version)

    def file_of(self, oid: OID, filename: str = DEFAULT_FILENAME) -> Path:
        return self.path_of(oid) / filename

    # -- transactions -----------------------------------------------------------

    def check_in(
        self,
        block: str,
        view: str,
        content: str | dict[str, str],
        user: str = "designer",
        properties: dict[str, object] | None = None,
    ) -> MetaObject:
        """Create the next version of (block, view) holding *content*.

        *content* is either a single text blob (stored as ``data.txt``)
        or a mapping of file name → text.  The meta-data object is created
        after the files land, so blueprint hooks observing the creation
        can already read the data.  Observers are notified last with the
        transaction name ``"ckin"``.
        """
        oid = next_version_oid(self.db, block, view)
        directory = self.path_of(oid)
        if directory.exists():
            raise WorkspaceError(f"version directory already exists: {directory}")
        directory.mkdir(parents=True)
        files = {DEFAULT_FILENAME: content} if isinstance(content, str) else content
        if not files:
            raise WorkspaceError("check_in requires at least one file")
        for filename, text in files.items():
            (directory / filename).write_text(text)
        obj = self.db.create_object(oid, properties)
        self._notify("ckin", oid, user)
        return obj

    def check_out(self, oid: OID | str, user: str = "designer") -> Path:
        """Mark *oid* checked out by *user* and return its directory.

        Checking out an object someone else holds raises — the paper's
        wrappers "request the permission to access data" before running.
        """
        oid = OID.parse(oid) if isinstance(oid, str) else oid
        obj = self.db.get(oid)
        if obj.checked_out_by is not None and obj.checked_out_by != user:
            raise WorkspaceError(
                f"{oid} is checked out by {obj.checked_out_by!r}"
            )
        directory = self.path_of(oid)
        if not directory.exists():
            raise WorkspaceError(f"no data directory for {oid}: {directory}")
        obj.checked_out_by = user
        self.db.touch(oid)  # attribute write bypasses the property channel
        self._notify("ckout", oid, user)
        return directory

    def release(self, oid: OID | str, user: str = "designer") -> None:
        """Release a check-out without creating a new version."""
        oid = OID.parse(oid) if isinstance(oid, str) else oid
        obj = self.db.get(oid)
        if obj.checked_out_by != user:
            raise WorkspaceError(
                f"{oid} is not checked out by {user!r} "
                f"(holder: {obj.checked_out_by!r})"
            )
        obj.checked_out_by = None
        self.db.touch(oid)  # attribute write bypasses the property channel
        self._notify("release", oid, user)

    def read(self, oid: OID | str, filename: str = DEFAULT_FILENAME) -> str:
        """Read one file of a version."""
        oid = OID.parse(oid) if isinstance(oid, str) else oid
        path = self.file_of(oid, filename)
        if not path.exists():
            raise WorkspaceError(f"no file {filename!r} for {oid}")
        return path.read_text()

    def files_of(self, oid: OID | str) -> list[str]:
        """The file names stored for a version."""
        oid = OID.parse(oid) if isinstance(oid, str) else oid
        directory = self.path_of(oid)
        if not directory.exists():
            raise WorkspaceError(f"no data directory for {oid}")
        return sorted(p.name for p in directory.iterdir() if p.is_file())

    def delete_version(self, oid: OID | str, user: str = "designer") -> None:
        """Remove a version's data and meta-data (a ``delete`` transaction)."""
        oid = OID.parse(oid) if isinstance(oid, str) else oid
        directory = self.path_of(oid)
        self.db.remove_object(oid)  # raises UnknownOIDError first
        if directory.exists():
            for path in sorted(directory.iterdir()):
                path.unlink()
            directory.rmdir()
        self._notify("delete", oid, user)

    # -- observation ---------------------------------------------------------

    def subscribe(self, observer: TransactionObserver) -> None:
        """Register *observer* for every workspace transaction."""
        self.observers.append(observer)

    def _notify(self, transaction: str, oid: OID, user: str) -> None:
        for observer in list(self.observers):
            observer(transaction, oid, user)
