"""Object identifiers (OIDs) for the DAMOCLES meta-database.

The paper (section 2) defines the meta-data object identifier as a triplet::

    <block-name, view-type, version-number>

e.g. ``<cpu, SCHEMA, 4>`` or, in ``postEvent`` wire syntax,
``reg,verilog,4``.  OIDs are immutable value objects: two OIDs with the
same triplet are the same identifier.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.metadb.errors import InvalidOIDError

#: Legal block / view names: a non-empty token without separators.
#: Dots are excluded so the dotted display form stays unambiguous.
_NAME_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_\-]*")

#: The wire form with both names valid and an ASCII version, matched and
#: validated in one pass; every other spelling takes the general parser.
_WIRE_RE = re.compile(
    r"([A-Za-z0-9_][A-Za-z0-9_\-]*),([A-Za-z0-9_][A-Za-z0-9_\-]*),([0-9]+)"
)


@dataclass(frozen=True, order=True)
class OID:
    """An immutable ``<block, view, version>`` triplet.

    Ordering is lexicographic on (block, view, version) which makes lists
    of OIDs sort into stable, human-friendly groupings (all versions of a
    block/view pair adjacent and ascending).
    """

    block: str
    view: str
    version: int

    def __post_init__(self) -> None:
        if not isinstance(self.block, str) or not _NAME_RE.fullmatch(self.block):
            raise InvalidOIDError(f"bad block name: {self.block!r}")
        if not isinstance(self.view, str) or not _NAME_RE.fullmatch(self.view):
            raise InvalidOIDError(f"bad view name: {self.view!r}")
        if not isinstance(self.version, int) or isinstance(self.version, bool):
            raise InvalidOIDError(f"version must be an int: {self.version!r}")
        if self.version < 1:
            raise InvalidOIDError(
                f"version must be >= 1 (paper numbers versions from 1): "
                f"{self.version}"
            )

    # -- formatting ------------------------------------------------------

    def wire(self) -> str:
        """The ``postEvent`` wire form: ``block,view,version``."""
        return f"{self.block},{self.view},{self.version}"

    def dotted(self) -> str:
        """The display form used in the paper's prose: ``block.view.version``."""
        return f"{self.block}.{self.view}.{self.version}"

    def __str__(self) -> str:
        return f"<{self.dotted()}>"

    def sort_key(self) -> tuple[str, str, int]:
        """The (block, view, version) tuple this OID orders by.

        Sorting large result lists with ``key=lambda o: o.sort_key()``
        is several times faster than relying on the dataclass-generated
        comparison (which rebuilds tuples per comparison, not per item);
        the ordering is identical.
        """
        return (self.block, self.view, self.version)

    # -- relations -------------------------------------------------------

    @property
    def lineage(self) -> tuple[str, str]:
        """The (block, view) pair shared by all versions of this object."""
        return (self.block, self.view)

    def with_version(self, version: int) -> "OID":
        """Return the OID of another version in the same lineage."""
        return OID(self.block, self.view, version)

    def successor(self) -> "OID":
        """The OID the next check-in of this block/view would create."""
        return self.with_version(self.version + 1)

    def is_same_lineage(self, other: "OID") -> bool:
        """True when *other* is a version of the same block/view pair."""
        return self.lineage == other.lineage

    # -- parsing ---------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "OID":
        """Parse an OID from any of the textual forms used in the paper.

        Accepted spellings::

            reg,verilog,4          (postEvent wire format)
            CPU.HDL_model.1        (prose format)
            <CPU.HDL_model.1>      (prose format, bracketed)

        Raises :class:`InvalidOIDError` for anything else.
        """
        if not isinstance(text, str):
            raise InvalidOIDError(f"OID must be a string: {text!r}")
        wire = _WIRE_RE.fullmatch(text)
        if wire is not None:
            block, view, version_text = wire.groups()
            version = int(version_text)
            if version >= 1:
                # The match has validated every field __post_init__ checks.
                # (Fields set one by one, as __init__ sets them, stay in
                # the instance's compact inline storage.)
                oid = object.__new__(cls)
                object.__setattr__(oid, "block", block)
                object.__setattr__(oid, "view", view)
                object.__setattr__(oid, "version", version)
                return oid
        body = text.strip()
        if body.startswith("<") and body.endswith(">"):
            body = body[1:-1].strip()
        if "," in body:
            parts = [p.strip() for p in body.split(",")]
        else:
            # Dotted form: names cannot contain dots (_NAME_RE), so the
            # three-field split is unambiguous.
            parts = body.split(".")
        if len(parts) != 3:
            raise InvalidOIDError(f"cannot parse OID from {text!r}")
        block, view, version_text = parts
        try:
            version = int(version_text)
        except ValueError as exc:
            raise InvalidOIDError(
                f"bad version number {version_text!r} in {text!r}"
            ) from exc
        return cls(block, view, version)
