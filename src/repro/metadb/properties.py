"""Property bags for meta-data objects and links.

Both OIDs and Links in DAMOCLES are "annotated by property/value pairs"
(paper, section 2).  Property values in the paper are simple scalars —
strings like ``ok`` / ``bad`` / ``"4 errors"``, booleans spelled ``true`` /
``false``, and occasionally numbers.  :class:`PropertyBag` stores those
scalars and reports every mutation, as a :class:`PropertyChange`, to its
caller and its observers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

#: The scalar types a property may hold.
Value = str | bool | int | float


def coerce_value(raw: object) -> Value:
    """Normalise *raw* into a property value.

    The blueprint language is untyped text, so ``"true"`` / ``"false"``
    become booleans and digit strings stay strings (the paper compares
    versions as text).  Python scalars pass through unchanged.
    """
    if isinstance(raw, bool) or isinstance(raw, (int, float)):
        return raw
    if isinstance(raw, str):
        lowered = raw.strip().lower()
        if lowered == "true":
            return True
        if lowered == "false":
            return False
        return raw
    raise TypeError(f"unsupported property value type: {type(raw).__name__}")


def value_to_text(value: Value) -> str:
    """Render a property value in blueprint-language spelling."""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


@dataclass(frozen=True)
class PropertyChange:
    """One mutation of a property bag, numbered in the bag's order."""

    seq: int
    name: str
    old: Value | None
    new: Value | None

    @property
    def is_creation(self) -> bool:
        return self.old is None and self.new is not None

    @property
    def is_deletion(self) -> bool:
        return self.new is None


@dataclass
class PropertyBag:
    """A mutable mapping of property names to scalar values.

    The bag numbers every mutation and can notify observers — the
    BluePrint engine registers one to re-evaluate continuous
    assignments when properties change out-of-band, and the
    meta-database installs one per object to maintain the property-value
    index and the incremental stale set (and, inside a transaction, the
    undo log).  The observer channel is therefore load-bearing: every
    mutation must go through :meth:`set` / :meth:`delete` / :meth:`update`
    so no index ever misses a change.
    """

    values: dict[str, Value] = field(default_factory=dict)
    _seq: int = 0
    _observers: list[Callable[[PropertyChange], None]] = field(
        default_factory=list
    )

    # -- mapping protocol --------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self.values

    def __iter__(self) -> Iterator[str]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def get(self, name: str, default: Value | None = None) -> Value | None:
        return self.values.get(name, default)

    def __getitem__(self, name: str) -> Value:
        return self.values[name]

    def items(self) -> Iterator[tuple[str, Value]]:
        return iter(self.values.items())

    def as_dict(self) -> dict[str, Value]:
        """A snapshot copy of the current values."""
        return dict(self.values)

    # -- mutation ----------------------------------------------------------

    def set(self, name: str, raw: object) -> PropertyChange:
        """Set *name* to *raw* (coerced), recording the change."""
        new = coerce_value(raw)
        old = self.values.get(name)
        self.values[name] = new
        return self._record(name, old, new)

    def __setitem__(self, name: str, raw: object) -> None:
        self.set(name, raw)

    def delete(self, name: str) -> PropertyChange:
        """Remove *name*, recording the deletion. KeyError if absent."""
        old = self.values.pop(name)
        return self._record(name, old, None)

    def update(self, mapping: Mapping[str, object]) -> None:
        for name, raw in mapping.items():
            self.set(name, raw)

    def setdefault(self, name: str, raw: object) -> Value:
        """Set *name* only if absent; return the value now stored."""
        if name not in self.values:
            self.set(name, raw)
        return self.values[name]

    # -- observation ---------------------------------------------------------

    def subscribe(self, callback: Callable[[PropertyChange], None]) -> None:
        """Call *callback* after every mutation of this bag."""
        self._observers.append(callback)

    def unsubscribe(self, callback: Callable[[PropertyChange], None]) -> None:
        self._observers.remove(callback)

    def _record(
        self, name: str, old: Value | None, new: Value | None
    ) -> PropertyChange:
        self._seq += 1
        change = PropertyChange(self._seq, name, old, new)
        for callback in list(self._observers):
            callback(change)
        return change

    # -- convenience ---------------------------------------------------------

    def text(self, name: str, default: str = "") -> str:
        """The value of *name* rendered as blueprint-language text."""
        value = self.values.get(name)
        if value is None:
            return default
        return value_to_text(value)

    def copy_into(self, other: "PropertyBag", names: list[str] | None = None) -> None:
        """Copy values (all, or just *names*) into *other*."""
        source = self.values if names is None else {
            name: self.values[name] for name in names if name in self.values
        }
        for name, value in source.items():
            other.set(name, value)
