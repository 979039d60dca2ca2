"""Abstract syntax tree of the BluePrint rule language.

Mirrors the constructs of section 3.2:

* **template rules** — ``property``, ``let``, ``link_from``, ``use_link``;
* **run-time rules** — ``when EVENT do ACTION; ... done`` with assign,
  ``post``, ``exec`` and ``notify`` actions.

The AST keeps blueprint-level structure only; compilation into the
runtime model (merged default view, property specs, link templates) is
:mod:`repro.core.blueprint`'s job.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.expressions import Expression, Literal
from repro.core.lang.tokens import KEYWORDS
from repro.metadb.links import Direction
from repro.metadb.versions import InheritMode

#: The name of the special view whose declarations apply to every view.
DEFAULT_VIEW = "default"


# -- actions -----------------------------------------------------------------


class Action:
    """Base class for run-time rule actions."""


@dataclass(frozen=True)
class AssignAction(Action):
    """``name = expression`` — assign a property of the target OID."""

    name: str
    value: Expression

    def to_source(self) -> str:
        return f"{self.name} = {self.value.to_source()}"


@dataclass(frozen=True)
class PostAction(Action):
    """``post EVENT up|down [to VIEW] ["arg"]``.

    Without ``to`` the event is "directly propagated from the current
    OID"; with ``to`` it is posted to related OIDs of the named view.
    """

    event: str
    direction: Direction
    to_view: str | None = None
    arg: str | None = None

    def to_source(self) -> str:
        parts = ["post", self.event, self.direction.value]
        if self.to_view is not None:
            parts += ["to", self.to_view]
        if self.arg is not None:
            escaped = self.arg.replace("\\", "\\\\").replace('"', '\\"')
            parts.append(f'"{escaped}"')
        return " ".join(parts)


@dataclass(frozen=True)
class ExecAction(Action):
    """``exec SCRIPT [args...]`` — invoke a wrapper program."""

    script: str
    args: tuple[str, ...] = ()

    def to_source(self) -> str:
        rendered = [self.script]
        for arg in self.args:
            escaped = arg.replace("\\", "\\\\").replace('"', '\\"')
            rendered.append(f'"{escaped}"')
        return "exec " + " ".join(rendered)


@dataclass(frozen=True)
class NotifyAction(Action):
    """``notify "message"`` — send a warning/message to users."""

    message: str

    def to_source(self) -> str:
        escaped = self.message.replace("\\", "\\\\").replace('"', '\\"')
        return f'notify "{escaped}"'


# -- declarations ---------------------------------------------------------------


@dataclass(frozen=True)
class PropertyDecl:
    """``property NAME default VALUE [copy|move]`` (Figure 2)."""

    name: str
    default: str | bool | int | float
    inherit: InheritMode = InheritMode.NONE

    def to_source(self) -> str:
        # a bare keyword is no default value: ``default "copy"`` is quoted
        quoted = isinstance(self.default, str) and self.default.lower() in KEYWORDS
        text = f"property {self.name} default {Literal(self.default, quoted).to_source()}"
        if self.inherit is not InheritMode.NONE:
            text += f" {self.inherit.value}"
        return text


@dataclass(frozen=True)
class LetDecl:
    """``let NAME = EXPR`` — a continuous assignment."""

    name: str
    value: Expression

    def to_source(self) -> str:
        return f"let {self.name} = {self.value.to_source()}"


@dataclass(frozen=True)
class LinkDecl:
    """``link_from VIEW [move] propagates EVENTS [type TYPE] [move]``.

    Declared inside the *destination* view: ``link_from NetList`` inside
    view ``GDSII`` describes NetList → GDSII links (Figure 3).
    """

    from_view: str
    propagates: tuple[str, ...]
    link_type: str | None = None
    move: bool = False

    def to_source(self) -> str:
        parts = ["link_from", self.from_view]
        if self.move:
            parts.append("move")
        if self.propagates:
            parts.append("propagates")
            parts.append(", ".join(self.propagates))
        if self.link_type is not None:
            parts += ["type", self.link_type]
        return " ".join(parts)


@dataclass(frozen=True)
class UseLinkDecl:
    """``use_link [move] propagates EVENTS`` — hierarchy within the view."""

    propagates: tuple[str, ...]
    move: bool = False

    def to_source(self) -> str:
        parts = ["use_link"]
        if self.move:
            parts.append("move")
        if self.propagates:
            parts.append("propagates")
            parts.append(", ".join(self.propagates))
        return " ".join(parts)


@dataclass(frozen=True)
class WhenRule:
    """``when EVENT do ACTION; ACTION ... done``."""

    event: str
    actions: tuple[Action, ...]

    def to_source(self) -> str:
        body = "; ".join(
            action.to_source() for action in self.actions  # type: ignore[attr-defined]
        )
        return f"when {self.event} do {body} done"


@dataclass
class ViewDecl:
    """A ``view NAME ... endview`` block."""

    name: str
    properties: list[PropertyDecl] = field(default_factory=list)
    lets: list[LetDecl] = field(default_factory=list)
    links: list[LinkDecl] = field(default_factory=list)
    use_links: list[UseLinkDecl] = field(default_factory=list)
    rules: list[WhenRule] = field(default_factory=list)

    @property
    def is_default(self) -> bool:
        return self.name == DEFAULT_VIEW


@dataclass
class BlueprintDecl:
    """A complete ``blueprint NAME ... endblueprint`` file."""

    name: str
    views: list[ViewDecl] = field(default_factory=list)

    def view(self, name: str) -> ViewDecl | None:
        for view in self.views:
            if view.name == name:
                return view
        return None

    def view_names(self) -> list[str]:
        return [view.name for view in self.views]
