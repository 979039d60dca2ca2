"""Project policies: tool permissions, loosening, and governed change control.

Two policy mechanisms from the paper:

* **Tool permissions** (section 3.3): "The program queries the
  meta-database, requesting the permission to access data and to run the
  tool.  The permission is given based on the state of the input data."
* **Loosening** (section 3.2): "early in the design cycle, when the data
  has not yet been validated and changes occur very often, the BluePrint
  can be 'loosened' thereby limiting change propagation" — a per-phase
  blueprint with trimmed PROPAGATE lists.

The second half of this module is the *governed* policy engine (v2):
loosening and permission changes stop being ad-hoc blueprint swaps and
become versioned, gated revisions of a :class:`PolicyDocument`:

* every revision carries a monotonic version, a declared change class
  (``additive`` | ``breaking``) and a content hash;
* the change class is *verified* by structural diff
  (:func:`classify_change`) — a revision that trims PROPAGATE lists,
  removes views/templates, or drops permission rules is a loosening and
  therefore **breaking**; a declared class that disagrees with the diff
  is rejected;
* breaking revisions park as a pending proposal until an explicit
  ``approve``; the previous version is retained for one-command
  ``rollback``;
* evaluation is **fail-closed**: a policy that failed to load, failed to
  parse, or raises mid-evaluation produces an audited
  ``DENY(policy_fault)`` — never a silent grant;
* every decision and lifecycle transition is an :class:`AuditRecord` in
  an append-only trail with its own monotonic ``audit_seq``.

The network bus journals lifecycle commands through the write-ahead log,
so a crash recovers the governance state alongside the data (see
:mod:`repro.network.bus` and :func:`repro.core.journal.replay_governed`).
"""

from __future__ import annotations

import copy
import hashlib
import json
import threading
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterable

from repro.core.blueprint import Blueprint
from repro.core.events import EventMessage
from repro.core.expressions import (
    Expression,
    MappingEnvironment,
    compile_expression,
    truthy,
)
from repro.core.lang.ast import LinkDecl, UseLinkDecl
from repro.core.lang.tokens import BlueprintSyntaxError
from repro.core.state import evaluate_on, object_environment
from repro.metadb.database import MetaDatabase
from repro.metadb.oid import OID
from repro.testing.faults import crash_point, fault_point


def _constant_true(condition: Expression) -> bool:
    """Whether *condition* is variable-free and always truthy.

    Such rules (the common ``require EVENT true`` always-allow form)
    need no per-event evaluation; anything uncertain evaluates normally.
    """
    try:
        if condition.variables():
            return False
        return truthy(condition.evaluate(MappingEnvironment({})))
    except Exception:
        return False


@dataclass(frozen=True)
class Decision:
    """Outcome of a permission request."""

    granted: bool
    reasons: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.granted


@dataclass(frozen=True)
class PermissionRule:
    """A precondition a tool's input data must satisfy.

    ``view`` restricts which inputs the rule checks (None = every input);
    ``condition`` is an expression over the input OID's properties.
    """

    tool: str
    condition: Expression
    view: str | None = None
    description: str = ""

    @classmethod
    def parse(
        cls, tool: str, condition: str, view: str | None = None, description: str = ""
    ) -> "PermissionRule":
        return cls(
            tool=tool,
            condition=Expression.parse(condition),
            view=view,
            description=description or condition,
        )


def _input_oids(inputs: list[OID | str]) -> list[OID]:
    return [OID.parse(item) if isinstance(item, str) else item for item in inputs]


def _check_inputs(
    db: MetaDatabase, rules: Iterable[PermissionRule], tool: str, oids: list[OID]
) -> Decision:
    """Every rule for *tool* (or ``*``) must hold on every view-matching
    input; each failure, and each input the database does not hold, is
    one reason, worded with the input's wire form (``block,view,N``)."""
    rules = [rule for rule in rules if rule.tool in (tool, "*")]
    reasons: list[str] = []
    for oid in oids:
        obj = db.find(oid)
        if obj is None:
            reasons.append(f"{oid.wire()} is not in the meta-database")
            continue
        for rule in rules:
            if rule.view is not None and rule.view != oid.view:
                continue
            if not truthy(evaluate_on(obj, rule.condition)):
                reasons.append(
                    f"{oid.wire()} fails "
                    f"{rule.description or rule.condition.to_source()}"
                )
    return Decision(granted=not reasons, reasons=tuple(reasons))


@dataclass
class PermissionPolicy:
    """The wrapper-side permission check of section 3.3."""

    rules: list[PermissionRule] = field(default_factory=list)
    audit: list[tuple[str, tuple[OID, ...], bool]] = field(default_factory=list)

    def add(self, rule: PermissionRule) -> "PermissionPolicy":
        self.rules.append(rule)
        return self

    def require(
        self, tool: str, condition: str, view: str | None = None
    ) -> "PermissionPolicy":
        """Shorthand: ``policy.require("simulator", "$uptodate == true")``."""
        return self.add(PermissionRule.parse(tool, condition, view))

    def check(
        self, db: MetaDatabase, tool: str, inputs: list[OID | str]
    ) -> Decision:
        """Grant or refuse *tool* access to *inputs*.

        Every applicable rule must hold on every (view-matching) input.
        Unknown input OIDs refuse with a reason — running a tool on data
        the tracking system has never seen is exactly the mistake the
        check exists to catch.
        """
        oids = _input_oids(inputs)
        decision = _check_inputs(db, self.rules, tool, oids)
        self.audit.append((tool, tuple(oids), decision.granted))
        return decision


# ---------------------------------------------------------------------------
# loosening
# ---------------------------------------------------------------------------


def loosen_blueprint(
    blueprint: Blueprint,
    *,
    block_events: set[str] | frozenset[str],
    link_types: set[str] | None = None,
    views: set[str] | None = None,
    name_suffix: str = "_loosened",
) -> Blueprint:
    """A copy of *blueprint* whose link templates stop propagating
    *block_events*.

    ``link_types`` restricts the trim to templates with those TYPE
    annotations; ``views`` restricts it to templates declared in those
    views.  Run-time rules are untouched: designers still see their own
    check-ins tracked, only cross-OID invalidation quiets down.
    """
    decl = copy.deepcopy(blueprint.declaration)
    decl.name = decl.name + name_suffix
    for view in decl.views:
        if views is not None and view.name not in views:
            continue
        view.links = [
            _trim_link(link, block_events, link_types) for link in view.links
        ]
        view.use_links = [
            UseLinkDecl(
                propagates=tuple(
                    e for e in use.propagates if e not in block_events
                ),
                move=use.move,
            )
            if (link_types is None or "use" in link_types)
            else use
            for use in view.use_links
        ]
    return Blueprint.from_ast(decl)


def _trim_link(
    link: LinkDecl, block_events: set[str] | frozenset[str], link_types: set[str] | None
) -> LinkDecl:
    if link_types is not None and link.link_type not in link_types:
        return link
    return LinkDecl(
        from_view=link.from_view,
        propagates=tuple(e for e in link.propagates if e not in block_events),
        link_type=link.link_type,
        move=link.move,
    )


def apply_blueprint_to_links(blueprint: Blueprint, db: MetaDatabase) -> int:
    """Re-annotate existing links after a blueprint swap.

    Swapping blueprints changes templates for *future* links; this helper
    re-derives PROPAGATE lists for links already in the database so a
    phase switch takes effect immediately.  Each changed link is recorded
    with :meth:`MetaDatabase.touch_link`, so a write-back stores its new
    list.  Returns the number of links whose PROPAGATE list changed.
    """
    changed = 0
    for link in db.links():
        view = blueprint.effective(link.dest.view)
        if view is None:
            continue
        if link.link_class.value == "use":
            template = view.use_link
        else:
            template = view.link_template_from(link.source.view)
        if template is None:
            continue
        new_events = set(template.propagates)
        if new_events != link.propagates:
            link.propagates.clear()
            for event in new_events:
                link.allow(event)
            if not new_events:
                link.properties.set("PROPAGATE", "")
            db.touch_link(link.link_id)
            changed += 1
    return changed


@dataclass
class ProjectPhase:
    """One phase of a project: a name and the blueprint that governs it."""

    name: str
    blueprint: Blueprint
    description: str = ""


@dataclass
class PhasePolicy:
    """Orders project phases and switches a live engine between them.

    Encodes "Different BluePrints can be defined ... for each phase of a
    project" as an explicit, auditable object.
    """

    phases: list[ProjectPhase] = field(default_factory=list)
    current_index: int = 0
    transitions: list[str] = field(default_factory=list)

    def add_phase(self, phase: ProjectPhase) -> "PhasePolicy":
        self.phases.append(phase)
        return self

    @property
    def current(self) -> ProjectPhase:
        if not self.phases:
            raise ValueError("no phases defined")
        return self.phases[self.current_index]

    def switch_to(self, name: str, engine, db: MetaDatabase | None = None) -> ProjectPhase:
        """Switch *engine* to the named phase's blueprint.

        When *db* is given, existing links are re-annotated so the phase
        change affects in-flight data immediately.
        """
        for index, phase in enumerate(self.phases):
            if phase.name == name:
                self.current_index = index
                engine.swap_blueprint(phase.blueprint)
                if db is not None:
                    apply_blueprint_to_links(phase.blueprint, db)
                self.transitions.append(name)
                return phase
        raise ValueError(f"unknown phase {name!r}")

# ---------------------------------------------------------------------------
# governed change control (policy engine v2)
# ---------------------------------------------------------------------------

#: Declared/computed change classes for a policy revision.
ADDITIVE = "additive"
BREAKING = "breaking"
CHANGE_CLASSES = frozenset({ADDITIVE, BREAKING})

#: Audit verdicts.
ALLOW = "ALLOW"
DENY = "DENY"

#: Reason prefix for fail-closed denials caused by policy faults.
POLICY_FAULT = "policy_fault"

#: On-disk/wire format of a serialized PolicyDocument.  A reader that
#: sees any other value must refuse the document (version skew fails
#: closed rather than being half-understood).
DOCUMENT_FORMAT = 1


class PolicyError(ValueError):
    """A policy document or lifecycle command is invalid."""


@dataclass(frozen=True)
class AuditRecord:
    """One line of the allow/deny audit trail.

    ``kind`` is ``event`` (admission decision), ``tool`` (permission
    check) or ``policy`` (lifecycle transition).  ``version`` is the
    policy version in force when the record was appended.
    """

    seq: int
    kind: str
    subject: str
    verdict: str
    reason: str
    version: int

    def to_payload(self) -> dict:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "subject": self.subject,
            "verdict": self.verdict,
            "reason": self.reason,
            "version": self.version,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "AuditRecord":
        try:
            return cls(
                seq=int(payload["seq"]),
                kind=str(payload["kind"]),
                subject=str(payload["subject"]),
                verdict=str(payload["verdict"]),
                reason=str(payload.get("reason", "")),
                version=int(payload["version"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PolicyError(f"bad audit record payload: {exc}") from exc

    def wire(self) -> str:
        text = f"#{self.seq} v{self.version} {self.verdict} {self.kind} {self.subject}"
        if self.reason:
            text += f" -- {self.reason}"
        return text


@dataclass(frozen=True)
class PolicyDocument:
    """One immutable revision of the project policy.

    Carries the phase blueprint source and the permission rules as data
    (``(tool, condition-source, view)`` triples; ``view`` empty = any).
    Rules whose tool is ``event:NAME`` / ``event:*`` gate event
    admission; plain tool names gate tool permission checks.
    """

    version: int
    change_class: str
    blueprint_source: str
    rules: tuple[tuple[str, str, str], ...] = ()

    def _canonical(self) -> str:
        return json.dumps(
            {
                "format": DOCUMENT_FORMAT,
                "version": self.version,
                "change_class": self.change_class,
                "blueprint": self.blueprint_source,
                "rules": [list(rule) for rule in self.rules],
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @property
    def content_hash(self) -> str:
        """SHA-256 over the canonical serialization (minus the hash)."""
        return hashlib.sha256(self._canonical().encode("utf-8")).hexdigest()

    def make_blueprint(self) -> Blueprint:
        try:
            return Blueprint.from_source(self.blueprint_source)
        except Exception as exc:
            raise PolicyError(
                f"policy v{self.version} blueprint does not parse: {exc}"
            ) from exc

    def make_rules(self) -> list[PermissionRule]:
        parsed: list[PermissionRule] = []
        for tool, condition, view in self.rules:
            try:
                parsed.append(PermissionRule.parse(tool, condition, view or None))
            except Exception as exc:
                raise PolicyError(
                    f"policy v{self.version} rule {tool!r}: "
                    f"{condition!r} does not parse: {exc}"
                ) from exc
        return parsed

    def to_payload(self) -> dict:
        return {
            "format": DOCUMENT_FORMAT,
            "version": self.version,
            "change_class": self.change_class,
            "blueprint": self.blueprint_source,
            "rules": [list(rule) for rule in self.rules],
            "hash": self.content_hash,
        }

    @classmethod
    def from_payload(cls, payload) -> "PolicyDocument":
        """Deserialize with full fail-closed validation.

        Anything short of a well-formed, hash-verified, parseable
        document raises :class:`PolicyError` — load failures must
        surface here, never as a silent grant at evaluation time.
        """
        if not isinstance(payload, dict):
            raise PolicyError("policy document must be a JSON object")
        if payload.get("format") != DOCUMENT_FORMAT:
            raise PolicyError(
                f"unsupported policy document format {payload.get('format')!r} "
                f"(this build reads format {DOCUMENT_FORMAT})"
            )
        version = payload.get("version")
        if not isinstance(version, int) or isinstance(version, bool) or version < 1:
            raise PolicyError(f"bad policy version {version!r}")
        change_class = payload.get("change_class")
        if change_class not in CHANGE_CLASSES:
            raise PolicyError(f"unknown change class {change_class!r}")
        blueprint_source = payload.get("blueprint")
        if not isinstance(blueprint_source, str) or not blueprint_source.strip():
            raise PolicyError("policy document has no blueprint")
        raw_rules = payload.get("rules")
        if not isinstance(raw_rules, list):
            raise PolicyError("policy rules must be a list")
        rules: list[tuple[str, str, str]] = []
        for item in raw_rules:
            if (
                not isinstance(item, (list, tuple))
                or len(item) != 3
                or not all(isinstance(part, str) for part in item)
            ):
                raise PolicyError(f"bad permission rule entry {item!r}")
            rules.append((item[0], item[1], item[2]))
        document = cls(
            version=version,
            change_class=change_class,
            blueprint_source=blueprint_source,
            rules=tuple(rules),
        )
        if payload.get("hash") != document.content_hash:
            raise PolicyError(
                "content hash mismatch -- policy document was truncated or hand-edited"
            )
        document.make_blueprint()
        document.make_rules()
        return document

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_payload(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path) -> "PolicyDocument":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError as exc:
            raise PolicyError(f"cannot read policy document {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise PolicyError(
                f"policy document {path} is not valid JSON: {exc}"
            ) from exc
        return cls.from_payload(payload)

    @classmethod
    def initial(
        cls, blueprint: Blueprint, rules: tuple[tuple[str, str, str], ...] = ()
    ) -> "PolicyDocument":
        return cls(
            version=1,
            change_class=ADDITIVE,
            blueprint_source=blueprint.to_source(),
            rules=tuple(rules),
        )


def _blueprint_shape(blueprint: Blueprint):
    """Index a blueprint for structural diffing.

    Returns (views-by-name, propagate-sets by (view, from_view, type),
    use-link propagate unions by view).
    """
    views: dict[str, object] = {}
    links: dict[tuple[str, str, str], set[str]] = {}
    uses: dict[str, set[str]] = {}
    for view in blueprint.declaration.views:
        views[view.name] = view
        for link in view.links:
            key = (view.name, link.from_view, link.link_type or "")
            links.setdefault(key, set()).update(link.propagates)
        union: set[str] = set()
        for use in view.use_links:
            union.update(use.propagates)
        uses[view.name] = union
    return views, links, uses


def _view_body(view) -> tuple:
    """The non-link content of a view, for unclassified-change detection."""
    return (
        tuple(decl.to_source() for decl in view.properties),
        tuple(decl.to_source() for decl in view.lets),
        tuple(decl.to_source() for decl in view.rules),
    )


def classify_change(
    old: PolicyDocument, new: PolicyDocument
) -> tuple[str, tuple[str, ...]]:
    """Classify a revision by structural diff, not by what it claims.

    **breaking** (a loosening or a semantic change needing approval):
    trimmed PROPAGATE sets on link templates or use links, removed
    views/templates, dropped permission rules, or any change to
    when-rules/properties/lets (unclassifiable, so it fails closed into
    the gated class).  **additive**: pure additions.  A diff with both
    kinds is breaking.  No difference at all raises :class:`PolicyError`.
    """
    old_bp = old.make_blueprint()
    new_bp = new.make_blueprint()
    breaking: list[str] = []
    additive: list[str] = []
    old_views, old_links, old_uses = _blueprint_shape(old_bp)
    new_views, new_links, new_uses = _blueprint_shape(new_bp)
    for name in old_views:
        if name not in new_views:
            breaking.append(f"removed view {name!r}")
    for name in new_views:
        if name not in old_views:
            additive.append(f"added view {name!r}")
    for name in sorted(set(old_views) & set(new_views)):
        if _view_body(old_views[name]) != _view_body(new_views[name]):
            breaking.append(
                f"unclassified change inside view {name!r} "
                "(rules/properties/lets differ)"
            )
    for key in sorted(old_links):
        view, from_view, link_type = key
        label = f"link {from_view}->{view}" + (
            f" ({link_type})" if link_type else ""
        )
        if key not in new_links:
            if view in new_views:
                breaking.append(f"removed {label}")
            continue
        trimmed = old_links[key] - new_links[key]
        added = new_links[key] - old_links[key]
        if trimmed:
            breaking.append(f"{label} stops propagating {sorted(trimmed)}")
        if added:
            additive.append(f"{label} starts propagating {sorted(added)}")
    for key in sorted(set(new_links) - set(old_links)):
        view, from_view, link_type = key
        if view in old_views:
            additive.append(f"added link {from_view}->{view}")
    for name in sorted(set(old_uses) & set(new_uses)):
        trimmed = old_uses[name] - new_uses[name]
        added = new_uses[name] - old_uses[name]
        if trimmed:
            breaking.append(
                f"use links in view {name!r} stop propagating {sorted(trimmed)}"
            )
        if added:
            additive.append(
                f"use links in view {name!r} start propagating {sorted(added)}"
            )
    old_rules = set(old.rules)
    new_rules = set(new.rules)
    for tool, condition, view in sorted(old_rules - new_rules):
        breaking.append(f"dropped permission rule {tool}: {condition}")
    for tool, condition, view in sorted(new_rules - old_rules):
        additive.append(f"added permission rule {tool}: {condition}")
    if breaking:
        return BREAKING, tuple(breaking + additive)
    if additive:
        return ADDITIVE, tuple(additive)
    raise PolicyError("proposal changes nothing")


@dataclass(frozen=True)
class PolicyProposal:
    """A classified revision waiting to activate (or already additive)."""

    document: PolicyDocument
    computed_class: str
    reasons: tuple[str, ...]

    def describe(self) -> str:
        return f"v{self.document.version} ({self.computed_class}): " + "; ".join(
            self.reasons
        )


def _lifecycle_subject(action: str, spec: dict) -> str:
    if action == "policy_propose":
        args = " ".join(str(a) for a in spec.get("args", ()))
        return (
            f"propose {spec.get('change_class', '?')} "
            f"{spec.get('op', '?')} {args}"
        ).strip()
    if action == "policy_approve":
        return f"approve v{spec.get('version', '?')}"
    return "rollback"


class GovernedPolicy:
    """The versioned, fail-closed policy engine.

    Owns the active :class:`PolicyDocument`, the pending proposal, the
    previous version (rollback target) and the audit trail.  All state
    transitions go through ``apply_lifecycle`` with a spec dict that is
    also what the network bus journals — replaying the same specs in the
    same order reconstructs the same versions, the same pending set and
    the same audit records.

    Evaluation is fail-closed: any exception inside ``evaluate`` or
    ``check_tool`` (including injected ``fault_point("policy-eval")``
    errors) becomes ``DENY(policy_fault: ...)``, and a policy marked
    faulted (corrupt checkpoint, unreadable document) denies everything
    until a valid revision activates.
    """

    def __init__(self, engine=None, document: PolicyDocument | None = None,
                 *, audit_limit: int = 10000) -> None:
        explicit = document is not None
        if document is None:
            if engine is None:
                raise PolicyError("GovernedPolicy needs an engine or a document")
            document = PolicyDocument.initial(engine.blueprint)
        self.engine = engine
        self._lock = threading.RLock()
        self._audit: deque[tuple] = deque(maxlen=audit_limit)
        self.audit_seq = 0
        self.policy_faults = 0
        self.fault_reason: str | None = None
        self.document = document
        self.previous: PolicyDocument | None = None
        self.pending: PolicyProposal | None = None
        self._set_rules(document.make_rules())
        if explicit and engine is not None:
            engine.swap_blueprint(document.make_blueprint())
            apply_blueprint_to_links(engine.blueprint, engine.db)

    # -- lock-free gauges (ints, read by the health command) ----------

    @property
    def version(self) -> int:
        return self.document.version

    @property
    def pending_count(self) -> int:
        return 1 if self.pending is not None else 0

    # -- audit trail --------------------------------------------------

    def _append_row(
        self, kind: str, subject: str, verdict: str, reason: str
    ) -> tuple:
        """Append one decision to the ring; the per-event hot path.

        The ring stores plain ``(seq, kind, subject, verdict, reason,
        version)`` tuples — building a frozen dataclass per admission
        costs more than the rest of the append combined, so records are
        materialised lazily by :meth:`audit_tail`.
        """
        with self._lock:
            crash_point("mid-audit-append")
            self.audit_seq += 1
            row = (
                self.audit_seq,
                kind,
                subject,
                verdict,
                reason,
                self.document.version,
            )
            self._audit.append(row)
            return row

    def _append_audit(
        self, kind: str, subject: str, verdict: str, reason: str
    ) -> AuditRecord:
        return AuditRecord(*self._append_row(kind, subject, verdict, reason))

    def audit_tail(self, limit: int | None = None) -> list[AuditRecord]:
        with self._lock:
            rows = list(self._audit)
        if limit is not None and limit >= 0:
            rows = rows[len(rows) - min(limit, len(rows)):]
        return [AuditRecord(*row) for row in rows]

    # -- evaluation (fail-closed) -------------------------------------

    def _set_rules(self, rules: list[PermissionRule]) -> None:
        """Install a rule set and its admission-path indexes.

        ``evaluate`` runs once per journaled write, so matching must not
        scan every rule: event rules are bucketed by event name, each
        bucket pre-merged with the ``event:*`` wildcard set, and every
        entry pre-tagged with whether its condition is a constant truth
        (``true``-style always-allow rules skip evaluation entirely —
        they still match, so they still deny unknown OIDs) and carrying
        its condition pre-compiled to a closure (no AST dispatch on the
        admission path).
        """
        self._rules = rules
        event_index: dict[str, list[PermissionRule]] = {}
        for rule in rules:
            if rule.tool.startswith("event:"):
                event_index.setdefault(rule.tool[6:], []).append(rule)
        wildcard = event_index.pop("*", [])

        def tagged(bucket):
            return tuple(
                (
                    rule,
                    _constant_true(rule.condition),
                    compile_expression(rule.condition),
                )
                for rule in bucket
            )

        self._wildcard_event_rules = tagged(wildcard)
        self._event_rule_index = {
            name: tagged(bucket + wildcard)
            for name, bucket in event_index.items()
        }
        self._tool_rules = tuple(
            rule for rule in rules if not rule.tool.startswith("event:")
        )

    def evaluate(self, db: MetaDatabase, event) -> tuple[str, str]:
        """Decide an event admission; no audit side effect.

        Returns ``(verdict, reason)``.  Event rules are permission rules
        whose tool field is ``event:NAME`` or ``event:*``; every
        matching rule must hold on the target OID.
        """
        try:
            fault_point("policy-eval")
            if self.fault_reason is not None:
                return DENY, self.fault_reason
            matched = self._event_rule_index.get(
                event.name, self._wildcard_event_rules
            )
            if not matched:
                return ALLOW, ""
            reasons: list[str] = []
            obj = db.find(event.target)
            env = None
            for rule, always_true, compiled in matched:
                if rule.view is not None and rule.view != event.target.view:
                    continue
                if obj is None:
                    reasons.append(
                        f"{event.target.wire()} is not in the meta-database"
                    )
                    break
                if always_true:
                    continue
                if env is None:  # one scope per event, shared across rules
                    env = object_environment(obj)
                if not truthy(compiled(env)):
                    reasons.append(
                        f"{event.target.wire()} fails "
                        f"{rule.description or rule.condition.to_source()}"
                    )
            if reasons:
                return DENY, "; ".join(reasons)
            return ALLOW, ""
        except Exception as exc:
            self.policy_faults += 1
            return DENY, f"{POLICY_FAULT}: {type(exc).__name__}: {exc}"

    def audit_event(self, event, verdict: str, reason: str) -> None:
        self._append_row(
            "event", f"{event.name} {event.target.wire()}", verdict, reason
        )

    def check_tool(
        self, db: MetaDatabase, tool: str, inputs: list
    ) -> Decision:
        """Tool-permission check of section 3.3, governed and audited."""
        try:
            fault_point("policy-eval")
            if self.fault_reason is not None:
                decision = Decision(False, (self.fault_reason,))
            else:
                decision = _check_inputs(
                    db, self._tool_rules, tool, _input_oids(inputs)
                )
        except Exception as exc:
            self.policy_faults += 1
            decision = Decision(
                False, (f"{POLICY_FAULT}: {type(exc).__name__}: {exc}",)
            )
        subject = tool
        if inputs:
            subject += " " + " ".join(
                item if isinstance(item, str) else item.wire() for item in inputs
            )
        self._append_audit(
            "tool",
            subject,
            ALLOW if decision.granted else DENY,
            "; ".join(decision.reasons),
        )
        return decision

    # Drop-in for :class:`PermissionPolicy` where a ``.check`` is expected
    # (the tool scheduler), so wiring a governor in makes every wrapper
    # permission request audited and fail-closed with no caller changes.
    check = check_tool

    # -- lifecycle ----------------------------------------------------

    def validate(self, action: str, spec: dict) -> None:
        """Admission-time check; raises :class:`PolicyError` to refuse."""
        with self._lock:
            self._prepare(action, spec)

    def _prepare(self, action: str, spec: dict) -> PolicyProposal:
        if action == "policy_propose":
            if self.pending is not None:
                raise PolicyError(
                    f"proposal v{self.pending.document.version} is already "
                    "pending approval"
                )
            return self._build_proposal(
                str(spec.get("change_class", "")),
                str(spec.get("op", "")),
                tuple(str(a) for a in spec.get("args", ())),
            )
        if action == "policy_approve":
            if self.pending is None:
                raise PolicyError("no proposal is pending approval")
            try:
                want = int(spec.get("version"))
            except (TypeError, ValueError):
                raise PolicyError(
                    f"bad approve version {spec.get('version')!r}"
                ) from None
            if want != self.pending.document.version:
                raise PolicyError(
                    f"pending proposal is v{self.pending.document.version}, "
                    f"not v{want}"
                )
            return self.pending
        if action == "policy_rollback":
            if self.previous is None:
                raise PolicyError("no previous policy version to roll back to")
            next_version = (
                self.pending.document.version
                if self.pending is not None
                else self.document.version
            ) + 1
            restored = replace(
                self.previous, version=next_version, change_class=BREAKING
            )
            try:
                computed, reasons = classify_change(self.document, restored)
            except PolicyError:
                raise PolicyError(
                    f"rollback target v{self.previous.version} is identical "
                    "to the active policy"
                ) from None
            restored = replace(restored, change_class=computed)
            return PolicyProposal(
                document=restored, computed_class=computed, reasons=reasons
            )
        raise PolicyError(f"unknown policy action {action!r}")

    def _build_proposal(
        self, change_class: str, op: str, args: tuple[str, ...]
    ) -> PolicyProposal:
        if change_class not in CHANGE_CLASSES:
            raise PolicyError(
                f"unknown change class {change_class!r} "
                f"(expected {ADDITIVE!r} or {BREAKING!r})"
            )
        current = self.document
        rules = list(current.rules)
        blueprint_source = current.blueprint_source
        if op == "loosen":
            if len(args) != 1 or not args[0]:
                raise PolicyError("loosen takes one comma-separated event list")
            events = {name for name in args[0].split(",") if name}
            blueprint = loosen_blueprint(
                current.make_blueprint(), block_events=events, name_suffix=""
            )
            blueprint_source = blueprint.to_source()
        elif op in ("require", "drop"):
            if len(args) not in (2, 3):
                raise PolicyError(f"{op} takes TOOL CONDITION [VIEW]")
            tool, condition = args[0], args[1]
            view = args[2] if len(args) == 3 else ""
            try:
                Expression.parse(condition)
            except Exception as exc:
                raise PolicyError(
                    f"condition {condition!r} does not parse: {exc}"
                ) from exc
            entry = (tool, condition, view)
            if op == "require":
                if entry in rules:
                    raise PolicyError(f"rule already present: {tool} {condition}")
                rules.append(entry)
            else:
                if entry not in rules:
                    raise PolicyError(f"no such rule: {tool} {condition}")
                rules.remove(entry)
        else:
            raise PolicyError(
                f"unknown policy operation {op!r} "
                "(expected loosen, require or drop)"
            )
        document = PolicyDocument(
            version=current.version + 1,
            change_class=change_class,
            blueprint_source=blueprint_source,
            rules=tuple(rules),
        )
        computed, reasons = classify_change(current, document)
        if computed != change_class:
            raise PolicyError(
                f"declared change class {change_class!r} but the structural "
                f"diff is {computed!r}: " + "; ".join(reasons)
            )
        return PolicyProposal(
            document=document, computed_class=computed, reasons=reasons
        )

    def apply_lifecycle(self, action: str, spec: dict) -> AuditRecord:
        """Apply a (journaled) lifecycle command; audits the outcome.

        A refused command audits ``DENY`` and re-raises — deterministic
        at replay, since the same specs replayed in the same order hit
        the same state.
        """
        with self._lock:
            subject = _lifecycle_subject(action, spec)
            try:
                proposal = self._prepare(action, spec)
            except PolicyError as exc:
                self._append_audit("policy", subject, DENY, str(exc))
                raise
            if action == "policy_propose":
                if proposal.computed_class == ADDITIVE:
                    self._activate(proposal.document)
                    detail = "additive -- auto-activated; " + "; ".join(
                        proposal.reasons
                    )
                else:
                    self.pending = proposal
                    detail = "breaking -- awaiting approval; " + "; ".join(
                        proposal.reasons
                    )
                return self._append_audit("policy", subject, ALLOW, detail)
            if action == "policy_approve":
                self.pending = None
                self._activate(proposal.document)
                return self._append_audit(
                    "policy",
                    subject,
                    ALLOW,
                    "approved -- activated; " + "; ".join(proposal.reasons),
                )
            discarded = self.pending
            self.pending = None
            restored_from = self.previous.version
            self._activate(proposal.document)
            detail = (
                f"restored content of v{restored_from} "
                f"as v{proposal.document.version}"
            )
            if discarded is not None:
                detail += f"; discarded pending v{discarded.document.version}"
            return self._append_audit("policy", subject, ALLOW, detail)

    def _activate(self, document: PolicyDocument) -> None:
        blueprint = document.make_blueprint()  # parse before any mutation
        rules = document.make_rules()
        self.previous = self.document
        self.document = document
        self._set_rules(rules)
        self.fault_reason = None
        if self.engine is not None:
            self.engine.swap_blueprint(blueprint)
            apply_blueprint_to_links(blueprint, self.engine.db)

    # -- fault state, status, checkpointing ---------------------------

    def mark_faulted(self, reason: str) -> None:
        """Force fail-closed: every evaluation denies until reactivated."""
        with self._lock:
            self.policy_faults += 1
            self.fault_reason = f"{POLICY_FAULT}: {reason}"

    def status_fields(self) -> list[tuple[str, str]]:
        with self._lock:
            fields = [
                ("version", str(self.document.version)),
                ("change_class", self.document.change_class),
                ("hash", self.document.content_hash[:12]),
                ("rules", str(len(self.document.rules))),
                (
                    "previous",
                    f"v{self.previous.version}" if self.previous else "none",
                ),
                ("pending", self.pending.describe() if self.pending else "none"),
                ("audit_seq", str(self.audit_seq)),
                ("policy_faults", str(self.policy_faults)),
            ]
            if self.fault_reason:
                fields.append(("fault", self.fault_reason))
            return fields

    def snapshot_payload(self) -> dict:
        """Governance state for the checkpoint sidecar."""
        with self._lock:
            payload: dict = {
                "format": DOCUMENT_FORMAT,
                "document": self.document.to_payload(),
                "audit_seq": self.audit_seq,
                "policy_faults": self.policy_faults,
            }
            if self.previous is not None:
                payload["previous"] = self.previous.to_payload()
            if self.pending is not None:
                payload["pending"] = {
                    "document": self.pending.document.to_payload(),
                    "computed_class": self.pending.computed_class,
                    "reasons": list(self.pending.reasons),
                }
            return payload

    def restore(self, payload: dict) -> bool:
        """Restore from a checkpoint sidecar payload, fail-closed.

        A payload that does not validate marks the policy faulted (every
        decision denies, audited) instead of raising — the server must
        come up and refuse, not crash or silently default-allow.
        Returns True on success.
        """
        try:
            if payload.get("format") != DOCUMENT_FORMAT:
                raise PolicyError(
                    f"unsupported policy checkpoint format "
                    f"{payload.get('format')!r}"
                )
            document = PolicyDocument.from_payload(payload["document"])
            previous = (
                PolicyDocument.from_payload(payload["previous"])
                if payload.get("previous")
                else None
            )
            pending = None
            if payload.get("pending"):
                raw = payload["pending"]
                pending_doc = PolicyDocument.from_payload(raw["document"])
                pending = PolicyProposal(
                    document=pending_doc,
                    computed_class=str(raw.get("computed_class", BREAKING)),
                    reasons=tuple(
                        str(reason) for reason in raw.get("reasons", ())
                    ),
                )
            audit_seq = payload.get("audit_seq")
            if not isinstance(audit_seq, int) or audit_seq < 0:
                raise PolicyError(f"bad audit_seq {audit_seq!r}")
            faults = int(payload.get("policy_faults", 0))
        except Exception as exc:
            self.mark_faulted(
                f"corrupt policy checkpoint: {type(exc).__name__}: {exc}"
            )
            return False
        with self._lock:
            self.document = document
            self.previous = previous
            self.pending = pending
            self._set_rules(document.make_rules())
            self.audit_seq = max(self.audit_seq, audit_seq)
            self.policy_faults = faults
            self.fault_reason = None
            if self.engine is not None:
                self.engine.swap_blueprint(document.make_blueprint())
                apply_blueprint_to_links(self.engine.blueprint, self.engine.db)
        return True

    @classmethod
    def from_file(cls, engine, path) -> "GovernedPolicy":
        """Load a policy document; unreadable files serve fail-closed."""
        try:
            document = PolicyDocument.load(path)
            return cls(engine, document=document)
        except Exception as exc:
            policy = cls(engine)
            policy.mark_faulted(f"failed to load policy document: {exc}")
            return policy
