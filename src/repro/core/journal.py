"""Event journal and deterministic replay.

DAMOCLES is a tracking system; the journal makes the tracking itself
auditable.  Related work the paper cites ([Cas90], "Design Management
Based on Design Traces") manages designs from recorded traces — this
module brings that idea to the BluePrint: every *external* input to the
engine (design events, object and link creations) is appended to a
journal, and :func:`replay` reconstructs the exact database state by
feeding the journal to a fresh engine under the same blueprint.

Uses:

* audit — "who invalidated the layout and when";
* disaster recovery — rebuild the meta-database from the journal;
* what-if — replay the same history under a different (e.g. loosened)
  blueprint and compare outcomes (benchmark E7 does exactly this).

Only *inputs* are journaled, never derived effects: rule-driven property
writes, propagation and posts are recomputed at replay, which is the
determinism property ``tests/core/test_journal.py`` pins down.

:func:`replay_governed` extends plain replay to *governed* journals (the
server WAL with policy-v2 entries): policy lifecycle commands and deny
tombstones replay alongside the data, so a twin process reconstructs the
exact allow/deny decision log as well as the database state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.core.blueprint import Blueprint
from repro.core.engine import BlueprintEngine
from repro.core.events import EventMessage
from repro.metadb.database import MetaDatabase
from repro.metadb.links import Direction, Link, LinkClass
from repro.metadb.oid import OID


class JournalError(ValueError):
    """Malformed journal content."""


def event_payload(event: EventMessage) -> dict:
    """The JSON payload for one event (shared journal/WAL wire shape)."""
    return {
        "name": event.name,
        "direction": event.direction.value,
        "target": event.target.wire(),
        "arg": event.arg,
        "user": event.user,
    }


def payload_event(payload: dict) -> EventMessage:
    """Rebuild an :class:`EventMessage` from :func:`event_payload` data."""
    return EventMessage(
        name=payload["name"],
        direction=Direction(payload["direction"]),
        target=OID.parse(payload["target"]),
        arg=payload.get("arg", ""),
        user=payload.get("user", ""),
    )


@dataclass(frozen=True)
class JournalEntry:
    """One recorded external input.

    ``kind`` is one of ``object`` (an OID was created), ``link`` (a link
    was created by an activity), or ``event`` (a design event arrived).
    ``payload`` is the kind-specific data, already plain (JSON-ready).
    """

    seq: int
    kind: str
    payload: dict

    def to_json(self) -> str:
        return json.dumps(
            {"seq": self.seq, "kind": self.kind, **self.payload},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "JournalEntry":
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise JournalError(f"corrupt journal line: {exc}") from exc
        if "kind" not in data or "seq" not in data:
            raise JournalError(f"journal line missing kind/seq: {line!r}")
        seq = data.pop("seq")
        kind = data.pop("kind")
        return cls(seq=seq, kind=kind, payload=data)


@dataclass
class Journal:
    """An append-only record of external inputs to one project."""

    entries: list[JournalEntry] = field(default_factory=list)
    _next_seq: int = 1

    def _append(self, kind: str, payload: dict) -> JournalEntry:
        entry = JournalEntry(seq=self._next_seq, kind=kind, payload=payload)
        self._next_seq += 1
        self.entries.append(entry)
        return entry

    # -- recording ------------------------------------------------------------

    def record_object(self, oid: OID, properties: dict | None = None) -> None:
        self._append(
            "object",
            {"oid": oid.wire(), "properties": dict(properties or {})},
        )

    def record_link(self, link: Link) -> None:
        self._append(
            "link",
            {
                "source": link.source.wire(),
                "dest": link.dest.wire(),
                "class": link.link_class.value,
            },
        )

    def record_event(self, event: EventMessage) -> None:
        self._append("event", event_payload(event))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[JournalEntry]:
        return iter(self.entries)

    # -- persistence ------------------------------------------------------------

    def save(self, path: Path | str) -> Path:
        """Write the journal as JSON lines."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            "".join(entry.to_json() + "\n" for entry in self.entries)
        )
        return path

    @classmethod
    def load(cls, path: Path | str) -> "Journal":
        path = Path(path)
        if not path.exists():
            raise JournalError(f"no journal at {path}")
        journal = cls()
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            entry = JournalEntry.from_json(line)
            journal.entries.append(entry)
            journal._next_seq = max(journal._next_seq, entry.seq + 1)
        return journal


def attach_journal(engine: BlueprintEngine, journal: Journal) -> Journal:
    """Record every external input of *engine* into *journal*.

    Object/link creations are captured through database hooks; events are
    captured by wrapping ``post_message``.  Creations made by blueprint
    templates (auto-links) are *not* excluded at the hook level — they
    are re-derived at replay, so the recorder skips links whose creation
    happened while a template application is plausible.  In practice the
    unambiguous rule is: auto-created links are exactly those added with
    identical endpoints by replay's own hooks, so recording them too is
    harmless (replay skips duplicates).
    """

    def object_hook(obj) -> None:
        journal.record_object(obj.oid, obj.properties.as_dict())

    def link_hook(link: Link) -> None:
        journal.record_link(link)

    engine.db.on_object_created(object_hook)
    engine.db.on_link_created(link_hook)

    original_post = engine.post_message

    def recording_post(event: EventMessage) -> EventMessage:
        journal.record_event(event)
        return original_post(event)

    engine.post_message = recording_post  # type: ignore[method-assign]
    return journal


def replay(
    journal: Journal,
    blueprint: Blueprint,
    *,
    db_name: str = "replayed",
) -> tuple[MetaDatabase, BlueprintEngine]:
    """Reconstruct a project by feeding *journal* to a fresh engine.

    Returns the rebuilt database and its engine.  Because the journal
    holds every external input in order — and the engine is
    deterministic — the rebuilt database matches the original's state
    exactly (modulo a different blueprint, which is the what-if use).
    This is :func:`replay_governed` with the policy left out: a plain
    journal carries no policy revision, so the replayed policy has no
    event rules and admits every event.
    """
    db, engine, _policy = replay_governed(journal, blueprint, db_name=db_name)
    return db, engine


def replay_governed(
    entries,
    blueprint: Blueprint,
    *,
    db: MetaDatabase | None = None,
    db_name: str = "replayed-governed",
):
    """Replay a *governed* journal: data, policy lifecycle, and audit.

    Takes WAL-style :class:`JournalEntry` objects (kinds ``object`` /
    ``link`` / ``event`` / ``batch`` / ``policy`` / ``audit``) and
    reconstructs database state *and* governance state in one pass,
    mirroring the network bus's apply semantics exactly:

    * ``policy`` entries run through ``apply_lifecycle`` — refused ones
      (race losers) audit a deny, exactly as they did live;
    * ``audit`` entries are deny tombstones written by the live server;
      they are pre-scanned, never re-appended.  An event whose seq
      carries a tombstone is denied with the recorded reason even if
      re-evaluation would allow it (that is how a live ``policy_fault``
      deny — inherently non-deterministic — replays faithfully);
    * everything else re-evaluates against the replayed policy, which is
      deterministic, so rule-based denials re-derive bit-identically.

    Returns ``(db, engine, policy)`` — ``policy.audit_tail()`` is the
    reconstructed decision log.
    """
    from repro.core.policy import ALLOW, DENY, GovernedPolicy, PolicyError

    entries = list(entries)
    tombstones: dict[int, list[tuple[int, str]]] = {}
    for entry in entries:
        if entry.kind == "audit":
            ref = int(entry.payload["ref"])
            tombstones[ref] = [
                (int(index), str(reason))
                for index, reason in entry.payload.get("denied", [])
            ]
    if db is None:
        db = MetaDatabase(name=db_name)
    engine = BlueprintEngine(db, blueprint)
    policy = GovernedPolicy(engine)

    def decide(event: EventMessage, forced: dict[int, str], index: int):
        if index in forced:
            return DENY, forced[index]
        return policy.evaluate(db, event)

    for entry in entries:
        if entry.kind == "object":
            oid = OID.parse(entry.payload["oid"])
            if db.find(oid) is None:
                db.create_object(oid, entry.payload.get("properties") or None)
        elif entry.kind == "link":
            source = OID.parse(entry.payload["source"])
            dest = OID.parse(entry.payload["dest"])
            link_class = LinkClass(entry.payload["class"])
            exists = any(
                link.dest == dest and link.link_class is link_class
                for link in db.outgoing(source)
            )
            if not exists and source in db and dest in db:
                db.add_link(source, dest, link_class)
        elif entry.kind in ("event", "batch"):
            if entry.kind == "event":
                events = [payload_event(entry.payload)]
            else:
                events = [
                    payload_event(item) for item in entry.payload["events"]
                ]
            forced = dict(tombstones.get(entry.seq, ()))
            verdicts = [
                decide(event, forced, index)
                for index, event in enumerate(events)
            ]
            denies = [
                (index, reason)
                for index, (verdict, reason) in enumerate(verdicts)
                if verdict == DENY
            ]
            if denies:
                for index, reason in denies:
                    policy.audit_event(events[index], DENY, reason)
                continue  # live semantics: any deny rejects the whole entry
            for event in events:
                policy.audit_event(event, ALLOW, "")
            for event in events:
                engine.post(
                    event.name,
                    event.target,
                    event.direction,
                    arg=event.arg,
                    user=event.user,
                )
            engine.run()
        elif entry.kind == "policy":
            try:
                policy.apply_lifecycle(
                    entry.payload["action"], entry.payload.get("spec", {})
                )
            except PolicyError:
                pass  # audited deny; the live server answered ERR
        elif entry.kind == "audit":
            continue  # consumed in the pre-scan
        else:
            raise JournalError(f"unknown journal entry kind {entry.kind!r}")
    engine.run()
    return db, engine, policy


def state_fingerprint(db: MetaDatabase) -> dict[str, dict]:
    """A comparable snapshot: every OID's properties, plus link topology.

    Replay tests compare fingerprints of original and rebuilt databases.
    """
    objects = {
        obj.oid.wire(): obj.properties.as_dict()
        for obj in db.objects()
    }
    links = sorted(
        (link.source.wire(), link.dest.wire(), link.link_class.value)
        for link in db.links()
    )
    return {"objects": objects, "links": {"topology": links}}
