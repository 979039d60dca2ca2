"""In-process event bus: the transport used by tests and single-process
projects.

The bus speaks the same line dialect as the TCP server, so a wrapper
written against the bus works unchanged against the network — the
"generic interface which facilitates the tool integration" of the
conclusion.  ``process_after_post`` controls whether each accepted event
is processed immediately (synchronous projects, the default) or left in
the queue for an explicit :meth:`drain` (batching, benchmarks).

Beyond posting, the bus is the server's command back end:

* ``stale`` answers from a wire-format mirror of the database's
  incremental stale set, kept current by a stale-change listener —
  O(result), no scan, safe to read from any thread;
* ``subscribe`` registers a per-connection callback; the same listener
  fans ``STALE <oid>`` / ``FRESH <oid>`` lines out to every subscriber
  the moment a wave re-buckets an object;
* ``batch`` validates every target before posting anything (atomic
  accept/reject), then drains the queue once;
* engine failures (strict-mode :class:`EngineError`, database errors)
  are converted to ``ERR`` responses instead of escaping to the
  transport — a bad post must never kill the connection.

Durability (the crash-safe server): every exclusive command —
``postEvent``, ``batch``, ``policy propose|approve|rollback`` — takes
one write path in three steps.  :meth:`admit_durable` validates and
appends the command to the attached :class:`WriteAheadLog`, buffered,
with no disk barrier; :meth:`apply_admitted` runs the policy gate, the
wave and any due checkpoint; :meth:`ensure_durable` then holds the
response until the journal tail the write left is on disk.  The first
two steps (:meth:`write`) run inside the caller's writer section — the
threaded server's exclusive lock, the asyncio server's loop thread — so
admission and apply are one step in ticket order and journal order
equals wave order by construction; an in-process caller that writes
from several threads must serialise its writes the same way.  The
barrier runs outside it, where every writer that reached it since the
previous barrier shares one fsync (group commit); an ``OK`` therefore
still implies the event survives a process kill.
:meth:`apply_journal_entry` re-admits recovered entries through the
same gate and wave code, so replay is the live semantics, not a
reimplementation of them.  A bounded writer queue (``busy_limit``)
turns overload into an explicit ``ERR busy`` with a retry hint instead
of unbounded growth, and ``health`` reports the gauges (journal lag,
queue depth, rejection counts) a load balancer or self-healing client
needs.

Governance (policy engine v2): every bus owns a
:class:`~repro.core.policy.GovernedPolicy`.  Event writes are evaluated
at *apply* time — in journal order, so replay re-derives the decisions
deterministically — and every deny is both audited and tombstoned into
the WAL (an ``audit`` entry referencing the denied entry's seq).  The
tombstone is the journal tail the deny waits on, so the ``ERR`` goes out
only after the same group-commit barrier as an ack; that is how a
non-deterministic ``policy_fault`` denial survives replay.  Policy
lifecycle commands ride the same write path as posts: validated at
admission, journaled as ``policy`` entries, applied (and audited) in
journal order — ``crash_point("mid-policy-apply")`` sits between
validation and the journal append, so a kill there loses the command
while an earlier journaled propose survives as pending.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

from repro.core.engine import BlueprintEngine, EngineError
from repro.core.events import EventMessage
from repro.core.journal import JournalEntry, JournalError
from repro.core.policy import ALLOW, DENY, GovernedPolicy, PolicyError
from repro.metadb.errors import MetaDBError
from repro.metadb.links import Direction
from repro.metadb.oid import OID
from repro.network.protocol import (
    LOCK_EXCLUSIVE,
    POLICY_WRITES,
    Command,
    ProtocolError,
    busy_response,
    err_response,
    format_audit_response,
    format_notification,
    format_pending_response,
    format_policy_status,
    format_query_response,
    format_stale_response,
    format_status_response,
    ok_response,
    parse_command,
)
from repro.network.wal import WriteAheadLog, payload_event
from repro.testing.faults import crash_point

#: Subscriber signature: receives one formatted notification line.
Subscriber = Callable[[str], None]

#: Prefix of a policy refusal: a deny, or a lifecycle command that lost
#: its race.  Nothing was applied, so a failed barrier does not change it.
_POLICY_ERR = err_response("policy:")


@dataclass
class EventBus:
    """Line-protocol front end over one :class:`BlueprintEngine`."""

    engine: BlueprintEngine
    process_after_post: bool = True
    lines_seen: int = 0
    stats: dict[str, int] = field(default_factory=dict)
    #: Write-ahead journal: every admitted write is appended here, and
    #: its response waits for the fsync barrier (None = no durability
    #: layer).
    wal: WriteAheadLog | None = None
    #: Reject posts with ``ERR busy`` once the engine queue holds this
    #: many events (None = unbounded; the pre-crash-safety behaviour).
    busy_limit: int | None = None
    #: Retry hint carried in the busy rejection.
    retry_after: float = 0.1
    #: Run ``checkpointer`` after this many journaled events so the
    #: journal stays bounded (None = only explicit checkpoints).
    checkpoint_every: int | None = None
    #: Persists the database and truncates the journal; returns True on
    #: success.  Supplied by ``damocles serve`` (it owns paths/backends).
    checkpointer: Callable[[], bool] | None = None
    #: The governed policy consulted on every write (created from the
    #: engine when not supplied — every bus is governed).
    policy: GovernedPolicy | None = None

    def __post_init__(self) -> None:
        self._events_since_checkpoint = 0
        if self.policy is None:
            self.policy = GovernedPolicy(self.engine)
        #: Highest journal seq whose apply has finished — the journal
        #: tail as the last write's apply left it, deny tombstones
        #: included.  The checkpoint watermark and ``journal_applied``.
        self.applied_seq = self.wal.last_seq if self.wal is not None else 0
        # Wire-format mirror of the incremental stale set.  The listener
        # fires from whichever thread runs the wave; readers take the
        # same small lock, so `stale` answers consistently without ever
        # touching database internals mid-mutation.
        self._stale_lock = threading.Lock()
        # Counter increments need their own lock: the server's lock-free
        # read paths (query/stale/status/ping) count from many handler
        # threads at once, and `+=` on a shared int loses updates.
        self._stats_lock = threading.Lock()
        self._stale_wire: set[OID] = set(self.engine.db.stale_set())
        self._subscribers: list[Subscriber] = []
        self._closed = False
        self.engine.db.on_stale_change(self._on_stale_change)

    def close(self) -> None:
        """Detach from the database's stale-listener channel.

        Without this a short-lived bus over a long-lived engine keeps
        its listener (and therefore itself) alive on the database for
        every future stale transition.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self.engine.db.remove_stale_listener(self._on_stale_change)
        except ValueError:
            pass

    def reopen(self) -> None:
        """Undo :meth:`close`: reseed the mirror and re-listen."""
        if not self._closed:
            return
        self._closed = False
        with self._stale_lock:
            self._stale_wire = set(self.engine.db.stale_set())
        self.engine.db.on_stale_change(self._on_stale_change)

    # -- programmatic posting -------------------------------------------------

    def post(
        self,
        name: str,
        target: OID | str,
        direction: Direction | str = Direction.DOWN,
        arg: str = "",
        user: str = "",
    ) -> EventMessage:
        event = self.engine.post(name, target, direction, arg, user)
        if self.process_after_post:
            self.engine.run()
        return event

    def post_message(self, event: EventMessage) -> EventMessage:
        stamped = self.engine.post_message(event)
        if self.process_after_post:
            self.engine.run()
        return stamped

    def drain(self) -> int:
        """Process everything pending; returns the number of waves run."""
        return self.engine.run()

    # -- stale mirror / subscriptions ----------------------------------------

    def _on_stale_change(self, oid: OID, is_stale: bool) -> None:
        with self._stale_lock:
            if is_stale:
                self._stale_wire.add(oid)
            else:
                self._stale_wire.discard(oid)
        self.publish(format_notification(oid, is_stale))

    def stale_snapshot(self) -> list[OID]:
        """A consistent copy of the stale set, answered from the mirror."""
        with self._stale_lock:
            return list(self._stale_wire)

    def subscribe(self, subscriber: Subscriber) -> None:
        """Send every future ``STALE`` / ``FRESH`` line to *subscriber*."""
        with self._stale_lock:
            if subscriber not in self._subscribers:
                self._subscribers.append(subscriber)

    def unsubscribe(self, subscriber: Subscriber) -> None:
        with self._stale_lock:
            if subscriber in self._subscribers:
                self._subscribers.remove(subscriber)

    @property
    def subscriber_count(self) -> int:
        with self._stale_lock:
            return len(self._subscribers)

    def publish(self, line: str) -> None:
        """Fan one notification line out to every subscriber.

        A subscriber that raises (closed socket, slow client gone) is
        dropped; delivery to the others continues.
        """
        with self._stale_lock:
            subscribers = list(self._subscribers)
        for subscriber in subscribers:
            try:
                subscriber(line)
            except Exception:
                self.unsubscribe(subscriber)
                self._count("subscribers_dropped")
        if subscribers:
            self._count("notifications_sent", len(subscribers))

    def _count(self, name: str, by: int = 1) -> None:
        with self._stats_lock:
            self.stats[name] = self.stats.get(name, 0) + by

    # -- line protocol -----------------------------------------------------------

    def note_wire_message(self) -> None:
        """Count one non-line wire message (framed transport requests),
        so ``lines_seen`` stays the total-messages gauge it has always
        been regardless of transport."""
        with self._stats_lock:
            self.lines_seen += 1

    def parse_line(self, line: str) -> Command:
        """Count and parse one wire line (shared with the TCP handler)."""
        with self._stats_lock:
            self.lines_seen += 1
        try:
            return parse_command(line)
        except ProtocolError:
            self._count("protocol_errors")
            raise

    def handle_line(
        self,
        line: str,
        subscriber: Subscriber | None = None,
        health_extra: dict[str, int] | None = None,
    ) -> str:
        """Process one wire line, returning the response line."""
        try:
            command = self.parse_line(line)
        except ProtocolError as exc:
            return err_response(str(exc))
        return self.handle_command(
            command, subscriber=subscriber, health_extra=health_extra
        )

    def handle_command(
        self,
        command: Command,
        subscriber: Subscriber | None = None,
        health_extra: dict[str, int] | None = None,
    ) -> str:
        if command.kind == "ping":
            return "PONG"
        if command.kind == "quit":
            return "BYE"
        if command.kind == "health":
            return format_status_response(self.health_counters(health_extra))
        if command.kind in LOCK_EXCLUSIVE:
            return self.ensure_durable(*self.write(command))
        if command.kind == "policy_status":
            return format_policy_status(self.policy.status_fields())
        if command.kind == "audit":
            limit = int(command.args[0]) if command.args else None
            return format_audit_response(
                [record.to_payload() for record in self.policy.audit_tail(limit)]
            )
        if command.kind == "query":
            assert command.oid is not None
            obj = self.engine.db.find(command.oid)
            if obj is None:
                return err_response(f"unknown OID {command.oid}")
            return format_query_response(obj.properties.as_dict())
        if command.kind == "stale":
            self._count("stale_from_set")
            return format_stale_response(self.stale_snapshot())
        if command.kind == "pending":
            return self._handle_pending()
        if command.kind == "status":
            return format_status_response(self.status_counters())
        if command.kind == "subscribe":
            if subscriber is None:
                return err_response(
                    "subscribe requires a streaming connection "
                    "(use the TCP server or EventBus.subscribe)"
                )
            self.subscribe(subscriber)
            return ok_response("subscribed")
        return err_response(f"unhandled command kind {command.kind!r}")

    # -- command back ends ----------------------------------------------------

    def _busy(self) -> str | None:
        """Backpressure: reject before admission when the queue is full.

        A busy rejection happens *before* validation and journaling, so
        the event provably did not run — which is what makes it safe for
        a client to retry even a non-idempotent post.
        """
        if self.busy_limit is None:
            return None
        depth = len(self.engine.queue)
        if depth < self.busy_limit:
            return None
        return self.reject_busy(f"queue depth {depth}")

    def reject_busy(self, detail: str) -> str:
        """Count and format one backpressure rejection (server + bus)."""
        self._count("busy_rejections")
        return busy_response(self.retry_after, detail)

    @staticmethod
    def _events(command: Command) -> tuple[EventMessage, ...]:
        """The events a write command carries (none for policy writes)."""
        if command.kind == "post":
            assert command.event is not None
            return (command.event,)
        return command.events

    @staticmethod
    def _policy_spec(command: Command) -> dict:
        """The journaled lifecycle spec for a policy write command."""
        if command.kind == "policy_propose":
            return {
                "change_class": command.args[0],
                "op": command.args[1],
                "args": list(command.args[2:]),
            }
        if command.kind == "policy_approve":
            return {"version": command.args[0]}
        return {}

    # -- the write path -------------------------------------------------------

    def write(self, command: Command) -> tuple[int, str]:
        """Admit and apply one exclusive command, in the caller's writer
        section: :meth:`admit_durable`, then :meth:`apply_admitted`.

        Returns ``(seq, response)``: the journal tail the write left (its
        own entry, or its deny tombstone; 0 when nothing was journaled)
        and the response, which the caller hands to
        :meth:`ensure_durable` *after* leaving the writer section.
        """
        seq = self.admit_durable(command)
        if isinstance(seq, str):
            return 0, seq
        response = self.apply_admitted(command, seq)
        return self.applied_seq, response

    def admit_durable(self, command: Command) -> int | str:
        """Backpressure, validation and the journal append, without a
        disk barrier (:meth:`ensure_durable` is the barrier).

        Returns the entry's seq (0 with no journal attached), or the
        response when the command was rejected before admission (busy,
        zero-event batch, unknown OID, invalid lifecycle command,
        journal failure) — a rejected command provably did not run.
        """
        kind = command.kind
        events = self._events(command)
        if kind == "batch" and not events:
            return err_response("batch of zero events")
        busy = self._busy()
        if busy is not None:
            return busy
        spec: dict = {}
        if kind in POLICY_WRITES:
            spec = self._policy_spec(command)
            # Admission-time validation: an obviously bad lifecycle
            # command (unknown op, class mismatch, nothing pending) is
            # refused before it ever reaches the journal.  Anything that
            # slips past is re-checked at apply time, where a loser
            # audits a deny.
            try:
                self.policy.validate(kind, spec)
            except PolicyError as exc:
                self._count("policy_rejected")
                return err_response(f"policy: {exc}")
            # A kill here loses the command entirely (it was never
            # journaled): the server restarts on the OLD version, with
            # any earlier journaled propose still pending — the
            # fail-closed direction for change control.
            crash_point("mid-policy-apply")
            return self._journal(kind, events, spec)
        # Validate targets at post time: silently dropping the event in
        # _deliver (non-strict) or killing the connection (strict) are
        # both worse than an honest ERR.
        unknown = [
            event.target.wire()
            for event in events
            if self.engine.db.find(event.target) is None
        ]
        if unknown:
            self._count("posts_rejected", len(unknown))
            if kind == "post":
                return err_response(f"unknown OID {unknown[0]}")
            return err_response(
                f"unknown OID {' '.join(sorted(set(unknown)))}; nothing posted"
            )
        seq = self._journal(kind, events, spec)
        if isinstance(seq, str):
            return seq
        # The event is journaled but its wave has not run: a kill here
        # is the canonical lost-update crash the journal exists to
        # survive.
        crash_point("mid-wave")
        return seq

    def _journal(
        self, kind: str, events: tuple[EventMessage, ...], spec: dict
    ) -> int | str:
        """Append one admitted write to the journal (buffered); returns
        its seq, 0 with no journal, or the ERR when the append failed —
        the wave then does not run in this process."""
        if self.wal is None:
            return 0
        try:
            if kind in POLICY_WRITES:
                entry = self.wal.append_policy(kind, spec, sync=False)
            elif kind == "post":
                entry = self.wal.append_event(events[0], sync=False)
            else:
                # One journal entry for the whole batch: replay then
                # reproduces batch semantics — including
                # withdraw-on-error — instead of replaying members an
                # errored batch never ran.
                entry = self.wal.append_batch(events, sync=False)
        except (OSError, JournalError) as exc:
            self._count("journal_errors")
            return err_response(f"journal append failed: {exc}; event not admitted")
        entries = len(events) or 1
        self._count("journal_appends", entries)
        self._events_since_checkpoint += entries
        return entry.seq

    def apply_admitted(self, command: Command, seq: int) -> str:
        """The policy gate, the wave and any due checkpoint, for a write
        :meth:`admit_durable` admitted as journal entry *seq*."""
        try:
            if command.kind in POLICY_WRITES:
                return self._apply_policy(command.kind, self._policy_spec(command))
            return self._apply_events(
                command.kind, self._events(command), entry_seq=seq
            )
        finally:
            if self.wal is not None:
                self.applied_seq = self.wal.last_seq
            self._maybe_checkpoint()

    def ensure_durable(self, seq: int, response: str) -> str:
        """Hold *response* until journal entry *seq* is on disk.

        Runs outside the writer section, so every writer that reaches it
        while a barrier is in flight shares the next one (group commit).
        When the barrier fails, an applied write's answer becomes the
        honest one — the wave ran in this process, but a crash could
        still lose it; a policy refusal stays the refusal it was.
        """
        if not seq:
            return response
        try:
            self.wal.sync(seq)
        except (OSError, JournalError) as exc:
            self._count("journal_errors")
            if response.startswith(_POLICY_ERR):
                return response
            return err_response(
                f"journal sync failed: {exc}; "
                "event applied in memory but not durable"
            )
        return response

    def _apply_events(
        self,
        kind: str,
        events: tuple[EventMessage, ...],
        entry_seq: int = 0,
        forced: dict[int, str] | None = None,
    ) -> str:
        denied = self._gate(events, entry_seq=entry_seq, forced=forced)
        if denied is not None:
            return denied
        if kind in ("post", "event"):
            return self._admit_post(events[0])
        return self._admit_batch(events)

    def _gate(
        self,
        events: tuple[EventMessage, ...],
        *,
        entry_seq: int = 0,
        forced: dict[int, str] | None = None,
    ) -> str | None:
        """The fail-closed policy gate, run in journal order at apply time.

        Returns ``None`` when every event is allowed (each audited
        ``ALLOW``); otherwise audits the denies, tombstones them into
        the WAL (live path only — *forced* denials come FROM tombstones
        during recovery/replay and are never re-appended), and returns
        the ``ERR`` response.  Any deny rejects the whole write, so an
        ``ALLOW`` audit record always means the wave ran.
        """
        verdicts: list[tuple[str, str]] = []
        for index, event in enumerate(events):
            if forced is not None and index in forced:
                verdicts.append((DENY, forced[index]))
            else:
                verdicts.append(self.policy.evaluate(self.engine.db, event))
        denies = [
            (index, reason)
            for index, (verdict, reason) in enumerate(verdicts)
            if verdict == DENY
        ]
        if not denies:
            for event in events:
                self.policy.audit_event(event, ALLOW, "")
            return None
        if entry_seq and self.wal is not None and forced is None:
            # The tombstone becomes the journal tail, so the ERR waits
            # in ensure_durable on the same barrier as an ack: a
            # replayer must never be able to resurrect (grant) a
            # decision this process refused.
            try:
                self.wal.append_audit(entry_seq, denies, sync=False)
            except (OSError, JournalError):
                self._count("journal_errors")
        for index, reason in denies:
            self.policy.audit_event(events[index], DENY, reason)
        self._count("policy_denials", len(denies))
        first_reason = denies[0][1]
        if len(events) == 1:
            return err_response(f"policy: {first_reason}")
        return err_response(
            f"policy: {len(denies)} of {len(events)} events denied; "
            f"nothing posted ({first_reason})"
        )

    def _apply_policy(self, action: str, spec: dict) -> str:
        """Apply one (journaled) lifecycle command in seq order."""
        try:
            self.policy.apply_lifecycle(action, spec)
        except PolicyError as exc:
            # Race loser: admitted before the winner applied.  The deny
            # is already audited; replay hits the same state in the same
            # order and re-derives it.
            self._count("policy_rejected")
            return err_response(f"policy: {exc}")
        self._count("policy_changes")
        if action == "policy_propose" and self.policy.pending is not None:
            return ok_response(
                f"{self.policy.pending.document.version} pending"
            )
        return ok_response(f"{self.policy.version} active")

    def _admit_post(self, event: EventMessage) -> str:
        """Run one admitted event; shared by the wire path and recovery."""
        try:
            stamped = self.post_message(event)
        except (EngineError, MetaDBError) as exc:
            self._count("engine_errors")
            return err_response(f"engine: {exc}")
        return ok_response(str(stamped.seq))

    def _admit_batch(self, events: tuple[EventMessage, ...]) -> str:
        # Atomic accept: stamp everything first, then drain once, so the
        # batch occupies one contiguous FIFO window in the queue.
        stamped = [self.engine.post_message(event) for event in events]
        self._count("batches")
        try:
            if self.process_after_post:
                self.engine.run()
        except (EngineError, MetaDBError) as exc:
            self._count("engine_errors")
            # Withdraw the unprocessed remainder: an ERR response
            # promises the batch was rejected, so the events still
            # queued must not execute during the next post's drain.
            self.engine.queue.discard({event.seq for event in stamped})
            return err_response(f"engine: {exc}")
        return ok_response(" ".join(str(event.seq) for event in stamped))

    # -- durability: recovery and checkpointing -------------------------------

    def apply_journal_entry(
        self, entry: JournalEntry, forced: dict[int, str] | None = None
    ) -> str:
        """Re-admit one recovered journal entry (startup replay).

        Runs the exact admission code the wire path runs — engine errors
        and policy denials reproduce deterministically as the same
        ``ERR`` the original client saw — but skips validation,
        journaling and busy checks: the entry was already admitted once.
        *forced* maps member index → deny reason from a tombstone, so a
        live ``policy_fault`` denial (non-deterministic) replays as the
        deny it was, never as a grant.
        """
        if entry.kind == "event":
            return self._apply_events(
                "event", (payload_event(entry.payload),), forced=forced
            )
        if entry.kind == "batch":
            events = tuple(
                payload_event(payload) for payload in entry.payload["events"]
            )
            return self._apply_events("batch", events, forced=forced)
        if entry.kind == "policy":
            return self._apply_policy(
                entry.payload["action"], entry.payload.get("spec", {})
            )
        if entry.kind == "audit":
            return ok_response("audit tombstone")
        raise JournalError(f"unknown journal entry kind {entry.kind!r}")

    def recover(
        self,
        entries,
        *,
        db_watermark: int = 0,
        policy_watermark: int = 0,
    ) -> int:
        """Replay recovered WAL entries into engine AND governance state.

        ``db_watermark`` (``db.wal_seq``) is the last event/batch already
        inside the restored database; ``policy_watermark`` is the last
        lifecycle entry already inside the restored policy sidecar.  The
        two can differ by one checkpoint if the process died between the
        database save and the sidecar write — replaying the gap is
        idempotent for governance (specs re-derive the same versions)
        and skipped for data.  Deny tombstones are pre-scanned and fed
        back as forced denials; they are never re-appended (recovery
        must not grow the journal it is reading).  Returns the number of
        entries applied.
        """
        entries = list(entries)
        tombstones: dict[int, dict[int, str]] = {}
        for entry in entries:
            if entry.kind == "audit":
                tombstones[int(entry.payload["ref"])] = {
                    int(index): str(reason)
                    for index, reason in entry.payload.get("denied", [])
                }
        applied = 0
        for entry in entries:
            if entry.kind == "audit":
                continue
            if entry.kind == "policy":
                if entry.seq <= policy_watermark:
                    continue
            elif entry.seq <= db_watermark:
                continue
            self.apply_journal_entry(entry, forced=tombstones.get(entry.seq))
            applied += 1
        return applied

    def _maybe_checkpoint(self) -> None:
        if (
            self.checkpointer is None
            or self.checkpoint_every is None
            or self._events_since_checkpoint < self.checkpoint_every
        ):
            return
        self.run_checkpoint()

    def run_checkpoint(self) -> bool:
        """Persist the database and truncate the journal (if configured).

        Failure is survivable by design: the journal is kept, the
        counter keeps accumulating, and the next post retries.
        """
        if self.checkpointer is None:
            return False
        if self.checkpointer():
            self._count("checkpoints")
            self._events_since_checkpoint = 0
            return True
        self._count("checkpoint_failures")
        return False

    def health_counters(
        self, extra: dict[str, int] | None = None
    ) -> dict[str, int]:
        """Durability/backpressure gauges; lock-free like ``status``."""
        counters = {
            "queue": len(self.engine.queue),
            "stale": len(self._stale_wire),
            "subscribers": self.subscriber_count,
            "busy_rejections": self.stats.get("busy_rejections", 0),
            "engine_errors": self.stats.get("engine_errors", 0),
            "journal_appends": self.stats.get("journal_appends", 0),
            "journal_errors": self.stats.get("journal_errors", 0),
            "checkpoints": self.stats.get("checkpoints", 0),
            "checkpoint_failures": self.stats.get("checkpoint_failures", 0),
            "events_since_checkpoint": self._events_since_checkpoint,
            # Governance gauges: plain int reads off the policy object,
            # same lock-free discipline as everything above.
            "policy_version": self.policy.version,
            "policy_pending": self.policy.pending_count,
            "audit_seq": self.policy.audit_seq,
            "policy_faults": self.policy.policy_faults,
            "policy_denials": self.stats.get("policy_denials", 0),
        }
        if self.wal is not None:
            counters["journal_seq"] = self.wal.last_seq
            counters["journal_durable"] = self.wal.durable_seq
            counters["journal_applied"] = self.applied_seq
            counters["journal_checkpoint"] = self.wal.checkpoint_seq
            counters["journal_lag"] = self.wal.lag
            counters["journal_segments"] = self.wal.segment_count
            counters["journal_broken"] = int(self.wal.broken)
            counters["journal_barriers"] = self.wal.sync_barriers
        if extra:
            counters.update(extra)
        return counters

    def _handle_pending(self) -> str:
        from repro.core.state import pending_work

        work = pending_work(self.engine.db, self.engine.blueprint)
        return format_pending_response(
            [(item.oid, item.failing) for item in work]
        )

    def status_counters(self) -> dict[str, int]:
        """GIL-atomic counter snapshot: safe to read while a wave runs."""
        db = self.engine.db
        metrics = self.engine.metrics
        return {
            "objects": db.object_count,
            "links": db.link_count,
            "stale": len(self._stale_wire),
            "queue": len(self.engine.queue),
            "events_posted": metrics.events_posted,
            "waves": metrics.waves,
            "deliveries": metrics.deliveries,
            "subscribers": self.subscriber_count,
            "lines_seen": self.lines_seen,
            "clock": db.clock,
        }
