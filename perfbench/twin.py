"""The in-process twin: the correctness oracle of every run.

The twin loads the same database file, blueprint and policy document
the server receives, and replays the same journal tail and operation
stream through :class:`BlueprintEngine` and :class:`GovernedPolicy`,
applying the server's admission rule (every event of a write must be
allowed, else the write is refused and nothing runs).  It records, per
operation, the response the server must give and the STALE/FRESH
transitions its wave causes, so the client can check every answer
and attribute every push to the operation that caused it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.blueprint import Blueprint
from repro.core.engine import BlueprintEngine
from repro.core.policy import DENY, GovernedPolicy
from repro.core.state import pending_work
from repro.metadb import load_database
from repro.metadb.oid import OID
from repro.network.protocol import (
    err_response,
    format_pending_response,
    format_query_response,
    format_stale_response,
    ok_response,
)


@dataclass
class Expected:
    """What one operation must produce."""

    #: Exact response per wire request (one per event for a window).
    responses: list[str]
    #: Per wire request, the stale-set transitions its wave causes, as
    #: ``(is_stale, oid)`` in the twin's order.
    groups: list[list[tuple[bool, OID]]] = field(default_factory=list)


@dataclass
class Oracle:
    """Everything the twin predicts for one run."""

    warmup: list[Expected]
    measured: list[Expected]
    #: The stale set after the last operation.
    final: set[OID]
    #: ``events_posted`` and ``deliveries`` the operations add.
    counts: dict[str, int]


class Twin:
    """An eager in-memory replica driven by the same inputs."""

    def __init__(self, inputs) -> None:
        self.db, _registry = load_database(inputs.db_path)
        blueprint = Blueprint.from_source(inputs.blueprint_path.read_text())
        self.engine = BlueprintEngine(self.db, blueprint)
        if inputs.policy_path is not None:
            self.policy = GovernedPolicy.from_file(self.engine, inputs.policy_path)
        else:
            self.policy = GovernedPolicy(self.engine)
        self._transitions: list[tuple[bool, OID]] = []
        self.db.on_stale_change(lambda oid, is_stale: self._transitions.append((is_stale, oid)))
        for event in inputs.tail:
            self._write((event,))
        self._transitions.clear()
        self.baseline = self.counters()

    def counters(self) -> dict[str, int]:
        metrics = self.engine.metrics
        return {"events_posted": metrics.events_posted, "deliveries": metrics.deliveries}

    def _write(self, events) -> str:
        """The server's admission rule: all events allowed, or none run."""
        denies = []
        for event in events:
            verdict, reason = self.policy.evaluate(self.db, event)
            if verdict == DENY:
                denies.append(reason)
        if denies:
            if len(events) == 1:
                return err_response(f"policy: {denies[0]}")
            return err_response(
                f"policy: {len(denies)} of {len(events)} events denied; "
                f"nothing posted ({denies[0]})"
            )
        stamped = [self.engine.post_message(event) for event in events]
        self.engine.run()
        return ok_response(" ".join(str(event.seq) for event in stamped))

    def _wave(self, events) -> tuple[str, list[tuple[bool, OID]]]:
        self._transitions = []
        response = self._write(events)
        return response, self._transitions

    def apply(self, op: tuple) -> Expected:
        kind, payload = op
        if kind in ("post", "eco", "batch", "window"):
            if kind == "window":
                waves = [self._wave((event,)) for event in payload]
            else:
                waves = [self._wave((payload,) if kind != "batch" else payload)]
            return Expected(
                responses=[response for response, _ in waves],
                groups=[transitions for _, transitions in waves],
            )
        if kind == "query":
            responses = [format_query_response(self.db.get(payload).properties.as_dict())]
        elif kind == "stale":
            responses = [format_stale_response(list(self.db.stale_set()))]
        elif kind == "pending":
            work = pending_work(self.db, self.engine.blueprint)
            responses = [format_pending_response([(item.oid, item.failing) for item in work])]
        else:
            raise ValueError(f"unknown operation kind {kind!r}")
        return Expected(responses=responses)

    def replay(self, ops: list[tuple]) -> list[Expected]:
        return [self.apply(op) for op in ops]


def predict(inputs) -> Oracle:
    """Replay the run's inputs into a fresh twin."""
    twin = Twin(inputs)
    warmup = twin.replay(inputs.warmup)
    measured = twin.replay(inputs.measured)
    counts = twin.counters()
    return Oracle(
        warmup=warmup,
        measured=measured,
        final=set(twin.db.stale_set()),
        counts={key: counts[key] - twin.baseline[key] for key in counts},
    )
