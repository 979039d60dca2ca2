"""Design events and the BluePrint's FIFO event queue.

Section 3.1: "the design activities are converted to events and sent to
the project BluePrint, where they are queued. ... Events are processed
sequentially, first-in first-out."

An event message carries an event name, a propagation direction (up or
down through the links), a target OID and optional arguments — exactly the
fields of the ``postEvent`` wire command::

    postEvent ckin up reg,verilog,4 "logic sim passed"
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.metadb.links import Direction
from repro.metadb.oid import OID

#: Well-known event names used throughout the paper's examples.
CKIN = "ckin"
CKOUT = "ckout"
OUTOFDATE = "outofdate"
HDL_SIM = "hdl_sim"
NL_SIM = "nl_sim"
DRC = "drc"
LVS = "lvs"


@dataclass(frozen=True)
class EventMessage:
    """One design event.

    Attributes:
        name: event name (``ckin``, ``outofdate``, ``drc`` ...).
        direction: which way the event travels through links.
        target: the OID the event is aimed at.
        arg: optional free-text argument (``"logic sim passed"``); exposed
            to run-time rules as ``$arg``.
        user: the designer or tool account that produced the event;
            exposed as ``$user``.
        seq: queue sequence number (0 until queued).
    """

    name: str
    direction: Direction
    target: OID
    arg: str = ""
    user: str = ""
    seq: int = 0

    def __post_init__(self) -> None:
        # Non-empty and free of str.isspace characters, tested in C: a
        # whitespace split leaves such a name as its only word.
        if not isinstance(self.name, str) or self.name.split() != [self.name]:
            raise ValueError(f"bad event name: {self.name!r}")

    def with_seq(self, seq: int) -> "EventMessage":
        return EventMessage(
            self.name, self.direction, self.target, self.arg, self.user, seq
        )

    def retargeted(self, target: OID) -> "EventMessage":
        """The same event aimed at a different OID (used by post-to rules)."""
        return EventMessage(
            self.name, self.direction, target, self.arg, self.user, self.seq
        )

    def __str__(self) -> str:
        arg = f" {self.arg!r}" if self.arg else ""
        return f"{self.name} {self.direction} {self.target.wire()}{arg}"


class QueueClosedError(RuntimeError):
    """Posting to a queue that has been closed."""


@dataclass
class EventQueue:
    """A strictly first-in first-out event queue with history.

    The queue assigns each posted event a monotonically increasing
    sequence number; processing order equals posting order, which several
    property tests pin down (the paper calls the ordering out explicitly).
    """

    _pending: deque[EventMessage] = field(default_factory=deque)
    _next_seq: int = 1
    history_limit: int = 4096
    #: The newest *history_limit* stamped events.
    history: deque[EventMessage] = field(init=False)
    closed: bool = False

    def __post_init__(self) -> None:
        self.history = deque(maxlen=self.history_limit)

    def post(self, event: EventMessage) -> EventMessage:
        """Enqueue *event*; returns the stamped copy."""
        if self.closed:
            raise QueueClosedError("event queue is closed")
        stamped = event.with_seq(self._next_seq)
        self._next_seq += 1
        self._pending.append(stamped)
        self.history.append(stamped)
        return stamped

    def pop(self) -> EventMessage:
        """Dequeue the oldest pending event (IndexError when empty)."""
        return self._pending.popleft()

    def discard(self, seqs: set[int]) -> int:
        """Drop pending events whose seq is in *seqs*; returns the count.

        Used to withdraw the unprocessed remainder of a rejected batch —
        leaving it queued would silently execute during the next post.
        """
        before = len(self._pending)
        self._pending = deque(
            event for event in self._pending if event.seq not in seqs
        )
        return before - len(self._pending)

    def peek(self) -> EventMessage | None:
        return self._pending[0] if self._pending else None

    def close(self) -> None:
        """Refuse further posts (used at server shutdown)."""
        self.closed = True

    def __len__(self) -> int:
        return len(self._pending)

    def __bool__(self) -> bool:
        return bool(self._pending)

    @property
    def posted_count(self) -> int:
        """Total number of events ever posted."""
        return self._next_seq - 1
