"""The ``postEvent`` wire protocol.

Design activities "transmit information ... to the BluePrint by sending
events through the computer network" (section 1).  The wire format is the
paper's wrapper-script command::

    postEvent ckin up reg,verilog,4 "logic sim passed"

i.e. ``postEvent EVENT up|down BLOCK,VIEW,VERSION ["ARG"]``.  The project
server speaks a line-oriented dialect around it:

* ``postEvent ...``  → ``OK <seq>`` or ``ERR <reason>``
* ``batch "postEvent ..." "postEvent ..."``  → ``OK <seq> <seq> ...``
  (atomic: every event validated before any is posted)
* ``query BLOCK,VIEW,VERSION``  → ``OK <prop>=<value> ...`` or ``ERR ...``
  (values shlex-quoted so embedded whitespace round-trips)
* ``stale``  → ``OK <oid> <oid> ...`` straight from the incremental
  stale set (O(result), no scan)
* ``pending``  → ``OK <oid>:<check>+<check> ...`` — what still blocks
  the planned state, per the query planner
* ``status``  → ``OK <counter>=<n> ...`` server/engine counters
* ``health``  → ``OK <gauge>=<n> ...`` durability/backpressure gauges
  (journal lag, writer backlog, lock waits) — answered lock-free so it
  works even while the server is wedged under load
* ``subscribe``  → ``OK subscribed``; the connection then receives
  ``STALE <oid>`` / ``FRESH <oid>`` push lines as waves re-bucket objects
* ``policy status``  → ``OK <field>=<value> ...`` — governed-policy
  snapshot (version, change class, content hash, pending proposal)
* ``policy propose CLASS OP [ARGS...]``  → ``OK <version> <state>`` —
  propose a revision (``loosen EVENTS`` | ``require TOOL COND [VIEW]``
  | ``drop TOOL COND [VIEW]``); additive revisions auto-activate,
  breaking ones park pending
* ``policy approve VERSION``  → ``OK <version> active`` — activate the
  pending breaking proposal
* ``policy rollback``  → ``OK <version> active`` — restore the previous
  version's content as a new version
* ``audit [N]``  → ``OK <record> ...`` — the allow/deny audit tail
  (each record one shlex-quoted JSON token)
* ``ping``  → ``PONG``
* ``quit``  → closes the connection

When the writer backlog exceeds the server's bound, ``postEvent`` /
``batch`` are rejected with ``ERR busy: retry after <seconds>s``
instead of queueing without limit; a rejected event was *not* admitted,
so retrying it is always safe (:func:`parse_busy` extracts the hint).

All messages are UTF-8 lines terminated by ``\\n``.

Lines are split into words by :func:`split_words`, which gives exactly
what :func:`shlex.split` gives: the quoting :func:`format_command` and
the response formatters emit is read by one compiled regex, and any
other line (another shell escape, an unclosed quote) is handed to
:func:`shlex.split` itself, so its words and its error texts are
shlex's.  ``shlex`` is otherwise used only to quote.

Each command is described once, in :data:`COMMANDS`: its line spelling,
its argument codec, its lock class, whether a client may resend it after
a transport failure, and how a client parses its ``OK`` body.  The line
parser (:func:`parse_command`), the line renderer
(:func:`format_command`), the framed codec
(:func:`repro.network.framing.request_to_command` /
:func:`~repro.network.framing.command_to_request`), the servers' lock
sets and the client all read that table.  The lock classes:
:data:`LOCK_EXCLUSIVE` kinds are journaled writes that enqueue FIFO
behind one writer lock, :data:`LOCK_SHARED` kinds scan the database
under a shared read lock, and everything else answers from GIL-atomic
snapshots with no lock at all (so they complete even while a wave is
running).
"""

from __future__ import annotations

import json
import re
import shlex
from dataclasses import dataclass
from typing import Callable

from repro.core.events import EventMessage
from repro.metadb.links import Direction
from repro.metadb.oid import OID


class ProtocolError(ValueError):
    """A malformed wire line."""


POST_EVENT = "postEvent"
BATCH = "batch"
POLICY = "policy"

#: Notification verbs pushed to subscribed connections.
NOTIFY_STALE = "STALE"
NOTIFY_FRESH = "FRESH"

#: Final line a line-dialect server writes to a subscriber it is about
#: to drop for overflow — overload is thereby distinguishable from a
#: crashed server on the client side.  (The framed transport never
#: drops slow subscribers; it coalesces instead.)
OVERLOAD_LINE = "ERR overloaded"

#: One token of a wire line, for :func:`split_words`: a run of shlex
#: whitespace, a ``'…'`` segment, a ``"…"`` segment whose only escapes
#: are ``\"`` and ``\\``, a bare run, or any other single character
#: (a backslash outside quotes, an unclosed quote), which sends the line
#: to :func:`shlex.split`.  The last alternative matches anywhere, so the
#: tokens cover the line end to end.
_WIRE_TOKEN_RE = re.compile(
    r"""([ \t\r\n]+)|'([^']*)'|"((?:[^"\\]|\\["\\])*)"|([^ \t\r\n'"\\]+)|(.)""",
    re.DOTALL,
)
_DOUBLE_QUOTE_ESCAPE_RE = re.compile(r'\\(["\\])')


def split_words(line: str) -> list[str]:
    """Split *line* into words exactly as :func:`shlex.split` does.

    The quoting :func:`format_command` emits (bare words, single quotes
    with the ``'"'"'`` escape, double quotes escaping only ``"`` and
    ``\\``) is read with one compiled regex; a line that uses any other
    shell escape falls back to :func:`shlex.split`, so the words, and
    the ``ValueError`` of a malformed line, are always shlex's.
    """
    words: list[str] = []
    word: str | None = None
    for space, single, double, bare, other in _WIRE_TOKEN_RE.findall(line):
        if space:
            if word is not None:
                words.append(word)
                word = None
            continue
        if other:
            return shlex.split(line)
        if double and "\\" in double:
            double = _DOUBLE_QUOTE_ESCAPE_RE.sub(r"\1", double)
        # An empty quoted segment leaves every group empty: it still
        # makes a word, the empty one.
        piece = bare or single or double
        word = piece if word is None else word + piece
    if word is not None:
        words.append(word)
    return words


def _flatten(text: str) -> str:
    """Degrade newlines to spaces: line framing cannot carry them, and
    a raw newline inside a quoted field would desynchronise a persistent
    connection (the server reads one fragment, the client pairs the next
    command with a stale buffered response)."""
    return text.replace("\r\n", " ").replace("\n", " ").replace("\r", " ")


def format_post_event(event: EventMessage) -> str:
    """Render *event* as a ``postEvent`` line.

    The event name is shlex-quoted: plain names (every name the paper
    uses) stay bare, but a name carrying shell metacharacters still
    re-parses to itself.  Newlines in any field degrade to spaces (the
    same rule every response formatter applies).
    """
    name = shlex.quote(_flatten(event.name))
    line = f"{POST_EVENT} {name} {event.direction.value} {event.target.wire()}"
    if event.arg:
        escaped = _flatten(event.arg).replace("\\", "\\\\").replace('"', '\\"')
        line += f' "{escaped}"'
    if event.user:
        escaped = _flatten(event.user).replace("\\", "\\\\").replace('"', '\\"')
        if not event.arg:
            line += ' ""'
        line += f' "{escaped}"'
    return line


def parse_post_event(line: str) -> EventMessage:
    """Parse a ``postEvent`` line into an :class:`EventMessage`.

    Raises :class:`ProtocolError` with a human-readable reason; the
    server relays it verbatim in the ``ERR`` response.
    """
    try:
        parts = split_words(line)
    except ValueError as exc:
        raise ProtocolError(f"bad quoting: {exc}") from exc
    if not parts or parts[0] != POST_EVENT:
        raise ProtocolError(f"expected '{POST_EVENT}', got {line!r}")
    if len(parts) < 4:
        raise ProtocolError(
            "usage: postEvent EVENT up|down BLOCK,VIEW,VERSION [\"ARG\"] [\"USER\"]"
        )
    name = parts[1]
    try:
        direction = Direction.parse(parts[2])
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc
    try:
        target = OID.parse(parts[3])
    except Exception as exc:
        raise ProtocolError(f"bad OID {parts[3]!r}: {exc}") from exc
    arg = parts[4] if len(parts) > 4 else ""
    user = parts[5] if len(parts) > 5 else ""
    if len(parts) > 6:
        raise ProtocolError(f"trailing junk after user: {parts[6:]!r}")
    try:
        return EventMessage(
            name=name, direction=direction, target=target, arg=arg, user=user
        )
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc


def format_batch(events: list[EventMessage]) -> str:
    """Render *events* as one atomic ``batch`` line.

    Each event is a full ``postEvent`` line, shlex-quoted down to a
    single token, so arbitrary args survive the nesting.
    """
    if not events:
        raise ProtocolError("batch of zero events")
    return BATCH + " " + " ".join(
        shlex.quote(format_post_event(event)) for event in events
    )


def parse_batch(line: str) -> tuple[EventMessage, ...]:
    """Parse a ``batch`` line into its member events."""
    try:
        parts = split_words(line)
    except ValueError as exc:
        raise ProtocolError(f"bad quoting: {exc}") from exc
    if not parts or parts[0] != BATCH:
        raise ProtocolError(f"expected '{BATCH}', got {line!r}")
    if len(parts) < 2:
        raise ProtocolError('usage: batch "postEvent ..." ["postEvent ..."]')
    return tuple(parse_post_event(sub) for sub in parts[1:])


@dataclass(frozen=True)
class Command:
    """One parsed server command."""

    kind: str  # a key of COMMANDS
    event: EventMessage | None = None
    oid: OID | None = None
    events: tuple[EventMessage, ...] = ()
    args: tuple[str, ...] = ()


def ok_response(detail: str = "") -> str:
    return f"OK {detail}".rstrip()


def err_response(reason: str) -> str:
    return "ERR " + reason.replace("\n", " ")


BUSY_PREFIX = "ERR busy"


def busy_response(retry_after: float, detail: str = "") -> str:
    """The backpressure rejection: explicit non-admission plus a hint.

    The event was NOT queued, so the client may retry it — even a
    ``postEvent`` — after roughly *retry_after* seconds.
    """
    suffix = f" ({detail})" if detail else ""
    return f"{BUSY_PREFIX}: retry after {retry_after:g}s{suffix}"


def parse_busy(response: str) -> float | None:
    """Retry-after seconds if *response* is a busy rejection, else None."""
    if not response.startswith(BUSY_PREFIX):
        return None
    match = re.search(r"retry after ([0-9.]+)s", response)
    if match:
        try:
            return float(match.group(1))
        except ValueError:
            pass
    return 0.1


def _wire_token(text: str) -> str:
    """Quote *text* as one whitespace-safe wire token.

    Line framing cannot carry embedded newlines, so they are flattened
    to spaces (the same lossy rule :func:`err_response` applies).
    """
    return shlex.quote(_flatten(text))


def format_query_response(properties: dict[str, object]) -> str:
    """Render a property snapshot, each ``name=value`` shlex-quoted.

    Values containing whitespace (the paper's ``"logic sim passed"``)
    survive the wire: clients re-parse with :func:`parse_query_response`
    (:func:`split_words` under the hood) instead of naive whitespace
    splits.
    """
    from repro.metadb.properties import value_to_text

    rendered = " ".join(
        _wire_token(f"{name}={value_to_text(value)}")  # type: ignore[arg-type]
        for name, value in sorted(properties.items())
    )
    return ok_response(rendered)


def parse_query_response(body: str) -> dict[str, str]:
    """Parse the body of a ``query`` response back into text properties."""
    try:
        chunks = split_words(body)
    except ValueError as exc:
        raise ProtocolError(f"bad quoting in query response: {exc}") from exc
    properties: dict[str, str] = {}
    for chunk in chunks:
        name, sep, value = chunk.partition("=")
        if sep:
            properties[name] = value
    return properties


def format_stale_response(oids: list[OID]) -> str:
    """Render the stale set as sorted wire OIDs (no quoting needed:
    OIDs cannot contain whitespace)."""
    return ok_response(
        " ".join(oid.wire() for oid in sorted(oids, key=OID.sort_key))
    )


def parse_stale_response(body: str) -> list[OID]:
    try:
        return [OID.parse(token) for token in body.split()]
    except Exception as exc:
        raise ProtocolError(f"bad OID in stale response: {exc}") from exc


def format_pending_response(items: list[tuple[OID, tuple[str, ...]]]) -> str:
    """Render pending work as ``OID:check+check`` tokens."""
    rendered = " ".join(
        _wire_token(f"{oid.wire()}:{'+'.join(failing)}")
        for oid, failing in items
    )
    return ok_response(rendered)


def parse_pending_response(body: str) -> dict[OID, tuple[str, ...]]:
    try:
        chunks = split_words(body)
    except ValueError as exc:
        raise ProtocolError(f"bad quoting in pending response: {exc}") from exc
    pending: dict[OID, tuple[str, ...]] = {}
    for chunk in chunks:
        wire, sep, checks = chunk.partition(":")
        if not sep:
            raise ProtocolError(f"bad pending token {chunk!r}")
        try:
            oid = OID.parse(wire)
        except Exception as exc:
            raise ProtocolError(f"bad OID {wire!r}: {exc}") from exc
        pending[oid] = tuple(part for part in checks.split("+") if part)
    return pending


def format_status_response(counters: dict[str, int]) -> str:
    """Render server/engine counters as ``name=value`` tokens."""
    rendered = " ".join(
        f"{name}={value}" for name, value in sorted(counters.items())
    )
    return ok_response(rendered)


def parse_status_response(body: str) -> dict[str, int]:
    counters: dict[str, int] = {}
    for chunk in body.split():
        name, sep, value = chunk.partition("=")
        if sep:
            try:
                counters[name] = int(value)
            except ValueError as exc:
                raise ProtocolError(f"bad counter {chunk!r}") from exc
    return counters


def format_policy_status(fields: list[tuple[str, str]]) -> str:
    """Render the governed-policy snapshot as quoted ``name=value``
    tokens (same discipline as ``query``; clients re-parse with
    :func:`parse_query_response`)."""
    rendered = " ".join(
        _wire_token(f"{name}={value}") for name, value in fields
    )
    return ok_response(rendered)


def format_audit_response(records: list[dict]) -> str:
    """Render audit records, one shlex-quoted JSON object per token.

    Takes plain payload dicts (see ``AuditRecord.to_payload``) so the
    protocol layer stays ignorant of the policy layer's types.
    """
    rendered = " ".join(
        _wire_token(json.dumps(record, sort_keys=True, separators=(",", ":")))
        for record in records
    )
    return ok_response(rendered)


def parse_audit_response(body: str) -> list[dict]:
    """Parse an ``audit`` response body back into record payloads."""
    try:
        chunks = split_words(body)
    except ValueError as exc:
        raise ProtocolError(f"bad quoting in audit response: {exc}") from exc
    records: list[dict] = []
    for chunk in chunks:
        try:
            payload = json.loads(chunk)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"bad audit record {chunk!r}: {exc}") from exc
        if not isinstance(payload, dict):
            raise ProtocolError(f"bad audit record {chunk!r}: not an object")
        records.append(payload)
    return records


def format_notification(oid: OID, is_stale: bool) -> str:
    """One push line: ``STALE <oid>`` when it entered the stale set,
    ``FRESH <oid>`` when it left."""
    verb = NOTIFY_STALE if is_stale else NOTIFY_FRESH
    return f"{verb} {oid.wire()}"


def parse_notification(line: str) -> tuple[str, OID]:
    """Parse a push line into ``(verb, oid)``."""
    parts = line.split()
    if len(parts) != 2 or parts[0] not in (NOTIFY_STALE, NOTIFY_FRESH):
        raise ProtocolError(f"bad notification {line!r}")
    try:
        return parts[0], OID.parse(parts[1])
    except Exception as exc:
        raise ProtocolError(f"bad OID in notification {line!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# the command table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommandSpec:
    """One wire command, described once for every layer that speaks it.

    ``codec`` names the argument shape, on both transports:

    * ``none`` — no arguments;
    * ``oid`` — one OID (``query a,v,1`` / ``{"oid": "a,v,1"}``);
    * ``event`` / ``events`` — one event / a non-empty list of events
      (``postEvent ...`` / ``batch ...`` lines, event objects in frames);
    * ``tokens`` — string tokens, between ``arity`` bounds (``None``
      for no upper bound); ``usage`` / ``frame_usage`` are the errors
      for a wrong count on each transport.
    """

    kind: str  # Command.kind, and the framed request's "cmd"
    line: str  # line-dialect spelling
    codec: str
    #: "exclusive" (a journaled write, FIFO behind the writer lock),
    #: "shared" (scans under the reader lock) or "none" (lock-free).
    lock: str = "none"
    #: True when a client may resend it after a transport failure.
    retry: bool = False
    #: Parses the body of the ``OK`` response, client side.
    reply: Callable[[str], object] | None = None
    arity: tuple[int, int | None] = (0, 0)
    usage: str = ""
    frame_usage: str = ""


def _parse_seq(body: str) -> int:
    return int(body) if body else 0


def _parse_seqs(body: str) -> list[int]:
    return [int(token) for token in body.split()]


#: Every command, by kind.
COMMANDS: dict[str, CommandSpec] = {
    spec.kind: spec
    for spec in (
        CommandSpec("post", POST_EVENT, "event", "exclusive", reply=_parse_seq),
        CommandSpec("batch", BATCH, "events", "exclusive", reply=_parse_seqs),
        CommandSpec(
            "query", "query", "oid", retry=True, reply=parse_query_response,
            usage="usage: query BLOCK,VIEW,VERSION",
            frame_usage="query request needs an 'oid' string",
        ),
        CommandSpec("stale", "stale", "none", retry=True, reply=parse_stale_response),
        CommandSpec(
            "pending", "pending", "none", "shared", retry=True,
            reply=parse_pending_response,
        ),
        CommandSpec("status", "status", "none", retry=True, reply=parse_status_response),
        CommandSpec("health", "health", "none", retry=True, reply=parse_status_response),
        CommandSpec("subscribe", "subscribe", "none"),
        CommandSpec("ping", "ping", "none", retry=True),
        CommandSpec("quit", "quit", "none"),
        CommandSpec(
            "policy_status", "policy status", "none", retry=True,
            reply=parse_query_response,
        ),
        CommandSpec(
            "policy_propose", "policy propose", "tokens", "exclusive", reply=str,
            arity=(2, None),
            usage="usage: policy propose additive|breaking loosen|require|drop [ARGS...]",
            frame_usage="policy_propose needs at least [change_class, op] args",
        ),
        CommandSpec(
            "policy_approve", "policy approve", "tokens", "exclusive", reply=str,
            arity=(1, 1), usage="usage: policy approve VERSION",
            frame_usage="policy_approve needs exactly one version arg",
        ),
        CommandSpec("policy_rollback", "policy rollback", "none", "exclusive", reply=str),
        CommandSpec(
            "audit", "audit", "tokens", retry=True, reply=parse_audit_response,
            arity=(0, 1), usage="usage: audit [N]",
            frame_usage="audit takes at most one limit arg",
        ),
    )
}

#: Command kinds that mutate engine state and are journaled: the server
#: runs them under the exclusive writer lock, so posts from many clients
#: enqueue FIFO.
LOCK_EXCLUSIVE = frozenset(k for k, s in COMMANDS.items() if s.lock == "exclusive")

#: Command kinds that scan the database (lineage walks, expression
#: evaluation): the server runs them under the shared reader lock.
LOCK_SHARED = frozenset(k for k, s in COMMANDS.items() if s.lock == "shared")

#: Policy lifecycle commands: journaled writes, serialized with posts
#: through the same writer lock / group-commit path so a propose and an
#: approve racing each other resolve in journal order.
POLICY_WRITES = frozenset(
    k for k in LOCK_EXCLUSIVE if COMMANDS[k].line.startswith(POLICY + " ")
)

_BY_LINE = {spec.line: spec for spec in COMMANDS.values()}

#: The argument-free commands, built once (a Command is immutable).
_NO_ARGS = {kind: Command(kind=kind) for kind in COMMANDS}


def parse_oid(text: str, error: type[ProtocolError] = ProtocolError) -> OID:
    """Parse a wire OID, raising *error* with the wire's reason."""
    try:
        return OID.parse(text)
    except Exception as exc:
        raise error(f"bad OID {text!r}: {exc}") from exc


def check_arity(
    spec: CommandSpec, args: list[str], error: type[ProtocolError] = ProtocolError
) -> Command:
    """A ``tokens`` (or argument-free) command, its count checked.

    *error* is :class:`ProtocolError` for a line and the framed
    transport's subclass for a frame; it also picks the usage text.
    """
    low, high = spec.arity
    if len(args) < low or (high is not None and len(args) > high):
        usage = spec.usage if error is ProtocolError else spec.frame_usage
        raise error(usage or f"'{spec.line}' takes no arguments")
    if not args:
        return _NO_ARGS[spec.kind]
    return Command(kind=spec.kind, args=tuple(args))


def parse_command(line: str) -> Command:
    """Parse any server-dialect line."""
    stripped = line.strip()
    if not stripped:
        raise ProtocolError("empty command")
    head = stripped.split(None, 1)[0]
    if head == POLICY:
        # Two-word spellings; arguments are shlex-quoted tokens.
        try:
            parts = split_words(stripped)
        except ValueError as exc:
            raise ProtocolError(f"bad quoting: {exc}") from exc
        spec = _BY_LINE.get(" ".join(parts[:2]))
        if spec is None:
            raise ProtocolError(
                "usage: policy status|propose CLASS OP [ARGS...]|approve VERSION|rollback"
            )
        return check_arity(spec, parts[2:])
    spec = _BY_LINE.get(head)
    if spec is None:
        raise ProtocolError(f"unknown command {head!r}")
    codec = spec.codec
    if codec == "none":
        if stripped != head:
            raise ProtocolError(f"'{head}' takes no arguments")
        return _NO_ARGS[spec.kind]
    if codec == "oid":
        parts = stripped.split()
        if len(parts) != 2:
            raise ProtocolError(spec.usage)
        return Command(kind=spec.kind, oid=parse_oid(parts[1]))
    if codec == "event":
        return Command(kind=spec.kind, event=parse_post_event(stripped))
    if codec == "events":
        return Command(kind=spec.kind, events=parse_batch(stripped))
    command = check_arity(spec, stripped.split()[1:])
    if spec.kind == "audit" and command.args and not command.args[0].isdigit():
        raise ProtocolError(f"bad audit limit {command.args[0]!r}")
    return command


def format_command(command: Command) -> str:
    """Render *command* as its line-dialect request (no newline)."""
    spec = COMMANDS[command.kind]
    if spec.codec == "event":
        assert command.event is not None
        return format_post_event(command.event)
    if spec.codec == "events":
        return format_batch(list(command.events))
    if spec.codec == "oid":
        assert command.oid is not None
        return f"{spec.line} {command.oid.wire()}"
    return " ".join([spec.line, *map(_wire_token, command.args)])
