"""Event transport: the ``postEvent`` wire protocol, an in-process bus
and two localhost TCP project servers (Figure 1's network path) — the
threaded line-dialect original and the asyncio server that multiplexes
length-prefixed frames (with the line dialect auto-detected as a compat
shim on the same port) — plus stale-set push notifications with
credit-based backpressure for subscribed connections.

Every wire command is described once, in :data:`COMMANDS`; the parsers
and renderers of both dialects, the servers' lock sets and
:class:`BlueprintClient` read that table.  The client runs every call
through one connection core over a :class:`LineChannel` or a
:class:`FrameChannel`, and :class:`Subscription` reads the push stream
of either dialect."""

from repro.network.async_server import AsyncProjectServer
from repro.network.bus import EventBus
from repro.network.client import (
    BlueprintClient,
    ClientError,
    Notification,
    Subscription,
    post_event_main,
)
from repro.network.framing import (
    CREDIT_PAUSE,
    CREDIT_RESUME,
    FRAME_MAGIC,
    FRAME_VERSION,
    MAX_FRAME,
    FrameChannel,
    FrameDecoder,
    LineChannel,
    FramingError,
    command_to_request,
    encode_frame,
    is_frame_byte,
    request_to_command,
)
from repro.network.protocol import (
    COMMANDS,
    LOCK_EXCLUSIVE,
    LOCK_SHARED,
    Command,
    CommandSpec,
    ProtocolError,
    err_response,
    format_batch,
    format_command,
    format_notification,
    format_pending_response,
    format_post_event,
    format_query_response,
    format_stale_response,
    format_status_response,
    ok_response,
    parse_batch,
    parse_command,
    parse_notification,
    parse_pending_response,
    parse_post_event,
    parse_query_response,
    parse_stale_response,
    parse_status_response,
)
from repro.network.server import (
    ProjectServer,
    ReadWriteLock,
    wait_for_port,
)

__all__ = [
    "EventBus",
    "AsyncProjectServer",
    "BlueprintClient",
    "ClientError",
    "Notification",
    "Subscription",
    "post_event_main",
    "FrameChannel",
    "FrameDecoder",
    "LineChannel",
    "FramingError",
    "FRAME_MAGIC",
    "FRAME_VERSION",
    "MAX_FRAME",
    "CREDIT_PAUSE",
    "CREDIT_RESUME",
    "encode_frame",
    "is_frame_byte",
    "command_to_request",
    "request_to_command",
    "COMMANDS",
    "Command",
    "CommandSpec",
    "ProtocolError",
    "LOCK_EXCLUSIVE",
    "LOCK_SHARED",
    "format_post_event",
    "parse_post_event",
    "format_batch",
    "parse_batch",
    "parse_command",
    "format_command",
    "ok_response",
    "err_response",
    "format_query_response",
    "parse_query_response",
    "format_stale_response",
    "parse_stale_response",
    "format_pending_response",
    "parse_pending_response",
    "format_status_response",
    "parse_status_response",
    "format_notification",
    "parse_notification",
    "ProjectServer",
    "ReadWriteLock",
    "wait_for_port",
]
