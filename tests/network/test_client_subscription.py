"""Opening a subscription: the ack and the first pushes share one reader."""

import socket
import time

import pytest

from repro.metadb.oid import OID
from repro.network.client import BlueprintClient, ClientError

from wire_recorder import RecordingServer


@pytest.mark.parametrize("transport", ["lines", "frames"])
def test_push_arriving_with_the_ack_is_delivered(transport):
    """A server may push before the client has read ``OK subscribed``;
    both can then arrive in one read, and the push must not be lost."""
    replies = {"subscribe": "OK subscribed\nSTALE a,v,1"}
    with RecordingServer(replies) as server:
        client = BlueprintClient(host=server.host, port=server.port, transport=transport)
        with client.subscribe() as sub:
            note = sub.next(timeout=1)
    assert (note.verb, note.oid) == ("STALE", OID("a", "v", 1))


@pytest.mark.parametrize("transport", ["lines", "frames"])
def test_ack_wait_honours_read_timeout(transport):
    # A listener that never accepts: the connection completes in the
    # backlog, the subscribe request is sent, and no ack ever comes.
    with socket.create_server(("127.0.0.1", 0)) as silent:
        host, port = silent.getsockname()[:2]
        client = BlueprintClient(
            host=host, port=port, timeout=30.0, read_timeout=0.2, transport=transport
        )
        started = time.monotonic()
        with pytest.raises(ClientError):
            client.subscribe()
        assert time.monotonic() - started < 5.0
