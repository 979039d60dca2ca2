"""Golden wire bytes: exactly what ``BlueprintClient`` sends.

The round-trip fuzz (``test_protocol_fuzz.py``, ``test_framing.py``)
proves that messages re-parse equal; this module pins the bytes
themselves.  A recording fake server answers every command with a
canned reply, and each test compares the bytes received on every
connection, in order, against literals — for both transports, one-shot
and persistent clients, ``post_many`` and ``subscribe``.  Any change to
a spelling, a quoting rule, a JSON key order, a request id or the
connection pattern fails here.
"""

import struct

from repro.core.events import EventMessage
from repro.metadb.links import Direction
from repro.metadb.oid import OID
from repro.network.client import BlueprintClient

from wire_recorder import RecordingServer

REPLIES = {
    "ping": "PONG",
    "postEvent": "OK 7",
    "batch": "OK 8 9",
    "query": "OK last='logic sim passed' up=true",
    "stale": "OK a,v,1 b,v,2",
    "pending": "OK a,v,1:uptodate+state",
    "status": "OK objects=2 stale=1",
    "health": "OK journal_lag=0",
    "policy status": "OK version=2 'change_class=breaking'",
    "policy propose": "OK 3 pending",
    "policy approve": "OK 3 active",
    "policy rollback": "OK 4 active",
    "audit": """OK '{"seq":1,"verdict":"allow"}'""",
    "subscribe": "OK subscribed",
}

#: Line-dialect bytes of each call in ``drive`` (``post_many`` is one
#: ``postEvent`` per event on this transport).
LINE_CALLS = [
    [b"ping\n"],
    [b'postEvent ckin up a,v,1 "logic sim passed" "ana"\n'],
    [b"postEvent outofdate down b,v,2\n"],
    [b"batch 'postEvent ckin up a,v,1' 'postEvent seen down b,v,2 \"say \\\"hi\\\"\"'\n"],
    [b"query a,v,1\n"],
    [b"stale\n"],
    [b"pending\n"],
    [b"status\n"],
    [b"health\n"],
    [b"policy status\n"],
    [b"policy propose breaking require sim '$uptodate == true' verilog\n"],
    [b"policy approve 3\n"],
    [b"policy rollback\n"],
    [b"audit\n"],
    [b"audit 5\n"],
    [b'postEvent seen up a,v,1 "m0"\n'],
    [b'postEvent seen up a,v,1 "m1"\n'],
    [b'postEvent seen up a,v,1 "m2"\n'],
]
LINE_SUBSCRIBE = b"subscribe\n"

#: Framed payloads of each call in ``drive``; ``post_many`` pipelines
#: its three posts as one call.
FRAME_CALLS = [
    [b'{"id":1,"cmd":"ping"}'],
    [
        b'{"id":2,"cmd":"post","event":{"name":"ckin","direction":"up",'
        b'"target":"a,v,1","arg":"logic sim passed","user":"ana"}}'
    ],
    [
        b'{"id":3,"cmd":"post","event":{"name":"outofdate","direction":"down",'
        b'"target":"b,v,2","arg":"","user":""}}'
    ],
    [
        b'{"id":4,"cmd":"batch","events":[{"name":"ckin","direction":"up",'
        b'"target":"a,v,1","arg":"","user":""},{"name":"seen","direction":"down",'
        b'"target":"b,v,2","arg":"say \\"hi\\"","user":""}]}'
    ],
    [b'{"id":5,"cmd":"query","oid":"a,v,1"}'],
    [b'{"id":6,"cmd":"stale"}'],
    [b'{"id":7,"cmd":"pending"}'],
    [b'{"id":8,"cmd":"status"}'],
    [b'{"id":9,"cmd":"health"}'],
    [b'{"id":10,"cmd":"policy_status"}'],
    [
        b'{"id":11,"cmd":"policy_propose","args":["breaking","require","sim",'
        b'"$uptodate == true","verilog"]}'
    ],
    [b'{"id":12,"cmd":"policy_approve","args":["3"]}'],
    [b'{"id":13,"cmd":"policy_rollback"}'],
    [b'{"id":14,"cmd":"audit","args":[]}'],
    [b'{"id":15,"cmd":"audit","args":["5"]}'],
    [
        b'{"id":%d,"cmd":"post","event":{"name":"seen","direction":"up",'
        b'"target":"a,v,1","arg":"m%d","user":""}}' % (16 + i, i)
        for i in range(3)
    ],
]
FRAME_SUBSCRIBE = b'{"id":0,"cmd":"subscribe"}'


def frame(body: bytes) -> bytes:
    """Magic byte 0xB1 (version 1), big-endian u32 length, JSON body."""
    return struct.pack(">BI", 0xB1, len(body)) + body


def drive(client: BlueprintClient) -> None:
    """Every client command once, checking what each parses back."""
    assert client.ping() is True
    assert client.post_event("ckin", "a,v,1", "up", "logic sim passed", "ana") == 7
    assert client.post_event("outofdate", OID("b", "v", 2)) == 7
    seen = EventMessage("seen", Direction.DOWN, OID("b", "v", 2), 'say "hi"', "")
    assert client.post_batch([("ckin", "a,v,1", "up"), seen]) == [8, 9]
    assert client.query("a,v,1") == {"last": "logic sim passed", "up": "true"}
    assert client.stale() == [OID("a", "v", 1), OID("b", "v", 2)]
    assert client.pending() == {OID("a", "v", 1): ("uptodate", "state")}
    assert client.status() == {"objects": 2, "stale": 1}
    assert client.health() == {"journal_lag": 0}
    assert client.policy_status() == {"version": "2", "change_class": "breaking"}
    assert (
        client.policy_propose(
            "breaking", "require", "sim", "$uptodate == true", "verilog"
        )
        == "3 pending"
    )
    assert client.policy_approve(3) == "3 active"
    assert client.policy_rollback() == "4 active"
    assert client.audit() == [{"seq": 1, "verdict": "allow"}]
    assert client.audit(5) == [{"seq": 1, "verdict": "allow"}]
    events = [("seen", "a,v,1", "up", f"m{i}") for i in range(3)]
    assert client.post_many(events, window=2) == [7, 7, 7]
    with client.subscribe():
        pass


def record(transport: str, persistent: bool) -> list[bytes]:
    with RecordingServer(REPLIES) as server:
        client = BlueprintClient(
            host=server.host,
            port=server.port,
            transport=transport,
            persistent=persistent,
        )
        drive(client)
        client.close()
        return server.connections()


def test_lines_one_shot():
    expected = [line for call in LINE_CALLS for line in call] + [LINE_SUBSCRIBE]
    assert record("lines", persistent=False) == expected


def test_lines_persistent():
    pinned = b"".join(line for call in LINE_CALLS for line in call)
    assert record("lines", persistent=True) == [pinned, LINE_SUBSCRIBE]


def test_frames_one_shot():
    expected = [b"".join(map(frame, call)) for call in FRAME_CALLS]
    assert record("frames", persistent=False) == expected + [frame(FRAME_SUBSCRIBE)]


def test_frames_persistent():
    pinned = b"".join(frame(body) for call in FRAME_CALLS for body in call)
    assert record("frames", persistent=True) == [pinned, frame(FRAME_SUBSCRIBE)]


def test_framed_subscription_credits():
    """A framed subscription's pause/resume credits, byte for byte."""
    with RecordingServer(REPLIES) as server:
        client = BlueprintClient(host=server.host, port=server.port, transport="frames")
        with client.subscribe() as sub:
            sub.pause()
            sub.resume()
        received = server.connections()
    assert received == [
        frame(FRAME_SUBSCRIBE)
        + frame(b'{"credit":"PAUSE"}')
        + frame(b'{"credit":"RESUME"}')
    ]
