"""Property-based round-trips: every ``format_*`` output re-parses equal.

The wire protocol is the server's public contract; these tests pin the
invariant that formatting and parsing are exact inverses over the full
value space the system can produce (event args from real tool wrappers,
property values set by blueprints, OIDs, counters).  Newlines are the
one documented exception: line framing flattens them to spaces.
"""

import shlex
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.events import EventMessage
from repro.metadb.links import Direction
from repro.metadb.oid import OID
from repro.network import protocol
from repro.network.protocol import (
    ProtocolError,
    err_response,
    format_batch,
    format_notification,
    format_pending_response,
    format_post_event,
    format_query_response,
    format_stale_response,
    format_status_response,
    parse_batch,
    parse_notification,
    parse_pending_response,
    parse_post_event,
    parse_query_response,
    parse_stale_response,
    parse_status_response,
    split_words,
)

names = st.from_regex(r"[A-Za-z0-9_][A-Za-z0-9_\-]{0,10}", fullmatch=True)
versions = st.integers(min_value=1, max_value=10_000)
# printable text without newlines (line framing flattens those) — covers
# spaces, quotes, backslashes, shell metacharacters, unicode
wire_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
    max_size=40,
)
# event names may be any non-empty token without whitespace
event_names = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Zs"), blacklist_characters="\n\r\t\x0b\x0c\x1c\x1d\x1e\x1f\x85"),
    min_size=1,
    max_size=15,
)


@st.composite
def oids(draw):
    return OID(draw(names), draw(names), draw(versions))


@st.composite
def events(draw):
    return EventMessage(
        name=draw(event_names),
        direction=draw(st.sampled_from([Direction.UP, Direction.DOWN])),
        target=draw(oids()),
        arg=draw(wire_text),
        user=draw(wire_text),
    )


def _fields(event: EventMessage):
    return (event.name, event.direction, event.target, event.arg, event.user)


class TestPostEventRoundTrip:
    @given(events())
    def test_round_trip(self, event):
        assert _fields(parse_post_event(format_post_event(event))) == _fields(event)

    @given(st.lists(events(), min_size=1, max_size=5))
    def test_batch_round_trip(self, batch):
        again = parse_batch(format_batch(batch))
        assert [_fields(e) for e in again] == [_fields(e) for e in batch]


class TestQueryResponseRoundTrip:
    # property names come from blueprint identifiers: no '=' or whitespace
    property_names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_\-]{0,12}", fullmatch=True)

    @given(
        st.dictionaries(
            property_names,
            st.one_of(wire_text, st.booleans(), st.integers(-1000, 1000)),
            max_size=6,
        )
    )
    def test_round_trip(self, properties):
        from repro.metadb.properties import value_to_text

        response = format_query_response(properties)
        assert response.startswith("OK")
        assert "\n" not in response
        parsed = parse_query_response(response[2:].strip())
        expected = {
            name: value_to_text(value) for name, value in properties.items()
        }
        assert parsed == expected


class TestSetResponsesRoundTrip:
    @given(st.lists(oids(), unique=True, max_size=8))
    def test_stale(self, stale):
        response = format_stale_response(stale)
        assert parse_stale_response(response[2:].strip()) == sorted(stale)

    @given(
        st.lists(
            st.tuples(
                oids(),
                st.lists(
                    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,10}", fullmatch=True),
                    min_size=1,
                    max_size=3,
                    unique=True,
                ).map(tuple),
            ),
            max_size=6,
            unique_by=lambda item: item[0],
        )
    )
    def test_pending(self, items):
        response = format_pending_response(items)
        assert parse_pending_response(response[2:].strip()) == dict(items)

    @given(
        st.dictionaries(
            st.from_regex(r"[a-z_]{1,12}", fullmatch=True),
            st.integers(min_value=0, max_value=10**9),
            max_size=8,
        )
    )
    def test_status(self, counters):
        response = format_status_response(counters)
        assert parse_status_response(response[2:].strip()) == counters

    @given(oids(), st.booleans())
    def test_notification(self, oid, is_stale):
        verb, parsed = parse_notification(format_notification(oid, is_stale))
        assert parsed == oid
        assert (verb == "STALE") is is_stale


# ---------------------------------------------------------------------------
# the wire tokenizer against shlex
# ---------------------------------------------------------------------------

#: Quotes, backslashes, shlex's four whitespace characters, characters
#: other splitters treat as special (``#``, a no-break space, a vertical
#: tab) and letters.
shell_text = st.text(
    alphabet=st.sampled_from(list("ab'\" \\\t\r\n#\xa0\x0bZ")), max_size=30
)


def _shlex_outcome(split, line):
    try:
        return split(line)
    except ValueError as exc:
        return ("ValueError", str(exc))


@st.composite
def emitted_lines(draw):
    """Lines made only of the quoting the formatters emit: bare runs,
    single-quoted segments, double-quoted segments escaping only
    ``"`` and ``\\``, glued into words and separated by shlex
    whitespace."""
    body = st.text(alphabet=st.sampled_from(list("ab '\"\\\t#\xa0")), max_size=8)
    segment = st.one_of(
        st.from_regex(r"[^ \t\r\n'\"\\]{1,6}", fullmatch=True),
        body.map(lambda text: "'" + text.replace("'", "") + "'"),
        body.map(lambda text: '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'),
    )
    words = draw(st.lists(st.lists(segment, min_size=1, max_size=3).map("".join), max_size=6))
    spaces = st.text(alphabet=st.sampled_from(list(" \t\r\n")), min_size=1, max_size=3)
    line = draw(st.text(alphabet=st.sampled_from(list(" \t")), max_size=2))
    for word in words:
        line += word + draw(spaces)
    return line


def _no_fallback():
    """Make a fall back to shlex.split fail the test."""

    def split(line):
        raise AssertionError(f"fell back to shlex.split for {line!r}")

    return mock.patch.object(protocol, "shlex", SimpleNamespace(split=split, quote=shlex.quote))


class TestSplitWordsMatchesShlex:
    @settings(max_examples=500)
    @given(shell_text)
    def test_any_text_splits_like_shlex(self, line):
        assert _shlex_outcome(split_words, line) == _shlex_outcome(shlex.split, line)

    @given(emitted_lines())
    def test_emitted_quoting_splits_like_shlex_without_fallback(self, line):
        expected = shlex.split(line)
        with _no_fallback():
            assert split_words(line) == expected

    @given(st.lists(events(), min_size=1, max_size=4))
    def test_formatted_batches_never_fall_back(self, batch):
        line = format_batch(batch)
        with _no_fallback():
            again = parse_batch(line)
        assert [_fields(e) for e in again] == [_fields(e) for e in batch]

    @pytest.mark.parametrize(
        "line, words",
        [
            ("", []),
            ("  \t ", []),
            ("''", [""]),
            ('a "" b', ["a", "", "b"]),
            ("a'b'\"c\"d", ["abcd"]),
            ("'it'\"'\"'s'", ["it's"]),
            ('"a \\"b\\" \\\\c"', ['a "b" \\c']),
            ("a#b #c", ["a#b", "#c"]),
            ("a\xa0b\x0bc", ["a\xa0b\x0bc"]),
            ("x\r\ny", ["x", "y"]),
        ],
    )
    def test_examples(self, line, words):
        assert shlex.split(line) == words
        assert split_words(line) == words


#: Malformed lines and the reason ``parse_command`` gave for each before
#: the wire tokenizer replaced ``shlex.split`` (the server answers
#: ``ERR <reason>``).
MALFORMED_LINES = [
    ('postEvent ckin up a,v,1 "unclosed', "bad quoting: No closing quotation"),
    ("postEvent ckin up a,v,1 'unclosed", "bad quoting: No closing quotation"),
    ("postEvent ckin up a,v,1 trailing\\", "bad quoting: No escaped character"),
    ('postEvent "ck in" up a,v,1', "bad event name: 'ck in'"),
    ("postEvent ckin sideways a,v,1", "bad direction 'sideways': expected 'up' or 'down'"),
    ("postEvent ckin up a.v", "bad OID 'a.v': cannot parse OID from 'a.v'"),
    (
        "postEvent ckin up a,v,0",
        "bad OID 'a,v,0': version must be >= 1 (paper numbers versions from 1): 0",
    ),
    ('postEvent ckin up a,v,1 "x" "y" z', "trailing junk after user: ['z']"),
    ("postEvent ckin up", 'usage: postEvent EVENT up|down BLOCK,VIEW,VERSION ["ARG"] ["USER"]'),
    ('postEvent "" up a,v,1', "bad event name: ''"),
    ("batch", 'usage: batch "postEvent ..." ["postEvent ..."]'),
    ('batch "postEvent ckin up a,v,1', "bad quoting: No closing quotation"),
    ("batch 'postEvent ckin up a,v,1 \"x'", "bad quoting: No closing quotation"),
    ("batch 'postEvent ckin up a,v,1' 'query a,v,1'", "expected 'postEvent', got 'query a,v,1'"),
    ("batch 'postEvent ckin up bad'", "bad OID 'bad': cannot parse OID from 'bad'"),
    ('policy propose "breaking', "bad quoting: No closing quotation"),
    (
        "policy propose additive",
        "usage: policy propose additive|breaking loosen|require|drop [ARGS...]",
    ),
    (
        "policy frobnicate",
        "usage: policy status|propose CLASS OP [ARGS...]|approve VERSION|rollback",
    ),
    ("policy approve 1 2", "usage: policy approve VERSION"),
    (
        "policy 'status'x",
        "usage: policy status|propose CLASS OP [ARGS...]|approve VERSION|rollback",
    ),
    ("query", "usage: query BLOCK,VIEW,VERSION"),
    ("query a,v,1 extra", "usage: query BLOCK,VIEW,VERSION"),
    ("query a;v;1", "bad OID 'a;v;1': cannot parse OID from 'a;v;1'"),
    ("query a,v,x", "bad OID 'a,v,x': bad version number 'x' in 'a,v,x'"),
    ("query a,v,1.5", "bad OID 'a,v,1.5': bad version number '1.5' in 'a,v,1.5'"),
    ("query -a,v,1", "bad OID '-a,v,1': bad block name: '-a'"),
    ("query a,v!,1", "bad OID 'a,v!,1': bad view name: 'v!'"),
    ("query a,v,1,2", "bad OID 'a,v,1,2': cannot parse OID from 'a,v,1,2'"),
    ("query a,,1", "bad OID 'a,,1': bad view name: ''"),
    (
        "query a,v,-3",
        "bad OID 'a,v,-3': version must be >= 1 (paper numbers versions from 1): -3",
    ),
    ("query <a,v,1", "bad OID '<a,v,1': bad block name: '<a'"),
    ("audit x", "bad audit limit 'x'"),
    ("audit 1 2", "usage: audit [N]"),
    ("stale now", "'stale' takes no arguments"),
    ("frobnicate", "unknown command 'frobnicate'"),
    ("", "empty command"),
    ("   ", "empty command"),
]


@pytest.mark.parametrize("line, reason", MALFORMED_LINES)
def test_malformed_lines_keep_their_err_text(line, reason):
    with pytest.raises(ProtocolError) as caught:
        protocol.parse_command(line)
    assert err_response(str(caught.value)) == "ERR " + reason
