"""Event messages and the FIFO queue."""

import pytest
from hypothesis import given, strategies as st

from repro.core.events import EventMessage, EventQueue, QueueClosedError
from repro.metadb.links import Direction
from repro.metadb.oid import OID


def make_event(name="ckin", **overrides):
    defaults = dict(
        name=name,
        direction=Direction.UP,
        target=OID("reg", "verilog", 4),
        arg="logic sim passed",
    )
    defaults.update(overrides)
    return EventMessage(**defaults)


class TestEventMessage:
    def test_fields(self):
        event = make_event(user="yves")
        assert event.name == "ckin"
        assert event.direction is Direction.UP
        assert event.target.wire() == "reg,verilog,4"
        assert event.arg == "logic sim passed"
        assert event.user == "yves"

    def test_bad_names_rejected(self):
        with pytest.raises(ValueError):
            make_event(name="")
        with pytest.raises(ValueError):
            make_event(name="two words")

    @given(st.text(max_size=6))
    def test_name_check_is_the_isspace_rule(self, name):
        """A name is valid when non-empty and free of str.isspace
        characters (form feed, no-break space and the like included)."""
        valid = bool(name) and not any(ch.isspace() for ch in name)
        try:
            make_event(name=name)
        except ValueError:
            assert not valid
        else:
            assert valid

    @pytest.mark.parametrize("name", [None, 5, ["ckin"]])
    def test_non_text_names_rejected(self, name):
        with pytest.raises(ValueError, match="bad event name"):
            make_event(name=name)

    def test_retargeted_keeps_payload(self):
        event = make_event(user="yves").with_seq(7)
        moved = event.retargeted(OID("cpu", "verilog", 1))
        assert moved == EventMessage(
            "ckin", Direction.UP, OID("cpu", "verilog", 1), "logic sim passed", "yves", 7
        )
        assert event.target == OID("reg", "verilog", 4)

    def test_with_seq_keeps_payload(self):
        event = make_event(user="yves")
        assert event.with_seq(3) == EventMessage(
            "ckin", Direction.UP, OID("reg", "verilog", 4), "logic sim passed", "yves", 3
        )
        assert event.seq == 0

    def test_str_shows_wire_shape(self):
        text = str(make_event())
        assert "ckin" in text and "up" in text and "reg,verilog,4" in text

    def test_frozen(self):
        with pytest.raises(AttributeError):
            make_event().name = "other"


class TestQueueFifo:
    def test_strict_fifo_order(self):
        queue = EventQueue()
        for index in range(10):
            queue.post(make_event(name=f"e{index}"))
        popped = [queue.pop().name for _ in range(10)]
        assert popped == [f"e{index}" for index in range(10)]

    def test_sequence_numbers_monotonic(self):
        queue = EventQueue()
        stamped = [queue.post(make_event()) for _ in range(5)]
        assert [event.seq for event in stamped] == [1, 2, 3, 4, 5]

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_peek(self):
        queue = EventQueue()
        assert queue.peek() is None
        queue.post(make_event(name="first"))
        queue.post(make_event(name="second"))
        assert queue.peek().name == "first"
        assert len(queue) == 2  # peek does not consume

    def test_bool_and_len(self):
        queue = EventQueue()
        assert not queue
        queue.post(make_event())
        assert queue and len(queue) == 1

    def test_posted_count_total(self):
        queue = EventQueue()
        for _ in range(3):
            queue.post(make_event())
        queue.pop()
        assert queue.posted_count == 3

    def test_history_keeps_stamped_events(self):
        queue = EventQueue()
        queue.post(make_event(name="a"))
        queue.pop()
        queue.post(make_event(name="b"))
        assert [event.name for event in queue.history] == ["a", "b"]

    def test_history_bounded(self):
        queue = EventQueue(history_limit=5)
        for index in range(20):
            queue.post(make_event(name=f"e{index}"))
        assert len(queue.history) == 5
        assert queue.history[-1].name == "e19"

    def test_closed_queue_refuses_posts(self):
        queue = EventQueue()
        queue.close()
        with pytest.raises(QueueClosedError):
            queue.post(make_event())
