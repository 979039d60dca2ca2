"""The write-ahead journal: append, recovery, rotation, checkpointing."""

import json

import pytest

from repro.core.events import EventMessage
from repro.metadb.links import Direction
from repro.metadb.oid import OID
from repro.network.wal import (
    CHECKPOINT_NAME,
    WalError,
    WriteAheadLog,
    event_payload,
    payload_event,
)


def make_event(n: int = 1, name: str = "ckin") -> EventMessage:
    return EventMessage(
        name=name,
        direction=Direction.UP,
        target=OID("alu", "source", max(1, n)),
        arg=f"arg {n}",
        user="tester",
    )


class TestPayloadRoundTrip:
    def test_event_payload_round_trips(self):
        event = make_event(3)
        assert payload_event(event_payload(event)) == event

    def test_payload_defaults(self):
        payload = {"name": "ckin", "direction": "up", "target": "a,v,1"}
        event = payload_event(payload)
        assert event.arg == "" and event.user == ""


class TestAppend:
    def test_append_assigns_sequence_numbers(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            first = wal.append_event(make_event(1))
            second = wal.append_event(make_event(2))
        assert (first.seq, second.seq) == (1, 2)

    def test_batch_is_one_entry(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            entry = wal.append_batch([make_event(1), make_event(2)])
            assert entry.seq == 1
            assert wal.last_seq == 1
            assert len(entry.payload["events"]) == 2

    def test_entries_iterates_in_order(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            for n in range(5):
                wal.append_event(make_event(n))
            assert [entry.seq for entry in wal.entries()] == [1, 2, 3, 4, 5]


class TestRecovery:
    def test_reopen_continues_sequence(self, tmp_path):
        path = tmp_path / "wal"
        with WriteAheadLog(path) as wal:
            wal.append_event(make_event(1))
            wal.append_event(make_event(2))
        with WriteAheadLog(path) as wal:
            assert wal.last_seq == 2
            entry = wal.append_event(make_event(3))
        assert entry.seq == 3

    def test_torn_tail_line_is_truncated(self, tmp_path):
        path = tmp_path / "wal"
        with WriteAheadLog(path) as wal:
            wal.append_event(make_event(1))
            wal.append_event(make_event(2))
            segment = wal._segment_path
        # Simulate a crash mid-append: half a JSON line at the tail.
        with open(segment, "ab") as handle:
            handle.write(b'{"seq": 3, "kind": "eve')
        with WriteAheadLog(path) as wal:
            assert wal.recovered_torn_line is True
            assert wal.last_seq == 2
            assert [entry.seq for entry in wal.entries()] == [1, 2]
            # the repaired segment accepts appends again
            assert wal.append_event(make_event(3)).seq == 3

    def test_corruption_away_from_tail_fails_loudly(self, tmp_path):
        path = tmp_path / "wal"
        with WriteAheadLog(path, segment_entries=2) as wal:
            for n in range(5):
                wal.append_event(make_event(n))
            first_segment = wal._segments()[0]
        raw = first_segment.read_bytes()
        first_segment.write_bytes(raw[: len(raw) // 2])  # corrupt a middle line
        with pytest.raises(WalError):
            WriteAheadLog(path)

    def test_reopened_tail_counts_toward_rotation(self, tmp_path):
        path = tmp_path / "wal"
        with WriteAheadLog(path, segment_entries=3) as wal:
            wal.append_event(make_event(1))
            wal.append_event(make_event(2))
        with WriteAheadLog(path, segment_entries=3) as wal:
            wal.append_event(make_event(3))  # fills the reopened segment
            wal.append_event(make_event(4))  # must rotate, not overgrow
            assert wal.segment_count == 2


class TestRotation:
    def test_rotates_at_segment_boundary(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal", segment_entries=2) as wal:
            for n in range(5):
                wal.append_event(make_event(n))
            assert wal.segment_count == 3
            names = [p.name for p in wal._segments()]
        assert names == ["wal-00000001.jsonl", "wal-00000003.jsonl", "wal-00000005.jsonl"]

    def test_entries_after_skips_covered_segments(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal", segment_entries=2) as wal:
            for n in range(6):
                wal.append_event(make_event(n))
            assert [e.seq for e in wal.entries_after(3)] == [4, 5, 6]
            assert [e.seq for e in wal.entries_after(0)] == [1, 2, 3, 4, 5, 6]
            assert list(wal.entries_after(6)) == []


class TestCheckpoint:
    def test_checkpoint_truncates_covered_segments(self, tmp_path):
        path = tmp_path / "wal"
        with WriteAheadLog(path, segment_entries=2) as wal:
            for n in range(6):
                wal.append_event(make_event(n))
            assert wal.lag == 6
            removed = wal.checkpoint(4)
            assert removed == 2
            assert wal.checkpoint_seq == 4
            assert wal.lag == 2
            # uncovered entries survive
            assert [e.seq for e in wal.entries()] == [5, 6]

    def test_full_checkpoint_empties_journal(self, tmp_path):
        path = tmp_path / "wal"
        with WriteAheadLog(path, segment_entries=2) as wal:
            for n in range(5):
                wal.append_event(make_event(n))
            wal.checkpoint(wal.last_seq)
            assert wal.lag == 0
            assert list(wal.entries()) == []
            # and appends keep numbering from where they left off
            assert wal.append_event(make_event(9)).seq == 6

    def test_checkpoint_survives_reopen(self, tmp_path):
        path = tmp_path / "wal"
        with WriteAheadLog(path, segment_entries=2) as wal:
            for n in range(4):
                wal.append_event(make_event(n))
            wal.checkpoint(3)
        with WriteAheadLog(path) as wal:
            assert wal.checkpoint_seq == 3
            assert wal.last_seq == 4
        marker = json.loads((path / CHECKPOINT_NAME).read_text())
        assert marker == {"seq": 3}

    def test_checkpoint_clamps_and_never_regresses(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append_event(make_event(1))
            wal.checkpoint(99)  # clamped to last_seq
            assert wal.checkpoint_seq == 1
            wal.checkpoint(0)  # regression ignored
            assert wal.checkpoint_seq == 1

    def test_checkpoint_of_empty_journal_after_recovery(self, tmp_path):
        path = tmp_path / "wal"
        with WriteAheadLog(path) as wal:
            wal.append_event(make_event(1))
            wal.checkpoint(1)
        with WriteAheadLog(path) as wal:
            assert wal.last_seq == 1  # carried by the marker alone
            assert wal.lag == 0


class TestGroupCommit:
    def test_sync_covers_earlier_entries(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            for n in range(3):
                wal.append_event(make_event(n))
            assert wal.durable_seq == 3
            wal.sync(2)  # already covered: returns without a new barrier
            assert wal.durable_seq == 3

    def test_fsync_failure_breaks_the_journal(self, tmp_path, monkeypatch):
        from repro.network import wal as walmod

        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append_event(make_event(1))

            def boom(fd):
                raise OSError("injected: disk gone")

            monkeypatch.setattr(walmod, "_sync_file", boom)
            with pytest.raises(WalError, match="fsync failed"):
                wal.append_event(make_event(2))
            assert wal.broken
            # Broken is sticky: later appends are refused up front, even
            # after the disk "comes back" — the buffered handle cannot
            # prove what reached the file.
            monkeypatch.undo()
            with pytest.raises(WalError, match="broken"):
                wal.append_event(make_event(3))

    def test_write_failure_breaks_the_journal(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.append_event(make_event(1))
            wal._handle.close()  # simulate the handle dying under us
            with pytest.raises(WalError, match="append failed"):
                wal.append_event(make_event(2))
            assert wal.broken

    def test_rotation_preserves_durability_watermark(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal", segment_entries=2) as wal:
            for n in range(5):  # rotates after entries 2 and 4
                wal.append_event(make_event(n))
            assert wal.segment_count == 3
            assert wal.durable_seq == 5
