"""Write-ahead event journal for the project server.

:mod:`repro.core.journal` proves that replaying recorded external
inputs deterministically reconstructs database state; this module turns
that property into crash safety.  The server appends every admitted
``postEvent`` / ``batch`` here *before* the wave runs, and answers only
once an fsync barrier covers the entry — so a process killed mid-wave
loses nothing: on restart, entries past the
database's durable watermark (``db.wal_seq``) replay through the same
engine and land in the identical state.

Layout: ``PATH`` is a directory of JSON-lines segments plus a
checkpoint marker::

    PATH/
      wal-00000001.jsonl   # entries 1..N (JournalEntry wire format)
      wal-00000513.jsonl   # entries 513.. (current tail segment)
      CHECKPOINT           # {"seq": 512} — entries <= 512 are in the DB

Durability rules, in order:

1. an append writes the line and flushes it; :meth:`sync` (run by the
   append itself unless ``sync=False``) waits for a ``fsync`` barrier
   covering the entry, and the server answers only after it — an
   ``OK`` response to a client implies the event is on disk.  The
   barrier is *group commit*: one thread fsyncs on behalf of every
   append that landed since the previous barrier, so concurrent
   writers share the disk wait instead of queueing one fsync each;
2. a checkpoint first persists the database (which carries ``wal_seq``
   in the same save/flush transaction), then replaces ``CHECKPOINT``
   atomically, then deletes fully-covered segments — a crash between
   any two steps leaves a journal that is at worst *longer* than
   needed, never shorter;
3. recovery tolerates exactly one torn line at the very tail of the
   newest segment (the crash landed mid-append; the entry was never
   acknowledged) and truncates it; corruption anywhere else fails
   loudly.

Named crash points (armed only by the fault-injection harness, see
:mod:`repro.testing.faults`): ``mid-journal-append`` between the two
halves of a line write, ``post-journal-append`` once the line is
written (and fsync'd only when the append asked for ``sync=True``; the
bus appends with ``sync=False``, so there it fires before any barrier).
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Iterable, Iterator

from repro.core.events import EventMessage
from repro.core.journal import (
    JournalEntry,
    JournalError,
    event_payload,
    payload_event,
)
from repro.testing.faults import crash_point

__all__ = [
    "WalError",
    "WriteAheadLog",
    "event_payload",
    "payload_event",
]

CHECKPOINT_NAME = "CHECKPOINT"
SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".jsonl"

#: Data barrier for segment writes.  ``fdatasync`` skips flushing
#: unchanged inode metadata (mtime) but still commits the data and the
#: size change an append implies — measurably cheaper per barrier on
#: ext4, identical durability for a pure-append file.  Falls back to
#: ``fsync`` where unavailable.
_sync_file = getattr(os, "fdatasync", os.fsync)

#: Rotate the tail segment once it holds this many entries, so
#: checkpoints can truncate in bounded pieces.
DEFAULT_SEGMENT_ENTRIES = 1024


class WalError(JournalError):
    """Unrecoverable journal damage (corruption away from the tail)."""


def _segment_name(first_seq: int) -> str:
    return f"{SEGMENT_PREFIX}{first_seq:08d}{SEGMENT_SUFFIX}"


def _segment_first_seq(path: Path) -> int:
    stem = path.name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)]
    try:
        return int(stem)
    except ValueError as exc:
        raise WalError(f"bad segment name {path.name!r}") from exc


def _fsync_dir(path: Path) -> None:
    """Make a directory entry change (create/rename/unlink) durable."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return  # platform without directory fsync; best effort
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class WriteAheadLog:
    """Segmented, fsync'd, checkpointable journal of admitted commands.

    Entry kinds: ``event`` (one ``postEvent``), ``batch`` (one atomic
    ``batch`` command, kept as a single entry so replay reproduces batch
    semantics — including the all-or-nothing error path — exactly),
    ``policy`` (a governed-policy lifecycle command: propose / approve /
    rollback specs, journaled so crash recovery reconstructs governance
    state), and ``audit`` (a deny tombstone referencing an earlier
    entry's seq — how a non-deterministic ``policy_fault`` denial
    replays faithfully).
    """

    def __init__(
        self,
        path: Path | str,
        *,
        segment_entries: int = DEFAULT_SEGMENT_ENTRIES,
    ) -> None:
        self.path = Path(path)
        self.segment_entries = max(1, segment_entries)
        self._lock = threading.Lock()
        self._handle = None
        self._segment_path: Path | None = None
        self._segment_count = 0
        self._entries_in_segment = 0
        self.last_seq = 0
        self.checkpoint_seq = 0
        self.recovered_torn_line = False
        #: Disk barriers actually issued (group-commit amortisation
        #: gauge: compare against entries appended to see the fan-in).
        self.sync_barriers = 0
        # Group-commit state: appends write+flush under ``_lock`` (fast),
        # then wait in :meth:`sync` for a disk barrier covering their
        # entry.  One thread fsyncs on everyone's behalf while later
        # appends keep flowing — concurrent writers amortise the barrier,
        # which is the difference between durability costing one fsync
        # per event and one fsync per *burst*.
        self._sync_cond = threading.Condition()
        self._durable_seq = 0
        self._sync_inflight = False
        self._rotating = False
        self._broken = False
        self.path.mkdir(parents=True, exist_ok=True)
        self._recover()
        self._durable_seq = self.last_seq

    # ------------------------------------------------------------------
    # open / recovery
    # ------------------------------------------------------------------

    def _segments(self) -> list[Path]:
        return sorted(
            (
                child
                for child in self.path.iterdir()
                if child.name.startswith(SEGMENT_PREFIX)
                and child.name.endswith(SEGMENT_SUFFIX)
            ),
            key=_segment_first_seq,
        )

    def _recover(self) -> None:
        marker = self.path / CHECKPOINT_NAME
        if marker.exists():
            try:
                self.checkpoint_seq = int(json.loads(marker.read_text())["seq"])
            except (ValueError, KeyError, json.JSONDecodeError) as exc:
                raise WalError(f"corrupt checkpoint marker {marker}: {exc}") from exc
        segments = self._segments()
        self.last_seq = self.checkpoint_seq
        tail_entries = 0
        expected_next: int | None = None
        for index, segment in enumerate(segments):
            is_tail = index == len(segments) - 1
            first_seq = _segment_first_seq(segment)
            if expected_next is not None and first_seq != expected_next:
                # A whole segment (or its tail lines) vanished: the next
                # segment's name proves entries are missing.  Unlike a
                # torn final line this CAN cover acknowledged events, so
                # it must fail loudly, never silently skip.
                raise WalError(
                    f"journal gap: {segment.name} starts at seq {first_seq}, "
                    f"expected {expected_next}"
                )
            last, count = self._scan_segment(
                segment, first_seq=first_seq, repair_tail=is_tail
            )
            expected_next = first_seq + count
            if last is not None:
                self.last_seq = max(self.last_seq, last)
            if is_tail:
                tail_entries = count
        self._segment_count = len(segments)
        if segments:
            self._open_segment(segments[-1])
            self._entries_in_segment = tail_entries

    def _scan_segment(
        self, segment: Path, *, first_seq: int, repair_tail: bool
    ) -> tuple[int | None, int]:
        """Validate one segment; returns (last seq, entry count).

        Entries must run contiguously from *first_seq* (the sequence
        number the segment's own name promises).  On the newest segment
        only, a single unparseable *final* line is treated as a torn
        append — the crash landed mid-write, the entry was never
        acknowledged — and truncated away.  Anything else raises
        :class:`WalError`.
        """
        raw = segment.read_bytes()
        good_end = 0
        last_seq: int | None = None
        count = 0
        position = 0
        while position < len(raw):
            newline = raw.find(b"\n", position)
            if newline < 0:
                break  # unterminated tail
            line = raw[position:newline].decode("utf-8", errors="replace")
            try:
                entry = JournalEntry.from_json(line)
            except JournalError:
                break
            if entry.seq != first_seq + count:
                raise WalError(
                    f"journal gap in {segment.name}: entry {count} has "
                    f"seq {entry.seq}, expected {first_seq + count}"
                )
            last_seq = entry.seq
            count += 1
            good_end = newline + 1
            position = newline + 1
        if good_end < len(raw):
            if not repair_tail:
                raise WalError(
                    f"corrupt journal segment {segment.name} at byte {good_end}"
                )
            with open(segment, "r+b") as handle:
                handle.truncate(good_end)
                handle.flush()
                os.fsync(handle.fileno())
            self.recovered_torn_line = True
        return last_seq, count

    def _open_segment(self, segment: Path) -> None:
        self._close_handle()
        self._segment_path = segment
        self._handle = open(segment, "ab")

    def _close_handle(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            self._segment_path = None

    # ------------------------------------------------------------------
    # append
    # ------------------------------------------------------------------

    def append_event(self, event: EventMessage, *, sync: bool = True) -> JournalEntry:
        """Record one admitted ``postEvent``; durable before returning
        unless ``sync=False`` (caller promises a later :meth:`sync`
        before acknowledging the event to anyone)."""
        return self._append("event", event_payload(event), sync=sync)

    def append_batch(
        self, events: Iterable[EventMessage], *, sync: bool = True
    ) -> JournalEntry:
        """Record one admitted ``batch`` as a single entry."""
        payload = {"events": [event_payload(event) for event in events]}
        return self._append("batch", payload, sync=sync)

    def append_policy(
        self, action: str, spec: dict, *, sync: bool = True
    ) -> JournalEntry:
        """Record one admitted policy lifecycle command (its spec, not
        its outcome — replay re-derives the outcome deterministically)."""
        return self._append("policy", {"action": action, "spec": spec}, sync=sync)

    def append_audit(
        self,
        ref: int,
        denied: list[tuple[int, str]],
        *,
        sync: bool = True,
    ) -> JournalEntry:
        """Record a deny tombstone for entry *ref*.

        ``denied`` lists ``(member index, reason)`` pairs — index 0 for a
        plain ``postEvent``.  The DENY response waits for a barrier
        covering the tombstone, so a replayer can never resurrect (grant)
        a decision the live server refused.
        """
        payload = {
            "ref": ref,
            "denied": [[index, reason] for index, reason in denied],
        }
        return self._append("audit", payload, sync=sync)

    def _append(self, kind: str, payload: dict, *, sync: bool = True) -> JournalEntry:
        with self._lock:
            if self._broken:
                raise WalError(
                    "journal is broken (earlier write or fsync failed); "
                    "refusing to append"
                )
            self._maybe_rotate()
            entry = JournalEntry(seq=self.last_seq + 1, kind=kind, payload=payload)
            data = (entry.to_json() + "\n").encode("utf-8")
            handle = self._handle
            assert handle is not None
            try:
                # The write is split — and the first half pushed past
                # Python's buffer — so an armed mid-journal-append crash
                # point produces a genuinely torn line on disk, not a
                # cleanly absent one.
                half = max(1, len(data) // 2)
                handle.write(data[:half])
                handle.flush()
                crash_point("mid-journal-append")
                handle.write(data[half:])
                handle.flush()
            except (OSError, ValueError) as exc:  # ValueError: closed file
                # The buffered handle may have emitted a partial line that
                # cannot be rolled back; everything after it would read as
                # corruption, so the journal stops accepting writes.
                self._mark_broken()
                raise WalError(f"journal append failed: {exc}") from exc
            self.last_seq = entry.seq
            self._entries_in_segment += 1
        if sync:
            self.sync(entry.seq)
        crash_point("post-journal-append")
        return entry

    def sync(self, seq: int) -> None:
        """Block until entries ``<= seq`` are on disk (group commit).

        Concurrent callers piggyback: while one thread runs the fsync,
        later appends keep landing in the OS buffer, and the *next*
        barrier covers them all at once.  Callers whose entry was already
        covered by someone else's barrier return without touching disk.
        """
        with self._sync_cond:
            while True:
                if self._broken:
                    raise WalError("journal is broken; entry not durable")
                if self._durable_seq >= seq:
                    return
                if not self._sync_inflight and not self._rotating:
                    break
                self._sync_cond.wait()
            self._sync_inflight = True
            # Safe to read outside ``_lock``: appends publish ``last_seq``
            # only after the full line is flushed, and rotation cannot
            # swap the handle while a sync is inflight.
            handle = self._handle
            target = self.last_seq
        error: Exception | None = None
        try:
            if handle is not None:
                self.sync_barriers += 1
                _sync_file(handle.fileno())
        except (OSError, ValueError) as exc:  # ValueError: closed file
            error = exc
        with self._sync_cond:
            self._sync_inflight = False
            if error is None:
                self._durable_seq = max(self._durable_seq, target)
            else:
                self._broken = True
            self._sync_cond.notify_all()
        if error is not None:
            raise WalError(f"journal fsync failed: {error}") from error
        if self._broken:
            raise WalError("journal is broken; entry not durable")

    def _mark_broken(self) -> None:
        self._broken = True
        with self._sync_cond:
            self._sync_cond.notify_all()

    @property
    def broken(self) -> bool:
        """True once a write or fsync has failed; appends are refused."""
        return self._broken

    @property
    def durable_seq(self) -> int:
        return self._durable_seq

    def _maybe_rotate(self) -> None:
        if self._handle is None:
            self._start_segment(self.last_seq + 1)
        elif self._entries_in_segment >= self.segment_entries:
            self._start_segment(self.last_seq + 1)

    def _seal_segment(self) -> None:
        """Barrier the open segment before it is closed (rotation/close).

        Waits out any inflight group fsync (so the handle is not pulled
        from under it), then flushes + fsyncs so every entry in a closed
        segment is durable — rotation must never weaken rule 1.  Caller
        holds ``_lock``.
        """
        handle = self._handle
        if handle is None:
            return
        with self._sync_cond:
            while self._sync_inflight:
                self._sync_cond.wait()
            self._rotating = True
        try:
            handle.flush()
            self.sync_barriers += 1
            _sync_file(handle.fileno())
        except (OSError, ValueError) as exc:  # ValueError: closed file
            self._mark_broken()
            raise WalError(f"journal rotation fsync failed: {exc}") from exc
        finally:
            with self._sync_cond:
                self._rotating = False
                if not self._broken:
                    self._durable_seq = max(self._durable_seq, self.last_seq)
                self._sync_cond.notify_all()

    def _start_segment(self, first_seq: int) -> None:
        if self._handle is not None:
            self._seal_segment()
        self._close_handle()
        segment = self.path / _segment_name(first_seq)
        self._segment_path = segment
        self._handle = open(segment, "ab")
        self._entries_in_segment = 0
        self._segment_count += 1
        _fsync_dir(self.path)

    # ------------------------------------------------------------------
    # read / replay
    # ------------------------------------------------------------------

    def entries(self) -> Iterator[JournalEntry]:
        """Every entry in seq order (validated segments only)."""
        for segment in self._segments():
            for line in segment.read_text().splitlines():
                if line.strip():
                    yield JournalEntry.from_json(line)

    def entries_after(self, seq: int) -> Iterator[JournalEntry]:
        """Entries with ``entry.seq > seq`` — the recovery tail.

        Segments whose name proves they end at or before *seq* are
        skipped without being read.
        """
        segments = self._segments()
        for index, segment in enumerate(segments):
            next_first = (
                _segment_first_seq(segments[index + 1])
                if index + 1 < len(segments)
                else None
            )
            if next_first is not None and next_first - 1 <= seq:
                continue  # entire segment is at or below the watermark
            for line in segment.read_text().splitlines():
                if not line.strip():
                    continue
                entry = JournalEntry.from_json(line)
                if entry.seq > seq:
                    yield entry

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    @property
    def lag(self) -> int:
        """Entries admitted but not yet covered by a checkpoint."""
        return self.last_seq - self.checkpoint_seq

    @property
    def segment_count(self) -> int:
        return self._segment_count

    # ------------------------------------------------------------------
    # checkpoint / truncation
    # ------------------------------------------------------------------

    def checkpoint(self, seq: int) -> int:
        """Record that entries ``<= seq`` are durable in the database.

        Replaces the ``CHECKPOINT`` marker atomically, then deletes
        segments every entry of which is covered.  Returns the number of
        segments truncated.  MUST only be called after the database save
        carrying ``wal_seq = seq`` has committed — the caller owns that
        ordering (see ``damocles serve``).
        """
        with self._lock:
            seq = min(seq, self.last_seq)
            if seq < self.checkpoint_seq:
                return 0
            marker = self.path / CHECKPOINT_NAME
            tmp = self.path / (CHECKPOINT_NAME + ".tmp")
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump({"seq": seq}, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, marker)
            _fsync_dir(self.path)
            self.checkpoint_seq = seq
            # Rotate the tail away if it is fully covered, so it too can
            # be deleted and the journal stays bounded.
            if (
                self._handle is not None
                and self._entries_in_segment > 0
                and self.last_seq <= seq
            ):
                self._start_segment(self.last_seq + 1)
            removed = 0
            segments = self._segments()
            for index, segment in enumerate(segments):
                if segment == self._segment_path:
                    continue  # never unlink the open tail
                next_first = (
                    _segment_first_seq(segments[index + 1])
                    if index + 1 < len(segments)
                    else self.last_seq + 1
                )
                if next_first - 1 <= seq:
                    segment.unlink()
                    removed += 1
            if removed:
                self._segment_count -= removed
                _fsync_dir(self.path)
            return removed

    def close(self) -> None:
        with self._lock:
            if self._handle is not None and not self._broken:
                try:
                    self._seal_segment()
                except WalError:
                    pass  # shutdown: nothing left to protect
            self._close_handle()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
