"""Write-ahead log: durability and crash recovery.

Committed transactions append one JSON line each to the log file.  Every
record carries a CRC32 of its payload; recovery replays records until the
first torn/corrupt line (a crash mid-append) and truncates the tail, or
raises :class:`~repro.errors.WalCorruption` when corruption appears
*before* intact records (which indicates tampering, not a crash).
Records are redo-only (see :func:`_op_image`): rollback works from the
in-memory undo list, never from the log.  A commit line is encoded one
op at a time (:func:`_commit_chunks`) into bounded frames, its CRC
accumulated frame by frame, so a bulk commit never holds its record as
one dict, one body string and one line at once.

A *checkpoint* writes a full snapshot of every table and resets the log;
recovery loads the most recent snapshot, then replays the WAL on top.

When the log runs under ``group`` durability
(:class:`~repro.storage.durability.Durability`), committers do not fsync
individually: they enqueue their encoded line and wait while a single
*leader* flushes the whole batch with one ``write + fsync``.  Record
order in the file always matches enqueue order, so recovery semantics
are identical across modes.
"""

from __future__ import annotations

import json
import os
import threading
import time
import zlib
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.errors import CrashPoint, WalCorruption
from repro.obs.tracing import TraceContext
from repro.resilience.faults import fault_point
from repro.storage.durability import Durability
from repro.storage.table import UndoEntry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability


_ABSENT = object()


def _changed(old: Any, new: Any) -> bool:
    """Whether an update must log *new* over *old*.

    Type-exact, because the log is JSON: ``1``, ``1.0`` and ``True``
    compare equal yet replay as different values.  A column the update
    did not name still holds the very object the old version held; a
    container is compared by its encoding, which tells a nested ``1``
    from a nested ``True`` (and one key order from another) where
    ``==`` does not.
    """
    if old is new:
        return False
    if type(old) is not type(new):
        return True
    if isinstance(new, (dict, list)):
        return encode_exact(old) != encode_exact(new)
    return old != new


#: A container's JSON text, keys in their own order: two containers
#: with equal text log (and replay) as the same value.
encode_exact = json.JSONEncoder(separators=(",", ":"), default=str).encode


#: The one line encoding, built once: ``json.dumps`` with arguments
#: builds a new encoder per call, which a bulk commit pays per op.
_encode_payload = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=str
).encode

#: A commit line is handed to the file as frames of about this many
#: bytes: one write for a small commit, a bounded list for a bulk one.
_FRAME_BYTES = 1 << 16


def _insert_headers(operations: list[UndoEntry]) -> dict[str, list[str]]:
    """The column header of each table the commit inserts into: the
    keys of its first inserted row, in that row's order."""
    headers: dict[str, list[str]] = {}
    for entry in operations:
        if entry.op == "insert" and entry.table not in headers:
            headers[entry.table] = list(entry.after)
    return headers


def _op_image(
    entry: UndoEntry, encode_value, headers: dict[str, list[str]]
) -> "dict[str, Any] | list[Any]":
    """The redo image of one op.  An insert is ``[table, values]``: its
    row's values in the order of the table's header in *headers*.  An
    update is a dict naming the columns it changed as ``after``, a
    delete one with nothing but the pk.  Replay merges ``after`` onto
    the current row, so the full ``after`` images (and the ``before``
    images nothing ever read) of older logs replay through the same
    code, as does an insert logged as a dict with its row as ``after``.

    Every row a commit inserts into one table carries the same columns
    (a row holds every column its table had when it was inserted), so
    one header fits them all.  A row inserted across a column addition
    has more columns than the header and is logged as a dict."""
    op: dict[str, Any] = {"op": entry.op, "table": entry.table, "pk": entry.pk}
    if entry.op == "insert":
        after = encode_value(entry.table, entry.after)
        columns = headers[entry.table]
        if len(after) != len(columns):
            op["after"] = after
            return op
        return [entry.table, [after[name] for name in columns]]
    if entry.op == "update":
        before = entry.before
        op["after"] = encode_value(
            entry.table,
            {
                name: value
                for name, value in entry.after.items()
                if _changed(before.get(name, _ABSENT), value)
            },
        )
    return op


def commit_record(
    txn_id: int,
    operations: list[UndoEntry],
    encode_value,
    seq: int | None = None,
) -> dict[str, Any]:
    """The record dict a commit line encodes, built from the same op
    images :func:`_commit_chunks` streams.  ``columns`` (present when
    the commit inserts) holds each inserted table's header once."""
    headers = _insert_headers(operations)
    record: dict[str, Any] = {
        "kind": "commit",
        "ops": [_op_image(entry, encode_value, headers) for entry in operations],
        "txn": txn_id,
    }
    if headers:
        record["columns"] = headers
    if seq is not None:
        record["seq"] = seq
    return record


def _commit_chunks(
    txn_id: int,
    operations: list[UndoEntry],
    encode_value,
    seq: int | None,
) -> Iterator[bytes]:
    """Encode a commit record one op at a time, as ASCII chunks whose
    concatenation is ``_encode_payload(commit_record(...))``.

    ``sort_keys`` orders the record's keys ``columns < kind < ops < seq
    < txn`` and ``json.dumps`` escapes every non-ASCII character, so
    the record is the headers, a fixed infix, each op's own encoding,
    and the integer ``seq``/``txn`` pair."""
    headers = _insert_headers(operations)
    if headers:
        yield b'{"columns":%s,"kind":"commit","ops":[' % _encode_payload(
            headers
        ).encode("ascii")
    else:
        yield b'{"kind":"commit","ops":['
    for i, entry in enumerate(operations):
        if i:
            yield b","
        yield _encode_payload(
            _op_image(entry, encode_value, headers)
        ).encode("ascii")
    if seq is None:
        yield b'],"txn":%d}' % txn_id
    else:
        yield b'],"seq":%d,"txn":%d}' % (seq, txn_id)


class _Batch:
    """One group-commit batch: lines queued for a single write+fsync.
    Each line is the frame list :meth:`WriteAheadLog._append_chunks`
    built."""

    __slots__ = ("lines", "traces", "flushed", "error", "leader_ctx")

    def __init__(self) -> None:
        self.lines: list[list[bytearray]] = []
        # Per-line trace context of the enqueuing committer (None when
        # the commit ran outside any trace).  The leader parents its
        # fsync span on the first of these and links the rest, and every
        # follower gets the leader's span context back through its
        # durability ticket — one linked trace across the thread hop.
        self.traces: list["TraceContext | None"] = []
        self.flushed = False
        self.error: BaseException | None = None
        # The leader's fsync span, for followers to link to.
        self.leader_ctx: "TraceContext | None" = None


class WriteAheadLog:
    """Append-only transaction log with CRC-protected records."""

    def __init__(
        self,
        path: "str | Path",
        *,
        obs: "Observability | None" = None,
        durability: "Durability | str | None" = None,
        pending_writers=None,
    ):
        """*pending_writers*: optional zero-argument callable reporting
        how many transactions are currently applying changes and will
        enqueue a record soon.  A group-commit leader keeps its window
        open only while this is positive — when nobody else can join
        the batch, waiting is pure latency."""
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "ab")
        self.durability = Durability.parse(durability)
        self._pending_writers = pending_writers
        self._obs = obs
        self._m_fsync = None
        self._m_batch = None
        if obs is not None:
            self._m_fsync = obs.metrics.histogram(
                "storage_wal_fsync_seconds",
                "fsync of one WAL write (batch)",
            ).labels()
            self._m_batch = obs.metrics.histogram(
                "storage_wal_batch_records",
                "Records made durable per WAL fsync",
                buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
            ).labels()
        # Group-commit state: one open batch fills while (at most) one
        # leader flushes a closed batch.  Both conditions share one
        # mutex; the split keeps enqueues from waking every waiter:
        # _join_cv wakes only the window-waiting leader, _flushed_cv
        # wakes the committers blocked on their batch.
        self._mutex = threading.Lock()
        self._join_cv = threading.Condition(self._mutex)
        self._flushed_cv = threading.Condition(self._mutex)
        self._current: _Batch | None = None
        self._leader_active = False
        # Size of the most recently flushed batch.  A solo commit skips
        # the batch window only when the previous batch was also solo:
        # right after a multi-record flush the other committers are busy
        # with post-commit bookkeeping and about to enqueue again, and
        # flushing ahead of them would split the stream into half-sized
        # batches with one stray single-record fsync in between.
        self._last_batch_size = 0

    # -- writing ----------------------------------------------------------------

    def append_commit(
        self,
        txn_id: int,
        operations: list[UndoEntry],
        encode_value,
        *,
        seq: int | None = None,
    ):
        """Record one committed transaction.

        Returns ``(nbytes, ticket)``: the line's length in bytes and a
        *durability ticket*.  The line encodes
        :func:`commit_record` of the same arguments, which a caller
        derives only if it needs the dict.  *encode_value* maps
        ``(table, row_dict)`` to a JSON-safe dict; the database supplies
        it so the WAL stays schema-agnostic.  *seq*, when given, embeds
        the database-wide commit sequence number in the record so
        downstream consumers (replication) can identify a commit without
        counting records — the sequence space has gaps the record count
        cannot reproduce.

        Under ``always``/``buffered`` durability the line is written
        before returning and the ticket is ``None``.  Under ``group``
        durability the line is only *enqueued*: the caller must invoke
        the returned zero-argument ticket — after releasing any locks —
        to block until the batch fsync makes the record durable.
        """
        return self._append_chunks(
            "commit", _commit_chunks(txn_id, operations, encode_value, seq)
        )

    def append_replicated(self, record: dict[str, Any]):
        """Re-log a commit record shipped from another node, verbatim.

        The record (including its embedded primary ``seq``) is appended
        exactly as received so a replica restart replays the same
        history a fresh copy of the primary's log would.  Returns
        ``(nbytes, ticket)`` like :meth:`append_commit`.
        """
        kind = record.get("kind", "commit")
        payload = {k: v for k, v in record.items() if k != "kind"}
        return self._append_record(kind, payload)

    def append_checkpoint_marker(
        self, snapshot_name: str, *, seq: int | None = None
    ) -> None:
        """Note that a snapshot file now covers everything before here.

        *seq* is the commit sequence the snapshot captured; recovery
        restores the counter from it so a checkpoint (which resets the
        log and thereby discards every seq-carrying commit record) can
        never regress the sequence space across a restart.
        """
        payload: dict[str, Any] = {"snapshot": snapshot_name}
        if seq is not None:
            payload["seq"] = seq
        self._append_record("checkpoint", payload)

    def _append_record(self, kind: str, payload: dict[str, Any]):
        """Append a small record, encoded as a single chunk."""
        record = {"kind": kind, **payload}
        body = _encode_payload(record).encode("ascii")
        return self._append_chunks(kind, [body])

    def _append_chunks(self, kind: str, chunks: Iterable[bytes]):
        """Frame *chunks* (lazily encoded) as one line and append it;
        returns ``(nbytes, ticket)``.

        The chunks are packed into frames of about :data:`_FRAME_BYTES`
        and the CRC is accumulated frame by frame, so the line is never
        joined: the first frame starts with a placeholder that the CRC
        header overwrites once the last chunk is in, and the last ends
        with the newline."""
        # Crash site: the record exists only in memory — a fault here
        # must leave no trace of the transaction on disk.
        fault_point("wal.append")
        frame = bytearray(b"00000000 ")
        line = [frame]
        crc, start = 0, 9
        for chunk in chunks:
            frame += chunk
            if len(frame) >= _FRAME_BYTES:
                crc = zlib.crc32(memoryview(frame)[start:], crc)
                frame, start = bytearray(), 0
                line.append(frame)
        crc = zlib.crc32(memoryview(frame)[start:], crc)
        frame += b"\n"
        line[0][:8] = b"%08x" % crc
        nbytes = sum(map(len, line))
        if self.durability.grouped and kind == "commit":
            # Capture the committer's trace context *here*, on its own
            # thread — the flush happens on whichever committer becomes
            # leader, where the thread-local stack is someone else's.
            ctx = (
                self._obs.tracer.context() if self._obs is not None else None
            )
            batch = self._enqueue(line, ctx)
            return nbytes, lambda: self._await_batch(batch)
        self._write_lines([line], fsync=self.durability.mode != "buffered")
        return nbytes, None

    def _write_lines(
        self, lines: list[list[bytearray]], *, fsync: bool
    ) -> None:
        # Crash site: a torn_write fault makes a *prefix* of the batch
        # durable — the partial final record is what recovery's
        # torn-tail healing must truncate away.
        action = fault_point("wal.write")
        if action is not None and action.kind == "torn_write":
            data = b"".join(chain.from_iterable(lines))
            cut = min(max(int(len(data) * action.fraction), 1), len(data) - 1)
            self._file.write(data[:cut])
            self._file.flush()
            os.fsync(self._file.fileno())
            raise CrashPoint(
                f"torn WAL write: {cut}/{len(data)} bytes reached disk"
            )
        self._file.writelines(chain.from_iterable(lines))
        self._file.flush()
        # Crash site: bytes handed to the OS but not yet forced down.
        fault_point("wal.after_write")
        if not fsync:
            return
        if self._m_fsync is not None:
            assert self._obs is not None
            timer = self._obs.timer()
            os.fsync(self._file.fileno())
            self._m_fsync.observe(timer.elapsed())
        else:
            os.fsync(self._file.fileno())
        # Crash site: the record is durable but the committer has not
        # heard back — the classic commit-uncertainty window.
        fault_point("wal.after_fsync")
        if self._m_batch is not None:
            self._m_batch.observe(len(lines))

    # -- group commit ------------------------------------------------------------

    def _enqueue(
        self, line: list[bytearray], ctx: "TraceContext | None" = None
    ) -> _Batch:
        """Add *line* to the open batch (creating one) and return it."""
        with self._mutex:
            if self._current is None:
                self._current = _Batch()
            batch = self._current
            batch.lines.append(line)
            batch.traces.append(ctx)
            self._join_cv.notify()  # let a window-waiting leader re-evaluate
            return batch

    def _await_batch(self, batch: _Batch) -> "TraceContext | None":
        """Block until *batch* is on disk; re-raise its flush error.

        Returns the leader's fsync-span context (``None`` when the flush
        ran untraced) so the committer can link its own commit span to
        the fsync that made it durable."""
        with self._mutex:
            while not batch.flushed:
                if not self._leader_active:
                    self._leader_active = True
                    # A lone commit with no other writer in flight skips
                    # the batch window: group durability then costs one
                    # fsync, exactly like `always`.
                    alone = (
                        len(batch.lines) <= 1
                        and self._last_batch_size <= 1
                        and (
                            self._pending_writers is None
                            or self._pending_writers() <= 0
                        )
                    )
                    self._lead_locked(batch, wait_window=not alone)
                else:
                    self._flushed_cv.wait()
        if batch.error is not None:
            raise batch.error
        return batch.leader_ctx

    def _lead_locked(self, batch: _Batch, *, wait_window: bool) -> None:
        """Flush *batch* as leader.  Called (and returns) with _mutex held.

        The leader lingers up to the durability window so stragglers can
        join, closes the batch, then performs the write+fsync *outside*
        the mutex so new commits keep enqueueing meanwhile.
        """
        assert batch is self._current
        window_s = self.durability.window_ms / 1000.0
        if wait_window and window_s > 0:
            deadline = time.monotonic() + window_s
            while len(batch.lines) < self.durability.max_batch:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                if (
                    self._pending_writers is not None
                    and self._pending_writers() <= 0
                ):
                    # No writer in flight.  Committers released by the
                    # previous flush run their post-commit bookkeeping
                    # before re-declaring intent, so probe briefly (an
                    # enqueue notifies _join_cv and ends the wait early);
                    # close the batch only if nothing new shows up.
                    seen = len(batch.lines)
                    self._join_cv.wait(min(remaining, 0.0001))
                    if (
                        len(batch.lines) == seen
                        and self._pending_writers() <= 0
                    ):
                        break
                    continue
                # Writers are applying and will enqueue soon; tick short
                # so an aborting writer never costs the whole window.
                self._join_cv.wait(min(remaining, 0.0005))
        self._current = None  # close the batch; later commits start a new one
        self._mutex.release()
        error: BaseException | None = None
        try:
            self._flush_batch(batch)
        except BaseException as exc:  # propagate to every waiter
            error = exc
        self._mutex.acquire()
        batch.error = error
        batch.flushed = True
        self._last_batch_size = len(batch.lines)
        self._leader_active = False
        self._flushed_cv.notify_all()

    def _flush_batch(self, batch: _Batch) -> None:
        """Write+fsync a closed batch, under a span when any committer
        in it was tracing.

        The span runs on the *leader's* thread: it nests under the
        leader's own commit span when the leader is itself a traced
        committer, else it adopts the first traced enqueuer's context —
        either way the fsync lands inside an existing trace rather than
        starting its own.  ``linked_traces`` lists every distinct trace
        that shared this fsync, and :attr:`_Batch.leader_ctx` carries
        the span back to the waiting followers."""
        linked = [ctx for ctx in batch.traces if ctx is not None]
        tracer = self._obs.tracer if self._obs is not None else None
        if tracer is None or not linked:
            self._write_lines(batch.lines, fsync=True)
            return
        parent = tracer.context() or linked[0]
        with tracer.span(
            "wal.group_fsync", parent=parent, batch=len(batch.lines)
        ) as span:
            trace_ids = sorted({ctx.trace_id for ctx in linked})
            if len(trace_ids) > 1 or trace_ids[0] != span.trace_id:
                span.set(linked_traces=trace_ids)
            self._write_lines(batch.lines, fsync=True)
            batch.leader_ctx = span.context()

    def sync(self) -> None:
        """Drain pending group batches and force the file to disk.

        Checkpoints and ``close`` call this so no enqueued-but-unflushed
        record is ever lost to a log reset; under ``buffered`` durability
        it is also the point where the tail becomes crash-safe.
        """
        with self._mutex:
            while True:
                batch = self._current
                if batch is None and not self._leader_active:
                    break
                if batch is not None and not self._leader_active:
                    self._leader_active = True
                    self._lead_locked(batch, wait_window=False)
                    continue
                self._flushed_cv.wait()
        if not self._file.closed:
            self._file.flush()
            os.fsync(self._file.fileno())

    # -- reading -------------------------------------------------------------------

    def records(self) -> Iterator[dict[str, Any]]:
        """Yield intact records in order; stop cleanly at a torn tail.

        Raises :class:`WalCorruption` if a corrupt record is followed by
        an intact one — a crash can only tear the final append.
        """
        pending_error: str | None = None
        for _offset, record, reason in self._scan():
            if record is None:
                if reason == "incomplete":
                    return  # unterminated tail line: nothing after it
                pending_error = reason
                continue
            if pending_error is not None:
                raise WalCorruption(
                    f"WAL {self.path}: corrupt record at {pending_error} "
                    "followed by intact records"
                )
            yield record

    def _scan(self) -> Iterator[tuple[int, dict[str, Any] | None, str]]:
        """Walk the file's line-framed records.

        Yields ``(offset, record, reason)``: the byte offset the line
        starts at, and ``record`` ``None`` for a bad line (``reason``
        says why: ``"incomplete"`` for a line missing its newline, else
        its line number).
        """
        if not self.path.exists():
            return
        offset = 0
        with open(self.path, "rb") as fh:
            for line_no, raw in enumerate(fh, 1):
                start, offset = offset, offset + len(raw)
                if not raw.endswith(b"\n"):
                    yield start, None, "incomplete"
                    return
                if raw == b"\n":
                    continue
                record = self._parse_line(raw)
                if record is None:
                    yield start, None, f"line {line_no}"
                    continue
                yield start, record, ""

    @staticmethod
    def _parse_line(raw: bytes) -> dict[str, Any] | None:
        """Check and decode one newline-terminated line, as bytes: the
        CRC covers the body's bytes, and invalid UTF-8 is a bad line."""
        if len(raw) < 11 or raw[8:9] != b" ":
            return None
        try:
            expected = int(raw[:8], 16)
        except ValueError:
            return None
        body = raw[9:-1]
        if zlib.crc32(body) != expected:
            return None
        try:
            return json.loads(body)
        except ValueError:  # UnicodeDecodeError included
            return None

    def truncate_torn_tail(self) -> int:
        """Cut the file after its intact *prefix*; return kept count.

        Everything from the first torn/corrupt line onward is dropped —
        including any valid-looking records after the tear, because a
        record whose predecessor never fully landed cannot be trusted to
        belong to the committed prefix (replication can redeliver frames
        out of band; replay must stop at the tear).  The kept lines keep
        their bytes: the file is truncated in place at the tear's
        offset.  Idempotent: a clean log is left unchanged.  Called
        after recovery (and by replica promotion) so the next append
        lands on a clean file.
        """
        self.close()
        kept, cut = 0, None
        for offset, record, _reason in self._scan():
            if record is None:
                cut = offset
                break
            kept += 1
        if cut is not None:
            with open(self.path, "r+b") as fh:
                fh.truncate(cut)
                fh.flush()
                os.fsync(fh.fileno())
        self._file = open(self.path, "ab")
        return kept

    def reset(self) -> None:
        """Empty the log (after a checkpoint snapshot has been fsynced)."""
        self.sync()
        self.close()
        with open(self.path, "wb") as fh:
            fh.flush()
            os.fsync(fh.fileno())
        self._file = open(self.path, "ab")

    def size_bytes(self) -> int:
        self._file.flush()
        return self.path.stat().st_size if self.path.exists() else 0

    def close(self) -> None:
        if not self._file.closed:
            self.sync()
            self._file.flush()
            self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
