"""Write-ahead log: durability and crash recovery.

Committed transactions append one JSON line each to the log file.  Every
record carries a CRC32 of its payload; recovery replays records until the
first torn/corrupt line (a crash mid-append) and truncates the tail, or
raises :class:`~repro.errors.WalCorruption` when corruption appears
*before* intact records (which indicates tampering, not a crash).
Records are redo-only (see :meth:`WriteAheadLog._encode_ops`): rollback
works from the in-memory undo list, never from the log.

A *checkpoint* writes a full snapshot of every table and resets the log;
recovery loads the most recent snapshot, then replays the WAL on top.

When the log runs under ``group`` durability
(:class:`~repro.storage.durability.Durability`), committers do not fsync
individually: they enqueue their encoded record and wait while a single
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
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

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
    did not name still holds the very object the old version held;
    containers that are not that object are logged without looking
    inside (equal containers can differ in a nested ``1``/``True``).
    """
    if old is new:
        return False
    return (
        type(old) is not type(new)
        or isinstance(new, (dict, list))
        or old != new
    )


def _encode_payload(payload: dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


class _Batch:
    """One group-commit batch: lines queued for a single write+fsync."""

    __slots__ = ("lines", "traces", "flushed", "error", "leader_ctx")

    def __init__(self) -> None:
        self.lines: list[str] = []
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
        self._file = open(self.path, "a", encoding="utf-8")
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

        Returns ``(record, nbytes, ticket)``: the record dict the line
        encodes, the line's length in bytes, and a *durability ticket*.
        *encode_value* maps ``(table, row_dict)`` to a JSON-safe dict;
        the database supplies it so the WAL stays schema-agnostic.
        *seq*, when given, embeds the database-wide commit sequence
        number in the record so downstream consumers (replication) can
        identify a commit without counting records — the sequence space
        has gaps the record count cannot reproduce.

        Under ``always``/``buffered`` durability the record is written
        before returning and the ticket is ``None``.  Under ``group``
        durability the record is only *enqueued*: the caller must invoke
        the returned zero-argument ticket — after releasing any locks —
        to block until the batch fsync makes the record durable.
        """
        payload: dict[str, Any] = {
            "txn": txn_id,
            "ops": self._encode_ops(operations, encode_value),
        }
        if seq is not None:
            payload["seq"] = seq
        return self._append_record("commit", payload)

    @staticmethod
    def _encode_ops(
        operations: list[UndoEntry], encode_value
    ) -> list[dict[str, Any]]:
        """Redo-only images: an insert logs its row, an update the
        columns it changed, a delete nothing but the pk.  Replay merges
        ``after`` onto the current row, so the full ``after`` images
        (and the ``before`` images nothing ever read) of older logs
        replay through the same code."""
        ops = []
        for entry in operations:
            op: dict[str, Any] = {
                "op": entry.op,
                "table": entry.table,
                "pk": entry.pk,
            }
            after = entry.after
            if entry.op == "update":
                before = entry.before
                after = {
                    name: value
                    for name, value in after.items()
                    if _changed(before.get(name, _ABSENT), value)
                }
            if after is not None:
                op["after"] = encode_value(entry.table, after)
            ops.append(op)
        return ops

    def append_replicated(self, record: dict[str, Any]):
        """Re-log a commit record shipped from another node, verbatim.

        The record (including its embedded primary ``seq``) is appended
        exactly as received so a replica restart replays the same
        history a fresh copy of the primary's log would.  Returns
        ``(record, nbytes, ticket)`` like :meth:`append_commit`.
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
        # Crash site: the record exists only in memory — a fault here
        # must leave no trace of the transaction on disk.
        fault_point("wal.append")
        record = {"kind": kind, **payload}
        body = _encode_payload(record)
        crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
        line = f"{crc:08x} {body}\n"
        # json.dumps escapes every non-ASCII character, so the line's
        # length in characters is its length in bytes.
        nbytes = len(line)
        if self.durability.grouped and kind == "commit":
            # Capture the committer's trace context *here*, on its own
            # thread — the flush happens on whichever committer becomes
            # leader, where the thread-local stack is someone else's.
            ctx = (
                self._obs.tracer.context() if self._obs is not None else None
            )
            batch = self._enqueue(line, ctx)
            return record, nbytes, lambda: self._await_batch(batch)
        self._write_lines([line], fsync=self.durability.mode != "buffered")
        return record, nbytes, None

    def _write_lines(self, lines: list[str], *, fsync: bool) -> None:
        data = "".join(lines)
        # Crash site: a torn_write fault makes a *prefix* of the batch
        # durable — the partial final record is what recovery's
        # torn-tail healing must truncate away.
        action = fault_point("wal.write")
        if action is not None and action.kind == "torn_write":
            cut = min(max(int(len(data) * action.fraction), 1), len(data) - 1)
            self._file.write(data[:cut])
            self._file.flush()
            os.fsync(self._file.fileno())
            raise CrashPoint(
                f"torn WAL write: {cut}/{len(data)} bytes reached disk"
            )
        self._file.write(data)
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
        self, line: str, ctx: "TraceContext | None" = None
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
        for record, reason in self._scan():
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

    def _scan(self) -> Iterator[tuple[dict[str, Any] | None, str]]:
        """Walk the file's line-framed records.

        Yields ``(record, reason)`` where ``record`` is ``None`` for a
        bad line (``reason`` says why: ``"incomplete"`` for a line
        missing its newline, else its line number).
        """
        if not self.path.exists():
            return
        with open(self.path, "rb") as fh:
            for line_no, raw in enumerate(fh, 1):
                if not raw.endswith(b"\n"):
                    yield None, "incomplete"
                    return
                line = raw.decode("utf-8", errors="replace").rstrip("\n")
                if not line:
                    continue
                record = self._parse_line(line)
                if record is None:
                    yield None, f"line {line_no}"
                    continue
                yield record, ""

    @staticmethod
    def _parse_line(line: str) -> dict[str, Any] | None:
        if len(line) < 10 or line[8] != " ":
            return None
        crc_hex, body = line[:8], line[9:]
        try:
            expected = int(crc_hex, 16)
        except ValueError:
            return None
        if zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF != expected:
            return None
        try:
            return json.loads(body)
        except ValueError:
            return None

    def truncate_torn_tail(self) -> int:
        """Rewrite the file keeping the intact *prefix*; return kept count.

        Everything from the first torn/corrupt line onward is dropped —
        including any valid-looking records after the tear, because a
        record whose predecessor never fully landed cannot be trusted to
        belong to the committed prefix (replication can redeliver frames
        out of band; replay must stop at the tear).  Idempotent: a clean
        log round-trips unchanged.  Called after recovery (and by
        replica promotion) so the next append lands on a clean file.
        """
        kept = []
        for record, _reason in self._scan():
            if record is None:
                break
            kept.append(record)
        self.close()
        with open(self.path, "w", encoding="utf-8") as fh:
            for record in kept:
                body = _encode_payload(record)
                crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
                fh.write(f"{crc:08x} {body}\n")
            fh.flush()
            os.fsync(fh.fileno())
        self._file = open(self.path, "a", encoding="utf-8")
        return len(kept)

    def reset(self) -> None:
        """Empty the log (after a checkpoint snapshot has been fsynced)."""
        self.sync()
        self.close()
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.flush()
            os.fsync(fh.fileno())
        self._file = open(self.path, "a", encoding="utf-8")

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
