"""The database: table registry, transactions, durability, recovery.

A :class:`Database` can run purely in memory (tests, benchmarks) or
attached to a directory, in which case every commit is appended to a
write-ahead log and :meth:`checkpoint` writes full snapshots.  Opening a
database over an existing directory and calling :meth:`recover` restores
the last snapshot and replays the log — including after a simulated
crash that tore the final record.
"""

from __future__ import annotations

import json
import os
import threading
import traceback
import uuid
from collections import deque
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.errors import SchemaError, TransactionError, WalWriteError
from repro.obs import Observability, TraceContext
from repro.storage.durability import Durability
from repro.storage.query import DEFAULT_QUERY_CACHE_SIZE, Query, QueryCache
from repro.storage.schema import TableSchema
from repro.storage.snapshot import Snapshot
from repro.storage.table import Table, UndoEntry, bound_snapshot
from repro.storage.transaction import CommitEvent, CommitListener, Transaction
from repro.storage.types import ColumnType, from_jsonable, to_jsonable
from repro.storage.wal import WriteAheadLog, commit_record
from repro.util.heap import collector_paused

SNAPSHOT_NAME = "snapshot.json"
WAL_NAME = "wal.log"
HISTORY_NAME = "history.id"

#: Key reserved in the snapshot file for non-table bookkeeping (the
#: committed sequence the snapshot captured).  No table may use it.
SNAPSHOT_META_KEY = "__meta__"

#: The snapshot encoding, built once: the C encoder, producing what
#: ``json.dumps(..., separators=(",", ":"), default=str)`` does.
_encode_snapshot = json.JSONEncoder(separators=(",", ":"), default=str).encode
#: Rows encoded per write of a checkpoint.  The C encoder keeps every
#: fragment of a chunk alive (~50 bytes per key and value) until it
#: joins them, so a chunk costs ~10x its encoded size: a thousand wide
#: rows already outweigh a 5 000-row file.
_SNAPSHOT_CHUNK_ROWS = 100


def _check_header(where: str, header: Any) -> list[str]:
    """*header* if it is a list of distinct column names, else
    :class:`SchemaError` naming *where* it was read."""
    if (
        not isinstance(header, list)
        or not all(isinstance(name, str) for name in header)
        or len(set(header)) != len(header)
    ):
        raise SchemaError(
            f"{where}: column header {header!r} is not a list of "
            "distinct column names"
        )
    return header


def _keyed_row(where: str, header: list[str], values: Any) -> dict[str, Any]:
    """One row stored as values in *header*'s order, as a row dict."""
    if not isinstance(values, list) or len(values) != len(header):
        raise SchemaError(
            f"{where}: row {values!r} does not match its "
            f"{len(header)}-column header"
        )
    return dict(zip(header, values))


def _snapshot_rows(
    table: str, encoded: Any
) -> "list[dict[str, Any]] | Iterator[dict[str, Any]]":
    """One checkpointed table's rows as row dicts, for
    :meth:`Table.load_rows`.  A checkpoint holds ``{"columns": [...],
    "rows": [[...], ...]}`` per table; one written before that format
    holds the list of row dicts itself.  A row of the first form is
    keyed by the header, so a column the header lacks takes its default
    and one the schema lacks is dropped, as in a row dict."""
    if not isinstance(encoded, dict):
        return encoded or []
    where = f"snapshot table {table!r}"
    rows = encoded.get("rows")
    if not isinstance(rows, list):
        raise SchemaError(f"{where}: no column header and rows")
    header = _check_header(where, encoded.get("columns"))
    return (_keyed_row(where, header, values) for values in rows)


def _jsonable_row(
    schema: TableSchema, row: dict[str, Any]
) -> dict[str, Any]:
    """*row* with every value JSON-safe: the one encoding the WAL and
    the checkpoint share.  Only DATETIME values need transforming, so
    a table without one returns the live payload itself (never
    mutated), and one with them a copy with just those re-encoded."""
    if not schema.datetime_columns:
        return row
    encoded = dict(row)
    for name in schema.datetime_columns:
        if name in encoded:
            encoded[name] = to_jsonable(encoded[name], ColumnType.DATETIME)
    return encoded


class Database:
    """An embedded multi-table transactional store."""

    def __init__(
        self,
        path: "str | Path | None" = None,
        *,
        durable: bool = True,
        durability: "Durability | str | None" = None,
        query_cache_size: int = DEFAULT_QUERY_CACHE_SIZE,
        obs: Observability | None = None,
    ):
        """Create a database.

        :param path: directory for WAL + snapshots; ``None`` keeps
            everything in memory.
        :param durable: with a *path*, whether commits append to the WAL.
            Turning this off (while keeping snapshots available) exists
            for the A4 ablation benchmark.
        :param durability: WAL durability policy — ``"always"``
            (default), ``"group"``/``"group:<window_ms>:<max_batch>"``
            for group commit, or ``"buffered"`` for re-runnable bulk
            loads.  See :class:`~repro.storage.durability.Durability`.
        :param query_cache_size: bound on the query-result cache
            (entries); ``0`` disables result caching.
        :param obs: observability hub shared with the rest of the
            deployment; a private one is created when omitted.
        """
        self.obs = obs if obs is not None else Observability()
        # Hot-path instruments are resolved to their child once, so each
        # commit records without a family lookup.
        metrics = self.obs.metrics
        self._m_commit_seconds = metrics.histogram(
            "storage_commit_seconds",
            "Transaction latency, begin to durable commit",
        ).labels()
        self._m_commits = metrics.counter(
            "storage_commits_total", "Committed transactions"
        ).labels()
        self._m_ops = metrics.counter(
            "storage_ops_total",
            "Committed row operations",
            labels=("table", "op"),
        )
        self._m_ops_children: dict[tuple[str, str], Any] = {}
        self._m_wal_append = metrics.histogram(
            "storage_wal_append_seconds",
            "WAL append (serialize + write + fsync) per commit",
        ).labels()
        self._m_checkpoint = metrics.histogram(
            "storage_checkpoint_seconds",
            "Snapshot + WAL reset duration",
        ).labels()
        self._m_recover = metrics.histogram(
            "storage_recover_seconds",
            "Snapshot load + WAL replay duration",
        ).labels()
        self._m_listener_errors = metrics.counter(
            "storage_commit_listener_errors_total",
            "Exceptions raised by commit-feed listeners (never fail a commit)",
        ).labels()
        # MVCC bookkeeping gauges: snapshot opens/closes keep the first
        # two current (O(1) updates); the retained-version count is only
        # refreshed where chains are already being walked (statistics,
        # explicit prunes) because counting nodes is O(rows).
        self._g_open_snapshots = metrics.gauge(
            "storage_open_snapshots",
            "Currently open MVCC snapshots",
        ).labels()
        self._g_version_horizon = metrics.gauge(
            "storage_version_horizon",
            "Oldest commit sequence a live snapshot may still read",
        ).labels()
        self._g_retained_versions = metrics.gauge(
            "storage_retained_versions",
            "Row-version nodes retained across all version chains",
        ).labels()
        self._tables: dict[str, Table] = {}
        # referenced table -> list of (referencing table, column, on_delete)
        self._referencing: dict[str, list[tuple[str, str, str]]] = {}
        self._lock = threading.RLock()
        self._txn_counter = 0
        # Writers that have declared intent (called transaction(), maybe
        # still blocked on the writer lock) and not yet handed their
        # record to the WAL.  Group-commit leaders poll this to decide
        # whether lingering in the batch window can pay off: counting
        # lock-waiters (not just the lock holder) means the leader keeps
        # the window open across the handoff between two transactions.
        # The counter is touched outside the writer lock, so it gets its
        # own tiny mutex (``+=`` on an attribute is not atomic).
        self._intent_lock = threading.Lock()
        self._write_intents = 0
        # ``txn``: the calling thread's open root transaction, if any.
        self._bound = threading.local()
        # MVCC state.  ``_committed_seq`` is the database-wide commit
        # sequence number: every commit stamps its new row versions with
        # the next number *before* publishing it here, so a lock-free
        # snapshot open that reads ``s`` can resolve every version at or
        # below ``s``.  The registry maps open snapshot ids to their
        # pinned sequence numbers; its minimum is the pruning horizon.
        # ``_snapshot_lock`` covers the registry and the horizon
        # computation so snapshot registration cannot race a prune.
        self._committed_seq = 0
        self._snapshot_lock = threading.Lock()
        self._snapshots: dict[int, int] = {}
        self._snapshot_counter = 0
        # The commit feed (see on_commit).  Entries are appended under
        # the writer lock, so the deque is in seq order; each committer
        # delivers its own entry once it reaches the head.
        self._commit_listeners: list[CommitListener] = []
        self._feed_cv = threading.Condition()
        self._feed_pending: deque[CommitEvent] = deque()
        self._history_id: str | None = None
        self._path = Path(path) if path is not None else None
        self._durable = durable and self._path is not None
        self.durability = Durability.parse(durability)
        self.query_cache = QueryCache(query_cache_size, obs=self.obs)
        self._wal: WriteAheadLog | None = None
        if self._durable:
            assert self._path is not None
            self._path.mkdir(parents=True, exist_ok=True)
            self._wal = WriteAheadLog(
                self._path / WAL_NAME,
                obs=self.obs,
                durability=self.durability,
                pending_writers=lambda: self._write_intents,
            )

    # -- schema -----------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        """Register *schema* and return the live table."""
        with self._lock:
            if schema.name in self._tables:
                raise SchemaError(f"table {schema.name!r} already exists")
            for _, fk in schema.foreign_keys():
                if fk.table != schema.name and fk.table not in self._tables:
                    raise SchemaError(
                        f"table {schema.name!r}: foreign key references "
                        f"unknown table {fk.table!r} (create it first)"
                    )
            table = Table(schema, self)
            self._tables[schema.name] = table
            for col, fk in schema.foreign_keys():
                self._referencing.setdefault(fk.table, []).append(
                    (schema.name, col.name, fk.on_delete)
                )
            return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(f"no table named {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> list[str]:
        return list(self._tables)

    def referencing(self, table: str) -> list[tuple[str, str, str]]:
        """``(referencing_table, column, on_delete)`` for FKs targeting *table*."""
        return list(self._referencing.get(table, ()))

    def table_dirty(self, name: str) -> bool:
        """Whether *name* has uncommitted (in-transaction) changes.

        The ORM session uses this to decide between a pinned snapshot
        read and a live read-your-writes read.
        """
        return self.table(name).dirty

    def add_column(self, table: str, column) -> None:
        """Schema evolution: add a column to a live table.

        FK-bearing columns update the referential map so delete actions
        apply immediately.
        """
        with self._lock:
            target = self.table(table)
            target.add_column(column)
            if column.foreign_key is not None:
                from repro.storage.schema import ForeignKey

                fk = ForeignKey.parse(column.foreign_key)
                if fk.table != table and fk.table not in self._tables:
                    raise SchemaError(
                        f"column {column.name!r} references unknown table "
                        f"{fk.table!r}"
                    )
                self._referencing.setdefault(fk.table, []).append(
                    (table, column.name, fk.on_delete)
                )

    def add_index(
        self,
        table: str,
        columns: "tuple[str, ...] | str",
        *,
        ordered: bool = False,
    ) -> None:
        """Schema evolution: index existing data.

        ``ordered=True`` builds a composite **ordered** index instead of
        a hash index — range-capable, prefix-seekable, and usable for
        covering reads by the cost-based planner.
        """
        if isinstance(columns, str):
            columns = (columns,)
        with self._lock:
            self.table(table).add_index(tuple(columns), ordered=ordered)

    # -- transactions --------------------------------------------------------------

    def transaction(self, *, defer_lock: bool = False) -> Transaction:
        """Begin a transaction bound to the calling thread; the
        single-writer lock is held until it ends.

        With *defer_lock* the lock is taken only at the transaction's
        first write (or first nested block), so what the thread does
        before that — reads, a provider fetch, an application run —
        keeps no other writer waiting; a transaction that never writes
        never takes it.

        While it is open, a further call on the same thread (an
        autocommit :meth:`insert`, an ORM session, a service's own
        block) returns a nested block of it instead: a savepoint whose
        writes commit with the outer transaction, or roll back alone
        when an exception escapes the block.  Opening one takes the
        writer lock, so a block that goes on to take another lock (the
        job queue's) always takes the writer lock first.
        """
        root = getattr(self._bound, "txn", None)
        if root is not None:
            if not root.holds_writer:
                self._take_writer(root)
            return Transaction(self, outer=root)
        txn = Transaction(self)
        self._bound.txn = txn
        if not defer_lock:
            self._take_writer(txn)
        return txn

    def _take_writer(self, txn: Transaction) -> None:
        """Take the writer lock for the root transaction *txn*."""
        with self._intent_lock:
            self._write_intents += 1
        self._lock.acquire()
        self._txn_counter += 1
        txn.txn_id = self._txn_counter
        txn.timer = self.obs.timer()
        txn.holds_writer = True

    def _release_writer(self, txn: Transaction) -> None:
        """Unbind the root transaction *txn* from this thread and
        release the writer lock if it holds it."""
        self._bound.txn = None
        if txn.holds_writer:
            txn.holds_writer = False
            with self._intent_lock:
                self._write_intents -= 1
            self._lock.release()

    def in_transaction(self) -> bool:
        """Whether the calling thread has a transaction open."""
        return getattr(self._bound, "txn", None) is not None

    def _refuse_in_transaction(self, action: str) -> None:
        """Raise if the calling thread has a transaction open: *action*
        would treat that transaction's uncommitted rows as committed
        state."""
        if self.in_transaction():
            raise TransactionError(f"{action} inside an open transaction")

    def _finish_commit(self, txn: Transaction) -> None:
        """Called by Transaction.commit while the lock is still held.

        Appends (or, under group durability, enqueues) the WAL record and
        publishes the new table versions, then releases the writer lock.
        A group-commit ticket is awaited *after* the release, so other
        transactions apply their changes while this one's batch fsyncs.

        On a WAL append failure the lock is kept and
        :class:`~repro.errors.WalWriteError` is raised so the caller can
        undo the in-memory changes before releasing.

        Commits running inside a live trace (a portal request, a traced
        client) get a ``storage.commit`` span — linked, under group
        durability, to the leader's ``wal.group_fsync`` span — whose
        context rides on the commit-feed entry, so the replication
        publisher can stamp it into the commit frame.  Standalone
        commits skip span bookkeeping entirely (the histograms already
        measure them, and span setup inside the writer lock would tax
        every untraced bench commit); the slow log still sees them
        through a direct duration check.
        """
        if not txn.holds_writer:
            self._release_writer(txn)  # it never wrote: nothing to commit
            return
        operations = txn.operations
        tracer = self.obs.tracer
        if operations and tracer.current() is not None:
            with tracer.span(
                "storage.commit", txn=txn.txn_id, ops=len(operations)
            ) as span:
                self._commit_locked(txn, operations, span)
        else:
            self._commit_locked(txn, operations, None)

    def _commit_locked(
        self, txn: Transaction, operations: "list[UndoEntry]", span
    ) -> None:
        nbytes, ticket, derive = 0, None, None
        # The commit sequence number is reserved before the WAL append so
        # the record itself can carry it — replication identifies commits
        # by this number, and the sequence space has gaps (out-of-band
        # schema publishes) that a record count cannot reproduce.
        seq = self._committed_seq + 1 if operations else None
        if self._wal is not None and operations:
            # Under group durability the per-commit append is only an
            # enqueue — the write+fsync happens in the leader's batch and
            # is covered by the fsync/batch histograms — so the append
            # timer is only meaningful (and only recorded) when the
            # record is written synchronously.
            wal_timer = None if self.durability.grouped else self.obs.timer()
            try:
                nbytes, ticket = self._wal.append_commit(
                    operations,
                    self._encode_row_for_wal,
                    seq=seq,
                )
            except Exception as exc:
                raise WalWriteError(
                    f"transaction #{txn.txn_id}: WAL append failed"
                ) from exc
            if wal_timer is not None:
                self._m_wal_append.observe(wal_timer.elapsed())
            derive = partial(
                commit_record,
                operations,
                self._encode_row_for_wal,
                seq,
            )
        if seq is not None:
            # Stamp-then-publish: touched tables stamp their uncommitted
            # versions with the new sequence number first, and only then
            # does the number become visible to snapshot opens.
            touched = [
                self._tables[name] for name in {op.table for op in operations}
            ]
            for table in touched:
                table.commit_version(seq)
            self._committed_seq = seq
            self._prune_committed(touched)
        entry = None
        if seq is not None:
            trace = span.context() if span is not None else None
            entry = self._feed_enqueue(
                seq, operations, nbytes, trace, derive=derive
            )
        self._release_writer(txn)
        try:
            if ticket is not None:
                # Block until the group leader's fsync covers our record.
                # The in-memory state is already committed; a failure here
                # is a durability failure, not a consistency one.
                leader_ctx = ticket()
                if span is not None and leader_ctx is not None:
                    # The fsync ran on the group leader's thread; link it
                    # so the trace shows which flush made this commit
                    # durable.
                    span.set(
                        fsync_trace_id=leader_ctx.trace_id,
                        fsync_span_id=leader_ctx.span_id,
                    )
        finally:
            # After the ticket, so no listener (a replication
            # publisher) ships a commit before its WAL write.
            self._feed_deliver(entry)
        if not operations:
            return  # nothing was written: nothing committed
        self._m_commits.inc()
        for op in operations:
            key = (op.table, op.op)
            child = self._m_ops_children.get(key)
            if child is None:
                child = self._m_ops.labels(table=op.table, op=op.op)
                self._m_ops_children[key] = child
            child.inc()
        elapsed = txn.timer.elapsed() if txn.timer is not None else 0.0
        self._m_commit_seconds.observe(elapsed)
        if span is None and elapsed >= self.obs.slowlog.threshold_for(
            "storage.commit"
        ):
            # Untraced commits have no span for the sink to promote, so
            # the slow log is fed directly.
            self.obs.slowlog.record(
                "storage.commit",
                elapsed,
                {"txn": txn.txn_id, "ops": len(operations)},
            )
        self.obs.log.log(
            "storage.commit",
            txn=txn.txn_id,
            operations=len(operations),
            duration=elapsed,
        )

    def _finish_abort(self, txn: Transaction) -> None:
        self._release_writer(txn)

    def on_commit(self, listener: CommitListener) -> int:
        """Subscribe *listener* to the commit feed: ``listener(event)``.

        The feed is the one source every derived structure (the
        full-text index, the replication publisher) is kept from.  It
        fires for each local commit that changed rows and for each
        replicated apply with a :class:`CommitEvent`: the seq, the
        commit's :class:`UndoEntry` list (full before/after images), the
        record its WAL line encodes (derived on first read) with that
        line's length in bytes, and the trace context it ran under.
        ``event.ops is None`` means the state was replaced wholesale —
        by :meth:`recover` or a replica bootstrap — and derived state
        must be re-derived from the rows.

        Listeners run synchronously in the committing thread, after the
        commit's durability ticket and before ``commit()`` returns, one
        commit at a time and in strictly increasing seq order (a
        ``None`` delivery may restart the sequence).  What a listener
        raises is logged and counted, never raised to the committer.
        A listener must not commit.

        Returns the committed seq at subscription, taken under the
        writer lock: every later commit is delivered, and any earlier
        one still in flight is delivered with a seq at or below it.
        """
        with self._lock:
            self._commit_listeners.append(listener)
            return self._committed_seq

    def _feed_enqueue(
        self,
        seq: int,
        ops: "list[UndoEntry] | None",
        nbytes: int = 0,
        trace: "TraceContext | None" = None,
        *,
        record: "dict[str, Any] | None" = None,
        derive=None,
    ) -> "CommitEvent | None":
        """Reserve *seq*'s place in the feed (writer lock held).  An
        append never moves the head waiters watch: no condition lock."""
        if not self._commit_listeners:
            return None
        event = CommitEvent(
            seq, ops, nbytes, trace, record=record, derive=derive
        )
        self._feed_pending.append(event)
        return event

    def _feed_deliver(self, event: "CommitEvent | None") -> None:
        """Run the listeners for *event* once every earlier one has run."""
        if event is None:
            return
        cv = self._feed_cv
        with cv:
            while self._feed_pending[0] is not event:
                cv.wait()
        try:
            for listener in self._commit_listeners:
                try:
                    listener(event)
                except Exception as exc:
                    self._m_listener_errors.inc()
                    self.obs.log.log(
                        "storage.commit_listener_error",
                        seq=event.seq,
                        error=f"{type(exc).__name__}: {exc}",
                        traceback=traceback.format_exc(),
                    )
        finally:
            with cv:
                self._feed_pending.popleft()
                cv.notify_all()

    # -- autocommit conveniences ------------------------------------------------------

    def insert(self, table: str, values: dict[str, Any]) -> dict[str, Any]:
        """Insert in a single-statement transaction."""
        with self.transaction() as txn:
            return txn.insert(table, values)

    def update(self, table: str, pk: Any, changes: dict[str, Any]) -> dict[str, Any]:
        """Update in a single-statement transaction."""
        with self.transaction() as txn:
            return txn.update(table, pk, changes)

    def delete(self, table: str, pk: Any) -> dict[str, Any]:
        """Delete in a single-statement transaction."""
        with self.transaction() as txn:
            return txn.delete(table, pk)

    # Reads resolve through the snapshot of this thread's read view (a
    # portal GET's) — on that snapshot's own database, so a replica-routed
    # GET reads the chains its snapshot pins — else the latest state.

    def get(self, table: str, pk: Any) -> dict[str, Any]:
        view = bound_snapshot()
        return self.table(table).get(pk) if view is None else view.get(table, pk)

    def get_or_none(self, table: str, pk: Any) -> dict[str, Any] | None:
        view = bound_snapshot()
        if view is None:
            return self.table(table).get_or_none(pk)
        return view.get_or_none(table, pk)

    def query(self, table: str, *, snapshot: "Snapshot | None" = None) -> Query:
        """Start a fluent query over *table*, pinned to *snapshot* (or
        the read view's) when there is one."""
        snapshot = snapshot or bound_snapshot()
        return Query(self.table(table)) if snapshot is None else snapshot.query(table)

    def count(self, table: str) -> int:
        view = bound_snapshot()
        return len(self.table(table)) if view is None else view.count(table)

    # -- version vectors (HTTP caching) ------------------------------------------------

    @property
    def committed_seq(self) -> int:
        """The last published commit sequence number.

        The token a client's session carries for read-your-writes across
        replicas: a replica that has applied at least this sequence can
        serve the client's own writes back.
        """
        return self._committed_seq

    def version_vector(
        self, names: "Iterable[str] | None" = None
    ) -> dict[str, int]:
        """Per-table committed versions — ``{table: last commit seq}``.

        The cheap state the MVCC machinery already maintains for query
        caching, exposed so the serving tier can derive strong ``ETag``s
        from it: two reads of the same tables with equal vectors are
        guaranteed byte-identical renders (versions only move when a
        transaction commits).  With *names* the vector is restricted to
        those tables (unknown names are skipped); ``None`` returns every
        table.  Lock-free: one attribute read per table.
        """
        tables = self._tables
        if names is None:
            return {name: table.version for name, table in tables.items()}
        vector: dict[str, int] = {}
        for name in names:
            table = tables.get(name)
            if table is not None:
                vector[name] = table.version
        return vector

    # -- snapshots (MVCC read views) ---------------------------------------------------

    def snapshot(self) -> Snapshot:
        """Open an immutable, lock-free read view at the current commit.

        The returned :class:`~repro.storage.snapshot.Snapshot` serves
        repeatable reads without ever acquiring the writer lock; commits
        that happen after the open stay invisible to it.  Open snapshots
        pin their row versions in memory — close them promptly (they are
        context managers) so pruning can reclaim superseded versions.
        """
        with self._snapshot_lock:
            sid = self._snapshot_counter
            self._snapshot_counter += 1
            seq = self._committed_seq
            self._snapshots[sid] = seq
            self._g_open_snapshots.set(len(self._snapshots))
            self._g_version_horizon.set(min(self._snapshots.values()))
        return Snapshot(self, sid, seq)

    def _release_snapshot(self, sid: int) -> None:
        with self._snapshot_lock:
            self._snapshots.pop(sid, None)
            self._g_open_snapshots.set(len(self._snapshots))
            self._g_version_horizon.set(
                min(self._snapshots.values())
                if self._snapshots
                else self._committed_seq
            )
        # Closing the oldest snapshot may unlock a swath of prunable
        # versions; sweep opportunistically if the writer lock is free
        # (never block a reader-side close behind a writer).
        if self._lock.acquire(blocking=False):
            try:
                horizon = self.version_horizon()
                for table in self._tables.values():
                    table.prune_versions(horizon)
            finally:
                self._lock.release()

    def _prune_committed(self, tables: "list[Table]") -> None:
        """Write-path prune after a commit: a touched table whose prune
        queue has outgrown its live rows pops what the horizon allows,
        so a process that never closes a snapshot (a standby replica, a
        bulk load) keeps its queues O(rows).  Each queued entry pops
        once, so this is O(1) amortised per written version.  Writer
        lock held."""
        due = [table for table in tables if table.prune_overdue]
        if due:
            horizon = self.version_horizon()
            for table in due:
                table.prune_versions(horizon)

    def version_horizon(self) -> int:
        """Oldest commit sequence any live snapshot may still read.

        Version chains are never cut at or above this number.  With no
        open snapshots it is the current committed sequence — only the
        latest version of each row needs to stay.
        """
        with self._snapshot_lock:
            if self._snapshots:
                return min(self._snapshots.values())
            return self._committed_seq

    def open_snapshots(self) -> int:
        with self._snapshot_lock:
            return len(self._snapshots)

    def prune_versions(self) -> dict[str, int]:
        """Blocking sweep of every table's version chains.

        Takes the writer lock; returns reclaimed node counts per table.
        The write path and snapshot closes already prune lazily — this
        exists for admin tooling and tests.
        """
        with self._lock:
            horizon = self.version_horizon()
            reclaimed = {
                name: table.prune_versions(horizon)
                for name, table in self._tables.items()
            }
            self._g_retained_versions.set(
                sum(
                    tbl.version_statistics()["nodes"]
                    for tbl in self._tables.values()
                )
            )
            return reclaimed

    def _reserve_commit_seq(self) -> int:
        """Next commit sequence number, not yet published (writer lock held)."""
        return self._committed_seq + 1

    def _publish_commit_seq(self, seq: int) -> None:
        """Make *seq* visible to snapshot opens (after stamping)."""
        self._committed_seq = seq

    # -- WAL encoding ------------------------------------------------------------------

    def _encode_row_for_wal(
        self, table: str, row: dict[str, Any] | None
    ) -> dict[str, Any] | None:
        if row is None:
            return None
        return _jsonable_row(self.table(table).schema, row)

    def _decode_row_from_wal(
        self, table: str, row: dict[str, Any] | None
    ) -> dict[str, Any] | None:
        if row is None:
            return None
        schema = self.table(table).schema
        return {
            name: from_jsonable(value, schema.column(name).type)
            for name, value in row.items()
            if schema.has_column(name)
        }

    # -- snapshots & recovery -----------------------------------------------------------

    def checkpoint(self) -> Path:
        """Write a full snapshot and reset the WAL.  Returns snapshot path.

        Refused on a thread with an open transaction: the snapshot would
        hold its uncommitted rows, which a rollback cannot take back."""
        if self._path is None:
            raise SchemaError("checkpoint requires a database directory")
        self._refuse_in_transaction("checkpoint")
        timer = self.obs.timer()
        with self._lock:
            # The commit sequence rides along in the snapshot *and* the
            # post-reset WAL marker: resetting the log discards every
            # seq-carrying commit record, and a counter that regressed
            # across a restart would re-issue numbers replication has
            # already shipped (a reconnecting replica could then pass
            # the chain-point check and silently diverge).  Two copies
            # cover a crash between the snapshot rename and the marker
            # append.
            seq = self._committed_seq
            # Planner statistics ride in the meta block: recovery could
            # rebuild them by re-sampling the replayed rows, but the
            # reservoirs would then depend on replay order — persisting
            # the sampler state keeps NDV estimates (and therefore plan
            # choices) identical across a restart.
            meta = {
                "seq": seq,
                "stats": {
                    name: table.stats_state()
                    for name, table in self._tables.items()
                },
            }
            target = self._path / SNAPSHOT_NAME
            tmp = target.with_suffix(".json.tmp")
            with open(tmp, "w", encoding="utf-8") as fh:
                self._write_snapshot(fh, meta)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, target)
            if self._wal is not None:
                self._wal.reset()
                self._wal.append_checkpoint_marker(SNAPSHOT_NAME, seq=seq)
            elapsed = timer.elapsed()
            self._m_checkpoint.observe(elapsed)
            self.obs.log.log(
                "storage.checkpoint", path=str(target), duration=elapsed
            )
            return target

    def _write_snapshot(self, fh: Any, meta: dict[str, Any]) -> None:
        """Write the snapshot document ``{meta key: meta, table:
        {"columns": [...], "rows": [[...], ...]}, ...}`` to *fh*, byte
        for byte what ``json.dumps(document, separators=(",", ":"),
        default=str)`` returns, without ever holding it whole.  Each
        table names its columns once, in schema order, and each row is
        the list of its values in that order.  Rows are encoded and
        written :data:`_SNAPSHOT_CHUNK_ROWS` at a time, through the
        WAL's :func:`_jsonable_row` (the live payloads, copied only for
        a table with DATETIME columns; the writer lock is held)."""
        encode = _encode_snapshot
        fh.write("{" + encode(SNAPSHOT_META_KEY) + ":" + encode(meta))
        for name, table in self._tables.items():
            columns = table.schema.column_names
            fh.write("," + encode(name) + ':{"columns":' + encode(columns))
            fh.write(',"rows":[')
            rows = map(
                partial(_jsonable_row, table.schema), table.raw_payloads()
            )
            separator = ""
            for batch in iter(lambda: list(islice(rows, _SNAPSHOT_CHUNK_ROWS)), []):
                values = [[row[c] for c in columns] for row in batch]
                fh.write(separator + encode(values)[1:-1])
                separator = ","
            fh.write("]}")
        fh.write("}")

    def recover(self) -> dict[str, int]:
        """Load the latest snapshot, replay the WAL, heal a torn tail.

        Must be called after every table has been declared (schemas live
        in code).  Returns ``{"snapshot_rows": n, "wal_txns": m}``.

        Only commit records replay.  Logs written while the engine still
        had a two-phase commit may also hold ``prepare``, ``abort`` and
        ``decision`` records; a prepare is presumed aborted, so its
        operations never reach the tables.
        """
        if self._path is None:
            raise SchemaError("recover requires a database directory")
        self._refuse_in_transaction("recovery")
        stats = {"snapshot_rows": 0, "wal_txns": 0}
        timer = self.obs.timer()
        checkpoint_seq = 0
        with self._lock:
            snapshot_path = self._path / SNAPSHOT_NAME
            if snapshot_path.exists():
                # Everything the load allocates lives on (parsed rows
                # until their table is loaded), so a collection during it
                # would walk the growing heap and free nothing.
                with collector_paused():
                    stats["snapshot_rows"], checkpoint_seq = (
                        self._load_snapshot(snapshot_path)
                    )
            replayed_seq = 0
            if self._wal is not None:
                for record in self._wal.records():
                    kind = record.get("kind")
                    record_seq = record.get("seq")
                    if kind == "checkpoint":
                        # The marker re-states the snapshot's seq so the
                        # counter survives even if the snapshot file
                        # predates the meta block.
                        if isinstance(record_seq, int):
                            checkpoint_seq = max(checkpoint_seq, record_seq)
                        continue
                    if kind != "commit":
                        continue
                    self._replay_commit(record)
                    if isinstance(record_seq, int):
                        replayed_seq = max(replayed_seq, record_seq)
                    stats["wal_txns"] += 1
                self._wal.truncate_torn_tail()
            # Replay applied rows outside any transaction; settle them
            # into one committed version per table (a single fresh
            # commit sequence number) so the query cache starts from a
            # clean, non-dirty state and every row carries exactly one
            # current version.
            seq = self._committed_seq + 1
            settled = False
            for table in self._tables.values():
                if table.dirty:
                    table.commit_version(seq)
                    settled = True
            if settled:
                self._committed_seq = seq
            # Commit records carry their sequence number since PR 5, and
            # checkpoints persist it in the snapshot meta + WAL marker.
            # Restoring the highest of the three keeps the counter
            # monotonic across every restart — including a restart right
            # after a checkpoint, where no commit record remains in the
            # log — so the primary never re-issues a sequence number and
            # a restarted replica reports a truthful resume position.
            self._committed_seq = max(
                self._committed_seq, replayed_seq, checkpoint_seq
            )
            # No snapshot can be open during recovery, so the replayed
            # history (one version per replayed op, tombstones for
            # replayed deletes) is pure garbage: cut every chain down to
            # its current version.
            for table in self._tables.values():
                table.prune_versions(self._committed_seq)
            entry = self._feed_enqueue(self._committed_seq, None)
        self._feed_deliver(entry)
        elapsed = timer.elapsed()
        self._m_recover.observe(elapsed)
        self.obs.log.log("storage.recover", duration=elapsed, **stats)
        return stats

    def _load_snapshot(self, path: Path) -> tuple[int, int]:
        """Load a checkpoint file into the tables; returns ``(rows,
        checkpoint_seq)`` (``0`` when the file predates the meta block)."""
        with open(path, "r", encoding="utf-8") as fh:
            snapshot = json.load(fh)
        meta = snapshot.pop(SNAPSHOT_META_KEY, None)
        if not isinstance(meta, dict):
            meta = {}
        seq = meta["seq"] if isinstance(meta.get("seq"), int) else 0
        unknown = [name for name in snapshot if name not in self._tables]
        if unknown:
            raise SchemaError(
                f"snapshot contains unknown table(s) {unknown!r}; "
                "declare schemas before recover()"
            )
        # The checkpoint-time sampler state replaces each table's
        # reservoirs; WAL replay then feeds its increments on top — the
        # same stream the pre-crash process saw.
        saved = meta.get("stats")
        if not isinstance(saved, dict):
            saved = {}
        rows = 0
        # Creation order is FK-topological; each table's encoded rows
        # are dropped as soon as it is loaded.
        for name, table in self._tables.items():
            state = saved.get(name)
            rows += table.load_rows(
                _snapshot_rows(name, snapshot.pop(name, None)),
                stats=state if isinstance(state, dict) else None,
            )
        return rows, seq

    def _replay_commit(self, record: dict[str, Any]) -> list[UndoEntry]:
        """Apply one commit record's ops to the tables, in op order.

        Records are redo-only: a delete carries no ``after``.  An
        insert is ``[table, values]``, the values under the table's
        header in the record's ``columns``; an update is ``[table, pk,
        changes]``.  Logs written before those forms hold an op as a
        dict, with an insert's row or an update's changed columns as
        ``after`` (older ones also an update's full row, beside a
        ``before`` image nothing reads).  Every form replays here, for
        recovery and for replicated applies alike."""
        columns = record.get("columns", {})
        if not isinstance(columns, dict):
            raise SchemaError(
                f"commit record: columns {columns!r} is not a map of "
                "table headers"
            )
        headers = {
            name: _check_header(f"commit record, table {name!r}", header)
            for name, header in columns.items()
        }
        applied: list[UndoEntry] = []
        for op in record["ops"]:
            pk = None
            if isinstance(op, list) and len(op) == 3:
                name, pk, row = op
                kind = "update"
                if not isinstance(name, str) or not isinstance(row, dict):
                    raise SchemaError(
                        f"commit record: update {op!r} is not "
                        "[table, pk, changes]"
                    )
            elif isinstance(op, list):
                if len(op) != 2 or not isinstance(op[0], str):
                    raise SchemaError(
                        f"commit record: insert {op!r} is not [table, values]"
                    )
                name, values = op
                kind = "insert"
                where = f"commit record, table {name!r}"
                if name not in headers:
                    raise SchemaError(f"{where}: insert with no column header")
                row = _keyed_row(where, headers[name], values)
            else:
                name, kind, row = op["table"], op["op"], op.get("after")
                if kind != "insert":
                    pk = op["pk"]
            table = self.table(name)
            if kind == "delete":
                applied.append(table.apply_delete(pk)[1])
            elif kind == "insert":
                row = self._decode_row_from_wal(name, row)
                applied.append(table.apply_insert(row)[1])
            elif kind == "update":
                row = self._decode_row_from_wal(name, row)
                applied.append(table.apply_update(pk, row)[1])
        return applied

    # -- replication apply path ----------------------------------------------------------

    @property
    def wal(self) -> WriteAheadLog | None:
        """The write-ahead log (``None`` for in-memory databases)."""
        return self._wal

    @property
    def history_id(self) -> str:
        """Stable identifier of the commit history this database extends.

        Two databases share a history id only when one's commits are a
        prefix of the other's — a replica adopts its primary's id on
        bootstrap, and promotion mints a fresh one.  The replication
        handshake refuses incremental resume across different ids, so a
        replica can never silently graft onto a sequence space whose
        numbers mean something else (e.g. after the counter of an
        unrelated primary happens to cross its applied position).
        Durable databases persist the id next to the WAL.
        """
        with self._lock:
            if self._history_id is None:
                self._history_id = self._load_or_create_history()
            return self._history_id

    def _load_or_create_history(self) -> str:
        if self._path is not None:
            stored = self._path / HISTORY_NAME
            if stored.exists():
                text = stored.read_text(encoding="utf-8").strip()
                if text:
                    return text
        fresh = uuid.uuid4().hex
        self._persist_history(fresh)
        return fresh

    def _persist_history(self, history: str) -> None:
        if self._path is None:
            return
        self._path.mkdir(parents=True, exist_ok=True)
        tmp = self._path / (HISTORY_NAME + ".tmp")
        tmp.write_text(history, encoding="utf-8")
        os.replace(tmp, self._path / HISTORY_NAME)

    def adopt_history(self, history: str) -> None:
        """Take on *history* as this database's lineage (and persist it)."""
        with self._lock:
            self._history_id = history
            self._persist_history(history)

    def new_history(self) -> str:
        """Mint and adopt a fresh history id (called on promotion)."""
        fresh = uuid.uuid4().hex
        self.adopt_history(fresh)
        return fresh

    def export_snapshot(self) -> tuple[int, dict[str, list[dict[str, Any]]]]:
        """One consistent, JSON-safe copy of every table for bootstrap.

        Served from an MVCC snapshot, so concurrent commits neither
        block nor tear the export.  Table order in the map carries no
        meaning (the wire codec sorts keys anyway);
        :meth:`load_replicated_snapshot` re-orders by its own schema.
        """
        with self.snapshot() as snap:
            tables = {
                name: [
                    self._encode_row_for_wal(name, row)
                    for row in snap.scan(name)
                ]
                for name in self.table_names()
            }
            return snap.seq, tables

    def version_vector_at(
        self, seq: int, names: "Iterable[str] | None" = None
    ) -> dict[str, int]:
        """The per-table version vector as of commit sequence *seq*
        (same *names* contract as :meth:`version_vector`).

        For a table whose live version is at or below *seq* the answer
        is exact (no later commit touched it).  A table that moved past
        *seq* since is conservatively reported at *seq* itself.  Two
        different states of a table then never share its entry, though
        two reads of one state may differ: a validator minted from it
        can miss spuriously, never match falsely.  A replica
        bootstrapping from this vector differs from the primary only
        until that table's next shipped commit restamps it.
        """
        return {
            name: version if version <= seq else seq
            for name, version in self.version_vector(names).items()
        }

    def apply_replicated_commit(
        self,
        record: dict[str, Any],
        *,
        seq: int,
        trace: "TraceContext | None" = None,
    ) -> bool:
        """Apply one shipped commit record at primary sequence *seq*.

        This is the replica-side twin of :meth:`_finish_commit`: it takes
        the writer lock, replays the record's operations through the
        recovery path, appends the record (sequence number included) to
        this database's own WAL so a replica restart can replay it, then
        stamps and publishes *seq* — keeping the replica in the
        *primary's* sequence space so snapshot tokens transfer across
        the wire.

        *trace* is the originating trace context carried by the commit
        frame; the feed entry carries it, along with *record* verbatim,
        so a publisher on this database ships both onward (cascading
        topologies stay traced).

        Returns ``False`` without touching anything when ``seq`` is not
        ahead of the published sequence (a redelivered frame); the
        caller treats that as a clean duplicate, not an error.
        """
        self._refuse_in_transaction("a replicated apply")
        with self._intent_lock:
            self._write_intents += 1
        self._lock.acquire()
        nbytes, ticket = 0, None
        entry = None
        try:
            if seq <= self._committed_seq:
                return False
            applied = self._replay_commit(record)
            if self._wal is not None:
                try:
                    nbytes, ticket = self._wal.append_replicated(record)
                except Exception as exc:
                    raise WalWriteError(
                        f"replicated commit seq={seq}: WAL append failed"
                    ) from exc
            touched = [
                table for table in self._tables.values() if table.dirty
            ]
            for table in touched:
                table.commit_version(seq)
            self._committed_seq = seq
            self._prune_committed(touched)
            entry = self._feed_enqueue(
                seq, applied, nbytes, trace, record=record
            )
        finally:
            with self._intent_lock:
                self._write_intents -= 1
            self._lock.release()
        try:
            if ticket is not None:
                ticket()
        finally:
            self._feed_deliver(entry)
        return True

    def load_replicated_snapshot(
        self,
        tables: dict[str, list[dict[str, Any]]],
        *,
        seq: int,
        history: "str | None" = None,
        versions: "dict[str, int] | None" = None,
    ) -> None:
        """Replace the whole database with a bootstrap snapshot at *seq*.

        Used when a joining replica is too far behind for incremental
        tailing.  Existing rows are deleted in reverse creation order
        and the snapshot's rows loaded (:meth:`Table.load_rows`, the
        loader recovery uses) in creation order, so foreign keys hold at
        every step; open local snapshots keep reading their
        pinned versions (the wipe writes tombstones, it does not cut
        chains below the horizon).  The published sequence is set to
        *exactly* ``seq`` — not ``max(...)`` — because the replica must
        mirror the primary's sequence space or later frames would be
        misjudged as duplicates.  *history*, when given, is the
        primary's history id: the bootstrap makes this database a copy
        of that history, so it is adopted (and persisted) here, which is
        what later entitles the replica to an incremental resume.

        *versions*, when given, is the primary's per-table version
        vector at *seq*: each table is stamped with the primary's own
        last-commit sequence for it instead of uniformly with *seq*, so
        ``ETag``s derived from :meth:`version_vector` agree across the
        whole replica fleet from the first request after bootstrap.
        """
        self._refuse_in_transaction("a replica bootstrap")
        with self._intent_lock:
            self._write_intents += 1
        self._lock.acquire()
        entry = None
        try:
            for name in reversed(list(self._tables)):
                table = self._tables[name]
                for pk in table.pks():
                    table.apply_delete(pk)
            unknown = [name for name in tables if name not in self._tables]
            if unknown:
                raise SchemaError(
                    f"bootstrap snapshot contains unknown table(s) "
                    f"{unknown!r}; replica schemas must match the primary"
                )
            # Load in *this* database's creation order, not the wire
            # map's order — the frame codec sorts keys, but creation
            # order is the FK-topological one.
            for name, table in self._tables.items():
                table.load_rows(tables.get(name) or [])
            for name, table in self._tables.items():
                stamp = seq
                if versions is not None:
                    stamp = min(int(versions.get(name, seq)), seq)
                if table.dirty:
                    table.commit_version(stamp)
                elif versions is not None and name in versions:
                    table.adopt_version(stamp)
            self._committed_seq = seq
            entry = self._feed_enqueue(seq, None)
            if history:
                self._history_id = history
                self._persist_history(history)
            horizon = self.version_horizon()
            for table in self._tables.values():
                table.prune_versions(horizon)
            # Persist the bootstrap as a checkpoint so the stale WAL
            # records from before the wipe can never replay over it.
            if self._durable:
                self.checkpoint()
        finally:
            with self._intent_lock:
                self._write_intents -= 1
            self._lock.release()
            self._feed_deliver(entry)

    # -- maintenance -------------------------------------------------------------------

    def verify_integrity(self) -> list[str]:
        """Run every table's self-check; returns a list of problems."""
        problems: list[str] = []
        with self._lock:
            for table in self._tables.values():
                problems.extend(table.verify_integrity())
        return problems

    def rebuild_indexes(self) -> None:
        with self._lock:
            for table in self._tables.values():
                table.rebuild_indexes()

    def statistics(self) -> dict[str, Any]:
        """Row counts per table plus WAL size; powers the admin console."""
        with self._lock:
            retained = sum(
                tbl.version_statistics()["nodes"]
                for tbl in self._tables.values()
            )
            self._g_retained_versions.set(retained)
            return {
                "tables": {name: len(tbl) for name, tbl in self._tables.items()},
                "total_rows": sum(len(tbl) for tbl in self._tables.values()),
                "wal_bytes": self._wal.size_bytes() if self._wal else 0,
                "transactions": self._txn_counter,
                "durability": self.durability.spec(),
                "query_cache": self.query_cache.statistics(),
                "mvcc": {
                    "committed_seq": self._committed_seq,
                    "open_snapshots": self.open_snapshots(),
                    "version_horizon": self.version_horizon(),
                    "retained_versions": retained,
                },
            }

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- bulk iteration ------------------------------------------------------------------

    def rows(self, table: str) -> Iterator[dict[str, Any]]:
        view = bound_snapshot()
        return self.table(table).rows() if view is None else view.scan(table)
