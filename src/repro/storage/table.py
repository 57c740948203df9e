"""The live table: versioned row storage, constraints, index maintenance.

A :class:`Table` owns its rows and every index declared for it.  Since
the MVCC refactor a row is not a bare dict but the head of a small
**version chain**: each write prepends an immutable :class:`RowVersion`
(a delete prepends a tombstone), and commit stamps the new versions with
the database-wide commit sequence number.  Readers pinned to a
:class:`~repro.storage.snapshot.Snapshot` walk the chain to the newest
version visible at their sequence number and therefore never block on —
or observe — an in-flight writer.  Versions below the oldest live
snapshot are pruned lazily on the write path, and when a snapshot
closes the table prunes the chains its commits superseded since the last
prune — never the rest.

All constraint checks happen against the *latest* state, *before* any
chain changes, so a failed write leaves rows and indexes untouched.
Foreign keys are validated through the owning
:class:`~repro.storage.database.Database` because they span tables.

Mutations return :class:`UndoEntry` records; transactions replay them in
reverse on rollback, which pops the uncommitted chain heads.

Thread-safety model: there is exactly one writer at a time (the
database's writer lock) and any number of lock-free readers.  Readers
rely on three invariants:

* ``RowVersion`` payloads are never mutated after publication — an
  update builds a *new* dict;
* the ``pk -> head`` mapping is only replaced one key at a time, and
  readers materialize ``list(dict.items())`` (atomic under the GIL)
  before walking;
* ``mutation_epoch`` is a seqlock: odd while a mutation is in flight,
  so a reader can detect that an index lookup raced a writer and fall
  back to a chain scan.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.errors import (
    CheckViolation,
    ForeignKeyViolation,
    NotNullViolation,
    PrimaryKeyViolation,
    RowNotFound,
    SchemaError,
)
from repro.storage.index import HashIndex, OrderedIndex
from repro.storage.schema import TableSchema
from repro.storage.stats import TableStatistics
from repro.storage.types import PLAIN_TYPES, ColumnType, coerce, decode_datetime
from repro.util.ids import IdAllocator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.database import Database
    from repro.storage.snapshot import Snapshot

_PLAIN_TYPE_SET = frozenset(PLAIN_TYPES.values())


def _refiles(old: Any, new: Any) -> bool:
    """Whether a column going from *old* to *new* may move an index key.

    Not when it holds the very same object (every column an update did
    not name), nor an equal value of the same plain type: those share
    a hash bucket and a :func:`~repro.storage.types.sort_key`.  Equal
    values of other types need not (two equal aware datetimes can
    differ in ``isoformat()``), so they count as moved.
    """
    if old is new:
        return False
    return (
        type(old) is not type(new)
        or type(new) not in _PLAIN_TYPE_SET
        or old != new
    )


# -- the per-thread read view --------------------------------------------------
#
# A portal GET renders from one MVCC snapshot and derives its ``ETag``
# from the versions of the tables it read.  ``track_reads`` installs
# both per thread: a sink every table read path reports its name into,
# and the snapshot ``Database`` and ``Repository`` reads resolve through.
# The hot paths pay one module-global truthiness check while no view is
# active anywhere in the process.

class _ReadView(threading.local):
    sink: "set[str] | None" = None
    snapshot: "Snapshot | None" = None
    #: Answers derived from the snapshot's rows, for the view's life.
    memo: "dict[Any, Any] | None" = None


_read_view = _ReadView()
_probe_users = 0
_probe_lock = threading.Lock()


@contextmanager
def track_reads(
    sink: "set[str] | None" = None, *, snapshot: "Snapshot | None" = None
):
    """Collect the names of every table read by this thread and, with
    *snapshot*, resolve this thread's ``Database`` reads through it.

    Nests: the innermost view wins for the duration, the outer one is
    restored on exit.  Only reads on the *calling* thread are affected.
    """
    global _probe_users
    view = _read_view
    previous = (view.sink, view.snapshot, view.memo)
    with _probe_lock:
        _probe_users += 1
    view.sink, view.snapshot = sink, snapshot
    view.memo = None if snapshot is None else {}
    try:
        yield sink
    finally:
        view.sink, view.snapshot, view.memo = previous
        with _probe_lock:
            _probe_users -= 1


def note_table_read(name: str) -> None:
    """Report a read of *name* to this thread's probe, if one is active."""
    if _probe_users:
        sink = _read_view.sink
        if sink is not None:
            sink.add(name)


def bound_snapshot() -> "Snapshot | None":
    """The snapshot this thread's reads resolve through, if one is bound."""
    return _read_view.snapshot if _probe_users else None


def view_memo() -> "dict[Any, Any] | None":
    """A dict for answers derived from this thread's bound snapshot,
    dropped with it (``None`` without one)."""
    return _read_view.memo if _probe_users else None


class RowVersion:
    """One immutable version of a row.

    ``row`` is the payload dict (``None`` marks a tombstone — the row
    was deleted at this version).  ``seq`` is the database-wide commit
    sequence number that published this version, or ``None`` while the
    owning transaction is still open (uncommitted versions are invisible
    to every snapshot).  ``older`` links to the previous version.

    The payload dict must never be mutated once the version is linked
    into a chain: lock-free readers hold direct references to it.
    """

    __slots__ = ("row", "seq", "older")

    def __init__(
        self,
        row: "dict[str, Any] | None",
        seq: "int | None",
        older: "RowVersion | None",
    ):
        self.row = row
        self.seq = seq
        self.older = older

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "tombstone" if self.row is None else "row"
        state = "uncommitted" if self.seq is None else f"seq={self.seq}"
        return f"<RowVersion {kind} {state} chained={self.older is not None}>"


#: A version's payload (``None`` for a tombstone), resolved in C.
_payload = attrgetter("row")


@dataclass(frozen=True, slots=True)
class UndoEntry:
    """Inverse of one applied mutation.

    ``op`` is the operation that *was applied*; rollback performs its
    inverse: an ``insert`` is undone by deleting ``pk``, a ``delete`` by
    re-inserting ``before``, an ``update`` by restoring ``before``.
    Under MVCC each of these amounts to popping the uncommitted head of
    the row's version chain, so rollback never reads ``before`` or
    ``after``.  Both are the versions' own payloads, shared and never
    mutated, not copies: the commit feed and the WAL encoder only read
    them.
    """

    op: str  # "insert" | "update" | "delete"
    table: str
    pk: Any
    before: dict[str, Any] | None
    after: dict[str, Any] | None


class Table:
    """One table of a :class:`Database`.  Not constructed directly."""

    def __init__(self, schema: TableSchema, database: "Database"):
        self.schema = schema
        self._db = database
        #: pk -> newest :class:`RowVersion` (head of the chain).
        self._rows: dict[Any, RowVersion] = {}
        #: Number of live (non-tombstone) heads; backs ``len(table)``.
        self._live = 0
        #: Uncommitted versions in application order; commit stamps them
        #: with the global sequence number, rollback pops them (LIFO).
        self._uncommitted: list[RowVersion] = []
        #: ``(seq, pk)`` per committed version that superseded another
        #: version or is a tombstone, in commit order: the only chains a
        #: prune can shorten.  Every other chain is one live version.
        self._prunable: deque[tuple[int, Any]] = deque()
        self._ids = IdAllocator()
        self._pk = schema.primary_key.name
        self._auto_pk = schema.primary_key.type is ColumnType.INT

        # Query-cache bookkeeping.  ``_version`` identifies the last
        # *committed* state — since MVCC it is the database-wide commit
        # sequence number of the last commit that touched this table —
        # and keys cached query results; it only moves forward when a
        # transaction commits (or recovery finishes), so a rollback
        # leaves it untouched and pre-transaction cache entries stay
        # valid.  ``_mutation_epoch`` is a seqlock: bumped at the start
        # *and* end of every state change — including undos — so it is
        # odd mid-mutation and a reader can detect that the table moved
        # under it.  ``_pending_ops`` counts applied-but-uncommitted
        # mutations; while non-zero the table is dirty and the cache is
        # bypassed.
        self._version = 0
        self._mutation_epoch = 0
        self._pending_ops = 0

        # Unique constraints become unique hash indexes (PK handled by the
        # row dict itself).  Each other spec is one structure: a
        # single-column plain index is an ordered index, which answers
        # equality, ranges and ORDER BY alike; a composite plain index is
        # a hash index; ``schema.ordered`` declares ordered indexes
        # (composites give the planner prefix seeks and covering reads).
        # Ordered indexes are keyed by their column tuple, single-column
        # ones by a 1-tuple.  Indexes always reflect the *latest*
        # (possibly uncommitted) state; snapshot reads may only use them
        # when the table has not moved past the snapshot.
        self._unique_indexes: list[HashIndex] = []
        self._hash_indexes: dict[tuple[str, ...], HashIndex] = {}
        self._ordered_indexes: dict[tuple[str, ...], OrderedIndex] = {}

        for col in schema.columns:
            if col.unique and not col.primary_key:
                self._unique_indexes.append(
                    HashIndex(schema.name, (col.name,), unique=True)
                )
        for group in schema.unique_together:
            self._unique_indexes.append(
                HashIndex(schema.name, tuple(group), unique=True)
            )
        specs = schema.index_specs()
        for spec in specs:
            if len(spec) > 1 and spec not in self._hash_indexes:
                self._hash_indexes[spec] = HashIndex(schema.name, spec)
        for spec in [s for s in specs if len(s) == 1] + schema.ordered_index_specs():
            if spec not in self._ordered_indexes:
                self._ordered_indexes[spec] = self._ordered_index(spec)

        # Planner statistics: reservoir samples per column; fed by the
        # row mutation paths (insert/update/delete and their undos), so
        # estimates track the latest state and rollback stays symmetric.
        self._stats = TableStatistics(list(schema.column_names))
        #: Query shape -> its value-free access paths, filled and read by
        #: :mod:`repro.storage.query`.  The paths name index objects, so
        #: a new index or column starts an empty memo; rows and
        #: statistics, loaded or written, leave it valid.
        self.plan_memo: dict[tuple, Any] = {}

        # Index-maintenance instruments, cached per table so the per-row
        # hot path is a single counter increment.
        obs = database.obs
        index_ops = obs.metrics.counter(
            "storage_index_ops_total",
            "Index entries written/removed during row maintenance",
            labels=("table", "action"),
        )
        self._m_index_add = index_ops.labels(table=schema.name, action="add")
        self._m_index_remove = index_ops.labels(
            table=schema.name, action="remove"
        )
        self._m_index_build = obs.metrics.histogram(
            "storage_index_build_seconds",
            "Full index (re)builds over existing rows",
            labels=("table",),
        ).labels(table=schema.name)
        self._m_pruned = obs.metrics.counter(
            "storage_versions_pruned_total",
            "Row versions reclaimed from MVCC chains",
            labels=("table",),
        ).labels(table=schema.name)
        self._m_chains_visited = obs.metrics.counter(
            "storage_prune_chains_visited_total",
            "Version chains a prune examined",
            labels=("table",),
        ).labels(table=schema.name)
        plans = obs.metrics.counter(
            "storage_query_plans_total",
            "Query plans by where their access paths came from: the "
            "table's shape memo, or an enumeration on a memo miss",
            labels=("result",),
        )
        self.m_plans_memo = plans.labels(result="memo")
        self.m_plans_enumerated = plans.labels(result="enumerated")

    # -- basic access ------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def pk_column(self) -> str:
        return self._pk

    def __len__(self) -> int:
        if _probe_users:
            note_table_read(self.schema.name)
        return self._live

    def __contains__(self, pk: Any) -> bool:
        if _probe_users:
            note_table_read(self.schema.name)
        head = self._rows.get(pk)
        return head is not None and head.row is not None

    def get(self, pk: Any) -> dict[str, Any]:
        """Return a copy of the latest version of row *pk*."""
        if _probe_users:
            note_table_read(self.schema.name)
        head = self._rows.get(pk)
        if head is None or head.row is None:
            raise RowNotFound(self.name, pk)
        return dict(head.row)

    def get_or_none(self, pk: Any) -> dict[str, Any] | None:
        if _probe_users:
            note_table_read(self.schema.name)
        head = self._rows.get(pk)
        return dict(head.row) if head is not None and head.row is not None else None

    def rows(self) -> Iterator[dict[str, Any]]:
        """Yield copies of all live rows in insertion order."""
        if _probe_users:
            note_table_read(self.schema.name)
        for head in list(self._rows.values()):
            if head.row is not None:
                yield dict(head.row)

    def pks(self) -> list[Any]:
        if _probe_users:
            note_table_read(self.schema.name)
        return [pk for pk, head in self._rows.copy().items() if head.row is not None]

    def raw_rows(self, pks: Iterable[Any]) -> Iterator[dict[str, Any]]:
        """Zero-copy access to the *latest* versions' payloads of *pks*,
        lazily and in *pks* order; pks without a live row are skipped.

        Contract: each dict is an immutable version payload — writers
        never mutate it in place (an update publishes a new dict), so
        holding a reference across a concurrent commit is safe.  Callers
        must treat it as read-only and must not assume it reflects
        committed state (the latest version may belong to an open
        transaction); isolation-sensitive callers read through a pinned
        :class:`~repro.storage.snapshot.Snapshot` / :meth:`row_at`
        instead.  The read is noted once and heads resolve without a
        Python call per pk; a consumer that stops early (``LIMIT``)
        resolves no further pks.
        """
        if _probe_users:
            note_table_read(self.schema.name)
        return filter(None, map(_payload, filter(None, map(self._rows.get, pks))))

    def raw_payloads(self) -> Iterator[dict[str, Any]]:
        """Zero-copy :meth:`rows`: every live payload of the latest
        versions, lazily and in insertion order, under the
        :meth:`raw_rows` contract."""
        return self.raw_rows(list(self._rows))

    def raw_items(self) -> list[tuple[Any, dict[str, Any]]]:
        """Zero-copy ``(pk, row)`` pairs of the latest live versions.

        Same contract as :meth:`raw_rows`: payloads are immutable version
        dicts (never mutated after publication, safe to hold without
        copying, must not be written to), and the view is the *latest*
        state, which may include uncommitted changes of an open
        transaction.  Snapshot-isolated scans use :meth:`items_at`.
        """
        if _probe_users:
            note_table_read(self.schema.name)
        return [
            (pk, head.row)
            for pk, head in self._rows.copy().items()
            if head.row is not None
        ]

    # -- snapshot reads (lock-free) -------------------------------------------

    @staticmethod
    def _visible_at(head: "RowVersion | None", seq: int) -> "RowVersion | None":
        """Newest version of a chain committed at or before *seq*."""
        node = head
        while node is not None:
            committed = node.seq
            if committed is not None and committed <= seq:
                return node
            node = node.older
        return None

    def row_at(self, pk: Any, seq: int) -> dict[str, Any] | None:
        """The payload of row *pk* as of commit sequence *seq*.

        Zero-copy (same immutability contract as :meth:`raw_rows`);
        returns ``None`` for rows that did not exist — or were deleted —
        at that point.  Never takes any lock.
        """
        if _probe_users:
            note_table_read(self.schema.name)
        node = self._visible_at(self._rows.get(pk), seq)
        return None if node is None else node.row

    def items_at(self, seq: int) -> Iterator[tuple[Any, dict[str, Any]]]:
        """Zero-copy ``(pk, row)`` pairs visible at commit sequence *seq*.

        The row map is copied atomically (one C call under the GIL)
        before walking, so a concurrent writer can neither tear the
        iteration nor raise ``dict changed size``; rows the writer
        commits afterwards carry a higher sequence number and stay
        invisible.  Walking the copy's items reuses one pair tuple
        where a ``list(items())`` would hold one per row.
        """
        if _probe_users:
            note_table_read(self.schema.name)
        for pk, head in self._rows.copy().items():
            node = self._visible_at(head, seq)
            if node is not None and node.row is not None:
                yield pk, node.row

    def count_at(self, seq: int) -> int:
        """Number of rows visible at commit sequence *seq*: the live
        count corrected by the rows an open transaction touched while
        the table has not committed past *seq* (O(1) when clean),
        otherwise a full chain-walking pass."""
        def corrected(pending: "set[Any]") -> int:
            count = self._live
            for pk in pending:
                head = self._rows.get(pk)
                node = self._visible_at(head, seq)
                count += (node is not None and node.row is not None) - (
                    head is not None and head.row is not None
                )
            return count

        count = self.read_at(seq, corrected)
        return sum(1 for _ in self.items_at(seq)) if count is None else count

    def read_at(self, seq: int, read: "Callable[[set[Any]], Any]") -> Any:
        """Run *read* over the live indexes and counts for a reader at
        commit sequence *seq*, or return ``None`` when they cannot
        answer: the table committed past *seq*, or a writer raced the
        read (seqlock epoch odd or moved).  *read* must not return
        ``None``.

        The live structures hold the state committed at ``version``
        (the state at *seq*) plus the open transaction's writes.  *read*
        gets the pks that transaction touched and must resolve those at
        *seq* itself, re-checking its predicate.
        """
        epoch = self._mutation_epoch
        if epoch & 1 or self._version > seq:
            return None
        pending: "set[Any]" = set()
        for node in list(self._uncommitted):
            row = node.row
            if row is None and (older := node.older) is not None:
                row = older.row  # a tombstone: the row it deletes
            # No row: a commit and a prune raced us, and moved the epoch.
            if row is not None:
                pending.add(row[self._pk])
        result = read(pending)
        if self._mutation_epoch != epoch:
            return None
        return result

    # -- versioning (query-cache keys, seqlock) --------------------------------

    @property
    def version(self) -> int:
        """Commit sequence number of the last committed change here."""
        return self._version

    @property
    def mutation_epoch(self) -> int:
        """Seqlock epoch: bumped entering *and* leaving every state
        change (committed or not, incl. undo), so it is odd while a
        mutation is in flight and even when the table is stable."""
        return self._mutation_epoch

    @property
    def dirty(self) -> bool:
        """True while an open transaction has uncommitted changes here."""
        return self._pending_ops > 0

    def _begin_change(self) -> None:
        self._mutation_epoch += 1

    def _end_change(self) -> None:
        self._mutation_epoch += 1
        self._pending_ops += 1

    def _end_undo(self) -> None:
        self._mutation_epoch += 1
        if self._pending_ops > 0:
            self._pending_ops -= 1

    def commit_version(self, seq: int) -> None:
        """Publish pending mutations as one new committed version.

        Called by the database at commit (and once after recovery) with
        the new global commit sequence number; stamps every uncommitted
        version so snapshots at or above *seq* see them.  A rollback
        never calls this, so the version — and with it every cached
        result for the pre-transaction state — survives.

        Publication is seqlock-guarded: the epoch goes odd for the
        duration, and ``_version`` moves before ``_pending_ops`` clears.
        Otherwise a lock-free reader racing this window could observe
        an even epoch, ``dirty`` False, and a stale ``version`` all at
        once — and wrongly trust the live indexes, which already
        reflect this commit's deletes and updates.

        Each version that supersedes another, and each tombstone, joins
        the prune queue here: a rolled-back version never does.
        """
        if self._pending_ops:
            self._mutation_epoch += 1
            prunable = self._prunable
            at = self._queue_seq(seq)
            for node in self._uncommitted:
                node.seq = seq
                if node.older is not None:
                    prunable.append((at, self._pk_of(node)))
            self._uncommitted.clear()
            self._version = seq
            self._pending_ops = 0
            self._mutation_epoch += 1

    def adopt_version(self, seq: int) -> None:
        """Move this table's committed version forward to *seq* without
        publishing any row change.

        Used by replica bootstrap to mirror the *primary's* per-table
        version vector exactly: a table whose last committed change on
        the primary was at ``seq`` must report the same version here, or
        ``ETag``s derived from the vector would spuriously differ across
        replica routing.  Caller holds the writer lock; never moves the
        version backwards and never touches a dirty table (those are
        stamped by :meth:`commit_version`).
        """
        if seq > self._version and not self._pending_ops:
            self._mutation_epoch += 1
            self._version = seq
            self._mutation_epoch += 1

    def _publish_out_of_band(self) -> int:
        """Reserve a commit sequence number for non-transactional
        changes (schema evolution) and move this table's version to it.
        Caller holds the writer lock and must hand the number to
        ``Database._publish_commit_seq`` once any new versions are
        linked (stamp-then-publish, so lock-free snapshot opens never
        observe a half-applied migration)."""
        seq = self._db._reserve_commit_seq()
        self._version = seq
        return seq

    # -- version pruning ---------------------------------------------------------

    def _truncate_chain(self, head: RowVersion, horizon: int) -> int:
        """Cut *head*'s chain below the newest version visible at
        *horizon*; returns the number of nodes dropped.  Safe against
        concurrent readers: every live snapshot sits at or above the
        horizon, so the kept node is the oldest any reader can need."""
        node = head
        while node is not None and (node.seq is None or node.seq > horizon):
            node = node.older
        if node is None or node.older is None:
            return 0
        dropped = 0
        cursor = node.older
        node.older = None
        while cursor is not None:
            dropped += 1
            cursor = cursor.older
        return dropped

    def _pk_of(self, node: RowVersion) -> Any:
        """The pk of *node*'s chain, for a version not yet committed
        or being committed.  A tombstone's is that of the live row it
        deletes, which stays linked to it until then: a prune only cuts
        below a committed version."""
        row = node.row if node.row is not None else node.older.row
        return row[self._pk]

    @property
    def prune_overdue(self) -> bool:
        """True once the prune queue holds more entries than the table
        has live rows: a commit then prunes rather than wait for a
        snapshot close, so writes alone cannot grow the queue."""
        return len(self._prunable) > self._live

    def _queue_seq(self, seq: int) -> int:
        """The seq to queue a version committed at *seq* under: *seq*
        itself, or the newest queued seq when that is later (a bootstrap
        stamps a table below seqs already queued, an undo re-queues an
        old tombstone), so the queue stays in order.  An entry queued
        late is only reclaimed late."""
        queue = self._prunable
        if queue and queue[-1][0] > seq:
            return queue[-1][0]
        return seq

    def prune_versions(self, horizon: int) -> int:
        """Prune the chains queued by commits at or below *horizon*:
        cut each below the version visible at *horizon*, and drop it
        whole once only a committed tombstone is left.  Entries above
        the horizon stay queued, so a close that does not move the
        horizon costs nothing.  Caller holds the writer lock.  Returns
        the number of chain nodes reclaimed."""
        queue = self._prunable
        if not queue or queue[0][0] > horizon:
            return 0
        rows = self._rows
        dropped = visited = 0
        while queue and queue[0][0] <= horizon:
            pk = queue.popleft()[1]
            head = rows.get(pk)
            if head is None:
                continue  # queued twice, and already dropped
            visited += 1
            dropped += self._truncate_chain(head, horizon)
            if (
                head.row is None
                and head.older is None
                and head.seq is not None
                and head.seq <= horizon
            ):
                # Committed tombstone with no history left and no
                # snapshot that could still see the row: the chain is
                # fully dead.
                del rows[pk]
                dropped += 1
        self._m_chains_visited.inc(visited)
        if dropped:
            self._m_pruned.inc(dropped)
        return dropped

    def version_chain_length(self, pk: Any) -> int:
        """Number of retained versions for *pk* (0 = unknown pk)."""
        length = 0
        node = self._rows.get(pk)
        while node is not None:
            length += 1
            node = node.older
        return length

    # -- validation helpers --------------------------------------------------

    def _normalize(self, values: dict[str, Any], *, for_insert: bool) -> dict[str, Any]:
        """Coerce values, apply defaults (insert only), reject unknown columns."""
        unknown = set(values) - set(self.schema.column_names)
        if unknown:
            raise SchemaError(
                f"table {self.name!r}: unknown column(s) {sorted(unknown)!r}"
            )
        row: dict[str, Any] = {}
        for col in self.schema.columns:
            if col.name in values:
                row[col.name] = coerce(values[col.name], col.type, column=col.name)
            elif for_insert:
                if col.primary_key and self._auto_pk:
                    continue  # allocated later
                row[col.name] = coerce(
                    col.default_value(), col.type, column=col.name
                )
        return row

    def _validate_row(self, row: dict[str, Any]) -> None:
        """NOT NULL, per-column checks, table checks. Raises on violation."""
        for col in self.schema.columns:
            value = row.get(col.name)
            if value is None:
                if not col.nullable:
                    raise NotNullViolation(
                        f"column {self.name}.{col.name} may not be NULL",
                        table=self.name,
                        constraint=f"nn_{self.name}_{col.name}",
                    )
                continue
            if col.check is not None and not col.check(value):
                raise CheckViolation(
                    f"column {self.name}.{col.name}: value {value!r} failed "
                    "its check",
                    table=self.name,
                    constraint=f"ck_{self.name}_{col.name}",
                )
        for check in self.schema.checks:
            if not check.predicate(row):
                raise CheckViolation(
                    f"table {self.name!r}: check {check.name!r} failed"
                    + (f" ({check.description})" if check.description else ""),
                    table=self.name,
                    constraint=check.name,
                )

    def _check_foreign_keys(self, row: dict[str, Any]) -> None:
        for col, fk in self.schema.foreign_keys():
            value = row.get(col.name)
            if value is None:
                continue
            target = self._db.table(fk.table)
            if value not in target:
                raise ForeignKeyViolation(
                    f"{self.name}.{col.name}={value!r} references missing "
                    f"{fk.table}.{fk.column}",
                    table=self.name,
                    constraint=f"fk_{self.name}_{col.name}",
                )

    def _check_unique(self, row: dict[str, Any], pk: Any) -> None:
        for index in self._unique_indexes:
            index.check_insert(row, pk)

    # -- index plumbing ------------------------------------------------------

    def _index_count(self) -> int:
        return (
            len(self._unique_indexes)
            + len(self._hash_indexes)
            + len(self._ordered_indexes)
        )

    def _index_add(self, row: dict[str, Any], pk: Any) -> None:
        for index in self._unique_indexes:
            index.add(row, pk)
        for index in self._hash_indexes.values():
            index.add(row, pk)
        for index in self._ordered_indexes.values():
            index.add(row, pk)
        self._m_index_add.inc(self._index_count())

    def _index_remove(self, row: dict[str, Any], pk: Any) -> None:
        for index in self._unique_indexes:
            index.remove(row, pk)
        for index in self._hash_indexes.values():
            index.remove(row, pk)
        for index in self._ordered_indexes.values():
            index.remove(row, pk)
        self._m_index_remove.inc(self._index_count())

    def _index_move(
        self, before: dict[str, Any], after: dict[str, Any], pk: Any
    ) -> None:
        """Re-file *pk* from *before* to *after*, touching only the
        indexes whose key differs between the two versions."""
        changed = {
            c for c, new in after.items() if _refiles(before.get(c), new)
        }
        if not changed:
            return
        moved = 0
        for index in chain(
            self._unique_indexes,
            self._hash_indexes.values(),
            self._ordered_indexes.values(),
        ):
            if not changed.isdisjoint(index.columns):
                index.remove(before, pk)
                index.add(after, pk)
                moved += 1
        if moved:
            self._m_index_remove.inc(moved)
            self._m_index_add.inc(moved)

    # -- mutations (called by Transaction) ------------------------------------

    def apply_insert(self, values: dict[str, Any]) -> tuple[dict[str, Any], UndoEntry]:
        """Validate and insert; returns ``(stored_row_copy, undo)``."""
        row = self._normalize(values, for_insert=True)
        if self._pk not in row or row[self._pk] is None:
            if not self._auto_pk:
                raise NotNullViolation(
                    f"table {self.name!r}: TEXT primary key must be supplied",
                    table=self.name,
                    constraint=f"nn_{self.name}_{self._pk}",
                )
            row[self._pk] = self._ids.allocate()
        pk = row[self._pk]
        head = self._rows.get(pk)
        if head is not None and head.row is not None:
            raise PrimaryKeyViolation(
                f"table {self.name!r}: primary key {pk!r} already exists",
                table=self.name,
                constraint=f"pk_{self.name}",
            )
        self._validate_row(row)
        self._check_unique(row, pk)
        self._check_foreign_keys(row)
        if self._auto_pk and isinstance(pk, int):
            self._ids.observe(pk)
        self._begin_change()
        node = RowVersion(row, None, head)
        self._rows[pk] = node
        self._uncommitted.append(node)
        self._live += 1
        self._lazy_truncate(node)
        self._index_add(row, pk)
        self._stats.on_insert(row)
        self._end_change()
        return dict(row), UndoEntry("insert", self.name, pk, None, row)

    def apply_update(
        self, pk: Any, changes: dict[str, Any]
    ) -> tuple[dict[str, Any], UndoEntry]:
        """Validate and update row *pk*; returns ``(new_row_copy, undo)``."""
        head = self._rows.get(pk)
        if head is None or head.row is None:
            raise RowNotFound(self.name, pk)
        normalized = self._normalize(changes, for_insert=False)
        if self._pk in normalized and normalized[self._pk] != pk:
            raise SchemaError(
                f"table {self.name!r}: primary key of row {pk!r} cannot change"
            )
        before = head.row
        candidate = {**before, **normalized}
        self._validate_row(candidate)
        self._check_unique(candidate, pk)
        self._check_foreign_keys(candidate)
        self._begin_change()
        node = RowVersion(candidate, None, head)
        self._rows[pk] = node
        self._uncommitted.append(node)
        self._lazy_truncate(node)
        self._index_move(before, candidate, pk)
        self._stats.on_remove(before)
        self._stats.on_insert(candidate)
        self._end_change()
        return dict(candidate), UndoEntry(
            "update", self.name, pk, before, candidate
        )

    def apply_delete(self, pk: Any) -> tuple[dict[str, Any], UndoEntry]:
        """Delete row *pk*; returns ``(deleted_row_copy, undo)``.

        The chain gets a tombstone head so snapshots pinned before the
        delete keep seeing the row.  Referential actions
        (restrict/cascade/set_null) are orchestrated by the transaction,
        which sees all tables.
        """
        head = self._rows.get(pk)
        if head is None or head.row is None:
            raise RowNotFound(self.name, pk)
        before = head.row
        self._begin_change()
        self._index_remove(before, pk)
        node = RowVersion(None, None, head)
        self._rows[pk] = node
        self._uncommitted.append(node)
        self._live -= 1
        self._lazy_truncate(node)
        self._stats.on_remove(before)
        self._end_change()
        return dict(before), UndoEntry("delete", self.name, pk, before, None)

    def _lazy_truncate(self, head: RowVersion) -> None:
        """Write-path pruning: cut this chain below the version horizon
        so chains stay short without waiting for a full sweep."""
        if head.older is None:
            return
        dropped = self._truncate_chain(head, self._db.version_horizon())
        if dropped:
            self._m_pruned.inc(dropped)

    def apply_undo(self, entry: UndoEntry) -> None:
        """Reverse one previously applied mutation (rollback path).

        Undo entries are replayed in reverse application order, so the
        chain head for ``entry.pk`` is always the uncommitted version
        that mutation created: undo pops it.  Undoing a re-insert bares
        the committed tombstone below it again, which is queued for
        pruning anew: a prune while the insert was open may have popped
        its entry without dropping it.
        """
        head = self._rows.get(entry.pk)
        assert head is not None and head.seq is None, (
            f"undo of {entry.op} on {self.name}[{entry.pk!r}] found a "
            "committed head; undo order violated"
        )
        assert self._uncommitted and self._uncommitted[-1] is head
        self._begin_change()
        self._uncommitted.pop()
        if entry.op == "insert":
            assert head.row is not None
            self._index_remove(head.row, entry.pk)
            self._stats.on_remove(head.row)
            older = head.older
            if older is None:
                del self._rows[entry.pk]
            else:
                self._rows[entry.pk] = older
                if older.row is None and older.seq is not None:
                    self._prunable.append(
                        (self._queue_seq(older.seq), entry.pk)
                    )
            self._live -= 1
        elif entry.op == "delete":
            older = head.older
            assert older is not None and older.row is not None
            self._rows[entry.pk] = older
            self._index_add(older.row, entry.pk)
            self._stats.on_insert(older.row)
            self._live += 1
        elif entry.op == "update":
            older = head.older
            assert older is not None and older.row is not None
            assert head.row is not None
            self._rows[entry.pk] = older
            self._index_move(head.row, older.row, entry.pk)
            self._stats.on_remove(head.row)
            self._stats.on_insert(older.row)
        else:  # pragma: no cover - defensive
            raise SchemaError(f"unknown undo op {entry.op!r}")
        self._end_undo()

    # -- bulk load (recovery, replica bootstrap) ---------------------------------

    def load_rows(
        self,
        rows: "Iterable[dict[str, Any]]",
        *,
        stats: "dict[str, Any] | None" = None,
    ) -> int:
        """Install *rows*, a snapshot's encoded state of this table (a
        falsy value, or an iterator that yields at least one row).

        The one loader behind checkpoint recovery and replica bootstrap.
        Each row is decoded and normalized in one pass: datetimes through
        :func:`decode_datetime`, JSON values taken as they are (they come
        fresh from ``json.load`` or a wire frame), columns this schema
        lacks dropped, defaults applied once.  Every check of
        :meth:`apply_insert` still runs per row, in the same order and
        with the same exception types: primary key present and not
        duplicated, NOT NULL, column and table checks, unique
        constraints, foreign keys (against the rows loaded so far).  What
        the loader skips is bookkeeping nobody reads here: undo entries,
        row copies, per-row metrics, and per-row index maintenance — the
        non-unique hash and ordered indexes are built once from the
        loaded rows.

        *stats* is this table's checkpointed sampler state; it replaces
        the statistics wholesale, so the reservoirs are not fed row by
        row.  Without it (old snapshots, tables new since the checkpoint,
        replica bootstrap) every row is fed as an insert would.

        Loaded versions are uncommitted, like inserts: the caller settles
        them with :meth:`commit_version`.  Returns the number of rows.
        """
        loaded: list[tuple[dict[str, Any], Any]] = []
        if rows:
            columns = [
                (col.name, col.type, col) for col in self.schema.columns
            ]
            pk_name = self._pk
            auto_pk = self._auto_pk
            heads = self._rows
            uncommitted = self._uncommitted
            feed = self._stats.on_insert if stats is None else None
            max_id = 0
            self._begin_change()
            try:
                for encoded in rows:
                    row: dict[str, Any] = {}
                    for name, kind, col in columns:
                        if name in encoded:
                            value = encoded[name]
                            if value is None or kind is ColumnType.JSON:
                                pass
                            elif kind is ColumnType.DATETIME:
                                value = decode_datetime(value)
                            elif type(value) is not PLAIN_TYPES[kind]:
                                value = coerce(value, kind, column=name)
                            row[name] = value
                        elif not (auto_pk and name == pk_name):
                            row[name] = coerce(
                                col.default_value(), kind, column=name
                            )
                    pk = row.get(pk_name)
                    if pk is None:
                        if not auto_pk:
                            raise NotNullViolation(
                                f"table {self.name!r}: TEXT primary key must "
                                "be supplied",
                                table=self.name,
                                constraint=f"nn_{self.name}_{pk_name}",
                            )
                        pk = row[pk_name] = self._ids.allocate()
                    head = heads.get(pk)
                    if head is not None and head.row is not None:
                        raise PrimaryKeyViolation(
                            f"table {self.name!r}: primary key {pk!r} "
                            "already exists",
                            table=self.name,
                            constraint=f"pk_{self.name}",
                        )
                    self._validate_row(row)
                    self._check_unique(row, pk)
                    self._check_foreign_keys(row)
                    for index in self._unique_indexes:
                        index.add(row, pk)
                    node = RowVersion(row, None, head)
                    heads[pk] = node
                    uncommitted.append(node)
                    loaded.append((row, pk))
                    if feed is not None:
                        feed(row)
                    if auto_pk and isinstance(pk, int) and pk > max_id:
                        max_id = pk
            finally:
                # Even a load cut short by a violation leaves every
                # installed row indexed and the seqlock even.
                for index in self._hash_indexes.values():
                    index.add_many(loaded)
                for index in self._ordered_indexes.values():
                    index.add_many(loaded)
                if max_id:
                    self._ids.observe(max_id)
                self._live += len(loaded)
                self._pending_ops += len(loaded)
                self._mutation_epoch += 1
                self._m_index_add.inc(len(loaded) * self._index_count())
        if stats is not None:
            self.restore_stats(stats)
        return len(loaded)

    # -- planner hooks --------------------------------------------------------

    def hash_index_for(
        self, columns: tuple[str, ...]
    ) -> "HashIndex | OrderedIndex | None":
        """The plain equality index over exactly *columns*: a composite's
        hash index, or a single column's ordered index."""
        if len(columns) == 1:
            return self._ordered_indexes.get(columns)
        return self._hash_indexes.get(columns)

    def _ordered_index(self, columns: tuple[str, ...]) -> OrderedIndex:
        """A new ordered index over *columns*, keyed by their types."""
        types = tuple(self.schema.column(c).type for c in columns)
        return OrderedIndex(self.name, columns, types)

    def ordered_index_for(self, columns: tuple[str, ...]) -> OrderedIndex | None:
        """The ordered index over exactly *columns*, if one exists."""
        return self._ordered_indexes.get(columns)

    def ordered_indexes(self) -> "list[OrderedIndex]":
        """Every ordered index, single-column ones before composites (the
        planner enumerates candidates in this order)."""
        indexes = self._ordered_indexes.values()
        return [ix for ix in indexes if len(ix.columns) == 1] + [
            ix for ix in indexes if len(ix.columns) > 1
        ]

    def hash_indexes(self) -> "list[HashIndex | OrderedIndex]":
        """Every plain equality index — composite hash indexes, then the
        single-column ordered ones (planner candidate enumeration)."""
        return [*self._hash_indexes.values()] + [
            ix for ix in self._ordered_indexes.values() if len(ix.columns) == 1
        ]

    def unique_index_for(self, columns: tuple[str, ...]) -> HashIndex | None:
        for index in self._unique_indexes:
            if index.columns == columns:
                return index
        return None

    def statistics(self) -> TableStatistics:
        """Per-column reservoir statistics (planner cardinality input)."""
        return self._stats

    def distinct_count(self, column: str) -> int:
        """Best-available distinct-value count for *column*.

        Prefers exact O(1) counts off an index over that column (ordered
        or unique), falling back to the reservoir-sample estimate.  The PK
        column is exact by construction (one value per live row).
        """
        if column == self._pk:
            return self._live
        ordered = self._ordered_indexes.get((column,))
        if ordered is not None:
            return ordered.distinct_keys()
        for unique in self._unique_indexes:
            if unique.columns == (column,):
                return unique.distinct_keys()
        return self._stats.distinct_estimate(column, self._live)

    def column_min_max(self, column: str) -> "tuple[Any, Any] | None":
        """O(1) (min, max) for *column* via its ordered index, if any."""
        index = self._ordered_indexes.get((column,))
        if index is None or len(index) == 0:
            return None
        low = index.min_key()
        high = index.max_key()
        if low is None or high is None:
            return None
        return low[0], high[0]

    def stats_state(self) -> dict[str, Any]:
        """JSON-safe sampler state for checkpoint persistence."""
        return self._stats.state()

    def restore_stats(self, state: dict[str, Any]) -> None:
        """Restore sampler state captured by :meth:`stats_state`."""
        self._stats = TableStatistics(list(self.schema.column_names))
        self._stats.restore(state)

    # -- schema evolution -----------------------------------------------------

    def add_column(self, column) -> None:
        """Add *column* to the live table, backfilling existing rows.

        Existing rows receive the column's default (evaluated per row
        for callable defaults).  A non-nullable column therefore needs
        a default when rows exist.  New unique/index structures are
        built over the backfilled data; a uniqueness conflict aborts
        the whole operation before any state changes.  Backfill
        publishes *new* row versions (payloads are immutable), so
        snapshots pinned before the migration keep the old shape.
        """
        from repro.storage.schema import TableSchema

        if self.schema.has_column(column.name):
            raise SchemaError(
                f"table {self.name!r} already has column {column.name!r}"
            )
        if column.primary_key:
            raise SchemaError("cannot add a primary-key column")
        backfill: dict[Any, Any] = {}
        for pk, head in self._rows.items():
            if head.row is None:
                continue
            value = coerce(column.default_value(), column.type, column=column.name)
            if value is None and not column.nullable:
                raise SchemaError(
                    f"column {column.name!r} is NOT NULL but has no default "
                    "to backfill existing rows with"
                )
            backfill[pk] = value
        if column.unique and self._live > 1:
            non_null = [v for v in backfill.values() if v is not None]
            if len(non_null) != len(set(map(repr, non_null))):
                raise SchemaError(
                    f"cannot add unique column {column.name!r}: backfill "
                    "default would duplicate"
                )

        new_schema = TableSchema(
            name=self.schema.name,
            columns=list(self.schema.columns) + [column],
            indexes=list(self.schema.indexes),
            ordered=list(self.schema.ordered),
            unique_together=list(self.schema.unique_together),
            checks=list(self.schema.checks),
            doc=self.schema.doc,
        )
        self.schema = new_schema
        self._stats.add_column(column.name)
        self._stats.on_backfill(column.name, list(backfill.values()))
        self._begin_change()
        seq = self._publish_out_of_band()
        for pk, value in backfill.items():
            head = self._rows[pk]
            self._rows[pk] = RowVersion(
                {**head.row, column.name: value}, seq, head
            )
            self._prunable.append((seq, pk))
        self._mutation_epoch += 1  # close the seqlock without going dirty
        self._db._publish_commit_seq(seq)
        if column.unique:
            index = HashIndex(self.name, (column.name,), unique=True)
            for pk, head in self._rows.items():
                if head.row is not None:
                    index.add(head.row, pk)
            self._unique_indexes.append(index)
        self.plan_memo = {}

    def add_index(self, columns: tuple[str, ...], *, ordered: bool = False) -> None:
        """Create a secondary index over existing data.

        A single column always gets an ordered index, which answers
        equality, ranges and ORDER BY.  For a composite, ``ordered=True``
        builds an ordered index instead of a hash index, giving the
        planner prefix seeks and covering reads over *columns*.
        """
        for name in columns:
            self.schema.column(name)  # validates existence
        ordered = ordered or len(columns) == 1
        indexes: dict = self._ordered_indexes if ordered else self._hash_indexes
        if columns in indexes:
            raise SchemaError(
                f"table {self.name!r} already has an index on {columns!r}"
            )
        timer = self._db.obs.timer()
        self._begin_change()
        index = (
            self._ordered_index(columns) if ordered else HashIndex(self.name, columns)
        )
        index.add_many(
            (head.row, pk) for pk, head in self._rows.items() if head.row is not None
        )
        indexes[columns] = index
        self.plan_memo = {}
        if len(columns) > 1 and ordered:
            self.schema.ordered = list(self.schema.ordered) + [columns]
        else:
            self.schema.indexes = list(self.schema.indexes) + [columns]
        self._db._publish_commit_seq(self._publish_out_of_band())
        self._mutation_epoch += 1
        self._m_index_build.observe(timer.elapsed())

    # -- maintenance ------------------------------------------------------------

    def rebuild_indexes(self) -> None:
        """Drop and rebuild every index from the row store (admin/repair)."""
        timer = self._db.obs.timer()
        self._begin_change()
        for index in self._unique_indexes:
            index.clear()
        for index in self._hash_indexes.values():
            index.clear()
        for index in self._ordered_indexes.values():
            index.clear()
        for pk, head in self._rows.items():
            if head.row is not None:
                self._index_add(head.row, pk)
        self._mutation_epoch += 1
        self._m_index_build.observe(timer.elapsed())

    def verify_integrity(self) -> list[str]:
        """Cross-check rows against constraints, and every index against
        the rows both ways; return problems."""
        problems: list[str] = []
        indexes = [
            *self._unique_indexes,
            *self._hash_indexes.values(),
            *self._ordered_indexes.values(),
        ]
        for pk, head in self._rows.items():
            row = head.row
            if row is None:
                continue
            try:
                self._validate_row(row)
            except CheckViolation as exc:
                problems.append(f"{self.name}[{pk}]: {exc}")
            except NotNullViolation as exc:
                problems.append(f"{self.name}[{pk}]: {exc}")
            try:
                self._check_foreign_keys(row)
            except ForeignKeyViolation as exc:
                problems.append(f"{self.name}[{pk}]: {exc}")
            for index in indexes:
                if pk not in index.members(index.key_for(row)):
                    kind = "unique index" if index in self._unique_indexes else "index"
                    problems.append(
                        f"{self.name}[{pk}]: missing from {kind} {index.name}"
                    )
        for index in indexes:
            where = f"{self.name}: index {index.name}"
            problems += [f"{where}: {p}" for p in index.structure_problems()]
            for key, bucket in index.entries():
                for pk in bucket:
                    row = getattr(self._rows.get(pk), "row", None)
                    if row is None or index.key_for(row) != key:
                        problems.append(f"{where}: {pk!r} filed under {key!r}")
        return problems

    # -- statistics ------------------------------------------------------------

    def version_statistics(self) -> dict[str, int]:
        """Chain shape counters for the admin console / tests.

        Only the chains in the prune queue or under an open transaction
        can hold more than one version or a tombstone, so only those are
        walked; every other chain is one live version.  Caller holds the
        writer lock."""
        chains = nodes = len(self._rows)
        tombstones = 0
        multi = 0
        walked = {pk for _seq, pk in self._prunable}
        walked.update(map(self._pk_of, self._uncommitted))
        for pk in walked:
            node = self._rows.get(pk)
            if node is None:
                continue
            multi += node.older is not None
            nodes -= 1
            while node is not None:
                nodes += 1
                tombstones += node.row is None
                node = node.older
        return {
            "chains": chains,
            "nodes": nodes,
            "tombstones": tombstones,
            "superseded_versions": nodes - chains,
            "multi_version_chains": multi,
        }
