"""Transactions: atomic multi-table mutations with rollback and savepoints.

The engine is single-writer: a database-wide re-entrant lock is held
from a transaction's first write (or, by default, from
:meth:`~repro.storage.database.Database.transaction` itself) until it
ends.  A transaction is bound to the thread that opened it: a
transaction opened on that thread while it is open is a nested block of
it (a savepoint), never a second commit.  Inside one, every mutation is
applied immediately to the live tables and an undo entry is recorded;
rollback replays the undo log in reverse, and commit hands the redo log
to the write-ahead log for durability.

Referential delete actions live here because they span tables: deleting a
row consults the database's reverse foreign-key map and either refuses
(``restrict``), recursively deletes (``cascade``), or nulls the
referencing column (``set_null``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.errors import (
    ForeignKeyViolation,
    RowNotFound,
    TransactionError,
    WalWriteError,
)
from repro.storage.table import UndoEntry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracing import TraceContext
    from repro.storage.database import Database


class CommitEvent:
    """One commit-feed entry: what a commit changed and what it logged.

    ``ops`` is the commit's :class:`UndoEntry` list, or ``None`` when
    the state was replaced wholesale.  ``record`` is the dict the WAL
    line encodes and ``nbytes`` that line's length; both are empty
    (``None``, 0) when nothing was logged.  A local commit's record is
    derived from ``ops`` on first read, through the op encoder the WAL
    line was streamed with, so a feed nobody reads a record from never
    builds one; a replicated apply's is the received record verbatim.
    Listeners share the record and must not mutate it.  ``trace`` is
    the trace context the commit ran under, if any.
    """

    __slots__ = ("seq", "ops", "nbytes", "trace", "_record", "_derive")

    def __init__(
        self,
        seq: int,
        ops: "list[UndoEntry] | None",
        nbytes: int,
        trace: "TraceContext | None",
        *,
        record: "dict[str, Any] | None" = None,
        derive: "Callable[[], dict[str, Any]] | None" = None,
    ):
        self.seq = seq
        self.ops = ops
        self.nbytes = nbytes
        self.trace = trace
        self._record = record
        self._derive = derive

    @property
    def record(self) -> "dict[str, Any] | None":
        if self._record is None and self._derive is not None:
            self._record = self._derive()
            self._derive = None
        return self._record


#: Signature of commit-feed listeners registered on the database.
CommitListener = Callable[[CommitEvent], None]

_ACTIVE = "active"
_COMMITTED = "committed"
_ROLLED_BACK = "rolled_back"


class Transaction:
    """One atomic unit of work.  Obtain via ``Database.transaction()``.

    The first transaction a thread opens is its *root*: it holds the
    writer lock from its first write (see ``Database.transaction``'s
    *defer_lock*) until it ends, and its commit makes the log durable.
    While it is open, every further ``Database.transaction()`` on that
    thread opens a *nested* block over the same log.  A nested block is
    a savepoint: a clean exit (or :meth:`commit`) keeps its writes in
    the root, an escaping exception (or :meth:`rollback`) undoes just
    them.  Each block names its own savepoints, and can return to no
    position before it began.
    """

    def __init__(
        self, database: "Database", *, outer: "Transaction | None" = None
    ):
        self._db = database
        #: Set when the root takes the writer lock: its id, and a
        #: monotonic timer the database reads at commit to record
        #: end-to-end transaction latency.
        self.txn_id = 0 if outer is None else outer._root.txn_id
        self.timer = None
        self._state = _ACTIVE
        self._savepoints: dict[str, int] = {}
        if outer is None:
            self._root = self
            self._log: list[UndoEntry] = []
            #: Whether this root holds the writer lock.
            self.holds_writer = False
        else:
            self._root = outer._root
            self._log = self._root._log
        self._mark = len(self._log)

    # -- state ----------------------------------------------------------------

    @property
    def is_active(self) -> bool:
        return self._state == _ACTIVE and self._root._state == _ACTIVE

    def _require_active(self) -> None:
        if not self.is_active:
            state = self._state if self._state != _ACTIVE else self._root._state
            raise TransactionError(
                f"transaction #{self.txn_id} is {state}, not active"
            )

    def _require_writer(self) -> None:
        """Active, and the root holds the writer lock (taken now if not)."""
        self._require_active()
        if not self._root.holds_writer:
            self._db._take_writer(self._root)

    # -- mutations --------------------------------------------------------------

    def insert(self, table: str, values: dict[str, Any]) -> dict[str, Any]:
        """Insert *values* into *table*; returns the stored row (with pk)."""
        self._require_writer()
        row, undo = self._db.table(table).apply_insert(values)
        self._log.append(undo)
        return row

    def update(self, table: str, pk: Any, changes: dict[str, Any]) -> dict[str, Any]:
        """Apply *changes* to row *pk* of *table*; returns the new row."""
        self._require_writer()
        row, undo = self._db.table(table).apply_update(pk, changes)
        self._log.append(undo)
        return row

    def delete(self, table: str, pk: Any) -> dict[str, Any]:
        """Delete row *pk* of *table*, honouring referential actions.

        Returns the deleted row.  ``restrict`` references raise
        :class:`ForeignKeyViolation` before anything is touched; cascades
        and set-nulls are applied depth-first and roll back with the rest
        of the transaction.
        """
        self._require_writer()
        return self._delete_recursive(table, pk, chain=set())

    def _delete_recursive(
        self, table: str, pk: Any, *, chain: set[tuple[str, Any]]
    ) -> dict[str, Any]:
        key = (table, pk)
        if key in chain:
            # Cycle in cascade graph: this row is already being deleted.
            return self._db.table(table).get(pk)
        chain.add(key)

        tbl = self._db.table(table)
        if pk not in tbl:
            raise RowNotFound(table, pk)

        for ref_table, ref_column, on_delete in self._db.referencing(table):
            ref = self._db.table(ref_table)
            index = ref.hash_index_for((ref_column,))
            if index is not None:
                ref_pks = index.lookup((pk,))
            else:
                # Read-only scan: use the internal rows directly instead
                # of per-row copies.
                ref_pks = {
                    rpk
                    for rpk, row in ref.raw_items()
                    if row.get(ref_column) == pk
                }
            ref_pks = {
                rpk for rpk in ref_pks if (ref_table, rpk) not in chain
            }
            if not ref_pks:
                continue
            if on_delete == "restrict":
                raise ForeignKeyViolation(
                    f"cannot delete {table}[{pk!r}]: referenced by "
                    f"{len(ref_pks)} row(s) of {ref_table}.{ref_column}",
                    table=table,
                    constraint=f"fk_{ref_table}_{ref_column}",
                )
            if on_delete == "cascade":
                for rpk in sorted(ref_pks, key=repr):
                    self._delete_recursive(ref_table, rpk, chain=chain)
            elif on_delete == "set_null":
                for rpk in sorted(ref_pks, key=repr):
                    _, undo = ref.apply_update(rpk, {ref_column: None})
                    self._log.append(undo)

        row, undo = tbl.apply_delete(pk)
        self._log.append(undo)
        return row

    # -- reads (within the transaction's view) -----------------------------------

    def get(self, table: str, pk: Any) -> dict[str, Any]:
        """Read a row; the engine is single-writer so this sees own writes."""
        self._require_active()
        return self._db.table(table).get(pk)

    # -- savepoints ---------------------------------------------------------------

    def savepoint(self, name: str) -> None:
        """Mark the current position; a later rollback can return here."""
        self._require_active()
        self._savepoints[name] = len(self._log)

    def rollback_to(self, name: str) -> None:
        """Undo everything applied since :meth:`savepoint` *name* (one
        this block took: an outer block's savepoints are not its own)."""
        self._require_active()
        if name not in self._savepoints:
            raise TransactionError(f"no savepoint named {name!r}")
        position = self._savepoints[name]
        if position < self._mark or position > len(self._log):
            raise TransactionError(
                f"savepoint {name!r} is outside this transaction's writes"
            )
        self._rewind(position)

    def _rewind(self, position: int) -> None:
        """Undo the ops logged after *position*; this block's savepoints
        taken after it go too."""
        while len(self._log) > position:
            entry = self._log.pop()
            self._db.table(entry.table).apply_undo(entry)
        for name in [n for n, pos in self._savepoints.items() if pos > position]:
            del self._savepoints[name]

    # -- lifecycle -------------------------------------------------------------------

    def commit(self) -> None:
        """End the transaction.  A root makes its log durable and
        releases the writer lock; a nested block leaves its writes to
        the outer transaction."""
        self._require_active()
        self._state = _COMMITTED
        if self._root is not self:
            return
        try:
            self._db._finish_commit(self)
        except WalWriteError as exc:
            # The WAL append failed while the writer lock was still
            # held: the in-memory state must not claim durability it
            # does not have.  Undo, release, and surface the cause.
            self._rewind(self._mark)
            self._state = _ROLLED_BACK
            self._db._finish_abort(self)
            raise (exc.__cause__ or exc) from None
        # Any other failure happens after the lock release (the
        # group-fsync wait): the transaction is committed in memory and
        # cannot be unwound here, so the error propagates with the
        # committed state intact.  Commit-feed listeners never fail a
        # commit; the database logs and counts what they raise.

    def rollback(self) -> None:
        """Undo every mutation of this transaction (of a nested block:
        of the block alone); a root releases the writer lock."""
        self._require_active()
        self._rewind(self._mark)
        self._state = _ROLLED_BACK
        if self._root is self:
            self._db._finish_abort(self)

    @property
    def operations(self) -> list[UndoEntry]:
        """The mutations applied so far (of a nested block: since it
        began) — the redo log for the WAL."""
        return self._log[self._mark:]

    # -- context manager --------------------------------------------------------------

    def __enter__(self) -> "Transaction":
        self._require_active()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self.is_active:
            # Caller already committed or rolled back explicitly.
            return False
        if exc_type is None:
            self.commit()
        else:
            self.rollback()
        return False
