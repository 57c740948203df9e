"""Transactions: atomic multi-table mutations with rollback and savepoints.

The engine is single-writer: a database-wide re-entrant lock is held for
the duration of a transaction (acquired in
:meth:`~repro.storage.database.Database.transaction`).  Inside one, every
mutation is applied immediately to the live tables and an undo entry is
recorded; rollback replays the undo log in reverse, and commit hands the
redo log to the write-ahead log for durability.

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
    """One atomic unit of work.  Obtain via ``Database.transaction()``."""

    def __init__(self, database: "Database", txn_id: int, *, timer=None):
        self._db = database
        self.txn_id = txn_id
        #: Monotonic timer started at begin; the database reads it at
        #: commit to record end-to-end transaction latency.
        self.timer = timer
        self._log: list[UndoEntry] = []
        self._state = _ACTIVE
        self._savepoints: dict[str, int] = {}

    # -- state ----------------------------------------------------------------

    @property
    def is_active(self) -> bool:
        return self._state == _ACTIVE

    def _require_active(self) -> None:
        if self._state != _ACTIVE:
            raise TransactionError(
                f"transaction #{self.txn_id} is {self._state}, not active"
            )

    # -- mutations --------------------------------------------------------------

    def insert(self, table: str, values: dict[str, Any]) -> dict[str, Any]:
        """Insert *values* into *table*; returns the stored row (with pk)."""
        self._require_active()
        row, undo = self._db.table(table).apply_insert(values)
        self._log.append(undo)
        return row

    def update(self, table: str, pk: Any, changes: dict[str, Any]) -> dict[str, Any]:
        """Apply *changes* to row *pk* of *table*; returns the new row."""
        self._require_active()
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
        self._require_active()
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
        """Undo everything applied since :meth:`savepoint` *name*."""
        self._require_active()
        if name not in self._savepoints:
            raise TransactionError(f"no savepoint named {name!r}")
        mark = self._savepoints[name]
        while len(self._log) > mark:
            entry = self._log.pop()
            self._db.table(entry.table).apply_undo(entry)
        # Savepoints taken after the mark are now invalid.
        self._savepoints = {
            sp_name: pos for sp_name, pos in self._savepoints.items() if pos <= mark
        }

    # -- lifecycle -------------------------------------------------------------------

    def commit(self) -> None:
        """Make the transaction durable and release the writer lock."""
        self._require_active()
        self._state = _COMMITTED
        try:
            self._db._finish_commit(self)
        except WalWriteError as exc:
            # The WAL append failed while the writer lock was still
            # held: the in-memory state must not claim durability it
            # does not have.  Undo, release, and surface the cause.
            self._state = _ACTIVE
            self._rollback_log()
            self._state = _ROLLED_BACK
            self._db._finish_abort(self)
            raise (exc.__cause__ or exc) from None
        # Any other failure happens after the lock release (the
        # group-fsync wait): the transaction is committed in memory and
        # cannot be unwound here, so the error propagates with the
        # committed state intact.  Commit-feed listeners never fail a
        # commit; the database logs and counts what they raise.

    def rollback(self) -> None:
        """Undo every mutation of this transaction and release the lock."""
        self._require_active()
        self._rollback_log()
        self._state = _ROLLED_BACK
        self._db._finish_abort(self)

    def _rollback_log(self) -> None:
        while self._log:
            entry = self._log.pop()
            self._db.table(entry.table).apply_undo(entry)

    @property
    def operations(self) -> list[UndoEntry]:
        """The mutations applied so far (redo log for the WAL)."""
        return list(self._log)

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
