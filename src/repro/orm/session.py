"""Unit-of-work session with an identity map and repeatable reads.

A :class:`Session` batches reads and writes over many models inside one
storage transaction.  Within a session, loading the same row twice
returns the same Python object (identity map), and all writes commit or
roll back together.  Opened while the thread already has a transaction
(a portal write request), the session is a nested block of it: its
writes commit with that transaction, and its rollback undoes only them.

Every session additionally pins an MVCC snapshot at :meth:`begin`, so
its reads are **repeatable**: commits made by other threads while the
session is open stay invisible.  A read-write session pins the snapshot
right after acquiring the writer lock (its view therefore includes
every commit that preceded it); reads of tables the session itself has
modified go through the live transaction so the session always sees its
own writes.  A ``readonly=True`` session skips the transaction — and
the writer lock — entirely and serves every read from the snapshot,
which makes it safe to hold open during long report generation without
stalling writers.

::

    with Session(registry) as session:
        project = session.get(Project, 7)
        sample = session.add(Sample(name="wt light 1", project_id=project.id))
    # committed here; any exception inside the block rolls everything back

    with Session(registry, readonly=True) as view:
        rows = view.query(Sample).where("project_id", "=", 7).all()
        # repeatable: same result for the lifetime of the session
"""

from __future__ import annotations

from typing import Any, Type, TypeVar

from repro.errors import EntityNotFound, TransactionError
from repro.orm.model import Model
from repro.orm.registry import Registry
from repro.storage.snapshot import Snapshot
from repro.storage.transaction import Transaction

M = TypeVar("M", bound=Model)


class Session:
    """One unit of work over a registry's database."""

    def __init__(self, registry: Registry, *, readonly: bool = False):
        self.registry = registry
        self.readonly = readonly
        self._txn: Transaction | None = None
        self._snapshot: Snapshot | None = None
        self._identity: dict[tuple[str, Any], Model] = {}

    # -- lifecycle ---------------------------------------------------------------

    def begin(self) -> "Session":
        if self._txn is not None or self._snapshot is not None:
            raise TransactionError("session already has an open transaction")
        if not self.readonly:
            self._txn = self.registry.database.transaction()
        self._snapshot = self.registry.database.snapshot()
        return self

    def _finish(self) -> None:
        if self._snapshot is not None:
            self._snapshot.close()
            self._snapshot = None
        self._identity.clear()

    def commit(self) -> None:
        if self.readonly:
            if self._snapshot is None:
                raise TransactionError("session has not begun")
            self._finish()
            return
        if self._txn is None:
            raise TransactionError("no open transaction to commit")
        self._txn.commit()
        self._txn = None
        self._finish()

    def rollback(self) -> None:
        if self.readonly:
            if self._snapshot is None:
                raise TransactionError("session has not begun")
            self._finish()
            return
        if self._txn is None:
            raise TransactionError("no open transaction to roll back")
        self._txn.rollback()
        self._txn = None
        self._finish()

    def close(self) -> None:
        """Release the session: roll back an open transaction, drop the
        pinned snapshot.  Idempotent."""
        if self._txn is not None:
            self.rollback()
        else:
            self._finish()

    def __enter__(self) -> "Session":
        return self.begin()

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._txn is not None:
            if exc_type is None:
                self.commit()
            else:
                self.rollback()
        else:
            self._finish()
        return False

    @property
    def transaction(self) -> Transaction:
        if self._txn is None:
            raise TransactionError("session has no open transaction")
        return self._txn

    @property
    def snapshot(self) -> Snapshot | None:
        """The pinned read view, or ``None`` before :meth:`begin`."""
        return self._snapshot

    # -- reads ---------------------------------------------------------------------

    def _read_row(self, table: str, pk: Any) -> dict[str, Any] | None:
        """Snapshot read unless *this session* has written to *table*.

        The live fallback exists for read-your-writes: a dirty table
        while we hold an open transaction means our own uncommitted
        changes, which the session must see.  Without a transaction
        (readonly sessions) a dirty table is some *other* thread's
        in-flight work — reading live would leak its uncommitted rows
        and break repeatable-read, so the snapshot always wins.
        """
        database = self.registry.database
        snap = self._snapshot
        if snap is not None and (
            self._txn is None or not database.table_dirty(table)
        ):
            return snap.get_or_none(table, pk)
        return database.get_or_none(table, pk)

    def get(self, model: Type[M], pk: Any) -> M:
        """Load an entity; repeated loads return the identical object."""
        key = (model.__table__, pk)
        cached = self._identity.get(key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        row = self._read_row(model.__table__, pk)
        if row is None:
            raise EntityNotFound(model.__name__, pk)
        instance = model.from_row(row)
        self._identity[key] = instance
        return instance

    def query(self, model: Type[M]):
        """Typed query evaluated at this session's pinned snapshot.

        Falls back to the live state only for tables *this session's
        own transaction* has modified (read-your-writes) or when no
        snapshot is pinned; another thread's dirty table never pulls a
        readonly session off its snapshot.
        """
        from repro.orm.repository import ModelQuery

        database = self.registry.database
        name = model.__table__
        snap = self._snapshot
        if snap is not None and (
            self._txn is None or not database.table_dirty(name)
        ):
            return ModelQuery(model, database.query(name, snapshot=snap))
        return ModelQuery(model, database.query(name))

    # -- writes ---------------------------------------------------------------------

    def add(self, instance: M) -> M:
        """Insert *instance* within the session's transaction."""
        txn = self.transaction
        stored = txn.insert(instance.__table__, instance.to_row())
        instance.__dict__.update(
            type(instance).from_row(stored).__dict__
        )
        self._identity[(instance.__table__, instance.pk)] = instance
        return instance

    def update(self, instance: M, **changes: Any) -> M:
        """Apply *changes* to a loaded entity within the transaction."""
        txn = self.transaction
        stored = txn.update(instance.__table__, instance.pk, changes)
        instance.__dict__.update(
            type(instance).from_row(stored).__dict__
        )
        return instance

    def flush_update(self, instance: M) -> M:
        """Persist every in-memory field change of *instance*."""
        pk_name = instance.primary_key_name()
        changes = {
            k: v for k, v in instance.to_row().items() if k != pk_name
        }
        return self.update(instance, **changes)

    def delete(self, instance: M) -> None:
        txn = self.transaction
        txn.delete(instance.__table__, instance.pk)
        self._identity.pop((instance.__table__, instance.pk), None)

    def savepoint(self, name: str) -> None:
        self.transaction.savepoint(name)

    def rollback_to(self, name: str) -> None:
        self.transaction.rollback_to(name)
        self._identity.clear()
