"""Typed CRUD over one model.

Repositories return model instances, not raw rows, and expose a typed
variant of the storage query builder.  Each write joins the calling
thread's open transaction, or runs as its own single-statement one.
"""

from __future__ import annotations

from typing import Any, Generic, Iterator, Type, TypeVar

from repro.errors import EntityNotFound
from repro.orm.model import Model
from repro.storage.database import Database
from repro.storage.query import Condition, Query
from repro.storage.table import bound_snapshot

M = TypeVar("M", bound=Model)


class ModelQuery(Generic[M]):
    """Wraps a storage :class:`Query`, materializing model instances."""

    def __init__(self, model: Type[M], query: Query):
        self._model = model
        self._query = query

    def where(self, column: str, op: str = "=", value: Any = None) -> "ModelQuery[M]":
        self._query.where(column, op, value)
        return self

    def filter(self, *conditions: Condition) -> "ModelQuery[M]":
        self._query.filter(*conditions)
        return self

    def order_by(self, column: str, *, descending: bool = False) -> "ModelQuery[M]":
        self._query.order_by(column, descending=descending)
        return self

    def limit(self, n: int) -> "ModelQuery[M]":
        self._query.limit(n)
        return self

    def offset(self, n: int) -> "ModelQuery[M]":
        self._query.offset(n)
        return self

    def all(self) -> list[M]:
        # The schema is read after the rows: columns are only ever
        # added, so it covers every key the rows can carry.
        rows = self._query.shared_rows()
        return self._model.from_rows(rows, self._query.columns)

    def first(self) -> M | None:
        row = self._query.first()
        return self._model.from_row(row) if row is not None else None

    def one(self) -> M:
        return self._model.from_row(self._query.one())

    def count(self) -> int:
        return self._query.count()

    def exists(self) -> bool:
        return self._query.exists()

    def pks(self) -> list[Any]:
        return self._query.pks()

    def values(self, column: str) -> list[Any]:
        return self._query.values(column)

    def explain(self) -> dict[str, Any]:
        return self._query.explain()


class Repository(Generic[M]):
    """CRUD + queries for one model bound to one database."""

    def __init__(self, database: Database, model: Type[M]):
        self.database = database
        self.model = model
        self.table = model.__table__
        self._pk = model.primary_key_name()

    # -- reads -------------------------------------------------------------------

    def get(self, pk: Any) -> M:
        instance = self.get_or_none(pk)
        if instance is None:
            raise EntityNotFound(self.model.__name__, pk)
        return instance

    def get_or_none(self, pk: Any) -> M | None:
        # The payload Database.get_or_none reads — at the bound read
        # view's snapshot, else the latest version; from_rows makes the
        # only copy.  Resolved before the schema is read (see
        # ModelQuery.all).
        view = bound_snapshot()
        table = self.database.table(self.table)
        if view is None:
            rows = tuple(table.raw_rows((pk,)))
        else:
            row = view.raw_row(self.table, pk)
            rows = () if row is None else (row,)
        models = self.model.from_rows(rows, table.schema.column_names)
        return models[0] if models else None

    def exists(self, pk: Any) -> bool:
        return self.database.get_or_none(self.table, pk) is not None

    def query(self) -> ModelQuery[M]:
        """Typed query (at the bound read view's snapshot, if any)."""
        return ModelQuery(self.model, self.database.query(self.table))

    def all(self) -> list[M]:
        return self.query().all()

    def count(self) -> int:
        return self.database.count(self.table)

    def iter(self) -> Iterator[M]:
        for row in self.database.rows(self.table):
            yield self.model.from_row(row)

    def find(self, **equals: Any) -> list[M]:
        """Shorthand for equality filters: ``repo.find(project_id=3)``."""
        query = self.query()
        for column, value in equals.items():
            query.where(column, "=", value)
        return query.all()

    def find_one(self, **equals: Any) -> M | None:
        query = self.query()
        for column, value in equals.items():
            query.where(column, "=", value)
        return query.first()

    # -- writes -------------------------------------------------------------------

    def create(self, **values: Any) -> M:
        """Insert a new entity and return it (with its allocated pk)."""
        instance = self.model(**values)
        stored = self.database.insert(self.table, instance.to_row())
        return self.model.from_row(stored)

    def save(self, instance: M) -> M:
        """Insert (no pk yet) or update (pk set) *instance*."""
        row = instance.to_row()
        pk = row.get(self._pk)
        if pk is None or self.database.get_or_none(self.table, pk) is None:
            stored = self.database.insert(self.table, row)
        else:
            changes = {k: v for k, v in row.items() if k != self._pk}
            stored = self.database.update(self.table, pk, changes)
        refreshed = self.model.from_row(stored)
        instance.__dict__.update(refreshed.__dict__)
        return instance

    def update(self, pk: Any, **changes: Any) -> M:
        stored = self.database.update(self.table, pk, changes)
        return self.model.from_row(stored)

    def delete(self, pk: Any) -> None:
        if self.database.get_or_none(self.table, pk) is None:
            raise EntityNotFound(self.model.__name__, pk)
        self.database.delete(self.table, pk)
