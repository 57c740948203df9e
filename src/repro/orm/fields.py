"""Field descriptors for declarative models.

Each field knows how to render itself as a storage
:class:`~repro.storage.schema.Column`.  Fields are *non-data*
descriptors (no ``__set__``): model instances keep values in
``__dict__``, which then answers every read of a set field in C —
``vars(instance)`` and ``dataclass``-style reprs stay unsurprising, and
``Field.__get__`` runs only for a field that was never set.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.storage.schema import Column, ForeignKey
from repro.storage.types import ColumnType


class Field:
    """Base declarative field.  Subclasses fix the column type."""

    column_type: ColumnType = ColumnType.TEXT

    def __init__(
        self,
        *,
        primary_key: bool = False,
        nullable: bool = True,
        unique: bool = False,
        default: Any = None,
        foreign_key: "str | ForeignKey | None" = None,
        index: bool = False,
        check: Callable[[Any], bool] | None = None,
        doc: str = "",
    ):
        self.primary_key = primary_key
        self.nullable = nullable
        self.unique = unique
        self.default = default
        self.foreign_key = foreign_key
        self.index = index
        self.check = check
        self.doc = doc
        self.name = ""  # filled by __set_name__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance: Any, owner: type | None = None) -> Any:
        if instance is None:
            return self
        try:
            return instance.__dict__[self.name]
        except KeyError:
            raise AttributeError(
                f"{owner.__name__ if owner else '?'}.{self.name} is unset"
            ) from None

    def to_column(self) -> Column:
        """Render this field as a storage column."""
        return Column(
            name=self.name,
            type=self.column_type,
            primary_key=self.primary_key,
            nullable=self.nullable,
            unique=self.unique,
            default=self.default,
            foreign_key=self.foreign_key,
            check=self.check,
            doc=self.doc,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


class IntField(Field):
    column_type = ColumnType.INT


class FloatField(Field):
    column_type = ColumnType.FLOAT


class TextField(Field):
    column_type = ColumnType.TEXT


class BoolField(Field):
    column_type = ColumnType.BOOL


class DateTimeField(Field):
    column_type = ColumnType.DATETIME


class JsonField(Field):
    column_type = ColumnType.JSON
