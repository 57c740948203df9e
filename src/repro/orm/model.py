"""Declarative model base class.

A model class collects its :class:`~repro.orm.fields.Field` attributes
(including inherited ones), derives the table name, and can convert
between instances and row dicts.  Extra schema artifacts — composite
indexes, multi-column unique constraints, table checks — are declared
via ``__indexes__``, ``__unique_together__``, and ``__checks__``.
"""

from __future__ import annotations

from typing import Any, ClassVar, Iterable, Iterator

from repro.errors import SchemaError
from repro.orm.fields import Field
from repro.storage.schema import CheckConstraint, TableSchema


class ModelMeta(type):
    """Collects fields at class-creation time."""

    def __new__(mcls, name, bases, namespace, **kwargs):
        cls = super().__new__(mcls, name, bases, namespace, **kwargs)
        fields: dict[str, Field] = {}
        for base in reversed(cls.__mro__[1:]):
            fields.update(getattr(base, "__fields__", {}))
        for attr, value in namespace.items():
            if isinstance(value, Field):
                fields[attr] = value
        cls.__fields__ = fields
        if "__table__" not in namespace and fields:
            # Default table name: snake_case of the class name.
            table = "".join(
                f"_{ch.lower()}" if ch.isupper() else ch for ch in name
            ).lstrip("_")
            cls.__table__ = table
        return cls


class Model(metaclass=ModelMeta):
    """Base for all persistent entities."""

    __table__: ClassVar[str] = ""
    __fields__: ClassVar[dict[str, Field]] = {}
    __indexes__: ClassVar[list] = []
    __unique_together__: ClassVar[list] = []
    __checks__: ClassVar[list[CheckConstraint]] = []
    __doc_line__: ClassVar[str] = ""

    def __init__(self, **values: Any):
        unknown = set(values) - set(self.__fields__)
        if unknown:
            raise SchemaError(
                f"{type(self).__name__} has no field(s) {sorted(unknown)!r}"
            )
        for name, field in self.__fields__.items():
            if name in values:
                setattr(self, name, values[name])
            elif not field.primary_key:
                setattr(self, name, field.default_value_for_instance())

    # -- class-level schema ----------------------------------------------------

    @classmethod
    def schema(cls) -> TableSchema:
        """Build the storage schema for this model."""
        if not cls.__fields__:
            raise SchemaError(f"model {cls.__name__} declares no fields")
        columns = [field.to_column() for field in cls.__fields__.values()]
        indexes = list(cls.__indexes__)
        indexes.extend(
            field.name
            for field in cls.__fields__.values()
            if field.index and not field.primary_key
        )
        # FK columns are implicitly indexed: referential actions and the
        # common "children of X" query both need the lookup.
        for field in cls.__fields__.values():
            if field.foreign_key is not None and field.name not in indexes:
                indexes.append(field.name)
        doc_lines = (cls.__doc__ or "").strip().splitlines()
        doc = cls.__doc_line__ or (doc_lines[0] if doc_lines else "")
        return TableSchema(
            name=cls.__table__,
            columns=columns,
            indexes=indexes,
            unique_together=list(cls.__unique_together__),
            checks=list(cls.__checks__),
            doc=doc,
        )

    @classmethod
    def primary_key_name(cls) -> str:
        for name, field in cls.__fields__.items():
            if field.primary_key:
                return name
        raise SchemaError(f"model {cls.__name__} has no primary key")

    @classmethod
    def field_names(cls) -> list[str]:
        return list(cls.__fields__)

    @classmethod
    def foreign_key_fields(cls) -> Iterator[Field]:
        for field in cls.__fields__.values():
            if field.foreign_key is not None:
                yield field

    # -- conversion ---------------------------------------------------------------

    @classmethod
    def from_rows(
        cls, rows: Iterable[dict[str, Any]], columns: Iterable[str]
    ) -> list[Any]:
        """One model per row of *rows*, in one loop.

        *rows* may be shared — the immutable version payloads the
        storage layer and its query cache hand out — so they are never
        aliased: each model's ``__dict__`` is one C-level copy of its
        row.  *columns* names every key the rows may carry (their
        table's schema columns).  Only when it holds a column this
        model does not declare (added by a migration's ``add_column``)
        are rows filtered field by field.  A row lacking a field (a
        snapshot pinned before ``add_column``) leaves it unset.
        """
        new = cls.__new__
        models = []
        append = models.append
        if cls.__fields__.keys() >= set(columns):
            for row in rows:
                model = new(cls)
                model.__dict__ = dict(row)
                append(model)
        else:
            fields = cls.__fields__
            for row in rows:
                model = new(cls)
                model.__dict__ = {
                    name: row[name] for name in fields if name in row
                }
                append(model)
        return models

    @classmethod
    def from_row(cls, row: dict[str, Any]) -> "Model":
        """One model from *row*, which is copied (see :meth:`from_rows`)."""
        return cls.from_rows((row,), row.keys())[0]

    def to_row(self, *, include_unset: bool = False) -> dict[str, Any]:
        row: dict[str, Any] = {}
        for name in self.__fields__:
            if name in self.__dict__:
                row[name] = self.__dict__[name]
            elif include_unset:
                row[name] = None
        return row

    @property
    def pk(self) -> Any:
        """The value of the primary-key field (or ``None`` before insert)."""
        return self.__dict__.get(self.primary_key_name())

    # -- dunder --------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        return self.to_row() == other.to_row()  # type: ignore[union-attr]

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}={self.__dict__[name]!r}"
            for name in self.__fields__
            if name in self.__dict__
        )
        return f"{type(self).__name__}({parts})"


def _field_default(self: Field) -> Any:
    if callable(self.default):
        return self.default()
    return self.default


# Attach lazily to avoid a Field<->Model import cycle in fields.py.
Field.default_value_for_instance = _field_default  # type: ignore[attr-defined]
