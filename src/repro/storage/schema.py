"""Table schema declarations: columns, constraints, index specs.

A :class:`TableSchema` is a passive description; the engine compiles it
into a live :class:`~repro.storage.table.Table`.  Schemas validate
themselves eagerly so misdeclared tables fail at ``create_table`` time,
not first write.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.errors import SchemaError
from repro.storage.types import ColumnType

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")


def _check_identifier(name: str, kind: str) -> str:
    if not _NAME_RE.match(name):
        raise SchemaError(
            f"{kind} name {name!r} is invalid: use lower_snake_case"
        )
    return name


@dataclass(frozen=True)
class ForeignKey:
    """Declares that a column references another table's primary key.

    ``on_delete`` is one of ``"restrict"`` (default — deleting a referenced
    row fails), ``"cascade"`` (referencing rows are deleted too), or
    ``"set_null"`` (the referencing column is nulled, requires a nullable
    column).
    """

    table: str
    column: str = "id"
    on_delete: str = "restrict"

    def __post_init__(self) -> None:
        if self.on_delete not in ("restrict", "cascade", "set_null"):
            raise SchemaError(
                f"on_delete must be restrict/cascade/set_null, got {self.on_delete!r}"
            )

    @classmethod
    def parse(cls, spec: "str | ForeignKey") -> "ForeignKey":
        """Accept ``"table.column"`` shorthand or a full instance."""
        if isinstance(spec, ForeignKey):
            return spec
        if "." in spec:
            table, column = spec.split(".", 1)
        else:
            table, column = spec, "id"
        return cls(table=table, column=column)


@dataclass
class Column:
    """One column of a table.

    ``default`` may be a value or a zero-argument callable evaluated per
    insert.  ``check`` is an optional per-column predicate.
    """

    name: str
    type: ColumnType
    primary_key: bool = False
    nullable: bool = True
    unique: bool = False
    default: Any = None
    foreign_key: "str | ForeignKey | None" = None
    check: Callable[[Any], bool] | None = None
    doc: str = ""

    def __post_init__(self) -> None:
        _check_identifier(self.name, "column")
        if self.primary_key:
            # PKs are implicitly unique and non-null.
            self.nullable = False
            self.unique = True
        if self.foreign_key is not None:
            self.foreign_key = ForeignKey.parse(self.foreign_key)
            if self.foreign_key.on_delete == "set_null" and not self.nullable:
                raise SchemaError(
                    f"column {self.name!r}: on_delete=set_null requires a "
                    "nullable column"
                )

    def default_value(self) -> Any:
        """Evaluate the declared default for a new row."""
        if callable(self.default):
            return self.default()
        return self.default


@dataclass
class CheckConstraint:
    """A named row-level predicate evaluated on insert and update."""

    name: str
    predicate: Callable[[dict[str, Any]], bool]
    description: str = ""


@dataclass
class TableSchema:
    """The full declaration of one table.

    ``indexes`` lists non-unique secondary indexes; each entry is either a
    column name or a tuple of column names for a composite (hash) index.
    ``ordered`` lists ordered (range-capable) indexes the same way.  A
    single column named in either list gets one ordered index, which
    answers equality, ranges and ORDER BY alike, so ``ordered`` matters
    for **composite** ordered indexes, which give the planner prefix
    seeks (equality on a key prefix + range on the next column) and
    covering reads.
    ``unique_together`` declares multi-column unique constraints.
    """

    name: str
    columns: Sequence[Column]
    indexes: Sequence[str | tuple[str, ...]] = field(default_factory=list)
    ordered: Sequence[str | tuple[str, ...]] = field(default_factory=list)
    unique_together: Sequence[tuple[str, ...]] = field(default_factory=list)
    checks: Sequence[CheckConstraint] = field(default_factory=list)
    doc: str = ""

    def __post_init__(self) -> None:
        _check_identifier(self.name, "table")
        if not self.columns:
            raise SchemaError(f"table {self.name!r} has no columns")
        seen: set[str] = set()
        for col in self.columns:
            if col.name in seen:
                raise SchemaError(
                    f"table {self.name!r}: duplicate column {col.name!r}"
                )
            seen.add(col.name)
        pks = [c for c in self.columns if c.primary_key]
        if len(pks) != 1:
            raise SchemaError(
                f"table {self.name!r} must declare exactly one primary key, "
                f"found {len(pks)}"
            )
        if pks[0].type not in (ColumnType.INT, ColumnType.TEXT):
            raise SchemaError(
                f"table {self.name!r}: primary key must be INT or TEXT"
            )
        for spec in self.index_specs() + self.ordered_index_specs():
            for col_name in spec:
                if col_name not in seen:
                    raise SchemaError(
                        f"table {self.name!r}: index on unknown column "
                        f"{col_name!r}"
                    )
        for group in self.unique_together:
            for col_name in group:
                if col_name not in seen:
                    raise SchemaError(
                        f"table {self.name!r}: unique_together on unknown "
                        f"column {col_name!r}"
                    )
        # Name -> Column map for O(1) lookups on hot paths (WAL encode
        # touches every column of every row).  Schema evolution builds a
        # fresh TableSchema, so the map never goes stale.
        self._column_map = {c.name: c for c in self.columns}
        # The only columns whose values the WAL and the checkpoint must
        # encode; a table without one writes its payloads as they are.
        self.datetime_columns = tuple(
            c.name for c in self.columns if c.type is ColumnType.DATETIME
        )

    # -- introspection -----------------------------------------------------

    @property
    def primary_key(self) -> Column:
        """The table's primary-key column."""
        return next(c for c in self.columns if c.primary_key)

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        """Return the column *name* or raise :class:`SchemaError`."""
        col = self._column_map.get(name)
        if col is None:
            raise SchemaError(f"table {self.name!r} has no column {name!r}")
        return col

    def has_column(self, name: str) -> bool:
        return name in self._column_map

    @staticmethod
    def _normalize_specs(
        entries: "Sequence[str | tuple[str, ...]]",
    ) -> list[tuple[str, ...]]:
        specs: list[tuple[str, ...]] = []
        for entry in entries:
            if isinstance(entry, str):
                specs.append((entry,))
            else:
                specs.append(tuple(entry))
        return specs

    def index_specs(self) -> list[tuple[str, ...]]:
        """Normalize ``indexes`` entries to tuples of column names."""
        return self._normalize_specs(self.indexes)

    def ordered_index_specs(self) -> list[tuple[str, ...]]:
        """Normalize ``ordered`` entries to tuples of column names."""
        return self._normalize_specs(self.ordered)

    def foreign_keys(self) -> Iterable[tuple[Column, ForeignKey]]:
        """Yield ``(column, fk)`` for every FK-bearing column."""
        for col in self.columns:
            if col.foreign_key is not None:
                assert isinstance(col.foreign_key, ForeignKey)
                yield col, col.foreign_key
