"""Snapshot-isolated, lock-free read views.

A :class:`Snapshot` pins the database-wide commit sequence number at
open time and serves every read — point lookups, scans, index-backed
equality lookups, and fluent queries — from the row versions visible at
that number.  It **never acquires the writer lock**: readers stay wait
free while transactions commit, and a pinned scan sees either all of a
concurrent transaction's changes or none of them (it sees none, since
the snapshot predates the commit).

Isolation rests on the version chains maintained by
:class:`~repro.storage.table.Table`:

* every committed version is stamped with the commit sequence number
  that published it; uncommitted versions carry ``None`` and are
  invisible to every snapshot;
* commit stamps versions *before* publishing the new sequence number,
  so a snapshot that observes sequence ``s`` can resolve every version
  at or below ``s`` without synchronisation;
* version payloads are immutable after publication, so zero-copy reads
  can hold references across concurrent commits.

Open snapshots hold back version pruning: the database's horizon is the
oldest live snapshot's sequence number, and chains are only cut below
it.  Close snapshots promptly (use them as context managers) so storage
can reclaim superseded versions.

Index lookups use the live secondary indexes whenever the table has
not committed past the snapshot (:meth:`Table.read_at`, seqlock
guarded): the pks an open transaction touched join the candidates, and
every candidate is resolved at the snapshot with the predicate
re-checked.  Otherwise they fall back to a chain-walking scan, trading
speed for the same correctness.

Fluent queries built from a snapshot go through the same cost-based
planner as live queries, under the same rule.  The chosen plan is
pinned — candidate pks are materialized while the guard holds — so
execution stays correct even if commits land before the rows are
resolved through the version chains.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.errors import RowNotFound, SchemaError
from repro.storage.table import Table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.database import Database
    from repro.storage.query import Query


class Snapshot:
    """An immutable read view over the whole database.

    Obtained via :meth:`Database.snapshot`; usable as a context manager.
    All reads are repeatable: the same call returns the same result for
    the lifetime of the snapshot, regardless of concurrent commits.
    """

    __slots__ = ("_db", "_sid", "_seq", "_closed")

    def __init__(self, database: "Database", sid: int, seq: int):
        self._db = database
        self._sid = sid
        self._seq = seq
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    @property
    def seq(self) -> int:
        """The commit sequence number this view is pinned to."""
        return self._seq

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the snapshot, allowing versions behind it to be pruned.

        Idempotent.  Reads after close raise :class:`SchemaError`.
        """
        if not self._closed:
            self._closed = True
            self._db._release_snapshot(self._sid)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"<Snapshot seq={self._seq} {state}>"

    def _check_open(self) -> None:
        if self._closed:
            raise SchemaError("snapshot is closed")

    def _table(self, name: str) -> Table:
        self._check_open()
        return self._db.table(name)

    # -- reads -------------------------------------------------------------

    def raw_row(self, table: str, pk: Any) -> dict[str, Any] | None:
        """Row *pk* as of this snapshot, uncopied: the immutable version
        payload (same read-only contract as :meth:`Table.raw_rows`)."""
        return self._table(table).row_at(pk, self._seq)

    def get(self, table: str, pk: Any) -> dict[str, Any]:
        """Return a copy of row *pk* as of this snapshot."""
        row = self.raw_row(table, pk)
        if row is None:
            raise RowNotFound(table, pk)
        return dict(row)

    def get_or_none(self, table: str, pk: Any) -> dict[str, Any] | None:
        row = self.raw_row(table, pk)
        return None if row is None else dict(row)

    def contains(self, table: str, pk: Any) -> bool:
        return self._table(table).row_at(pk, self._seq) is not None

    def scan(self, table: str) -> Iterator[dict[str, Any]]:
        """Yield copies of every row visible at this snapshot."""
        tbl = self._table(table)
        for _pk, row in tbl.items_at(self._seq):
            yield dict(row)

    def count(self, table: str) -> int:
        return self._table(table).count_at(self._seq)

    def pks(self, table: str) -> list[Any]:
        return [pk for pk, _row in self._table(table).items_at(self._seq)]

    def lookup(
        self, table: str, columns: "str | tuple[str, ...]", *values: Any
    ) -> list[dict[str, Any]]:
        """Equality lookup, index-backed when the index can answer.

        ``columns`` may be one column name or a tuple (composite
        indexes); *values* matches it positionally.  Uses the live
        hash/unique index while the table has not committed past the
        snapshot (seqlock-guarded); otherwise falls back to a chain
        scan.  Either path returns the same rows.
        """
        if isinstance(columns, str):
            columns = (columns,)
        if len(columns) != len(values):
            raise SchemaError(
                f"lookup on {columns!r} got {len(values)} value(s)"
            )
        tbl = self._table(table)
        pks = None
        for find in (tbl.hash_index_for, tbl.unique_index_for, tbl.ordered_index_for):
            index = find(columns)
            if index is not None:
                # Its bucket plus the pks an open transaction touched,
                # each resolved here with the key re-checked.
                pks = tbl.read_at(
                    self._seq, lambda pending: index.lookup(values) | pending
                )
                break
        if pks is None:
            rows: Iterator[Any] = (row for _pk, row in tbl.items_at(self._seq))
        else:
            rows = filter(None, (tbl.row_at(pk, self._seq) for pk in pks))
        return [
            dict(row) for row in rows
            if all(row.get(c) == v for c, v in zip(columns, values))
        ]

    def query(self, table: str) -> "Query":
        """Start a fluent query evaluated against this snapshot."""
        from repro.storage.query import Query

        return Query(self._table(table), snapshot=self)

    def version_vector(self, names: "Iterable[str]") -> dict[str, int]:
        """The named tables' versions as of this snapshot
        (:meth:`Database.version_vector_at`)."""
        self._check_open()
        return self._db.version_vector_at(self._seq, names)

    def statistics(self) -> dict[str, Any]:
        """Row counts visible at this snapshot (admin/debugging).

        Cheap (O(1) per table) while the tables have not moved past
        this snapshot; a table with newer commits is counted by walking
        its version chains — O(rows) for that table."""
        self._check_open()
        tables = {
            name: self._db.table(name).count_at(self._seq)
            for name in self._db.table_names()
        }
        return {
            "seq": self._seq,
            "tables": tables,
            "total_rows": sum(tables.values()),
        }
