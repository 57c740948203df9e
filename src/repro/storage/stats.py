"""Per-table column statistics for the cost-based query planner.

The planner prices candidate plans with three ingredients:

* **row counts** — the table's live count (O(1), maintained by the
  table itself);
* **distinct-value estimates (NDV)** — exact for indexed columns (the
  hash/ordered indexes know their distinct key counts in O(1)), and a
  reservoir-sample estimate for everything else;
* **min/max** for ordered columns — O(1) off the ordered indexes.

The reservoir here is the same Algorithm R the observability histograms
use (see :mod:`repro.obs.metrics`), except that the slot the *n*-th
value may replace is a pure function of the column name and *n*
(:func:`_victim`), not an RNG draw.  Sampling happens on the insert
path only: deletes decrement the value counters but leave the sample
alone (a uniform sample of all values ever inserted remains a usable
NDV basis, and removal from a reservoir is not well-defined).

**Where the feed is.**  ``Table.commit_version`` is the only caller of
:meth:`TableStatistics.on_insert` / :meth:`TableStatistics.on_remove`:
for each version a commit publishes it removes the version it
supersedes and inserts the new row.  Local commits, recovery's replay,
replicated applies and bootstrap loads all publish through it, and a
rolled-back write never does, so the statistics describe committed
state only.  :meth:`TableStatistics.on_backfill` is the one other
feed: a column added by schema evolution, or declared since the
checkpoint a table's state was restored from, is fed the rows' values.

**Persistence / recovery.**  :meth:`TableStatistics.state` /
:meth:`TableStatistics.restore` let the database checkpoint embed the
sampler state in the snapshot's meta block.  ``(reservoir, inserted,
removed, nulls)`` is the whole state, so a restart that restores it and
feeds the WAL tail on top reproduces the never-stopped process's
reservoirs (and therefore its NDV estimates and plan choices) exactly.
Only a snapshot without saved state (written before the meta block, or
a table new since the checkpoint) is re-sampled row by row, in
snapshot order.
"""

from __future__ import annotations

import datetime as dt
import zlib
from typing import Any

#: Values retained per column sample; matches the obs histograms'
#: reservoir size — big enough for stable NDV ratios, small enough to
#: serialize into every checkpoint.
RESERVOIR_SIZE = 256


def _victim(seed: int, n: int) -> int:
    """The slot in ``range(n)`` the *n*-th value of the column whose name
    hashes to *seed* draws (Algorithm R replaces it when it is below
    :data:`RESERVOIR_SIZE`): a CRC of *n*, so the same stream draws the
    same slots in every process."""
    return zlib.crc32(n.to_bytes(8, "little"), seed) % n


def _value_token(value: Any) -> str:
    """Stable, JSON-safe token identifying *value* for distinct counting:
    its type and its ISO text (a date or datetime, as checkpoints store
    them) or its ``repr``.  Reservoirs restored from checkpoints written
    before dates were tokened as ISO text keep ``repr`` tokens until
    their slots turn over, so a value sampled in both forms counts twice
    towards the distinct estimate meanwhile."""
    if isinstance(value, dt.date):
        return f"{type(value).__name__}:{value.isoformat()}"
    return f"{type(value).__name__}:{value!r}"


class ColumnStats:
    """Streaming statistics for one column (Algorithm R reservoir)."""

    __slots__ = ("column", "inserted", "removed", "nulls", "_reservoir", "_seed")

    def __init__(self, column: str):
        self.column = column
        #: Non-null values ever inserted / removed (deletes + update
        #: before-images).  ``inserted - removed`` tracks live non-null
        #: values.
        self.inserted = 0
        self.removed = 0
        self.nulls = 0
        self._reservoir: list[str] = []
        # Per-column slot stream: same data -> same sample -> same plan
        # choice, across processes and restarts.
        self._seed = zlib.crc32(column.encode("utf-8"))

    def on_insert(self, value: Any) -> None:
        if value is None:
            self.nulls += 1
            return
        self.inserted += 1
        if len(self._reservoir) < RESERVOIR_SIZE:
            self._reservoir.append(_value_token(value))
        else:
            victim = _victim(self._seed, self.inserted)
            if victim < RESERVOIR_SIZE:
                self._reservoir[victim] = _value_token(value)

    def on_remove(self, value: Any) -> None:
        if value is None:
            self.nulls = max(0, self.nulls - 1)
        else:
            self.removed += 1

    def distinct_estimate(self, live_rows: int) -> int:
        """Estimated distinct non-null values among *live_rows* rows.

        With the sample still exhaustive (fewer inserts than the
        reservoir holds) the count is exact for the inserted stream.
        Beyond that, a ratio estimator: if the sample is all-distinct,
        assume the column is key-like (NDV ≈ live rows); otherwise scale
        the sample's distinct ratio to the live row count, floored by
        the sample's own distinct count (NDV can never be below what we
        have literally seen, modulo deletes).
        """
        if live_rows <= 0 or self.inserted == 0:
            return 0
        sample_distinct = len(set(self._reservoir))
        if self.inserted <= RESERVOIR_SIZE:
            return max(1, min(sample_distinct, live_rows))
        sample_size = len(self._reservoir)
        if sample_distinct >= sample_size:
            return max(1, live_rows)
        estimate = int(round(sample_distinct / sample_size * live_rows))
        return max(1, min(max(estimate, sample_distinct), live_rows))

    # -- persistence -------------------------------------------------------

    def state(self) -> dict[str, Any]:
        return {
            "inserted": self.inserted,
            "removed": self.removed,
            "nulls": self.nulls,
            "reservoir": list(self._reservoir),
        }

    def restore(self, state: dict[str, Any]) -> None:
        self.inserted = int(state.get("inserted", 0))
        self.removed = int(state.get("removed", 0))
        self.nulls = int(state.get("nulls", 0))
        reservoir = state.get("reservoir", [])
        self._reservoir = [str(v) for v in reservoir][:RESERVOIR_SIZE]


class TableStatistics:
    """Column statistics for one table, fed by ``Table.commit_version``."""

    def __init__(self, columns: "list[str]"):
        self._columns: dict[str, ColumnStats] = {
            name: ColumnStats(name) for name in columns
        }

    def add_column(self, name: str) -> None:
        """Track a column added by schema evolution."""
        if name not in self._columns:
            self._columns[name] = ColumnStats(name)

    def column(self, name: str) -> "ColumnStats | None":
        return self._columns.get(name)

    def on_insert(self, row: dict[str, Any]) -> None:
        for name, stats in self._columns.items():
            stats.on_insert(row.get(name))

    def on_remove(self, row: dict[str, Any]) -> None:
        for name, stats in self._columns.items():
            stats.on_remove(row.get(name))

    def on_backfill(self, column: str, values: "list[Any]") -> None:
        """Feed a schema-evolution backfill into *column*'s sample."""
        stats = self._columns.get(column)
        if stats is not None:
            for value in values:
                stats.on_insert(value)

    def distinct_estimate(self, column: str, live_rows: int) -> int:
        stats = self._columns.get(column)
        if stats is None:
            return max(1, live_rows)
        return stats.distinct_estimate(live_rows)

    def null_fraction(self, column: str) -> float:
        stats = self._columns.get(column)
        if stats is None:
            return 0.0
        live = stats.inserted - stats.removed + stats.nulls
        if live <= 0:
            return 0.0
        return min(1.0, max(0.0, stats.nulls / live))

    # -- persistence -------------------------------------------------------

    def state(self) -> dict[str, Any]:
        """JSON-safe sampler state for the checkpoint meta block."""
        return {name: stats.state() for name, stats in self._columns.items()}

    def restore(self, state: dict[str, Any]) -> None:
        for name, column_state in state.items():
            if isinstance(column_state, dict):
                self.add_column(name)
                self._columns[name].restore(column_state)
