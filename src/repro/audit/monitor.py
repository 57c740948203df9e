"""Low-level system monitoring.

The admin "monitor the system" screens read here.  Since the
observability layer landed, the monitor no longer keeps its own
counters: the database records per-table operation counters and commit
latency histograms into its metrics registry, and :class:`SystemMonitor`
is a read-side view over that registry (plus the storage statistics),
so the admin dashboard, the CLI, and the ``/admin/metrics`` exposition
all report the same numbers.
"""

from __future__ import annotations

from collections import Counter

from repro.storage.database import Database


class SystemMonitor:
    """Read-side view over the storage metrics registry."""

    def __init__(self, database: Database):
        self._db = database
        self._obs = database.obs

    # -- reporting -----------------------------------------------------------------

    @property
    def commit_count(self) -> int:
        family = self._obs.metrics.get("storage_commits_total")
        return 0 if family is None else int(family.value)

    def operation_counts(self) -> dict[str, dict[str, int]]:
        """``{table: {op: count}}`` for all observed activity."""
        report: dict[str, dict[str, int]] = {}
        family = self._obs.metrics.get("storage_ops_total")
        if family is None:
            return report
        samples = sorted(
            family.samples(), key=lambda pair: (pair[0]["table"], pair[0]["op"])
        )
        for labels, child in samples:
            report.setdefault(labels["table"], {})[labels["op"]] = int(child.value)
        return report

    def busiest_tables(self, n: int = 5) -> list[tuple[str, int]]:
        totals: Counter[str] = Counter()
        for table, ops in self.operation_counts().items():
            totals[table] += sum(ops.values())
        return totals.most_common(n)

    def latency_summary(self) -> dict[str, dict]:
        """Percentile summaries of the storage latency histograms."""
        report: dict[str, dict] = {}
        for name in (
            "storage_commit_seconds",
            "storage_wal_append_seconds",
            "storage_wal_fsync_seconds",
            "storage_checkpoint_seconds",
            "storage_recover_seconds",
        ):
            family = self._obs.metrics.get(name)
            if family is None:
                continue
            summary = family.summary()
            if summary["count"]:
                report[name] = summary
        return report

    def snapshot(self) -> dict:
        """One dict for the admin dashboard."""
        return {
            "commits": self.commit_count,
            "operations": self.operation_counts(),
            "storage": self._db.statistics(),
            "latency": self.latency_summary(),
            "observability": self._obs.statistics(),
        }
