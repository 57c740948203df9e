"""The audit log: who did what to which object, when."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.security.principals import Principal
from repro.storage.database import Database
from repro.storage.schema import Column, TableSchema
from repro.storage.types import ColumnType
from repro.util.clock import Clock, SystemClock

AUDIT_TABLE = "audit_entry"


def audit_schema() -> TableSchema:
    return TableSchema(
        name=AUDIT_TABLE,
        columns=[
            Column("id", ColumnType.INT, primary_key=True),
            Column("at", ColumnType.DATETIME, nullable=False),
            Column("user_id", ColumnType.INT, nullable=False),
            Column("user_login", ColumnType.TEXT, nullable=False),
            Column("action", ColumnType.TEXT, nullable=False,
                   check=lambda v: v in ("create", "update", "delete")),
            Column("entity_type", ColumnType.TEXT, nullable=False),
            Column("entity_id", ColumnType.INT, nullable=False),
            Column("summary", ColumnType.TEXT, default=""),
            Column("details", ColumnType.JSON, default=dict),
        ],
        indexes=["user_id", "entity_type", ("entity_type", "entity_id"), "at"],
        doc="Create/update/delete trail over all domain objects",
    )


@dataclass(frozen=True)
class AuditEntry:
    """One recorded manipulation."""

    id: int
    at: Any
    user_id: int
    user_login: str
    action: str
    entity_type: str
    entity_id: int
    summary: str
    details: dict

    @classmethod
    def from_row(cls, row: dict[str, Any]) -> "AuditEntry":
        return cls(**{k: row[k] for k in cls.__dataclass_fields__})


class AuditLog:
    """Records and queries manipulation history."""

    def __init__(self, database: Database, *, clock: Clock | None = None):
        self._db = database
        self._clock = clock or SystemClock()
        if not database.has_table(AUDIT_TABLE):
            database.create_table(audit_schema())

    # -- recording ----------------------------------------------------------------

    def record(
        self,
        principal: Principal,
        action: str,
        entity_type: str,
        entity_id: int,
        summary: str = "",
        details: dict | None = None,
    ) -> AuditEntry:
        """Append one entry, in the calling thread's open transaction if
        there is one (a write request's), so it commits with the change
        it describes."""
        values = {
            "at": self._clock.now(),
            "user_id": principal.user_id,
            "user_login": principal.login,
            "action": action,
            "entity_type": entity_type,
            "entity_id": entity_id,
            "summary": summary,
            "details": details or {},
        }
        row = self._db.insert(AUDIT_TABLE, values)
        return AuditEntry.from_row(row)

    # -- queries --------------------------------------------------------------------

    def for_user(self, user_id: int, *, limit: int = 50) -> list[AuditEntry]:
        """Most recent activity of one user ("what did I do?")."""
        rows = (
            self._db.query(AUDIT_TABLE)
            .where("user_id", "=", user_id)
            .order_by("at", descending=True)
            .order_by("id", descending=True)
            .limit(limit)
            .all()
        )
        return [AuditEntry.from_row(r) for r in rows]

    def for_entity(
        self, entity_type: str, entity_id: int, *, limit: int = 50
    ) -> list[AuditEntry]:
        """Full manipulation history of one object."""
        rows = (
            self._db.query(AUDIT_TABLE)
            .where("entity_type", "=", entity_type)
            .where("entity_id", "=", entity_id)
            .order_by("at")
            .order_by("id")
            .limit(limit)
            .all()
        )
        return [AuditEntry.from_row(r) for r in rows]

    def recent(self, *, limit: int = 100) -> list[AuditEntry]:
        rows = (
            self._db.query(AUDIT_TABLE)
            .order_by("id", descending=True)
            .limit(limit)
            .all()
        )
        return [AuditEntry.from_row(r) for r in rows]

    def count(self) -> int:
        return self._db.count(AUDIT_TABLE)

    def counts_by_action(self) -> dict[str, int]:
        counts: dict[str, int] = {"create": 0, "update": 0, "delete": 0}
        for row in self._db.rows(AUDIT_TABLE):
            counts[row["action"]] = counts.get(row["action"], 0) + 1
        return counts
