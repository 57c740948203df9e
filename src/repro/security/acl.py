"""Project-scoped access control.

Visibility in B-Fabric follows project membership: a scientist sees and
manipulates only objects belonging to projects they are a member of.
Experts (FGCZ employees) and admins operate across projects.  The
:class:`AccessControl` service answers permission questions against the
``project_membership`` table and raises
:class:`~repro.errors.AccessDenied` from its ``require_*`` variants.
"""

from __future__ import annotations

import enum
from typing import Any, Callable

from repro.errors import AccessDenied
from repro.security.principals import Principal
from repro.storage.database import Database
from repro.storage.snapshot import Snapshot
from repro.storage.table import view_memo

#: child table -> (parent table, FK column): the parent's project is
#: the child's project.
PROJECT_PARENT = {
    "extract": ("sample", "sample_id"), "data_resource": ("workunit", "workunit_id")
}


def project_of(
    table: str, pk: Any, row: dict[str, Any], snapshot: Callable[[], Snapshot]
) -> int | None:
    """The project *row* of *table* belongs to (``None``: no project).
    A project is its own; a child (:data:`PROJECT_PARENT`) takes its
    parent's, read through *snapshot*; others carry ``project_id``."""
    if table == "project":
        return pk
    if table in PROJECT_PARENT:
        parent, fk = PROJECT_PARENT[table]
        parent_row = snapshot().get_or_none(parent, row.get(fk))
        return None if parent_row is None else parent_row["project_id"]
    return row.get("project_id")


class Permission(enum.Enum):
    """What a principal may do with a project's objects."""

    READ = "read"
    WRITE = "write"
    MANAGE = "manage"  # membership changes, project settings


class AccessControl:
    """Answers "may *principal* do *permission* on *project*?"."""

    def __init__(self, database: Database):
        self._db = database

    # -- membership -------------------------------------------------------------

    def membership_role(self, principal: Principal, project_id: int) -> str | None:
        """The principal's role within the project, or ``None``."""
        return self._roles(principal.user_id).get(project_id)

    def _roles(self, user_id: int) -> dict[int, str]:
        """``{project_id: role}`` over the user's memberships: one read,
        kept for the life of the thread's read view (a portal GET)."""
        memo = view_memo()
        key = ("project_membership", user_id)
        if memo is not None and key in memo:
            return memo[key]
        roles = {
            row["project_id"]: row["role"]
            for row in self._db.query("project_membership")
            .where("user_id", "=", user_id)
            .shared_rows()
        }
        if memo is not None:
            memo[key] = roles
        return roles

    def is_member(self, principal: Principal, project_id: int) -> bool:
        return self.membership_role(principal, project_id) is not None

    def grant(
        self,
        project_id: int,
        user_id: int,
        role: str = "member",
        *,
        txn=None,
    ) -> dict:
        """Add (or upgrade) a membership.  ``role`` is member|leader."""
        if role not in ("member", "leader"):
            raise ValueError(f"membership role must be member|leader, got {role!r}")
        existing = (
            self._db.query("project_membership")
            .where("user_id", "=", user_id)
            .where("project_id", "=", project_id)
            .first()
        )
        target = txn if txn is not None else self._db
        if existing is not None:
            return target.update(
                "project_membership", existing["id"], {"role": role}
            )
        return target.insert(
            "project_membership",
            {"user_id": user_id, "project_id": project_id, "role": role},
        )

    def revoke(self, project_id: int, user_id: int, *, txn=None) -> bool:
        existing = (
            self._db.query("project_membership")
            .where("user_id", "=", user_id)
            .where("project_id", "=", project_id)
            .first()
        )
        if existing is None:
            return False
        target = txn if txn is not None else self._db
        target.delete("project_membership", existing["id"])
        return True

    # -- checks -------------------------------------------------------------------

    def can(
        self, principal: Principal, permission: Permission, project_id: int
    ) -> bool:
        if principal.is_expert:
            # Employees and admins operate center-wide.
            return True
        role = self.membership_role(principal, project_id)
        if role is None:
            return False
        if permission is Permission.MANAGE:
            return role == "leader"
        return True

    def require(
        self, principal: Principal, permission: Permission, project_id: int
    ) -> None:
        if not self.can(principal, permission, project_id):
            raise AccessDenied(
                f"{principal} lacks {permission.value} on project {project_id}",
                principal=principal.login,
                permission=permission.value,
            )

    def visible_project_ids(self, principal: Principal) -> list[int]:
        """Projects the principal may read (all, for experts)."""
        if principal.is_expert:
            return self._db.query("project").pks()
        return list(self._roles(principal.user_id))
