"""The full-text index as a fold of committed row operations.

:class:`SearchIndexer` holds the one mapping from rows to search
documents and keeps a :class:`~repro.search.engine.SearchEngine` in
step with the database's commit feed (:meth:`Database.on_commit`).
Live commits, replicated applies and a promoted replica's own commits
all reach :meth:`apply` as a commit event; :meth:`rebuild` folds the
rows of one snapshot as inserts.  So a primary's index, a restarted
primary's, a replica's and a ``reindex_all()``'s are the same function
of the same rows.

The index is built on first use: until :meth:`rebuild` runs, or the
engine is first asked to search, index, remove or report, a delivery
returns at once.  A deployment that never searches (a bulk load, a
replica that only serves page reads) never pays for the index.  A
"state replaced" delivery (``event.ops is None``, after recovery or a
replica bootstrap), or an exception while applying, drops the index
back to unbuilt, and the next use rebuilds it.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable

from repro.security.acl import PROJECT_PARENT, project_of
from repro.util.heap import collector_paused

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dataimport.store import ManagedStore
    from repro.search.engine import SearchEngine
    from repro.storage.database import Database
    from repro.storage.snapshot import Snapshot
    from repro.storage.table import UndoEntry
    from repro.storage.transaction import CommitEvent

#: table -> (text columns, in text order; other columns the document
#: reads).  Every indexed table's primary key is ``id``.
_MAPPING = {
    "project": (("name", "description"), ()),
    "sample": (("name", "species", "description", "attributes"), ("project_id",)),
    "extract": (("name", "procedure", "description"), ("sample_id",)),
    "workunit": (("name", "description"), ("project_id",)),
    "data_resource": (("name", "uri"), ("workunit_id",)),
    "annotation": (("value",), ("status",)),
    "application": (("name", "description"), ()),
}
#: An update that changes none of its table's columns here is a no-op.
_READS = {table: frozenset(text + other) for table, (text, other) in _MAPPING.items()}
#: parent table -> (child table, FK column): children whose documents
#: carry the parent's project.
_CHILDREN = {parent: (child, fk) for child, (parent, fk) in PROJECT_PARENT.items()}
#: Annotation states that are searchable.
SEARCHABLE_ANNOTATIONS = ("pending", "released")
#: Extensions whose stored bytes are full-text indexed (paper: "the
#: content of readable attachments and data resources").
READABLE_EXTENSIONS = (".txt", ".csv", ".tsv", ".md", ".log")
#: Cap on indexed content per file; enough for reports, bounded for
#: accidental large text files.
CONTENT_INDEX_LIMIT = 64 * 1024

#: ``_seq`` while a build is folding its snapshot.
_BUILDING = -1


class SearchIndexer:
    """Keeps *engine* a function of *db*'s committed rows (and of the
    readable file bytes *store* holds for data resources)."""

    def __init__(
        self, db: "Database", engine: "SearchEngine", store: "ManagedStore"
    ):
        self._db = db
        self._engine = engine
        self._store = store
        self.obs = engine.obs
        self._m_build = self.obs.metrics.histogram(
            "search_index_build_seconds", "Full-text index rebuild duration"
        )
        self._lock = threading.Lock()
        #: The commit seq the index reflects; ``None`` while unbuilt.
        self._seq: int | None = None
        engine.before_use = self.ensure
        db.on_commit(self.apply)

    @property
    def built(self) -> bool:
        seq = self._seq
        return seq is not None and seq >= 0

    def ensure(self) -> None:
        """Build the index unless it is built."""
        if self.built:
            return
        with self._lock:
            if self._seq is None:
                self._rebuild()

    def rebuild(self) -> int:
        """Re-derive the whole index; returns the document count."""
        with self._lock:
            return self._rebuild()

    def _rebuild(self) -> int:
        with self.obs.tracer.span("search.reindex") as span:
            timer = self.obs.timer()
            # Set before the snapshot opens: a commit that publishes
            # after it is delivered to apply(), which waits for the lock.
            self._seq = _BUILDING
            try:
                self._engine._index.clear()
                # Every posting built here lives on: a collection during
                # the build would walk the growing heap and free nothing.
                with collector_paused(), self._db.snapshot() as snap:
                    for table in _MAPPING:
                        for pk, row in self._db.table(table).items_at(snap.seq):
                            self._put_row(table, pk, row, lambda: snap)
                self._seq = snap.seq
            except BaseException:
                self._seq = None
                raise
            count = len(self._engine._index)
            self._m_build.observe(timer.elapsed())
            span.set(documents=count)
            return count

    def apply(self, event: "CommitEvent") -> None:
        """Commit-feed listener: fold one commit into a built index."""
        if self._seq is None:
            return
        seq, ops = event.seq, event.ops
        with self._lock:
            if ops is None:
                self._seq = None
            if self._seq is None or seq <= self._seq:
                return
            try:
                self._fold(ops)
            except BaseException:
                self._seq = None
                raise
            self._seq = seq

    def _fold(self, ops: "list[UndoEntry]") -> None:
        snap: "Snapshot | None" = None

        def committed() -> "Snapshot":
            # Parent rows are read at the latest commit, opened only
            # when an op needs one.
            nonlocal snap
            if snap is None:
                snap = self._db.snapshot()
            return snap

        try:
            for op in ops:
                reads = _READS.get(op.table)
                if reads is None:
                    continue
                if op.op == "delete":
                    self._engine._drop(op.table, op.pk)
                    continue
                if op.op == "update":
                    before, after = op.before, op.after
                    if all(before.get(c) == after.get(c) for c in reads):
                        continue
                self._put_row(op.table, op.pk, op.after, committed)
                if op.op == "update" and op.table in _CHILDREN and (
                    before.get("project_id") != after.get("project_id")
                ):
                    child, fk = _CHILDREN[op.table]
                    for row in committed().lookup(child, fk, op.pk):
                        self._put_row(child, row["id"], row, committed)
        finally:
            if snap is not None:
                snap.close()

    # -- the mapping ---------------------------------------------------------

    def _put_row(
        self,
        table: str,
        pk: Any,
        row: dict[str, Any],
        snapshot: Callable[[], "Snapshot"],
    ) -> None:
        """Index (or un-index) *row*; *snapshot* resolves parent rows."""
        if table == "annotation" and row.get("status") not in SEARCHABLE_ANNOTATIONS:
            self._engine._drop(table, pk)
            return
        fields: dict[str, Any] = {}
        for column in _MAPPING[table][0]:
            value = row.get(column)
            if column == "attributes":
                # Sorted: JSON round trips (WAL replay, the replication
                # codec) reorder keys, and the text must not depend on it.
                items = sorted(value.items()) if isinstance(value, dict) else ()
                value = " ".join(f"{k} {v}" for k, v in items)
            fields[column] = "" if value is None else value
        if table == "data_resource":
            content = self._readable_content(fields["uri"])
            if content:
                fields["content"] = content
        project_id = project_of(table, pk, row, snapshot)
        label = fields["value"] if table == "annotation" else ""
        self._engine._put(table, pk, fields, project_id, label)

    def _readable_content(self, uri: str) -> str:
        """Text of a stored, readable resource ('' otherwise, or when
        this process's store does not hold the bytes)."""
        if not uri.startswith("store://"):
            return ""
        if not uri.lower().endswith(READABLE_EXTENSIONS):
            return ""
        try:
            path = self._store.path_for(uri)
            if not path.is_file():
                return ""
            raw = path.read_bytes()[:CONTENT_INDEX_LIMIT]
            return raw.decode("utf-8", errors="ignore")
        except (OSError, ValueError):
            return ""
