"""The object link graph, read from the foreign-key indexes."""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

from repro.storage.database import Database
from repro.storage.snapshot import Snapshot


@dataclass(frozen=True, order=True)
class ObjectRef:
    """A typed reference to one domain object (a graph node)."""

    entity_type: str
    entity_id: int

    def __str__(self) -> str:
        return f"{self.entity_type}:{self.entity_id}"


#: ``table -> [(fk column, referenced entity type, edge label)]`` —
#: the FK edges worth browsing (bookkeeping FKs like created_by are
#: deliberately excluded to keep the view on *data* objects).
_BROWSE_EDGES: dict[str, list[tuple[str, str, str]]] = {
    "sample": [("project_id", "project", "belongs to")],
    "extract": [("sample_id", "sample", "extracted from")],
    "workunit": [("project_id", "project", "belongs to"),
                 ("application_id", "application", "produced by")],
    "data_resource": [("workunit_id", "workunit", "contained in"),
                      ("extract_id", "extract", "measured from")],
    "experiment": [("project_id", "project", "belongs to"),
                   ("application_id", "application", "feeds")],
    "institute": [("organization_id", "organization", "part of")],
    "user": [("institute_id", "institute", "member of")],
}
#: ``entity type -> [(table, fk column, edge label)]``: the edges that
#: point at an entity type, each answered by its FK column's index.
_INCOMING: dict[str, list[tuple[str, str, str]]] = {}
for _table, _columns in _BROWSE_EDGES.items():
    for _column, _target, _label in _columns:
        _INCOMING.setdefault(_target, []).append((_table, _column, _label))


def _edges(snap: Snapshot, ref: ObjectRef) -> dict[ObjectRef, str]:
    """Every object linked to *ref* at *snap*, with the link's label."""
    kind, pk = ref.entity_type, ref.entity_id
    out: dict[ObjectRef, str] = {}
    row = snap.get_or_none(kind, pk) if kind in _BROWSE_EDGES else None
    for column, target, label in _BROWSE_EDGES[kind] if row else ():
        if row.get(column) is not None:
            out[ObjectRef(target, row[column])] = label
    for table, column, label in _INCOMING.get(kind, ()):
        for other in snap.lookup(table, column, pk):
            out[ObjectRef(table, other["id"])] = label
    for link in snap.lookup("annotation_link", ("entity_type", "entity_id"), kind, pk):
        out[ObjectRef("annotation", link["annotation_id"])] = "annotates"
    if kind == "annotation":
        for link in snap.lookup("annotation_link", "annotation_id", pk):
            out[ObjectRef(link["entity_type"], link["entity_id"])] = "annotates"
    return out


def _walk(snap: Snapshot, start: ObjectRef, reached: dict, radius=None, goal=None):
    """Breadth-first from *start*, *radius* hops deep or until *goal*:
    *reached* maps each node to its predecessor; returns the edges seen."""
    frontier, edges, hops = [start], 0, 0
    reached[start] = None
    while frontier and hops != radius:
        hops, current, frontier = hops + 1, frontier, []
        for node in current:
            out = _edges(snap, node)
            edges += len(out)
            fresh = [other for other in out if other not in reached]
            reached.update(dict.fromkeys(fresh, node))
            frontier += fresh
            if goal in reached:
                return edges
    return edges


class LinkGraph:
    """The object network as a view of the FK and ``annotation_link``
    indexes at one snapshot, never a copy.  A lookup on a table that
    committed after the snapshot scans that table: exact, but slower."""

    def __init__(self, database: Database):
        self._db = database

    def rebuild(self) -> "LinkGraph":
        """Nothing to build: every query reads the tables."""
        return self

    def neighbors(
        self, ref: ObjectRef, *, snapshot: Snapshot | None = None
    ) -> list[tuple[ObjectRef, str]]:
        """Directly linked objects with the link labels (both directions)."""
        with nullcontext(snapshot) if snapshot else self._db.snapshot() as snap:
            return sorted(_edges(snap, ref).items())

    def _reach(self, start: ObjectRef, radius=None, goal=None) -> dict:
        reached: dict[ObjectRef, ObjectRef | None] = {}
        with self._db.snapshot() as snap:
            _walk(snap, start, reached, radius, goal)
            kind, pk = start.entity_type, start.entity_id
            if len(reached) > 1 or kind in _BROWSE_EDGES and snap.contains(kind, pk):
                return reached
        return {}  # not an object of the network

    def neighborhood(self, ref: ObjectRef, radius: int = 2) -> list[ObjectRef]:
        """Objects within *radius* hops (the browse page's context)."""
        return sorted(node for node in self._reach(ref, radius=radius) if node != ref)

    def path(self, start: ObjectRef, end: ObjectRef) -> list[ObjectRef]:
        """Shortest link path between two objects ([] when unconnected)."""
        reached = self._reach(start, goal=end)
        path = [end] if end in reached else []
        while path and path[-1] != start:
            path.append(reached[path[-1]])
        return path[::-1]

    def connected(self, start: ObjectRef, end: ObjectRef) -> bool:
        return bool(self.path(start, end))

    def component_of(self, ref: ObjectRef) -> set[ObjectRef]:
        """Everything transitively linked to *ref*."""
        return set(self._reach(ref))

    def statistics(self) -> dict[str, int]:
        """Nodes, edges and connected components, one walk per component."""
        reached: dict[ObjectRef, ObjectRef | None] = {}
        with self._db.snapshot() as snap:
            seeds = [ObjectRef(t, pk) for t in _BROWSE_EDGES for pk in snap.pks(t)]
            annotations = snap.query("annotation_link").values("annotation_id")
            seeds += [ObjectRef("annotation", pk) for pk in annotations]
            # The first seed of each component walks all of it.
            walks = [_walk(snap, ref, reached) for ref in seeds if ref not in reached]
        edges = sum(walks) // 2
        return {"nodes": len(reached), "edges": edges, "components": len(walks)}

    def nodes_of_type(self, entity_type: str) -> list[ObjectRef]:
        return [ObjectRef(entity_type, pk) for pk in self._db.query(entity_type).pks()]
