"""Linked-object browsing (networked view) and administrative functions."""

import datetime as dt
from collections import defaultdict

import pytest

from repro.errors import AccessDenied
from repro.facade import BFabric
from repro.graphview.links import _BROWSE_EDGES, ObjectRef
from repro.util.clock import ManualClock
from repro.workload import FGCZ_JANUARY_2010, DeploymentGenerator
from repro.workload.scenario import BusinessSimulator


@pytest.fixture
def system(tmp_path):
    return BFabric(tmp_path, clock=ManualClock(dt.datetime(2010, 1, 15, 9, 0)))


@pytest.fixture
def world(system):
    """A small linked world: project > sample > extract > resource/workunit."""
    admin = system.bootstrap()
    scientist = system.add_user(admin, login="sci", full_name="Sci")
    expert = system.add_user(admin, login="exp", full_name="Exp", role="employee")
    project = system.projects.create(scientist, "P")
    sample = system.samples.register_sample(scientist, project.id, "s1")
    extract = system.samples.register_extract(scientist, sample.id, "e1")
    workunit = system.workunits.create(scientist, project.id, "wu")
    resource = system.workunits.add_resource(
        scientist, workunit.id, "f.raw", "u://f", extract_id=extract.id
    )
    return admin, scientist, expert, project, sample, extract, workunit, resource


class TestLinkGraph:
    def test_neighbors_bidirectional(self, system, world):
        _, _, _, project, sample, extract, workunit, resource = world
        graph = system.links
        sample_ref = ObjectRef("sample", sample.id)
        neighbor_types = {
            ref.entity_type for ref, _ in graph.neighbors(sample_ref)
        }
        assert neighbor_types == {"project", "extract"}
        # And backwards from the project.
        project_ref = ObjectRef("project", project.id)
        assert sample_ref in [ref for ref, _ in graph.neighbors(project_ref)]

    def test_edge_labels(self, system, world):
        _, _, _, project, sample, extract, workunit, resource = world
        graph = system.links
        labels = dict(
            (ref.entity_type, label)
            for ref, label in graph.neighbors(ObjectRef("data_resource", resource.id))
        )
        assert labels["workunit"] == "contained in"
        assert labels["extract"] == "measured from"

    def test_path_resource_to_project(self, system, world):
        _, _, _, project, sample, extract, workunit, resource = world
        graph = system.links
        path = graph.path(
            ObjectRef("data_resource", resource.id), ObjectRef("project", project.id)
        )
        assert path[0].entity_type == "data_resource"
        assert path[-1].entity_type == "project"
        assert len(path) >= 2

    def test_neighborhood_radius(self, system, world):
        _, _, _, project, sample, extract, workunit, resource = world
        graph = system.links
        one_hop = graph.neighborhood(ObjectRef("project", project.id), radius=1)
        two_hop = graph.neighborhood(ObjectRef("project", project.id), radius=2)
        assert set(one_hop) <= set(two_hop)
        assert ObjectRef("extract", extract.id) not in one_hop
        assert ObjectRef("extract", extract.id) in two_hop

    def test_annotation_links_included(self, system, world):
        _, scientist, expert, project, sample, *_ = world
        attribute = system.annotations.define_attribute(expert, "Tissue")
        annotation, _ = system.annotations.create_annotation(
            scientist, attribute.id, "leaf"
        )
        system.annotations.annotate(scientist, annotation.id, "sample", sample.id)
        graph = system.links
        neighbors = [
            ref for ref, _ in graph.neighbors(ObjectRef("sample", sample.id))
        ]
        assert ObjectRef("annotation", annotation.id) in neighbors

    def test_unknown_node(self, system, world):
        graph = system.links
        assert graph.neighbors(ObjectRef("sample", 999)) == []
        assert graph.path(
            ObjectRef("sample", 999), ObjectRef("project", 1)
        ) == []

    def test_connected_and_component(self, system, world):
        _, scientist, _, project, sample, extract, workunit, resource = world
        other_project = system.projects.create(scientist, "Island")
        graph = system.links
        assert graph.connected(
            ObjectRef("sample", sample.id), ObjectRef("workunit", workunit.id)
        )
        assert not graph.connected(
            ObjectRef("sample", sample.id), ObjectRef("project", other_project.id)
        )
        component = graph.component_of(ObjectRef("project", project.id))
        assert ObjectRef("data_resource", resource.id) in component

    def test_statistics(self, system, world):
        graph = system.links
        stats = graph.statistics()
        assert stats["nodes"] >= 5
        assert stats["edges"] >= 4
        assert stats["components"] >= 1

    def test_pinned_snapshot_hides_later_commits(self, system, world):
        _, scientist, _, project, *_ = world
        project_ref = ObjectRef("project", project.id)
        with system.db.snapshot() as pinned:
            late = system.samples.register_sample(scientist, project.id, "late")
            late_ref = ObjectRef("sample", late.id)
            pinned_refs = [ref for ref, _ in system.links.neighbors(
                project_ref, snapshot=pinned)]
            assert late_ref not in pinned_refs
        assert late_ref in [ref for ref, _ in system.links.neighbors(project_ref)]


def _scanned_edges(db) -> dict[ObjectRef, dict[ObjectRef, str]]:
    """The object network by scanning every browse-edge table and
    ``annotation_link``: node -> {neighbour: link label}."""
    adjacency: dict[ObjectRef, dict[ObjectRef, str]] = defaultdict(dict)
    for table, edges in _BROWSE_EDGES.items():
        for row in db.rows(table):
            node = ObjectRef(table, row["id"])
            adjacency[node]  # a row is a node, linked or not
            for column, target_type, label in edges:
                if row.get(column) is not None:
                    target = ObjectRef(target_type, row[column])
                    adjacency[node][target] = adjacency[target][node] = label
    for row in db.rows("annotation_link"):
        annotation = ObjectRef("annotation", row["annotation_id"])
        entity = ObjectRef(row["entity_type"], row["entity_id"])
        adjacency[annotation][entity] = adjacency[entity][annotation] = "annotates"
    return adjacency


class TestLinkGraphOracle:
    """The index-backed view against a full scan of a generated deployment."""

    @pytest.fixture(scope="class")
    def deployment(self, tmp_path_factory):
        system = BFabric(
            tmp_path_factory.mktemp("oracle"),
            clock=ManualClock(dt.datetime(2010, 1, 15, 9, 0)),
        )
        admin = system.bootstrap()
        DeploymentGenerator(system, seed=11).generate(FGCZ_JANUARY_2010.scaled(0.02))
        # Annotations, merges and experiments on top of the bulk load.
        BusinessSimulator(system, seed=11).simulate_days(3)
        # A component that no FK-table row reaches: an annotation on an
        # empty project.
        lonely = system.projects.create(admin, "Unlinked")
        attribute = system.annotations.define_attribute(admin, "Oracle")
        annotation, _ = system.annotations.create_annotation(admin, attribute.id, "x")
        system.annotations.annotate(admin, annotation.id, "project", lonely.id)
        return system, _scanned_edges(system.db)

    def test_neighbors_match_scan_for_every_node(self, deployment):
        system, adjacency = deployment
        assert len(adjacency) > 1_000
        assert {"annotation", "experiment"} <= {node.entity_type for node in adjacency}
        for node, edges in adjacency.items():
            assert system.links.neighbors(node) == sorted(edges.items()), node
        for pk in system.db.query("project").pks():
            ref = ObjectRef("project", pk)
            if ref not in adjacency:
                assert system.links.neighbors(ref) == []

    def test_statistics_match_scan(self, deployment):
        system, adjacency = deployment
        seen: set[ObjectRef] = set()
        components = 0
        for start in adjacency:
            if start not in seen:
                components += 1
                stack = [start]
                seen.add(start)
                while stack:
                    for other in adjacency[stack.pop()]:
                        if other not in seen:
                            seen.add(other)
                            stack.append(other)
        edges = sum(len(out) for out in adjacency.values()) // 2
        assert system.links.statistics() == {
            "nodes": len(adjacency), "edges": edges, "components": components,
        }


class TestErrorRegistry:
    def test_report_and_resolve(self, system, world):
        admin, *_ = world
        record = system.errors.report("importer", "provider timeout", {"n": 1})
        assert [e.id for e in system.errors.open_errors()] == [record.id]
        system.errors.resolve(admin, record.id)
        assert system.errors.open_errors() == []

    def test_counts_by_source(self, system, world):
        system.errors.report("importer", "a")
        system.errors.report("importer", "b")
        system.errors.report("portal", "c")
        assert system.errors.counts_by_source() == {"importer": 2, "portal": 1}


class TestMaintenance:
    def test_integrity_check_clean(self, system, world):
        admin, *_ = world
        assert system.maintenance.integrity_check(admin) == []

    def test_requires_admin(self, system, world):
        _, scientist, *_ = world
        with pytest.raises(AccessDenied):
            system.maintenance.integrity_check(scientist)
        with pytest.raises(AccessDenied):
            system.maintenance.dashboard(scientist)

    def test_expert_is_not_enough(self, system, world):
        _, _, expert, *_ = world
        with pytest.raises(AccessDenied):
            system.maintenance.rebuild_indexes(expert)

    def test_rebuild_indexes(self, system, world):
        admin, scientist, *_ = world
        system.maintenance.rebuild_indexes(admin)
        assert system.maintenance.integrity_check(admin) == []

    def test_checkpoint_and_recover(self, tmp_path):
        clock = ManualClock(dt.datetime(2010, 1, 15, 9, 0))
        system = BFabric(tmp_path / "deploy", clock=clock)
        admin = system.bootstrap()
        scientist = system.add_user(admin, login="sci", full_name="Sci")
        system.projects.create(scientist, "Durable project")
        system.maintenance.checkpoint(admin)
        system.projects.create(scientist, "After checkpoint")
        system.close()

        revived = BFabric(tmp_path / "deploy", clock=clock)
        stats = revived.recover()
        assert stats["snapshot_rows"] > 0
        names = revived.db.query("project").values("name")
        assert sorted(names) == ["After checkpoint", "Durable project"]

    def test_dashboard_contents(self, system, world):
        admin, *_ = world
        report = system.maintenance.dashboard(admin)
        assert "storage" in report
        assert "search" in report
        assert "workflows" in report
        assert set(report["workflows"]["definitions"]) >= {
            "data_import", "run_experiment",
        }


class TestMonitor:
    def test_commit_counters(self, system, world):
        snapshot = system.monitor.snapshot()
        assert snapshot["commits"] > 0
        assert "sample" in snapshot["operations"]
        assert snapshot["operations"]["sample"]["insert"] >= 1

    def test_busiest_tables(self, system, world):
        busiest = system.monitor.busiest_tables(3)
        assert len(busiest) == 3
        assert busiest[0][1] >= busiest[-1][1]
