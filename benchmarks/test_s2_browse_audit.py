"""S2 — networked browsing and the audit trail (paper §2, Miscellaneous).

"Users can simply browse bidirectionally through all objects linked
together" and "all data manipulation operations are logged".  Measured
over the FGCZ-scale deployment: the 71k-node link graph read from the
foreign-key indexes, the busiest project's one-hop browse, neighborhood
queries, paths; audit write throughput and per-user history reads.
"""

from repro.graphview.links import LinkGraph, ObjectRef
from repro.security.principals import SYSTEM


def test_s2_graph_covers_deployment(fgcz_deployment):
    graph = LinkGraph(fgcz_deployment.db)
    stats = graph.statistics()
    # Every sample/extract/resource/workunit/project node is present.
    assert stats["nodes"] > 70_000
    assert stats["edges"] > 70_000


def test_s2_bench_busiest_project_neighbors(benchmark, fgcz_deployment):
    """The browse page's worst case: one hop from the project with the
    most linked objects."""
    graph = LinkGraph(fgcz_deployment.db)
    busiest = max(
        graph.nodes_of_type("project"), key=lambda ref: len(graph.neighbors(ref))
    )

    neighbors = benchmark(graph.neighbors, busiest)
    assert len(neighbors) > 1_000


def test_s2_bench_neighborhood(benchmark, fgcz_deployment):
    graph = LinkGraph(fgcz_deployment.db)
    ref = ObjectRef("project", 1)

    neighborhood = benchmark(graph.neighborhood, ref, 2)
    assert neighborhood


def test_s2_bench_path_query(benchmark, fgcz_deployment):
    graph = LinkGraph(fgcz_deployment.db)
    resource = next(iter(graph.nodes_of_type("data_resource")))
    project = ObjectRef("project", 1)

    def path():
        return graph.path(resource, project)

    result = benchmark(path)
    assert isinstance(result, list)


def test_s2_bench_audit_write(benchmark, fgcz_deployment):
    counter = iter(range(10_000_000))

    def record():
        return fgcz_deployment.audit.record(
            SYSTEM, "update", "sample", next(counter) % 3151 + 1,
            "benchmark entry",
        )

    entry = benchmark.pedantic(record, rounds=200, iterations=1)
    assert entry.id is not None


def test_s2_bench_user_history(benchmark, fgcz_deployment):
    for i in range(500):
        fgcz_deployment.audit.record(
            SYSTEM, "create", "sample", i + 1, f"seed {i}"
        )

    entries = benchmark.pedantic(fgcz_deployment.audit.for_user, args=(SYSTEM.user_id,), rounds=30, iterations=1)
    assert len(entries) == 50  # bounded, most recent first
    assert entries[0].id > entries[-1].id
