"""The full-text index is one function of the committed rows.

One seeded corpus is indexed four ways — live on the primary, after a
restart, on a streaming replica, and by ``reindex_all()`` — and every
way must hold the same documents and rank the same answers.  Below
that, one regression test per divergence the separate hand-written
mappings used to have.
"""

import datetime as dt

import pytest

from repro.dataimport import AffymetrixGeneChipProvider
from repro.errors import FaultInjected
from repro.facade import BFabric
from repro.replication import Replica, ReplicationPublisher
from repro.resilience import Fault, FaultPlan, inject
from repro.util.clock import ManualClock

#: S1's queries (benchmarks/test_s1_fulltext_search.py), A3's
#: name-beats-body query, and one per field each mapping used to
#: disagree on.
QUERIES = (
    "type:sample arabidopsis leaf",
    "arabidopsis leaf",
    "type:sample arabidopsis light OR dark -muscle",
    "workunit",
    "arabidopsis",
    "markerterm1",
    "rosette",
    "chloroform",
    "tissue root",
    "lutein OR luteine OR zeaxanthin OR chlorophyll",
    "doomed",
    "genes tested",
)


def new_system(path=None) -> BFabric:
    return BFabric(path, clock=ManualClock(dt.datetime(2010, 1, 15, 9, 0)))


def actors(system):
    admin = system.bootstrap()
    scientist = system.add_user(admin, login="sci", full_name="Sci")
    return admin, scientist


def add_file(system, principal, workunit_id, staging, name, data):
    source = staging / name
    source.write_bytes(data)
    uri, checksum, size = system.store.ingest(workunit_id, source)
    return system.workunits.add_resource(
        principal, workunit_id, name, uri, size_bytes=size, checksum=checksum
    )


def seed_corpus(system, admin, scientist, staging, *, text_resources=True):
    """Creates, raw updates, a rejected and a merged annotation, and an
    import rolled back by an injected fault."""
    staging.mkdir(exist_ok=True)
    project = system.projects.create(
        scientist, "Arabidopsis light response",
        description="leaf development under light and dark",
    )
    other = system.projects.create(admin, "Mouse muscle atlas")
    leaf = system.samples.register_sample(
        scientist, project.id, "wt light leaf 1",
        species="Arabidopsis Thaliana", description="rosette leaf",
        attributes={"tissue": "leaf", "age": "14d", "light": "high"},
    )
    dark = system.samples.register_sample(
        scientist, project.id, "wt dark leaf 2",
        species="Arabidopsis Thaliana",
        attributes={"zone": "apex", "tissue": "root"},
    )
    system.samples.register_sample(
        admin, other.id, "markerterm1 sample", species="Mus musculus",
        description="muscle",
    )
    system.samples.register_extract(
        scientist, leaf.id, "rna extract 1", procedure="trizol",
        description="phenol chloroform cleanup",
    )
    workunit = system.workunits.create(
        scientist, project.id, "import workunit",
        description="markerterm1 analysis of measurement data",
    )
    for i in range(3):
        system.workunits.create(
            admin, other.id, f"routine workunit {i}",
            description=f"markerterm1 calibration run {i}",
        )
    if text_resources:
        add_file(system, scientist, workunit.id, staging, "report.txt",
                 b"42 genes tested, 7 significant in arabidopsis leaf")
    add_file(system, scientist, workunit.id, staging, "scan01.cel", b"\x00\x01")
    pigment = system.annotations.define_attribute(admin, "pigment")
    keep, _ = system.annotations.create_annotation(scientist, pigment.id, "lutein")
    loser, _ = system.annotations.create_annotation(scientist, pigment.id, "luteine")
    bad, _ = system.annotations.create_annotation(scientist, pigment.id, "zeaxanthin")
    good, _ = system.annotations.create_annotation(scientist, pigment.id, "chlorophyll")
    system.annotations.release(admin, good.id)
    system.annotations.reject(admin, bad.id)
    system.annotations.merge(admin, keep.id, loser.id)
    system.applications.register_application(
        admin, name="two group analysis", connector="rserve",
        executable="two_group_analysis",
        interface={"inputs": ["resource"], "parameters": []},
        description="markerterm1 statistics",
    )
    system.db.update("sample", dark.id, {
        "description": "arabidopsis dark muscle control",
        "attributes": {"zone": "apex", "tissue": "root", "batch": "b7"},
    })
    # A raw move: the workunit's resources follow it into the other project.
    system.db.update("workunit", workunit.id, {"project_id": other.id})
    system.imports.register_provider(AffymetrixGeneChipProvider("gc", runs=1))
    with inject(FaultPlan([Fault("dataimport.ingest", at_call=2)])):
        with pytest.raises(FaultInjected):
            system.imports.import_files(
                scientist, project.id, "gc", ["scan01_a.cel", "scan01_b.cel"],
                workunit_name="doomed import",
            )


def index_state(system, principals):
    """Every document (key, fields in text order, metadata) and the
    ranked answer to every query for every principal."""
    documents = sorted(
        (d.key, list(d.fields.items()), sorted(d.metadata.items()))
        for d in system.search.index.documents()
    )
    answers = [
        [
            (r.entity_type, r.entity_id, r.score, r.label, r.snippet)
            for r in system.search.search(principal, query, limit=50)
        ]
        for principal in principals
        for query in QUERIES
    ]
    return documents, answers


def check_corpus_shape(documents, *, text_resources):
    """Guards the corpus itself: each divergence it exists to catch is in it."""
    by_key = {key: dict(fields) for key, fields, _ in documents}
    projects = {key: dict(meta)["project_id"] for key, _, meta in documents}
    assert by_key[("sample", 1)]["attributes"] == "age 14d light high tissue leaf"
    assert by_key[("extract", 1)]["description"] == "phenol chloroform cleanup"
    assert "batch b7" in by_key[("sample", 2)]["attributes"]
    annotations = {fields["value"] for (kind, _), fields in by_key.items()
                   if kind == "annotation"}
    assert annotations == {"lutein", "chlorophyll"}
    assert not any(fields.get("name") == "doomed import" for fields in by_key.values())
    contents = [f for (kind, _), f in by_key.items() if "content" in f]
    assert len(contents) == (1 if text_resources else 0)
    resources = [key for key in by_key if key[0] == "data_resource"]
    assert resources and all(projects[key] == 2 for key in resources)


@pytest.mark.parametrize("way", ["restart", "replica", "reindex_all"])
def test_four_ways_hold_the_same_index(tmp_path, way):
    primary = new_system(tmp_path / "primary")
    admin, scientist = actors(primary)
    principals = (admin, scientist)
    publisher = replica = follower = None
    try:
        if way == "replica":
            publisher = ReplicationPublisher(primary.db, obs=primary.obs).start()
            follower = new_system(tmp_path / "replica")
            replica = Replica(
                follower, ("127.0.0.1", publisher.port), name="r0"
            ).start()
            replica.wait_for(primary.db.committed_seq, timeout=15.0)
            follower.search.statistics()  # built before the writes
        primary.search.statistics()  # built before the writes: ops go through apply
        text = way != "replica"  # stored file bytes are not replicated
        seed_corpus(primary, admin, scientist, tmp_path / "staging",
                    text_resources=text)
        live = index_state(primary, principals)
        check_corpus_shape(live[0], text_resources=text)
        if way == "restart":
            primary.close()
            primary = new_system(tmp_path / "primary")
            primary.recover()
            other = index_state(primary, principals)
        elif way == "replica":
            replica.wait_for(primary.db.committed_seq, timeout=15.0)
            other = index_state(follower, principals)
        else:
            primary.reindex_all()
            other = index_state(primary, principals)
        assert other[0] == live[0]
        assert other[1] == live[1]
        assert any(live[1])  # the queries do find something
    finally:
        if replica is not None:
            replica.stop()
        if publisher is not None:
            publisher.stop()
        if follower is not None:
            follower.close()
        primary.close()


# -- the divergences, one regression test each ----------------------------------


def labels(system, principal, query):
    return [r.label for r in system.search.search(principal, query)]


def test_sample_attribute_and_extract_description_found_after_restart(tmp_path):
    system = new_system(tmp_path)
    admin, scientist = actors(system)
    project = system.projects.create(scientist, "Arabidopsis")
    sample = system.samples.register_sample(
        scientist, project.id, "wt 1", attributes={"tissue": "rosette"}
    )
    system.samples.register_extract(
        scientist, sample.id, "rna 1", description="phenol chloroform"
    )
    system.close()
    revived = new_system(tmp_path)
    revived.recover()
    revived.reindex_all()  # what `repro serve` does before serving
    assert labels(revived, scientist, "rosette") == ["wt 1"]
    assert labels(revived, scientist, "chloroform") == ["rna 1"]
    revived.close()


def test_rejected_annotation_is_not_found_live():
    system = new_system()
    admin, scientist = actors(system)
    pigment = system.annotations.define_attribute(admin, "pigment")
    value, _ = system.annotations.create_annotation(scientist, pigment.id, "zeaxanthin")
    assert labels(system, scientist, "zeaxanthin") == ["zeaxanthin"]
    system.annotations.reject(admin, value.id)
    assert labels(system, scientist, "zeaxanthin") == []


def test_merged_annotation_loser_is_not_found():
    system = new_system()
    admin, scientist = actors(system)
    pigment = system.annotations.define_attribute(admin, "pigment")
    keep, _ = system.annotations.create_annotation(scientist, pigment.id, "lutein")
    loser, _ = system.annotations.create_annotation(scientist, pigment.id, "luteine")
    assert labels(system, scientist, "luteine") == ["luteine"]
    system.annotations.merge(admin, keep.id, loser.id)
    assert labels(system, scientist, "luteine") == []
    assert labels(system, scientist, "lutein") == ["lutein"]


def test_raw_transaction_insert_is_found_on_a_built_index():
    system = new_system()
    admin, scientist = actors(system)
    project = system.projects.create(scientist, "Arabidopsis")
    assert labels(system, scientist, "quinoa") == []  # builds the index
    with system.db.transaction() as txn:
        txn.insert("sample", {
            "name": "quinoa seedling", "project_id": project.id,
            "created_by": scientist.user_id,
        })
    assert labels(system, scientist, "quinoa") == ["quinoa seedling"]
