"""The commit feed: ``Database.on_commit(listener(event))``.

Every derived structure is kept from it, so it must deliver each
commit once, in seq order, before ``commit()`` returns, and a listener
that fails must not fail the commit.
"""

import datetime as dt
import sys
import threading

from repro.facade import BFabric
from repro.storage import Column, ColumnType, Database, TableSchema
from repro.util.clock import ManualClock
from repro.workload import DeploymentGenerator, FGCZ_JANUARY_2010

THREADS = 8
COMMITS_PER_THREAD = 25


def run_threads(target) -> None:
    """*THREADS* threads running ``target(t)``, switching often."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=target, args=(t,)) for t in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def doc_db(path) -> Database:
    db = Database(path, durability="group")
    db.create_table(TableSchema("doc", [
        Column("id", ColumnType.INT, primary_key=True),
        Column("body", ColumnType.TEXT, nullable=False),
    ]))
    return db


def test_group_commit_delivers_every_seq_once_in_order(tmp_path):
    db = doc_db(tmp_path)
    delivered: list[int] = []
    delivered_pks: set[int] = set()

    def listener(event):
        delivered.append(event.seq)
        delivered_pks.add(event.ops[0].pk)

    db.on_commit(listener)
    late: list[int] = []

    def writer(t: int) -> None:
        for i in range(COMMITS_PER_THREAD):
            row = db.insert("doc", {"body": f"{t}-{i}"})
            # Delivered before commit() returned.
            if row["id"] not in delivered_pks:
                late.append(row["id"])

    run_threads(writer)
    db.close()
    total = THREADS * COMMITS_PER_THREAD
    assert late == []
    assert len(delivered) == total
    assert delivered == sorted(set(delivered))  # each once, strictly increasing
    assert delivered == list(range(delivered[0], delivered[0] + total))


def test_concurrent_renames_leave_the_final_name_indexed(tmp_path):
    system = BFabric(tmp_path, durability="group")
    admin = system.bootstrap()
    project = system.projects.create(admin, "Arabidopsis")
    sample = system.samples.register_sample(admin, project.id, "start")
    system.search.statistics()  # build, so every rename goes through apply

    def renamer(t: int) -> None:
        for i in range(COMMITS_PER_THREAD):
            system.db.update("sample", sample.id, {"name": f"name{t}x{i}"})

    run_threads(renamer)
    final = system.db.get("sample", sample.id)["name"]
    document = system.search.index.document("sample", sample.id)
    assert document.fields["name"] == final
    assert [r.label for r in system.search.search(admin, final)] == [final]
    system.close()


def test_a_raising_consumer_does_not_fail_the_commit():
    system = BFabric(clock=ManualClock(dt.datetime(2010, 1, 15)))
    admin = system.bootstrap()
    project = system.projects.create(admin, "Arabidopsis")
    system.search.statistics()
    real_put = system.search._put

    def broken_put(*args, **kwargs):
        raise RuntimeError("index is broken")

    system.search._put = broken_put
    sample = system.samples.register_sample(admin, project.id, "quinoa seedling")
    system.search._put = real_put
    assert system.db.get("sample", sample.id)["name"] == "quinoa seedling"
    errors = system.obs.metrics.get("storage_commit_listener_errors_total")
    assert errors.labels().value == 1
    [record] = system.obs.log.records("storage.commit_listener_error")
    assert "index is broken" in record["error"]
    assert not system.indexer.built
    # The next search rebuilds the index, and the row is in it.
    assert [r.label for r in system.search.search(admin, "quinoa")] == [
        "quinoa seedling"
    ]
    assert system.indexer.built


def test_the_index_is_not_built_until_first_use(tmp_path):
    system = BFabric(tmp_path)
    DeploymentGenerator(system, seed=7).generate(FGCZ_JANUARY_2010.scaled(0.002))
    admin = system.bootstrap()
    system.projects.create(admin, "Arabidopsis")
    assert not system.indexer.built
    assert len(system.search._index) == 0
    assert system.search.statistics()["documents"] > 0
    assert system.indexer.built
    system.close()
    revived = BFabric(tmp_path)
    revived.recover()  # delivers "state replaced"
    assert not revived.indexer.built
    revived.close()
