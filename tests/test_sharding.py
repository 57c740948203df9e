"""One engine: writes, queries, transactions and the on-disk layout of a
single ``Database``, and the refusal of a sharded data directory.

This suite once tested a sharded coordinator.  Sharding was removed;
the test names stay, and each test now pins on the one ``Database`` the
behaviour its sharded counterpart checked on the coordinator: writes
land where reads find them, a unique table holds one copy, queries
merge nothing and lose nothing, a multi-row transaction commits or
rolls back as one, and a directory a sharded deployment left behind is
refused rather than opened.
"""

import os
import random

import pytest

from repro.errors import (
    FaultInjected,
    ForeignKeyViolation,
    PrimaryKeyViolation,
    RowNotFound,
    SchemaError,
    TransactionError,
)
from repro import cli
from repro.facade import BFabric
from repro.resilience.faults import Fault, FaultPlan, inject
from repro.storage import Column, ColumnType, Database, TableSchema
from repro.storage.table import Table


def _schemas() -> list[TableSchema]:
    """A B-Fabric-shaped slice: users with unique logins, projects,
    project-scoped samples, and a plain table."""
    return [
        TableSchema(
            name="app_user",
            columns=[
                Column("id", ColumnType.INT, primary_key=True),
                Column("login", ColumnType.TEXT, nullable=False, unique=True),
            ],
        ),
        TableSchema(
            name="project",
            columns=[
                Column("id", ColumnType.INT, primary_key=True),
                Column("name", ColumnType.TEXT, nullable=False),
            ],
        ),
        TableSchema(
            name="sample",
            columns=[
                Column("id", ColumnType.INT, primary_key=True),
                Column("project_id", ColumnType.INT, nullable=False),
                Column("kind", ColumnType.TEXT),
                Column("mass", ColumnType.FLOAT),
            ],
            indexes=["project_id"],
        ),
        TableSchema(
            name="note",
            columns=[
                Column("id", ColumnType.INT, primary_key=True),
                Column("body", ColumnType.TEXT),
            ],
        ),
    ]


def _make(path=None, **kwargs) -> Database:
    database = Database(path, **kwargs)
    for schema in _schemas():
        database.create_table(schema)
    return database


@pytest.fixture
def database():
    database = _make()
    yield database
    database.close()


def _commits(database) -> float:
    family = database.obs.metrics.get("storage_commits_total")
    return sum(child.value for _labels, child in family.samples())


def _sharded_layout(db_dir, shards=2):
    """The files a sharded deployment left in ``db/``: a shard map and
    one directory with its own WAL per shard."""
    db_dir.mkdir(parents=True)
    (db_dir / "shard_map.json").write_text(
        f'{{"shards": {shards}, "placements": {{}}}}', encoding="utf-8"
    )
    for sid in range(shards):
        (db_dir / f"shard-{sid}").mkdir()
        (db_dir / f"shard-{sid}" / "wal.log").write_bytes(b"")


def _listing(root):
    return {
        path: path.read_bytes() if path.is_file() else None
        for path in root.rglob("*")
    }


class TestRouter:
    def test_parent_placement_follows_fk(self, database):
        database.create_table(
            TableSchema(
                name="sample_note",
                columns=[
                    Column("id", ColumnType.INT, primary_key=True),
                    Column(
                        "sample_id",
                        ColumnType.INT,
                        foreign_key="sample.id",
                    ),
                ],
            )
        )
        assert [ref[:2] for ref in database.referencing("sample")] == [
            ("sample_note", "sample_id")
        ]
        project = database.insert("project", {"name": "p"})
        sample = database.insert(
            "sample", {"project_id": project["id"], "kind": "dna"}
        )
        note = database.insert("sample_note", {"sample_id": sample["id"]})
        assert database.get("sample_note", note["id"])["sample_id"] == (
            sample["id"]
        )
        with pytest.raises(ForeignKeyViolation):
            database.insert("sample_note", {"sample_id": sample["id"] + 99})
        assert database.count("sample_note") == 1

    def test_unknown_table_raises_early(self, database):
        with pytest.raises(SchemaError):
            database.table("nope")
        with pytest.raises(SchemaError):
            database.query("nope")
        with pytest.raises(SchemaError):
            database.insert("nope", {"id": 1})


class TestRoutedWrites:
    def test_project_and_children_colocate(self, database):
        for _ in range(8):
            project = database.insert("project", {"name": "p"})
            sample = database.insert(
                "sample", {"project_id": project["id"], "kind": "dna"}
            )
            children = database.query("sample").where(
                "project_id", "=", project["id"]
            )
            assert children.pks() == [sample["id"]]
            assert children.explain()["strategy"] == "index:sx_sample_project_id"

    def test_autoincrement_pks_unique_across_shards(self, database):
        ids = [database.insert("note", {"body": "x"})["id"] for _ in range(24)]
        assert len(set(ids)) == 24
        assert ids == sorted(ids)
        assert database.count("note") == 24

    def test_update_delete_route_to_owner(self, database):
        note = database.insert("note", {"body": "before"})
        assert database.update("note", note["id"], {"body": "after"})[
            "body"
        ] == "after"
        assert database.get("note", note["id"])["body"] == "after"
        database.delete("note", note["id"])
        assert database.get_or_none("note", note["id"]) is None
        with pytest.raises(RowNotFound):
            database.update("note", note["id"], {"body": "gone"})

    def test_routing_column_update_cannot_migrate_rows(self, database):
        # In one database a row never migrates: changing its project
        # only moves it between index buckets.
        project = database.insert("project", {"name": "p"})
        other = database.insert("project", {"name": "q"})
        sample = database.insert(
            "sample", {"project_id": project["id"], "kind": "dna"}
        )
        updated = database.update(
            "sample", sample["id"], {"project_id": other["id"]}
        )
        assert updated["project_id"] == other["id"]

        def by_project(pk):
            return database.query("sample").where("project_id", "=", pk).pks()

        assert by_project(project["id"]) == []
        assert by_project(other["id"]) == [sample["id"]]
        assert database.verify_integrity() == []


class TestGlobalTables:
    def test_global_writes_fan_out_to_every_shard(self, database):
        user = database.insert("app_user", {"login": "ada"})
        assert database.count("app_user") == 1
        database.update("app_user", user["id"], {"login": "ada2"})
        assert database.get("app_user", user["id"])["login"] == "ada2"
        assert database.query("app_user").where(
            "login", "=", "ada2"
        ).pks() == [user["id"]]
        database.delete("app_user", user["id"])
        assert database.count("app_user") == 0
        assert database.query("app_user").where(
            "login", "=", "ada2"
        ).pks() == []

    def test_global_reads_hit_shard_zero(self, database):
        database.insert("app_user", {"login": "ada"})
        plan = database.query("app_user").explain()
        assert plan["table"] == "app_user"
        assert plan["strategy"] == "scan"
        assert "routing" not in plan and "shards_consulted" not in plan
        assert database.count("app_user") == 1

    def test_verify_integrity_flags_global_divergence(self, database):
        user = database.insert("app_user", {"login": "ada"})
        assert database.verify_integrity() == []
        # Sabotage: drop the row from its unique index behind the
        # engine's back.
        (logins,) = database.table("app_user")._unique_indexes
        logins.remove(user, user["id"])
        problems = database.verify_integrity()
        assert any(
            "app_user" in p and "missing from unique index" in p
            for p in problems
        )
        database.rebuild_indexes()
        assert database.verify_integrity() == []

    def test_verify_integrity_flags_duplicate_partitioned_pk(self, database):
        note = database.insert("note", {"body": "x"})
        with pytest.raises(PrimaryKeyViolation):
            database.insert("note", {"id": note["id"], "body": "dup"})
        assert database.count("note") == 1
        assert database.get("note", note["id"])["body"] == "x"
        assert database.verify_integrity() == []


class TestScatterGatherQueries:
    @pytest.fixture
    def loaded(self, database):
        for i in range(1, 41):
            database.insert(
                "sample",
                {
                    "id": i,
                    "project_id": i % 5,
                    "kind": "dna" if i % 2 else "rna",
                    "mass": float(i),
                },
            )
        return database

    def test_scatter_merges_order_limit_offset(self, loaded):
        rows = (
            loaded.query("sample")
            .order_by("mass", descending=True)
            .offset(2)
            .limit(3)
            .all()
        )
        assert [row["id"] for row in rows] == [38, 37, 36]

    def test_count_exists_values(self, loaded):
        q = loaded.query("sample").where("kind", "=", "dna")
        assert q.count() == 20
        assert q.exists()
        assert loaded.count("sample") == 40
        assert set(loaded.query("sample").distinct_values("kind")) == {
            "dna",
            "rna",
        }

    def test_eq_on_routing_column_goes_direct(self, loaded):
        query = loaded.query("sample").where("project_id", "=", 3)
        plan = query.explain()
        assert plan["strategy"] == "index:sx_sample_project_id"
        assert plan["candidates"] == 8
        rows = loaded.query("sample").where("project_id", "=", 3).all()
        assert sorted(row["id"] for row in rows) == [3, 8, 13, 18, 23, 28, 33, 38]

    def test_scatter_explain_reports_fanout(self, loaded):
        plan = loaded.query("sample").where("kind", "=", "dna").explain()
        assert plan["strategy"] == "scan"
        assert plan["candidates"] == 40
        assert plan["residual_predicates"] == 1
        assert "shards" not in plan and "shards_consulted" not in plan

    def test_aggregates_merge_across_shards(self, loaded):
        q = loaded.query("sample")
        assert q.aggregate("mass", "sum") == sum(range(1, 41))
        assert q.aggregate("mass", "min") == 1.0
        assert q.aggregate("mass", "max") == 40.0
        assert q.aggregate("mass", "avg") == pytest.approx(20.5)
        assert q.aggregate("id", "count") == 40

    def test_group_by_merges_across_shards(self, loaded):
        counts = loaded.query("sample").group_by("project_id")
        assert counts == {0: 8, 1: 8, 2: 8, 3: 8, 4: 8}
        avgs = loaded.query("sample").group_by(
            "kind", aggregate="avg", value_column="mass"
        )
        assert avgs["dna"] == pytest.approx(20.0)
        assert avgs["rna"] == pytest.approx(21.0)

    def test_snapshot_pinned_query(self, loaded):
        with loaded.snapshot() as snap:
            loaded.insert(
                "sample", {"project_id": 1, "kind": "dna", "mass": 999.0}
            )
            assert snap.count("sample") == 40
            assert snap.query("sample").where("kind", "=", "dna").count() == 20
        assert loaded.count("sample") == 41


class TestCrossShardTransactions:
    def test_cross_shard_commit_is_atomic_and_counted(self, database):
        before = _commits(database)
        with database.transaction() as txn:
            txn.insert("note", {"id": 1, "body": "a"})
            txn.insert("project", {"id": 1, "name": "b"})
        assert database.get("note", 1)["body"] == "a"
        assert database.get("project", 1)["name"] == "b"
        assert _commits(database) == before + 1

    def test_cross_shard_rollback_undoes_every_shard(self, database):
        txn = database.transaction()
        txn.insert("note", {"id": 1, "body": "a"})
        txn.insert("project", {"id": 1, "name": "b"})
        txn.rollback()
        assert database.count("note") == 0
        assert database.count("project") == 0
        with pytest.raises(TransactionError):
            txn.insert("note", {"id": 1, "body": "again"})

    def test_commit_records_carry_gtid(self, tmp_path):
        # One commit record per transaction, holding every operation,
        # and no two-phase fields.
        durable = _make(tmp_path / "d", durability="always")
        with durable.transaction() as txn:
            txn.insert("note", {"id": 1, "body": "a"})
            txn.insert("note", {"id": 2, "body": "b"})
        records = [r for r in durable.wal.records() if r["kind"] == "commit"]
        assert len(records) == 1
        (record,) = records
        header = record["columns"]["note"]
        assert [
            dict(zip(header, values))["id"] for _table, values in record["ops"]
        ] == [1, 2]
        assert record["seq"] == durable.committed_seq
        assert "gtid" not in record
        kinds = {r["kind"] for r in durable.wal.records()}
        assert not kinds & {"prepare", "abort", "decision"}
        durable.close()

    def test_single_shard_wrapper_txn_routes_direct(self, database):
        before = _commits(database)
        with database.transaction() as txn:
            txn.insert("note", {"id": 2, "body": "a"})
            txn.update("note", 2, {"body": "b"})
        assert _commits(database) == before + 1
        assert database.get("note", 2)["body"] == "b"

    def test_failure_before_decision_presumes_abort(self, tmp_path):
        durable = _make(tmp_path / "d", durability="always")
        plan = FaultPlan([Fault("wal.append", kind="error", at_call=1)])
        with inject(plan):
            with pytest.raises(FaultInjected):
                with durable.transaction() as txn:
                    txn.insert("note", {"id": 1, "body": "a"})
                    txn.insert("note", {"id": 2, "body": "b"})
        assert plan.fired() == 1
        assert durable.count("note") == 0
        # The database stays writable afterwards, and the failed commit
        # never reached the log.
        with durable.transaction() as txn:
            txn.insert("note", {"id": 1, "body": "retry"})
            txn.insert("note", {"id": 2, "body": "retry"})
        assert durable.count("note") == 2
        durable.close()
        again = _make(tmp_path / "d", durability="always")
        assert again.recover()["wal_txns"] == 1
        assert {row["body"] for row in again.rows("note")} == {"retry"}
        again.close()

    def test_savepoint_rolls_back_later_touched_shard(self, database):
        with database.transaction() as txn:
            txn.insert("note", {"id": 1, "body": "keep"})
            txn.savepoint("sp")
            txn.insert("project", {"id": 1, "name": "drop"})
            txn.rollback_to("sp")
        assert database.get("note", 1)["body"] == "keep"
        assert database.get_or_none("project", 1) is None

    def test_snapshot_vector_never_sees_half_a_2pc(self, database):
        before = database.snapshot()
        with database.transaction() as txn:
            txn.insert("note", {"id": 1, "body": "a"})
            txn.insert("project", {"id": 1, "name": "b"})
        after = database.snapshot()
        assert before.count("note") == 0 and before.count("project") == 0
        assert after.count("note") == 1 and after.count("project") == 1
        # One transaction is one commit sequence number.
        assert after.seq == before.seq + 1
        before.close()
        after.close()


class TestCoordinatorAggregation:
    def test_statistics_and_shard_status(self, database):
        database.insert("project", {"name": "p"})
        database.insert("app_user", {"login": "ada"})
        stats = database.statistics()
        assert stats["tables"] == {
            "project": 1,
            "app_user": 1,
            "sample": 0,
            "note": 0,
        }
        assert stats["total_rows"] == 2
        assert stats["mvcc"]["committed_seq"] == database.committed_seq
        assert "sharding" not in stats

    def test_mvcc_gauges_aggregate_across_shards(self, database):
        gauge = database.obs.metrics.get("storage_open_snapshots")

        def gauge_value():
            return sum(child.value for _labels, child in gauge.samples())

        snaps = [database.snapshot() for _ in range(3)]
        assert database.open_snapshots() == 3
        assert gauge_value() == 3
        for snap in snaps:
            snap.close()
        assert database.open_snapshots() == 0
        assert gauge_value() == 0

    def test_prune_versions_sums_per_table_across_shards(self, database):
        pks = [database.insert("note", {"body": "x"})["id"] for _ in range(12)]
        for pk in pks:
            database.update("note", pk, {"body": "y"})
        reclaimed = database.prune_versions()
        assert reclaimed.get("note", 0) >= 12

    def test_version_horizon_is_most_conservative_shard(self, database):
        database.insert("note", {"body": "x"})
        old = database.snapshot()
        database.insert("note", {"body": "y"})
        young = database.snapshot()
        database.insert("note", {"body": "z"})
        # The oldest open snapshot pins the horizon.
        assert database.version_horizon() == old.seq < young.seq
        old.close()
        assert database.version_horizon() == young.seq
        young.close()
        assert database.version_horizon() == database.committed_seq


class TestDropInSingleShard:
    """The facade's engine is a plain Database."""

    def test_database_shaped_surface(self, tmp_path):
        assert type(BFabric().db) is Database
        system = BFabric(tmp_path / "d")
        assert type(system.db) is Database
        system.close()
        assert not (tmp_path / "d" / "db" / "shard_map.json").exists()
        reopened = BFabric(tmp_path / "d")
        assert type(reopened.db) is Database
        reopened.close()
        with pytest.raises(TypeError):
            BFabric(shards=1)

    def test_init_with_one_shard_creates_a_plain_database(self, tmp_path, capsys):
        data = str(tmp_path / "d")
        with pytest.raises(SystemExit):
            cli.main(["--data", data, "init", "--shards", "1"])
        capsys.readouterr()
        assert cli.main(["--data", data, "init"]) == 0
        assert "sharded" not in capsys.readouterr().out
        db_dir = tmp_path / "d" / "db"
        assert not (db_dir / "shard_map.json").exists()
        assert not any(p.name.startswith("shard-") for p in db_dir.iterdir())
        system = BFabric(data)
        system.recover()
        assert type(system.db) is Database
        assert system.directory.user_by_login("admin") is not None
        system.close()

    def test_partitioned_table_access_raises_at_n_gt_1(self, database):
        # Every table is one authoritative Table.
        for name in ("note", "app_user"):
            table = database.table(name)
            assert isinstance(table, Table)
            assert table.schema.name == name
        with pytest.raises(SchemaError):
            database.table("nope")


class TestShardMapPersistence:
    def test_plain_directory_refuses_two_shards(self, tmp_path):
        plain = BFabric(tmp_path / "d")
        plain.bootstrap(password="pw")
        plain.close()
        before = sorted(os.listdir(tmp_path / "d" / "db"))
        with pytest.raises(TypeError):
            BFabric(tmp_path / "d", shards=2)
        assert sorted(os.listdir(tmp_path / "d" / "db")) == before
        again = BFabric(tmp_path / "d")
        again.recover()
        assert type(again.db) is Database
        assert again.directory.user_by_login("admin") is not None
        again.close()
        assert "shard_map.json" not in os.listdir(tmp_path / "d" / "db")

    def test_two_shard_directory_refuses_one_shard(self, tmp_path):
        db_dir = tmp_path / "d" / "db"
        _sharded_layout(db_dir, shards=2)
        before = _listing(tmp_path)
        with pytest.raises(SchemaError, match="sharding was removed") as refused:
            BFabric(tmp_path / "d")
        assert str(db_dir / "shard_map.json") in str(refused.value)
        assert _listing(tmp_path) == before

    def test_reopen_with_other_count_refuses(self, tmp_path):
        # Whatever count the map records, and even with no shard
        # directories beside it, the directory is refused.
        for shards in (2, 4):
            db_dir = tmp_path / str(shards) / "db"
            _sharded_layout(db_dir, shards=shards)
            for sid in range(shards):
                (db_dir / f"shard-{sid}" / "wal.log").unlink()
                (db_dir / f"shard-{sid}").rmdir()
            before = _listing(tmp_path)
            with pytest.raises(SchemaError, match="no migration"):
                BFabric(tmp_path / str(shards))
            assert _listing(tmp_path) == before

    def test_shards_get_independent_directories_and_wals(self, tmp_path):
        durable = _make(tmp_path / "d", durability="always")
        durable.insert("note", {"id": 1, "body": "a"})
        durable.insert("note", {"id": 2, "body": "b"})
        assert durable.wal is not None
        assert durable.wal.path.parent == tmp_path / "d"
        assert not any(
            p.name.startswith("shard") for p in (tmp_path / "d").iterdir()
        )
        kinds = [r["kind"] for r in durable.wal.records()]
        assert kinds == ["commit", "commit"]
        durable.close()

    def test_reopen_recover_restores_rows_and_allocator(self, tmp_path):
        durable = _make(tmp_path / "d", durability="always")
        ids = [durable.insert("note", {"body": "x"})["id"] for _ in range(6)]
        durable.close()
        again = _make(tmp_path / "d", durability="always")
        again.recover()
        assert again.count("note") == 6
        fresh = again.insert("note", {"body": "new"})["id"]
        assert fresh not in ids
        again.close()


# -- conformance: an indexed query answers exactly what a scan does ----------

#: Conformance tables and the column an equality predicate selects on:
#: ``lab`` indexes ``grp``; ``sample`` indexes ``project_id`` and ``grp``
#: and orders ``val``; ``note`` only orders ``val``.
ROUTE_COLUMNS = {"lab": "id", "sample": "project_id", "note": "id"}


def _conformance_schemas(*, indexed: bool) -> list[TableSchema]:
    def columns(*extra):
        return [
            Column("id", ColumnType.INT, primary_key=True),
            *extra,
            Column("grp", ColumnType.TEXT),
            Column("val", ColumnType.FLOAT),
        ]

    def schema(name, cols, indexes=(), ordered=()):
        if not indexed:
            indexes, ordered = (), ()
        return TableSchema(
            name, cols, indexes=list(indexes), ordered=list(ordered)
        )

    return [
        schema("lab", columns(), indexes=["grp"]),
        schema(
            "sample",
            columns(Column("project_id", ColumnType.INT, nullable=False)),
            indexes=["project_id", "grp"],
            ordered=["val"],
        ),
        schema("note", columns(), ordered=["val"]),
    ]


def _conformance_row(rng, table, pk):
    row = {
        "id": pk,
        "grp": rng.choice(["a", "b", "c", None]),
        # Integral floats: sums are exact whatever order rows add in.
        "val": rng.choice([None, *map(float, range(8))]),
    }
    if table == "sample":
        row["project_id"] = rng.randrange(6)
    return row


@pytest.fixture(scope="module")
def conformance():
    """The same seeded rows in an indexed Database and in one whose
    tables carry no secondary index (every read a scan), each with a
    snapshot taken before an identical batch of writes."""
    indexed, scanned = Database(), Database()
    rng = random.Random(2010)
    seeded = {
        table: [_conformance_row(rng, table, pk) for pk in range(1, 41)]
        for table in ROUTE_COLUMNS
    }
    later = {
        table: [_conformance_row(rng, table, pk) for pk in range(41, 46)]
        for table in ROUTE_COLUMNS
    }
    for db, flag in ((scanned, False), (indexed, True)):
        for schema in _conformance_schemas(indexed=flag):
            db.create_table(schema)
        for table, rows in seeded.items():
            for row in rows:
                db.insert(table, row)
    snaps = [scanned.snapshot(), indexed.snapshot()]
    for db in (scanned, indexed):
        for table, rows in later.items():
            for row in rows:
                db.insert(table, row)
            db.update(table, 5, {"grp": "c", "val": 6.0})
            db.delete(table, 11)
    yield {
        "live": (scanned.query, indexed.query),
        "snapshot": (snaps[0].query, snaps[1].query),
    }
    for snap in snaps:
        snap.close()


AGGREGATES = ("count", "sum", "min", "max", "avg")


def _conformance_ops(route):
    """name -> (terminal, whether its result order is total)."""
    ops = {
        "all": (lambda q: q.all(), False),
        "all_filtered": (lambda q: q.where("grp", "=", "a").all(), False),
        "all_routed": (lambda q: q.where(route, "=", 3).all(), False),
        "all_range": (
            lambda q: q.where("val", ">=", 2.0).where("val", "<", 6.0).all(),
            False,
        ),
        "page": (
            lambda q: q.order_by("val", descending=True)
            .order_by("id")
            .offset(3)
            .limit(6)
            .all(),
            True,
        ),
        "page_filtered": (
            lambda q: q.where("grp", "!=", "b")
            .order_by("grp")
            .order_by("id", descending=True)
            .offset(2)
            .limit(4)
            .all(),
            True,
        ),
        "first": (lambda q: q.order_by("grp").order_by("id").first(), True),
        "first_none": (lambda q: q.where("grp", "=", "zz").first(), True),
        "one": (lambda q: q.where("id", "=", 7).one(), True),
        "count": (lambda q: q.count(), True),
        "count_filtered": (lambda q: q.where("grp", "=", "b").count(), True),
        "exists": (lambda q: q.where("grp", "=", "c").exists(), True),
        "exists_none": (lambda q: q.where("grp", "=", "zz").exists(), True),
        "pks": (lambda q: q.pks(), False),
        "pks_page": (
            lambda q: q.order_by("id", descending=True).limit(5).pks(),
            True,
        ),
        "values": (lambda q: q.order_by("id").values("val"), True),
        "distinct_values": (lambda q: q.distinct_values("grp"), True),
        "select": (lambda q: q.select("grp").order_by("id").all(), True),
        "select_filtered": (
            lambda q: q.where("grp", "=", "a").select("val").all(),
            False,
        ),
    }
    for fn in AGGREGATES:
        ops[f"aggregate_{fn}"] = (
            lambda q, fn=fn: q.aggregate("val", fn), True
        )
        ops[f"group_by_{fn}"] = (
            lambda q, fn=fn: q.group_by("grp", aggregate=fn), True
        )
        ops[f"group_by_{fn}_value"] = (
            lambda q, fn=fn: q.group_by(
                "grp", aggregate=fn, value_column="val"
            ),
            True,
        )
    return ops


def _unordered(result):
    return sorted(result, key=repr) if isinstance(result, list) else result


@pytest.mark.parametrize("op", sorted(_conformance_ops("id")))
@pytest.mark.parametrize("mode", ["live", "snapshot"])
@pytest.mark.parametrize("table", sorted(ROUTE_COLUMNS))
def test_sharded_terminal_matches_database(conformance, table, mode, op):
    scan_query, indexed_query = conformance[mode]
    terminal, total = _conformance_ops(ROUTE_COLUMNS[table])[op]
    expected = terminal(scan_query(table))
    actual = terminal(indexed_query(table))
    if not total:
        expected, actual = _unordered(expected), _unordered(actual)
    assert actual == expected
