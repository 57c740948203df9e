"""Sharded write path: routing, scatter-gather reads, 2PC, and the
contract that one shard is a plain Database."""

import os
import random

import pytest

from repro.errors import (
    CrashPoint,
    FaultInjected,
    RowNotFound,
    SchemaError,
    TransactionError,
)
from repro import cli
from repro.facade import BFabric
from repro.resilience.faults import Fault, FaultPlan, inject
from repro.storage import Column, ColumnType, Database, TableSchema
from repro.storage.sharding import (
    ShardedDatabase,
    ShardRouter,
    stable_hash,
    stored_shard_count,
)


def _schemas() -> list[TableSchema]:
    """A B-Fabric-shaped slice: projects, project-scoped samples, a
    global reference table, and a plain hash-routed table."""
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


def _make(tmp_path=None, shards=4, **kwargs):
    kwargs.setdefault("router", ShardRouter(global_tables={"app_user"}))
    sdb = ShardedDatabase(tmp_path, shards=shards, **kwargs)
    for schema in _schemas():
        sdb.create_table(schema)
    return sdb


@pytest.fixture
def sdb():
    database = _make(shards=4)
    yield database
    database.close()


def pk_on_shard(sdb, shard, *, start=1):
    """A pk (from *start*) that stable-hashes onto *shard*."""
    return next(
        i for i in range(start, start + 10_000) if sdb.shard_index(i) == shard
    )


class TestRouter:
    def test_stable_hash_is_deterministic_and_type_tagged(self):
        assert stable_hash(42) == stable_hash(42)
        assert stable_hash("42") != stable_hash(42)
        assert stable_hash(True) != stable_hash(1)
        spread = {stable_hash(i) % 4 for i in range(64)}
        assert spread == {0, 1, 2, 3}

    def test_placements(self, sdb):
        placements = {
            name: sdb.placement(name)[0] for name in sdb.table_names()
        }
        assert placements == {
            "app_user": "global",
            "project": "project",
            "sample": "project",
            "note": "hash",
        }
        # The project table routes by its own pk; children by project_id.
        assert sdb.placement("project")[1] == "id"
        assert sdb.placement("sample")[1] == "project_id"

    def test_parent_placement_follows_fk(self, sdb):
        sdb.create_table(
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
        assert sdb.placement("sample_note") == (
            "parent",
            "sample_id",
            "sample",
        )
        project = sdb.insert("project", {"name": "p"})
        sample = sdb.insert(
            "sample", {"project_id": project["id"], "kind": "dna"}
        )
        note = sdb.insert("sample_note", {"sample_id": sample["id"]})
        home = sdb.shard_index(project["id"])
        assert note["id"] in sdb.shard(home).table("sample_note")

    def test_unknown_table_raises_early(self, sdb):
        with pytest.raises(SchemaError):
            sdb.placement("nope")
        with pytest.raises(SchemaError):
            sdb.query("nope")


class TestRoutedWrites:
    def test_project_and_children_colocate(self, sdb):
        for _ in range(8):
            project = sdb.insert("project", {"name": "p"})
            sample = sdb.insert(
                "sample", {"project_id": project["id"], "kind": "dna"}
            )
            home = sdb.shard_index(project["id"])
            assert project["id"] in sdb.shard(home).table("project")
            assert sample["id"] in sdb.shard(home).table("sample")

    def test_autoincrement_pks_unique_across_shards(self, sdb):
        ids = [sdb.insert("note", {"body": "x"})["id"] for _ in range(24)]
        assert len(set(ids)) == 24
        used = {sid for sid in range(4) if sdb.shard(sid).count("note")}
        assert len(used) > 1  # the workload really is spread out

    def test_update_delete_route_to_owner(self, sdb):
        note = sdb.insert("note", {"body": "before"})
        assert sdb.update("note", note["id"], {"body": "after"})["body"] == (
            "after"
        )
        assert sdb.get("note", note["id"])["body"] == "after"
        sdb.delete("note", note["id"])
        assert sdb.get_or_none("note", note["id"]) is None
        with pytest.raises(RowNotFound):
            sdb.update("note", note["id"], {"body": "gone"})

    def test_routing_column_update_cannot_migrate_rows(self, sdb):
        project = sdb.insert("project", {"name": "p"})
        sample = sdb.insert(
            "sample", {"project_id": project["id"], "kind": "dna"}
        )
        home = sdb.shard_index(project["id"])
        other_project = pk_on_shard(sdb, (home + 1) % 4)
        with pytest.raises(TransactionError, match="migration"):
            sdb.update("sample", sample["id"], {"project_id": other_project})
        # A same-shard routing value is fine.
        same = pk_on_shard(sdb, home, start=project["id"] + 1)
        updated = sdb.update("sample", sample["id"], {"project_id": same})
        assert updated["project_id"] == same


class TestGlobalTables:
    def test_global_writes_fan_out_to_every_shard(self, sdb):
        user = sdb.insert("app_user", {"login": "ada"})
        for sid in range(4):
            assert user["id"] in sdb.shard(sid).table("app_user")
        sdb.update("app_user", user["id"], {"login": "ada2"})
        for sid in range(4):
            row = sdb.shard(sid).get("app_user", user["id"])
            assert row["login"] == "ada2"
        sdb.delete("app_user", user["id"])
        for sid in range(4):
            assert user["id"] not in sdb.shard(sid).table("app_user")

    def test_global_reads_hit_shard_zero(self, sdb):
        sdb.insert("app_user", {"login": "ada"})
        plan = sdb.query("app_user").explain()
        assert plan["routing"] == "global"
        assert plan["shards_consulted"] == [0]
        assert sdb.count("app_user") == 1  # not 4

    def test_verify_integrity_flags_global_divergence(self, sdb):
        sdb.insert("app_user", {"login": "ada"})
        assert sdb.verify_integrity() == []
        sdb.shard(2).insert("app_user", {"id": 99, "login": "rogue"})
        problems = sdb.verify_integrity()
        assert any("app_user" in p and "shard 2" in p for p in problems)

    def test_verify_integrity_flags_duplicate_partitioned_pk(self, sdb):
        note = sdb.insert("note", {"body": "x"})
        wrong = (sdb.shard_index(note["id"]) + 1) % 4
        sdb.shard(wrong).insert("note", {"id": note["id"], "body": "dup"})
        problems = sdb.verify_integrity()
        assert any("present on shards" in p for p in problems)


class TestScatterGatherQueries:
    @pytest.fixture
    def loaded(self, sdb):
        for i in range(1, 41):
            sdb.insert(
                "sample",
                {
                    "id": i,
                    "project_id": i % 5,
                    "kind": "dna" if i % 2 else "rna",
                    "mass": float(i),
                },
            )
        return sdb

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
        plan = loaded.query("sample").where("project_id", "=", 3).explain()
        assert plan["routing"] == "direct"
        assert plan["shards_consulted"] == [loaded.shard_index(3)]
        rows = loaded.query("sample").where("project_id", "=", 3).all()
        assert sorted(row["id"] for row in rows) == [3, 8, 13, 18, 23, 28, 33, 38]

    def test_scatter_explain_reports_fanout(self, loaded):
        plan = loaded.query("sample").where("kind", "=", "dna").explain()
        assert plan["routing"] == "scatter"
        assert plan["shards_consulted"] == [0, 1, 2, 3]
        assert set(plan["shards"]) == {0, 1, 2, 3}

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
    def test_cross_shard_commit_is_atomic_and_counted(self, sdb):
        a = pk_on_shard(sdb, 0)
        b = pk_on_shard(sdb, 1)
        with sdb.transaction() as txn:
            txn.insert("note", {"id": a, "body": "a"})
            txn.insert("note", {"id": b, "body": "b"})
        assert a in sdb.shard(0).table("note")
        assert b in sdb.shard(1).table("note")
        samples = dict(
            (labels["outcome"], child.value)
            for labels, child in sdb.obs.metrics.get(
                "storage_2pc_total"
            ).samples()
        )
        assert samples.get("commit") == 1

    def test_cross_shard_rollback_undoes_every_shard(self, sdb):
        a = pk_on_shard(sdb, 0)
        b = pk_on_shard(sdb, 1)
        txn = sdb.transaction()
        txn.insert("note", {"id": a, "body": "a"})
        txn.insert("note", {"id": b, "body": "b"})
        txn.rollback()
        assert sdb.count("note") == 0
        with pytest.raises(TransactionError):
            txn.insert("note", {"id": a, "body": "again"})

    def test_commit_records_carry_gtid(self, sdb):
        a = pk_on_shard(sdb, 0)
        b = pk_on_shard(sdb, 1)
        with sdb.transaction() as txn:
            txn.insert("note", {"id": a, "body": "a"})
            txn.insert("note", {"id": b, "body": "b"})
        # In-memory deployment: WALs are None, protocol not exercised.
        assert sdb.shard(0).wal is None

    def test_single_shard_wrapper_txn_routes_direct(self, sdb):
        a = pk_on_shard(sdb, 2)
        with sdb.transaction() as txn:
            txn.insert("note", {"id": a, "body": "a"})
            txn.update("note", a, {"body": "b"})
        family = sdb.obs.metrics.get("storage_2pc_total")
        assert all(child.value == 0 for _l, child in family.samples())
        assert sdb.get("note", a)["body"] == "b"

    def test_failure_before_decision_presumes_abort(self, sdb):
        a = pk_on_shard(sdb, 0)
        b = pk_on_shard(sdb, 1)
        plan = FaultPlan([Fault("2pc.decide", kind="error", at_call=1)])
        with inject(plan):
            with pytest.raises(FaultInjected):
                with sdb.transaction() as txn:
                    txn.insert("note", {"id": a, "body": "a"})
                    txn.insert("note", {"id": b, "body": "b"})
        assert sdb.count("note") == 0
        samples = dict(
            (labels["outcome"], child.value)
            for labels, child in sdb.obs.metrics.get(
                "storage_2pc_total"
            ).samples()
        )
        assert samples.get("abort") == 1
        # The deployment stays writable afterwards.
        with sdb.transaction() as txn:
            txn.insert("note", {"id": a, "body": "retry"})
            txn.insert("note", {"id": b, "body": "retry"})
        assert sdb.count("note") == 2

    def test_savepoint_rolls_back_later_touched_shard(self, sdb):
        a = pk_on_shard(sdb, 0)
        b = pk_on_shard(sdb, 1)
        with sdb.transaction() as txn:
            txn.insert("note", {"id": a, "body": "keep"})
            txn.savepoint("sp")
            txn.insert("note", {"id": b, "body": "drop"})
            txn.rollback_to("sp")
        assert sdb.get("note", a)["body"] == "keep"
        assert sdb.get_or_none("note", b) is None

    def test_snapshot_vector_never_sees_half_a_2pc(self, sdb):
        a = pk_on_shard(sdb, 0)
        b = pk_on_shard(sdb, 1)
        before = sdb.snapshot()
        with sdb.transaction() as txn:
            txn.insert("note", {"id": a, "body": "a"})
            txn.insert("note", {"id": b, "body": "b"})
        after = sdb.snapshot()
        assert before.count("note") == 0
        assert after.count("note") == 2
        assert len(after.vector) == 4
        before.close()
        after.close()


class TestCoordinatorAggregation:
    def test_statistics_and_shard_status(self, sdb):
        sdb.insert("project", {"name": "p"})
        sdb.insert("app_user", {"login": "ada"})
        stats = sdb.statistics()
        assert stats["tables"] == {
            "project": 1,
            "app_user": 1,
            "sample": 0,
            "note": 0,
        }
        sharding = stats["sharding"]
        assert sharding["shards"] == 4
        assert sharding["placements"]["app_user"] == "global"
        assert len(sharding["per_shard"]) == 4
        assert {row["shard"] for row in sharding["per_shard"]} == {0, 1, 2, 3}

    def test_mvcc_gauges_aggregate_across_shards(self, sdb):
        snaps = [sdb.shard(sid).snapshot() for sid in range(3)]
        assert sdb.open_snapshots() == 3
        vector = sdb.snapshot()
        assert sdb.open_snapshot_vectors() == 1
        assert sdb.open_snapshots() == 7  # 3 + one per shard
        for snap in snaps:
            snap.close()
        vector.close()
        assert sdb.open_snapshot_vectors() == 0
        assert sdb.open_snapshots() == 0

    def test_prune_versions_sums_per_table_across_shards(self, sdb):
        pks = [sdb.insert("note", {"body": "x"})["id"] for _ in range(12)]
        for pk in pks:
            sdb.update("note", pk, {"body": "y"})
        reclaimed = sdb.prune_versions()
        assert reclaimed.get("note", 0) >= 12

    def test_version_horizon_is_most_conservative_shard(self, sdb):
        sdb.insert("note", {"body": "x"})
        assert sdb.version_horizon() == min(
            sdb.shard(sid).version_horizon() for sid in range(4)
        )


class TestDropInSingleShard:
    """One shard is not a coordinator: it is a plain Database."""

    def test_database_shaped_surface(self, tmp_path):
        assert type(BFabric(shards=1).db) is Database
        system = BFabric(tmp_path / "d", shards=1)
        assert type(system.db) is Database
        system.close()
        assert not (tmp_path / "d" / "db" / "shard_map.json").exists()
        reopened = BFabric(tmp_path / "d")
        assert type(reopened.db) is Database
        reopened.close()
        with pytest.raises(SchemaError, match=">= 2 shards"):
            ShardedDatabase(shards=1)

    def test_init_with_one_shard_creates_a_plain_database(self, tmp_path, capsys):
        data = str(tmp_path / "d")
        assert cli.main(["--data", data, "init", "--shards", "1"]) == 0
        assert "sharded" not in capsys.readouterr().out
        assert stored_shard_count(tmp_path / "d" / "db") == 1
        system = BFabric(data)
        system.recover()
        assert type(system.db) is Database
        assert system.directory.user_by_login("admin") is not None
        system.close()

    def test_partitioned_table_access_raises_at_n_gt_1(self, sdb):
        with pytest.raises(SchemaError, match="partitioned"):
            sdb.table("note")
        # Global tables still expose a single authoritative Table.
        assert sdb.table("app_user").schema.name == "app_user"


class TestShardMapPersistence:
    def test_plain_directory_refuses_two_shards(self, tmp_path):
        plain = BFabric(tmp_path / "d")
        plain.bootstrap(password="pw")
        plain.close()
        before = sorted(os.listdir(tmp_path / "d" / "db"))
        with pytest.raises(SchemaError, match=r"holds 1 shard.* with 2"):
            BFabric(tmp_path / "d", shards=2)
        assert sorted(os.listdir(tmp_path / "d" / "db")) == before
        again = BFabric(tmp_path / "d")
        again.recover()
        assert type(again.db) is Database
        assert again.directory.user_by_login("admin") is not None
        again.close()

    def test_two_shard_directory_refuses_one_shard(self, tmp_path):
        sharded = BFabric(tmp_path / "d", shards=2)
        sharded.bootstrap(password="pw")
        sharded.close()
        before = sorted(os.listdir(tmp_path / "d" / "db"))
        with pytest.raises(SchemaError, match=r"holds 2 shard.* with 1"):
            BFabric(tmp_path / "d", shards=1)
        assert sorted(os.listdir(tmp_path / "d" / "db")) == before
        again = BFabric(tmp_path / "d")
        again.recover()
        assert type(again.db) is ShardedDatabase
        assert again.db.shard_count == 2
        assert again.directory.user_by_login("admin") is not None
        again.close()

    def test_reopen_with_other_count_refuses(self, tmp_path):
        sdb = _make(tmp_path / "d", shards=2)
        sdb.insert("note", {"body": "x"})
        sdb.close()
        assert stored_shard_count(tmp_path / "d") == 2
        with pytest.raises(SchemaError, match="resharding"):
            _make(tmp_path / "d", shards=4)

    def test_shards_get_independent_directories_and_wals(self, tmp_path):
        sdb = _make(tmp_path / "d", shards=2, durability="always")
        a = pk_on_shard(sdb, 0)
        b = pk_on_shard(sdb, 1)
        sdb.insert("note", {"id": a, "body": "a"})
        sdb.insert("note", {"id": b, "body": "b"})
        assert (tmp_path / "d" / "shard-0").is_dir()
        assert (tmp_path / "d" / "shard-1").is_dir()
        wal0 = sdb.shard(0).wal
        wal1 = sdb.shard(1).wal
        assert wal0 is not None and wal1 is not None
        assert wal0.path != wal1.path
        kinds0 = [r["kind"] for r in wal0.records()]
        assert "commit" in kinds0
        sdb.close()

    def test_reopen_recover_restores_rows_and_allocator(self, tmp_path):
        sdb = _make(tmp_path / "d", shards=2, durability="always")
        ids = [sdb.insert("note", {"body": "x"})["id"] for _ in range(6)]
        sdb.close()
        again = _make(tmp_path / "d", shards=2, durability="always")
        again.recover()
        assert again.count("note") == 6
        fresh = again.insert("note", {"body": "new"})["id"]
        assert fresh not in ids
        again.close()


# -- conformance: a sharded query answers exactly what a Database does -------

#: Conformance tables and the column an equality predicate routes on:
#: ``lab`` is global, ``sample`` routes by project, ``note`` hashes its pk.
ROUTE_COLUMNS = {"lab": "id", "sample": "project_id", "note": "id"}


def _conformance_schemas() -> list[TableSchema]:
    def columns(*extra):
        return [
            Column("id", ColumnType.INT, primary_key=True),
            *extra,
            Column("grp", ColumnType.TEXT),
            Column("val", ColumnType.FLOAT),
        ]

    return [
        TableSchema("lab", columns(), indexes=["grp"]),
        TableSchema(
            "sample",
            columns(Column("project_id", ColumnType.INT, nullable=False)),
            indexes=["project_id", "grp"],
            ordered=["val"],
        ),
        TableSchema("note", columns(), ordered=["val"]),
    ]


def _conformance_row(rng, table, pk):
    row = {
        "id": pk,
        "grp": rng.choice(["a", "b", "c", None]),
        # Integral floats: sums are exact whatever order shards add in.
        "val": rng.choice([None, *map(float, range(8))]),
    }
    if table == "sample":
        row["project_id"] = rng.randrange(6)
    return row


@pytest.fixture(scope="module")
def conformance():
    """The same seeded rows in a Database and a 2-shard coordinator,
    each with a snapshot taken before an identical batch of writes."""
    router = ShardRouter(global_tables={"lab"})
    plain, sharded = Database(), ShardedDatabase(shards=2, router=router)
    rng = random.Random(2010)
    seeded = {
        table: [_conformance_row(rng, table, pk) for pk in range(1, 41)]
        for table in ROUTE_COLUMNS
    }
    later = {
        table: [_conformance_row(rng, table, pk) for pk in range(41, 46)]
        for table in ROUTE_COLUMNS
    }
    for db in (plain, sharded):
        for schema in _conformance_schemas():
            db.create_table(schema)
        for table, rows in seeded.items():
            for row in rows:
                db.insert(table, row)
    snaps = [plain.snapshot(), sharded.snapshot()]
    for db in (plain, sharded):
        for table, rows in later.items():
            for row in rows:
                db.insert(table, row)
            db.update(table, 5, {"grp": "c", "val": 6.0})
            db.delete(table, 11)
    yield {
        "live": (plain.query, sharded.query),
        "snapshot": (snaps[0].query, snaps[1].query),
    }
    for snap in snaps:
        snap.close()
    sharded.close()


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
    plain_query, sharded_query = conformance[mode]
    terminal, total = _conformance_ops(ROUTE_COLUMNS[table])[op]
    expected = terminal(plain_query(table))
    actual = terminal(sharded_query(table))
    if not total:
        expected, actual = _unordered(expected), _unordered(actual)
    assert actual == expected
