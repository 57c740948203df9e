"""MVCC snapshots: pinned reads, lookups, pruning, recovery."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RowNotFound, SchemaError
from repro.storage import Column, ColumnType, Database, Snapshot, TableSchema
from repro.storage.table import Table
from repro.storage.wal import commit_record


@pytest.fixture
def loaded(people_db: Database) -> Database:
    org = people_db.insert("org", {"name": "FGCZ"})
    for name, age in [("ada", 36), ("grace", 45), ("alan", 41)]:
        people_db.insert(
            "person", {"name": name, "age": age, "org_id": org["id"]}
        )
    return people_db


class TestSnapshotBasics:
    def test_snapshot_pins_point_reads(self, loaded):
        snap = loaded.snapshot()
        loaded.update("person", 1, {"age": 99})
        assert snap.get("person", 1)["age"] == 36
        assert loaded.get("person", 1)["age"] == 99
        snap.close()

    def test_snapshot_pins_scan_and_count(self, loaded):
        with loaded.snapshot() as snap:
            loaded.insert("person", {"name": "edsger", "age": 52})
            loaded.delete("person", 1)
            assert snap.count("person") == 3
            names = {row["name"] for row in snap.scan("person")}
            assert names == {"ada", "grace", "alan"}
            assert sorted(snap.pks("person")) == [1, 2, 3]
        assert loaded.count("person") == 3  # +edsger, -ada

    def test_deleted_row_still_visible_in_old_snapshot(self, loaded):
        snap = loaded.snapshot()
        loaded.delete("person", 2)
        assert snap.contains("person", 2)
        assert snap.get("person", 2)["name"] == "grace"
        fresh = loaded.snapshot()
        assert not fresh.contains("person", 2)
        with pytest.raises(RowNotFound):
            fresh.get("person", 2)
        snap.close()
        fresh.close()

    def test_new_snapshot_sees_committed_changes(self, loaded):
        loaded.update("person", 3, {"age": 42})
        with loaded.snapshot() as snap:
            assert snap.get("person", 3)["age"] == 42

    def test_uncommitted_changes_invisible(self, loaded):
        txn = loaded.transaction()
        txn.insert("person", {"name": "ghost", "age": 1})
        txn.update("person", 1, {"age": 99})
        with loaded.snapshot() as snap:
            # The snapshot postdates the writes but predates the commit.
            assert snap.count("person") == 3
            assert snap.get("person", 1)["age"] == 36
        txn.rollback()

    def test_reads_after_close_fail(self, loaded):
        snap = loaded.snapshot()
        snap.close()
        snap.close()  # idempotent
        assert snap.closed
        with pytest.raises(SchemaError):
            snap.get("person", 1)
        with pytest.raises(SchemaError):
            list(snap.scan("person"))

    def test_context_manager_releases_registration(self, loaded):
        assert loaded.open_snapshots() == 0
        with loaded.snapshot() as snap:
            assert isinstance(snap, Snapshot)
            assert loaded.open_snapshots() == 1
        assert loaded.open_snapshots() == 0

    def test_statistics_report_pinned_counts(self, loaded):
        with loaded.snapshot() as snap:
            loaded.insert("org", {"name": "ETH"})
            stats = snap.statistics()
            assert stats["seq"] == snap.seq
            assert stats["tables"]["org"] == 1
            assert stats["tables"]["person"] == 3


class TestSnapshotLookup:
    def test_lookup_uses_live_index_when_unchanged(self, loaded):
        with loaded.snapshot() as snap:
            rows = snap.lookup("person", "name", "ada")
            assert [r["age"] for r in rows] == [36]

    def test_lookup_falls_back_after_mutation(self, loaded):
        with loaded.snapshot() as snap:
            loaded.update("person", 1, {"name": "augusta"})
            # Live index no longer matches the snapshot: chain fallback.
            assert [r["id"] for r in snap.lookup("person", "name", "ada")] == [1]
            assert snap.lookup("person", "name", "augusta") == []

    def test_composite_lookup(self, loaded):
        with loaded.snapshot() as snap:
            rows = snap.lookup("person", ("org_id", "age"), 1, 45)
            assert [r["name"] for r in rows] == ["grace"]

    def test_lookup_arity_mismatch_rejected(self, loaded):
        with loaded.snapshot() as snap:
            with pytest.raises(SchemaError):
                snap.lookup("person", ("org_id", "age"), 1)

    def test_both_paths_agree(self, loaded):
        pinned = loaded.snapshot()
        expected = pinned.lookup("person", "age", 36)
        loaded.insert("person", {"name": "barbara", "age": 36})
        assert pinned.lookup("person", "age", 36) == expected
        pinned.close()


class TestSnapshotQuery:
    def test_query_evaluates_at_snapshot(self, loaded):
        with loaded.snapshot() as snap:
            loaded.update("person", 2, {"age": 20})
            ages = snap.query("person").where("age", ">=", 40).values("age")
            assert sorted(ages) == [41, 45]

    def test_query_after_close_fails(self, loaded):
        snap = loaded.snapshot()
        query = snap.query("person").where("age", ">=", 40)
        snap.close()
        with pytest.raises(SchemaError):
            query.all()


class TestPruningAndHorizon:
    def test_open_snapshot_retains_versions(self, loaded):
        snap = loaded.snapshot()
        for age in (50, 51, 52):
            loaded.update("person", 1, {"age": age})
        table = loaded.table("person")
        assert table.version_chain_length(1) >= 2
        assert snap.get("person", 1)["age"] == 36
        snap.close()

    def test_close_prunes_version_chains(self, loaded):
        snap = loaded.snapshot()
        for age in (50, 51, 52):
            loaded.update("person", 1, {"age": age})
        snap.close()
        loaded.prune_versions()
        table = loaded.table("person")
        assert table.version_chain_length(1) == 1
        stats = table.version_statistics()
        assert stats["multi_version_chains"] == 0

    def test_pruning_removes_dead_tombstones(self, loaded):
        snap = loaded.snapshot()
        loaded.delete("person", 3)
        assert loaded.table("person").version_statistics()["tombstones"] == 1
        snap.close()
        loaded.prune_versions()
        assert loaded.table("person").version_statistics()["tombstones"] == 0

    def test_horizon_tracks_oldest_snapshot(self, loaded):
        old = loaded.snapshot()
        loaded.update("person", 1, {"age": 37})
        newer = loaded.snapshot()
        assert loaded.version_horizon() == old.seq
        old.close()
        assert loaded.version_horizon() == newer.seq
        newer.close()

    def test_database_statistics_expose_mvcc_state(self, loaded):
        snap = loaded.snapshot()
        loaded.update("person", 1, {"age": 37})
        mvcc = loaded.statistics()["mvcc"]
        assert mvcc["open_snapshots"] == 1
        assert mvcc["committed_seq"] == loaded.table("person").version
        assert mvcc["retained_versions"] >= 1
        snap.close()


class TestRecovery:
    def _schema(self) -> TableSchema:
        return TableSchema(
            "event",
            [
                Column("id", ColumnType.INT, primary_key=True),
                Column("n", ColumnType.INT, nullable=False),
            ],
        )

    def test_recovery_rebuilds_single_version_per_row(self, tmp_path):
        db = Database(tmp_path, durability="always")
        db.create_table(self._schema())
        for i in range(5):
            db.insert("event", {"id": i, "n": 0})
        for i in range(5):
            db.update("event", i, {"n": i * 10})
        db.delete("event", 4)
        db.close()

        revived = Database(tmp_path)
        revived.create_table(self._schema())
        revived.recover()
        table = revived.table("event")
        stats = table.version_statistics()
        assert stats["chains"] == stats["nodes"] == 4
        assert stats["tombstones"] == 0
        for i in range(4):
            assert table.version_chain_length(i) == 1
        with revived.snapshot() as snap:
            assert snap.count("event") == 4
            assert snap.get("event", 3)["n"] == 30


# -- pruning follows the commits, not the table size ----------------------


def _counter_schema() -> TableSchema:
    return TableSchema(
        "t",
        [
            Column("id", ColumnType.INT, primary_key=True),
            Column("v", ColumnType.INT, nullable=False),
        ],
    )


def _chain_walk(table) -> dict:
    """``version_statistics`` the slow way: every node of every chain."""
    chains = nodes = tombstones = multi = 0
    for head in table._rows.values():
        chains += 1
        multi += head.older is not None
        node = head
        while node is not None:
            nodes += 1
            tombstones += node.row is None
            node = node.older
    return {
        "chains": chains,
        "nodes": nodes,
        "tombstones": tombstones,
        "superseded_versions": nodes - chains,
        "multi_version_chains": multi,
    }


class TestPruneQueue:
    @pytest.mark.parametrize("updated", [0, 1, 7, 40])
    def test_close_examines_only_the_updated_chains(self, monkeypatch, updated):
        db = Database()
        db.create_table(_counter_schema())
        with db.transaction() as txn:
            for pk in range(10_000):
                txn.insert("t", {"id": pk, "v": 0})
        for pk in range(0, 10_000, 10_000 // max(updated, 1))[:updated]:
            db.update("t", pk, {"v": 1})
        calls = []
        truncate = Table._truncate_chain
        monkeypatch.setattr(
            Table,
            "_truncate_chain",
            lambda self, head, horizon: calls.append(1) or truncate(self, head, horizon),
        )
        visited = db.obs.metrics.counter(
            "storage_prune_chains_visited_total", labels=("table",)
        ).labels(table="t")
        before = visited.value
        db.snapshot().close()
        assert len(calls) <= updated
        assert visited.value - before == updated
        stats = db.table("t").version_statistics()
        assert stats == _chain_walk(db.table("t"))
        assert stats["nodes"] == stats["chains"] == 10_000

    def test_commits_bound_the_queue_with_no_snapshot_closed(self):
        """A writer that never closes a snapshot (a bulk load, a standby
        replica) keeps the queue at the live rows plus what the horizon
        pins, not one entry per write."""
        db = Database()
        db.create_table(_counter_schema())
        for pk in range(10):
            db.insert("t", {"id": pk, "v": 0})
        table = db.table("t")
        for n in range(10_000):
            db.update("t", n % 10, {"v": n})
            if n % 3 == 0:
                db.delete("t", n % 10)
                db.insert("t", {"id": n % 10, "v": n})
            assert len(table._prunable) <= 11
        for pk in range(10, 5_010):
            db.insert("t", {"id": pk, "v": 0})
            db.delete("t", pk)
            assert len(table._prunable) <= 11
        assert table.version_statistics() == _chain_walk(table)
        assert table.version_statistics()["nodes"] <= 21
        pinned = db.snapshot()
        for n in range(1_000):
            db.update("t", n % 10, {"v": -n})
        assert len(table._prunable) >= 1_000  # each a retained version
        pinned.close()
        assert not table._prunable

    def test_replicated_commits_bound_the_queue(self):
        primary, replica = Database(), Database()
        for db in (primary, replica):
            db.create_table(_counter_schema())
        primary.on_commit(  # an in-memory primary logs no record: build it
            lambda event: replica.apply_replicated_commit(
                commit_record(event.ops, primary._encode_row_for_wal),
                seq=event.seq,
            )
        )
        for pk in range(10):
            primary.insert("t", {"id": pk, "v": 0})
        table = replica.table("t")
        for n in range(2_000):
            primary.update("t", n % 10, {"v": n})
            if n % 7 == 0:
                primary.delete("t", n % 10)
                primary.insert("t", {"id": n % 10, "v": n})
            assert len(table._prunable) <= 11
        assert list(replica.rows("t")) == list(primary.rows("t"))
        assert table.version_statistics() == _chain_walk(table)
        assert table.version_statistics()["nodes"] <= 21

    def test_the_queue_stays_in_order(self):
        db = Database()
        db.create_table(_counter_schema())
        db.insert("t", {"id": 1, "v": 0})
        db.insert("t", {"id": 2, "v": 0})
        first = db.snapshot()
        db.delete("t", 1)  # the tombstone's entry
        second = db.snapshot()
        db.update("t", 2, {"v": 1})  # an entry above it, pinned by second
        txn = db.transaction()
        txn.insert("t", {"id": 1, "v": 5})
        first.close()  # pops the tombstone's entry inside the transaction
        txn.rollback()  # bares the tombstone again
        table = db.table("t")
        seqs = [seq for seq, _pk in table._prunable]
        assert len(seqs) == 2 and seqs == sorted(seqs)
        assert second.get("t", 2)["v"] == 0
        second.close()
        assert not table._prunable and 1 not in table._rows
        assert table.version_statistics() == _chain_walk(table)

    def test_pinned_entries_wait_for_the_horizon(self):
        db = Database()
        db.create_table(_counter_schema())
        for pk in range(5):
            db.insert("t", {"id": pk, "v": 0})
        pinned = db.snapshot()
        db.update("t", 1, {"v": 1})
        db.delete("t", 2)
        for _ in range(3):
            db.snapshot().close()  # the horizon stays at the pinned seq
        table = db.table("t")
        assert table.version_chain_length(1) == 2
        assert pinned.get("t", 2)["v"] == 0
        assert len(table._prunable) == 2
        pinned.close()
        assert not table._prunable
        assert table.version_statistics() == _chain_walk(table)
        assert table.version_statistics()["nodes"] == 4

    def test_rollback_queues_nothing_and_rebares_a_tombstone(self):
        db = Database()
        db.create_table(_counter_schema())
        db.insert("t", {"id": 1, "v": 0})
        snap = db.snapshot()  # keeps the tombstone past its commit
        db.delete("t", 1)
        table = db.table("t")
        txn = db.transaction()
        txn.insert("t", {"id": 1, "v": 5})
        txn.update("t", 1, {"v": 6})
        snap.close()  # prunes inside the open transaction
        txn.rollback()
        assert table.version_statistics() == _chain_walk(table)
        assert table.version_statistics()["tombstones"] == 1
        db.snapshot().close()
        assert table.version_statistics() == _chain_walk(table)
        assert 1 not in table._rows and not table._prunable

    def test_add_column_backfill_is_queued(self):
        db = Database()
        db.create_table(_counter_schema())
        for pk in range(4):
            db.insert("t", {"id": pk, "v": pk})
        pinned = db.snapshot()
        db.add_column("t", Column("w", ColumnType.INT, default=7))
        table = db.table("t")
        assert table.version_statistics() == _chain_walk(table)
        assert table.version_statistics()["multi_version_chains"] == 4
        assert "w" not in pinned.get("t", 3)
        pinned.close()
        assert table.version_statistics()["nodes"] == 4


#: One step of the MVCC model test: autocommit writes, a transaction
#: that commits or rolls back (optionally closing a snapshot while it is
#: open, which prunes inside it), and snapshot opens and closes.
_writes = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 6), st.integers(0, 9)),
        st.tuples(st.just("update"), st.integers(0, 6), st.integers(0, 9)),
        st.tuples(st.just("delete"), st.integers(0, 6), st.just(0)),
    ),
    min_size=1,
    max_size=4,
)
_steps = st.lists(
    st.one_of(
        _writes.map(lambda ops: ("autocommit", ops, False, None)),
        st.tuples(
            st.just("txn"), _writes, st.booleans(),
            st.one_of(st.none(), st.integers(0, 3)),
        ),
        st.just(("open", None, False, None)),
        st.tuples(st.just("close"), st.integers(0, 3), st.just(False), st.none()),
    ),
    max_size=30,
)


def _write(target, model: dict, op: tuple) -> None:
    kind, pk, value = op
    if kind == "insert" and pk not in model:
        target.insert("t", {"id": pk, "v": value})
        model[pk] = value
    elif kind == "update" and pk in model:
        target.update("t", pk, {"v": value})
        model[pk] = value
    elif kind == "delete" and pk in model:
        target.delete("t", pk)
        del model[pk]


class TestPruneQueueModel:
    @given(steps=_steps)
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_snapshots_and_statistics_follow_a_model(self, steps):
        db = Database(query_cache_size=0)
        db.create_table(_counter_schema())
        table = db.table("t")
        committed: dict = {}
        open_snaps: list = []  # (snapshot, what it read when opened)

        def close(index):
            if open_snaps:
                snap, _seen = open_snaps.pop(index % len(open_snaps))
                snap.close()

        for kind, arg, commit, close_at in steps:
            if kind == "autocommit":
                for op in arg:
                    _write(db, committed, op)
            elif kind == "txn":
                model = dict(committed)
                txn = db.transaction()
                for op in arg:
                    _write(txn, model, op)
                if close_at is not None:
                    close(close_at)
                if commit:
                    txn.commit()
                    committed = model
                else:
                    txn.rollback()
            elif kind == "open":
                open_snaps.append((db.snapshot(), dict(committed)))
            else:
                close(arg)
            for snap, seen in open_snaps:
                rows = snap.query("t").all()
                assert {row["id"]: row["v"] for row in rows} == seen
            assert table.version_statistics() == _chain_walk(table)
            assert {row["id"]: row["v"] for row in db.rows("t")} == committed

        while open_snaps:
            close(0)
        db.snapshot().close()
        stats = table.version_statistics()
        assert stats == _chain_walk(table)
        assert stats["nodes"] == stats["chains"] == len(committed)
        assert stats["tombstones"] == 0
