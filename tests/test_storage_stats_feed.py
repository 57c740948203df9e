"""Planner statistics are derived from committed state only.

``Table.commit_version`` feeds them from the versions a commit
publishes, so:

* a rolled-back block, at the root or inside a savepoint, leaves every
  table's ``stats_state()`` as it was;
* a restart (checkpointed sampler state plus the WAL tail) reproduces
  the never-restarted process's reservoirs, slot for slot;
* the statistics always equal a fresh :class:`TableStatistics` fed the
  committed ops in commit order (the oracle property);
* ``verify_integrity`` checks each column's counters against the rows.
"""

from __future__ import annotations

import tempfile
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.errors import StorageError
from repro.storage import Column, ColumnType, Database, TableSchema
from repro.storage import stats as stats_module
from repro.storage.stats import RESERVOIR_SIZE, TableStatistics


def schemas() -> list[TableSchema]:
    return [
        TableSchema(
            "event",
            [
                Column("id", ColumnType.INT, primary_key=True),
                Column("kind", ColumnType.TEXT),
                Column("score", ColumnType.INT),
            ],
            indexes=["score"],
        ),
        TableSchema(
            "tag",
            [
                Column("id", ColumnType.INT, primary_key=True),
                Column("label", ColumnType.TEXT),
            ],
        ),
    ]


def open_db(path=None) -> Database:
    db = Database(path, durability="buffered") if path else Database()
    for schema in schemas():
        db.create_table(schema)
    return db


def states(db: Database) -> dict:
    return {name: db.table(name).stats_state() for name in db.table_names()}


class Rollback(Exception):
    pass


def fill(db: Database, count: int, kind: str = "a") -> None:
    with db.transaction():
        for i in range(count):
            db.insert("event", {"kind": kind, "score": i % 13})


class TestRolledBackWrites:
    def test_a_root_rollback_leaves_the_statistics(self):
        db = open_db()
        fill(db, 600)
        before = states(db)
        distinct = db.table("event").distinct_count("kind")
        try:
            with db.transaction():
                for i in range(600):
                    db.insert("event", {"kind": f"k{i}", "score": i})
                db.update("event", 1, {"kind": "changed"})
                db.delete("event", 2)
                raise Rollback
        except Rollback:
            pass
        assert states(db) == before
        assert db.table("event").distinct_count("kind") == distinct
        assert db.verify_integrity() == []

    def test_a_savepoint_rollback_leaves_the_statistics(self):
        db = open_db()
        fill(db, 600)
        with db.transaction():
            db.insert("tag", {"label": "kept"})
            inside = states(db)
            try:
                with db.transaction():
                    for i in range(600):
                        db.insert("event", {"kind": f"k{i}", "score": i})
                    db.update("event", 1, {"kind": "changed"})
                    db.delete("event", 2)
                    raise Rollback
            except Rollback:
                pass
            assert states(db) == inside
        committed = open_db()
        fill(committed, 600)
        committed.insert("tag", {"label": "kept"})
        assert states(db) == states(committed)
        assert db.verify_integrity() == []

    def test_an_open_transaction_is_counted_at_commit(self):
        db = open_db()
        fill(db, 10)
        before = states(db)
        with db.transaction():
            db.insert("event", {"kind": "new", "score": 1})
            assert states(db) == before
        assert states(db) != before
        assert db.table("event").distinct_count("kind") == 2


class TestRestart:
    def test_a_restart_reproduces_a_full_reservoir(self, tmp_path):
        db = open_db(tmp_path)
        fill(db, 600)
        assert len(db.table("event").stats_state()["kind"]["reservoir"]) == (
            RESERVOIR_SIZE
        )
        db.checkpoint()
        for i in range(300):
            db.insert("event", {"kind": f"tail {i}", "score": i})
        db.update("event", 5, {"kind": "updated"})
        db.delete("event", 6)
        live = states(db)
        db.close()
        restarted = open_db(tmp_path)
        restarted.recover()
        assert states(restarted) == live
        assert restarted.verify_integrity() == []
        restarted.close()


class TestIntegrity:
    def test_a_corrupt_counter_is_listed(self):
        db = open_db()
        fill(db, 20)
        assert db.verify_integrity() == []
        db.table("event").statistics().column("kind").inserted += 1
        assert db.verify_integrity() == [
            "event: statistics of 'kind' count 21 rows, the table holds 20"
        ]


# -- the oracle ---------------------------------------------------------------

row_op = st.one_of(
    st.tuples(
        st.just("insert"),
        st.sampled_from(["event", "tag"]),
        st.integers(min_value=0, max_value=5),
    ),
    st.tuples(
        st.just("update"),
        st.sampled_from(["event", "tag"]),
        st.integers(min_value=1, max_value=40),
        st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
    ),
    st.tuples(
        st.just("delete"),
        st.sampled_from(["event", "tag"]),
        st.integers(min_value=1, max_value=40),
    ),
)
ops = st.lists(row_op, max_size=8)
block = st.tuples(
    st.just("block"),
    ops,  # before the nested block
    ops,  # inside it
    st.booleans(),  # the nested block rolls back
    ops,  # after it
    st.booleans(),  # the root rolls back
)
schedule = st.lists(
    st.one_of(block, st.just(("checkpoint",)), st.just(("restart",))),
    max_size=12,
)


def apply(db: Database, op: tuple) -> None:
    kind, table = op[0], op[1]
    try:
        if kind == "insert":
            values = {"kind": f"k{op[2]}", "score": op[2], "label": f"l{op[2]}"}
            columns = db.table(table).schema.column_names
            db.insert(table, {k: v for k, v in values.items() if k in columns})
        elif kind == "update":
            column = "kind" if table == "event" else "label"
            value = None if op[3] is None else f"v{op[3]}"
            db.update(table, op[2], {column: value})
        else:
            db.delete(table, op[2])
    except StorageError:
        pass  # a missing row: the op is a no-op, the schedule goes on


def run_block(db: Database, step: tuple) -> None:
    _, before, inside, inner_fails, after, outer_fails = step
    try:
        with db.transaction():
            for op in before:
                apply(db, op)
            try:
                with db.transaction():
                    for op in inside:
                        apply(db, op)
                    if inner_fails:
                        raise Rollback
            except Rollback:
                pass
            for op in after:
                apply(db, op)
            if outer_fails:
                raise Rollback
    except Rollback:
        pass


class TestStatisticsAreAFoldOfTheCommits:
    @given(steps=schedule)
    @settings(max_examples=60, deadline=None)
    def test_statistics_equal_the_fold(self, steps):
        """A reservoir of four overflows within a few ops, so the slot
        function is exercised, across restarts too."""
        oracle = {
            schema.name: TableStatistics(schema.column_names)
            for schema in schemas()
        }

        def fold(event):
            for op in event.ops:
                if op.before is not None:
                    oracle[op.table].on_remove(op.before)
                if op.after is not None:
                    oracle[op.table].on_insert(op.after)

        with mock.patch.object(stats_module, "RESERVOIR_SIZE", 4), \
                tempfile.TemporaryDirectory() as path:
            db = open_db(path)
            db.on_commit(fold)
            for step in steps:
                if step[0] == "block":
                    run_block(db, step)
                elif step[0] == "checkpoint":
                    db.checkpoint()
                else:
                    db.close()
                    db = open_db(path)
                    db.recover()
                    db.on_commit(fold)
                expected = {name: s.state() for name, s in oracle.items()}
                assert states(db) == expected, step
                assert db.verify_integrity() == []
            db.close()


class TestColumnDeclaredSinceTheCheckpoint:
    def test_its_statistics_are_fed_the_loaded_rows(self, tmp_path):
        db = open_db(tmp_path)
        fill(db, 5)
        db.checkpoint()
        db.close()
        widened = Database(tmp_path, durability="buffered")
        event, tag = schemas()
        note = Column("note", ColumnType.TEXT)
        widened.create_table(
            TableSchema("event", [*event.columns, note], indexes=["score"])
        )
        widened.create_table(tag)
        widened.recover()
        assert widened.table("event").stats_state()["note"]["nulls"] == 5
        assert widened.verify_integrity() == []
        widened.close()
