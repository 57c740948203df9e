"""The read path's per-row work, and updates that re-file only moved keys.

* ``order_by`` sorts natively ordered columns (INT, FLOAT, TEXT, BOOL)
  without :func:`sort_key`, and every other column with it; either way
  the output is ``sort_key`` order with NULLs first — live, on a
  snapshot, and on a snapshot pinned before ``add_column``, whose rows
  lack the new column.
* Every index plan yields pks in pk order, so forcing each applicable
  plan gives the identical list, and that list is what a scan returns.
* A full-key equality on an ordered index is priced at its exact
  bucket, so ``explain()`` is exact on skewed columns too.
* An update re-files a row only in the indexes whose columns it moved;
  rolling it back restores them.
"""

from __future__ import annotations

import datetime as dt

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage import Column, ColumnType, Database, TableSchema
from repro.storage.index import OrderedIndex
from repro.storage.types import sort_key

VALUES = {
    ColumnType.INT: st.integers(min_value=-20, max_value=20),
    ColumnType.FLOAT: st.floats(allow_nan=False, allow_infinity=False, width=32),
    ColumnType.TEXT: st.text(alphabet="abAB ", max_size=3),
    ColumnType.BOOL: st.booleans(),
    ColumnType.DATETIME: st.datetimes(
        min_value=dt.datetime(2009, 1, 1), max_value=dt.datetime(2011, 1, 1)
    ),
    ColumnType.JSON: st.one_of(
        st.integers(min_value=-3, max_value=3),
        st.text(alphabet="ab", max_size=2),
        st.lists(st.integers(min_value=0, max_value=2), max_size=2),
        st.dictionaries(st.sampled_from("xy"), st.integers(0, 2), max_size=1),
    ),
}


def column_values(kind: ColumnType, nullable: bool):
    values = VALUES[kind]
    return st.one_of(st.none(), values) if nullable else values


def reference(rows, keys):
    """*rows* ordered by *keys*, then by id: stable ``sort_key`` passes."""
    out = sorted(rows, key=lambda r: r["id"])
    for column, descending in reversed(keys):
        out.sort(key=lambda r: sort_key(r.get(column)), reverse=descending)
    return out


def ordered(query, keys):
    for column, descending in keys:
        query = query.order_by(column, descending=descending)
    return query.order_by("id")


class TestOrderByMatchesSortKey:
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_live_snapshot_and_pre_add_column_snapshot(self, data):
        kinds = {
            name: data.draw(st.sampled_from(sorted(VALUES, key=str)), label=name)
            for name in ("v", "w", "x")
        }
        nullable = {
            name: data.draw(st.booleans(), label=f"{name} nullable")
            for name in kinds
        }
        # JSON values are unhashable, so only other columns get indexes.
        indexes = [
            name for name in ("v", "w")
            if kinds[name] is not ColumnType.JSON
            and data.draw(st.booleans(), label=f"index {name}")
        ]
        db = Database()
        db.create_table(
            TableSchema(
                "t",
                [
                    Column("id", ColumnType.INT, primary_key=True),
                    Column("v", kinds["v"], nullable=nullable["v"]),
                    Column("w", kinds["w"], nullable=nullable["w"]),
                ],
                indexes=indexes,
            )
        )
        pairs = data.draw(
            st.lists(
                st.tuples(
                    column_values(kinds["v"], nullable["v"]),
                    column_values(kinds["w"], nullable["w"]),
                ),
                max_size=20,
            ),
            label="rows",
        )
        for v, w in pairs:
            db.insert("t", {"v": v, "w": w})
        keys = data.draw(
            st.lists(
                st.tuples(st.sampled_from(["v", "w"]), st.booleans()),
                min_size=1,
                max_size=2,
                unique_by=lambda key: key[0],
            ),
            label="order",
        )
        rows = list(db.rows("t"))
        expected = reference(rows, keys)

        assert ordered(db.query("t"), keys).all() == expected
        snap = db.snapshot()
        try:
            assert ordered(snap.query("t"), keys).all() == expected
            # The new column exists live, not in the snapshot's rows:
            # there it sorts as NULL would.
            default = data.draw(VALUES[kinds["x"]], label="x default")
            db.add_column(
                "t", Column("x", kinds["x"], nullable=False, default=default)
            )
            with_x = [("x", data.draw(st.booleans(), label="x desc"))] + keys
            pinned = ordered(snap.query("t"), with_x).all()
            assert pinned == reference(rows, with_x)
            assert all("x" not in row for row in pinned)
            live = [dict(row, x=default) for row in rows]
            assert ordered(db.query("t"), with_x).all() == reference(live, with_x)
        finally:
            snap.close()

    def test_nulls_first_ascending_and_last_descending(self):
        db = Database()
        db.create_table(
            TableSchema(
                "t",
                [
                    Column("id", ColumnType.INT, primary_key=True),
                    Column("n", ColumnType.INT),
                ],
            )
        )
        for n in (3, None, 1, None, 2):
            db.insert("t", {"n": n})
        up = db.query("t").order_by("n").pks()
        down = db.query("t").order_by("n", descending=True).pks()
        assert up == [2, 4, 3, 5, 1]
        assert down == [1, 5, 3, 2, 4]


def skewed_db(*, composite: bool = True, **kwargs) -> Database:
    """``item.a`` is 0 on 60 rows and 1..10 on two rows each."""
    db = Database(**kwargs)
    db.create_table(
        TableSchema(
            "item",
            [
                Column("id", ColumnType.INT, primary_key=True),
                Column("a", ColumnType.INT),
                Column("b", ColumnType.TEXT),
                Column("c", ColumnType.INT),
            ],
            indexes=["a", "b"],
            ordered=[("a", "b")] if composite else [],
        )
    )
    with db.transaction() as txn:
        for i in range(80):
            a = 0 if i < 60 else 1 + (i - 60) // 2
            # Interleave the pks so no index hands them out in pk order
            # by accident of insertion.
            pk = 1000 - i if i % 2 else i + 1
            txn.insert("item", {"id": pk, "a": a, "b": "xy"[i % 3 == 0], "c": i})
    return db


class TestEveryIndexPlanAgrees:
    def test_forced_plans_yield_one_list(self):
        db = skewed_db(query_cache_size=0)
        query = db.query("item").where("a", "=", 0).where("b", "=", "x")
        plans = query._candidate_plans(for_snapshot=False)
        kinds = {plan.strategy: plan.kind for plan in plans}
        assert {"hash", "intersect", "seek", "scan"} <= set(kinds.values())
        assert "prefix:ox_item_a_b" in kinds
        # The single-column index answers equality once, as a probe.
        assert kinds["index:sx_item_a"] == "hash"
        assert "prefix:sx_item_a" not in kinds
        scan = next(plan for plan in plans if plan.kind == "scan")
        expected = list(query._iter_plan_rows(scan))
        expected_set = {row["id"] for row in expected}
        assert len(expected) == 40
        results = {}
        for plan in plans:
            if plan.kind == "scan":
                continue
            results[plan.strategy] = [
                row["id"] for row in query._iter_plan_rows(plan)
            ]
        for strategy, pks in results.items():
            assert pks == sorted(expected_set), strategy

    @pytest.mark.parametrize("limit", [None, 1, 7])
    def test_limit_without_order_is_plan_independent(self, limit):
        db = skewed_db(query_cache_size=0)
        query = db.query("item").where("a", "=", 0)
        if limit is not None:
            query = query.limit(limit)
        answers = set()
        for plan in query._candidate_plans(for_snapshot=False):
            # A scan, or a seek on a key prefix (its free columns are
            # an order of its own), promises no particular order.
            if plan.kind == "scan" or plan.ordered:
                continue
            query._plan = lambda plan=plan: plan
            answers.add(tuple(query.pks()))
        assert len(answers) == 1
        (pks,) = answers
        everything = sorted(
            row["id"] for row in db.rows("item") if row["a"] == 0
        )
        assert list(pks) == everything[:limit]

    def test_snapshot_pins_pk_order_too(self):
        db = skewed_db()
        live = db.query("item").where("a", "=", 0).where("b", "=", "x").pks()
        with db.snapshot() as snap:
            pinned = snap.query("item").where("a", "=", 0).where("b", "=", "x")
            assert pinned.pks() == live
        assert len(live) == 40 and live == sorted(live)


class TestExactEqualityEstimates:
    def test_explain_is_exact_on_a_skewed_column(self):
        # Without the composite, whose key-prefix seeks are still priced
        # at the average bucket.
        db = skewed_db(composite=False)
        for value, actual in ((0, 60), (3, 2), (99, 0)):
            report = db.query("item").where("a", "=", value).explain(analyze=True)
            assert report["actual_rows"] == actual
            assert report["estimated_rows"] == actual
            # One structure, priced once: no prefix seek over the same
            # buckets rivals the probe.
            assert report["strategy"] == "index:sx_item_a"
            assert not any(
                alt["strategy"].endswith("sx_item_a")
                for alt in report["alternatives"]
            )

    def test_full_key_estimate_is_the_bucket(self):
        index = OrderedIndex("t", ("a", "b"))
        for pk, (a, b) in enumerate([(1, "x")] * 5 + [(1, "y"), (2, "x")]):
            index.add({"a": a, "b": b}, pk)
        assert index.estimate_range((1, "x")) == (1, 5.0)
        assert index.estimate_range((1, "y")) == (1, 1.0)
        assert index.estimate_range((3, "x")) == (0, 0.0)
        # A prefix or a bounded seek is still priced from bisects.
        assert index.estimate_range((1,))[0] == 2
        assert index.estimate_range((), low=2)[0] == 1


def workunit_db() -> Database:
    db = Database()
    db.create_table(
        TableSchema(
            "workunit",
            [
                Column("id", ColumnType.INT, primary_key=True),
                Column("name", ColumnType.TEXT, nullable=False, unique=True),
                Column("project", ColumnType.INT),
                Column("status", ColumnType.TEXT),
                Column("note", ColumnType.TEXT),
                Column("created", ColumnType.DATETIME),
            ],
            indexes=["project", "status", "created"],
            ordered=[("project", "name")],
        )
    )
    with db.transaction() as txn:
        for i in range(12):
            txn.insert(
                "workunit",
                {
                    "name": f"wu {i:02d}",
                    "project": i % 3,
                    "status": "available",
                    "note": "",
                    "created": dt.datetime(2010, 1, 1 + i),
                },
            )
    return db


def index_state(db: Database, table: str) -> dict:
    """Every index's entries, through the public read surface."""
    tbl = db.table(table)
    state = {}
    for index in [*tbl._unique_indexes, *tbl.hash_indexes(), *tbl.ordered_indexes()]:
        if isinstance(index, OrderedIndex):
            entries = [
                (index.raw_key(key), frozenset(pks)) for key, pks in index.seek()
            ]
        else:
            entries = {
                key: frozenset(index.lookup(key)) for key, _bucket in index.entries()
            }
        state[index.name] = (len(index), entries)
    return state


def index_ops(db: Database, table: str) -> tuple[float, float]:
    family = db.obs.metrics.get("storage_index_ops_total")
    return (
        family.labels(table=table, action="add").value,
        family.labels(table=table, action="remove").value,
    )


class TestUpdatesMoveOnlyMovedKeys:
    def test_unindexed_update_touches_no_index(self):
        db = workunit_db()
        before, ops = index_state(db, "workunit"), index_ops(db, "workunit")
        db.update("workunit", 4, {"note": "re-run"})
        assert index_state(db, "workunit") == before
        assert index_ops(db, "workunit") == ops
        # The same value again, or an equal one, moves nothing either.
        db.update("workunit", 4, {"status": "available", "project": 0})
        assert index_state(db, "workunit") == before
        assert index_ops(db, "workunit") == ops
        assert db.verify_integrity() == []

    def test_indexed_update_moves_only_that_columns_indexes(self):
        db = workunit_db()
        before, (added, removed) = (
            index_state(db, "workunit"), index_ops(db, "workunit")
        )
        db.update("workunit", 4, {"status": "processing", "note": "started"})
        after = index_state(db, "workunit")
        moved = {name for name in before if before[name] != after[name]}
        assert moved == {"sx_workunit_status"}
        assert index_ops(db, "workunit") == (added + 1, removed + 1)
        assert db.query("workunit").where("status", "=", "processing").pks() == [4]
        db.update("workunit", 4, {"name": "wu renamed"})
        renamed = index_state(db, "workunit")
        assert {n for n in after if after[n] != renamed[n]} == {
            "uq_workunit_name", "ox_workunit_project_name",
        }
        assert db.verify_integrity() == []

    @pytest.mark.parametrize(
        "changes",
        [{"note": "x"}, {"status": "failed"}, {"project": 2, "name": "moved"}],
    )
    def test_rollback_restores_the_indexes(self, changes):
        db = workunit_db()
        before = index_state(db, "workunit")
        with db.transaction() as txn:
            txn.update("workunit", 5, changes)
            txn.update("workunit", 5, {"note": "twice"})
            txn.rollback()
        assert index_state(db, "workunit") == before
        assert db.get("workunit", 5)["note"] == ""
        assert db.verify_integrity() == []

    def test_equal_aware_datetimes_still_refile(self):
        """Equal values of a type whose stored form can differ (aware
        datetimes in two zones) are re-filed, not trusted as unmoved:
        the index keeps the raw value a covering read hands out."""
        db = workunit_db()
        utc = dt.datetime(2010, 6, 1, 12, tzinfo=dt.timezone.utc)
        zurich = utc.astimezone(dt.timezone(dt.timedelta(hours=2)))
        assert utc == zurich and utc.isoformat() != zurich.isoformat()
        db.update("workunit", 3, {"created": utc})
        db.update("workunit", 3, {"created": zurich})
        index = db.table("workunit").ordered_index_for(("created",))
        filed = [
            index.raw_key(key)[0].isoformat()
            for key, pks in index.seek()
            if 3 in pks
        ]
        assert filed == [zurich.isoformat()]
        # Equal instants share a sort key, so a probe finds what == does.
        assert sort_key(utc) == sort_key(zurich)
        assert db.query("workunit").where("created", "=", utc).pks() == [3]
        db.delete("workunit", 3)
        assert all(3 not in pks for _key, pks in index.seek())
        assert db.verify_integrity() == []
